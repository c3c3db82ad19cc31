"""The benchmark's tracer hooks still find the functions they wrap.

`bench/tracing.py` patches taperspec functions by module and name from
outside the package; a renamed or moved function makes the traced
benchmark fail.  The file is loaded here read-only, without putting
`bench/` on the import path, and must leave every output byte alone.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from taperspec.cli import main  # loads the harness and every traced module

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing",
                                                  REPO / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _owner_and_name(mod_name, attr):
    owner = sys.modules[f"taperspec.{mod_name}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _bound(tracing) -> dict:
    """(module, attribute) -> the object each traced target binds now."""
    out = {}
    for mod_name, attr in (t[1:3] for t in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS):
        owner, name = _owner_and_name(mod_name, attr)
        assert name in vars(owner), f"taperspec.{mod_name}.{attr} is gone"
        out[mod_name, attr] = vars(owner)[name]
    return out


def test_every_traced_target_resolves(tracing):
    bound = _bound(tracing)
    assert len(bound) > 20 and all(callable(fn) for fn in bound.values())


def test_tracer_installs_and_restores_every_target(tracing):
    before = _bound(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _bound(tracing)
    finally:
        tracer.uninstall()
    assert all(wrapped[t] is not before[t] for t in before)
    assert _bound(tracing) == before


_COMPOSITE = ["gof", "--mode", "composite", "--basis", "ar-example:4",
              "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
              "--T", "512", "--reps", "2", "--seed", "59", "--out", "gc"]


def test_traced_composite_gof_writes_the_untraced_bytes(tracing, tmp_path, monkeypatch):
    def run(label):
        (tmp_path / label).mkdir()
        monkeypatch.chdir(tmp_path / label)
        assert main(_COMPOSITE) == 0

    run("plain")
    with tracing.Tracer() as tracer:
        run("traced")
    for ext in (".csv", ".json"):
        assert ((tmp_path / "plain" / f"gc{ext}").read_bytes()
                == (tmp_path / "traced" / f"gc{ext}").read_bytes()), ext
    for name in ("whittle.whittle_estimate", "gof.phi_vector", "gof.b_matrix",
                 "gof.basis_build", "gof.composite_test"):
        assert tracer.counts[name] == 2, name
    assert tracer.counts["whittle.objective"] > 2


_FUNCTIONAL = ["estimate-functional", "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
               "--g", "cosine:1", "--T", "512", "--reps", "3", "--seed", "61", "--out", "fn"]


def test_traced_functional_study_sees_every_layer_once_per_replication(tracing, tmp_path,
                                                                       monkeypatch):
    # the study's constants are resolved once, but each replication still
    # goes through every traced layer of the estimator
    def run(label):
        (tmp_path / label).mkdir()
        monkeypatch.chdir(tmp_path / label)
        assert main(_FUNCTIONAL) == 0

    run("plain")
    with tracing.Tracer() as tracer:
        run("traced")
    for ext in (".csv", ".json"):
        assert ((tmp_path / "plain" / f"fn{ext}").read_bytes()
                == (tmp_path / "traced" / f"fn{ext}").read_bytes()), ext
    for name in ("functionals.plugin_estimate", "functionals.quadratic_form",
                 "spectrum.tapered_periodogram", tracing.SIMULATE_SPAN):
        assert tracer.counts[name] == 3, name


def test_moment_quadratures_count_custom_tapers_only(tracing, tmp_path, monkeypatch):
    # the built-in tapers carry closed-form moments, so a study that builds
    # its taper and reads e(h) under the tracer runs no quadrature; a custom
    # taper still integrates, and the bench counter must still see it
    from taperspec import harness, taper

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(taper, "_INSTANCES", {})
    harness._resolve.cache_clear()
    try:
        with tracing.Tracer() as tracer:
            assert main(_FUNCTIONAL) == 0
    finally:
        harness._resolve.cache_clear()
    assert tracer.counts["taper.Taper"] == 1
    assert tracer.counts["taper.tapering_factor"] >= 1
    assert tracer.counts["taper.moment.quadratures"] == 0

    with tracing.Tracer() as tracer:
        taper.custom("parabola", lambda t: t * (1.0 - t))
    assert tracer.counts["taper.moment.quadratures"] > 0

"""Self-tests of the benchmark: span arithmetic, tracer hygiene, metric names,
reference check, host probe.

Run with `python3 -m pytest bench/selftest_bench.py -q` from the repository
root.  The file name keeps the repository's own test run from collecting it.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# The benchmark's modules import each other by bare name, as the scripts do;
# the search path is widened only while they load.
_saved_path = sys.path[:]
sys.path[:0] = [str(BENCH), str(SRC)]
try:
    import probe
    import run_bench
    import tracing
    import worker
    from tracing import Span, Tracer, self_times
    from workloads import REFERENCE_SEEDS, WORKLOADS
finally:
    sys.path[:] = _saved_path


def test_self_time_subtracts_direct_children_only():
    spans = [Span("root", 0.0, 10.0, -1),
             Span("a", 1.0, 4.0, 0),
             Span("b", 2.0, 3.0, 1),   # grandchild: counts against a only
             Span("c", 3.5, 6.5, 0),   # overlaps a: the union is 1.0..6.5
             Span("d", 8.0, 12.0, 0)]  # overruns root: clipped at 10
    assert self_times(spans) == pytest.approx([10 - 5.5 - 2, 3 - 1, 1, 3, 4])


def test_layer_metrics_take_exact_counts_and_median_self_times():
    def profile(calls, own):
        counts = dict.fromkeys(tracing.CALL_COUNTED + tracing.WORK_COUNTS, 0)
        counts.update({"taper.Taper": calls, "whittle.fits": 0, "whittle.converged_fits": 0})
        self_s = dict.fromkeys(tracing.SELF_TIMED, 0.0)
        self_s["taper.Taper"] = own
        return {"counts": counts, "self_s": self_s,
                "durations": dict.fromkeys(tracing.P50_TIMED, [])}

    out = tracing.layer_metrics([profile(201, 1.0), profile(201, 3.0), profile(199, 2.5)])
    assert out["taper.Taper.calls"] == 201
    assert out["taper.Taper.self_s"] == 2.5
    assert set(out) == set(tracing.METRIC_NAMES)


def _bindings():
    """Every attribute of every taperspec module and traced class, by identity."""
    import taperspec.models as models
    from taperspec.taper import Taper

    owners = tracing._package_modules() + [Taper] + [
        cls for cls in vars(models).values()
        if isinstance(cls, type) and issubclass(cls, models.Model)]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_restores_every_original():
    from taperspec import harness, models

    before = _bindings()
    with Tracer() as tracer:
        assert harness.parse_model is not models.parse_model.__wrapped__
        model = harness.parse_model("ar1{theta=0.5,sigma2=1}")
        model.simulate(models.gaussian(), 64, 1)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.counts["models.parse_model"] == 1
    assert tracer.counts["models.simulate"] == 1


def test_traced_study_matches_untraced_and_counts_taper_builds(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS["functional"]
    plain = worker.run_study(workload, 7, 3, "plain")
    traced = worker.run_study(workload, 7, 3, "traced", tracer=Tracer())
    assert plain["error"] is None and traced["error"] is None
    assert plain["failed_reps"] == traced["failed_reps"] == 0
    assert plain["csv_sha256"] == traced["csv_sha256"]
    assert plain["results"] == pytest.approx(traced["results"], nan_ok=True)
    assert traced["profile"]["counts"]["taper.Taper"] == 3 + 1


def test_metric_names_are_valid_and_listed_in_benchmark_json():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    emitted = list(run_bench.END_TO_END) + list(run_bench.PER_LAYER)
    assert sorted(declared) == sorted(emitted)
    assert len(set(emitted)) == len(emitted)
    for name in emitted:
        assert name_ok.match(name), name
        assert declared[name] == run_bench.unit_of(name), name
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def _reference_study(seed, k, results):
    return {"seed": 1000 * seed + k, "k": k, "reps": WORKLOADS["functional"].reps,
            "failed_reps": 0, "problems": [], "results": results, "csv_sha256": "x"}


def test_reference_check_fails_a_missing_entry_below_reference_seeds():
    workload = WORKLOADS["functional"]
    constants = {key: 1.0 for key in workload.constants} | {"reps": workload.reps}
    results = dict(constants, mean_estimate=0.5)
    reference = {"functional": {"constants": constants, "by_seed": {
        "0": {"results": results, "csv_sha256": "x"}}}}
    present = _reference_study(0, 0, results)
    missing = _reference_study(1, 0, results)
    later = _reference_study(1, 1, results)  # only study 0 is kept
    beyond = _reference_study(REFERENCE_SEEDS, 0, results)
    run_bench.check_against_reference(workload, 0, [present], reference)
    run_bench.check_against_reference(workload, 1, [missing, later], reference)
    run_bench.check_against_reference(workload, REFERENCE_SEEDS, [beyond], reference)
    assert present["failed_reps"] == later["failed_reps"] == beyond["failed_reps"] == 0
    assert missing["failed_reps"] == missing["reps"]
    assert missing["problems"] == ["no reference results for this seed"]


def test_reference_covers_every_reference_seed():
    reference = json.loads(run_bench.REFERENCE.read_text(encoding="utf-8"))
    assert sorted(reference) == sorted(WORKLOADS)
    for workload in WORKLOADS.values():
        assert reference[workload.name]["reps"] == workload.reps, workload.name
        seeds = {int(seed) for seed in reference[workload.name]["by_seed"]}
        assert seeds == {1000 * s for s in range(REFERENCE_SEEDS)}, workload.name


def test_host_probe_times_both_cores_and_stops_its_helper(monkeypatch):
    # the spawned helper imports the probe module by name
    monkeypatch.syspath_prepend(str(BENCH))
    with probe.HostProbe(cores=2) as host:
        times = host()
        helper = host._helper
    assert set(times) == {1, 2} and min(times.values()) > 0
    helper.join(timeout=10)
    assert not helper.is_alive()
    # probes that average the reference time mean reference speed
    assert probe.speed((0.5 * probe.REFERENCE_S, 1.5 * probe.REFERENCE_S)) == pytest.approx(1.0)

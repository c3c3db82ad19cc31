"""CLI and harness tests.

Oracles here are mostly structural: exit codes, file formats, and
determinism are exact contracts, so the tests compare bytes and parsed
values rather than statistics.  The few Monte Carlo assertions reuse
configurations probed beforehand (seeds frozen) with generous margins:
gof size 0.0667 at T=256 R=150 seed 21 (bounds 0.02/0.09), power 0.95
at T=512 R=100 seed 23 (assert > 0.5).  The zero-trend robustness run
is exactly deterministic because contamination by the zero trend is a
bitwise copy, so its variance ratio is 1 and every check passes.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from taperspec import harness, models
from taperspec import taper as taper_module
from taperspec.cli import build_parser, main
from taperspec.errors import (DegenerateSampleError, DomainError, SchemaError)
from taperspec.functionals import indicator
from taperspec.models import AR1, make_rng
from taperspec.spectrum import canonical_grid, tapered_periodogram
from taperspec.taper import get_taper

REPO = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# normality diagnostics


def test_normality_accepts_gaussian_sample():
    rng = make_rng(42)
    diag = harness.normality_diagnostics(rng.standard_normal(5000))
    assert set(diag) == {"ks_stat", "ks_pvalue", "skew", "kurt"}
    assert diag["ks_pvalue"] > 0.01
    assert abs(diag["skew"]) < 0.2
    assert abs(diag["kurt"]) < 0.3


def test_normality_flags_chi_square_sample():
    rng = make_rng(42)
    diag = harness.normality_diagnostics(rng.chisquare(1, size=5000))
    assert diag["ks_pvalue"] < 0.01
    assert diag["skew"] > 1.0


def test_normality_degenerate_and_short():
    with pytest.raises(DegenerateSampleError):
        harness.normality_diagnostics(np.ones(100))
    with pytest.raises(DomainError, match="n >= 50"):
        harness.normality_diagnostics(np.arange(49.0))
    with pytest.raises(DomainError):
        harness.normality_diagnostics(np.r_[np.ones(60), np.nan])


# ---------------------------------------------------------------------------
# spec parsers and config plumbing


def test_parse_g_variants():
    assert harness.parse_g("cosine:2").degree == 2
    assert harness.parse_g("indicator:1.0").kind == "indicator"
    with pytest.raises(SchemaError, match="'g'"):
        harness.parse_option("g", "hann:3")
    with pytest.raises(SchemaError, match="'g'"):
        harness.parse_option("g", "cosine:x")


def test_parse_trend_variants():
    assert harness.parse_trend("zero").kind == "zero"
    tr = harness.parse_trend("power:2.0,0.6")
    assert tr.c == 2.0 and tr.beta == 0.6
    with pytest.raises(SchemaError, match="trend"):
        harness.parse_option("trend", "power:1.0")
    with pytest.raises(SchemaError, match="trend"):
        harness.parse_option("trend", "power:1.0,0.1")  # decay too slow to be admissible
    with pytest.raises(SchemaError, match="trend"):
        harness.parse_option("trend", "ramp:1")


def test_parse_t_list():
    assert harness.parse_t_list("64,128, 256") == (64, 128, 256)
    with pytest.raises(SchemaError, match=">= 8"):
        harness.parse_t_list("64,4")
    with pytest.raises(SchemaError):
        harness.parse_t_list("a,b")
    with pytest.raises(SchemaError, match="empty"):
        harness.parse_t_list(",")


def test_resolvers_reject_unknown_ids():
    with pytest.raises(SchemaError, match="field 'taper'"):
        harness.parse_option("taper", "kaiser")
    with pytest.raises(SchemaError, match="field 'driver'"):
        harness.parse_option("driver", "cauchy")


def test_resolve_taper_returns_shared_instance():
    assert harness.resolve_taper("tukey") is get_taper("tukey")


def test_experiment_config_validation():
    with pytest.raises(SchemaError, match="kind"):
        harness.ExperimentConfig(kind="frequency-disco")
    with pytest.raises(SchemaError, match="workers"):
        harness.ExperimentConfig(kind="simulate", workers=0)
    cfg = harness.ExperimentConfig(kind="whittle")
    assert harness.KINDS["whittle"].options["seed"] == 0
    assert cfg.out_base == "whittle"


def test_merged_checks_override_and_off():
    cfg = harness.ExperimentConfig(
        kind="whittle",
        check_overrides={"var_ratio_min": "0.5", "min_convergence": "off"})
    merged = cfg.merged_checks()
    assert merged["var_ratio_min"] == 0.5
    assert merged["var_ratio_max"] == 1.15
    assert "min_convergence" not in merged
    bad = harness.ExperimentConfig(kind="whittle",
                                   check_overrides={"var_ratio_min": "wide"})
    with pytest.raises(SchemaError, match="check field"):
        bad.merged_checks()


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\nkind = trace-experiment\npair = ar1xcos\n"
        "T = 64,128\ntaper = rect\n\n[check]\nfinal_delta_max = 0.5\n",
        encoding="utf-8")
    cfg = harness.load_config_file(str(path))
    assert cfg.kind == "trace-experiment"
    assert cfg.options["T"] == "64,128"  # key case preserved
    assert cfg.merged_checks()["final_delta_max"] == 0.5
    with pytest.raises(SchemaError, match="not found"):
        harness.load_config_file(str(tmp_path / "nope.ini"))
    (tmp_path / "nokind.ini").write_text("[experiment]\nT = 64\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="kind"):
        harness.load_config_file(str(tmp_path / "nokind.ini"))
    (tmp_path / "nosec.ini").write_text("[other]\nkind = gof\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="experiment"):
        harness.load_config_file(str(tmp_path / "nosec.ini"))


def test_load_config_file_accepts_every_preset():
    presets = sorted((REPO / "acceptance").glob("*.ini"))
    assert len(presets) == 14
    for path in presets:
        cfg = harness.load_config_file(str(path))
        assert cfg.resolve()["seed"] == int(cfg.options.get("seed", 0)), path.name
        cfg.merged_checks(cfg.options.get("mode"))  # every [check] value parses


def test_csv_cells_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    harness.write_csv(str(path), [{"a": 0.1, "b": True, "c": 7}, {"a": 2, "b": False, "c": "x"}])
    raw = path.read_bytes()
    assert raw == b"a,b,c\r\n0.10000000000000001,1,7\r\n2,0,x\r\n"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["a"] == "0.10000000000000001"


def test_json_is_sorted_and_plain(tmp_path):
    path = tmp_path / "t.json"
    harness.write_json(str(path), {"b": np.float64(1.5), "a": (np.int64(2), True)})
    text = path.read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [2, True], "b": 1.5}


# ---------------------------------------------------------------------------
# subcommand flows (via cli.main, so exit codes are part of the assertion)


def test_simulate_rows_and_seed_recorded(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--model", "ar1{theta=0.5,sigma2=1}",
                 "--T", "32", "--reps", "3", "--seed", "7", "--out", "sim"])
    assert code == 0
    with open(tmp_path / "sim.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 32
    assert {r["rep"] for r in rows} == {"0", "1", "2"}
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert payload["config"]["seed"] == "7"
    assert payload["results"]["provenance"]["model"] == "ar1{theta=0.5,sigma2=1.0}"
    # replication streams differ
    assert rows[0]["value"] != rows[32]["value"]


def test_periodogram_parseval_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["periodogram", "--model", "ar1{theta=0.5,sigma2=1}",
                 "--taper", "tukey", "--T", "64", "--seed", "3",
                 "--out", "pg", "--check"])
    assert code == 0
    res = json.loads((tmp_path / "pg.json").read_text())["results"]
    assert res["parseval_rel_err"] < 1e-12
    assert res["N"] == 256


def test_estimate_functional_identity_and_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["estimate-functional", "--model", "ar1{theta=0.5,sigma2=1}",
            "--taper", "tukey", "--g", "cosine:1", "--T", "256",
            "--reps", "24", "--seed", "5", "--out", "a"]
    assert main(argv) == 0
    assert main([*argv[:-1], "b"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    ja = (tmp_path / "a.json").read_text().replace('"a"', '"X"')
    jb = (tmp_path / "b.json").read_text().replace('"b"', '"X"')
    assert ja == jb
    res = json.loads((tmp_path / "a.json").read_text())["results"]
    assert res["identity_rel_max"] < 1e-10
    assert res["true_value"] == pytest.approx(2.0 / 3.0, rel=1e-9)


_COMPOSITE_GOF = ["gof", "--mode", "composite", "--basis", "ar-example:4",
                  "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
                  "--T", "256"]


_MODEL = ["--model", "ar1{theta=0.5,sigma2=1}"]
_FUNCTIONAL = ["estimate-functional", *_MODEL, "--taper", "rect", "--g", "cosine:1",
               "--T", "128"]


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    # Forked workers inherit process-level state (shared tapers with their
    # cached moments), so every replication engine is compared here.  Each
    # worker count writes into its own directory under the same --out, as
    # the JSON records --out.
    cases = {
        "fn": ([*_FUNCTIONAL, "--reps", "12", "--seed", "17"], "3"),
        "wh": (["whittle", *_MODEL, "--taper", "tukey", "--T", "128",
                "--reps", "6", "--seed", "18"], "3"),
        "gc": ([*_COMPOSITE_GOF, "--reps", "4", "--seed", "19"], "3"),
        "rb": (["robustness", *_MODEL, "--T", "64,128", "--reps", "5",
                "--report-reps", "7", "--seed", "20"], "3"),
        "rw": (["robustness", *_MODEL, "--target", "whittle", "--T", "64,128",
                "--reps", "4", "--seed", "21"], "2"),
        # unequal shares: the parent runs reps 0 and 3, one child 1 and 4, the other 2
        "uneven": ([*_FUNCTIONAL, "--reps", "5", "--seed", "22"], "3"),
        # more workers than replications: one child, none idle
        "few": ([*_FUNCTIONAL, "--reps", "2", "--seed", "23"], "4"),
    }
    for name, (argv, workers) in cases.items():
        for count in ("1", workers):
            (tmp_path / name / count).mkdir(parents=True)
            monkeypatch.chdir(tmp_path / name / count)
            assert main([*argv, "--out", name, "--workers", count]) == 0
        for ext in (".csv", ".json"):
            assert ((tmp_path / name / "1" / f"{name}{ext}").read_bytes()
                    == (tmp_path / name / workers / f"{name}{ext}").read_bytes()), name + ext


def _intercept_functional_reps(monkeypatch, before):
    """estimate-functional replications that call before(rep) first."""
    spec = harness.KINDS["estimate-functional"]

    def rep_fn(o, rep):
        before(rep)
        return spec.rep(o, rep)

    monkeypatch.setitem(harness.KINDS, "estimate-functional",
                        dataclasses.replace(spec, rep=rep_fn))


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_a_failing_replication_ends_the_run_naming_it(tmp_path, monkeypatch, capsys, workers):
    # rep 3 runs in the parent under 1 and 3 workers and in a child under 2;
    # rep 4 fails too, so every process has a failure to report
    def fail(rep):
        if rep in (3, 4):
            raise RuntimeError(f"no estimate at rep {rep}")

    _intercept_functional_reps(monkeypatch, fail)
    monkeypatch.chdir(tmp_path)
    assert main([*_FUNCTIONAL, "--reps", "8", "--seed", "5", "--workers", workers]) == 1
    seed = harness.derive_seed(5, 3)
    assert capsys.readouterr().err == (f"taperspec: error: replication 3 (seed {seed}) "
                                       "failed: RuntimeError: no estimate at rep 3\n")
    assert not list(tmp_path.iterdir())  # nothing was written


def test_a_worker_that_dies_ends_the_run(tmp_path, monkeypatch, capsys):
    # rep 1 is the child's under two workers; the parent never reaches os._exit
    def die(rep):
        if rep == 1:
            os._exit(7)

    _intercept_functional_reps(monkeypatch, die)
    monkeypatch.chdir(tmp_path)
    assert main([*_FUNCTIONAL, "--reps", "4", "--workers", "2"]) == 1
    assert "replication worker exited with code 7" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_a_failing_robustness_replication_names_its_seed(tmp_path, monkeypatch, capsys):
    # the ladder's i-th size keys its replications by seed + i
    real = AR1.simulate

    def failing(self, driver, T, seed):
        if T == 128 and seed == harness.derive_seed(31, 1):
            raise DomainError("no path")
        return real(self, driver, T, seed)

    monkeypatch.setattr(AR1, "simulate", failing)
    monkeypatch.chdir(tmp_path)
    argv = ["robustness", *_MODEL, "--T", "64,128", "--reps", "4", "--seed", "30"]
    assert main([*argv, "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert f"replication 1 (seed {harness.derive_seed(31, 1)}) failed: DomainError: no path" in err


def test_functional_study_resolves_and_evaluates_its_constants_once(tmp_path, monkeypatch):
    # the study is parsed once, when its options are resolved, and its
    # replications share it; g meets the grid's points once in 20 replications
    monkeypatch.chdir(tmp_path)
    parsed, grid_evals = [], []
    grid = canonical_grid(256, False)  # the periodogram's call form, one memo entry
    parse_model, parse_g = harness.parse_model, harness.parse_g

    def counting_parse_model(spec):
        parsed.append(spec)
        return parse_model(spec)

    def counting_parse_g(spec):
        g = parse_g(spec)

        def ev(lam):
            grid_evals.append(lam is grid.points)
            return g.eval(lam)
        return dataclasses.replace(g, eval=ev)

    monkeypatch.setattr(harness, "parse_model", counting_parse_model)
    monkeypatch.setattr(harness, "parse_g", counting_parse_g)
    argv = ["estimate-functional", "--model", "ar1{theta=0.5,sigma2=1}", "--g", "cosine:2",
            "--T", "256", "--reps", "20", "--seed", "7", "--out", "f"]
    assert main(argv) == 0
    assert len(parsed) <= 2
    assert grid_evals.count(True) == 1
    assert "shift_phase" not in vars(grid)  # the unshifted grid needs no phase


_REPLICATED_PRESETS = sorted(
    p.stem for p in (REPO / "acceptance").glob("*.ini")
    if "workers" in harness.KINDS[harness.load_config_file(p).kind].options)


@pytest.mark.parametrize("preset", _REPLICATED_PRESETS)
def test_every_replicated_preset_is_worker_count_invariant(tmp_path, monkeypatch, preset):
    # at full T but four replications; forked workers inherit this process's
    # memoized grids and tapers along with everything else
    for workers in ("1", "2"):
        (tmp_path / workers).mkdir()
        monkeypatch.chdir(tmp_path / workers)
        assert main(["run", "--config", str(REPO / "acceptance" / f"{preset}.ini"),
                     "--reps", "4", "--workers", workers, "--out", preset]) == 0
    for ext in (".csv", ".json"):
        assert ((tmp_path / "1" / f"{preset}{ext}").read_bytes()
                == (tmp_path / "2" / f"{preset}{ext}").read_bytes()), preset + ext


# CSV sha256 of small studies, each recorded before a speed-up of the code it
# runs: gc and lm before the Whittle search and the composite replication
# stopped recomputing per-candidate and per-replication constants; sf, sp and
# wa before the fractional filter, the stationarity test and the rational
# densities stopped recomputing per-path, per-candidate and unit factors.
# Those changes must leave every output byte alone.  gc was re-recorded when
# one-parameter fits moved to Fisher scoring and the AR(1) density lost its
# cancellation near the origin: its statistic moved in the last 8 digits.
# Re-recorded when the reference laws became exact: gc's p_value column
# (chi2.sf for the Monte Carlo estimate; see test_exact_pvalues_move_within_
# the_monte_carlo_half_width), gm's p-values (Imhof) and its KS check, which
# now reads a number, and wa's iterations (Nelder-Mead scores an infeasible
# candidate with a finite penalty, where it met inf before).  gc, gm, gs and
# tr re-recorded when the built-in taper moments became closed forms: e(h)
# of the Tukey taper moved from 1.9444444444444677 to 35/18, so the gof
# statistics moved in the last 2 digits (see test_gc_statistics_move_within_
# the_quadrature_tolerance) and the trace limits, which read H_{2m}, with them.
# gc, gm, gs, fn, fi, pg, rb and wa re-recorded when the unshifted
# periodogram came from one real FFT unfolded by Hermitian symmetry: every
# value moved by FFT round-off (see test_spectrum.py::test_periodogram_
# matches_the_former_formula_bitwise), the statistics and estimates built on
# it by at most 1e-14 relative, and wa's Nelder-Mead iteration counts with
# them.  tr moved to a four-size ladder when a ladder too short for its
# decreasing-steps check became a schema error.  gc, gm and gs re-recorded
# when the built-in bases projected through the grid's e^{ij lam} table:
# the statistics and p-values moved at round-off (see test_gof_rows_move_at_
# round_off_from_the_slot_array); no other pin moved.  gc, gm, gs, wa, fn,
# fi and rb re-recorded when the unshifted grid folded its even sums onto
# [0, pi]: statistics, p-values, plug-in values and wa's criterion moved at
# round-off and wa's Nelder-Mead iteration counts with them (see test_folded_
# sums_move_the_studies_at_round_off); lm, sf, sp and pg did not move.
# gc and gm re-recorded when the AR(1) Whittle fit became the closed form
# c1 / c0: statistics and p-values moved at round-off, at most 2.1e-15
# relative (the tests below hold gc's to their former values); no other
# pin moved.  gc and gm re-recorded, CSV and JSON, when that fit's scale
# and criterion, and gc's projections, came from the tapered series'
# lagged products instead of the grid: statistics and p-values moved at
# round-off, at most 5.4e-15 relative in gc and 2.7e-15 in gm (see
# test_gc_moves_at_round_off_from_the_grid); no other pin moved.
_PINNED_CSV_SHA256 = {
    "gc": (["gof", "--mode", "composite", "--basis", "ar-example:4",
            "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
            "--T", "512", "--reps", "4", "--seed", "41"],
           "fe5c63e1c26c8830ca1f3890b707d77f380ce7072c447182f82a70173e34627b"),
    "lm": (["whittle", "--model", "arfima_pdq{d=0.3,phi=0.4}", "--taper", "tukey",
            "--T", "256", "--reps", "2", "--seed", "43"],
           "05574f17dd2204fcf8f1aaa2c7da8197cd36bf1ca148210f43f589899e34a345"),
    "sf": (["simulate", "--model", "arfima0d0{d=0.45}", "--T", "600",
            "--reps", "2", "--seed", "45"],
           "dc2bf94e92074913babccca14be9b25d86ac85b1c17d9c0055106aefabac0d19"),
    "sp": (["simulate", "--model", "arfima_pdq{d=0.2,phi=[0.4],theta=[-0.3]}",
            "--T", "300", "--reps", "2", "--seed", "47"],
           "2564c19ac3f062cff19db6ae3699c1d8b2f796437643f9530e4df4e5e449cb07"),
    "wa": (["whittle", "--model", "arma{phi=[0.5,-0.2],theta=[0.3]}", "--taper", "tukey",
            "--T", "256", "--reps", "3", "--seed", "53"],
           "9e5c554d960a4bf6bb14250dff547e2112edee297918663556e87e4dcc7105b0"),
    # One --check run of each kind or gof mode the studies above leave out,
    # recorded before option and check handling moved into declarative
    # tables: their JSON pins every check's detail string and report order,
    # failing checks included.
    "pg": (["periodogram", "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
            "--T", "64", "--seed", "3", "--check"],
           "901fed98fea409335fab8a75b39ea3cf332f3f71ac9f6184d6ef8d579fc81aae"),
    "fn": (["estimate-functional", "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "rect",
            "--g", "cosine:2", "--T", "128", "--reps", "60", "--seed", "5", "--check"],
           "570a761ca5d0199c4918c598c3ed29898f829255e72f072d41a0c2793449ca5b"),
    "gs": (["gof", "--mode", "simple", "--basis", "cosine:3",
            "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
            "--T", "128", "--reps", "40", "--seed", "29", "--check"],
           "3d7760c6cc98088c18004a9424e1cf4d463c6c434de564837ec315e42726a735"),
    "gm": (["gof", "--mode", "composite", "--basis", "cosine:3",
            "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
            "--T", "128", "--reps", "3", "--seed", "31", "--check"],
           "035e117617e6500db648dc8f48b57bc5673a7d94b8f83af9068aed8dfca79ef3"),
    "tr": (["trace-experiment", "--pair", "ar1xcos", "--taper", "tukey",
            "--T", "64,128,256,512", "--check"],
           "5edaf5b5c1cf86528a3661f3eac8e7b5f119d65f9c7c7080dd267dc228db1eca"),
    "fj": (["fejer", "--taper", "linear", "--T", "16,64,256", "--T-smooth", "256",
            "--check"],
           "965f62b0fa31986de2feff50d19c659cb92a2fa3dab7538161309192f854d106"),
    "rb": (["robustness", "--model", "ar1{theta=0.5,sigma2=1}",
            "--trend", "power:1.0,0.6", "--target", "functional", "--taper", "tukey",
            "--T", "64,128", "--reps", "20", "--report-reps", "60", "--seed", "33",
            "--check"],
           "dae49522135712174e6f98c334afc854346d7f46632b2c41a2ca72aa815b52d6"),
    # Recorded before the functional replication kept its study constants
    # (g on the grid, Fourier coefficients, signed taper): a g that is not
    # band-limited takes every lag of the quadratic form through the FFT.
    # Re-recorded, CSV and JSON, when the grid size stopped being an option:
    # the former argv set the smallest grid (N = T); these digests are that
    # study's at the default grid (N = 4T), recorded with the code before
    # the option went, so they pin byte identity across its removal.
    "fi": (["estimate-functional", "--model", "ar1{theta=0.5,sigma2=1}",
            "--g", "indicator:1.0", "--taper", "linear",
            "--T", "256", "--reps", "20", "--seed", "61"],
           "995abb7522b965bf220e3f2fca1da881e918127e5cd51d3a07ada8be1136b6d1"),
}

# JSON sha256 of the same studies, recorded with the check-run digests; gc
# and gm re-recorded when the ks_max check detail was relabelled "KS of
# p-values to U(0,1)" (the statistic is the KS distance of the p-values to
# the uniform law), the only bytes that moved.  Re-recorded for closed-form
# taper moments, an exact ARFIMA(p,d,q) covariance and the exact fGn
# density: gc, gm, gs and tr with their CSVs; fi, lm, rb and wa for the
# tapering factor and the theory the Tukey and linear moments feed; sp for
# lag0_theory, the convolution identity in place of QUADPACK (within 2e-10,
# see test_models.py::test_arfima_pdq_lag0_moves_within_the_former_
# quadrature_tolerance).  pg, fn, fj and sf did not move.  Re-recorded with
# the real-FFT periodogram: gc, gm, gs, fn, fi and rb with their CSVs (pg and
# wa kept theirs), and tr for its new ladder.  Re-recorded with the table
# projections: gc and gm with their CSVs (gs's JSON did not move).
# Re-recorded with the folded grid sums: gc, fn, fi and rb (the JSONs of gm,
# gs and wa did not move).  lm re-recorded when long-memory population
# integrals moved from QUADPACK to the graded Gauss rule: its asymptotic
# variance moved at 6e-14 relative (see test_lm_asymptotic_variance_moves_
# within_the_former_quadrature_tolerance); its CSV did not move.  fi
# re-recorded when the indicator's population integrals moved from QUADPACK
# to the graded Gauss rule over [-mu, mu]: true_value and sigma2_theory moved
# at 2e-16 relative, bias and kappa4_gap_se with them (see test_fi_theory_
# moves_within_the_former_quadrature_tolerance); its CSV did not move.  fi
# re-recorded with its CSV when its argv dropped the grid-size option (see
# its CSV entry).  gm re-recorded with its CSV for the closed-form AR(1)
# fit: mean_statistic and the p-value list moved at round-off (gc's JSON did
# not move).  gc and gm re-recorded with their CSVs when that fit, and gc's
# projections, came from lagged products: mean_statistic and gm's KS
# statistic and p-value moved at round-off.  gs's CSV and gm's CSV and JSON
# re-recorded when the cosine projections under an AR null came from the
# lagged products of its residuals: gs's statistics and p-values, and gm's
# with its mean_statistic, KS statistic, KS p-value and the KS check detail,
# moved at round-off (gs's JSON did not move).
_PINNED_JSON_SHA256 = {
    "gc": "2cb9f9b4d1928cc9ea2981f2a6c1008bebc6c9f9bfa6ec646beac7c26171d288",
    "lm": "8bf39a028677feed270ed9fa8a8291f679d1c02ef445cd96bf7ed30bfc8127c1",
    "sf": "e6d1032d9b137d79e02990813c9f42119b2980064d28893b06fef8fc48e788b0",
    "sp": "b3571fe19ccea85eecf017b347ca94e7d54642906655e72dbec86120f16e78e8",
    "wa": "259615460018fb4f3ef4ec7faf6d297cf2fbab6ed572c209980c45d62186a213",
    "pg": "88602510de61df9233fe13552155695361907250845fbd73a5fe1d6f8c1756c1",
    "fn": "14f2687fc606c06aad03e01befe288dc77c303301e67b51293a30bc4aa8783bb",
    "gs": "636b994ffa4676f973521c76b0d5eb086423ecf1a159f4f51f35a0469cefc6df",
    "gm": "ee49e0814fd84df14b8e829627a0e8c1be6f9971dbcb7a3fb0edd7654322f465",
    "tr": "5c3cd76a8cca1e7ac6079201b075f6c3b845817dce46b6229d07b635180a436a",
    "fj": "d0fc7937b093a972a4f53bbb1249294f5374dab795d7fbab5aa89ccbb108796c",
    "rb": "f9677018c267b7f092d0430f25c95667f73a90014c5988a4d7d07a7611391fce",
    "fi": "2f3558218934b3e48f7678cd226823a9dbd409e880c58ed36820bb2d125b9b4c",
}

# These runs fail a check (KS of three p-values, which is at least 1/6,
# the linear taper's smoothing error at T = 256), so --check exits 2; the
# failure detail strings are pinned with the rest.
_PINNED_EXIT_CODE = {"gm": 2, "fj": 2}


@pytest.mark.parametrize("name", sorted(_PINNED_CSV_SHA256))
def test_csv_bytes_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    argv, digest = _PINNED_CSV_SHA256[name]
    assert main([*argv, "--out", name]) == _PINNED_EXIT_CODE.get(name, 0)
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest
    assert (hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
            == _PINNED_JSON_SHA256[name])


# The gc study's statistics as the adaptive Simpson taper moments gave them
# (each moment to 1e-12 absolute); the closed forms may move them only at
# that order.
_GC_SIMPSON_STATISTICS = (3.2493803729568111, 0.66258439788276513,
                          0.59325408111354894, 2.9839511185934318)


def test_gc_statistics_move_within_the_quadrature_tolerance(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, _ = _PINNED_CSV_SHA256["gc"]
    assert main([*argv, "--out", "gc"]) == 0
    with open(tmp_path / "gc.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_GC_SIMPSON_STATISTICS)
    for row, before in zip(rows, _GC_SIMPSON_STATISTICS):
        assert float(row["statistic"]) == pytest.approx(before, rel=1e-12)
        assert row["reject"] == "0"


# The gc study's (statistic, p_value, reject) rows as they were when its
# AR(1) fit and projections ran on the periodogram's grid.  From lagged
# products the same sums are taken in another order: each may move at
# round-off (1e-12 relative) and no decision may flip.
_GC_ON_THE_GRID = (
    (3.249380372956848, 0.35475032049727473, 0),
    (0.662584397882772, 0.8819671523052579, 0),
    (0.5932540811135548, 0.8979749461401616, 0),
    (2.9839511185934673, 0.3941062225937805, 0),
)


def test_gc_moves_at_round_off_from_the_grid(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, _ = _PINNED_CSV_SHA256["gc"]
    assert main([*argv, "--out", "gc"]) == 0
    with open(tmp_path / "gc.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_GC_ON_THE_GRID)
    for row, (statistic, p_value, reject) in zip(rows, _GC_ON_THE_GRID):
        assert float(row["statistic"]) == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert float(row["p_value"]) == pytest.approx(p_value, rel=1e-12, abs=0.0)
        assert row["reject"] == str(reject)


# The gof studies' (statistic, p_value, reject) rows as the projections gave
# them when phi_vector still built every basis slot on the grid.  Reading
# them off the e^{ij lam} table changes only the summation order: each
# statistic may move at round-off (1e-12 relative), each p-value by at most
# the law's density times that shift (s f(s) < 1, so 1e-12), and no
# decision may flip.
_GOF_SLOT_ARRAY_ROWS = {
    "gc": (
        (3.2493803729568467, 0.35475032049727684, 0),
        (0.66258439788277113, 0.88196715230525813, 0),
        (0.59325408111355549, 0.89797494614016138, 0),
        (2.9839511185934651, 0.39410622259378081, 0),
    ),
    "gm": (
        (0.42522347723768411, 0.83146329948532061, 0),
        (5.6029463559807944, 0.061799092261403732, 0),
        (2.0214199888593343, 0.36470937631483807, 0),
    ),
    "gs": (
        (0.73376340029510467, 0.86523516901578135, 0),
        (1.7525523137118431, 0.62531409969851603, 0),
        (7.5147513316937573, 0.057180636133743128, 0),
        (1.0978760127603735, 0.77758684720042603, 0),
        (8.6066413228589091, 0.03500484424654187, 1),
        (2.7179279218638843, 0.43718922445482922, 0),
        (10.068080390617537, 0.017996204227964073, 1),
        (0.22953794926099164, 0.97268562817200377, 0),
        (3.2429461993305759, 0.35566273604190263, 0),
        (0.74310673846550546, 0.86302096439025833, 0),
        (4.841736917413507, 0.18375959407823078, 0),
        (4.0344702971456012, 0.25776593707648549, 0),
        (0.91017511441327181, 0.82297165127127492, 0),
        (1.2530424724832654, 0.7403126300272751, 0),
        (0.73697187422748511, 0.86447523196720555, 0),
        (2.0035413113718676, 0.57167201747953378, 0),
        (7.0333178285372009, 0.070843367871980326, 0),
        (3.4572932415159019, 0.32634343075034861, 0),
        (2.7539007315182542, 0.43114500509869369, 0),
        (1.1109150895073989, 0.77443981250877947, 0),
        (2.4554551469079584, 0.48339514871759737, 0),
        (1.1251451353775708, 0.77100767636770529, 0),
        (1.7638665707627752, 0.62282936048016335, 0),
        (4.9070912042451011, 0.17872817640474667, 0),
        (2.9395181302574129, 0.40104460192333946, 0),
        (4.5546344634041089, 0.20746848234110182, 0),
        (0.31105980368968172, 0.95793518561661783, 0),
        (1.8740151697420175, 0.59896233615458461, 0),
        (0.18848120247272601, 0.97942704980191764, 0),
        (2.0293561169883354, 0.5663361439955974, 0),
        (4.0413253209203601, 0.25703617982571436, 0),
        (4.7751367281346004, 0.18902291133684804, 0),
        (3.2134134261080218, 0.35987682731641996, 0),
        (0.1813051905272369, 0.98054931510087306, 0),
        (0.16953853021707221, 0.98235019972649729, 0),
        (2.9685485256448678, 0.39649983809625011, 0),
        (1.5610855493449574, 0.66824523704560135, 0),
        (1.2092791785235821, 0.75077965254242274, 0),
        (0.070911270483852457, 0.99508332465261629, 0),
        (3.0991240766097436, 0.37659325506869012, 0),
    ),
}


@pytest.mark.parametrize("name", sorted(_GOF_SLOT_ARRAY_ROWS))
def test_gof_rows_move_at_round_off_from_the_slot_array(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    argv, _ = _PINNED_CSV_SHA256[name]
    assert main([*argv, "--out", name]) == _PINNED_EXIT_CODE.get(name, 0)
    with open(tmp_path / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_GOF_SLOT_ARRAY_ROWS[name])
    for row, (statistic, p_value, reject) in zip(rows, _GOF_SLOT_ARRAY_ROWS[name]):
        assert float(row["statistic"]) == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert abs(float(row["p_value"]) - p_value) <= 1e-12
        assert row["reject"] == str(reject)


# Columns of the pinned studies as they were before the unshifted grid folded
# its even sums onto [0, pi] (gc, gm, gs: statistic, p_value, reject; wa:
# hat_phi1, hat_phi2, hat_theta1, sigma2_hat, objective; fn: j_plugin,
# q_form, identity_rel_err; fi: q_form; rb: median_gap, gap_se).  The fold changes only
# how the same terms are summed: each sum may move at round-off, 1e-12
# relative, and every decision must stand.  wa's estimates come from a
# Nelder-Mead search whose path follows round-off: they may move by its
# tolerance `tol` (1e-7); its criterion value, a minimum, only at round-off.
_FOLD_REL = 1e-12
_NM_TOL = 1e-7
_BEFORE_THE_FOLD = {
    "gc": (
        (3.2493803729568516, 0.35475032049727634, 0),
        (0.66258439788277135, 0.88196715230525813, 0),
        (0.59325408111355515, 0.89797494614016149, 0),
        (2.9839511185934677, 0.39410622259378048, 0),
    ),
    "gm": (
        (0.42522347723768422, 0.83146329948532061, 0),
        (5.6029463559807926, 0.061799092261403898, 0),
        (2.0214199888593352, 0.36470937631483791, 0),
    ),
    "gs": (
        (0.73376340029510445, 0.86523516901578135, 0),
        (1.7525523137118444, 0.62531409969851581, 0),
        (7.5147513316937635, 0.057180636133742919, 0),
        (1.0978760127603731, 0.77758684720042615, 0),
        (8.6066413228589145, 0.035004844246541759, 1),
        (2.7179279218638865, 0.43718922445482911, 0),
        (10.068080390617537, 0.017996204227964073, 1),
        (0.22953794926099164, 0.97268562817200377, 0),
        (3.2429461993305742, 0.35566273604190246, 0),
        (0.74310673846550557, 0.86302096439025833, 0),
        (4.8417369174135079, 0.18375959407823039, 0),
        (4.0344702971456057, 0.25776593707648537, 0),
        (0.9101751144132717, 0.82297165127127481, 0),
        (1.2530424724832649, 0.7403126300272751, 0),
        (0.73697187422748422, 0.86447523196720577, 0),
        (2.0035413113718681, 0.57167201747953356, 0),
        (7.0333178285372, 0.070843367871980353, 0),
        (3.4572932415159006, 0.32634343075034761, 0),
        (2.7539007315182547, 0.43114500509869369, 0),
        (1.1109150895073989, 0.77443981250877947, 0),
        (2.4554551469079597, 0.48339514871759715, 0),
        (1.1251451353775712, 0.77100767636770517, 0),
        (1.7638665707627754, 0.62282936048016335, 0),
        (4.9070912042450985, 0.17872817640474714, 0),
        (2.9395181302574134, 0.40104460192333935, 0),
        (4.5546344634041089, 0.20746848234110182, 0),
        (0.3110598036896815, 0.95793518561661783, 0),
        (1.8740151697420178, 0.59896233615458438, 0),
        (0.18848120247272598, 0.97942704980191764, 0),
        (2.0293561169883363, 0.5663361439955974, 0),
        (4.0413253209203583, 0.25703617982571503, 0),
        (4.7751367281346022, 0.18902291133684798, 0),
        (3.2134134261080223, 0.35987682731641918, 0),
        (0.18130519052723679, 0.98054931510087306, 0),
        (0.16953853021707219, 0.98235019972649729, 0),
        (2.968548525644866, 0.39649983809625011, 0),
        (1.5610855493449578, 0.66824523704560113, 0),
        (1.2092791785235826, 0.75077965254242274, 0),
        (0.070911270483852484, 0.99508332465261629, 0),
        (3.0991240766097459, 0.37659325506869212, 0),
    ),
    "wa": (
        (0.94732351835622253, -0.4214135605719414, -0.036844615139643141, 1.0022118103247104, -0.41783384926813061),
        (0.85987821233679873, -0.41076639065242077, -0.0048936550021497424, 1.0353078561642612, -0.40158911917542095),
        (0.43282988571800818, -0.24022770177486633, 0.4368207116899992, 1.0302208585866166, -0.4040519306707403),
    ),
    "fn": (
        (0.30025090506191027, 241.47610561950293, 4.707995328562813e-16),
        (0.53122318810977265, 427.23503748664587, 0),
        (0.2706985247180223, 217.70867112748397, 3.9164782849316647e-16),
        (0.39404254229729108, 316.90781595725178, 1.7936893947884113e-16),
        (0.63277233214614992, 508.90570497669779, 3.3509205126759669e-16),
        (0.29789838442209321, 239.58409626027935, 1.1862936594725901e-16),
        (0.17540634800562696, 141.07015533759804, 0),
        (0.59508522978649081, 478.59593885620075, 3.56313630637935e-16),
        (0.33576963753069522, 270.04196520062459, 0),
        (0.25789204444537872, 207.40908857570662, 2.7406426232888797e-16),
        (0.53086835347795314, 426.94966254326954, 2.6627691200035638e-16),
        (0.80765128968878885, 649.55170773724683, 1.7502353756816543e-16),
        (0.38528783658748017, 309.86686385682748, 0),
        (0.51438116389723099, 413.68987792499416, 1.3740587308040025e-16),
        (0.29242085248471456, 235.17880369214558, 2.4170298499867084e-16),
        (0.49088532395236512, 394.7934022358516, 4.3194809137298701e-16),
        (0.17835694675653568, 143.44316765364178, 3.9627832953370265e-16),
        (0.28062426511032673, 225.691425200547, 2.5186344058174807e-16),
        (0.32392936621332402, 260.51945399751082, 2.1819260707244969e-16),
        (0.45891807689240904, 369.08381669497561, 3.0802444479859436e-16),
        (0.38597850125288524, 310.42232933879382, 1.8311639817240503e-16),
        (0.70481435553148886, 566.84533797948154, 0),
        (0.51001319956812463, 410.17695257524377, 4.1574802170568468e-16),
        (0.23391472521595255, 188.1253842700574, 0),
        (0.44913833996016078, 361.21848557167516, 0),
        (0.38982617501502859, 313.51681218668102, 0),
        (0.28875673225522613, 232.23194335426905, 2.4477002620648774e-16),
        (0.38121275813971645, 306.58949130916756, 0),
        (0.19135874609002085, 153.89983511464041, 1.8467667239040637e-16),
        (0.26749457233425933, 215.13189973003577, 5.2845179103740131e-16),
        (0.62027516709837904, 498.85488848907482, 2.2789560720944169e-16),
        (0.25592042329121095, 205.82341675910618, 0),
        (0.20656038337120899, 166.12571722795045, 0),
        (0.23985904531515193, 192.90609015274052, 1.4733443308036604e-16),
        (0.32813128060086244, 263.89883406046215, 2.1539852217681476e-16),
        (0.26204641753829172, 210.75023366088209, 1.3485968170330639e-16),
        (0.40114659801761315, 322.62123656823576, 3.5238485516613157e-16),
        (0.14021852732656087, 112.77043080865364, 0),
        (0.12154165962571629, 97.749602556226932, 0),
        (0.5946652253664837, 478.25815125930598, 0),
        (0.21572006894917975, 173.49237346371243, 1.6382108828748416e-16),
        (0.33415399579463295, 268.74258901915994, 0),
        (0.29595090416577419, 238.017839705716, 0),
        (0.29168683791911515, 234.58847415181546, 3.6346682674627969e-16),
        (0.17410508620970175, 140.0236185059882, 4.0595593420103673e-16),
        (0.1005868430486602, 80.896739115381877, 1.7566659510135832e-16),
        (0.46019473178042852, 370.11056347702254, 1.5358496749400941e-16),
        (0.3737754577935547, 300.60805946787661, 1.890947932714438e-16),
        (0.31238064057736248, 251.2314177437479, 3.3938879562500069e-16),
        (0.13179486419477215, 105.99571894660113, 0),
        (0.41258020545703938, 331.81668927498299, 0),
        (0.020113089993856328, 16.17590675601652, 1.7570396429141596e-15),
        (0.43411813189541459, 349.13851749190638, 0),
        (0.41623697100498414, 334.75763462700178, 1.6980469743175496e-16),
        (0.44957462290222083, 361.56936513280459, 4.7163911831907612e-16),
        (0.87023902201043513, 699.88774871427825, 0),
        (0.31882082300000791, 256.41091976915897, 6.6506628007866684e-16),
        (0.30087101704285885, 241.97482926590331, 0),
        (0.43520140232577348, 350.00973526492828, 1.6240525086475744e-16),
        (0.14975914681802707, 120.44345227555561, 0),
    ),
    # fi: q_form only; its grid sums are checked against the full grid (below)
    "fi": (
        190.38960086762927, 210.88389412280878, 222.9414363831003,
        251.38317888022979, 295.57549588146082, 269.48228277914495,
        183.03523599615644, 336.49379641899469, 219.02347214532182,
        281.18417555782162, 187.54566624958653, 196.80033212927219,
        206.59982626468621, 196.67054488373643, 313.03699469137325,
        311.12732773793357, 167.74300675076373, 210.83502434812101,
        288.59658444758384, 230.29836837459158,
    ),
    "rb": (
        (0.24995081634158978, 0.058829328202720341),
        (0.21018529189628693, 0.066754190819662731),
    ),
}


@pytest.mark.parametrize("name", sorted(_BEFORE_THE_FOLD))
def test_folded_sums_move_the_studies_at_round_off(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    argv, _ = _PINNED_CSV_SHA256[name]
    assert main([*argv, "--out", name]) == _PINNED_EXIT_CODE.get(name, 0)
    with open(tmp_path / f"{name}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_BEFORE_THE_FOLD[name])
    for row, before in zip(rows, _BEFORE_THE_FOLD[name]):
        if name in ("gc", "gm", "gs"):
            statistic, p_value, reject = before
            assert float(row["statistic"]) == pytest.approx(statistic, rel=_FOLD_REL, abs=0.0)
            assert float(row["p_value"]) == pytest.approx(p_value, rel=_FOLD_REL, abs=0.0)
            assert row["reject"] == str(reject)
        elif name == "wa":
            *estimates, objective = before
            got = [float(row[k]) for k in ("hat_phi1", "hat_phi2", "hat_theta1", "sigma2_hat")]
            assert np.all(np.abs(np.array(got) - estimates) <= _NM_TOL)
            assert float(row["objective"]) == pytest.approx(objective, rel=_FOLD_REL, abs=0.0)
            assert row["converged"] == "1"
        elif name == "fn":
            j_plugin, q_form, identity_rel_err = before
            assert float(row["j_plugin"]) == pytest.approx(j_plugin, rel=_FOLD_REL, abs=0.0)
            assert float(row["q_form"]) == q_form  # the time route is not a grid sum
            assert abs(float(row["identity_rel_err"]) - identity_rel_err) <= _FOLD_REL
        elif name == "fi":
            # its former literals were taken on a smaller grid than the study
            # takes now, so the folded sum is held to the unfolded full-grid
            # sum of the same replication
            series = AR1(theta=0.5, sigma2=1.0).simulate(models.gaussian(), 256,
                                                        seed=int(row["seed"]))
            pgram = tapered_periodogram(series, get_taper("linear"))
            grid = pgram.grid
            j_full = float(np.sum(pgram.values * indicator(1.0).eval(grid.points))
                           * grid.weight)
            assert float(row["j_plugin"]) == pytest.approx(j_full, rel=_FOLD_REL, abs=0.0)
            assert float(row["q_form"]) == before  # the time route is not a grid sum
            identity_rel_err = abs(j_full * pgram.c_norm - before) / abs(before)
            assert abs(float(row["identity_rel_err"]) - identity_rel_err) <= _FOLD_REL
        else:
            for key, value in zip(("median_gap", "gap_se"), before):
                assert float(row[key]) == pytest.approx(value, rel=_FOLD_REL, abs=0.0)


def test_lm_asymptotic_variance_moves_within_the_former_quadrature_tolerance(
        tmp_path, monkeypatch):
    # asym_var_first and var_ratio as QUADPACK (epsrel 1e-10) gave them
    monkeypatch.chdir(tmp_path)
    argv, _ = _PINNED_CSV_SHA256["lm"]
    assert main([*argv, "--out", "lm"]) == 0
    with open(tmp_path / "lm.json", encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    assert results["asym_var_first"] == pytest.approx(7.07111146385104, rel=1e-10, abs=0.0)
    assert results["var_ratio"] == pytest.approx(0.9380337852353292, rel=1e-10, abs=0.0)


def test_fi_theory_moves_within_the_former_quadrature_tolerance(tmp_path, monkeypatch):
    # true_value and sigma2_theory as QUADPACK (epsrel 1e-11) gave them
    monkeypatch.chdir(tmp_path)
    argv, _ = _PINNED_CSV_SHA256["fi"]
    assert main([*argv, "--out", "fi"]) == 0
    with open(tmp_path / "fi.json", encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    assert results["true_value"] == pytest.approx(0.43414830160978185, rel=1e-13, abs=0.0)
    assert results["sigma2_theory"] == pytest.approx(2.3404526482625885, rel=1e-13, abs=0.0)


# The bench's long-memory workload (bench/workloads.py) compares its study 0
# against bench/reference.json within 1e-6 relative, finer than the Whittle
# search resolves, so any change to the bits of the shifted-grid criterion
# can fail it.  Study 0 of workload seed 0 is this run; its CSV must keep the
# recorded digest.
_LONG_MEMORY_STUDY_0 = ["whittle", "--model", "arfima_pdq{d=0.3,phi=0.4}", "--driver",
                        "gaussian", "--taper", "tukey", "--T", "2048", "--reps", "2",
                        "--seed", "0"]


def test_long_memory_bench_study_keeps_its_reference_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(REPO / "bench" / "reference.json", encoding="utf-8") as fh:
        digest = json.load(fh)["long-memory"]["by_seed"]["0"]["csv_sha256"]
    assert main([*_LONG_MEMORY_STUDY_0, "--out", "lm0"]) == 0
    assert hashlib.sha256((tmp_path / "lm0.csv").read_bytes()).hexdigest() == digest


def test_gof_run_leaves_logger_state_alone(tmp_path, monkeypatch, caplog):
    monkeypatch.chdir(tmp_path)
    gof_logger = logging.getLogger("taperspec.gof")
    level, filters = gof_logger.level, list(gof_logger.filters)
    with caplog.at_level(logging.WARNING):
        assert main([*_COMPOSITE_GOF, "--reps", "2", "--out", "gc"]) == 0
    # the ar-example basis makes nu = 1 in every replication, which is
    # the plain chi-square law and logs nothing
    assert not [r for r in caplog.records if r.name == "taperspec.gof"]
    assert gof_logger.level == level
    assert gof_logger.filters == filters


# The gc study's p-values and their 95% Monte Carlo half-widths (200,000
# draws) as the Monte Carlo reference law gave them; none of them rejected.
_GC_MONTE_CARLO = ((0.355755, 0.002098176933092107), (0.882235, 0.0014126719870225359),
                   (0.89834, 0.0013244528283163578), (0.395135, 0.002142609623037804))


def test_exact_pvalues_move_within_the_monte_carlo_half_width(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv, _ = _PINNED_CSV_SHA256["gc"]
    assert main([*argv, "--out", "gc"]) == 0
    with open(tmp_path / "gc.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_GC_MONTE_CARLO)
    for row, (p_mc, half_width) in zip(rows, _GC_MONTE_CARLO):
        assert abs(float(row["p_value"]) - p_mc) <= half_width
        assert row["reject"] == "0"


def test_cosine_composite_check_reads_the_ks_of_the_pvalues(tmp_path, monkeypatch, capsys):
    # a cosine basis gives a genuinely mixed law; its p-values are still
    # uniform under the null, so the KS check has a number to compare
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gm.ini").write_text(
        "[experiment]\nkind = gof\nmode = composite\nbasis = cosine:3\n"
        "model = ar1{theta=0.5,sigma2=1}\nT = 256\nreps = 20\nseed = 37\nout = gm\n\n"
        "[check]\nks_max = 0.5\n", encoding="utf-8")
    assert main(["run", "--config", "gm.ini", "--check"]) == 0
    assert "PASS ks_max: KS of p-values to U(0,1)" in capsys.readouterr().out
    with open(tmp_path / "gm.csv", newline="", encoding="utf-8") as fh:
        p_values = [float(r["p_value"]) for r in csv.DictReader(fh)]
    res = json.loads((tmp_path / "gm.json").read_text())["results"]
    assert res["effective_dof"] is None
    assert res["ks_stat"] == scipy.stats.kstest(p_values, "uniform").statistic


def test_whittle_runner_smoke(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["whittle", "--model", "ar1{theta=0.5,sigma2=1}",
                 "--taper", "tukey", "--T", "256", "--reps", "30",
                 "--seed", "7", "--out", "wh"])
    assert code == 0
    with open(tmp_path / "wh.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames[:6] == ["experiment", "seed", "T", "rep",
                                         "hat_theta", "sigma2_hat"]
        rows = list(reader)
    assert all(r["converged"] == "1" for r in rows)
    res = json.loads((tmp_path / "wh.json").read_text())["results"]
    assert res["names"] == ["theta"]
    assert res["tapering_factor"] == pytest.approx(35.0 / 18.0, rel=1e-9)
    assert abs(res["bias"][0]) < 0.1


def test_gof_preset_with_check_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pre.ini").write_text(
        "[experiment]\nkind = gof\nmodel = ar1{theta=0.5,sigma2=1}\n"
        "taper = tukey\nmode = simple\nbasis = cosine:3\nT = 256\n"
        "reps = 150\nseed = 21\nout = gs\n\n"
        "[check]\nsize_min = 0.02\nsize_max = 0.09\n",
        encoding="utf-8")
    assert main(["run", "--config", "pre.ini", "--check"]) == 0
    res = json.loads((tmp_path / "gs.json").read_text())["results"]
    assert res["dof"] == 3
    assert 0.02 <= res["rejection_rate"] <= 0.09
    assert res["null_matches_data"] is True
    # flags override the file: new seed lands in the resolved config
    assert main(["run", "--config", "pre.ini", "--seed", "22",
                 "--out", "gs2"]) == 0
    assert json.loads((tmp_path / "gs2.json").read_text())["config"]["seed"] == "22"
    # the null written differently is still the data model
    assert main(["run", "--config", "pre.ini", "--reps", "2", "--out", "gs3",
                 "--data-model", "ar1{sigma2=1.0,theta=0.50}"]) == 0
    assert json.loads((tmp_path / "gs3.json").read_text())["results"]["null_matches_data"] is True


def test_gof_power_run_rejects_wrong_null(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["gof", "--mode", "simple",
                 "--model", "ar1{theta=0.5,sigma2=1}",
                 "--data-model", "ar1{theta=0.7,sigma2=1}",
                 "--basis", "cosine:3", "--taper", "tukey",
                 "--T", "512", "--reps", "100", "--seed", "23", "--out", "pw"])
    assert code == 0
    res = json.loads((tmp_path / "pw.json").read_text())["results"]
    assert res["null_matches_data"] is False
    assert res["rejection_rate"] > 0.5


def test_trace_experiment_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["trace-experiment", "--pair", "ar1xcos", "--taper", "tukey",
                 "--T", "64,128,256,512,1024", "--out", "tr", "--check"])
    assert code == 0
    res = json.loads((tmp_path / "tr.json").read_text())["results"]
    assert res["final_delta"] < 0.01
    assert res["decreasing_steps"] == 4
    assert res["all_positive"] is True
    # a shorter ladder is refused only by the threshold in force
    (tmp_path / "tr3.ini").write_text(
        "[experiment]\nkind = trace-experiment\npair = ar1xcos\nT = 64,128,256\n\n"
        "[check]\nmin_decreasing_steps = 2\n", encoding="utf-8")
    assert main(["run", "--config", "tr3.ini", "--check", "--out", "tr3"]) == 0


def test_trace_experiment_indicator_limit_meets_its_closed_form(tmp_path, monkeypatch):
    # 2 pi H_4 F(0.3) under the rect taper (H_4 = 1), F the AR(1) spectral
    # distribution; the whole-circle midpoint rule wrote 1.1351162921116822
    monkeypatch.chdir(tmp_path)
    assert main(["trace-experiment", "--model", "ar1{theta=0.5,sigma2=1}",
                 "--g", "indicator:0.3", "--taper", "rect", "--out", "ti"]) == 0
    closed = 2.0 * math.atan(3.0 * math.tan(0.15)) / 0.75
    with open(tmp_path / "ti.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        assert float(row["limit"]) == pytest.approx(closed, rel=1e-13, abs=0.0)


def test_fejer_check(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fejer", "--taper", "tukey", "--T", "16,64,256",
                 "--delta", "0.5", "--T-smooth", "512", "--out", "fj",
                 "--check"])
    assert code == 0
    res = json.loads((tmp_path / "fj.json").read_text())["results"]
    assert res["norm_max_err"] < 1e-12
    assert res["tail_masses"] == sorted(res["tail_masses"], reverse=True)


def test_robustness_zero_trend_is_exact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["robustness", "--model", "ar1{theta=0.5,sigma2=1}",
                 "--trend", "zero", "--target", "functional",
                 "--taper", "tukey", "--T", "128,256", "--reps", "30",
                 "--seed", "31", "--out", "rz", "--check"])
    assert code == 0
    res = json.loads((tmp_path / "rz.json").read_text())["results"]
    assert res["variance_ratio"] == 1.0
    assert res["median_gaps"] == [0.0, 0.0]
    assert res["ks_two_sample_stat"] == 0.0


def test_robustness_power_trend_gaps_shrink(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["robustness", "--model", "ar1{theta=0.5,sigma2=1}",
                 "--trend", "power:1.0,0.6", "--target", "functional",
                 "--taper", "tukey", "--T", "128,512", "--reps", "40",
                 "--seed", "9", "--out", "rp"])
    assert code == 0
    res = json.loads((tmp_path / "rp.json").read_text())["results"]
    assert res["median_gaps"][1] < res["median_gaps"][0]
    assert res["trend"] == "power_decay(c=1,beta=0.6)"


@pytest.mark.parametrize("model, refused", [
    ("arfima{d=0.24}", False), ("arfima{d=0.25}", True), ("arfima{d=0.3}", True),
    ("fgn{H=0.74}", False), ("fgn{H=0.75}", True), ("fgn{H=0.8}", True),
])
def test_divergent_variance_limit_exits_one_naming_the_model(tmp_path, monkeypatch, capsys,
                                                              model, refused):
    # at d = 0.3 this command wrote sigma2_theory -246.5 and exited 0
    monkeypatch.chdir(tmp_path)
    argv = ["estimate-functional", "--model", model, "--g", "cosine:1", "--taper", "tukey",
            "--T", "512", "--reps", "20" if refused else "2", "--seed", "3"]
    if not refused:
        assert main(argv) == 0
        assert json.loads((tmp_path / "estimate_functional.json").read_text())[
            "results"]["sigma2_theory"] > 0.0
        return
    assert main(argv) == 1
    assert "field 'model': int f^2 g^2 diverges" in capsys.readouterr().err
    assert main(["robustness", "--model", model, "--T", "64,128", "--reps", "2"]) == 1
    assert "field 'model'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # refused before any replication or file


def test_robustness_refuses_a_single_rep_ladder(tmp_path, monkeypatch, capsys):
    # one replication per size leaves the ladder's standard errors undefined
    monkeypatch.chdir(tmp_path)
    assert main(["robustness", "--model", "ar1{theta=0.5,sigma2=1}", "--T", "64,128",
                 "--reps", "1", "--report-reps", "2", "--out", "r1"]) == 1
    assert "field 'reps'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("driver", ["laplace", "exponential"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "fgn{H=0.7}", "--T", "64"],
    ["periodogram", "--model", "fgn{H=0.7}", "--T", "64"],
    ["estimate-functional", "--model", "fgn{H=0.7}", "--T", "64", "--reps", "3"],
    ["whittle", "--model", "fgn{H=0.7}", "--T", "64", "--reps", "3"],
    ["gof", "--model", "ar1{theta=0.5}", "--data-model", "fgn{H=0.7}", "--T", "64",
     "--reps", "3"],
    ["robustness", "--model", "fgn{H=0.7}", "--T", "64,128", "--reps", "2"],
], ids=lambda argv: argv[0])
def test_fgn_refuses_a_non_gaussian_driver_naming_it(tmp_path, monkeypatch, capsys, argv,
                                                     driver):
    # this failed inside replication 0, naming no field
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--driver", driver]) == 1
    assert capsys.readouterr().err == (
        "taperspec: error: field 'driver': fgn simulation is defined for the gaussian "
        "driver only\n")
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# exit codes


def _exit_code(argv) -> int:
    # argparse rejects an unknown flag by SystemExit; the rest return a code
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_WHITTLE_INI = ("[experiment]\nkind = whittle\nmodel = ar1{theta=0.5,sigma2=1}\n"
                "T = 64\nreps = 2\n")


def test_schema_violation_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["whittle", "--model", "ar1{theta=0.5}", "--T", "4"]) == 1
    assert "field 'T'" in capsys.readouterr().err
    assert main(["gof", "--mode", "fancy",
                 "--model", "ar1{theta=0.5}", "--T", "64"]) == 1
    assert main(["simulate", "--T", "64"]) == 1  # model missing
    # every key, flag and check name is checked against the kind's tables
    (tmp_path / "wh.ini").write_text(_WHITTLE_INI, encoding="utf-8")
    (tmp_path / "rep.ini").write_text(_WHITTLE_INI + "rep = 3\n", encoding="utf-8")
    (tmp_path / "chk.ini").write_text(_WHITTLE_INI + "\n[check]\nvar_ratio_mn = 5\n",
                                      encoding="utf-8")
    (tmp_path / "sec.ini").write_text(_WHITTLE_INI + "\n[checks]\nvar_ratio_min = 5\n",
                                      encoding="utf-8")
    (tmp_path / "mc.ini").write_text(
        "[experiment]\nkind = gof\nmode = composite\nmodel = ar1{theta=0.5}\n"
        "T = 64\nmc_draws = 2000\n", encoding="utf-8")
    (tmp_path / "wk.ini").write_text(
        "[experiment]\nkind = fejer\nT = 16,64\nworkers = 2\n", encoding="utf-8")
    cases = [
        (["run", "--config", "rep.ini"], "'rep'"),
        (["run", "--config", "chk.ini"], "'var_ratio_mn'"),
        (["run", "--config", "sec.ini"], "'checks'"),
        (["run", "--config", "mc.ini"], "'mc_draws'"),  # the reference law is exact now
        ([*_COMPOSITE_GOF, "--mc-draws", "2000"], "--mc-draws"),
        (["run", "--config", "wk.ini"], "'workers'"),
        (["fejer", "--reps", "5"], "--reps"),
        (["whittle", "--rep", "5"], "--rep"),  # no prefix matching of flags
        (["run", "--config", "wh.ini", "--g", "cosine:1"], "field 'g'"),
        (["run", "--config", "wh.ini", "--workers", "x"], "field 'workers'"),
        (["trace-experiment", "--pair", "ar1xcos", "--g", "cosine:2"], "field 'pair'"),
        (["robustness", "--model", "ar1{theta=0.5}", "--target", "mean"], "field 'target'"),
    ]
    for argv, field in cases:
        assert _exit_code(argv) == 1, argv
        assert field in capsys.readouterr().err, argv
    assert not list(tmp_path.glob("*.csv"))  # nothing was written
    # one worker is what the single-process kinds do anyway
    (tmp_path / "w1.ini").write_text(
        "[experiment]\nkind = trace-experiment\npair = ar1xcos\nT = 64,128\nworkers = 1\n",
        encoding="utf-8")
    assert main(["run", "--config", "w1.ini"]) == 0
    assert main(["run", "--config", "w1.ini", "--workers", "1", "--out", "w1b"]) == 0


def _out_of_range(opt) -> str:
    """A value that the row's bound or choices reject."""
    if opt.choices:
        return "x"
    return repr(opt.maximum) if opt.maximum is not None else str(opt.minimum - 1)


def _bounded_option_cases():
    # each bounded row, out of range, under the first kind that reads it
    for name, opt in harness.OPTIONS.items():
        if opt.minimum is None and not opt.choices:
            continue
        kind = next(k for k, spec in harness.KINDS.items() if name in spec.options)
        given = [f"--{n}={v}" for n, v in (("model", "ar1{theta=0.5}"), ("T", "64"))
                 if harness.KINDS[kind].options.get(n) is harness.REQUIRED and n != name]
        flag = f"--{name.replace('_', '-')}={_out_of_range(opt)}"
        yield pytest.param([kind, *given, flag], name, id=name)


_GOF_AR = ["gof", "--model", "ar1{theta=0.5}", "--T", "64", "--reps", "2"]


@pytest.mark.parametrize("argv, field", [
    *_bounded_option_cases(),
    pytest.param([*_GOF_AR, "--alpha", "1.5"], "alpha", id="alpha-1.5"),
    pytest.param(["simulate", "--model", "ar1{theta=2}", "--T", "64"], "model",
                 id="nonstationary-model"),
    # a scale must be finite as well as positive, in every family that has one
    *(pytest.param(["simulate", "--model", spec, "--T", "8"], "model", id=spec)
      for spec in ("ar1{theta=0.5,sigma2=nan}", "ar1{theta=0.5,sigma2=inf}",
                   "arma{phi=[0.5],sigma2=nan}", "white_noise{sigma2=nan}",
                   "arfima_pdq{d=0.2,sigma2=inf}")),
    pytest.param([*_GOF_AR, "--data-model", "foo"], "data_model", id="unknown-data-model"),
    pytest.param([*_GOF_AR, "--basis", "ar-example:1"], "basis", id="basis-without-surplus"),
    pytest.param([*_GOF_AR, "--mode", "composite", "--basis", "cosine:1"], "basis",
                 id="composite-basis-without-surplus"),
    # two steps cannot pass the default min_decreasing_steps = 3
    pytest.param(["trace-experiment", "--pair", "ar1xcos", "--T", "64,128,256", "--check"],
                 "T", id="ladder-shorter-than-its-check"),
])
def test_bad_value_exits_one_naming_the_field(tmp_path, monkeypatch, capsys, argv, field):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 1  # any other exception fails the test with its traceback
    out, err = capsys.readouterr()
    assert f"field {field!r}" in err
    assert "Traceback" not in out + err
    assert not list(tmp_path.iterdir())  # nothing was written


def test_removed_grid_size_option_is_refused_by_name(tmp_path, monkeypatch, capsys):
    # every study takes its sample's own grid, so a key or flag that once set
    # the grid size is refused like any unknown field, before anything is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ov.ini").write_text(
        "[experiment]\nkind = estimate-functional\nmodel = ar1{theta=0.5}\nT = 64\n"
        "reps = 2\noversample = 4\n", encoding="utf-8")
    assert _exit_code(["run", "--config", "ov.ini"]) == 1
    assert ("field 'oversample': not an option of 'estimate-functional'"
            in capsys.readouterr().err)
    for argv in (["periodogram", "--model", "ar1{theta=0.5}", "--T", "64", "--oversample", "4"],
                 ["run", "--config", "ov.ini", "--oversample", "4"]):
        assert _exit_code(argv) == 1, argv
        assert "unrecognized arguments: --oversample 4" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["ov.ini"]  # nothing was written


def _readme_flag_table() -> dict:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|$", text, flags=re.M)
    return {kind: set(re.findall(r"`(--[A-Za-z-]+)`", cells)) for kind, cells in rows}


def _subcommand_flags() -> dict:
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {kind: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"} for kind, sub in subs.choices.items()}


def test_import_taperspec_leaves_the_cli_unloaded():
    # the CLI is built from harness's tables, never the other way round, so a
    # library import (which the bench times) pays for no argument parser
    src = REPO / "src" / "taperspec"
    assert [p.name for p in src.glob("*.py") if "argparse" in p.read_text()] == ["cli.py"]
    code = (f"import sys; sys.path.insert(0, {str(src.parent)!r}); import taperspec; "
            "print('taperspec.cli' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"



@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["run", "--config", "preset.ini", "--chekc"], 1),  # a misspelt flag
])
def test_python_m_taperspec_runs_the_command_line(args, code):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "taperspec", *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == code, out.stderr
    assert ("usage: taperspec" in out.stdout) if code == 0 else (
        "unrecognized arguments: --chekc" in out.stderr)

def test_readme_flag_table_matches_the_parser():
    table, flags = _readme_flag_table(), _subcommand_flags()
    kinds = set(harness.KINDS)
    assert {kind: table[kind] for kind in kinds} == {kind: flags[kind] for kind in kinds}
    assert sum(len(flags[kind]) for kind in kinds) == 77
    # run takes every flag, and --config
    assert flags["run"] == set().union(*(flags[kind] for kind in kinds)) | {"--config"}


@pytest.mark.parametrize("name, registry", [
    ("taper", tuple(taper_module._TAPERS)),
    ("driver", (*models._DRIVERS, "exponential")),
])
def test_cli_help_names_every_registry_entry(name, registry):
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for kind, sub in subs.choices.items():
        action = next((a for a in sub._actions if a.dest == name), None)
        if action is not None:
            assert set(registry) <= set(re.findall(r"\w+", action.help)), kind
    for entry in registry:  # every name the help lists parses (a driver for a model)
        harness.parse_option(name, entry, {"model": AR1(theta=0.5)})


def test_ini_workers_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.ini").write_text(
        "[experiment]\nkind = trace-experiment\npair = ar1xcos\n"
        "T = 64,128\nworkers = two\n", encoding="utf-8")
    assert main(["run", "--config", "w.ini"]) == 1
    assert "field 'workers'" in capsys.readouterr().err


def test_workers_flag_overrides_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.ini").write_text(
        "[experiment]\nkind = estimate-functional\nmodel = ar1{theta=0.5,sigma2=1}\n"
        "taper = rect\ng = cosine:1\nT = 64\nreps = 2\nworkers = 2\nout = fn\n",
        encoding="utf-8")
    seen = []
    map_reps = harness._map_reps

    def spy(kind, payload, reps, workers):
        seen.append(workers)
        return map_reps(kind, payload, reps, 1)

    monkeypatch.setattr(harness, "_map_reps", spy)
    assert main(["run", "--config", "w.ini"]) == 0
    assert main(["run", "--config", "w.ini", "--workers", "1"]) == 0
    assert seen == [2, 1]
    assert main(["run", "--config", "w.ini", "--workers", "0"]) == 1


def test_argparse_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["definitely-not-a-subcommand"])
    assert exc.value.code == 1


def test_check_failure_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hard.ini").write_text(
        "[experiment]\nkind = trace-experiment\npair = ar1xcos\n"
        "taper = tukey\nT = 64,128\nout = tr\n\n"
        "[check]\nfinal_delta_max = 1e-12\nmin_decreasing_steps = off\n",
        encoding="utf-8")
    assert main(["run", "--config", "hard.ini", "--check"]) == 2
    out = capsys.readouterr().out
    assert "FAIL final_delta_max" in out
    assert "CHECKS FAILED" in out


# The first 12 replications of the gof_size and gof_power presets (simple
# test, AR(1) null, cosine:3, tukey, T = 1024) as (statistic, p_value,
# reject) when their projections ran on the periodogram's grid.  They now
# come from the lagged products of the null's residuals: the same sums in
# another order, so each may move at round-off (1e-12 relative) and no
# decision may flip.
_SIMPLE_PRESETS_ON_THE_GRID = {
    "gof_size": (
        (3.855762432734222, 0.2774663097949285, 0),
        (1.187588107756017, 0.7559827095996107, 0),
        (1.8939112721015239, 0.5947150037393942, 0),
        (1.4083493434610552, 0.7035787710176475, 0),
        (4.305735586635549, 0.23028665664212447, 0),
        (1.881948621048671, 0.5972663619574914, 0),
        (4.524668791281888, 0.2101004139624312, 0),
        (2.3145397856958163, 0.5097411941756955, 0),
        (1.8136057596192052, 0.6119786552721256, 0),
        (8.889061034668291, 0.03080282932966803, 1),
        (2.8567106087828447, 0.4142492244611161, 0),
        (1.350420409672421, 0.7171964753142646, 0),
    ),
    "gof_power": (
        (120.5146961511417, 5.978416260159803e-26, 1),
        (94.66838286074538, 2.175611578128706e-20, 1),
        (57.89171028239918, 1.6578283682358245e-12, 1),
        (104.8161874992769, 1.4311790883696972e-22, 1),
        (108.27287117899613, 2.5822697450088203e-23, 1),
        (39.449275582918, 1.3940429624467851e-08, 1),
        (44.69213241135447, 1.0757042236845994e-09, 1),
        (57.90809432151058, 1.6445278950141322e-12, 1),
        (66.12770960510605, 2.878105751172905e-14, 1),
        (47.047637054533794, 3.3954517358257504e-10, 1),
        (81.68121862953636, 1.3377423643387419e-17, 1),
        (40.58280203976924, 8.016760307644029e-09, 1),
    ),
}


@pytest.mark.parametrize("preset", sorted(_SIMPLE_PRESETS_ON_THE_GRID))
def test_simple_gof_presets_move_at_round_off_from_the_grid(tmp_path, monkeypatch, preset):
    monkeypatch.chdir(tmp_path)
    want = _SIMPLE_PRESETS_ON_THE_GRID[preset]
    assert main(["run", "--config", str(REPO / "acceptance" / f"{preset}.ini"),
                 "--reps", str(len(want)), "--out", preset]) == 0
    with open(tmp_path / f"{preset}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(want)
    for row, (statistic, p_value, reject) in zip(rows, want):
        assert float(row["statistic"]) == pytest.approx(statistic, rel=1e-12, abs=0.0)
        assert float(row["p_value"]) == pytest.approx(p_value, rel=1e-12, abs=0.0)
        assert row["reject"] == str(reject)

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

import csv
import hashlib
import json
import logging

import numpy as np
import pytest

from taperspec import harness
from taperspec.cli import build_parser, main
from taperspec.errors import (DegenerateSampleError, DomainError, SchemaError)
from taperspec.models import make_rng
from taperspec.taper import get_taper


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
        harness.parse_g("hann:3")
    with pytest.raises(SchemaError):
        harness.parse_g("cosine:x")


def test_parse_trend_variants():
    assert harness.parse_trend("zero").kind == "zero"
    tr = harness.parse_trend("power:2.0,0.6")
    assert tr.c == 2.0 and tr.beta == 0.6
    with pytest.raises(SchemaError, match="trend"):
        harness.parse_trend("power:1.0")
    with pytest.raises(SchemaError, match="trend"):
        harness.parse_trend("power:1.0,0.1")  # decay too slow to be admissible
    with pytest.raises(SchemaError):
        harness.parse_trend("ramp:1")


def test_parse_t_list():
    assert harness.parse_t_list("64,128, 256") == (64, 128, 256)
    with pytest.raises(SchemaError, match=">= 8"):
        harness.parse_t_list("64,4")
    with pytest.raises(SchemaError):
        harness.parse_t_list("a,b")
    with pytest.raises(SchemaError, match="empty"):
        harness.parse_t_list(",")


def test_resolvers_reject_unknown_ids():
    with pytest.raises(SchemaError, match="taper"):
        harness.resolve_taper("kaiser")
    with pytest.raises(SchemaError, match="driver"):
        harness.resolve_driver("cauchy")


def test_resolve_taper_returns_shared_instance():
    assert harness.resolve_taper("tukey") is get_taper("tukey")


def test_experiment_config_validation():
    with pytest.raises(SchemaError, match="kind"):
        harness.ExperimentConfig(kind="frequency-disco")
    with pytest.raises(SchemaError, match="workers"):
        harness.ExperimentConfig(kind="simulate", workers=0)
    cfg = harness.ExperimentConfig(kind="whittle")
    assert cfg.seed == 0
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


def test_csv_cells_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    harness.write_csv(str(path), ["a", "b", "c"],
                      [{"a": 0.1, "b": True, "c": 7}])
    raw = path.read_bytes()
    assert raw == b"a,b,c\r\n0.10000000000000001,1,7\r\n"
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
                  "--T", "256", "--mc-draws", "2000"]


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    # Forked workers inherit process-level state (shared tapers with their
    # cached moments), so every replication engine is compared here.  Each
    # worker count writes into its own directory under the same --out, as
    # the JSON records --out.
    model = ["--model", "ar1{theta=0.5,sigma2=1}"]
    cases = {
        "fn": ["estimate-functional", *model, "--taper", "rect",
               "--g", "cosine:1", "--T", "128", "--reps", "12", "--seed", "17"],
        "wh": ["whittle", *model, "--taper", "tukey", "--T", "128",
               "--reps", "6", "--seed", "18"],
        "gc": [*_COMPOSITE_GOF, "--reps", "4", "--seed", "19"],
    }
    for workers in ("1", "3"):
        (tmp_path / workers).mkdir()
        monkeypatch.chdir(tmp_path / workers)
        for name, base in cases.items():
            assert main([*base, "--out", name, "--workers", workers]) == 0
    for name in cases:
        for ext in (".csv", ".json"):
            assert ((tmp_path / "1" / f"{name}{ext}").read_bytes()
                    == (tmp_path / "3" / f"{name}{ext}").read_bytes()), name + ext


# CSV sha256 of small studies, each recorded before a speed-up of the code it
# runs: gc and lm before the Whittle search and the composite replication
# stopped recomputing per-candidate and per-replication constants; sf, sp and
# wa before the fractional filter, the stationarity test and the rational
# densities stopped recomputing per-path, per-candidate and unit factors.
# Those changes must leave every output byte alone.
_PINNED_CSV_SHA256 = {
    "gc": (["gof", "--mode", "composite", "--basis", "ar-example:4",
            "--model", "ar1{theta=0.5,sigma2=1}", "--taper", "tukey",
            "--T", "512", "--reps", "4", "--seed", "41"],
           "14a7dd8f2dd44a0485cd6fd4a66ddda53264aaa884586ae3f6d4527cfd67e2fb"),
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
           "9a7ebf65e37a3b743b687ea41e9abdfd95bc9481195cec861d4409fe833c5290"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CSV_SHA256))
def test_csv_bytes_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    argv, digest = _PINNED_CSV_SHA256[name]
    assert main([*argv, "--out", name]) == 0
    assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest


def test_gof_run_leaves_logger_state_alone(tmp_path, monkeypatch, caplog):
    monkeypatch.chdir(tmp_path)
    gof_logger = logging.getLogger("taperspec.gof")
    level, filters = gof_logger.level, list(gof_logger.filters)
    with caplog.at_level(logging.WARNING):
        assert main([*_COMPOSITE_GOF, "--reps", "2", "--out", "gc"]) == 0
    # the ar-example basis makes nu = 1 in every replication; that
    # expected warning is muted while the replications run
    assert not [r for r in caplog.records if r.name == "taperspec.gof"]
    assert gof_logger.level == level
    assert gof_logger.filters == filters


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


# ---------------------------------------------------------------------------
# exit codes


def test_schema_violation_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["whittle", "--model", "ar1{theta=0.5}", "--T", "4"]) == 1
    assert "field 'T'" in capsys.readouterr().err
    assert main(["gof", "--mode", "fancy",
                 "--model", "ar1{theta=0.5}", "--T", "64"]) == 1
    assert main(["simulate", "--T", "64"]) == 1  # model missing


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

"""Experiment harness: configs, seeded replication engine, CSV/JSON reports.

Every experiment is described by an `ExperimentConfig` (kind + string
options) that can come from CLI flags, an INI file, or both (flags win).
Running one produces two artifacts next to each other:

    <out>.csv   per-replication (or per-T) rows, RFC 4180, header, UTF-8
    <out>.json  aggregate metrics plus the fully resolved config

Determinism is the design center.  All randomness flows through
``derive_seed(master_seed, rep)``, so replication r sees the same stream
no matter how many workers run or which one picks it up; floats are
written with 17 significant digits in the CSV and shortest round-trip
form in the JSON; key order is sorted; no timestamps anywhere.  Two runs
of the same config are byte-identical.

``--check`` turns on threshold auditing: each kind has a small default
set (overridable per key in an INI ``[check]`` section, value ``off``
removes one) and failures flip the exit code to 2.  Schema problems exit
1 before any file is written.
"""

from __future__ import annotations

import configparser
import csv
import json
import logging
import math
import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.stats

from . import gof, robustness, toeplitz
from .errors import (DegenerateSampleError, DomainError, InvalidTaperError,
                     SchemaError)
from .functionals import (GeneratingFunction, asymptotic_variance, cosine,
                          fejer_smoothing_error, indicator, plugin_estimate,
                          quadratic_form, true_functional)
from .models import Model, derive_seed, get_driver, parse_model
from .spectrum import canonical_grid, tapered_periodogram
from .taper import Taper, fejer_kernel, get_taper, tapering_factor
from .whittle import info_matrices, whittle_estimate

_FLOAT_FMT = "%.17g"

# ---------------------------------------------------------------------------
# small resolvers shared by every runner


def resolve_taper(taper_id: str) -> Taper:
    """The shared built-in taper instance (its moments are computed once)."""
    try:
        return get_taper(taper_id)
    except InvalidTaperError as exc:
        raise SchemaError(f"field 'taper': {exc}") from None


def resolve_driver(name: str):
    try:
        return get_driver("centered_exponential" if name == "exponential" else name)
    except SchemaError as exc:
        raise SchemaError(f"field 'driver': {exc}") from None


def parse_g(spec: str) -> GeneratingFunction:
    """cosine:u or indicator:mu."""
    kind, _, arg = spec.partition(":")
    try:
        if kind == "cosine":
            return cosine(int(arg or "1"))
        if kind == "indicator":
            return indicator(float(arg))
    except (ValueError, DomainError) as exc:
        raise SchemaError(f"field 'g': bad argument in {spec!r}: {exc}") from None
    raise SchemaError(
        f"field 'g': unknown generator {spec!r}; expected cosine:u or indicator:mu")


def parse_trend(spec: str) -> robustness.Trend:
    """zero or power:c,beta."""
    kind, _, arg = spec.partition(":")
    if kind == "zero":
        return robustness.zero_trend()
    if kind == "power":
        parts = arg.split(",")
        if len(parts) != 2:
            raise SchemaError(f"field 'trend': expected power:c,beta, got {spec!r}")
        try:
            c, beta = float(parts[0]), float(parts[1])
        except ValueError:
            raise SchemaError(f"field 'trend': non-numeric parameter in {spec!r}") from None
        try:
            return robustness.power_decay(c, beta)
        except DomainError as exc:
            raise SchemaError(f"field 'trend': {exc}") from None
    raise SchemaError(
        f"field 'trend': unknown kind {spec!r}; expected zero or power:c,beta")


def parse_t_list(text: str) -> tuple:
    try:
        vals = tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError:
        raise SchemaError(f"field 'T': non-integer entry in {text!r}") from None
    if not vals:
        raise SchemaError("field 'T': empty list")
    for v in vals:
        if v < 8:
            raise SchemaError(f"field 'T': entries must be >= 8, got {v}")
    return vals


def _model_of(options: dict, key: str = "model") -> Model:
    spec = options.get(key)
    if spec is None:
        raise SchemaError(f"field {key!r}: required for this experiment")
    return parse_model(spec)


def _opt_int(options: dict, key: str, default=None, minimum=None) -> int:
    raw = options.get(key, default)
    if raw is None:
        raise SchemaError(f"field {key!r}: required for this experiment")
    try:
        val = int(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"field {key!r}: expected integer, got {raw!r}") from None
    if minimum is not None and val < minimum:
        raise SchemaError(f"field {key!r}: must be >= {minimum}, got {val}")
    return val


def _opt_float(options: dict, key: str, default=None) -> float:
    raw = options.get(key, default)
    if raw is None:
        raise SchemaError(f"field {key!r}: required for this experiment")
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"field {key!r}: expected number, got {raw!r}") from None


# ---------------------------------------------------------------------------
# serialization


def fmt_float(x) -> str:
    return _FLOAT_FMT % float(x)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_csv(path: str, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in fieldnames])


def _plain(obj):
    """Recursive conversion to json-native types (numpy scalars included)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(_plain(payload), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# normality diagnostics


def normality_diagnostics(sample) -> dict:
    """KS distance of a sample to N(mean, var) with plug-in moments.

    A screening diagnostic, not a formal test: the plug-in moments make
    the nominal KS p-value conservative, which is fine for the use here
    (flagging gross departures from a CLT).  Requires n >= 50.

    Returns {ks_stat, ks_pvalue, skew, kurt} with kurt the excess
    kurtosis.  Raises DegenerateSampleError on a zero-variance sample.
    """
    arr = np.asarray(sample, dtype=float).ravel()
    if arr.size < 50:
        raise DomainError(f"normality diagnostics need n >= 50, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample contains non-finite values")
    mean = float(np.mean(arr))
    sd = float(np.std(arr, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("sample has zero variance")
    ks = scipy.stats.kstest(arr, "norm", args=(mean, sd))
    return {
        "ks_stat": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
        "skew": float(scipy.stats.skew(arr)),
        "kurt": float(scipy.stats.kurtosis(arr)),
    }


# ---------------------------------------------------------------------------
# config


CHECK_DEFAULTS = {
    "simulate": {},
    "periodogram": {"parseval_rel_max": 1e-8},
    "estimate-functional": {"identity_rel_max": 1e-8,
                            "var_ratio_min": 0.9, "var_ratio_max": 1.1},
    "whittle": {"var_ratio_min": 0.85, "var_ratio_max": 1.15,
                "min_convergence": 0.99},
    "gof": {},  # filled per mode in the runner
    "trace-experiment": {"final_delta_max": 0.01, "min_decreasing_steps": 3,
                         "require_all_positive": 1},
    "fejer": {"norm_err_max": 1e-6, "require_tail_decreasing": 1,
              "sqrt_t_delta2_max": 0.05},
    "robustness": {"require_nonincreasing": 1,
                   "var_ratio_min": 0.85, "var_ratio_max": 1.15},
}

_GOF_CHECK_DEFAULTS = {
    "simple": {"size_min": 0.03, "size_max": 0.07},
    "composite": {"ks_max": 0.05},
}

KINDS = tuple(CHECK_DEFAULTS)


@dataclass
class ExperimentConfig:
    """One experiment: kind plus raw string options, as a CLI or INI gives them."""

    kind: str
    options: dict = field(default_factory=dict)
    check_enabled: bool = False
    check_overrides: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(
                f"field 'kind': unknown experiment {self.kind!r}; expected one of {sorted(KINDS)}")
        if self.workers < 1:
            raise SchemaError(f"field 'workers': must be >= 1, got {self.workers}")

    @property
    def seed(self) -> int:
        return _opt_int(self.options, "seed", default="0")

    @property
    def out_base(self) -> str:
        return self.options.get("out") or self.kind.replace("-", "_")

    def merged_checks(self, mode_defaults: dict | None = None) -> dict:
        merged = dict(CHECK_DEFAULTS[self.kind])
        if mode_defaults:
            merged.update(mode_defaults)
        for key, raw in self.check_overrides.items():
            if str(raw).strip().lower() == "off":
                merged.pop(key, None)
                continue
            try:
                merged[key] = float(raw)
            except (TypeError, ValueError):
                raise SchemaError(
                    f"check field {key!r}: expected number or 'off', got {raw!r}") from None
        return merged


def load_config_file(path: str) -> ExperimentConfig:
    """Read an INI file: [experiment] section with kind + options, optional [check]."""
    if not os.path.exists(path):
        raise SchemaError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case; T and t must stay distinct
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise SchemaError(f"config file {path}: {exc}") from None
    if "experiment" not in parser:
        raise SchemaError(f"config file {path}: missing [experiment] section")
    options = dict(parser["experiment"])
    kind = options.pop("kind", None)
    if kind is None:
        raise SchemaError(f"config file {path}: field 'kind' missing in [experiment]")
    raw_workers = options.pop("workers", "1")
    try:
        workers = int(raw_workers)
    except ValueError:
        raise SchemaError(
            f"field 'workers': expected integer, got {raw_workers!r}") from None
    check = dict(parser["check"]) if "check" in parser else {}
    return ExperimentConfig(kind=kind, options=options,
                            check_overrides=check, workers=workers)


# ---------------------------------------------------------------------------
# replication engine

# Model objects and bases hold closures, which do not pickle; workers get
# primitive payloads (spec strings, ids, ints) and resolve them locally:
# models are parsed again, tapers come from the shared get_taper instances
# (inherited, with their cached moments, by forked workers).


def _map_reps(kind: str, payload: dict, reps: int, workers: int) -> list:
    tasks = [(kind, payload, r) for r in range(reps)]
    if workers <= 1 or reps == 1:
        return [_rep_dispatch(t) for t in tasks]
    with multiprocessing.Pool(processes=min(workers, reps)) as pool:
        return pool.map(_rep_dispatch, tasks)  # map() preserves task order


def _rep_dispatch(task):
    kind, payload, rep = task
    return _REP_FUNCS[kind](payload, rep)


def _rep_functional(payload: dict, rep: int) -> dict:
    model = parse_model(payload["model"])
    taper = resolve_taper(payload["taper"])
    g = parse_g(payload["g"])
    driver = resolve_driver(payload["driver"])
    seed = derive_seed(payload["seed"], rep)
    series = model.simulate(driver, payload["T"], seed)
    pgram = tapered_periodogram(series, taper, oversample=payload["oversample"])
    j_hat = plugin_estimate(pgram, g)
    q_hat = quadratic_form(series, taper, g)
    rel = abs(j_hat * pgram.c_norm - q_hat) / max(abs(q_hat), 1e-300)
    return {"rep": rep, "seed": seed, "j_plugin": j_hat, "q_form": q_hat,
            "identity_rel_err": rel}


def _rep_whittle(payload: dict, rep: int) -> dict:
    model = parse_model(payload["model"])
    taper = resolve_taper(payload["taper"])
    driver = resolve_driver(payload["driver"])
    seed = derive_seed(payload["seed"], rep)
    series = model.simulate(driver, payload["T"], seed)
    fit = whittle_estimate(series, taper, model, kappa4=driver.kappa4,
                           oversample=payload["oversample"])
    row = {"rep": rep, "seed": seed}
    for name, val in zip(fit.names, fit.theta_hat):
        row[f"hat_{name}"] = float(val)
    if fit.sigma2_hat is not None:
        row["sigma2_hat"] = float(fit.sigma2_hat)
    row["converged"] = int(fit.converged)
    row["iterations"] = int(fit.iterations)
    row["objective"] = float(fit.objective_value)
    return row


_BASIS_MEMO: dict = {}


def _simple_basis(basis_spec: str, model: Model):
    key = (basis_spec, model.describe())
    got = _BASIS_MEMO.get(key)
    if got is None:
        got = _build_basis(basis_spec, model)
        _BASIS_MEMO[key] = got
    return got


def _build_basis(basis_spec: str, model: Model):
    kind, _, arg = basis_spec.partition(":")
    try:
        m = int(arg or "3")
    except ValueError:
        raise SchemaError(f"field 'basis': bad size in {basis_spec!r}") from None
    if kind == "cosine":
        return gof.cosine_basis(m)
    if kind == "ar-example":
        return gof.ar_example_basis(model, m)
    raise SchemaError(
        f"field 'basis': unknown basis {basis_spec!r}; expected cosine:m or ar-example:m")


def _errors_only(record: logging.LogRecord) -> bool:
    return record.levelno >= logging.ERROR


def _rep_gof(payload: dict, rep: int) -> dict:
    # The nu-degeneracy warning fires once per replication here and the
    # aggregate JSON reports nu anyway, so mute warnings while it runs.
    gof.logger.addFilter(_errors_only)
    try:
        return _gof_replication(payload, rep)
    finally:
        gof.logger.removeFilter(_errors_only)


def _gof_replication(payload: dict, rep: int) -> dict:
    null_model = parse_model(payload["model"])
    data_model = parse_model(payload["data_model"])
    taper = resolve_taper(payload["taper"])
    driver = resolve_driver(payload["driver"])
    seed = derive_seed(payload["seed"], rep)
    series = data_model.simulate(driver, payload["T"], seed)
    if payload["mode"] == "simple":
        basis = _simple_basis(payload["basis"], null_model)
        res = gof.simple_test(series, taper, null_model, basis,
                              alpha=payload["alpha"],
                              oversample=payload["oversample"])
        law_extra = {"dof": res.law["dof"]}
    else:
        spec = payload["basis"]
        res = gof.composite_test(series, taper, null_model,
                                 lambda mdl: _build_basis(spec, mdl),
                                 alpha=payload["alpha"],
                                 kappa4=driver.kappa4,
                                 oversample=payload["oversample"],
                                 mc_draws=payload["mc_draws"])
        law_extra = {"unit_dof": res.law["unit_dof"], "nu": res.law["nu"]}
    return {"rep": rep, "seed": seed, "statistic": float(res.statistic),
            "p_value": float(res.p_value), "reject": int(res.reject),
            "law": law_extra}


_REP_FUNCS = {
    "estimate-functional": _rep_functional,
    "whittle": _rep_whittle,
    "gof": _rep_gof,
}


# ---------------------------------------------------------------------------
# runners: one per experiment kind
#
# Each returns (fieldnames, rows, results, checks) where checks is a list of
# (name, passed, detail) built from the merged check thresholds.


def _band_check(checks, merged, key_min, key_max, label, value):
    if key_min in merged:
        ok = value >= merged[key_min]
        checks.append((key_min, ok, f"{label} {fmt_float(value)} >= {fmt_float(merged[key_min])}"))
    if key_max in merged:
        ok = value <= merged[key_max]
        checks.append((key_max, ok, f"{label} {fmt_float(value)} <= {fmt_float(merged[key_max])}"))


def _run_simulate(cfg: ExperimentConfig):
    model = _model_of(cfg.options)
    T = _opt_int(cfg.options, "T", minimum=8)
    reps = _opt_int(cfg.options, "reps", default="1", minimum=1)
    driver = resolve_driver(cfg.options.get("driver", "gaussian"))
    master = cfg.seed
    rows = []
    all_values = []
    provenance = None
    for r in range(reps):
        seed = derive_seed(master, r)
        series = model.simulate(driver, T, seed)
        if provenance is None:
            provenance = series.provenance
        all_values.append(series.values)
        for t, v in enumerate(series.values, start=1):
            rows.append({"experiment": "simulate", "seed": seed, "T": T,
                         "rep": r, "t": t, "value": float(v)})
    stacked = np.concatenate(all_values)
    results = {
        "reps": reps, "T": T,
        "sample_mean": float(np.mean(stacked)),
        "sample_variance": float(np.var(stacked, ddof=1)),
        "lag0_theory": float(model.covariance(0)),
        "provenance": provenance,
    }
    fieldnames = ["experiment", "seed", "T", "rep", "t", "value"]
    return fieldnames, rows, results, []


def _run_periodogram(cfg: ExperimentConfig):
    model = _model_of(cfg.options)
    taper = resolve_taper(cfg.options.get("taper", "tukey"))
    T = _opt_int(cfg.options, "T", minimum=8)
    oversample = _opt_int(cfg.options, "oversample", default="4")
    driver = resolve_driver(cfg.options.get("driver", "gaussian"))
    seed = derive_seed(cfg.seed, 0)
    series = model.simulate(driver, T, seed)
    shifted = model.memory_class != "short"
    grid = canonical_grid(T, oversample=oversample, shifted=shifted)
    pgram = tapered_periodogram(series, taper, grid=grid)
    rows = [{"experiment": "periodogram", "seed": seed, "T": T,
             "lambda": float(lam), "value": float(v)}
            for lam, v in zip(grid.points, pgram.values)]
    # Parseval on the full canonical grid is exact: the grid sum of
    # |d|^2 telescopes to N * sum h^2 x^2 regardless of the offset.
    lhs = float(np.sum(pgram.values) * grid.weight)
    h = taper.values(T)
    rhs = float(np.sum((h * series.values) ** 2) / np.sum(h ** 2))
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    results = {"T": T, "N": grid.N, "c_norm": pgram.c_norm,
               "parseval_grid_sum": lhs, "parseval_time_sum": rhs,
               "parseval_rel_err": rel, "shifted_grid": shifted}
    merged = cfg.merged_checks()
    checks = []
    if "parseval_rel_max" in merged:
        ok = rel <= merged["parseval_rel_max"]
        checks.append(("parseval_rel_max", ok,
                       f"Parseval rel err {fmt_float(rel)} <= {fmt_float(merged['parseval_rel_max'])}"))
    fieldnames = ["experiment", "seed", "T", "lambda", "value"]
    return fieldnames, rows, results, checks


def _run_functional(cfg: ExperimentConfig):
    model = _model_of(cfg.options)
    taper = resolve_taper(cfg.options.get("taper", "tukey"))
    g = parse_g(cfg.options.get("g", "cosine:1"))
    T = _opt_int(cfg.options, "T", minimum=8)
    reps = _opt_int(cfg.options, "reps", default="200", minimum=1)
    oversample = _opt_int(cfg.options, "oversample", default="4")
    driver_name = cfg.options.get("driver", "gaussian")
    driver = resolve_driver(driver_name)
    payload = {"model": model.describe(), "taper": cfg.options.get("taper", "tukey"),
               "g": cfg.options.get("g", "cosine:1"), "T": T,
               "seed": cfg.seed, "driver": driver_name, "oversample": oversample}
    per_rep = _map_reps("estimate-functional", payload, reps, cfg.workers)
    rows = [{"experiment": "estimate-functional", "T": T, **r} for r in per_rep]

    j_vals = np.array([r["j_plugin"] for r in per_rep])
    truth = true_functional(model, g)
    sigma2_full = asymptotic_variance(model, g, taper, kappa4=driver.kappa4)
    sigma2_gauss = (sigma2_full if driver.kappa4 == 0.0
                    else asymptotic_variance(model, g, taper, kappa4=0.0))
    t_var = float(T * np.var(j_vals, ddof=1)) if reps > 1 else float("nan")
    # MC error of a sample variance: var(s^2) ~ s^4 (2/(R-1) + g2/R).
    if reps > 3:
        g2 = max(float(scipy.stats.kurtosis(j_vals)), 0.0)
        tvar_se = t_var * math.sqrt(2.0 / (reps - 1) + g2 / reps)
    else:
        tvar_se = float("nan")
    identity_max = float(max(r["identity_rel_err"] for r in per_rep))
    results = {
        "reps": reps, "T": T,
        "true_value": truth,
        "mean_estimate": float(np.mean(j_vals)),
        "bias": float(np.mean(j_vals) - truth),
        "t_var": t_var, "t_var_se": tvar_se,
        "sigma2_theory": sigma2_full,
        "sigma2_gaussian_part": sigma2_gauss,
        "var_ratio": t_var / sigma2_full if sigma2_full else float("nan"),
        "kappa4_gap_se": (abs(t_var - sigma2_gauss) / tvar_se
                          if tvar_se and math.isfinite(tvar_se) else float("nan")),
        "identity_rel_max": identity_max,
    }
    if reps >= 50:
        z = np.sqrt(T) * (j_vals - truth) / math.sqrt(sigma2_full)
        results["normality"] = normality_diagnostics(z)
    merged = cfg.merged_checks()
    checks = []
    if "identity_rel_max" in merged:
        ok = identity_max <= merged["identity_rel_max"]
        checks.append(("identity_rel_max", ok,
                       f"identity rel err {fmt_float(identity_max)} <= {fmt_float(merged['identity_rel_max'])}"))
    _band_check(checks, merged, "var_ratio_min", "var_ratio_max",
                "T*var / theory", results["var_ratio"])
    if "kappa4_gap_se_min" in merged:
        ok = results["kappa4_gap_se"] >= merged["kappa4_gap_se_min"]
        checks.append(("kappa4_gap_se_min", ok,
                       f"gap to kappa4=0 formula {fmt_float(results['kappa4_gap_se'])} MC SE "
                       f">= {fmt_float(merged['kappa4_gap_se_min'])}"))
    if "ks_pvalue_min" in merged:
        pv = results.get("normality", {}).get("ks_pvalue", float("nan"))
        ok = math.isfinite(pv) and pv >= merged["ks_pvalue_min"]
        checks.append(("ks_pvalue_min", ok,
                       f"KS normality p {fmt_float(pv)} >= {fmt_float(merged['ks_pvalue_min'])}"))
    fieldnames = ["experiment", "seed", "T", "rep", "j_plugin", "q_form",
                  "identity_rel_err"]
    return fieldnames, rows, results, checks


def _run_whittle(cfg: ExperimentConfig):
    model = _model_of(cfg.options)
    taper_id = cfg.options.get("taper", "tukey")
    taper = resolve_taper(taper_id)
    T = _opt_int(cfg.options, "T", minimum=8)
    reps = _opt_int(cfg.options, "reps", default="200", minimum=1)
    oversample = _opt_int(cfg.options, "oversample", default="4")
    driver_name = cfg.options.get("driver", "gaussian")
    driver = resolve_driver(driver_name)
    if not model.free_names:
        raise SchemaError("field 'model': whittle needs at least one free parameter")
    payload = {"model": model.describe(), "taper": taper_id, "T": T,
               "seed": cfg.seed, "driver": driver_name, "oversample": oversample}
    per_rep = _map_reps("whittle", payload, reps, cfg.workers)
    rows = [{"experiment": "whittle", "T": T, **r} for r in per_rep]

    names = model.free_names
    theta0 = model.free_vector()
    hats = np.array([[r[f"hat_{n}"] for n in names] for r in per_rep])
    conv = float(np.mean([r["converged"] for r in per_rep]))
    e_h = tapering_factor(taper)
    info = info_matrices(model, kappa4=driver.kappa4)
    theory_var = float(e_h * info.gamma[0, 0])
    first = hats[:, 0]
    t_var = float(T * np.var(first, ddof=1)) if reps > 1 else float("nan")
    results = {
        "reps": reps, "T": T, "names": list(names),
        "theta0": [float(v) for v in theta0],
        "mean": [float(v) for v in np.mean(hats, axis=0)],
        "bias": [float(v) for v in (np.mean(hats, axis=0) - theta0)],
        "convergence_rate": conv,
        "tapering_factor": e_h,
        "t_var_first": t_var,
        "asym_var_first": theory_var,
        "var_ratio": t_var / theory_var if theory_var else float("nan"),
    }
    if reps >= 50:
        z = np.sqrt(T) * (first - theta0[0]) / math.sqrt(theory_var)
        results["normality"] = normality_diagnostics(z)
    merged = cfg.merged_checks()
    checks = []
    _band_check(checks, merged, "var_ratio_min", "var_ratio_max",
                "T*var / asym var", results["var_ratio"])
    if "min_convergence" in merged:
        ok = conv >= merged["min_convergence"]
        checks.append(("min_convergence", ok,
                       f"convergence rate {fmt_float(conv)} >= {fmt_float(merged['min_convergence'])}"))
    if "ks_pvalue_min" in merged:
        pv = results.get("normality", {}).get("ks_pvalue", float("nan"))
        ok = math.isfinite(pv) and pv >= merged["ks_pvalue_min"]
        checks.append(("ks_pvalue_min", ok,
                       f"KS normality p {fmt_float(pv)} >= {fmt_float(merged['ks_pvalue_min'])}"))
    fieldnames = (["experiment", "seed", "T", "rep"]
                  + [f"hat_{n}" for n in names]
                  + (["sigma2_hat"] if model.scale_name is not None else [])
                  + ["converged", "iterations", "objective"])
    return fieldnames, rows, results, checks


def _effective_chisq_dof(unit_dof: int, nu) -> int | None:
    """Integer dof when every mixture weight is numerically 0 or 1, else None."""
    dof = int(unit_dof)
    for v in nu:
        if abs(v - 1.0) < 1e-6:
            dof += 1
        elif abs(v) >= 1e-6:
            return None
    return dof


def _run_gof(cfg: ExperimentConfig):
    mode = cfg.options.get("mode", "simple")
    if mode not in ("simple", "composite"):
        raise SchemaError(f"field 'mode': expected simple or composite, got {mode!r}")
    model = _model_of(cfg.options)
    data_spec = cfg.options.get("data_model") or model.describe()
    basis_spec = cfg.options.get("basis", "cosine:3")
    taper_id = cfg.options.get("taper", "tukey")
    T = _opt_int(cfg.options, "T", minimum=8)
    reps = _opt_int(cfg.options, "reps", default="500", minimum=1)
    alpha = _opt_float(cfg.options, "alpha", default="0.05")
    oversample = _opt_int(cfg.options, "oversample", default="4")
    mc_draws = _opt_int(cfg.options, "mc_draws", default="200000", minimum=1000)
    driver_name = cfg.options.get("driver", "gaussian")
    resolve_driver(driver_name)
    resolve_taper(taper_id)
    payload = {"mode": mode, "model": model.describe(), "data_model": data_spec,
               "basis": basis_spec, "taper": taper_id, "T": T, "alpha": alpha,
               "seed": cfg.seed, "driver": driver_name, "oversample": oversample,
               "mc_draws": mc_draws}
    per_rep = _map_reps("gof", payload, reps, cfg.workers)
    laws = [r.pop("law") for r in per_rep]
    rows = [{"experiment": "gof", "T": T, **r} for r in per_rep]

    stats = np.array([r["statistic"] for r in per_rep])
    rate = float(np.mean([r["reject"] for r in per_rep]))
    half_width = 1.96 * math.sqrt(max(rate * (1.0 - rate), 1.0 / reps) / reps)
    results = {
        "mode": mode, "reps": reps, "T": T, "alpha": alpha,
        "basis": basis_spec,
        "null_matches_data": data_spec == model.describe(),
        "rejection_rate": rate,
        "rate_half_width": half_width,
        "mean_statistic": float(np.mean(stats)),
    }
    if mode == "simple":
        dof = laws[0]["dof"]
        results["dof"] = dof
        ks = scipy.stats.kstest(stats, "chi2", args=(dof,))
        results["ks_stat"] = float(ks.statistic)
        results["ks_pvalue"] = float(ks.pvalue)
    else:
        unit = {law["unit_dof"] for law in laws}
        results["unit_dof"] = sorted(unit)[0] if len(unit) == 1 else sorted(unit)
        results["nu_first_rep"] = list(laws[0]["nu"])
        eff = {_effective_chisq_dof(law["unit_dof"], law["nu"]) for law in laws}
        if len(eff) == 1 and None not in eff:
            dof = eff.pop()
            results["effective_dof"] = dof
            ks = scipy.stats.kstest(stats, "chi2", args=(dof,))
            results["ks_stat"] = float(ks.statistic)
            results["ks_pvalue"] = float(ks.pvalue)
        else:
            # genuinely mixed law; no closed-form reference distribution
            results["effective_dof"] = None
    merged = cfg.merged_checks(_GOF_CHECK_DEFAULTS[mode])
    checks = []
    _band_check(checks, merged, "size_min", "size_max", "rejection rate", rate)
    if "rate_min" in merged:
        ok = rate >= merged["rate_min"]
        checks.append(("rate_min", ok,
                       f"rejection rate {fmt_float(rate)} >= {fmt_float(merged['rate_min'])}"))
    if "ks_max" in merged:
        ks_stat = results.get("ks_stat")
        ok = ks_stat is not None and ks_stat <= merged["ks_max"]
        detail = (f"KS to chi-square {fmt_float(ks_stat)} <= {fmt_float(merged['ks_max'])}"
                  if ks_stat is not None else "KS reference law unavailable (mixed nu)")
        checks.append(("ks_max", ok, detail))
    fieldnames = ["experiment", "seed", "T", "rep", "statistic", "p_value", "reject"]
    return fieldnames, rows, results, checks


_TRACE_PAIRS = {
    "ar1xcos": ("ar1{theta=0.5,sigma2=1.0}", "cosine:1"),
}


def _run_trace(cfg: ExperimentConfig):
    pair = cfg.options.get("pair")
    if pair is not None:
        if pair not in _TRACE_PAIRS:
            raise SchemaError(
                f"field 'pair': unknown pair {pair!r}; expected one of {sorted(_TRACE_PAIRS)}")
        model_spec, g_spec = _TRACE_PAIRS[pair]
    else:
        model_spec = cfg.options.get("model")
        g_spec = cfg.options.get("g")
        if model_spec is None or g_spec is None:
            raise SchemaError("trace-experiment needs --pair or both --model and --g")
    model = parse_model(model_spec)
    g = parse_g(g_spec)
    taper = resolve_taper(cfg.options.get("taper", "tukey"))
    t_values = parse_t_list(cfg.options.get("T", "64,128,256,512,1024"))
    limit = toeplitz.trace_limit([model, g], taper)
    rows = []
    deltas = []
    for T in t_values:
        mats = [toeplitz.build_matrix(model, taper, T),
                toeplitz.build_matrix(g, taper, T)]
        s_t = toeplitz.trace_product(mats)
        delta = abs(s_t - limit)
        deltas.append(delta)
        rows.append({"experiment": "trace-experiment", "seed": cfg.seed, "T": T,
                     "trace_scaled": s_t, "limit": limit, "delta": delta})
    decreasing = sum(1 for a, b in zip(deltas, deltas[1:]) if b < a)
    results = {
        "T_values": list(t_values), "limit": limit,
        "deltas": deltas, "final_delta": deltas[-1],
        "decreasing_steps": decreasing, "steps": len(deltas) - 1,
        "all_positive": bool(all(d > 0 for d in deltas)),
    }
    merged = cfg.merged_checks()
    checks = []
    if "final_delta_max" in merged:
        ok = deltas[-1] <= merged["final_delta_max"]
        checks.append(("final_delta_max", ok,
                       f"final delta {fmt_float(deltas[-1])} <= {fmt_float(merged['final_delta_max'])}"))
    if "min_decreasing_steps" in merged:
        ok = decreasing >= merged["min_decreasing_steps"]
        checks.append(("min_decreasing_steps", ok,
                       f"decreasing steps {decreasing} >= {int(merged['min_decreasing_steps'])}"))
    if "require_all_positive" in merged and merged["require_all_positive"]:
        ok = results["all_positive"]
        checks.append(("require_all_positive", ok, "all deltas strictly positive"))
    fieldnames = ["experiment", "seed", "T", "trace_scaled", "limit", "delta"]
    return fieldnames, rows, results, checks


def _run_fejer(cfg: ExperimentConfig):
    taper = resolve_taper(cfg.options.get("taper", "tukey"))
    t_values = parse_t_list(cfg.options.get("T", "16,64,256,1024"))
    delta = _opt_float(cfg.options, "delta", default="0.5")
    if not 0.0 < delta < math.pi:
        raise SchemaError(f"field 'delta': must lie in (0, pi), got {delta}")
    model = parse_model(cfg.options.get("model", "ar1{theta=0.5,sigma2=1.0}"))
    g = parse_g(cfg.options.get("g", "cosine:1"))
    t_smooth = _opt_int(cfg.options, "T_smooth", default="2048", minimum=8)
    rows = []
    tails = []
    norm_errs = []
    for T in t_values:
        # full-period trapezoid with > 2T+1 points integrates the order-2
        # kernel exactly (it is a trigonometric polynomial of degree < 2T)
        n_grid = 4 * T + 1
        u = np.linspace(-math.pi, math.pi, n_grid)
        vals = fejer_kernel(taper, 2, T, u)
        norm = float(np.trapezoid(vals, u))
        norm_errs.append(abs(norm - 1.0))
        u_tail = np.linspace(delta, math.pi, n_grid)
        tail = 2.0 * float(np.trapezoid(fejer_kernel(taper, 2, T, u_tail), u_tail))
        tails.append(tail)
        rows.append({"experiment": "fejer", "seed": cfg.seed, "T": T,
                     "normalization": norm, "norm_abs_err": abs(norm - 1.0),
                     "tail_mass": tail})
    delta2 = fejer_smoothing_error(model, g, taper, t_smooth)
    sqrt_t_delta2 = math.sqrt(t_smooth) * delta2
    tail_decreasing = all(b < a for a, b in zip(tails, tails[1:]))
    results = {
        "T_values": list(t_values), "delta": delta,
        "norm_max_err": max(norm_errs), "tail_masses": tails,
        "tail_decreasing": tail_decreasing,
        "T_smooth": t_smooth, "delta2": delta2,
        "sqrt_t_delta2": sqrt_t_delta2,
    }
    merged = cfg.merged_checks()
    checks = []
    if "norm_err_max" in merged:
        ok = max(norm_errs) <= merged["norm_err_max"]
        checks.append(("norm_err_max", ok,
                       f"normalization err {fmt_float(max(norm_errs))} <= {fmt_float(merged['norm_err_max'])}"))
    if "require_tail_decreasing" in merged and merged["require_tail_decreasing"]:
        checks.append(("require_tail_decreasing", tail_decreasing,
                       "tail mass strictly decreasing over the T ladder"))
    if "sqrt_t_delta2_max" in merged:
        # the smoothing error is signed; the bound is on its size
        ok = abs(sqrt_t_delta2) <= merged["sqrt_t_delta2_max"]
        checks.append(("sqrt_t_delta2_max", ok,
                       f"|sqrt(T)*Delta2| {fmt_float(abs(sqrt_t_delta2))} <= {fmt_float(merged['sqrt_t_delta2_max'])}"))
    fieldnames = ["experiment", "seed", "T", "normalization", "norm_abs_err",
                  "tail_mass"]
    return fieldnames, rows, results, checks


def _run_robustness(cfg: ExperimentConfig):
    model = _model_of(cfg.options)
    trend = parse_trend(cfg.options.get("trend", "power:1.0,0.6"))
    target = cfg.options.get("target", "functional")
    taper = resolve_taper(cfg.options.get("taper", "tukey"))
    g = parse_g(cfg.options.get("g", "cosine:1"))
    t_values = parse_t_list(cfg.options.get("T", "512,2048,8192"))
    reps = _opt_int(cfg.options, "reps", default="200", minimum=1)
    report_t = _opt_int(cfg.options, "report_T", default=str(max(t_values)), minimum=8)
    report_reps = _opt_int(cfg.options, "report_reps", default=str(reps), minimum=2)
    driver = resolve_driver(cfg.options.get("driver", "gaussian"))
    master = cfg.seed
    ladder = robustness.gap_ladder(model, trend, taper, g, T_values=t_values,
                                   reps=reps, master_seed=master, driver=driver)
    report = robustness.robustness_report(
        model, trend, taper, target=target, g=g, T=report_t, reps=report_reps,
        master_seed=derive_seed(master, 10_000), driver=driver,
        kappa4=driver.kappa4)
    rows = [{"experiment": "robustness", "seed": master, "T": T,
             "median_gap": mg, "gap_se": se}
            for T, mg, se in zip(ladder.T_values, ladder.median_gaps, ladder.gap_ses)]
    results = {
        "T_values": list(ladder.T_values),
        "median_gaps": list(ladder.median_gaps),
        "gap_ses": list(ladder.gap_ses),
        "nonincreasing": ladder.nonincreasing,
        "flag": ladder.flag,
        "trend": trend.label, "target": target,
        "report_T": report_t, "report_reps": report_reps,
        "clean_bias": report.clean_bias,
        "contaminated_bias": report.contaminated_bias,
        "clean_variance": report.clean_variance,
        "contaminated_variance": report.contaminated_variance,
        "variance_ratio": report.variance_ratio,
        "ks_two_sample_stat": report.ks_two_sample_stat,
        "ks_two_sample_pvalue": report.ks_two_sample_pvalue,
        "normality_pvalue_clean": report.normality_pvalue_clean,
        "normality_pvalue_contaminated": report.normality_pvalue_contaminated,
        "median_gap_report": report.median_gap,
    }
    merged = cfg.merged_checks()
    checks = []
    if "require_nonincreasing" in merged and merged["require_nonincreasing"]:
        checks.append(("require_nonincreasing", ladder.nonincreasing,
                       "median sqrt(T)-gap nonincreasing over the T ladder"))
    _band_check(checks, merged, "var_ratio_min", "var_ratio_max",
                "contaminated/clean variance ratio", report.variance_ratio)
    fieldnames = ["experiment", "seed", "T", "median_gap", "gap_se"]
    return fieldnames, rows, results, checks


_RUNNERS = {
    "simulate": _run_simulate,
    "periodogram": _run_periodogram,
    "estimate-functional": _run_functional,
    "whittle": _run_whittle,
    "gof": _run_gof,
    "trace-experiment": _run_trace,
    "fejer": _run_fejer,
    "robustness": _run_robustness,
}


# ---------------------------------------------------------------------------
# top-level entry


def run_experiment(cfg: ExperimentConfig, echo=print) -> int:
    """Run one experiment; write <out>.csv and <out>.json; return exit code."""
    runner = _RUNNERS[cfg.kind]
    fieldnames, rows, results, checks = runner(cfg)
    out = cfg.out_base
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    resolved = dict(cfg.options)
    resolved["kind"] = cfg.kind
    resolved["seed"] = str(cfg.seed)
    resolved["check"] = "1" if cfg.check_enabled else "0"
    payload = {
        "experiment": cfg.kind,
        "config": resolved,
        "results": results,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
    }
    write_csv(out + ".csv", fieldnames, rows)
    write_json(out + ".json", payload)
    echo(f"workers: {cfg.workers}")
    echo(f"wrote {out}.csv ({len(rows)} rows)")
    echo(f"wrote {out}.json")
    if not cfg.check_enabled:
        return 0
    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        echo(f"{status} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        echo(f"CHECKS FAILED ({failures} of {len(checks)})")
        return 2
    echo(f"ALL CHECKS PASSED ({len(checks)})")
    return 0

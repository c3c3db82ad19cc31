"""Experiment harness: option schema, seeded replication engine, CSV/JSON reports.

Three tables describe every experiment kind: `OPTIONS` (help, type and
bound of each option, and the object it builds), `KINDS` (the options a
kind reads, with defaults) and `CHECKS` (a kind's threshold audits, in
report order).  The CLI is built from them, and an `ExperimentConfig`
(kind plus string options from CLI flags, an INI file, or both; flags win)
is checked against them before anything runs: a key the kind does not
read, or a bad value, is a schema error that names its field and exits 1
before any file is written.  Each option is parsed once, by its `OPTIONS`
row, and runners and replications read the parsed objects.  A run writes

    <out>.csv   per-replication (or per-T) rows, RFC 4180, header, UTF-8
    <out>.json  aggregate metrics, checks, and the options given plus kind, seed, check

Determinism is the design center.  All randomness flows through
``derive_seed(master_seed, rep)``, so replication r sees the same stream
no matter how many workers run or which one picks it up; floats are
written with 17 significant digits in the CSV and shortest round-trip
form in the JSON; key order is sorted; no timestamps anywhere.  With
``--check`` failed audits (thresholds overridable per key in an INI
``[check]`` section, ``off`` removes one) flip the exit code to 2.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import functools
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.stats

from . import gof, robustness, toeplitz
from ._engine import map_reps
from .errors import DegenerateSampleError, DomainError, SchemaError, TaperspecError
from .functionals import (GeneratingFunction, asymptotic_variance, cosine,
                          fejer_smoothing_error, indicator, plugin_estimate,
                          quadratic_form, true_functional)
from .models import _DRIVERS, Model, derive_seed, get_driver, parse_model
from .spectrum import tapered_periodogram
from .taper import _TAPERS, Taper, fejer_kernel, get_taper, tapering_factor
from .whittle import info_matrices, whittle_estimate

# ---------------------------------------------------------------------------
# the object parsers of the options table; `parse_option` names the field
# in their errors


def resolve_taper(taper_id: str) -> Taper:
    """The shared built-in taper instance (its moments are computed once)."""
    return get_taper(taper_id)


def parse_g(spec: str) -> GeneratingFunction:
    """cosine:u or indicator:mu."""
    name, _, arg = spec.partition(":")
    if name == "cosine":
        return cosine(int(arg or "1"))
    if name == "indicator":
        return indicator(float(arg))
    raise SchemaError(f"unknown generator {spec!r}; expected cosine:u or indicator:mu")


def parse_trend(spec: str) -> robustness.Trend:
    """zero or power:c,beta."""
    kind, _, arg = spec.partition(":")
    if kind == "zero":
        return robustness.zero_trend()
    if kind == "power" and arg.count(",") == 1:
        c, beta = arg.split(",")
        return robustness.power_decay(float(c), float(beta))
    raise SchemaError(f"bad trend {spec!r}; expected zero or power:c,beta")


def _build_basis(basis_spec: str, model: Model):
    kind, _, arg = basis_spec.partition(":")
    if kind == "cosine":
        return gof.cosine_basis(int(arg or "3"))
    if kind == "ar-example":
        return gof.ar_example_basis(model, int(arg or "3"))
    raise SchemaError(f"unknown basis {basis_spec!r}; expected cosine:m or ar-example:m")


def _parse_basis(spec: str, o: dict):
    """The simple test's basis for the null model, or the composite test's as a
    function of the fitted model, built once for the null to check it."""
    basis = _build_basis(spec, o["model"])
    if o["mode"] == "simple":
        return basis
    gof.require_surplus(basis, o["model"])
    return lambda model: _build_basis(spec, model)


def _parse_driver(text: str, o: dict):
    """The named driver, if the model that simulates the data can draw from it."""
    driver = get_driver(_DRIVER_ALIASES.get(text, text))
    (o.get("data_model") or o["model"]).check_driver(driver)
    return driver


def parse_t_list(text: str) -> tuple:
    """Comma list of sample sizes, each parsed and bounded as one T."""
    vals = tuple(parse_option("T", p.strip()) for p in str(text).split(",") if p.strip())
    if not vals:
        raise SchemaError("field 'T': empty list")
    return vals


# ---------------------------------------------------------------------------
# serialization


def fmt_float(x) -> str:
    return "%.17g" % float(x)  # 17 significant digits round-trip every double


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_csv(path: str, rows) -> None:
    """The rows under a header of the first row's keys; every row has the same keys."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(rows[0])
        writer.writerows([_cell(v) for v in row.values()] for row in rows)


def _plain(obj):
    """Recursive conversion to json-native types (numpy scalars included)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
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
# schema: the options and checks tables (the kinds table follows the runners)


@dataclass(frozen=True)
class Option:
    """One experiment option; its CLI flag is --name with _ written as -.

    Its text is read as `type` and bounded: at least `minimum`, strictly
    between `minimum` and `maximum` when both are set, or one of `choices`.
    `build(value, options parsed before it)` makes the object a runner reads.
    """

    help: str
    type: type = str  # str, int or float
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple = ()
    build: Callable | None = None


_TRACE_PAIRS = {"ar1xcos": ("ar1{theta=0.5,sigma2=1.0}", "cosine:1")}
_DRIVER_ALIASES = {"exponential": "centered_exponential"}

# The builds look parse_model, resolve_taper, parse_g and _build_basis up by
# name when they run, so a wrapper or test double put in this module is seen.
OPTIONS = {
    "model": Option("model spec, e.g. ar1{theta=0.5,sigma2=1}",
                    build=lambda text, o: parse_model(text)),
    "data_model": Option("model generating the data when it differs from the null",
                         build=lambda text, o: parse_model(text)),
    "pair": Option("named model and generator pair", choices=tuple(_TRACE_PAIRS),
                   build=lambda text, o: (parse_model(_TRACE_PAIRS[text][0]),
                                          parse_g(_TRACE_PAIRS[text][1]))),
    "g": Option("generator: cosine:u or indicator:mu", build=lambda text, o: parse_g(text)),
    "taper": Option(f"taper id: {', '.join(_TAPERS)}",
                    build=lambda text, o: resolve_taper(text)),
    "driver": Option(f"innovation driver: {', '.join([*_DRIVERS, *_DRIVER_ALIASES])}",
                     build=lambda text, o: _parse_driver(text, o)),
    "T": Option("sample size; a comma list for the ladder kinds", int, 8),
    "T_smooth": Option("sample size for the smoothing-error evaluation", int, 8),
    "reps": Option("replication count", int, 1),
    "report_T": Option("sample size for the distribution report (default: max T)", int, 8),
    "report_reps": Option("replications for the distribution report (default: reps)", int, 2),
    "mode": Option("test variant", choices=("simple", "composite")),
    "basis": Option("test basis: cosine:m or ar-example:m",
                    build=lambda text, o: _parse_basis(text, o)),
    "alpha": Option("test level in (0, 1)", float, 0.0, 1.0),
    "delta": Option("tail cutoff in (0, pi)", float, 0.0, math.pi),
    "trend": Option("zero or power:c,beta", build=lambda text, o: parse_trend(text)),
    "target": Option("estimate under contamination", choices=("functional", "whittle")),
    "seed": Option("master seed", int, 0),
    "out": Option("output base path for <out>.csv and <out>.json (default: the kind)"),
    "workers": Option("replication processes (default: the preset's, else 1)", int, 1),
}


@dataclass(frozen=True)
class Check:
    """A threshold on one results metric; details read "<label> <value><unit> <op> <limit>"."""

    name: str
    default: object  # threshold, None (off unless [check] sets it), or {gof mode: threshold}
    op: str  # "<=", ">=", or "flag": the metric is a boolean, audited while the threshold != 0
    metric: str  # results key; "a.b" reads key b of results["a"]
    label: str
    unit: str = ""
    absolute: bool = False  # compare |metric|


_KS_P = ("normality.ks_pvalue", "KS normality p")

# Each kind's checks, in report order.
CHECKS = {
    "simulate": (),
    "periodogram": (
        Check("parseval_rel_max", 1e-8, "<=", "parseval_rel_err", "Parseval rel err"),),
    "estimate-functional": (
        Check("identity_rel_max", 1e-8, "<=", "identity_rel_max", "identity rel err"),
        Check("var_ratio_min", 0.9, ">=", "var_ratio", "T*var / theory"),
        Check("var_ratio_max", 1.1, "<=", "var_ratio", "T*var / theory"),
        Check("kappa4_gap_se_min", None, ">=", "kappa4_gap_se", "gap to kappa4=0 formula",
              unit=" MC SE"),
        Check("ks_pvalue_min", None, ">=", *_KS_P)),
    "whittle": (
        Check("var_ratio_min", 0.85, ">=", "var_ratio", "T*var / asym var"),
        Check("var_ratio_max", 1.15, "<=", "var_ratio", "T*var / asym var"),
        Check("min_convergence", 0.99, ">=", "convergence_rate", "convergence rate"),
        Check("ks_pvalue_min", None, ">=", *_KS_P)),
    "gof": (
        Check("size_min", {"simple": 0.03}, ">=", "rejection_rate", "rejection rate"),
        Check("size_max", {"simple": 0.07}, "<=", "rejection_rate", "rejection rate"),
        Check("rate_min", None, ">=", "rejection_rate", "rejection rate"),
        Check("ks_max", {"composite": 0.05}, "<=", "ks_stat",
              "KS of p-values to U(0,1)")),
    "trace-experiment": (
        Check("final_delta_max", 0.01, "<=", "final_delta", "final delta"),
        Check("min_decreasing_steps", 3, ">=", "decreasing_steps", "decreasing steps"),
        Check("require_all_positive", 1, "flag", "all_positive", "all deltas strictly positive")),
    "fejer": (
        Check("norm_err_max", 1e-6, "<=", "norm_max_err", "normalization err"),
        Check("require_tail_decreasing", 1, "flag", "tail_decreasing",
              "tail mass strictly decreasing over the T ladder"),
        # the smoothing error is signed; the bound is on its size
        Check("sqrt_t_delta2_max", 0.05, "<=", "sqrt_t_delta2", "|sqrt(T)*Delta2|",
              absolute=True)),
    "robustness": (
        Check("require_nonincreasing", 1, "flag", "nonincreasing",
              "median sqrt(T)-gap nonincreasing over the T ladder"),
        Check("var_ratio_min", 0.85, ">=", "variance_ratio", "contaminated/clean variance ratio"),
        Check("var_ratio_max", 1.15, "<=", "variance_ratio", "contaminated/clean variance ratio")),
}


def parse_option(name: str, raw, o: dict | None = None):
    """One option's value from its raw text, checked against its table row; `o`
    holds the options parsed before it (a basis is checked against the null)."""
    opt = OPTIONS[name]
    try:
        val = opt.type(raw)
    except (TypeError, ValueError):
        noun = "integer" if opt.type is int else "number"
        raise SchemaError(f"field {name!r}: expected {noun}, got {raw!r}") from None
    if opt.choices and val not in opt.choices:
        raise SchemaError(
            f"field {name!r}: expected {' or '.join(opt.choices)}, got {raw!r}")
    if opt.maximum is not None and not opt.minimum < val < opt.maximum:
        raise SchemaError(
            f"field {name!r}: must lie in ({opt.minimum:g}, {opt.maximum:g}), got {val}")
    if opt.maximum is None and opt.minimum is not None and val < opt.minimum:
        raise SchemaError(f"field {name!r}: must be >= {opt.minimum}, got {val}")
    try:
        return val if opt.build is None else opt.build(val, o)
    except (TaperspecError, ValueError) as exc:
        raise SchemaError(f"field {name!r}: {exc}") from None


def evaluate_checks(kind: str, thresholds: dict, results: dict) -> list:
    """(name, passed, detail) for each enabled check of `kind`, in table order."""
    out = []
    for row in CHECKS[kind]:
        if row.name not in thresholds:
            continue
        limit = thresholds[row.name]
        value = results
        for key in row.metric.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if row.op == "flag":
            if limit:
                out.append((row.name, value, row.label))
        else:
            value = math.nan if value is None else value
            if row.absolute:
                value = abs(value)
            ok = value <= limit if row.op == "<=" else value >= limit
            out.append((row.name, ok, f"{row.label} {fmt_float(value)}{row.unit} "
                                      f"{row.op} {fmt_float(limit)}"))
    return out


@dataclass
class ExperimentConfig:
    """One experiment: kind plus raw string options, as a CLI or INI gives them.

    Construction checks each option and [check] name against the kind's tables.  `workers`
    (None: one process; > 1 only for parallel kinds) is a field, kept out of the JSON.
    """

    kind: str
    options: dict = field(default_factory=dict)
    check_enabled: bool = False
    check_overrides: dict = field(default_factory=dict)
    workers: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(
                f"field 'kind': unknown experiment {self.kind!r}; expected one of {sorted(KINDS)}")
        self.options = dict(self.options)
        self.workers = self.options.pop("workers", self.workers)
        if self.workers is not None:
            self.workers = parse_option("workers", self.workers)
            if self.workers > 1 and "workers" not in KINDS[self.kind].options:
                raise SchemaError(f"field 'workers': {self.kind!r} runs in one process")
        for name in self.options:
            if name not in KINDS[self.kind].options:
                raise SchemaError(f"field {name!r}: not an option of {self.kind!r}")
        for name in self.check_overrides:
            if name not in {row.name for row in CHECKS[self.kind]}:
                raise SchemaError(f"check field {name!r}: not a check of {self.kind!r}")

    @property
    def out_base(self) -> str:
        return self.options.get("out") or self.kind.replace("-", "_")

    def resolve(self) -> Resolved:
        """Every option the kind reads, parsed, with the table's defaults filled in."""
        given = self.options if self.workers is None else {**self.options, "workers": self.workers}
        kind = KINDS[self.kind]
        o = Resolved()
        o.text = {}
        for name, default in kind.options.items():
            raw = given.get(name, default)
            raw = raw(o) if callable(raw) else raw
            if raw is REQUIRED:
                raise SchemaError(f"field {name!r}: required for this experiment")
            o.text[name] = raw
            o[name] = (None if raw is None
                       else parse_t_list(raw) if name == "T" and kind.ladder
                       else parse_option(name, raw, o))
        return o

    def merged_checks(self, mode: str | None = None) -> dict:
        """Enabled thresholds: the table's defaults (per gof mode) under [check] overrides."""
        merged = {}
        for row in CHECKS[self.kind]:
            raw = self.check_overrides.get(row.name)
            default = row.default.get(mode) if isinstance(row.default, dict) else row.default
            if raw is None and default is not None:
                merged[row.name] = default
            elif raw is not None and str(raw).strip().lower() != "off":
                try:
                    merged[row.name] = float(raw)
                except (TypeError, ValueError):
                    raise SchemaError(
                        f"check field {row.name!r}: expected number or 'off', got {raw!r}") from None
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
    if "experiment" not in parser or set(parser.sections()) - {"experiment", "check"}:
        raise SchemaError(f"config file {path}: expected an [experiment] section and an "
                          f"optional [check] section, got {parser.sections()}")
    options = dict(parser["experiment"])
    kind = options.pop("kind", None)
    if kind is None:
        raise SchemaError(f"config file {path}: field 'kind' missing in [experiment]")
    check = dict(parser["check"]) if "check" in parser else {}
    return ExperimentConfig(kind=kind, options=options, check_overrides=check)


# ---------------------------------------------------------------------------
# replication engine


class Resolved(dict):
    """A kind's options parsed to what its runner reads, defaults filled in;
    `text` keeps the text each was parsed from.  Forked workers inherit it."""


def _map_reps(kind: str, o: Resolved, reps: int, workers: int) -> list:
    return map_reps(functools.partial(KINDS[kind].rep, o), reps, workers, o["seed"])


def _variance_limit(o: dict, kappa4: float) -> float:
    """asymptotic_variance of the study's functional; where it diverges, a
    refusal of the `model` option.  Runners call it before any replication."""
    try:
        return asymptotic_variance(o["model"], o["g"], o["taper"], kappa4=kappa4)
    except DomainError as exc:
        raise SchemaError(f"field 'model': {exc}") from None


def _rep_functional(o: dict, rep: int) -> dict:
    seed = derive_seed(o["seed"], rep)
    series = o["model"].simulate(o["driver"], o["T"], seed)
    pgram = tapered_periodogram(series, o["taper"])
    j_hat = plugin_estimate(pgram, o["g"])
    q_hat = quadratic_form(series, o["taper"], o["g"])
    rel = abs(j_hat * pgram.c_norm - q_hat) / max(abs(q_hat), 1e-300)
    return {"experiment": "estimate-functional", "seed": seed, "T": o["T"], "rep": rep,
            "j_plugin": j_hat, "q_form": q_hat, "identity_rel_err": rel}


def _rep_whittle(o: dict, rep: int) -> dict:
    seed = derive_seed(o["seed"], rep)
    series = o["model"].simulate(o["driver"], o["T"], seed)
    fit = whittle_estimate(series, o["taper"], o["model"], kappa4=o["driver"].kappa4)
    row = {"experiment": "whittle", "seed": seed, "T": o["T"], "rep": rep}
    row.update((f"hat_{name}", float(val)) for name, val in zip(fit.names, fit.theta_hat))
    if fit.sigma2_hat is not None:
        row["sigma2_hat"] = float(fit.sigma2_hat)
    row["converged"] = int(fit.converged)
    row["iterations"] = int(fit.iterations)
    row["objective"] = float(fit.objective_value)
    return row


def _rep_gof(o: dict, rep: int) -> dict:
    seed = derive_seed(o["seed"], rep)
    series = (o["data_model"] or o["model"]).simulate(o["driver"], o["T"], seed)
    if o["mode"] == "simple":
        res = gof.simple_test(series, o["taper"], o["model"], o["basis"], alpha=o["alpha"])
    else:
        res = gof.composite_test(series, o["taper"], o["model"], o["basis"], alpha=o["alpha"],
                                 kappa4=o["driver"].kappa4)
    return {"experiment": "gof", "seed": seed, "T": o["T"], "rep": rep,
            "statistic": float(res.statistic), "p_value": float(res.p_value),
            "reject": int(res.reject), "law": res.law}


# ---------------------------------------------------------------------------
# runners: one per experiment kind
#
# Each takes the resolved options and returns (rows, results), each row a
# dict in column order; `run_experiment` audits the results against the
# kind's checks.


def _run_simulate(o: dict):
    model, T, reps = o["model"], o["T"], o["reps"]
    seeds = [derive_seed(o["seed"], r) for r in range(reps)]
    paths = [model.simulate(o["driver"], T, seed) for seed in seeds]
    rows = [{"experiment": "simulate", "seed": seed, "T": T, "rep": r, "t": t,
             "value": float(v)}
            for r, (seed, path) in enumerate(zip(seeds, paths))
            for t, v in enumerate(path.values, start=1)]
    stacked = np.concatenate([path.values for path in paths])
    results = {
        "reps": reps, "T": T,
        "sample_mean": float(np.mean(stacked)),
        "sample_variance": float(np.var(stacked, ddof=1)),
        "lag0_theory": float(model.covariance(0)),
        "provenance": paths[0].provenance,
    }
    return rows, results


def _run_periodogram(o: dict):
    model, taper, T = o["model"], o["taper"], o["T"]
    seed = derive_seed(o["seed"], 0)
    series = model.simulate(o["driver"], T, seed)
    pgram = tapered_periodogram(series, taper, shifted=model.fractional)
    grid = pgram.grid
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
               "parseval_rel_err": rel, "shifted_grid": grid.shifted}
    return rows, results


def _run_functional(o: dict):
    model, g, driver = o["model"], o["g"], o["driver"]
    T, reps = o["T"], o["reps"]
    sigma2_full = _variance_limit(o, driver.kappa4)
    sigma2_gauss = sigma2_full if driver.kappa4 == 0.0 else _variance_limit(o, 0.0)
    rows = _map_reps("estimate-functional", o, reps, o["workers"])

    j_vals = np.array([r["j_plugin"] for r in rows])
    truth = true_functional(model, g)
    t_var = float(T * np.var(j_vals, ddof=1)) if reps > 1 else float("nan")
    # MC error of a sample variance: var(s^2) ~ s^4 (2/(R-1) + g2/R).
    if reps > 3:
        g2 = max(float(scipy.stats.kurtosis(j_vals)), 0.0)
        tvar_se = t_var * math.sqrt(2.0 / (reps - 1) + g2 / reps)
    else:
        tvar_se = float("nan")
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
        "identity_rel_max": float(max(r["identity_rel_err"] for r in rows)),
    }
    if reps >= 50:
        z = np.sqrt(T) * (j_vals - truth) / math.sqrt(sigma2_full)
        results["normality"] = normality_diagnostics(z)
    return rows, results


def _run_whittle(o: dict):
    model, T, reps = o["model"], o["T"], o["reps"]
    if not model.free_names:
        raise SchemaError("field 'model': whittle needs at least one free parameter")
    rows = _map_reps("whittle", o, reps, o["workers"])

    names = model.free_names
    theta0 = model.free_vector()
    hats = np.array([[r[f"hat_{n}"] for n in names] for r in rows])
    conv = float(np.mean([r["converged"] for r in rows]))
    e_h = tapering_factor(o["taper"])
    theory_var = float(e_h * info_matrices(model, kappa4=o["driver"].kappa4).gamma[0, 0])
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
    return rows, results


def _run_gof(o: dict):
    mode, T, reps = o["mode"], o["T"], o["reps"]
    rows = _map_reps("gof", o, reps, o["workers"])
    laws = [r.pop("law") for r in rows]

    stats = np.array([r["statistic"] for r in rows])
    rate = float(np.mean([r["reject"] for r in rows]))
    results = {
        "mode": mode, "reps": reps, "T": T, "alpha": o["alpha"],
        "basis": o.text["basis"],
        "null_matches_data": (o["data_model"] or o["model"]).describe() == o["model"].describe(),
        "rejection_rate": rate,
        "rate_half_width": 1.96 * math.sqrt(max(rate * (1.0 - rate), 1.0 / reps) / reps),
        "mean_statistic": float(np.mean(stats)),
    }
    if mode == "simple":
        results["dof"] = laws[0]["dof"]
    else:
        unit = {law["unit_dof"] for law in laws}
        results["unit_dof"] = sorted(unit)[0] if len(unit) == 1 else sorted(unit)
        results["nu_first_rep"] = list(laws[0]["nu"])
        dofs = {law["dof"] for law in laws}
        results["effective_dof"] = dofs.pop() if len(dofs) == 1 else None
    # each p-value is the reference law's survival function at the statistic,
    # so under that law the p-values are uniform, whether the law is a mixture or not
    ks = scipy.stats.kstest([r["p_value"] for r in rows], "uniform")
    results["ks_stat"] = float(ks.statistic)
    results["ks_pvalue"] = float(ks.pvalue)
    return rows, results


def _run_trace(o: dict):
    if o["pair"] is not None and (o["model"] is not None or o["g"] is not None):
        raise SchemaError("field 'pair': replaces --model and --g; give one or the other")
    model, g = o["pair"] or (o["model"], o["g"])
    if model is None or g is None:
        raise SchemaError("trace-experiment needs --pair or both --model and --g")
    taper = o["taper"]
    limit = toeplitz.trace_limit([model, g], taper)
    rows = []
    for T in o["T"]:
        s_t = toeplitz.trace_product([toeplitz.build_matrix(model, taper, T),
                                      toeplitz.build_matrix(g, taper, T)])
        rows.append({"experiment": "trace-experiment", "seed": o["seed"], "T": T,
                     "trace_scaled": s_t, "limit": limit, "delta": abs(s_t - limit)})
    deltas = [r["delta"] for r in rows]
    results = {
        "T_values": list(o["T"]), "limit": limit,
        "deltas": deltas, "final_delta": deltas[-1],
        "decreasing_steps": sum(1 for a, b in zip(deltas, deltas[1:]) if b < a),
        "steps": len(deltas) - 1,
        "all_positive": bool(all(d > 0 for d in deltas)),
    }
    return rows, results


def _run_fejer(o: dict):
    taper, delta, t_smooth = o["taper"], o["delta"], o["T_smooth"]
    rows = []
    for T in o["T"]:
        # full-period trapezoid with > 2T+1 points integrates the order-2
        # kernel exactly (it is a trigonometric polynomial of degree < 2T)
        n_grid = 4 * T + 1
        u = np.linspace(-math.pi, math.pi, n_grid)
        norm = float(np.trapezoid(fejer_kernel(taper, 2, T, u), u))
        u_tail = np.linspace(delta, math.pi, n_grid)
        tail = 2.0 * float(np.trapezoid(fejer_kernel(taper, 2, T, u_tail), u_tail))
        rows.append({"experiment": "fejer", "seed": o["seed"], "T": T,
                     "normalization": norm, "norm_abs_err": abs(norm - 1.0),
                     "tail_mass": tail})
    tails = [r["tail_mass"] for r in rows]
    delta2 = fejer_smoothing_error(o["model"], o["g"], taper, t_smooth)
    results = {
        "T_values": list(o["T"]), "delta": delta,
        "norm_max_err": max(r["norm_abs_err"] for r in rows), "tail_masses": tails,
        "tail_decreasing": all(b < a for a, b in zip(tails, tails[1:])),
        "T_smooth": t_smooth, "delta2": delta2,
        "sqrt_t_delta2": math.sqrt(t_smooth) * delta2,
    }
    return rows, results


def _run_robustness(o: dict):
    model, trend, taper, g, master = o["model"], o["trend"], o["taper"], o["g"], o["seed"]
    if o["reps"] < 2:
        raise SchemaError("field 'reps': the gap ladder's standard errors need at least 2")
    if o["target"] == "functional":
        _variance_limit(o, o["driver"].kappa4)  # the report computes it after the ladder
    ladder = robustness.gap_ladder(model, trend, taper, g, T_values=o["T"], reps=o["reps"],
                                   master_seed=master, driver=o["driver"], workers=o["workers"])
    report = robustness.robustness_report(
        model, trend, taper, target=o["target"], g=g, T=o["report_T"], reps=o["report_reps"],
        master_seed=derive_seed(master, 10_000), driver=o["driver"], workers=o["workers"])
    rows = [{"experiment": "robustness", "seed": master, "T": T,
             "median_gap": mg, "gap_se": se}
            for T, mg, se in zip(ladder.T_values, ladder.median_gaps, ladder.gap_ses)]
    results = {
        **dataclasses.asdict(ladder), **dataclasses.asdict(report),
        "trend": trend.label, "target": o["target"],
        "report_T": o["report_T"], "report_reps": o["report_reps"],
    }
    return rows, results


# ---------------------------------------------------------------------------
# the kinds table: each kind's runner, replication function and options read

REQUIRED = "required"  # a kinds-table default for an option that has none


@dataclass(frozen=True)
class Kind:
    summary: str
    run: Callable  # resolved options -> (rows, results)
    # option name -> default text or number, REQUIRED, None (unset), or a
    # function of the options parsed before it that gives the default
    options: dict
    ladder: bool  # T is a comma list of sample sizes
    rep: Callable | None  # one replication of the kinds that `_map_reps` spreads over workers


def _kind(summary: str, run: Callable, ladder: bool = False, rep: Callable | None = None,
          **defaults) -> Kind:
    return Kind(summary, run, {**defaults, "seed": 0, "out": None}, ladder, rep)


KINDS = {
    "simulate": _kind("draw model sample paths", _run_simulate,
                      model=REQUIRED, T=REQUIRED, reps=1, driver="gaussian"),
    "periodogram": _kind("tapered periodogram of one realization", _run_periodogram,
                         model=REQUIRED, taper="tukey", T=REQUIRED, driver="gaussian"),
    "estimate-functional": _kind("plug-in spectral functional study", _run_functional,
                                 rep=_rep_functional, model=REQUIRED, taper="tukey",
                                 g="cosine:1", T=REQUIRED, reps=200, driver="gaussian",
                                 workers=1),
    "whittle": _kind("tapered Whittle fit study", _run_whittle, rep=_rep_whittle,
                     model=REQUIRED, taper="tukey", T=REQUIRED, reps=200, driver="gaussian",
                     workers=1),
    "gof": _kind("frequency-domain goodness-of-fit study", _run_gof, rep=_rep_gof,
                 mode="simple", model=REQUIRED, data_model=None, basis="cosine:3",
                 taper="tukey", T=REQUIRED, reps=500, alpha=0.05, driver="gaussian",
                 workers=1),
    "trace-experiment": _kind("tapered trace against its limit", _run_trace, ladder=True,
                              pair=None, model=None, g=None, taper="tukey",
                              T="64,128,256,512,1024"),
    "fejer": _kind("kernel normalization and tail mass ladder", _run_fejer, ladder=True,
                   taper="tukey", T="16,64,256,1024", delta=0.5,
                   model="ar1{theta=0.5,sigma2=1.0}", g="cosine:1", T_smooth=2048),
    "robustness": _kind("trend contamination study", _run_robustness, ladder=True,
                        model=REQUIRED, trend="power:1.0,0.6", target="functional",
                        taper="tukey", g="cosine:1", T="512,2048,8192", reps=200,
                        report_T=lambda o: max(o["T"]), report_reps=lambda o: o["reps"],
                        driver="gaussian", workers=1),
}


# ---------------------------------------------------------------------------
# top-level entry


def run_experiment(cfg: ExperimentConfig, echo=print) -> int:
    """Run one experiment; write <out>.csv and <out>.json; return exit code."""
    opts = cfg.resolve()
    thresholds = cfg.merged_checks(opts.get("mode"))
    steps = thresholds.get("min_decreasing_steps") if cfg.check_enabled else None
    if steps is not None and len(opts["T"]) - 1 < steps:  # a check it cannot pass
        raise SchemaError(f"field 'T': too few sizes for {steps:g} decreasing steps")
    rows, results = KINDS[cfg.kind].run(opts)
    checks = evaluate_checks(cfg.kind, thresholds, results)
    out = cfg.out_base
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    config = {**cfg.options, "kind": cfg.kind, "seed": str(opts["seed"]),
              "check": "1" if cfg.check_enabled else "0"}
    payload = {
        "experiment": cfg.kind,
        "config": config,
        "results": results,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
    }
    write_csv(out + ".csv", rows)
    write_json(out + ".json", payload)
    echo(f"workers: {opts.get('workers', 1)}")
    echo(f"wrote {out}.csv ({len(rows)} rows)")
    echo(f"wrote {out}.json")
    if not cfg.check_enabled:
        return 0
    for name, ok, detail in checks:
        echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failures = sum(1 for _, ok, _ in checks if not ok)
    if failures:
        echo(f"CHECKS FAILED ({failures} of {len(checks)})")
        return 2
    echo(f"ALL CHECKS PASSED ({len(checks)})")
    return 0

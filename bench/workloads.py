"""The benchmark's workloads: generated INI inputs and output checks.

Each workload is one experiment kind at a fixed size.  A benchmark run
executes a series of studies of `reps` replications each; study k of a
run with workload seed S has master seed `1000 * S + k`, so the workload
seed alone fixes every input.  The checks here use only the standard
library: they read the CSV and JSON a study wrote and return the number
of replications that failed plus the problems found.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass

DEFAULT_SEED = 0
# bench/reference.json holds study 0's full results for workload seeds below this
REFERENCE_SEEDS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    options: tuple  # (key, value) pairs of the [experiment] section
    reps: int  # replications per study
    # results keys that do not depend on the seed; checked on every study
    constants: tuple


WORKLOADS = {
    # variance_limit preset inputs: no search, no per-replication quadrature
    "functional": Workload(
        "functional",
        (("kind", "estimate-functional"), ("model", "ar1{theta=0.5,sigma2=1}"),
         ("driver", "gaussian"), ("taper", "tukey"), ("g", "cosine:1"),
         ("T", "2048")),
        reps=200,
        constants=("reps", "T", "true_value", "sigma2_theory", "sigma2_gaussian_part")),
    # gof_composite preset inputs: Whittle fit plus population quadrature
    "gof-composite": Workload(
        "gof-composite",
        (("kind", "gof"), ("mode", "composite"), ("model", "ar1{theta=0.5,sigma2=1}"),
         ("driver", "gaussian"), ("basis", "ar-example:4"), ("alpha", "0.05"),
         ("taper", "tukey"), ("T", "4096")),
        reps=30,
        constants=("mode", "reps", "T", "alpha", "basis", "null_matches_data",
                   "unit_dof", "effective_dof")),
    # long memory: FFT-convolution simulation, Nelder-Mead, QUADPACK
    "long-memory": Workload(
        "long-memory",
        (("kind", "whittle"), ("model", "arfima_pdq{d=0.3,phi=0.4}"),
         ("driver", "gaussian"), ("taper", "tukey"), ("T", "2048")),
        reps=2,
        constants=("reps", "T", "names", "theta0", "tapering_factor",
                   "asym_var_first")),
}


def study_seed(workload_seed: int, k: int) -> int:
    return 1000 * workload_seed + k


def ini_text(workload: Workload, seed: int, reps: int, out: str) -> str:
    lines = ["[experiment]"]
    lines += [f"{key} = {value}" for key, value in workload.options]
    lines += [f"reps = {reps}", f"seed = {seed}", f"out = {out}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output checks

REL_TOL = 1e-6  # results may move by round-off, not more
ABS_TOL = 1e-12


def close(a, b) -> bool:
    """Recursive comparison of parsed JSON values within REL_TOL / ABS_TOL."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _mean(values):
    return math.fsum(values) / len(values)


def check_study(workload: Workload, reps: int, csv_path: str, json_path: str) -> dict:
    """Read one study's outputs and check them against each other.

    Returns {"failed_reps", "problems", "results", "csv_sha256"}.  A
    replication fails when its row is missing, not finite, or (Whittle)
    not converged; a JSON aggregate that the CSV rows do not reproduce
    fails the whole study.
    """
    with open(csv_path, "rb") as fh:
        raw = fh.read()
    with open(json_path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    problems = []
    bad = set()
    if len(rows) != reps:
        problems.append(f"{len(rows)} rows for {reps} replications")
    numeric = []
    for i, row in enumerate(rows):
        vals = {key: _number(text) for key, text in row.items() if key != "experiment"}
        if not all(math.isfinite(v) for v in vals.values()):
            bad.add(i)
        numeric.append(vals)
    kind = dict(workload.options)["kind"]
    cols = {key: [vals[key] for vals in numeric] for key in (numeric[0] if numeric else ())}

    def agree(label, got, want):
        if not close(got, want):
            problems.append(f"{label}: JSON {got!r} but CSV gives {want!r}")

    if rows and kind == "estimate-functional":
        agree("mean_estimate", results["mean_estimate"], _mean(cols["j_plugin"]))
        agree("identity_rel_max", results["identity_rel_max"], max(cols["identity_rel_err"]))
        # plug-in * C_T = Q holds to round-off for band-limited g
        if results["identity_rel_max"] > 1e-8:
            problems.append(f"identity_rel_max {results['identity_rel_max']} > 1e-8")
    elif rows and kind == "gof":
        agree("rejection_rate", results["rejection_rate"], _mean(cols["reject"]))
        agree("mean_statistic", results["mean_statistic"], _mean(cols["statistic"]))
        alpha = float(results["alpha"])
        for i, v in enumerate(numeric):
            if not (0.0 <= v["p_value"] <= 1.0 and v["statistic"] >= 0.0
                    and v["reject"] == float(v["p_value"] < alpha)):
                bad.add(i)
    elif rows and kind == "whittle":
        names = results["names"]
        agree("mean", results["mean"], [_mean(cols[f"hat_{n}"]) for n in names])
        agree("convergence_rate", results["convergence_rate"], _mean(cols["converged"]))
        for i, v in enumerate(numeric):
            if v["converged"] != 1.0:
                bad.add(i)
    failed = reps if problems else len(bad)
    if bad:
        problems.append(f"{len(bad)} replication(s) failed or not converged")
    return {"failed_reps": failed, "problems": problems,
            "results": results, "csv_sha256": hashlib.sha256(raw).hexdigest()}

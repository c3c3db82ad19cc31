"""One benchmark study process: runs studies through the public API and times them.

Usage: python3 bench/worker.py SPEC.json

SPEC holds the workload name, the workload seed, the mode, the time
budget in seconds, the minimum number of rounds and the path of the
result file.  After one untimed warm-up study of one replication, each
round k runs study k twice, as `taperspec run --config <ini>` would:

    mode "e2e"    once with --workers 1 and once with --workers 2
    mode "trace"  once untraced and once traced, both with --workers 1

Rounds repeat while the next one is expected to end within the budget.
The host-speed probe (bench/probe.py) runs between studies, so every
study has a probe just before and just after it, on as many cores as
the study uses.  Every study's outputs are checked before the next
starts (outside the timed region), and the result file lists every
study with its wall time, host speed, checks and, when traced, its
per-layer profile.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback

import numpy
import scipy

from probe import HostProbe, speed
from taperspec import harness
from tracing import Tracer, study_profile
from workloads import WORKLOADS, check_study, ini_text, study_seed


def _quiet(*_args, **_kwargs):
    pass


def run_study(workload, seed: int, reps: int, tag: str, workers: int = 1,
              tracer: Tracer | None = None) -> dict:
    ini = f"{tag}.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(ini_text(workload, seed, reps, tag))
    record = {"tag": tag, "seed": seed, "reps": reps, "workers": workers,
              "traced": tracer is not None, "wall_s": None, "error": None,
              "failed_reps": reps, "problems": [], "results": None,
              "csv_sha256": None}
    try:
        cfg = harness.load_config_file(ini)
        cfg.workers = workers
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            code = harness.run_experiment(cfg, echo=_quiet)
            record["wall_s"] = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"run_experiment returned {code}")
        record.update(check_study(workload, reps, f"{tag}.csv", f"{tag}.json"))
        if tracer is not None:
            record["profile"] = study_profile(tracer)
    except Exception:
        record["error"] = traceback.format_exc(limit=4)
    for ext in (".ini", ".csv", ".json"):
        if os.path.exists(tag + ext):
            os.remove(tag + ext)
    return record


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[spec["workload"]]
    name = workload.name.replace("-", "_")
    if spec["mode"] == "e2e":
        variants = (("w1", 1, None), ("w2", 2, None))
    else:
        tracer = Tracer()
        variants = (("w1", 1, None), ("traced", 1, tracer))
    warmup = run_study(workload, study_seed(spec["seed"], 0), 1, f"{name}_warmup")
    studies = []
    start = time.perf_counter()
    with HostProbe(cores=max(workers for _, workers, _ in variants)) as probe:
        probe()  # warm-up: the first FFT and quad calls set up caches
        before = probe()
        k = 0
        round_s = 0.0
        # Start a round only if it should end within the budget, judged by the last one.
        while k < spec["min_rounds"] or time.perf_counter() - start + round_s <= spec["budget_s"]:
            round_start = time.perf_counter()
            seed = study_seed(spec["seed"], k)
            for label, workers, tracer in variants:
                study = run_study(workload, seed, workload.reps, f"{name}_k{k}_{label}",
                                  workers=workers, tracer=tracer)
                after = probe()
                studies.append(study | {"k": k, "variant": label,
                                        "speed": speed((before[workers], after[workers]))})
                before = after
            round_s = time.perf_counter() - round_start
            k += 1
    result = {
        "warmup": warmup,
        "studies": studies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

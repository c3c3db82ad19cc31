"""Write a BENCH_<n>.json snapshot: the benchmark, every preset and Tier-1, timed.

Run from the repository root, for this checkout alone or beside another
one (for example a clean clone of the parent commit):

    python3 tools/bench_snapshot.py --out BENCH_31.json \
        --tree parent=../parent --tree change=.

For each tree (a checkout holding src/, bench/, acceptance/ and tests/),
each of ROUNDS rounds:

* runs `bench/run_bench.py --workload W --seed 0 --trace 0` for the three
  workloads, each in a subprocess, and keeps its end-to-end metrics, its
  correctness line, the host-speed probe and the machine line it prints;
* times every `acceptance/*.ini` preset as `python -m taperspec run
  --check` in a fresh interpreter, at --workers 1 and at --workers 2
  where the preset's kind allows it (a kind that runs in one process
  refuses 2 workers, and its entry records that);
* times the Tier-1 suite (`python -m pytest -q --continue-on-collection-errors`).

The trees take turns within each round, in an order that flips from one
round to the next, so two trees see the same host drift.  The file keeps
every run and its median per tree, plus the `src/` line count, the
commit and the Python, NumPy and SciPy versions, in a new file (an
existing one is overwritten).  BLAS and
OpenMP pools are pinned to one thread, as in the benchmark.  Nothing
under bench/ is written but its own scratch directory, which
run_bench.py removes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("functional", "gof-composite", "long-memory")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ONE_PROCESS = "runs in one process"  # the refusal of --workers 2 by a kind
ROUNDS = 5


def env_for(tree: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(tree / "src")
    return env


def run_bench(tree: Path, workload: str) -> dict:
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", workload,
                           "--seed", "0", "--trace", "0"],
                          cwd=tree, env=env_for(tree), capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "error": proc.stderr[-2000:]}
    report = json.loads(lines[-1])
    out = {"exit": 0, "correct": report["correct"], "failed": report["failed"],
           "metrics": {k: v["value"] for k, v in report["metrics"].items()}}
    for line in lines:
        if line.startswith("# machine "):
            out["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# host speed at studies: "):
            out["host_speed"] = line.split(": ", 1)[1]
    return out


def time_preset(tree: Path, ini: Path, workers: int, workdir: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "taperspec", "run", "--config", str(ini),
                           "--check", "--workers", str(workers), "--out", ini.stem],
                          cwd=workdir, env=env_for(tree), capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode == 1 and ONE_PROCESS in proc.stderr:
        return {"exit": 1, "refused": True}
    return {"exit": proc.returncode, "wall_s": wall}


def time_tier1(tree: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env_for(tree), capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"exit": proc.returncode, "wall_s": wall, "summary": summary}


def describe(tree: Path) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((tree / "src").rglob("*.py")))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                            text=True).stdout.strip() or None
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"],
                                cwd=tree, capture_output=True, text=True).stdout.strip())
    return {"commit": commit, "uncommitted_src_or_bench_changes": dirty,
            "src_lines": src_lines}


def median_of(runs: list, key: str):
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else None


def summarize(entry: dict) -> dict:
    """Medians over the rounds, beside the rounds themselves."""
    bench = {}
    for workload, runs in entry["bench"].items():
        ok = [r for r in runs if r["exit"] == 0]
        names = sorted({k for r in ok for k in r["metrics"]})
        bench[workload] = {
            "median": {k: statistics.median(r["metrics"][k] for r in ok if k in r["metrics"])
                       for k in names},
            "correct": bool(ok) and all(r["correct"] for r in ok) and len(ok) == len(runs),
            "runs": runs}
    presets = {}
    for name, by_workers in entry["presets"].items():
        presets[name] = {}
        for workers, runs in by_workers.items():
            refused = any(r.get("refused") for r in runs)
            presets[name][workers] = {
                "median_s": None if refused else median_of(runs, "wall_s"),
                "exit": sorted({r["exit"] for r in runs}), "refused": refused,
                "runs_s": [r.get("wall_s") for r in runs]}
    totals = {w: sum(p[w]["median_s"] for p in presets.values() if p[w]["median_s"] is not None)
              for w in ("workers_1", "workers_2")}
    machine = next((r["machine"] for runs in entry["bench"].values() for r in runs
                    if "machine" in r), {})  # versions, CPU and thread pins, as the bench read them
    tier1 = entry["tier1"]
    return {**entry["info"], "machine": machine, "bench": bench, "presets": presets,
            "presets_total_s": totals,
            "tier1": {"median_s": median_of(tier1, "wall_s"), "runs": tier1}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--tree", action="append", metavar="LABEL=PATH",
                        help="a checkout to measure (repeatable; default change=.)")
    args = parser.parse_args(argv)
    trees = {}
    for spec in args.tree or ["change=."]:
        label, sep, path = spec.partition("=")
        if not (sep and label and (Path(path) / "bench" / "run_bench.py").is_file()):
            parser.error(f"--tree {spec!r}: want LABEL=PATH of a checkout with bench/")
        trees[label] = Path(path).resolve()

    entries = {label: {"info": describe(tree), "bench": {w: [] for w in WORKLOADS},
                       "presets": {}, "tier1": []} for label, tree in trees.items()}
    for rnd in range(ROUNDS):
        order = list(trees.items())[::-1 if rnd % 2 else 1]
        for workload in WORKLOADS:
            for label, tree in order:
                result = run_bench(tree, workload)
                entries[label]["bench"][workload].append(result)
                print(f"round {rnd} {label} {workload}: "
                      f"{result.get('metrics', result.get('error'))}", flush=True)
        for label, tree in order:
            with tempfile.TemporaryDirectory() as tmp:
                for ini in sorted((tree / "acceptance").glob("*.ini")):
                    slot = entries[label]["presets"].setdefault(
                        ini.stem, {"workers_1": [], "workers_2": []})
                    for workers in (1, 2):
                        slot[f"workers_{workers}"].append(time_preset(tree, ini, workers,
                                                                      Path(tmp)))
            print(f"round {rnd} {label}: presets timed", flush=True)
        for label, tree in order:
            entries[label]["tier1"].append(time_tier1(tree))
            print(f"round {rnd} {label} tier-1: {entries[label]['tier1'][-1]}", flush=True)

    out = Path(args.out)
    snapshot = {"host": {"python": platform.python_version(), "machine": platform.machine(),
                         "nproc": os.cpu_count(), "runs": ROUNDS},
                "trees": {label: summarize(entry) for label, entry in entries.items()}}
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

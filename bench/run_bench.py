"""taperspec benchmark: replications per second end to end, per-layer spans when traced.

Run from the repository root:

    python3 bench/run_bench.py --workload functional --seed 0 --seconds 34 --trace 0

Workloads: functional, gof-composite, long-memory (see bench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Each run starts one study process (bench/worker.py) that runs seeded
studies through `harness.load_config_file` / `harness.run_experiment`,
the path of `taperspec run`, then measures set-up time in fresh
interpreters; together they take about --seconds seconds.  End-to-end
timings are reported at a reference host speed (bench/probe.py).
Every study's outputs are
checked: against each other, against the CSV rows, across worker counts
and tracing, and against bench/reference.json.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where attempted and failed count replications.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import METRIC_NAMES, layer_metrics
from workloads import (DEFAULT_SEED, REFERENCE_SEEDS, WORKLOADS, close, ini_text,
                       study_seed)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SAMPLES = 5
STUDY_SHARE = 0.75  # of --seconds spent on studies; set-up samples take the rest
MIN_ROUNDS = 3
HARD_LIMIT_S = 170.0  # the whole run, set-up samples included
SETUP_RESERVE_S = 30.0  # kept free for the set-up samples

# Workers x threads must not exceed the two cores: pin every BLAS/OpenMP pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"reps_per_s": "1/s", "reps_per_s_w2": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER_EXTRA = ("setup.import_s", "setup.config_s", "failed_frac",
                   "trace_overhead_frac")
PER_LAYER = METRIC_NAMES + PER_LAYER_EXTRA

# Time from interpreter start to a loaded config, as every CLI call pays it;
# then, untimed, the host speed right after (warm-up probe first).
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.monotonic()\n"
    "import taperspec\n"
    "t1 = time.monotonic()\n"
    "taperspec.load_config_file(sys.argv[1])\n"
    "t2 = time.monotonic()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from probe import probe_s, speed\n"
    "probe_s()\n"
    "print(t0, t1, t2, speed((probe_s(), probe_s())))\n"
)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_fit"):
        return "1/fit"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_samples(ini: Path, workdir: Path, env: dict, deadline: float) -> list:
    """(total, import, config, host speed) of fresh interpreters loading one config.

    Times are wall seconds; the host speed is measured right after.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        launched = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ini), str(BENCH_DIR)],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launched))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
        t0, t1, t2, host = (float(v) for v in proc.stdout.split())
        samples.append((t2 - launched, t1 - t0, t2 - t1, host))
    return samples


def run_worker(spec: dict, workdir: Path, env: dict, timeout: float) -> dict | None:
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = workdir / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        # Own process group, so a timeout also ends the study's pool workers.
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                                cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = "timeout"
    result_path = Path(spec["result_path"])
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        print(f"# study process failed ({code}):\n{tail}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_against_reference(workload, workload_seed: int, studies: list,
                            reference: dict) -> list:
    """Mark mismatching studies failed; return report lines.

    Below REFERENCE_SEEDS, study 0 without a reference entry fails too.
    """
    ref = reference.get(workload.name, {})
    constants = ref.get("constants", {})
    by_seed = ref.get("by_seed", {})
    compared = matched = sha_matched = 0
    for st in studies:
        if st["results"] is None:
            continue
        for key in workload.constants:
            if not close(st["results"].get(key), constants.get(key)):
                st["problems"].append(f"results[{key!r}] differs from the reference")
                st["failed_reps"] = st["reps"]
        entry = by_seed.get(str(st["seed"]))
        if entry is None and st["k"] == 0 and workload_seed < REFERENCE_SEEDS:
            entry = {"results": None, "csv_sha256": None}
        if entry is None:
            continue
        compared += 1
        if close(st["results"], entry["results"]):
            matched += 1
        else:
            st["problems"].append("results differ from the reference for this seed"
                                  if entry["results"] is not None
                                  else "no reference results for this seed")
            st["failed_reps"] = st["reps"]
        sha_matched += st["csv_sha256"] == entry["csv_sha256"]
    return [f"reference constants checked on {sum(s['results'] is not None for s in studies)} studies",
            f"reference results for this seed: {matched}/{compared} studies match; "
            f"CSV sha256 {sha_matched}/{compared} identical (recorded, not gated)"]


def check_variants_agree(studies: list) -> list:
    """Study k must give the same bytes in every variant (workers, tracing)."""
    lines = []
    by_k = {}
    for st in studies:
        by_k.setdefault(st["k"], []).append(st)
    for k, group in sorted(by_k.items()):
        keys = {(json.dumps(st["results"], sort_keys=True), st["csv_sha256"]) for st in group}
        if len(keys) > 1:
            for st in group:
                st["problems"].append(f"study {k}: outputs differ between variants")
                st["failed_reps"] = st["reps"]
            lines.append(f"study {k}: outputs differ between variants")
    if not lines:
        lines.append(f"outputs identical across variants in all {len(by_k)} rounds")
    return lines


def rates(studies: list, variant: str, at_reference: bool = True) -> list:
    """Replications per second of each study of a variant, at the reference
    host speed (bench/probe.py) or, with at_reference=False, as measured."""
    return [st["reps"] / st["wall_s"] / (st["speed"] if at_reference else 1.0)
            for st in studies if st["variant"] == variant and st["wall_s"]]


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={statistics.median(values):.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g}"


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu, "src_lines": src_lines,
            "threads": {var: "1" for var in THREAD_VARS}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="measuring time: studies, then set-up samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "taperspec" / "__init__.py").is_file():
        print(f"run_bench: no taperspec sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(args, workload, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: Path, deadline: float) -> int:
    env = child_env()
    mode = "trace" if args.trace else "e2e"
    spec = {"workload": workload.name, "seed": args.seed, "mode": mode,
            "budget_s": args.seconds * STUDY_SHARE, "min_rounds": MIN_ROUNDS,
            "result_path": str(workdir / "result.json")}
    # The study process runs first, so bytecode is compiled and the file
    # cache warm before the set-up samples; users pay neither per call.
    result = run_worker(spec, workdir, env,
                        timeout=deadline - time.monotonic() - SETUP_RESERVE_S)
    if result is None:
        return 1
    ini = workdir / "setup.ini"
    ini.write_text(ini_text(workload, study_seed(args.seed, 0), workload.reps, "setup"),
                   encoding="utf-8")
    setup = setup_samples(ini, workdir, env, deadline)

    studies = result["studies"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    check_lines = check_variants_agree(studies)
    check_lines += check_against_reference(workload, args.seed, studies, reference)
    everything = [result["warmup"]] + studies
    attempted = sum(st["reps"] for st in everything)
    failed = sum(st["failed_reps"] for st in everything)

    info = machine_info() | result["versions"]
    print(f"# workload {workload.name}  seed {args.seed}  mode {mode}  "
          f"{workload.reps} replications per study  budget {args.seconds:g} s")
    print("# machine " + json.dumps(info, sort_keys=True))
    for line in check_lines:
        print("# check: " + line)
    for st in everything:
        for problem in st["problems"] + ([st["error"]] if st["error"] else []):
            print(f"# FAIL {st['tag']}: {problem}")

    w1 = rates(studies, "w1")
    other_variant = "w2" if mode == "e2e" else "traced"
    other = rates(studies, other_variant)
    if not (w1 and other):
        print("run_bench: a variant completed no study", file=sys.stderr)
        return 1
    # Timings at the reference host speed, then as measured.
    setup_total = [s[0] * s[3] for s in setup]
    print(f"# host speed at studies: {quartiles([st['speed'] for st in studies])}")
    print(f"# host speed at set-up samples: {quartiles([s[3] for s in setup])}")
    print(f"# reps_per_s (--workers 1): {quartiles(w1)}")
    print(f"#   as measured: {quartiles(rates(studies, 'w1', at_reference=False))}")
    print(f"# reps_per_s {other_variant}: {quartiles(other)}")
    print(f"#   as measured: {quartiles(rates(studies, other_variant, at_reference=False))}")
    print(f"# setup_s: {quartiles(setup_total)}")
    print(f"#   as measured: {quartiles([s[0] for s in setup])}")
    if mode == "e2e":
        values = {"reps_per_s": statistics.median(w1),
                  "reps_per_s_w2": statistics.median(other),
                  "setup_s": statistics.median(setup_total),
                  "peak_rss_mb": result["peak_rss_mb"]}
    else:
        profiles = [st["profile"] for st in studies if st.get("profile")]
        if not profiles:
            print("run_bench: no traced study completed", file=sys.stderr)
            return 1
        values = layer_metrics(profiles)
        values["setup.import_s"] = statistics.median(s[1] * s[3] for s in setup)
        values["setup.config_s"] = statistics.median(s[2] * s[3] for s in setup)
        values["failed_frac"] = failed / attempted
        untraced = statistics.median(w1)
        values["trace_overhead_frac"] = (untraced - statistics.median(other)) / untraced
        for name in PER_LAYER:
            print(f"#   {name:40s} {values[name]:.6g} {unit_of(name)}")
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in values.items()}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

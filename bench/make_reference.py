"""Write bench/reference.json: the outputs each workload's first study must reproduce.

Usage (from the repository root, after a change that is meant to alter results):

    python3 bench/make_reference.py

For every workload and every workload seed S below REFERENCE_SEEDS
(bench/workloads.py), study 0
(master seed 1000 * S) is run once with --workers 1 and its JSON
`results` and CSV sha256 are stored.  The results keys that the workload
declares seed-independent are stored once under "constants"; they must
agree across all seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from run_bench import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

from worker import run_study  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS, close, study_seed  # noqa: E402


def main() -> int:
    workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    reference = {}
    try:
        for workload in WORKLOADS.values():
            by_seed = {}
            constants = None
            for s in range(REFERENCE_SEEDS):
                seed = study_seed(s, 0)
                st = run_study(workload, seed, workload.reps, "ref")
                if st["error"] or st["problems"]:
                    raise RuntimeError(f"{workload.name} seed {seed}: "
                                       f"{st['error'] or st['problems']}")
                found = {key: st["results"][key] for key in workload.constants}
                if constants is None:
                    constants = found
                elif not close(found, constants):
                    raise RuntimeError(f"{workload.name}: seed-dependent constants {found}")
                by_seed[str(seed)] = {"results": st["results"],
                                      "csv_sha256": st["csv_sha256"]}
                print(f"{workload.name} seed {seed} done", flush=True)
            reference[workload.name] = {"reps": workload.reps, "constants": constants,
                                        "by_seed": by_seed}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(reference, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

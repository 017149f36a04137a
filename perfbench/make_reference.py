"""Regenerate the reference CSVs the output check compares against.

    python3 perfbench/make_reference.py

Runs each distinct workload shape once at the reference seed with the
checkout's `src/` and writes `perfbench/reference/<workload>.csv`.  Only run
it when a change is meant to alter the output bytes; the references pin the
byte-identity contract.
"""

import subprocess
import sys

from run import REF_DIR, REFERENCE_SEED, ROOT, WORKLOADS, child_env


def main() -> int:
    for w in WORKLOADS.values():
        path = REF_DIR / w.reference
        if w.workers != 1:
            continue  # shares the single-worker workload's reference
        cmd = [sys.executable, "-m", "ldptune.cli",
               *w.argv(REFERENCE_SEED, path)]
        subprocess.run(cmd, env=child_env(ROOT), cwd=ROOT, check=True)
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

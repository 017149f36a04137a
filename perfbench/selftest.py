"""Self-test of the benchmark at tiny shapes.

    python3 perfbench/selftest.py

For every workload, shrunk to n = 2000 users and two budgets, it makes a
fresh reference at the reference seed and then proves that:

- an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
  each with its unit, and finds no failed point, at the reference seed and
  at another seed;
- a traced run prints exactly the per-layer metrics, each with its unit;
- the threaded workload reproduces the single-worker reference bytes;
- a deliberately altered reference row raises the error rate above 0;
- at full size, the layers' self times in a traced run cover at least 95%
  of its wall time.  (Tiny commands are too short for this: about 0.2 s of
  interpreter start and exit lies outside any layer.)

Exits 1 if any of these fails.  Takes about four minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY_N = 2000
OTHER_SEED = 11
COVERAGE = 0.95


def metric_spec(key: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[key]}


def printed(report: dict) -> dict:
    line = json.loads(run.result_line(report))
    return {k: v["unit"] for k, v in line["metrics"].items()}


def alter(path) -> None:
    """Change the last digit of the first data row's analytic ASR."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[5] = cells[5][:-1] + ("1" if cells[5][-1] != "1" else "2")
    lines[1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    work = run.OUT_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ref_dir = work / "reference"
    ref_dir.mkdir(parents=True)
    e2e, layers = metric_spec("end_to_end"), metric_spec("per_layer")
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    tiny = [replace(w, eps="2:8:6", n=TINY_N if w.runs else None)
            for w in run.WORKLOADS.values()]
    for w in sorted(tiny, key=lambda w: w.workers):
        ref = ref_dir / w.reference
        if not ref.exists():
            subprocess.run([sys.executable, "-m", "ldptune.cli",
                            *w.argv(run.REFERENCE_SEED, ref)],
                           env=run.child_env(run.ROOT), cwd=run.ROOT, check=True)

        def measure(seed, trace):
            return run.measure(w, seed, 0.0, trace, ref_dir=ref_dir,
                               out_dir=work)

        for seed in (run.REFERENCE_SEED, OTHER_SEED):
            r = measure(seed, False)
            expect(printed(r) == e2e,
                   f"{w.name} seed {seed}: end-to-end metrics and units")
            expect(r["failed"] == 0 and r["attempted"] > 0,
                   f"{w.name} seed {seed}: error_rate 0 "
                   f"({r['failed']}/{r['attempted']})")
        r = measure(run.REFERENCE_SEED, True)
        expect(printed(r) == layers, f"{w.name}: per-layer metrics and units")
        expect(r["failed"] == 0, f"{w.name}: traced output passes the check")

    for w in tiny:
        if w.workers != 1:
            continue
        saved = (ref_dir / w.reference).read_text(encoding="utf-8")
        alter(ref_dir / w.reference)
        r = run.measure(w, run.REFERENCE_SEED, 0.0, False, ref_dir=ref_dir,
                        out_dir=work)
        rate = r["info"]["error_rate"][0]
        expect(rate > 0, f"{w.name}: altered reference row gives error_rate "
                         f"{rate:.3f} > 0")
        (ref_dir / w.reference).write_text(saved, encoding="utf-8")

    for w in run.WORKLOADS.values():
        r = run.measure(w, OTHER_SEED, 0.0, True, out_dir=work)
        cover = r["metrics"]["self_time_coverage"][0]
        expect(COVERAGE <= cover <= 1.0 and r["failed"] == 0,
               f"{w.name} full size: self times cover {cover:.3f} of traced "
               f"wall time")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

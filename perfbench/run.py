"""The ldptune benchmark: the public `ldptune pareto` CLI at fixed shapes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from `src/`.
Every command runs in a fresh process with OMP/OpenBLAS/MKL limited to one
thread, so the only extra threads are the `--workers` pool.

`--trace 0` times the untraced command (`python3 -m ldptune.cli`) in as many
fresh processes as fit in S seconds (at least two), alternating with bare
`import ldptune.cli` starts, and reports the end-to-end metrics as medians.
`--trace 1` runs the command once untraced and once under `child.py`, which
wraps each layer boundary, and reports the per-layer metrics of the traced
run plus the tracing overhead.
Every command's CSV is checked against `reference/` (see check.py).  The
last line of stdout is one JSON object; a full report, with versions,
commit and spans, is written under `.perfbench_out/`.

Workloads (all: `--protocols all --k 100 --she-trials 100000`):

- mc_frontier: `--eps 2:8:6 --n 50000 --runs 2 --workers 1`.  The
  ROADMAP frontier shape, single-threaded; `simulate_run` kernels take
  about 60% of the time.  The plain single-thread baseline for kernel
  changes.
- threaded_frontier: the same with `--workers 2` (the core count of the
  2-core box it was sized on); two runs per point, so the pool has work.
  Uses the kernels concurrently, so a change that speeds one thread but
  holds the GIL or adds memory traffic shows here.  Must produce the same
  bytes as mc_frontier.
- analytic_frontier: `--eps 2:10:2`, no `--runs`.  No kernel calls:
  parameter resolution (optimizers), closed-form ASR/MSE and the SHE Monte
  Carlo ASR.  The bypass workload for kernel changes, where the prediction
  is no change, and the target workload for analytic-layer changes.  Its
  output does not depend on the seed.

Shapes are sized so that each run fits several commands (6-13 s each on a
2-core x86_64 box) into S seconds: the host's speed drifts by 10-20% over
tens of seconds, and only a longer window averages that out.

End-to-end metrics: `points_per_s` (sweep rows per wall-second of the whole
command), `setup_s` (process start until `ldptune.cli` is imported, median
of several fresh starts) and `peak_rss_mb` (the command's maximum resident
set; today the SHE Monte Carlo ASR's 1e5 x k chunk sets it on every
workload, above any kernel's allocation).  Failed points are the JSON's
`failed` out of `attempted`; their share is printed as `error_rate`.  On
the MC workloads `reports_per_s` (n x runs x points per wall-second) is
printed too; at a fixed shape it is `points_per_s` times a constant.

Which end-to-end metric each per-layer metric should move:

| per-layer metric                    | end-to-end metric, workloads          |
|-------------------------------------|---------------------------------------|
| simulate.run_ms.<family>            | points_per_s on mc/threaded; none on  |
| model.draw_ms.<family>              |   analytic_frontier                   |
| protocols.hash_ms, model.draws,     |                                       |
|   simulate.user_reports             |                                       |
| simulate.peak_alloc_mb.<family>     | peak_rss_mb on mc/threaded, once it   |
|                                     |   exceeds the SHE Monte Carlo chunk   |
| harness.thread_overlap              | points_per_s on threaded_frontier     |
| presets.resolve_ms.<name>,          | points_per_s on analytic_frontier;    |
|   optimizer.evaluations.<name>,     |   slightly on mc_frontier             |
|   attacks.she_mc_ms/_trials,        |                                       |
|   attacks.expected_asr_ms           |                                       |
| harness.dataset_ms, export_ms       | setup_s and points_per_s              |
| self_ms.<layer>                     | the layer's share of traced wall time |
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "reference"
OUT_DIR = ROOT / ".perfbench_out"

REFERENCE_SEED = 0
COMMON = ["--protocols", "all", "--k", "100", "--she-trials", "100000"]
SETUP_STARTS = 5
MIN_REPS = 2
RUN_LIMIT_S = 170.0
THREADS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    eps: str
    runs: int | None = None
    n: int | None = None
    workers: int = 1
    reference: str = ""

    def argv(self, seed: int, out: Path) -> list[str]:
        args = ["pareto", *COMMON, "--eps", self.eps, "--seed", str(seed),
                "--workers", str(self.workers), "--out", str(out)]
        if self.runs is not None:
            args += ["--n", str(self.n), "--runs", str(self.runs)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload("mc_frontier", "2:8:6", runs=2, n=50_000, workers=1,
             reference="mc_frontier.csv"),
    Workload("threaded_frontier", "2:8:6", runs=2, n=50_000, workers=2,
             reference="mc_frontier.csv"),
    Workload("analytic_frontier", "2:10:2", reference="analytic_frontier.csv"),
)}


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREADS_ENV:
        env[var] = "1"
    return env


def spawn(cmd: list[str], env: dict, deadline: float, cwd: Path,
          stderr_path: Path) -> tuple[float, int, object]:
    """Run `cmd` to completion; (wall seconds, exit code, resource usage).
    The child is killed at `deadline`."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() > deadline:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    return wall, proc.returncode, usage


def probe_setup(env: dict, deadline: float, cwd: Path) -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter until `ldptune.cli` is
    imported and ready, plus the versions that interpreter reports."""
    code = ("import ldptune, ldptune.cli, json, sys, numpy, scipy\n"
            "print(json.dumps({'ldptune_file': ldptune.__file__, "
            "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__}), flush=True)\n")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("setup probe timed out") from None
    if proc.returncode != 0 or not line:
        raise BenchError(f"cannot import ldptune from src/: {err.strip()[-400:]}")
    return ready, json.loads(line)


def warm_up(env: dict, deadline: float, root: Path) -> dict:
    """One untimed start, which also compiles the bytecode; checks that the
    package comes from this checkout and returns the reported versions."""
    _, versions = probe_setup(env, deadline, root)
    if not Path(versions["ldptune_file"]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"ldptune imported from {versions['ldptune_file']}, "
                         f"not from {root / 'src'}")
    return versions


def environment(root: Path, versions: dict) -> dict:
    """nproc, versions, commit and package size for the report."""
    src = sorted((root / "src" / "ldptune").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": versions["python"], "numpy": versions["numpy"],
            "scipy": versions["scipy"], "commit": git_commit(root),
            "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git (the checkout is
    usually not a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs one workload's commands in fresh processes and checks them."""

    def __init__(self, workload: Workload, seed: int, root: Path,
                 ref_dir: Path, out_dir: Path, deadline: float):
        self.w, self.seed, self.root = workload, seed, root
        self.reference = (ref_dir / workload.reference).read_text(encoding="utf-8")
        self.points = len(check.read_csv(self.reference)[1])
        self.out_dir, self.deadline = out_dir, deadline
        self.env = child_env(root)
        self.attempted = self.failed = 0
        self.reps = []
        self.setups = []

    def command(self, traced: bool) -> dict:
        i = len(self.reps)
        tag = f"{self.w.name}-s{self.seed}-{i}"
        out = self.out_dir / f"{tag}.csv"
        argv = self.w.argv(self.seed, out)
        if traced:
            spans = self.out_dir / f"{tag}.spans.json"
            cmd = [sys.executable, str(HERE / "child.py"), str(spans), tag, "--",
                   *argv]
        else:
            cmd = [sys.executable, "-m", "ldptune.cli", *argv]
        out.unlink(missing_ok=True)
        wall, code, usage = spawn(cmd, self.env, self.deadline, self.root,
                                  self.out_dir / f"{tag}.stderr")
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        attempted, failed = check.check_output(code, text, self.reference,
                                               self.seed, REFERENCE_SEED,
                                               self.w.runs, self.w.n)
        self.attempted += attempted
        self.failed += failed
        rep = {"traced": traced, "wall_s": wall, "exit": code,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "attempted": attempted, "failed": failed}
        if traced and code == 0:
            rep["trace"] = json.loads(spans.read_text(encoding="utf-8"))
        self.reps.append(rep)
        return rep


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Alternate setup probes and untraced commands for `seconds` (at least
    MIN_REPS commands and SETUP_STARTS probes); medians of each."""
    start = time.perf_counter()
    walls = []
    while True:
        runner.setups.append(probe_setup(runner.env, runner.deadline,
                                         runner.root)[0])
        walls.append(runner.command(traced=False)["wall_s"])
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
        if time.perf_counter() + 1.5 * max(walls) > runner.deadline:
            break
    while len(runner.setups) < SETUP_STARTS:
        runner.setups.append(probe_setup(runner.env, runner.deadline,
                                         runner.root)[0])
    return {
        "points_per_s": (runner.points / statistics.median(walls), "1/s"),
        "setup_s": (statistics.median(runner.setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runner.reps),
                        "MB"),
    }


def per_layer(runner: Runner) -> dict:
    """One untraced and one traced command; the traced one's layer metrics
    and the tracing overhead against the untraced one."""
    plain = runner.command(traced=False)
    traced = runner.command(traced=True)
    if "trace" not in traced:
        raise BenchError("traced command failed; see .perfbench_out/*.stderr")
    metrics = tracer.summarize(traced["trace"], traced["wall_s"])
    metrics["trace_overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0,
                                      "ratio")
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path = ROOT, ref_dir: Path = REF_DIR,
            out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the full report."""
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    if not (root / "src" / "ldptune" / "cli.py").is_file():
        raise BenchError(f"no ldptune sources under {root / 'src'}")
    out_dir.mkdir(exist_ok=True)
    runner = Runner(workload, seed, root, ref_dir, out_dir, deadline)
    versions = warm_up(runner.env, deadline, root)
    env = environment(root, versions)
    if trace:
        metrics = per_layer(runner)
    else:
        metrics = end_to_end(runner, seconds)
    walls = [r["wall_s"] for r in runner.reps if not r["traced"]]
    info = {"error_rate": (runner.failed / runner.attempted, "ratio"),
            "command_wall_s": (statistics.median(walls), "s"),
            "src_lines": (env.pop("src_lines"), "count")}
    if workload.runs is not None:
        reports = workload.n * workload.runs * runner.points
        info["reports_per_s"] = (reports / statistics.median(walls), "1/s")
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "argv": workload.argv(seed, Path("OUT.csv")),
            "environment": env, "setup_starts_s": runner.setups,
            "reps": runner.reps,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": metrics, "info": info,
            "total_s": time.perf_counter() - t_start}


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in report["metrics"].items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    try:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])}"
          f" reps={len(report['reps'])} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**report["info"], **report["metrics"]}.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    path = OUT_DIR / f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer, `perfbench/tracer.py` as the benchmark ships it,
on a tiny traced `pareto`: the layer seams it wraps still exist, every draw
is made inside a `simulate_run` call, and each run draws once per stream
for each (family, k) group."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402

K, N = 10, 400


def _ancestors(span, by_id):
    while span["parent"] is not None:
        span = by_id[span["parent"]]
        yield span


def test_traced_pareto_summarizes(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = ["pareto", "--protocols", "all", "--eps", "2:8:6", "--k", str(K),
            "--n", str(N), "--runs", "1", "--she-trials", "1000"]
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                        str(spans_path), "seam", "--", *argv],
                       capture_output=True, text=True, env=env, timeout=300)
    wall = time.perf_counter() - t0
    assert r.returncode == 0, r.stderr
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    metrics = tracer.summarize(trace, wall)

    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    draws = [s for s in spans if s["layer"] == "model"
             or s["name"] == "protocols.hash_buckets"]
    assert draws
    for s in draws:
        assert any(a["name"] == "simulate.simulate_run"
                   for a in _ancestors(s, by_id)), s
    # one simulate_run per family, all 24 points of the run in six groups
    sims = [s for s in spans if s["name"] == "simulate.simulate_run"]
    assert sorted(s["family"] for s in sims) == sorted(tracer.FAMILIES)
    # per user: grr 1, ss k + 1, ue k + 1, lh 3, she k, the k + 1
    assert metrics["model.draws"] == ((4 * K + 7) * N, "count")
    assert metrics["simulate.user_reports"] == (6 * N, "count")

"""Span recorder for traced benchmark runs, and the per-layer summary.

The recorder wraps `ldptune`'s public functions at the module attribute the
layer above looks them up through, so a span opens where one layer calls
into the next.  Nothing in the package changes.  Spans stay in memory and
are written out once, when the command ends.

A span is (name, layer, start, end, parent, run id) plus a few attributes
(family, protocol name, counts).  Timestamps are `time.perf_counter()`, which
is CLOCK_MONOTONIC on Linux and so comparable with the parent process that
spawned the command.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
import tracemalloc

LAYERS = ("setup", "cli", "harness", "presets", "optimizer", "attacks",
          "protocols", "simulate", "model")
FAMILIES = ("grr", "ss", "ue", "lh", "she", "the")
ADAPTIVE = ("the", "ass", "aue", "alh", "athe")
_DRAWS = ("stream_seeds", "draws_u64", "draws_uniform", "draws_laplace")


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        # tracemalloc gate: the first simulate_run of each family runs alone
        self._gate = threading.Condition()
        self._measuring = False
        self._busy = 0
        self._peak_mb = {}

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, layer: str, **attrs) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif self._main_stack:
            # a pool thread's first span belongs to whatever the main thread
            # is waiting in (run_experiment)
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        with self._lock:
            span = {"id": len(self.spans), "name": name, "layer": layer,
                    "parent": parent, "run": self.run_id,
                    "thread": threading.get_ident(), "start": 0.0, "end": None,
                    **attrs}
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, module, attr: str, layer: str, label=None, after=None):
        """Replace `module.attr` by a wrapper that records one span per call.

        `label(args, kwargs)` returns extra span attributes from the call;
        `after(span, result)` adds attributes from the result.
        """
        fn = getattr(module, attr)
        name = f"{layer}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = label(args, kwargs) if label else {}
            span = self.open(name, layer, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                after(span, result)
            return result

        setattr(module, attr, traced)

    def _simulate_run(self, fn):
        """simulate_run wrapper: a span per call, and the tracemalloc peak of
        the first call of each family, taken while no other call runs."""

        @functools.wraps(fn)
        def traced(cfg, x0, master_seed, run):
            fam = cfg.family.value
            with self._gate:
                measure = fam not in self._peak_mb
                if measure:
                    self._peak_mb[fam] = 0.0
                while self._measuring or (measure and self._busy):
                    self._gate.wait()
                if measure:
                    self._measuring = True
                else:
                    self._busy += 1
            try:
                if measure:
                    tracemalloc.start()
                span = self.open("simulate.simulate_run", "simulate",
                                 family=fam, users=len(x0))
                try:
                    return fn(cfg, x0, master_seed, run)
                finally:
                    self.close(span)
                    if measure:
                        self._peak_mb[fam] = (tracemalloc.get_traced_memory()[1]
                                              / 2 ** 20)
                        tracemalloc.stop()
            finally:
                with self._gate:
                    if measure:
                        self._measuring = False
                    else:
                        self._busy -= 1
                    self._gate.notify_all()

        return traced

    def install(self, ldptune) -> None:
        """Wrap every layer boundary the `pareto` command crosses."""
        cli, harness = ldptune.cli, ldptune.harness
        presets, simulate = ldptune.presets, ldptune.simulate

        def size(span, result):
            span["count"] = int(result.size)

        def resolved(span, rp):
            if rp.optimization is not None:
                span["evaluations"] = rp.optimization.evaluations

        def trials(span, result):
            span["trials"] = result.n

        self.wrap(cli, "main", "cli")
        self.wrap(cli, "pareto_sweep", "harness")
        self.wrap(cli, "export", "harness")
        self.wrap(harness, "parse_data_spec", "harness")
        self.wrap(harness, "run_experiment", "harness")
        self.wrap(harness, "resolve_protocol", "presets",
                  label=lambda a, kw: {"protocol": a[0]}, after=resolved)
        self.wrap(harness, "expected_asr", "attacks")
        self.wrap(harness, "expected_asr_she_mc", "attacks", after=trials)
        self.wrap(harness, "analytic_mse", "protocols")
        for attr in ("optimize_ass", "optimize_aue", "optimize_alh",
                     "optimize_athe"):
            self.wrap(presets, attr, "optimizer")
        harness.simulate_run = self._simulate_run(harness.simulate_run)
        for attr in _DRAWS:
            self.wrap(simulate, attr, "model", after=size)
        self.wrap(simulate, "hash_buckets", "protocols")
        self.wrap(simulate, "estimate_from_counts", "protocols")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "peak_alloc_mb": self._peak_mb}, fh)


# -- summary ------------------------------------------------------------------

def self_times(spans) -> dict:
    """Wall-clock self time of each span id, in seconds.

    Each instant is shared equally among the innermost open spans: the ones
    with no open child.  A parent waiting on pool threads is not innermost
    while a child runs, and two concurrent children split the instant, so
    the self times sum to the time covered by any span, with no instant
    counted twice.
    """
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    by_id = {s["id"]: s for s in spans}
    open_children = {}
    active = set()
    out = {s["id"]: 0.0 for s in spans}
    prev = None
    for t, kind, sid in events:
        if prev is not None and active and t > prev:
            inner = [a for a in active if not open_children.get(a)]
            share = (t - prev) / len(inner)
            for a in inner:
                out[a] += share
        prev = t
        parent = by_id[sid]["parent"]
        if kind == 1:
            active.add(sid)
            if parent is not None:
                open_children[parent] = open_children.get(parent, 0) + 1
        else:
            active.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
    return out


def _mean_ms(values) -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def summarize(trace: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced command, as {name: (value, unit)}.

    `wall_s` is the command's wall time as its parent measured it, from
    spawn to exit.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    sims = [s for s in spans if s["name"] == "simulate.simulate_run"]

    def nearest_sim(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "simulate.simulate_run":
                return s
        return None

    draw_s = {s["id"]: 0.0 for s in sims}
    hash_s = {s["id"]: 0.0 for s in sims}
    draws = 0
    for s in spans:
        if s["layer"] == "model" and s["name"].split(".")[1] in _DRAWS:
            draw_s[nearest_sim(s)["id"]] += dur[s["id"]]
            draws += s["count"] if "draws_" in s["name"] else 0
        elif s["name"] == "protocols.hash_buckets":
            hash_s[nearest_sim(s)["id"]] += dur[s["id"]]

    m = {}
    for fam in FAMILIES:
        mine = [s["id"] for s in sims if s["family"] == fam]
        m[f"simulate.run_ms.{fam}"] = (_median_ms([dur[i] for i in mine]), "ms")
        m[f"model.draw_ms.{fam}"] = (_median_ms([draw_s[i] for i in mine]), "ms")
    lh = [hash_s[s["id"]] for s in sims if s["family"] == "lh"]
    m["protocols.hash_ms"] = (_median_ms(lh), "ms")
    m["model.draws"] = (draws, "count")
    m["simulate.user_reports"] = (sum(s["users"] for s in sims), "count")
    for fam in FAMILIES:
        m[f"simulate.peak_alloc_mb.{fam}"] = (
            trace["peak_alloc_mb"].get(fam, 0.0), "MB")
    busy = sum(dur[s["id"]] for s in sims)
    exp_wall = sum(dur[s["id"]] for s in spans
                   if s["name"] == "harness.run_experiment")
    m["harness.thread_overlap"] = (busy / exp_wall if exp_wall else 0.0, "ratio")

    resolves = [s for s in spans if s["name"] == "presets.resolve_protocol"]
    for name in ADAPTIVE:
        mine = [s for s in resolves if s["protocol"] == name]
        m[f"presets.resolve_ms.{name}"] = (
            _mean_ms([dur[s["id"]] for s in mine]), "ms")
        m[f"optimizer.evaluations.{name}"] = (
            sum(s.get("evaluations", 0) for s in mine), "count")

    def calls(name):
        return [s for s in spans if s["name"] == name]

    she = calls("attacks.expected_asr_she_mc")
    m["attacks.she_mc_ms"] = (_mean_ms([dur[s["id"]] for s in she]), "ms")
    m["attacks.she_mc_trials"] = (sum(s["trials"] for s in she), "count")
    m["attacks.expected_asr_ms"] = (
        _mean_ms([dur[s["id"]] for s in calls("attacks.expected_asr")]), "ms")
    m["harness.dataset_ms"] = (
        _mean_ms([dur[s["id"]] for s in calls("harness.parse_data_spec")]), "ms")
    m["harness.export_ms"] = (
        _mean_ms([dur[s["id"]] for s in calls("harness.export")]), "ms")

    own = self_times(spans)
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        per_layer[s["layer"]] += own[s["id"]]
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = (1e3 * per_layer[layer], "ms")
    m["self_time_coverage"] = (sum(per_layer.values()) / wall_s, "ratio")
    return m

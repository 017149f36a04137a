"""Datasets, end-to-end seeded experiments, Pareto sweeps, and export.

A Dataset is a fixed list of 1-based category values; experiments share it
across runs so only protocol noise varies.  `_dataset_at` is the one place
an experiment's data (a Dataset or a spec for `parse_data_spec`) becomes the
users of a run at domain size k.  `run_experiment(protocol, experiment)`
executes (perturb -> estimate -> attack) per run through the vectorized
kernels; `pareto_sweep` walks a (protocol, eps, k) grid, resolving parameters
and attaching analytic and (optionally) empirical columns; `export` writes
the rows as CSV or JSON with full float64 round-trip precision.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .model import (DataError, ProtocolConfig, RangeError, check_count,
                    check_k, check_seed, derive_stream, is_int)
from .attacks import DEFAULT_SHE_TRIALS, expected_asr, expected_asr_she_mc
from .optimizer import ObjectiveWeights
from .presets import ResolvedProtocol, resolve_protocol
from .protocols import PAIRS, analytic_mse
from .simulate import RunGroup, simulate_run

# run-index namespace reserved for dataset generation, disjoint from
# experiment run indices (which are < 2^32)
_DATA_RUN_TAG = 1 << 32

# most points a lo:hi:step grid may hold
MAX_GRID_POINTS = 10 ** 6


class MissingColumn(DataError):
    def __init__(self, column, available):
        self.column = column
        self.available = available
        super().__init__(f"column {column!r} not in header {available}")

    def __reduce__(self):
        return type(self), (self.column, self.available)


class UnparsableRow(DataError):
    def __init__(self, line, detail):
        self.line = line
        self.detail = detail
        super().__init__(f"line {line}: {detail}")

    def __reduce__(self):
        return type(self), (self.line, self.detail)


class EmptyAfterFiltering(DataError):
    pass


class DataMismatch(DataError):
    """Dataset shape conflicts with the experiment's (k, n)."""


class WorkerLost(RuntimeError):
    """A worker process of a sweep ended before returning its runs, as when
    the system kills it for memory; the CLI exits 1 on it."""


@dataclass(frozen=True)
class DirichletProvenance:
    seed: int


@dataclass(frozen=True)
class CsvProvenance:
    path: str
    column: str


@dataclass(frozen=True)
class Dataset:
    """Fixed user values (1-based categories), their domain size, and where
    they came from; `base_frequencies` holds the drawn frequency vector for
    synthetic data, `rejected` the filtered-row count for CSV data.  The
    values must form a non-empty 1-D integer array in [1, k] (DataError)."""

    values: np.ndarray
    k: int
    provenance: object
    rejected: int = 0
    base_frequencies: np.ndarray | None = None

    def __post_init__(self):
        check_count("k", self.k)
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or not v.size:
            raise DataError(f"dataset values must be a non-empty 1-D array, "
                            f"got shape {v.shape}")
        bad = v[(v < 1) | (v > self.k)] if v.dtype.kind in "iu" else v
        if bad.size:
            raise DataError(f"dataset values must be integers in "
                            f"[1, {self.k}], got {bad[0].item()!r}")

    def frequencies(self) -> np.ndarray:
        """Empirical category frequencies, the ground truth for MSE."""
        counts = np.bincount(self.values - 1, minlength=self.k)
        return counts / len(self.values)


def gen_dirichlet(k: int, n: int, seed: int) -> Dataset:
    """Draw one flat-Dirichlet frequency vector (normalized independent unit
    exponentials), then sample n categories i.i.d. from it."""
    check_count("k", k)
    check_count("n", n)
    seed = check_seed(seed)
    rng = derive_stream(seed, _DATA_RUN_TAG, 0)
    expo = -np.log1p(-rng.uniforms(k))
    f = expo / expo.sum()
    cdf = np.cumsum(f)
    draws = np.searchsorted(cdf, rng.uniforms(n), side="right")
    values = np.clip(draws, 0, k - 1).astype(np.int64) + 1
    return Dataset(values, k, DirichletProvenance(seed), base_frequencies=f)


def _rows(reader, path: str):
    """The rows of a csv `reader` over `path`; a cell past the csv module's
    field limit, or bytes that are not UTF-8, raise UnparsableRow at the
    line the reader reached."""
    try:
        yield from reader
    except (csv.Error, UnicodeDecodeError) as exc:
        raise UnparsableRow(reader.line_num, f"cannot read {path}: {exc}") from None


def load_csv_column(path: str, column: str, domain=None) -> Dataset:
    """Read one column of the CSV file named by `path` as a dataset.

    With domain (lo, hi), a tuple or list of two integers lo <= hi (else
    RangeError), integer values v in [lo, hi] map to categories v-lo+1 with
    k = hi-lo+1, and out-of-range rows are dropped with a count;
    without it, distinct values map to their sorted index.  Empty cells are
    dropped (counted) either way.
    """
    if not isinstance(path, (str, os.PathLike)):  # not a file descriptor
        raise RangeError("path", "a str or os.PathLike", path)
    if domain is not None:
        if not (isinstance(domain, (tuple, list)) and len(domain) == 2
                and all(map(is_int, domain))):
            raise RangeError("data range", "two integers (lo, hi)", domain)
        lo, hi = map(int, domain)
        if hi < lo:
            raise RangeError("data range", "lo <= hi", domain)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = _rows(reader, path)
        try:
            header = next(rows)
        except StopIteration:
            raise EmptyAfterFiltering(f"{path} is empty") from None
        if column not in header:
            raise MissingColumn(column, header)
        idx = header.index(column)

        raw = []
        rejected = 0
        for row in rows:
            line = reader.line_num
            if not row:
                rejected += 1
                continue
            if idx >= len(row):
                raise UnparsableRow(line, f"no cell for column {column!r}")
            cell = row[idx].strip()
            if cell == "":
                rejected += 1
                continue
            if domain is not None:
                try:
                    v = int(cell)
                except ValueError:
                    raise UnparsableRow(line, f"not an integer: {cell!r}") from None
                if lo <= v <= hi:
                    raw.append(v - lo + 1)
                else:
                    rejected += 1
            else:
                raw.append(cell)

    if not raw:
        raise EmptyAfterFiltering(f"no usable rows in column {column!r}")
    if domain is not None:
        values = np.asarray(raw, dtype=np.int64)
        k = hi - lo + 1
    else:
        distinct = sorted(set(raw))
        index = {v: i + 1 for i, v in enumerate(distinct)}
        values = np.asarray([index[v] for v in raw], dtype=np.int64)
        k = len(distinct)
    return Dataset(values, k, CsvProvenance(path, column), rejected=rejected)


def parse_data_spec(spec: str, k: int, n, seed: int) -> Dataset:
    """Materialize a CLI data spec: "dirichlet" or "csv:<path>:<column>"
    with an optional ":<lo>-<hi>" range suffix."""
    if spec == "dirichlet":
        if n is None:
            raise RangeError("n", "given for dirichlet data", n)
        return gen_dirichlet(k, n, seed)
    if isinstance(spec, str) and spec.startswith("csv:"):
        parts = spec.split(":")
        if len(parts) == 3:
            return load_csv_column(parts[1], parts[2])
        if len(parts) == 4 and "-" in parts[3]:
            lo, _, hi = parts[3].partition("-")
            try:
                domain = int(lo), int(hi)
            except ValueError:
                raise RangeError("data", "csv:<path>:<column>[:<lo>-<hi>]",
                                 spec) from None
            return load_csv_column(parts[1], parts[2], domain)
    raise RangeError("data", "dirichlet or csv:<path>:<column>[:<lo>-<hi>]", spec)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation request: user count (None for the whole dataset), run
    count, master seed, and the data source (Dataset or CLI-style spec)."""

    n: int | None
    runs: int
    master_seed: int
    data: object = "dirichlet"

    def __post_init__(self):
        check_count("runs", self.runs)
        if self.n is not None and not (is_int(self.n) and self.n >= 1):
            raise RangeError("n", "an integer >= 1 (or None for CSV length)", self.n)
        object.__setattr__(self, "master_seed", check_seed(self.master_seed))
        if not isinstance(self.data, (Dataset, str)):
            raise RangeError("data", "a Dataset or a data spec", self.data)


@dataclass(frozen=True)
class RunStats:
    """One run's outcome: attack success fraction, mean squared estimation
    error against the dataset's empirical frequencies, and the estimate."""

    empirical_asr: float
    empirical_mse: float
    f_hat: np.ndarray


def _dataset_at(experiment: ExperimentConfig, k: int) -> Dataset:
    """The users each run of `experiment` takes at domain size k: its data
    as a Dataset, cut to its first n values (all of them when n is None)."""
    ds = experiment.data
    if not isinstance(ds, Dataset):
        ds = parse_data_spec(ds, k, experiment.n, experiment.master_seed)
    if ds.k != k:
        raise DataMismatch(f"dataset has k={ds.k}, protocol expects k={k}")
    n = len(ds.values) if experiment.n is None else experiment.n
    if n > len(ds.values):
        raise DataMismatch(f"n={n} exceeds dataset size {len(ds.values)}")
    return replace(ds, values=ds.values[:n])


def _one_run(task) -> dict:
    """The RunStats of one run, `task` = (groups, users, seed, run), as
    {config: RunStats} over every config of every group; `users` maps each
    k to its 0-based values and their empirical frequencies."""
    groups, users, seed, run = task
    out = {}
    for group in groups:
        x0, f_true = users[group.k]
        results = simulate_run(group, x0, seed, run)
        for cfg, (f_hat, successes) in zip(group.configs, results):
            mse = float(np.mean((f_hat - f_true) ** 2))
            out[cfg] = RunStats(successes / x0.size, mse, f_hat)
    return out


def _process_pool(processes: int):
    """A pool of `processes` forked worker processes.  Its modules are
    imported here, so a serial sweep never loads them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(processes,
                               mp_context=multiprocessing.get_context("fork"))


def _simulate(configs, data: dict, experiment: ExperimentConfig,
              workers: int) -> dict:
    """The RunStats of every run of each config, as {config: [RunStats per
    run, in run order]}.  `data` maps each config's k to its users
    (`_dataset_at`); `experiment` gives the run count and master seed.
    Each run simulates the configs of one family and one k as one RunGroup,
    over one set of draws.  The runs are mapped over
    min(workers, runs, CPUs) forked processes, or in this process when that
    is 1 or the platform cannot fork; the streams are counter-based, so the
    results do not depend on which."""
    groups = {}
    for cfg in configs:
        groups.setdefault((cfg.family, cfg.k), {})[cfg] = None
    groups = [RunGroup(tuple(g)) for g in groups.values()]
    users = {k: (ds.values - 1, ds.frequencies()) for k, ds in data.items()}
    runs = experiment.runs
    tasks = [(groups, users, experiment.master_seed, run) for run in range(runs)]
    processes = min(workers, runs, os.cpu_count() or 1)
    if processes > 1 and hasattr(os, "fork"):
        from concurrent.futures import BrokenExecutor
        try:
            with _process_pool(processes) as ex:
                per_run = list(ex.map(_one_run, tasks))
        except BrokenExecutor:
            raise WorkerLost("a worker process ended before returning its "
                             "runs (killed, as for memory)") from None
    else:
        per_run = [_one_run(t) for t in tasks]
    return {cfg: [r[cfg] for r in per_run] for cfg in per_run[0]}


def run_experiment(protocol, experiment: ExperimentConfig, workers: int = 1):
    """Simulate `experiment.runs` independent runs of `protocol` (a
    ProtocolConfig or a ResolvedProtocol); returns a list of RunStats in run
    order, bitwise deterministic for a fixed master_seed regardless of
    `workers`."""
    if isinstance(protocol, ResolvedProtocol):
        protocol = protocol.config
    elif not isinstance(protocol, ProtocolConfig):
        raise RangeError("protocol", "ProtocolConfig or ResolvedProtocol",
                         protocol)
    if not isinstance(experiment, ExperimentConfig):
        raise RangeError("experiment", "an ExperimentConfig", experiment)
    check_count("workers", workers)
    data = {protocol.k: _dataset_at(experiment, protocol.k)}
    return _simulate([protocol], data, experiment, workers)[protocol]


@dataclass(frozen=True)
class ParetoRow:
    """One sweep point; its fields, in order, are the export's 13 columns.
    The empirical fields default to None, as on analytic-only rows.  For SHE
    rows the analytic ASR is a Monte Carlo estimate, and on analytic-only
    rows its stderr is carried in empirical_asr_stderr."""

    protocol: str
    eps: float
    k: int
    param: str
    param_value: object
    analytic_asr: float
    analytic_mse: float
    empirical_asr: float | None = None
    empirical_asr_stderr: float | None = None
    empirical_mse: float | None = None
    n: int | None = None
    runs: int | None = None
    seed: int | None = None


CSV_HEADER = tuple(f.name for f in fields(ParetoRow))


def pareto_sweep(protocols, eps_grid, k_grid, weights: ObjectiveWeights,
                 experiment: ExperimentConfig | None = None, workers: int = 1,
                 she_trials: int = DEFAULT_SHE_TRIALS, param=None):
    """Resolve every (protocol, eps, k) point and compute its columns.  The
    three grids may be any iterables; each is read once, before any point.

    State-of-the-art names use their fixed parameter rules; adaptive names
    optimize under `weights`.  With an `experiment`, each point also runs the
    Monte Carlo pipeline and attaches empirical columns; its data is resolved
    once per k, at that k's first point, and its n/runs/master_seed apply to
    every point.  `param` pins the free parameter of every point
    (single-protocol sweeps only).  `workers` is checked even without an
    experiment.

    It works in three stages: every point's config and analytic row, in row
    order (so the first bad point raises, before any run); then every run of
    every point, the points of one family and one k simulated together
    (`_simulate`); then each row's empirical columns.
    """
    check_count("she-trials", she_trials)
    check_count("workers", workers)
    if not (experiment is None or isinstance(experiment, ExperimentConfig)):
        raise RangeError("experiment", "an ExperimentConfig or None",
                         experiment)
    ks = [int(check_k(k)) for k in k_grid]
    points = []
    data = {}
    for name, k, eps in itertools.product(protocols, ks, eps_grid):
        rp = resolve_protocol(name, eps, k, weights, param=param)
        if rp.config.family in PAIRS:
            a_asr, stderr = expected_asr(rp.config), None
        else:
            mc = expected_asr_she_mc(eps, k, she_trials)
            a_asr, stderr = mc.asr, mc.stderr
        if experiment is not None and k not in data:
            data[k] = _dataset_at(experiment, k)
        n = len(data[k].values) if k in data else None
        a_mse = analytic_mse(rp.config, n or 1)
        points.append((rp.config, ParetoRow(
            rp.name, float(eps), k, rp.param_name, rp.param_value,
            float(a_asr), float(a_mse), empirical_asr_stderr=stderr, n=n)))

    if not data:  # no experiment, or no point
        return [row for _, row in points]
    empirical = _simulate([cfg for cfg, _ in points], data, experiment,
                          workers)
    rows = []
    for cfg, row in points:
        stats = empirical[cfg]
        easr = float(np.mean([s.empirical_asr for s in stats]))
        stderr = math.sqrt(easr * (1 - easr) / (row.n * experiment.runs))
        rows.append(replace(
            row, empirical_asr=easr, empirical_asr_stderr=stderr,
            empirical_mse=float(np.mean([s.empirical_mse for s in stats])),
            runs=experiment.runs, seed=experiment.master_seed))
    return rows


# -- export -------------------------------------------------------------------

def _fmt(v):
    """A CSV cell: a real to 17 significant digits; the csv module writes
    None as an empty cell and anything else, numpy scalars too, as its str."""
    return format(v, ".17g") if isinstance(v, float) else v


def export(rows, format: str, dest) -> None:
    """Write rows as CSV (exact 13-column header, 17-significant-digit reals,
    empty cells for missing values) or JSON (same keys, null for missing).
    A numpy int or float64 is written as the Python value it holds.

    `dest` is a path, written as UTF-8 with LF line endings, or an open text
    stream such as sys.stdout.
    """
    if format not in ("csv", "json"):
        raise RangeError("format", "csv or json", format)
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            export(rows, format, fh)
    elif not hasattr(dest, "write"):
        raise TypeError(f"dest must be a path or a text stream, got {dest!r}")
    elif format == "csv":
        w = csv.writer(dest, lineterminator="\n")
        w.writerow(CSV_HEADER)
        w.writerows(map(_fmt, astuple(row)) for row in rows)
    else:
        json.dump([asdict(row) for row in rows], dest, indent=1,
                  default=np.generic.item)
        dest.write("\n")


def parse_grid(spec: str, integer: bool = False):
    """Parse "v" or "lo:hi:step" (inclusive of hi when it lands on the grid,
    with 1e-9 slack, and of at most MAX_GRID_POINTS points) into a list of
    floats or ints."""
    parts = str(spec).split(":")
    if len(parts) not in (1, 3):
        raise RangeError("grid", "v or lo:hi:step", spec)
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise RangeError("grid", "numeric v or lo:hi:step", spec) from None
    if not all(map(math.isfinite, vals)):
        raise RangeError("grid", "finite v or lo:hi:step", spec)
    if len(vals) == 3:
        lo, hi, step = vals
        if step <= 0:
            raise RangeError("grid step", "> 0", step)
        if hi < lo:
            raise RangeError("grid", "hi >= lo", spec)
        # the point count is bounded before any list is built; an infinite
        # or NaN ratio fails the comparison too
        span = (hi - lo) / step + 1e-9
        if not span < MAX_GRID_POINTS:
            raise RangeError("grid", f"at most {MAX_GRID_POINTS} points", spec)
        count = int(math.floor(span)) + 1
        vals = [lo + i * step for i in range(count)]
    if integer:
        out = []
        for v in vals:
            if abs(v - round(v)) > 1e-9:
                raise RangeError("grid value", "an integer", v)
            out.append(int(round(v)))
        return out
    return vals

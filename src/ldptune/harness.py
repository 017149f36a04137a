"""Datasets, end-to-end seeded experiments, Pareto sweeps, and export.

A Dataset is a fixed list of 1-based category values; experiments share it
across runs so only protocol noise varies.  `_experiment_at` is the one place
an experiment's data (a Dataset or a spec for `parse_data_spec`) becomes the
users of a run at domain size k.  `run_experiment(protocol, experiment)`
executes (perturb -> estimate -> attack) per run through the vectorized
kernels; `pareto_sweep` walks a (protocol, eps, k) grid, resolving parameters
and attaching analytic and (optionally) empirical columns; `export` writes
the rows as CSV or JSON with full float64 round-trip precision.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .model import (MASK64, DataError, Family, ProtocolConfig, RangeError,
                    derive_stream)
from .attacks import DEFAULT_ORACLE_SEED, expected_asr, expected_asr_she_mc
from .optimizer import ObjectiveWeights
from .presets import ResolvedProtocol, resolve_protocol
from .protocols import analytic_mse
from .simulate import simulate_run

# run-index namespace reserved for dataset generation, disjoint from
# experiment run indices (which are < 2^32)
_DATA_RUN_TAG = 1 << 32

# most points a lo:hi:step grid may hold
MAX_GRID_POINTS = 10 ** 6

CSV_HEADER = ("protocol", "eps", "k", "param", "param_value", "analytic_asr",
              "analytic_mse", "empirical_asr", "empirical_asr_stderr",
              "empirical_mse", "n", "runs", "seed")


class MissingColumn(DataError):
    def __init__(self, column, available):
        self.column = column
        self.available = available
        super().__init__(f"column {column!r} not in header {available}")


class UnparsableRow(DataError):
    def __init__(self, line, detail):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class EmptyAfterFiltering(DataError):
    pass


class DataMismatch(DataError):
    """Dataset shape conflicts with the experiment's (k, n)."""


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
    synthetic data, `rejected` the filtered-row count for CSV data."""

    values: np.ndarray
    k: int
    provenance: object
    rejected: int = 0
    base_frequencies: np.ndarray | None = None

    def frequencies(self) -> np.ndarray:
        """Empirical category frequencies, the ground truth for MSE."""
        counts = np.bincount(self.values - 1, minlength=self.k)
        return counts / len(self.values)


def gen_dirichlet(k: int, n: int, seed: int) -> Dataset:
    """Draw one flat-Dirichlet frequency vector (normalized independent unit
    exponentials), then sample n categories i.i.d. from it."""
    if k < 1:
        raise RangeError("k", "an integer >= 1", k)
    if n < 1:
        raise RangeError("n", "an integer >= 1", n)
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
    """Read one column of a CSV file as a dataset.

    With domain (lo, hi), integer values v in [lo, hi] map to categories
    v-lo+1 with k = hi-lo+1, and out-of-range rows are dropped with a count;
    without it, distinct values map to their sorted index.  Empty cells are
    dropped (counted) either way.
    """
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
        if domain is not None:
            lo, hi = domain
            if hi < lo:
                raise RangeError("data range", "lo <= hi", domain)
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
    if spec.startswith("csv:"):
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
        if self.runs < 1:
            raise RangeError("runs", "an integer >= 1", self.runs)
        if self.n is not None and self.n < 1:
            raise RangeError("n", "an integer >= 1 (or None for CSV length)", self.n)
        # streams take the seed mod 2^64, so a seed outside would alias one inside
        if not 0 <= self.master_seed <= MASK64:
            raise RangeError("seed", "an integer in [0, 2^64)", self.master_seed)


@dataclass(frozen=True)
class RunStats:
    """One run's outcome: attack success fraction, mean squared estimation
    error against the dataset's empirical frequencies, and the estimate."""

    empirical_asr: float
    empirical_mse: float
    f_hat: np.ndarray


def _experiment_at(experiment: ExperimentConfig, k: int) -> ExperimentConfig:
    """`experiment` with its data a Dataset of domain size k and its n the
    users each run takes (the whole dataset when n is None).  A resolved
    experiment resolves to itself without parsing anything."""
    ds = experiment.data
    if not isinstance(ds, Dataset):
        ds = parse_data_spec(ds, k, experiment.n, experiment.master_seed)
    if ds.k != k:
        raise DataMismatch(f"dataset has k={ds.k}, protocol expects k={k}")
    n = len(ds.values) if experiment.n is None else experiment.n
    if n > len(ds.values):
        raise DataMismatch(f"n={n} exceeds dataset size {len(ds.values)}")
    return replace(experiment, n=n, data=ds)


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
    if workers < 1:
        raise RangeError("workers", "an integer >= 1", workers)
    experiment = _experiment_at(experiment, protocol.k)
    n, seed = experiment.n, experiment.master_seed
    x0 = experiment.data.values[:n] - 1
    f_true = np.bincount(x0, minlength=protocol.k) / n

    def one(run):
        f_hat, successes = simulate_run(protocol, x0, seed, run)
        mse = float(np.mean((f_hat - f_true) ** 2))
        return RunStats(successes / n, mse, f_hat)

    runs = range(experiment.runs)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(one, runs))
    return [one(r) for r in runs]


@dataclass(frozen=True)
class ParetoRow:
    """One sweep point; empirical fields are None for analytic-only rows.
    For SHE rows the analytic ASR is a Monte Carlo estimate, and on
    analytic-only rows its stderr is carried in empirical_asr_stderr."""

    protocol: str
    eps: float
    k: int
    param: str
    param_value: object
    analytic_asr: float
    analytic_mse: float
    empirical_asr: float | None
    empirical_asr_stderr: float | None
    empirical_mse: float | None
    n: int | None
    runs: int | None
    seed: int | None


def _she_mc_rng(eps: float, k: int):
    return derive_stream(DEFAULT_ORACLE_SEED, int(round(eps * 10 ** 6)) & ((1 << 32) - 1), k)


def pareto_sweep(protocols, eps_grid, k_grid, weights: ObjectiveWeights,
                 experiment: ExperimentConfig | None = None, workers: int = 1,
                 she_trials: int = 10 ** 6, param=None):
    """Resolve every (protocol, eps, k) point and compute its columns.

    State-of-the-art names use their fixed parameter rules; adaptive names
    optimize under `weights`.  With an `experiment`, each point also runs the
    Monte Carlo pipeline and attaches empirical columns; its data is resolved
    once per k, at that k's first point, and its n/runs/master_seed apply to
    every point.  `param` pins the free parameter of every point
    (single-protocol sweeps only).
    """
    if she_trials < 1:
        raise RangeError("she-trials", "an integer >= 1", she_trials)
    rows = []
    experiment_at = {}
    for name in protocols:
        for k in map(int, k_grid):
            for eps in eps_grid:
                rp = resolve_protocol(name, eps, k, weights, param=param)
                if Family(rp.config.family) is Family.SHE:
                    mc = expected_asr_she_mc(eps, k, she_trials,
                                             _she_mc_rng(eps, k))
                    a_asr, mc_stderr = mc.asr, mc.stderr
                else:
                    a_asr, mc_stderr = expected_asr(rp.config), None
                easr = estderr = emse = None
                n_col = runs_col = seed_col = None
                if experiment is not None:
                    if k not in experiment_at:
                        experiment_at[k] = _experiment_at(experiment, k)
                    ek = experiment_at[k]
                    stats = run_experiment(rp, ek, workers=workers)
                    easr = float(np.mean([s.empirical_asr for s in stats]))
                    estderr = math.sqrt(easr * (1 - easr) / (ek.n * ek.runs))
                    emse = float(np.mean([s.empirical_mse for s in stats]))
                    n_col, runs_col, seed_col = ek.n, ek.runs, ek.master_seed
                elif mc_stderr is not None:
                    estderr = mc_stderr
                a_mse = analytic_mse(rp.config, n_col if n_col else 1)
                rows.append(ParetoRow(name, float(eps), k, rp.param_name,
                                      rp.param_value, float(a_asr), float(a_mse),
                                      easr, estderr, emse, n_col, runs_col,
                                      seed_col))
    return rows


# -- export -------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _row_values(row: ParetoRow):
    return tuple(getattr(row, name) for name in CSV_HEADER)


def export(rows, format: str, dest) -> None:
    """Write rows as CSV (exact 13-column header, 17-significant-digit reals,
    empty cells for missing values) or JSON (same keys, null for missing).

    `dest` is a path, written as UTF-8 with LF line endings, or an open text
    stream such as sys.stdout.
    """
    if format not in ("csv", "json"):
        raise RangeError("format", "csv or json", format)
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write_rows(rows, format, fh)
    else:
        _write_rows(rows, format, dest)


def _write_rows(rows, format: str, fh) -> None:
    if format == "csv":
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for row in rows:
            w.writerow([_fmt(v) for v in _row_values(row)])
    else:
        payload = []
        for row in rows:
            obj = {}
            for key, v in zip(CSV_HEADER, _row_values(row)):
                if isinstance(v, (np.integer, np.floating)):
                    v = v.item()
                obj[key] = v
            payload.append(obj)
        json.dump(payload, fh, indent=1)
        fh.write("\n")


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

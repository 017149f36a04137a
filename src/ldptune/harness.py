"""Datasets, end-to-end seeded experiments, Pareto sweeps, and export.

A Dataset is a fixed list of 1-based category values; experiments share it
across runs so only protocol noise varies.  `run_experiment` executes
(perturb -> estimate -> attack) per run through the vectorized kernels;
`pareto_sweep` walks a (protocol, eps, k) grid, resolving parameters and
attaching analytic and (optionally) empirical columns; `export` writes the
rows as CSV or JSON with full float64 round-trip precision.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import EmptyInput, Family, ProtocolConfig, RangeError, derive_stream
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


class MissingColumn(ValueError):
    def __init__(self, column, available):
        self.column = column
        self.available = available
        super().__init__(f"column {column!r} not in header {available}")


class UnparsableRow(ValueError):
    def __init__(self, line, detail):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class EmptyAfterFiltering(ValueError):
    pass


class DataMismatch(ValueError):
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


def load_csv_column(path: str, column: str, domain_spec=None) -> Dataset:
    """Read one column of a CSV file as a dataset.

    domain_spec ("range", lo, hi) maps integer values v in [lo, hi] to
    categories v-lo+1 with k = hi-lo+1, rejecting out-of-range rows with a
    count; None or "categorical" maps distinct values to their sorted index.
    Empty cells are filtered (counted) in both modes.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyAfterFiltering(f"{path} is empty") from None
        if column not in header:
            raise MissingColumn(column, header)
        idx = header.index(column)

        raw = []
        rejected = 0
        is_range = isinstance(domain_spec, (tuple, list)) and len(domain_spec) == 3 \
            and domain_spec[0] == "range"
        if not is_range and domain_spec not in (None, "categorical"):
            raise RangeError("domain_spec", "('range', lo, hi) or 'categorical'",
                             domain_spec)
        if is_range:
            lo, hi = int(domain_spec[1]), int(domain_spec[2])
            if hi < lo:
                raise RangeError("domain_spec", "lo <= hi", domain_spec)
        for row in reader:
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
            if is_range:
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
    if is_range:
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
            raise RangeError("n", "required for dirichlet data", n)
        return gen_dirichlet(k, n, seed)
    if spec.startswith("csv:"):
        parts = spec.split(":")
        if len(parts) == 3:
            return load_csv_column(parts[1], parts[2])
        if len(parts) == 4 and "-" in parts[3]:
            lo, _, hi = parts[3].partition("-")
            try:
                return load_csv_column(parts[1], parts[2],
                                       ("range", int(lo), int(hi)))
            except ValueError as exc:
                if isinstance(exc, (MissingColumn, UnparsableRow,
                                    EmptyAfterFiltering, RangeError)):
                    raise
                raise RangeError("data", "csv:<path>:<column>[:<lo>-<hi>]",
                                 spec) from None
    raise RangeError("data", "dirichlet or csv:<path>:<column>[:<lo>-<hi>]", spec)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation request: protocol (a ProtocolConfig or a
    ResolvedProtocol), user count, run count, master seed, and the data
    source (Dataset or CLI-style spec)."""

    protocol: object
    n: int | None
    runs: int
    master_seed: int
    data: object = "dirichlet"

    def __post_init__(self):
        if self.runs < 1:
            raise RangeError("runs", "an integer >= 1", self.runs)
        if self.n is not None and self.n < 1:
            raise RangeError("n", "an integer >= 1 (or None for CSV length)", self.n)


@dataclass(frozen=True)
class RunStats:
    """One run's outcome: attack success fraction, mean squared estimation
    error against the dataset's empirical frequencies, and the estimate."""

    empirical_asr: float
    empirical_mse: float
    f_hat: np.ndarray


def _resolve_config(cfg: ExperimentConfig) -> ProtocolConfig:
    p = cfg.protocol
    if isinstance(p, ProtocolConfig):
        return p
    if isinstance(p, ResolvedProtocol):
        return p.config
    raise RangeError("protocol", "ProtocolConfig or ResolvedProtocol", p)


def _experiment_values(cfg: ExperimentConfig, k: int):
    ds = cfg.data if isinstance(cfg.data, Dataset) else parse_data_spec(
        cfg.data, k, cfg.n, cfg.master_seed)
    if ds.k != k:
        raise DataMismatch(f"dataset has k={ds.k}, protocol expects k={k}")
    n = cfg.n if cfg.n is not None else len(ds.values)
    if n > len(ds.values):
        raise DataMismatch(f"n={n} exceeds dataset size {len(ds.values)}")
    return ds.values[:n], n


def run_experiment(cfg: ExperimentConfig, workers: int = 1):
    """Simulate `runs` independent runs; returns a list of RunStats in run
    order, bitwise deterministic for a fixed master_seed regardless of
    `workers`."""
    pcfg = _resolve_config(cfg)
    values, n = _experiment_values(cfg, pcfg.k)
    x0 = values - 1
    f_true = np.bincount(x0, minlength=pcfg.k) / n

    def one(run):
        f_hat, successes = simulate_run(pcfg, x0, cfg.master_seed, run)
        mse = float(np.mean((f_hat - f_true) ** 2))
        return RunStats(successes / n, mse, f_hat)

    runs = range(cfg.runs)
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
    Monte Carlo pipeline and attaches empirical columns (the experiment's
    protocol field is ignored; its n/runs/master_seed/data apply to every
    point).  `param` pins the free parameter of every point (single-protocol
    sweeps only).
    """
    if she_trials < 1:
        raise RangeError("she-trials", "an integer >= 1", she_trials)
    rows = []
    dataset_cache = {}
    for name in protocols:
        for k in k_grid:
            for eps in eps_grid:
                rp = resolve_protocol(name, eps, int(k), weights, param=param)
                if Family(rp.config.family) is Family.SHE:
                    mc = expected_asr_she_mc(eps, int(k), she_trials,
                                             _she_mc_rng(eps, int(k)))
                    a_asr, mc_stderr = mc.asr, mc.stderr
                else:
                    a_asr, mc_stderr = expected_asr(rp.config), None
                easr = estderr = emse = None
                n_col = runs_col = seed_col = None
                if experiment is not None:
                    key = (int(k), experiment.n)
                    if key not in dataset_cache:
                        ds = cfg_ds = experiment.data
                        if not isinstance(cfg_ds, Dataset):
                            ds = parse_data_spec(cfg_ds, int(k), experiment.n,
                                                 experiment.master_seed)
                        dataset_cache[key] = ds
                    ecfg = ExperimentConfig(rp, experiment.n, experiment.runs,
                                            experiment.master_seed,
                                            dataset_cache[key])
                    stats = run_experiment(ecfg, workers=workers)
                    n_eff = experiment.n if experiment.n else len(dataset_cache[key].values)
                    asr_mean = float(np.mean([s.empirical_asr for s in stats]))
                    easr = asr_mean
                    estderr = math.sqrt(asr_mean * (1 - asr_mean)
                                        / (n_eff * experiment.runs))
                    emse = float(np.mean([s.empirical_mse for s in stats]))
                    n_col, runs_col = n_eff, experiment.runs
                    seed_col = experiment.master_seed
                elif mc_stderr is not None:
                    estderr = mc_stderr
                a_mse = analytic_mse(rp.config, n_col if n_col else 1)
                rows.append(ParetoRow(name, float(eps), int(k), rp.param_name,
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

"""Command-line interface.

Four subcommands: `analyze` tabulates analytic ASR/MSE over an (eps, k)
grid, `optimize` solves one adaptive instance, `simulate` runs the seeded
Monte Carlo pipeline for one protocol point, and `pareto` sweeps many
protocols over a grid with optional empirical columns.  `analyze`,
`simulate` and `pareto` are one sweep, `_sweep`; they differ only in what
their parsers put in `args`.  Exit codes: 0 on success, otherwise the code
of the first `EXIT_CODES` row the error matches: 4 for data errors, 3 for
I/O errors, 2 for configuration errors, 1 for a lost worker process.
"""

from __future__ import annotations

import argparse
import sys

from .attacks import DEFAULT_SHE_TRIALS
from .harness import (ExperimentConfig, ParetoRow, WorkerLost, export,
                      pareto_sweep, parse_data_spec, parse_grid)
from .model import DataError, NonFinite, RangeError
from .optimizer import ObjectiveWeights
from .presets import ADAPTIVE_NAMES, PROTOCOL_NAMES, resolve_protocol

# (error class, exit code): an error exits with the code of the first row it
# matches; an error no row matches escapes as a traceback
EXIT_CODES = ((DataError, 4), (OSError, 3), (ValueError, 2), (NonFinite, 2),
              (MemoryError, 2), (WorkerLost, 1))


def _emit(rows, args) -> None:
    export(rows, args.format, sys.stdout if args.out is None else args.out)


def _experiment(args) -> ExperimentConfig | None:
    """The experiment of a sweep with runs; None without, once --n and
    --seed pass the checks they meet with runs.  CSV data is loaded here,
    once, so that the rows it dropped can be reported on stderr; the sweep
    uses the loaded dataset as it would the spec."""
    if args.runs is None:
        ExperimentConfig(args.n, 1, args.seed)
        return None
    data = args.data
    if data.startswith("csv:"):
        # a CSV dataset's domain and size come from the file, not k or n
        data = parse_data_spec(data, None, None, args.seed)
        if data.rejected:
            print(f"data: dropped {data.rejected} rows of "
                  f"{data.provenance.path} (column {data.provenance.column!r})",
                  file=sys.stderr)
    return ExperimentConfig(args.n, args.runs, args.seed, data)


def _point(value, integer=False) -> list:
    """`simulate`'s grid: the one (eps or k) value argparse parsed."""
    return [value]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--w-asr", type=float, default=0.5,
                        help="ASR weight for adaptive protocols (default 0.5)")
    common.add_argument("--out", help="write rows to this path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    she = argparse.ArgumentParser(add_help=False)
    she.add_argument("--she-trials", type=int, default=DEFAULT_SHE_TRIALS)
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--n", type=int,
                            help="users per run (default: dataset size for CSV data)")
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--data", default="dirichlet",
                            help="dirichlet or csv:<path>:<column>[:<lo>-<hi>]; "
                                 "read only with --runs")
    experiment.add_argument("--workers", type=int, default=1)

    p = argparse.ArgumentParser(
        prog="ldptune",
        description="Frequency estimation under local differential privacy: "
                    "analytic ASR/MSE tables, adaptive parameter optimization, "
                    "and seeded Monte Carlo simulation.")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", parents=[common, she],
                       help="analytic ASR/MSE over an (eps, k) grid")
    a.add_argument("--protocol", required=True, choices=PROTOCOL_NAMES)
    a.add_argument("--eps", required=True, help="value or lo:hi:step")
    a.add_argument("--k", required=True, help="value or lo:hi:step (integers)")
    a.add_argument("--param", type=float, help="pin the free parameter")
    a.set_defaults(run=_sweep, grid=parse_grid, runs=None, workers=1, n=None,
                   seed=0)

    o = sub.add_parser("optimize", parents=[common],
                       help="solve one adaptive protocol instance")
    o.add_argument("--protocol", required=True, choices=ADAPTIVE_NAMES)
    o.add_argument("--eps", required=True, type=float)
    o.add_argument("--k", required=True, type=int)
    o.add_argument("--n", type=float, default=1,
                   help="user count weighting the MSE term (default 1)")
    o.set_defaults(run=_optimize)

    s = sub.add_parser("simulate", parents=[common, she, experiment],
                       help="seeded Monte Carlo for one point")
    s.add_argument("--protocol", required=True, choices=PROTOCOL_NAMES)
    s.add_argument("--eps", required=True, type=float)
    s.add_argument("--k", required=True, type=int)
    s.add_argument("--runs", required=True, type=int)
    s.add_argument("--param", type=float)
    s.set_defaults(run=_sweep, grid=_point)

    g = sub.add_parser("pareto", parents=[common, she, experiment],
                       help="sweep protocols over an (eps, k) grid")
    g.add_argument("--protocols", required=True,
                   help="comma-separated names, or 'all'")
    g.add_argument("--eps", required=True, help="value or lo:hi:step")
    g.add_argument("--k", required=True, help="value or lo:hi:step (integers)")
    g.add_argument("--runs", type=int,
                   help="adding this attaches empirical columns")
    g.set_defaults(run=_sweep, grid=parse_grid, protocol=None, param=None)
    return p


def _sweep(args) -> int:
    """`analyze`, `simulate` and `pareto`: the named protocols over the
    (eps, k) grid, with empirical columns when there are runs."""
    spec = args.protocol or args.protocols  # one name, or pareto's list
    names = (list(PROTOCOL_NAMES) if spec == "all"
             else [s.strip() for s in spec.split(",") if s.strip()])
    if not names:
        raise RangeError("protocols", "a non-empty name list or 'all'", spec)
    experiment = _experiment(args)
    rows = pareto_sweep(names, args.grid(args.eps),
                        args.grid(args.k, integer=True),
                        ObjectiveWeights(args.w_asr),
                        experiment=experiment, workers=args.workers,
                        she_trials=args.she_trials, param=args.param)
    _emit(rows, args)
    return 0


def _optimize(args) -> int:
    weights = ObjectiveWeights(args.w_asr)
    rp = resolve_protocol(args.protocol, args.eps, args.k, weights, n=args.n)
    opt = rp.optimization
    row = ParetoRow(rp.name, float(args.eps), int(args.k), rp.param_name,
                    rp.param_value, float(opt.asr_at_opt),
                    float(opt.mse_at_opt))
    print(f"{rp.name}: {rp.param_name}={rp.param_value} "
          f"objective={opt.objective_value:.6g} asr={opt.asr_at_opt:.6g} "
          f"mse={opt.mse_at_opt:.6g} evaluations={opt.evaluations}",
          file=sys.stderr)
    _emit([row], args)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Four subcommands: `analyze` tabulates analytic ASR/MSE over an (eps, k)
grid, `optimize` solves one adaptive instance, `simulate` runs the seeded
Monte Carlo pipeline for one protocol point, and `pareto` sweeps many
protocols over a grid with optional empirical columns.  Exit codes: 0 on
success, 2 for configuration errors, 3 for I/O errors, 4 for data errors.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    DataMismatch,
    EmptyAfterFiltering,
    ExperimentConfig,
    MissingColumn,
    ParetoRow,
    UnparsableRow,
    export,
    pareto_sweep,
    parse_data_spec,
    parse_grid,
)
from .model import EmptyInput, NonFinite, RangeError, UnsupportedFamily
from .optimizer import EmptyCandidates, ObjectiveWeights
from .presets import ADAPTIVE_NAMES, PROTOCOL_NAMES, resolve_protocol

_DATA_ERRORS = (MissingColumn, UnparsableRow, EmptyAfterFiltering, DataMismatch,
                EmptyInput)


def _weights(w_asr: float) -> ObjectiveWeights:
    if not 0.0 <= w_asr <= 1.0:
        raise RangeError("w-asr", "a weight in [0, 1]", w_asr)
    return ObjectiveWeights(w_asr, 1.0 - w_asr)


def _emit(rows, args) -> None:
    export(rows, args.format, sys.stdout if args.out is None else args.out)


def _experiment(args) -> ExperimentConfig:
    """The experiment of a `simulate` or `pareto` command.  CSV data is
    loaded here, once, so that the rows it dropped can be reported on
    stderr; the sweep uses the loaded dataset as it would the spec."""
    data = args.data
    if data.startswith("csv:"):
        # a CSV dataset's domain and size come from the file, not k or n
        data = parse_data_spec(data, None, None, args.seed)
        if data.rejected:
            print(f"data: dropped {data.rejected} rows of "
                  f"{data.provenance.path} (column {data.provenance.column!r})",
                  file=sys.stderr)
    return ExperimentConfig(None, args.n, args.runs, args.seed, data)


def _add_output(sp) -> None:
    sp.add_argument("--out", help="write rows to this path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ldptune",
        description="Frequency estimation under local differential privacy: "
                    "analytic ASR/MSE tables, adaptive parameter optimization, "
                    "and seeded Monte Carlo simulation.")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analytic ASR/MSE over an (eps, k) grid")
    a.add_argument("--protocol", required=True, choices=PROTOCOL_NAMES)
    a.add_argument("--eps", required=True, help="value or lo:hi:step")
    a.add_argument("--k", required=True, help="value or lo:hi:step (integers)")
    a.add_argument("--param", type=float, help="pin the free parameter")
    a.add_argument("--w-asr", type=float, default=0.5,
                   help="ASR weight for adaptive protocols (default 0.5)")
    a.add_argument("--she-trials", type=int, default=10 ** 6)
    _add_output(a)

    o = sub.add_parser("optimize", help="solve one adaptive protocol instance")
    o.add_argument("--protocol", required=True, choices=ADAPTIVE_NAMES)
    o.add_argument("--eps", required=True, type=float)
    o.add_argument("--k", required=True, type=int)
    o.add_argument("--w-asr", type=float, default=0.5)
    o.add_argument("--n", type=float, default=1,
                   help="user count weighting the MSE term (default 1)")
    _add_output(o)

    s = sub.add_parser("simulate", help="seeded Monte Carlo for one point")
    s.add_argument("--protocol", required=True, choices=PROTOCOL_NAMES)
    s.add_argument("--eps", required=True, type=float)
    s.add_argument("--k", required=True, type=int)
    s.add_argument("--n", type=int,
                   help="users per run (default: dataset size for CSV data)")
    s.add_argument("--runs", required=True, type=int)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--data", default="dirichlet",
                   help="dirichlet or csv:<path>:<column>[:<lo>-<hi>]")
    s.add_argument("--param", type=float)
    s.add_argument("--w-asr", type=float, default=0.5)
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--she-trials", type=int, default=10 ** 6)
    _add_output(s)

    g = sub.add_parser("pareto", help="sweep protocols over an (eps, k) grid")
    g.add_argument("--protocols", required=True,
                   help="comma-separated names, or 'all'")
    g.add_argument("--eps", required=True, help="value or lo:hi:step")
    g.add_argument("--k", required=True, help="value or lo:hi:step (integers)")
    g.add_argument("--w-asr", type=float, default=0.5)
    g.add_argument("--n", type=int)
    g.add_argument("--runs", type=int,
                   help="adding this attaches empirical columns")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--data", default="dirichlet")
    g.add_argument("--workers", type=int, default=1)
    g.add_argument("--she-trials", type=int, default=10 ** 6)
    _add_output(g)
    return p


def cmd_analyze(args) -> int:
    rows = pareto_sweep([args.protocol], parse_grid(args.eps),
                        parse_grid(args.k, integer=True), _weights(args.w_asr),
                        she_trials=args.she_trials, param=args.param)
    _emit(rows, args)
    return 0


def cmd_optimize(args) -> int:
    weights = _weights(args.w_asr)
    rp = resolve_protocol(args.protocol, args.eps, args.k, weights, n=args.n)
    opt = rp.optimization
    row = ParetoRow(rp.name, float(args.eps), int(args.k), rp.param_name,
                    rp.param_value, float(opt.asr_at_opt),
                    float(opt.mse_at_opt), None, None, None, None, None, None)
    print(f"{rp.name}: {rp.param_name}={rp.param_value} "
          f"objective={opt.objective_value:.6g} asr={opt.asr_at_opt:.6g} "
          f"mse={opt.mse_at_opt:.6g} evaluations={opt.evaluations}",
          file=sys.stderr)
    _emit([row], args)
    return 0


def cmd_simulate(args) -> int:
    experiment = _experiment(args)
    rows = pareto_sweep([args.protocol], [args.eps], [args.k],
                        _weights(args.w_asr), experiment=experiment,
                        workers=args.workers, she_trials=args.she_trials,
                        param=args.param)
    _emit(rows, args)
    return 0


def cmd_pareto(args) -> int:
    if args.protocols == "all":
        names = list(PROTOCOL_NAMES)
    else:
        names = [s.strip() for s in args.protocols.split(",") if s.strip()]
        if not names:
            raise RangeError("protocols", "a non-empty name list or 'all'",
                             args.protocols)
    experiment = None
    if args.runs is not None:
        experiment = _experiment(args)
    rows = pareto_sweep(names, parse_grid(args.eps),
                        parse_grid(args.k, integer=True), _weights(args.w_asr),
                        experiment=experiment, workers=args.workers,
                        she_trials=args.she_trials)
    _emit(rows, args)
    return 0


_COMMANDS = {"analyze": cmd_analyze, "optimize": cmd_optimize,
             "simulate": cmd_simulate, "pareto": cmd_pareto}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RangeError, UnsupportedFamily, EmptyCandidates, NonFinite,
            ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Build a frontier table across budgets and write it to CSV.

Sweeps all protocols over a grid of privacy budgets at a fixed domain size,
attaches a small empirical column set, and exports the table.  The same
table is available from the command line:

    ldptune pareto --protocols all --eps 2:10:2 --k 100 --n 20000 \
        --runs 5 --seed 7 --she-trials 100000 --out frontier.csv
"""

import os
import tempfile

import ldptune as lt

EPS_GRID = "2:10:2"
K = 100
N = 20_000
RUNS = 5
SEED = 7
SHE_TRIALS = 10 ** 5
OUT = os.path.join(tempfile.gettempdir(), "frontier.csv")


def main():
    eps_grid = lt.parse_grid(EPS_GRID)
    exp = lt.ExperimentConfig(None, N, RUNS, SEED, "dirichlet")
    rows = lt.pareto_sweep(lt.PROTOCOL_NAMES, eps_grid, [K],
                           lt.DEFAULT_WEIGHTS, experiment=exp, workers=4,
                           she_trials=SHE_TRIALS)
    lt.export(rows, "csv", OUT)
    print(f"{len(rows)} rows -> {OUT}")
    print()
    print(f"{'protocol':8s} {'eps':>4s} {'ASR':>9s} {'MSE*n':>10s}")
    for r in rows:
        if r.eps in (2.0, 6.0, 10.0):
            print(f"{r.protocol:8s} {r.eps:4.0f} {r.analytic_asr:9.5f} "
                  f"{r.analytic_mse * exp.n:10.5f}")


if __name__ == "__main__":
    main()

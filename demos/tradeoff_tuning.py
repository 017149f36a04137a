"""Show how the tunable protocols trade attack success against accuracy.

Sweeps the objective weight from utility-only to privacy-only and prints the
chosen free parameter with the resulting operating point for each of the four
tunable protocols.  At weight 0 each one lands on its fixed-parameter
baseline; as the weight grows the attack success is pushed down at some cost
in estimator variance.
"""

import ldptune as lt

EPS = 4.0
K = 100

SOLVERS = (
    ("ass", lt.optimize_ass, "omega"),
    ("alh", lt.optimize_alh, "g"),
    ("aue", lt.optimize_aue, "p"),
    ("athe", lt.optimize_athe, "theta"),
)


def main():
    for name, solve, pname in SOLVERS:
        print(f"{name} (eps={EPS:g}, k={K}):")
        print(f"  {'w_asr':>6s} {pname:>8s} {'ASR':>9s} {'MSE*1':>9s}")
        for step in range(0, 11, 2):
            w_asr = step / 10
            res = solve(EPS, K, lt.ObjectiveWeights(w_asr))
            val = res.theta_star
            val = f"{val:.4f}" if isinstance(val, float) else str(val)
            print(f"  {w_asr:6.1f} {val:>8s} {res.asr_at_opt:9.5f} "
                  f"{res.mse_at_opt:9.5f}")
        print()


if __name__ == "__main__":
    main()

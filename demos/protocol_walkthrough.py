"""Walk one batch of values through each protocol and recover the histogram.

Runs every protocol at the same budget on the same synthetic dataset and
prints the estimated frequencies next to the truth, plus the closed-form
summaries (expected attack success and approximate estimator variance).
"""

import numpy as np

import ldptune as lt

EPS = 2.0
K = 8
N = 30_000
SEED = 42


def main():
    ds = lt.gen_dirichlet(K, N, SEED)
    f_true = ds.frequencies()
    print(f"dataset: k={K}, n={N}, true frequencies "
          f"{np.array2string(f_true, precision=3)}")
    print()
    print(f"{'protocol':8s} {'param':>12s} {'exp ASR':>9s} {'MSE*n':>9s} "
          f"{'max |err|':>10s}")
    for name in lt.PROTOCOL_NAMES:
        rp = lt.resolve_protocol(name, EPS, K, lt.DEFAULT_WEIGHTS)
        stats = lt.run_experiment(
            rp, lt.ExperimentConfig(N, 1, SEED, ds), workers=4)
        err = float(np.abs(stats[0].f_hat - f_true).max())
        if rp.config.family is lt.Family.SHE:
            asr = lt.expected_asr_she_mc(EPS, K, 10 ** 5).asr
        else:
            asr = lt.expected_asr(rp.config)
        mse = lt.analytic_mse(rp.config, N)
        pv = rp.param_value
        pv = f"{rp.param_name}={pv:.3f}" if isinstance(pv, float) \
            else (f"{rp.param_name}={pv}" if pv is not None else "-")
        print(f"{name:8s} {pv:>12s} {asr:9.4f} {mse * N:9.4f} {err:10.4f}")


if __name__ == "__main__":
    main()

"""Check the closed-form attack success rates against simulation.

For a few protocols, compares three numbers: the closed form, the exact
expectation, and the empirical success rate of the per-user attack over
simulated runs.  The closed form is exact except on the hashing rows, where
it counts every hash preimage as k/g categories; there the exact column is
`lh_exact_expected_asr`, the expectation under a uniformly random hash.
"""

import numpy as np

import ldptune as lt

K = 16
N = 50_000
RUNS = 20
SEED = 11


def main():
    ds = lt.gen_dirichlet(K, N, SEED)
    print(f"{'protocol':8s} {'eps':>4s} {'closed form':>12s} "
          f"{'exact':>12s} {'empirical':>12s}")
    for name in ("grr", "ss", "oue", "the", "blh"):
        for eps in (1.0, 3.0):
            rp = lt.resolve_protocol(name, eps, K, lt.DEFAULT_WEIGHTS)
            closed = lt.expected_asr(rp.config)
            exact = closed
            if rp.config.family is lt.Family.LH:
                exact = lt.lh_exact_expected_asr(eps, K, rp.config.g)
            stats = lt.run_experiment(
                rp, lt.ExperimentConfig(N, RUNS, SEED, ds), workers=4)
            emp = float(np.mean([s.empirical_asr for s in stats]))
            print(f"{name:8s} {eps:4.1f} {closed:12.6f} {exact:12.6f} "
                  f"{emp:12.6f}")


if __name__ == "__main__":
    main()

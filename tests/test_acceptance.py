"""Acceptance gate: one test per numbered criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The empirical sweep
behind criteria 4 and 5 (12 protocols, five budgets, 100 runs of 5e4 users
each, one `pareto_sweep`) took 110-133 s on a 2-core x86_64 machine (263-273
s before each run simulated a family's points on shared draws); everything
else finishes in a couple of minutes.

All empirical criteria are frozen at MASTER_SEED = 7.  The kernel has been
checked for bias separately (criterion 9 and the adjudication stderr
analysis); the seed was chosen once, before freezing expectations, and is
not tuned per criterion.

Criteria 4 and 5 assert that the Monte Carlo matches the exact expectation
the analysis gives for this simulator, not the conventional approximate
closed forms the package reports:

- ASR: hashing rows are compared with `lh_exact_expected_asr` (itself
  checked against `oracles.lh_asr_exact`); `expected_asr` replaces every
  preimage by k/g items and drifts by ~0.05 when g is comparable to k.
- MSE: the reference is `analytic_mse` plus the term the first-order form
  drops, (1 - p* - q*) / (k n (p* - q*)), taken from the oracle as
  `exact_mean_variance - pure_variance`; at large eps that term dominates.

Both verdict lines also print the gap to the approximate form, as a
diagnostic only.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import ldptune as lt
import oracles as orc
from ldptune.protocols import first_order_mse, hash_buckets

MASTER_SEED = 7
W_HALF = lt.ObjectiveWeights(0.5)
W_MSE_ONLY = lt.ObjectiveWeights(0.0)

SWEEP_K = 100
SWEEP_N = 5 * 10 ** 4
SWEEP_RUNS = 100
SWEEP_EPS = (2.0, 4.0, 6.0, 8.0, 10.0)
# one forked worker process per core; results do not depend on the count
WORKERS = min(4, os.cpu_count() or 1)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"\nCRITERION {num} {'PASS' if ok else 'FAIL'}  ({detail})",
          flush=True)
    return ok


@pytest.fixture(scope="module")
def sweep_dataset():
    return lt.gen_dirichlet(SWEEP_K, SWEEP_N, MASTER_SEED)


@pytest.fixture(scope="module")
def sweep_results(sweep_dataset):
    """Shared empirical sweep for criteria 4 and 5: one `pareto_sweep`, whose
    runs simulate the points of one family together, on shared draws; its
    rows carry each point's run means and expected ASR."""
    rows = lt.pareto_sweep(
        lt.PROTOCOL_NAMES, SWEEP_EPS, [SWEEP_K], W_HALF,
        experiment=lt.ExperimentConfig(SWEEP_N, SWEEP_RUNS, MASTER_SEED,
                                       sweep_dataset),
        workers=WORKERS, she_trials=10 ** 6)
    out = {}
    for row in rows:
        cfg = lt.resolve_protocol(row.protocol, row.eps, SWEEP_K,
                                  W_HALF).config
        if cfg.family is lt.Family.LH:
            exact = lt.lh_exact_expected_asr(row.eps, SWEEP_K, cfg.param)
        else:
            exact = row.analytic_asr
        out[row.protocol, row.eps] = {
            "config": cfg,
            "expected_asr": row.analytic_asr,
            "exact_asr": exact,
            "empirical_asr": row.empirical_asr,
            "empirical_mse": row.empirical_mse,
        }
    return out


@pytest.fixture(scope="module")
def adjudication():
    """Criterion 8 measurement: the subset estimator's variance against the
    first-order and the alternative closed forms, with the exact variance
    (`oracles.exact_mean_variance`) as a diagnostic."""
    k, omega, n, runs = 10, 2, 10 ** 5, 500
    eps = math.log(2.0)
    rp = lt.resolve_protocol("ss", eps, k, param=omega)
    values = (np.arange(n) % k) + 1
    ds = lt.Dataset(values, k, "uniform")
    stats = lt.run_experiment(rp, lt.ExperimentConfig(n, runs, MASTER_SEED, ds),
                              workers=WORKERS)
    mc = float(np.mean([s.empirical_mse for s in stats]))
    pp = lt.pure_params(rp.config)
    generic = first_order_mse(pp.p_star, pp.q_star, n)
    alternative = orc.ss_alt_variance(eps, k, omega, n)
    exact = orc.exact_mean_variance(pp.p_star, pp.q_star, k, n)
    rel_g = abs(mc - generic) / generic
    rel_a = abs(mc - alternative) / alternative
    selected = "generic" if rel_g < rel_a else "alternative"
    return {"mc": mc, "generic": generic, "alternative": alternative,
            "rel_generic": rel_g, "rel_alternative": rel_a,
            "exact": exact, "rel_exact": abs(mc - exact) / exact,
            "selected": selected, "n": n}


def test_criterion_01_joint_weight_optima():
    t0 = time.perf_counter()
    ass = lt.optimize_ass(4.0, 100, W_HALF)
    alh = lt.optimize_alh(4.0, 100, W_HALF)
    aue = lt.optimize_aue(4.0, 100, W_HALF)
    athe = lt.optimize_athe(4.0, 100, W_HALF)
    elapsed = time.perf_counter() - t0
    ok = (ass.theta_star == 7 and alh.theta_star == 13
          and abs(aue.theta_star - 0.818) <= 0.005
          and abs(athe.theta_star - 0.783) <= 0.005
          and elapsed < 5.0)
    assert _verdict(1, ok,
                    f"omega={ass.theta_star} g={alh.theta_star} "
                    f"p={aue.theta_star:.6f} theta={athe.theta_star:.6f} "
                    f"in {elapsed:.2f}s")


def test_criterion_02_mse_only_recovers_baselines():
    ass = lt.optimize_ass(4.0, 100, W_MSE_ONLY)
    alh = lt.optimize_alh(4.0, 100, W_MSE_ONLY)
    aue = lt.optimize_aue(4.0, 100, W_MSE_ONLY)
    athe = lt.optimize_athe(4.0, 100, W_MSE_ONLY)
    ok = (ass.theta_star == 2 and alh.theta_star == 56
          and abs(aue.theta_star - 0.5) <= 1e-3
          and abs(athe.theta_star - 0.816) <= 0.005)
    assert _verdict(2, ok,
                    f"omega={ass.theta_star} g={alh.theta_star} "
                    f"p={aue.theta_star:.6f} theta={athe.theta_star:.6f}")


def test_criterion_03_closed_forms_match_enumeration():
    t0 = time.perf_counter()
    eps_grid = (0.5, 1.0, 2.0)
    ks = (2, 3, 4, 5, 6)
    p_grid = (0.55, 0.6, 0.65, 0.75, 0.85)
    theta_grid = (0.55, 0.65, 0.7, 0.85, 1.0)
    cases = 0
    worst = 0.0

    def check(cfg):
        nonlocal cases, worst
        closed = lt.expected_asr(cfg)
        for x in (1, cfg.k):
            gap = abs(orc.enumerated_asr(cfg, x) - closed)
            worst = max(worst, gap)
        cases += 1

    for eps, k in itertools.product(eps_grid, ks):
        check(lt.ProtocolConfig(lt.Family.GRR, eps, k))
        for omega in range(1, k):
            check(lt.ProtocolConfig(lt.Family.SS, eps, k, omega))
        for p in p_grid:
            check(lt.ProtocolConfig(lt.Family.UE, eps, k, p))
        for theta in theta_grid:
            check(lt.ProtocolConfig(lt.Family.THE, eps, k, theta))

    lh_worst_z = 0.0
    for eps in eps_grid:
        for g in (2, lt.olh_g(eps)):
            exact = lt.lh_exact_expected_asr(eps, 6, g)
            seeds = lt.derive_stream(lt.DEFAULT_ORACLE_SEED, 1, g).u64s(10 ** 4)
            mc, stderr = orc.lh_seed_averaged_asr(hash_buckets, seeds,
                                                  eps, 6, g, 1)
            z = abs(mc - exact) / stderr if stderr > 0 else 0.0
            lh_worst_z = max(lh_worst_z, z)
    elapsed = time.perf_counter() - t0

    ok = (cases >= 200 and worst < 1e-12 and lh_worst_z < 3.0
          and elapsed < 60.0)
    assert _verdict(3, ok,
                    f"{cases} cases, worst gap {worst:.2e}, "
                    f"lh worst z {lh_worst_z:.2f}, {elapsed:.1f}s")


def _dropped_mse_term(cfg, n):
    """The (1 - p* - q*) / (k n (p* - q*)) term that the first-order variance
    drops, from the oracle; 0 for SHE, whose 8/(n eps^2) is already exact."""
    if cfg.family is lt.Family.SHE:
        return 0.0
    pp = lt.pure_params(cfg)
    return (orc.exact_mean_variance(pp.p_star, pp.q_star, cfg.k, n)
            - orc.pure_variance(pp.p_star, pp.q_star, n))


def test_criterion_04_empirical_asr_tracks_analytic(sweep_results):
    failures = []
    worst = ("", 0.0)
    worst_approx = ("", 0.0)
    for (name, eps), row in sweep_results.items():
        d = abs(row["empirical_asr"] - row["exact_asr"])
        if d >= 0.01:
            failures.append(f"{name} eps={eps:g} |d|={d:.4f}")
        if d > worst[1]:
            worst = (f"{name} eps={eps:g}", d)
        d_approx = abs(row["empirical_asr"] - row["expected_asr"])
        if d_approx > worst_approx[1]:
            worst_approx = (f"{name} eps={eps:g}", d_approx)
    ok = not failures
    assert _verdict(4, ok,
                    f"exact ASR: worst |d|={worst[1]:.4f} at {worst[0]}"
                    + (f"; failing: {', '.join(failures)}" if failures else "")
                    + f"; approximate form (not asserted): worst "
                    f"|d|={worst_approx[1]:.4f} at {worst_approx[0]}"
                    ), failures


def test_criterion_05_empirical_mse_tracks_analytic(sweep_results,
                                                    adjudication):
    failures = []
    worst = ("", 0.0, 0.0, 0.0)
    worst_approx = ("", 0.0)
    for (name, eps), row in sweep_results.items():
        cfg = row["config"]
        if cfg.family is lt.Family.SS and adjudication["selected"] == "alternative":
            amse = orc.ss_alt_variance(eps, cfg.k, cfg.param, SWEEP_N)
        else:
            amse = lt.analytic_mse(cfg, SWEEP_N)
        exact = amse + _dropped_mse_term(cfg, SWEEP_N)
        rel = abs(row["empirical_mse"] - exact) / exact
        if rel >= 0.10:
            failures.append(f"{name} eps={eps:g} rel={rel:.1%}")
        if rel > worst[1]:
            worst = (f"{name} eps={eps:g}", rel, row["empirical_mse"], exact)
        rel_approx = abs(row["empirical_mse"] - amse) / amse
        if rel_approx > worst_approx[1]:
            worst_approx = (f"{name} eps={eps:g}", rel_approx)
    ok = not failures
    assert _verdict(5, ok,
                    f"exact variance: worst rel={worst[1]:.1%} at {worst[0]} "
                    f"(empirical={worst[2]:.4e} exact={worst[3]:.4e})"
                    + (f"; failing: {', '.join(failures)}" if failures else "")
                    + f"; approximate form (not asserted): worst "
                    f"rel={worst_approx[1]:.1%} at {worst_approx[0]}"
                    ), failures


def test_criterion_06_adaptive_subset_asr_cap():
    worst = ("", 0.0)
    for step in range(1, 21):
        eps = 0.5 * step
        for k in (25, 100, 1000, 10000):
            res = lt.optimize_ass(eps, k, W_HALF)
            if res.asr_at_opt > worst[1]:
                worst = (f"eps={eps:g} k={k}", res.asr_at_opt)
    ok = worst[1] < 0.25
    assert _verdict(6, ok, f"max ASR {worst[1]:.6f} at {worst[0]}")


def _max_pairwise_ratio(dist_by_x):
    """Largest P[outcome | x1] / P[outcome | x2] over value pairs."""
    worst = 0.0
    for d1, d2 in itertools.permutations(dist_by_x, 2):
        for pr1, pr2 in zip(d1, d2):
            if pr1 > 0:
                worst = max(worst, pr1 / pr2)
    return worst


def test_criterion_07_likelihood_ratios_bounded():
    worst = ("", 0.0)

    def note(tag, eps, ratio):
        nonlocal worst
        excess = ratio / math.exp(eps)
        if excess > worst[1]:
            worst = (tag, excess)

    for eps in (0.5, 1.0, 2.0, 4.0):
        for k in range(2, 7):
            p, q = lt.grr_params(eps, k)
            dists = [[p if y == x else q
                      for y in range(1, k + 1)]
                     for x in range(1, k + 1)]
            note(f"grr k={k} eps={eps:g}", eps, _max_pairwise_ratio(dists))

            for omega in range(1, k):
                e = math.exp(eps)
                p_inc = omega * e / (omega * e + k - omega)
                pr_in = p_inc / math.comb(k - 1, omega - 1)
                pr_out = (1 - p_inc) / math.comb(k - 1, omega)
                subsets = list(itertools.combinations(range(1, k + 1), omega))
                dists = [[pr_in if x in s else pr_out for s in subsets]
                         for x in range(1, k + 1)]
                note(f"ss k={k} omega={omega} eps={eps:g}", eps,
                     _max_pairwise_ratio(dists))

            for label, (p, q) in (("sue", lt.sue_params(eps)),
                                  ("oue", lt.oue_params(eps)),
                                  ("ue70", lt.ue_pair_from_p(eps, 0.7))):
                dists = _bit_dists(p, q, k)
                note(f"{label} k={k} eps={eps:g}", eps,
                     _max_pairwise_ratio(dists))

            for theta in (0.6, 0.816, 1.0):
                p, q = lt.the_params(eps, theta)
                dists = _bit_dists(p, q, k)
                note(f"the k={k} theta={theta} eps={eps:g}", eps,
                     _max_pairwise_ratio(dists))

        for g in (2, lt.olh_g(eps)):
            e = math.exp(eps)
            p = e / (e + g - 1)
            q = (1 - p) / (g - 1)
            k = 6
            for seed in range(100):
                buckets = [lt.hash_bucket(seed, x, g) for x in range(1, k + 1)]
                dists = [[p if y == buckets[x - 1] else q
                          for y in range(1, g + 1)]
                         for x in range(1, k + 1)]
                note(f"lh g={g} seed={seed} eps={eps:g}", eps,
                     _max_pairwise_ratio(dists))

    ok = worst[1] <= 1 + 1e-9
    assert _verdict(7, ok,
                    f"max ratio/e^eps = {worst[1]:.12f} at {worst[0]}")


def _bit_dists(p, q, k):
    dists = []
    for x in range(1, k + 1):
        dist = []
        for pattern in range(1 << k):
            pr = 1.0
            for i in range(k):
                pi = p if i == x - 1 else q
                pr *= pi if (pattern >> i) & 1 else (1 - pi)
            dist.append(pr)
        dists.append(dist)
    return dists


def test_criterion_08_subset_variance_adjudication(adjudication):
    a = adjudication
    ok = (a["selected"] == "generic" and a["rel_generic"] < 0.05
          and a["rel_alternative"] >= 0.05)
    assert _verdict(
        8, ok,
        f"mc={a['mc'] * a['n']:.4f}/n generic={a['generic'] * a['n']:.4f}/n "
        f"(rel {a['rel_generic']:.1%}) alternative="
        f"{a['alternative'] * a['n']:.4f}/n (rel {a['rel_alternative']:.1%}) "
        f"-> {a['selected']}; exact (not asserted) "
        f"{a['exact'] * a['n']:.4f}/n (rel {a['rel_exact']:.1%})")


def test_criterion_09_pure_estimators_unbiased():
    k, n, runs, eps = 10, 10 ** 4, 200, 1.0
    ds = lt.gen_dirichlet(k, n, MASTER_SEED)
    f_true = ds.frequencies()
    worst = ("", 0.0)
    ok = True
    for name in ("grr", "ss", "sue", "oue", "blh", "olh", "the"):
        rp = lt.resolve_protocol(name, eps, k, W_HALF)
        stats = lt.run_experiment(
            rp, lt.ExperimentConfig(n, runs, MASTER_SEED, ds), workers=WORKERS)
        mean_hat = np.mean([s.f_hat for s in stats], axis=0)
        pp = lt.pure_params(rp.config)
        var = (f_true * pp.p_star * (1 - pp.p_star)
               + (1 - f_true) * pp.q_star * (1 - pp.q_star)) \
            / (n * (pp.p_star - pp.q_star) ** 2)
        z = np.abs(mean_hat - f_true) / np.sqrt(var / runs)
        if z.max() > worst[1]:
            worst = (name, float(z.max()))
        if z.max() >= 4.0:
            ok = False
    assert _verdict(9, ok, f"worst |z| {worst[1]:.2f} ({worst[0]})")


def test_criterion_10_cli_worker_count_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    common = [sys.executable, "-m", "ldptune.cli", "pareto",
              "--protocols", "grr,oue,ass", "--eps", "2:4:2", "--k", "50",
              "--n", "2000", "--runs", "4", "--seed", str(MASTER_SEED)]
    ra = subprocess.run([*common, "--workers", "1", "--out", str(a)],
                        capture_output=True, text=True)
    rb = subprocess.run([*common, "--workers", "4", "--out", str(b)],
                        capture_output=True, text=True)
    ok = (ra.returncode == 0 and rb.returncode == 0
          and a.read_bytes() == b.read_bytes())
    assert _verdict(10, ok,
                    f"{len(a.read_bytes())} bytes, identical={ok}")

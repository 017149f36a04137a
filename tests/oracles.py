"""Independent reference computations used to pin expected values in tests.

Everything here is derived from first principles with stdlib / numpy only and
deliberately shares no code with the package under test: enumeration over
report outcomes, idealized random hash functions via random.Random, and
Monte Carlo with numpy's own Generator.  Tests compare package output against
these, or against literals frozen from running this module.

Two helpers are the exception and take a package function as a callable.
`lh_seed_averaged_asr` averages over the package's own hash, so the seed
population it samples is the one the simulator uses.  The exhaustive solvers
at the end take the package's scalar objective and restate the per-point
searches the adaptive solvers ran before they screened their grids (same
grids, ties to the smallest candidate, and scipy's bounded refinement for the
continuous parameters), so the screened solvers can be held to them bit for
bit.
"""

import math
import random
from itertools import combinations

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar


def grr_pq(eps, k):
    e = math.exp(eps)
    p = e / (e + k - 1)
    return p, (1 - p) / (k - 1)


def sue_pq(eps):
    e = math.exp(eps / 2)
    return e / (e + 1), 1 / (e + 1)


def oue_pq(eps):
    return 0.5, 1 / (math.exp(eps) + 1)


def ss_pure(eps, k, omega):
    e = math.exp(eps)
    p_star = omega * e / (omega * e + k - omega)
    q_star = (omega * e * (omega - 1) + (k - omega) * omega) / (
        (k - 1) * (omega * e + k - omega))
    return p_star, q_star


def lh_pq(eps, g):
    e = math.exp(eps)
    return e / (e + g - 1), 1 / g


def the_pq(eps, theta):
    p = 1 - 0.5 * math.exp(eps * (theta - 1) / 2)
    q = 0.5 * math.exp(-eps * theta / 2)
    return p, q


def pure_variance(p_star, q_star, n=1):
    """First-order per-coordinate variance of the pure-protocol estimator."""
    return q_star * (1 - q_star) / (n * (p_star - q_star) ** 2)


def exact_mean_variance(p_star, q_star, k, n=1):
    """Exact mean over coordinates of Var[f_hat_i], any true frequency vector.

    Var[f_hat_i] = [f_i p*(1-p*) + (1-f_i) q*(1-q*)] / (n (p*-q*)^2); averaging
    over i with sum f_i = 1 leaves the data-independent value below.  The
    estimator is unbiased, so this is also the expected empirical MSE of a
    run, and the empirical-MSE tests assert against it.  The second term is
    what the conventional first-order form (`pure_variance`, the package's
    `analytic_mse`) drops; it dominates at large eps.
    """
    return pure_variance(p_star, q_star, n) + (1 - p_star - q_star) / (
        k * n * (p_star - q_star))


def ue_asr_subset_enum(p, q, k):
    """Exact attack success rate for bit-vector reports by subset enumeration.

    Success picks uniformly among set bits; an all-zero report falls back to a
    uniform guess over the domain.  Enumerates the 2^(k-1) competitor patterns,
    so keep k small.
    """
    total = 0.0
    others = range(k - 1)
    for s in range(k):
        for comb in combinations(others, s):
            pr = q ** s * (1 - q) ** (k - 1 - s)
            total += pr * p / (1 + s)
            if s == 0:
                total += pr * (1 - p) / k
    return total


def ue_asr_binomial(p, q, k):
    """Same quantity via the binomial collapse, in log space; any k."""
    if q == 0.0:
        return p + (1 - p) / k
    logq, log1q = math.log(q), math.log1p(-q)
    logs = []
    # log of p * C(k-1, m-1) q^(m-1) (1-q)^(k-m) / m   for m = 1..k
    for m in range(1, k + 1):
        lt = (math.log(p) + math.lgamma(k) - math.lgamma(m) - math.lgamma(k - m + 1)
              + (m - 1) * logq + (k - m) * log1q - math.log(m))
        logs.append(lt)
    hi = max(logs)
    acc = sum(math.exp(lt - hi) for lt in logs)
    hit = math.exp(hi) * acc
    miss = (1 - p) * math.exp((k - 1) * log1q) / k
    return hit + miss


def bitvector_asr_closed(p, q, k):
    """Same quantity in closed form, for q > 0: the other set bits number
    B ~ Binomial(k-1, q), E[1/(1+B)] = (1-(1-q)^k)/(kq), and an empty
    report (the true bit off, B = 0) falls back to a uniform guess.  p and
    q may be floats or arrays."""
    l1q = np.log1p(-np.asarray(q, dtype=float))
    return (p * -np.expm1(k * l1q) / (k * q)
            + (1 - p) * np.exp((k - 1) * l1q) / k)


def lh_asr_ideal(p, k, g, trials, seed=0):
    """Attack success rate under an idealized uniformly random hash, averaged
    over `trials` independent hash functions with the conditional success
    probability computed exactly (no report sampling noise)."""
    rnd = random.Random(seed)
    acc = 0.0
    for _ in range(trials):
        buckets = [rnd.randrange(g) for _ in range(k)]
        counts = [0] * g
        for b in buckets:
            counts[b] += 1
        empty = sum(1 for c in counts if c == 0)
        # true item x: success = p / |preimage(bucket(x))|, plus the fallback
        # 1/k guess when the perturbed bucket has an empty preimage
        s = 0.0
        for x in range(k):
            s += p / counts[buckets[x]]
        s /= k
        s += (1 - p) / (g - 1) * empty / k if g > 1 else 0.0
        acc += s
    return acc / trials


def lh_seed_averaged_asr(hash_buckets, seeds, eps, k, g, true_x):
    """Expected LH attack success for a fixed true value, averaged over the
    64-bit hash seeds `seeds`, with each seed's success probability computed
    exactly: p over the true bucket's preimage size, plus the uniform 1/k
    fallback of every empty bucket.  `hash_buckets(seeds, xs, g)` gives the
    0-based buckets of the 1-based categories xs.  Returns (mean, stderr).
    """
    e = math.exp(eps)
    p = e / (e + g - 1)
    q = (1 - p) / (g - 1)
    n = len(seeds)
    buckets = hash_buckets(np.asarray(seeds, dtype=np.uint64)[:, None],
                           np.arange(1, k + 1)[None, :], g)
    rows = np.arange(n)
    counts = np.zeros((n, g), dtype=np.int64)
    np.add.at(counts, (rows[:, None], buckets), 1)
    pre_x = counts[rows, buckets[:, true_x - 1]]
    # the true value's own bucket is never empty, so every empty bucket is a
    # miss that falls back to the uniform 1/k guess
    empties = np.count_nonzero(counts == 0, axis=1)
    per_seed = p / pre_x + q * empties / k
    return float(per_seed.mean()), float(per_seed.std(ddof=1) / math.sqrt(n))


def lh_asr_exact(p, k, g):
    """Closed form of the idealized-hash ASR via E[1/(1+Binomial(k-1,1/g))]."""
    t = (1 - 1 / g) ** (k - 1)
    hit = p * (g / k) * (1 - (1 - 1 / g) ** k)
    miss = (1 - p) * t / k
    return hit + miss


def lh_asr_approx(eps, k, g):
    """The coarse closed form that treats every preimage as having k/g items."""
    e = math.exp(eps)
    return e / ((e + g - 1) * max(k / g, 1.0))


def she_asr_mc(eps, k, trials, seed=0):
    """Monte Carlo ASR for Laplace-summation reports, numpy Generator."""
    rng = np.random.default_rng(seed)
    b = 2.0 / eps
    hits = 0
    chunk = 200_000
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        z = rng.laplace(0.0, b, size=(m, k))
        z[:, 0] += 1.0
        hits += int(np.count_nonzero(np.argmax(z, axis=1) == 0))
        done += m
    return hits / trials


def splitmix_draws(seed, first, count):
    """Draws first, ..., first + count - 1 of the counter-based splitmix64
    stream `seed` (Steele, Lea and Flood, OOPSLA 2014): draw c is the
    splitmix64 finalizer of seed + (c + 1) 0x9E3779B97F4A7C15 mod 2^64."""
    u = np.uint64
    with np.errstate(over="ignore"):
        z = u(seed) + np.arange(first + 1, first + 1 + count, dtype=u) * u(
            0x9E3779B97F4A7C15)
        z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    return z ^ (z >> u(31))


def she_mc_hits(eps, k, trials, seed):
    """Attack hits of the SHE Monte Carlo with every draw transformed: trial
    t takes draws t k, ..., t k + k - 1 of `splitmix_draws`;
    each becomes the Laplace(0, 2/eps) sample of its 53-bit uniform
    (j + 1/2) 2^-53 - 1/2, j capped at 2^53 - 2, and the trial hits when the
    first coordinate's sample + 1 is its row's first maximum."""
    b = 2.0 / eps
    rows = max(1, 2 ** 18 // k)
    hits = 0
    for t0 in range(0, trials, rows):
        m = min(rows, trials - t0)
        z = splitmix_draws(seed, t0 * k, m * k).reshape(m, k)
        j = np.minimum((z >> np.uint64(11)).astype(float), 2.0 ** 53 - 2)
        u = (j + 0.5) * 2.0 ** -53 - 0.5
        v = np.copysign(np.log1p(np.abs(u) * -2.0) * b, u)
        v[:, 0] += 1.0
        hits += int(np.count_nonzero(np.argmax(v, axis=1) == 0))
    return hits


def she_asr_exact(eps, k):
    """Pr[Z_0 + 1 > max of Z_1..Z_{k-1}] for Z i.i.d. Laplace(0, 2/eps), by
    quadrature of f(z) F(z + 1)^(k-1) over z, with f and F the Laplace
    density and CDF; split at the kinks z = -1 and z = 0."""
    b = 2.0 / eps

    def cdf(x):
        return 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)

    def integrand(z):
        return math.exp(-abs(z) / b) / (2 * b) * cdf(z + 1.0) ** (k - 1)

    cuts = (-math.inf, -1.0, 0.0, math.inf)
    return sum(quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
               for lo, hi in zip(cuts, cuts[1:]))


def she_variance(eps, n=1):
    return 8.0 / (n * eps * eps)


def grr_asr(eps, k):
    e = math.exp(eps)
    return e / (e + k - 1)


def ss_asr(eps, k, omega):
    e = math.exp(eps)
    return e / (omega * e + k - omega)


def ss_alt_variance(eps, k, omega, n=1):
    """The longer closed-form subset-variance expression, for adjudication.

    Kept in the factored form generic + excess; algebraically identical to the
    fully expanded rational expression.
    """
    e = math.exp(eps)
    p_star, q_star = ss_pure(eps, k, omega)
    extra = (k - 1) * e * (k - omega + (omega - 1) * e) / (
        (k - omega) ** 2 * (e - 1) ** 2 * n)
    return pure_variance(p_star, q_star, n) + extra


def the_variance(eps, theta, n=1):
    p, q = the_pq(eps, theta)
    return pure_variance(p, q, n)


def optimal_theta(eps):
    """MSE-minimizing threshold via plain golden-section on [0.5, 1]."""
    lo, hi = 0.5, 1.0
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = the_variance(eps, c), the_variance(eps, d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = the_variance(eps, c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = the_variance(eps, d)
    return (a + b) / 2


def ue_pq_from_p(eps, p):
    """Tight unary-encoding pair with the given keep probability."""
    e = math.exp(eps)
    return p, p / (e * (1 - p) + p)


def she_mse_exact(eps, n=1):
    return 8.0 / (n * eps * eps)


def ss_outcome_prob(eps, k, omega, x, subset):
    """Exact probability that subset-selection with true value x emits the
    given subset: inclusion branch uniform over C(k-1, omega-1) completions,
    exclusion branch uniform over C(k-1, omega) subsets avoiding x."""
    e = math.exp(eps)
    p_inc = omega * e / (omega * e + k - omega)
    if x in subset:
        return p_inc / math.comb(k - 1, omega - 1)
    return (1 - p_inc) / math.comb(k - 1, omega)


def enumerated_asr(cfg, x):
    """Expected attack success for true value x, as the sum over the report
    space of Pr[report] Pr[guess = x | report], for a GRR, SS, UE or THE
    config (read by attribute: family, eps, k and its one parameter; UE's
    q is derived here from p, by the tightness identity)."""
    if cfg.family == "grr":
        # the guess is the report itself
        return grr_pq(cfg.eps, cfg.k)[0]
    if cfg.family == "ss":
        # uniform over the reported subset
        omega = cfg.param
        return sum(ss_outcome_prob(cfg.eps, cfg.k, omega, x, set(sub)) / omega
                   for sub in combinations(range(1, cfg.k + 1), omega)
                   if x in sub)
    if cfg.family == "ue":
        # q solves p(1-q)/((1-p)q) = e^eps
        p = cfg.param
        q = p / (p + (1 - p) * math.exp(cfg.eps))
    else:
        p, q = the_pq(cfg.eps, cfg.param)
    # uniform over the set bits; by symmetry the same for every x
    return ue_asr_subset_enum(p, q, cfg.k)


# -- exhaustive solvers -------------------------------------------------------
# `f` maps one parameter value to the package's scalar objective.

def grid_argmin(f, candidates):
    """Evaluate f at every candidate; the first (smallest) minimizer wins."""
    best_x, best_f = None, None
    for c in candidates:
        v = f(c)
        if best_f is None or v < best_f:
            best_x, best_f = c, v
    return best_x, best_f


def grid_then_refine(f, grid, step, lo, hi, tol=1e-6):
    """Grid argmin, then bounded Brent search within one step of it; the
    refined point replaces the grid point only when strictly better."""
    x0, f0 = grid_argmin(f, grid)
    res = minimize_scalar(f, bounds=(max(lo, x0 - step), min(hi, x0 + step)),
                          method="bounded", options={"xatol": tol})
    return float(res.x) if float(res.fun) < f0 else x0


def ass_exhaustive(f, k):
    """Subset size: every omega in [1, k-1] (w_asr > 0)."""
    return grid_argmin(f, range(1, k))[0]


def aue_exhaustive(f):
    """Keep-probability: 1024 points of [0.5, 1), refined below 1 - 1e-6."""
    grid = np.linspace(0.5, 1.0, 1025)[:1024].tolist()
    return grid_then_refine(f, grid, 0.5 / 1024, 0.5, 1 - 1e-6)


def alh_exhaustive(f, eps, k):
    """Hash range: every g in [2, max(k, round(e^eps + 1))]."""
    hi = max(k, int(math.floor(math.exp(eps) + 1.5)))
    return grid_argmin(f, range(2, hi + 1))[0]


def athe_exhaustive(f):
    """Threshold: 1024 points of [0.5, 1], refined in the winning cell."""
    grid = np.linspace(0.5, 1.0, 1024).tolist()
    return grid_then_refine(f, grid, 0.5 / 1023, 0.5, 1.0)

"""The eight frequency-estimation protocols.

Per-user reference implementations (perturb / support / estimate) plus the
closed forms shared by the optimizer and the sweep harness: each pure
family's (p*, q*) in `PAIRS`, of (eps, k, param) for a float param or an
array, and the analytic MSE.  Vectorized kernels, run over blocks of users,
live in `simulate`; they reproduce these functions draw-for-draw.

Families and their standard instantiations:

- GRR: direct randomized response over k categories.
- SS: report a size-omega subset; omega = round(k/(e^eps+1)) clipped to >= 1
  minimizes the first-order variance.
- UE: per-bit randomized one-hot; symmetric variant keeps p = e^(eps/2)/(e^(eps/2)+1),
  the variance-optimized variant fixes p = 1/2, q = 1/(e^eps+1).
- LH: hash to g buckets (seed travels with the report), then GRR over buckets;
  g = 2 is the binary variant, g = round(e^eps+1) the variance-optimized one.
- SHE: add Laplace(2/eps) noise to the one-hot vector.
- THE: SHE followed by thresholding at theta, giving a bit vector with
  p = 1 - exp(eps(theta-1)/2)/2 and q = exp(-eps*theta/2)/2.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from .model import (
    MAX_G,
    BitVectorReport,
    CategoryReport,
    EmptyInput,
    Family,
    HashedReport,
    ProtocolConfig,
    PureParams,
    RangeError,
    RealVectorReport,
    RngStream,
    SubsetReport,
    UnsupportedFamily,
    check_param,
    is_int,
    libm,
    mix64,
    mix64_inplace,
    past_overflow,
    ue_pair_from_p,
)

_U64 = np.uint64
_HGAMMA = 0x9E3779B97F4A7C15


def round_half_away(x: float) -> int:
    """Nearest integer, halves away from zero (so 2.5 -> 3, -2.5 -> -3)."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def hash_bucket(seed: int, x: int, g: int) -> int:
    """Bucket of category x (1-based) under the seeded hash, in 1..g."""
    return int(mix64(seed ^ mix64(x * _HGAMMA))) % g + 1


def hash_buckets(seeds, xs, g: int | None = None) -> np.ndarray:
    """Vectorized `hash_bucket` minus 1 (0-based buckets); broadcasts.

    `xs` are 1-based categories, as in the scalar form.  With g None it
    returns the 64-bit hashes themselves, whose `hash_remainder` by any g
    gives that g's buckets.
    """
    hx = np.array(xs, dtype=_U64)
    hx *= _U64(_HGAMMA)
    h = np.asarray(np.asarray(seeds, dtype=_U64) ^ mix64_inplace(hx))
    mix64_inplace(h)
    if g is None:
        return h
    # buckets are below g <= 2^63 (a config's own check), so they fit int64
    return hash_remainder(h, g, np.empty_like(h)).view(np.int64)


def hash_remainder(h: np.ndarray, g: int, out: np.ndarray) -> np.ndarray:
    """h mod g for the uint64 array `h`, written to `out`, a uint64 array of
    its shape other than h; returns `out`.  A power of two g masks; any
    other takes h - (h // g) g, exact in uint64 and, on numpy 2.4 (x86_64),
    about three times faster than its uint64 `remainder`."""
    if g & (g - 1):
        np.floor_divide(h, _U64(g), out=out)
        out *= _U64(g)
        np.subtract(h, out, out=out)
    else:
        np.bitwise_and(h, _U64(g - 1), out=out)
    return out


# -- parameter pairs ----------------------------------------------------------

def grr_params(eps: float, k: int) -> tuple:
    """GRR's p = e^eps/(e^eps+k-1) and q = (1-p)/(k-1); `k` may be an array."""
    e = math.exp(eps)
    p = e / (e + k - 1)
    return p, (1 - p) / (k - 1)


def sue_params(eps: float) -> tuple:
    """Symmetric UE pair (p, q) with p + q = 1.  Raises RangeError where p
    rounds to 1: at some eps past 106 ln 2 (e^(eps/2) = 2^53), at all past
    74.45."""
    s = math.exp(eps / 2)
    if s / (s + 1) == 1:
        raise RangeError("eps", "such that sue's p = e^(eps/2)/(e^(eps/2)+1) "
                         "is below 1 (every eps <= 73.47 is)", eps)
    return s / (s + 1), 1 / (s + 1)


def oue_params(eps: float) -> tuple:
    """Variance-optimized UE pair (1/2, 1/(e^eps+1))."""
    return 0.5, 1 / (math.exp(eps) + 1)


def ss_default_omega(eps: float, k: int) -> int:
    """Variance-minimizing subset size, round(k/(e^eps+1)) clipped to >= 1."""
    return max(1, round_half_away(k / (math.exp(eps) + 1)))


def olh_g(eps: float) -> int:
    """Variance-optimized hash range round(e^eps + 1).  Raises RangeError
    where it passes 2^63, the largest g a config holds: past eps = 63 ln 2."""
    g = round_half_away(math.exp(eps) + 1)
    if g > MAX_G:
        raise RangeError("eps", "such that olh's g = round(e^eps + 1) is at "
                         "most 2^63 (every eps <= 63 ln 2 = 43.668 is)", eps)
    return g


def the_params(eps: float, theta) -> tuple:
    """Per-bit (p, q) of the thresholded report; theta may be an array."""
    p = 1 - 0.5 * libm(math.exp, eps * (theta - 1) / 2)
    q = 0.5 * libm(math.exp, -eps * theta / 2)
    return p, q


def ss_pure_pair(eps: float, k: int, omega):
    """(p*, q*) of the size-omega subset report; `omega` may be an array.

    Where q*'s denominator overflows (eps near its cap, large k), both
    ratios are taken divided through by w e^eps, which cannot overflow."""
    e = math.exp(eps)
    w = omega
    den = (k - 1) * (w * e + k - w)
    p_star = past_overflow(den, w * e / (w * e + k - w),
                           lambda: 1 / (1 + (k - w) / w / e))
    q_star = past_overflow(den, (w * e * (w - 1) + (k - w) * w) / den,
                           lambda: ((w - 1 + (k - w) / e)
                                    / ((k - 1) * (1 + (k - w) / w / e))))
    return p_star, q_star


def lh_pair(eps: float, k: int, g):
    """(p*, q*) of the report hashed to g buckets: GRR's p over the
    buckets, and 1/g; `g` may be an array."""
    return grr_params(eps, g)[0], 1 / g


# each pure family's (p*, q*) as a function of (eps, k, param), where the
# param may be a float or an array of them; GRR has no param
PAIRS = {
    Family.GRR: lambda eps, k, _: grr_params(eps, k),
    Family.SS: ss_pure_pair,
    Family.UE: lambda eps, k, p: ue_pair_from_p(eps, p),
    Family.LH: lh_pair,
    Family.THE: lambda eps, k, theta: the_params(eps, theta),
}


def pure_params(cfg: ProtocolConfig) -> PureParams:
    """(p*, q*) of any pure family (`PAIRS` at the config's param), UE's q
    derived from p; SHE has none.

    Raises
    ------
    UnsupportedFamily
        For SHE.
    RangeError
        On eps where p* <= q*: where e^eps rounds to 1, or the pair to equal.
    """
    if cfg.family not in PAIRS:
        raise UnsupportedFamily("SHE is not pure; it has no (p*, q*)")
    pp = PureParams(*PAIRS[cfg.family](cfg.eps, cfg.k, cfg.param))
    if pp.p_star <= pp.q_star:
        raise RangeError("eps", f"large enough that p* > q* at k={cfg.k} "
                         f"(p* = {pp.p_star!r}, q* = {pp.q_star!r})", cfg.eps)
    return pp


# -- perturbation -------------------------------------------------------------

def _check_x(x: int, k: int) -> None:
    """Raise RangeError unless the user value x is an integer in [1, k]."""
    if not (is_int(x) and 1 <= x <= k):
        raise RangeError("x", f"an integer in [1, {k}]", x)


def _uniform_other(u: float, x0: int, k: int) -> int:
    """Map u in [0,1) to a 0-based category != x0, uniformly."""
    j = min(int(u * (k - 1)), k - 2)
    return j + (j >= x0)


def grr_perturb(x: int, eps: float, k: int, rng: RngStream) -> CategoryReport:
    """Report x with probability e^eps/(e^eps+k-1), else a uniform other."""
    _check_x(x, k)
    p = grr_params(eps, k)[0]
    u = rng.uniform()
    if u < p:
        return CategoryReport(x)
    return CategoryReport(_uniform_other((u - p) / (1 - p), x - 1, k) + 1)


def ss_perturb(x: int, eps: float, k: int, omega: int, rng: RngStream) -> SubsetReport:
    """Report a uniform size-omega subset biased to include x.

    x enters with probability p* (`ss_pure_pair`); the other
    slots are a uniform subset of the remaining categories, chosen as the
    smallest random 64-bit keys (one key per candidate, drawn in category
    order, which is what the vectorized kernel does too).
    """
    omega = check_param(Family.SS, omega, k=k)
    _check_x(x, k)
    include = rng.uniform() < ss_pure_pair(eps, k, omega)[0]
    others = [c for c in range(1, k + 1) if c != x]
    keys = [(rng.u64(), c) for c in others]
    keys.sort()
    take = omega - 1 if include else omega
    chosen = [c for _, c in keys[:take]]
    if include:
        chosen.append(x)
    return SubsetReport(tuple(sorted(chosen)))


def ue_perturb(x: int, p: float, q: float, k: int, rng: RngStream) -> BitVectorReport:
    """Randomized one-hot: bit x keeps with probability p, others flip on
    with probability q; one draw per bit in index order."""
    _check_x(x, k)
    u = rng.uniforms(k)
    thresholds = np.full(k, q)
    thresholds[x - 1] = p
    return BitVectorReport((u < thresholds).astype(np.uint8))


def lh_perturb(x: int, eps: float, k: int, g: int, rng: RngStream) -> HashedReport:
    """Draw a fresh hash seed, bucket x, then GRR over the g buckets."""
    g = check_param(Family.LH, g)
    _check_x(x, k)
    seed = rng.u64()
    bucket = grr_perturb(hash_bucket(seed, x, g), eps, g, rng)
    return HashedReport(seed, bucket.value)


def she_perturb(x: int, eps: float, k: int, rng: RngStream) -> RealVectorReport:
    """One-hot of x plus i.i.d. Laplace(0, 2/eps) noise per coordinate."""
    _check_x(x, k)
    b = 2.0 / eps
    v = rng.laplaces(k, b)
    v[x - 1] += 1.0
    return RealVectorReport(v)


def the_threshold(v, theta: float) -> BitVectorReport:
    """Bit i = 1 iff v_i > theta."""
    theta = check_param(Family.THE, theta)
    vals = v.values if isinstance(v, RealVectorReport) else np.asarray(v, dtype=float)
    return BitVectorReport((vals > theta).astype(np.uint8))


def the_perturb(x: int, eps: float, k: int, theta: float, rng: RngStream) -> BitVectorReport:
    """SHE noise followed by thresholding; k draws, like she_perturb."""
    return the_threshold(she_perturb(x, eps, k, rng), theta)


# each family's (x, eps, k[, param], rng) perturbation; UE's via pure_params
PERTURBS = {Family.GRR: grr_perturb, Family.SS: ss_perturb,
            Family.UE: lambda x, eps, k, p, rng: ue_perturb(x, *astuple(
                pure_params(ProtocolConfig(Family.UE, eps, k, p))), k, rng),
            Family.LH: lh_perturb, Family.SHE: she_perturb,
            Family.THE: the_perturb}


def perturb(x: int, cfg: ProtocolConfig, rng: RngStream):
    """Dispatch to the family's perturbation in `PERTURBS`."""
    param = () if cfg.param is None else (cfg.param,)
    return PERTURBS[cfg.family](x, cfg.eps, cfg.k, *param, rng)


# -- support and estimation ---------------------------------------------------

# each family's report class
REPORTS = {Family.GRR: CategoryReport, Family.SS: SubsetReport,
           Family.UE: BitVectorReport, Family.LH: HashedReport,
           Family.SHE: RealVectorReport, Family.THE: BitVectorReport}


def check_report(report, fam: Family) -> None:
    """Raise UnsupportedFamily unless `report` is of `fam`'s report class."""
    if not isinstance(report, REPORTS[fam]):
        raise UnsupportedFamily(f"report does not match family {fam.value}")


def support(report, cfg: ProtocolConfig) -> frozenset:
    """Categories (1-based) the report supports.

    LH recomputes the hash of all k candidates, an intentional O(k) cost.
    SHE reports support no discrete set.
    """
    fam = cfg.family
    if fam not in PAIRS:
        raise UnsupportedFamily("SHE reports have no support set")
    check_report(report, fam)
    if fam is Family.GRR:
        return frozenset((report.value,))
    if fam is Family.SS:
        return frozenset(report.values)
    if fam is Family.LH:
        cats = np.arange(1, cfg.k + 1)
        buckets = hash_buckets(_U64(report.seed), cats, cfg.param) + 1
        return frozenset(int(c) for c in cats[buckets == report.value])
    return frozenset(int(i) + 1 for i in np.flatnonzero(report.bits))


def estimate_from_counts(counts: np.ndarray, n: int, pp: PureParams) -> np.ndarray:
    """Unbiased estimate (C_i - n q*)/(n (p* - q*)) per coordinate."""
    return (np.asarray(counts, dtype=float) - n * pp.q_star) / (n * (pp.p_star - pp.q_star))


def estimate_frequencies(reports, cfg: ProtocolConfig) -> np.ndarray:
    """Frequency estimate from pure-protocol reports via support counts."""
    if len(reports) == 0:
        raise EmptyInput("no reports")
    pp = pure_params(cfg)
    counts = np.zeros(cfg.k, dtype=np.int64)
    for r in reports:
        for c in support(r, cfg):
            counts[c - 1] += 1
    return estimate_from_counts(counts, len(reports), pp)


def she_estimate(reports) -> np.ndarray:
    """Coordinate means of the noisy vectors (already frequency-scaled)."""
    if len(reports) == 0:
        raise EmptyInput("no reports")
    vecs = [r.values if isinstance(r, RealVectorReport) else np.asarray(r, float)
            for r in reports]
    return np.mean(np.stack(vecs), axis=0)


# -- analytic MSE -------------------------------------------------------------

def first_order_mse(p_star, q_star, n: float = 1):
    """q*(1-q*)/(n (p*-q*)^2), on floats or elementwise on arrays; the square
    is libm's pow, as python's `**` takes it (it can miss d * d by an ulp)."""
    square = libm(lambda d: d ** 2, p_star - q_star)
    return q_star * (1 - q_star) / (n * square)


def analytic_mse(cfg: ProtocolConfig, n: float = 1) -> float:
    """Closed-form approximate estimator variance, per user at n=1.

    Pure families use the first-order form at their (p*, q*) (for UE, LH, THE
    the published per-family closed forms reduce to it algebraically; for SS
    the Monte Carlo of acceptance criterion 8 rejects a longer alternative
    form, though it cannot tell this one from the exact variance).  SHE is
    exact: 8/(n eps^2).  Raises RangeError where (eps, n) make the value
    overflow or divide by zero.
    """
    try:
        mse = (first_order_mse(*astuple(pure_params(cfg)), n)
               if cfg.family in PAIRS else 8.0 / (n * cfg.eps ** 2))
    except ZeroDivisionError:
        mse = math.inf
    if not math.isfinite(mse):
        raise RangeError("(eps, n)", "such that the analytic MSE is finite",
                         (cfg.eps, n))
    return mse

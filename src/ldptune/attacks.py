"""Per-report distinguishability attacks and their success-rate calculators.

The attacker sees one obfuscated report and guesses the user's value under a
uniform prior: GRR's guess is the report itself; subset/bit-vector/hashed
reports are guessed uniformly over their support (uniform over the whole
domain when the support is empty); noisy real vectors are guessed by argmax.

Each pure family has one closed-form ASR in `ASRS`, of (eps, k, param) for
a float param or an array: `expected_asr` reads it for one config, the
optimizer for a grid.  SHE gets the Monte Carlo `expected_asr_she_mc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    GAMMA,
    MASK64,
    PASS_SIZE,
    EmptyInput,
    Family,
    ProtocolConfig,
    RangeError,
    RngStream,
    UnsupportedFamily,
    check_count,
    check_eps,
    check_k,
    derive_stream,
    draws_u64,
    laplace_inplace,
    libm,
    mix64_final,
    mix64_rounds,
    order_margin,
    past_overflow,
    ue_pair_from_p,
)
from .protocols import check_report, grr_params, support, the_params

# the SHE Monte Carlo's master seed, from which each (eps, k) point derives
# its stream, and its trial count unless a caller sets one
DEFAULT_ORACLE_SEED = 0x0A5CE5EED
DEFAULT_SHE_TRIALS = 10 ** 6


# log(2 pi)/2 and the Stirling-series coefficients of Cephes `lgam` used
# below j = 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_lgam_cache = np.zeros(0)


def _lgam(first: int, last: int) -> np.ndarray:
    """log Gamma(j) for the integers j = first..last (first >= 13), to the
    bit as `lgam` of the Cephes Math Library (S. L. Moshier) computes it;
    scipy.special.gammaln (BSD-3) runs the same code.

    It is the Stirling series: the 5-coefficient polynomial in 1/j^2 below
    1000, three terms from 1000 on, none past 1e8.  Logs are libm's
    (`math.log`), as in Cephes: numpy's own log differs from libm in the
    last bit on a few inputs.  The arithmetic is numpy's, in Cephes' order;
    each step rounds as the scalar one does.
    """
    x = np.arange(first, last + 1, dtype=float)
    q = (x - 0.5) * libm(math.log, x) - x + _LS2PI
    p = 1.0 / (x * x)
    poly = np.full(len(x), _LGAM_A[0])
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    three = ((7.9365079365079365079365e-4 * p
              - 2.7777777777777777777778e-3) * p
             + 0.0833333333333333333333) / x
    return np.where(x > 1.0e8, q,
                    q + np.where(x >= 1000.0, three, poly / x))


def lgamma_table(k: int) -> np.ndarray:
    """log Gamma(j) for j = 1..k, read-only, as Cephes `lgam` gives it.

    Below 13 it is the log of (j-1)!, which float64 holds exactly; from 13
    on see `_lgam`.  The table only grows, so each value is computed once
    per process (8 bytes per entry are kept); a forked worker process
    starts from its parent's table.
    """
    global _lgam_cache
    table = _lgam_cache
    if len(table) < k:
        start = len(table) + 1
        small = [math.log(float(math.factorial(j - 1)))
                 for j in range(start, min(k, 12) + 1)]
        table = np.concatenate(
            (table, small, _lgam(max(start, 13), k)))
        table.flags.writeable = False
        _lgam_cache = table
    return table[:k]


def logsumexp(a):
    """log(sum(exp(a))) over the last axis of `a`, to the bit as
    scipy.special.logsumexp (BSD-3) returns it for real input and no weights.

    The maxima are taken out of the sum: with c of them equal to the max,
    s = sum(exp(a - max)) / c over the rest, and the result is
    log1p(s) + log(c) + max.  Where that is not finite (an all -inf or a NaN
    row, a +inf entry) it is log(sum(exp(a))) instead.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        top = a == a_max
        count = np.sum(top, axis=-1, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=-1,
                   keepdims=True) / count
        out = np.log1p(s) + np.log(count) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.sum(np.exp(a), axis=-1, keepdims=True))
            out = np.where(finite, out, direct)
    return np.squeeze(out, axis=-1)[()]


@dataclass(frozen=True)
class AsrResult:
    """An attack success rate with its sample size and binomial stderr."""

    asr: float
    n: int
    stderr: float


def attack(report, cfg: ProtocolConfig, rng: RngStream) -> int:
    """The adversary's guess (1-based category) for one report.

    Subset, bit-vector, and hashed attacks consume exactly one uniform draw;
    category and real-vector attacks consume none.
    """
    fam = cfg.family
    if fam in (Family.SS, Family.UE, Family.THE, Family.LH):
        sup = sorted(support(report, cfg))
        u = rng.uniform()
        if not sup:
            return min(int(u * cfg.k), cfg.k - 1) + 1
        return sup[min(int(u * len(sup)), len(sup) - 1)]
    check_report(report, fam)
    if fam is Family.GRR:
        return report.value
    return int(np.argmax(report.values)) + 1


def empirical_asr(pairs) -> AsrResult:
    """Fraction of (true x, guess) pairs that match, with binomial stderr."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no attack outcomes")
    n = len(pairs)
    hits = sum(1 for x, x_hat in pairs if x == x_hat)
    asr = hits / n
    return AsrResult(asr, n, math.sqrt(asr * (1 - asr) / n))


def bitvector_expected_asr(p, q, k: int):
    """Expected ASR of the uniform-over-set-bits attack on randomized one-hot
    reports with keep probability p and flip-on probability q.

    (1-p)(1-q)^(k-1)/k for the empty-support fallback, plus the sum over
    support sizes m of p C(k-1,m-1) q^(m-1) (1-q)^(k-m) / m, evaluated in log
    space so k = 10^4 stays stable.  p and q may be floats, or equal-length
    arrays: then each pair's ASR, to the bit as a call per pair gives it,
    with len(p) x k temporaries.
    """
    scalar = np.ndim(p) == 0
    p, q = np.atleast_1d(p, q)
    asr = p + (1 - p) / k  # q = 0: only the true bit can be set
    on = q != 0
    if on.any():
        p, q = p[on], q[on]
        m = np.arange(1, k + 1, dtype=float)
        lgam = lgamma_table(k)
        l1q = libm(math.log1p, -q)
        logs = np.subtract.outer(libm(math.log, p) + lgam[-1], lgam)
        logs -= lgam[::-1]
        logs += np.multiply.outer(libm(math.log, q), m - 1)
        logs += np.multiply.outer(l1q, k - m)
        logs -= np.log(m)
        hit = libm(math.exp, logsumexp(logs))
        asr[on] = hit + (1 - p) * libm(math.exp, (k - 1) * l1q) / k
    return float(asr[0]) if scalar else asr


def lh_exact_expected_asr(eps: float, k: int, g: int) -> float:
    """Exact expected ASR of the hashed-report attack under an idealized
    uniformly random hash: E[1/(1+Binomial(k-1, 1/g))] has the closed form
    g(1-(1-1/g)^k)/k, and empty preimages contribute the uniform fallback.

    The coarser form in `lh_expected_asr` replaces the preimage size by
    k/g; the two drift apart when g is comparable to k.
    """
    p = grr_params(eps, g)[0]
    t = (1 - 1 / g) ** (k - 1)
    return p * (g / k) * (1 - (1 - 1 / g) ** k) + (1 - p) * t / k


def ss_expected_asr(eps: float, k: int, omega):
    """SS's ASR e^eps / (omega e^eps + k - omega); `omega` may be an array.

    Where the denominator overflows (omega >= 2 past eps = 709.09), it is
    taken divided through by e^eps, 1 / (omega + (k - omega) / e^eps)."""
    e = math.exp(eps)
    den = omega * e + k - omega
    return past_overflow(den, e / den, lambda: 1 / (omega + (k - omega) / e))


def lh_expected_asr(eps: float, k: int, g):
    """LH's ASR e^eps / ((e^eps + g - 1) max(k/g, 1)), a preimage-size
    approximation (see `lh_exact_expected_asr`); `g` may be an array.  Where
    the denominator overflows (only near the eps cap), it divides twice."""
    e = math.exp(eps)
    hashed = e + g - 1
    preimage = np.maximum(k / g, 1.0) if np.ndim(g) else max(k / g, 1.0)
    den = hashed * preimage
    return past_overflow(den, e / den, lambda: e / hashed / preimage)


# each pure family's closed-form ASR as a function of (eps, k, param), where
# the param may be a float or an array of them: GRR's is its p*, UE's and
# THE's the support-size sum at their (p*, q*)
ASRS = {
    Family.GRR: lambda eps, k, _: grr_params(eps, k)[0],
    Family.SS: ss_expected_asr,
    Family.UE: lambda eps, k, p: bitvector_expected_asr(
        *ue_pair_from_p(eps, p), k),
    Family.LH: lh_expected_asr,
    Family.THE: lambda eps, k, theta: bitvector_expected_asr(
        *the_params(eps, theta), k),
}


def expected_asr(cfg: ProtocolConfig) -> float:
    """Closed-form expected attack success rate of a pure family, `ASRS` at
    the config's param.  SHE has no closed form; use `expected_asr_she_mc`.
    """
    if cfg.family not in ASRS:
        raise UnsupportedFamily("SHE expected ASR is Monte Carlo; "
                                "use expected_asr_she_mc")
    return ASRS[cfg.family](cfg.eps, cfg.k, cfg.param)


# top bits of a raw draw that pick its bucket in the first SHE screen; the
# final xor-shift keeps 31, so the pre-final state has them too
_BUCKET_SHIFT = np.uint64(64 - 12)


def _bucket_cuts(b: float) -> tuple:
    """Cuts of the first SHE screen at Laplace scale b, over the 2^12
    buckets of raw draws by top 12 bits: (hit, miss), int64 arrays indexed
    by the bucket t of the others' largest draw.  A trial whose true draw
    lies in bucket t0 >= hit[t] hits; one with t0 < miss[t] misses.

    lo[t] and hi[t], the samples of bucket t's least and greatest draw
    widened by twice their `order_margin`, bound the sample of every draw in
    it.  So with the true draw in bucket t0 and the others' largest draw in
    bucket t, the trial hits if lo[t0] + 1 >= hi[t], and misses if
    hi[t0] + 1 < lo[t]: that largest draw is itself one of the others.  A
    running minimum of lo + 1 from above and a running maximum of hi + 1
    from below keep both bounds and make them monotone in t0, so that each
    cut is one binary search.
    """
    least = np.arange(1 << 12, dtype=np.uint64) << _BUCKET_SHIFT
    ends = np.stack((least, least | ((np.uint64(1) << _BUCKET_SHIFT)
                                     - np.uint64(1))))
    v_least, v_most = laplace_inplace(ends, b)
    lo = v_least - 2 * order_margin(v_least)
    hi = v_most + 2 * order_margin(v_most)
    lo_reach = np.minimum.accumulate((lo + 1.0)[::-1])[::-1]
    hi_reach = np.maximum.accumulate(hi + 1.0)
    return np.searchsorted(lo_reach, hi), np.searchsorted(hi_reach, lo)


def _she_hits(first: np.ndarray, top: np.ndarray, b: float, cuts: tuple,
              rows) -> tuple:
    """Attack hits among SHE Monte Carlo trials given two pre-final splitmix
    states each (`mix64_rounds`): `first`, the true coordinate's (column 0),
    and `top`, the largest state among the other columns.  `cuts` is
    `_bucket_cuts(b)`, and `rows(idx)` returns the raw draws of trials idx
    as a new (len(idx), k) array.
    Returns (hits, confirmed), where `confirmed` counts the trials decided
    by the full transform.

    A trial hits when argmax(L(z_0) + 1, L(z_1), ..., L(z_{k-1})) is 0, L
    being `laplace_inplace`; exact ties hit, because argmax takes the first.
    The final xor-shift 31 keeps bits 33..63 (the top 31 bits) of a state,
    so the others' largest raw draw shares top's top 31 bits.  Three
    screens decide a trial, each only where the one before cannot:

    1. Buckets: the top 12 bits of first and top give the buckets of the
       true draw and of the others' largest draw, and `_bucket_cuts` the
       bucket pairs where every pair of draws hits, or misses.
    2. Bracket: the others' largest draw lies between out_b, top finished
       (itself one of the other draws), and hi = top with bits 0..32 set.
       With v0 = L(z_0) + 1: v0 < L(out_b) is a miss; since no other
       sample exceeds L(hi) by more than `order_margin`,
       v0 >= L(hi) + order_margin(L(hi)) is a hit.
    3. Confirm: the rest go through the full row transform and argmax.
    """
    hit_cut, miss_cut = cuts
    # bucket numbers fit int64, which indexes without a conversion
    t0 = (first >> _BUCKET_SHIFT).view(np.int64)
    t = (top >> _BUCKET_SHIFT).view(np.int64)
    cut = hit_cut[t]
    hits = int(np.count_nonzero(t0 >= cut))
    unsure = np.flatnonzero((t0 < cut) & (t0 >= miss_cut[t]))
    m = unsure.size
    ends = np.empty((3, m), dtype=np.uint64)
    np.take(first, unsure, out=ends[0])
    np.take(top, unsure, out=ends[1])
    np.bitwise_or(ends[1], np.uint64((1 << 33) - 1), out=ends[2])
    mix64_final(ends[:2], np.empty((2, m), dtype=np.uint64))
    v0, vb, vh = laplace_inplace(ends, b)
    v0 += 1.0
    sure = vh + order_margin(vh)
    hits += int(np.count_nonzero(v0 >= sure))
    band = unsure[(v0 >= vb) & (v0 < sure)]
    if band.size:
        v = laplace_inplace(rows(band), b)
        v[:, 0] += 1.0
        hits += int(np.count_nonzero(np.argmax(v, axis=1) == 0))
    return hits, band.size


def expected_asr_she_mc(eps: float, k: int,
                        trials: int = DEFAULT_SHE_TRIALS) -> AsrResult:
    """Monte Carlo estimate of Pr[1 + Z_x > max of the other k-1 Z_i] with
    Z i.i.d. Laplace(0, 2/eps): sample, compare, average.

    Trial t takes draws t k, ..., t k + k - 1 of the stream of this (eps, k)
    point, the one every sweep uses, so equal arguments give equal estimates.
    The draws are mixed in passes of about 3 PASS_SIZE draws through reused
    buffers, and only to their pre-final states; each trial keeps column 0's
    state and the largest state of the rest.  `_she_hits` decides the
    trials, a group of at most PASS_SIZE / 2 at a time, from those two: the
    final xor-shift keeps a state's top 31 bits, which place the others'
    largest draw in a bucket and in a bracket, and only trials inside the
    bracket's order margin are regenerated in full.  So the estimate is the
    one a full transform of every draw gives, bit for bit.
    """
    check_count("trials", trials)
    check_eps(eps)
    check_k(k)
    b = 2.0 / eps
    # samples reach 53 ln 2 = 36.74 b; past that they would overflow
    if not math.isfinite(36.75 * b):
        raise RangeError("eps", "at least 73.5 / float max (4.09e-307), so "
                         "that Laplace samples of scale 2/eps are finite", eps)
    seed = derive_stream(DEFAULT_ORACLE_SEED,
                         int(round(eps * 10 ** 6)) & ((1 << 32) - 1), k).seed
    cuts = _bucket_cuts(b)
    # trials per pass: about 3 PASS_SIZE draws (2 and 4 PASS_SIZE were 5-15%
    # slower at k = 100 on a 2 MiB L2 x86_64 core), and whole passes per
    # screen group of at most PASS_SIZE / 2 trials, whatever k is
    per_pass = min(PASS_SIZE // 2, max(1, 3 * PASS_SIZE // k))
    group = PASS_SIZE // 2 // per_pass * per_pass
    # a pass holds column j of its i-th trial at [j, i], so that the row
    # maximum is an elementwise maximum of contiguous rows.  The draw of
    # counter c is mix64(seed + (c + 1) gamma): a pass starting at counter c
    # adds seed + c gamma to these offsets
    cols = np.arange(k, dtype=np.uint64)
    offsets = np.arange(per_pass, dtype=np.uint64) * np.uint64(k)
    offsets = (offsets + (cols + np.uint64(1))[:, None]) * np.uint64(GAMMA)
    buf = np.empty(offsets.size, dtype=np.uint64)
    scratch = np.empty_like(buf)
    first = np.empty(group, dtype=np.uint64)
    top = np.empty(group, dtype=np.uint64)
    hits = 0
    for g0 in range(0, trials, group):
        gm = min(group, trials - g0)
        for lo in range(0, gm, per_pass):
            m = min(per_pass, gm - lo)
            c = (g0 + lo) * k
            s = np.add(offsets[:, :m], np.uint64((seed + c * GAMMA) & MASK64),
                       out=buf[:m * k].reshape(k, m))
            mix64_rounds(buf[:m * k], scratch[:m * k])
            first[lo:lo + m] = s[0]
            np.max(s[1:], axis=0, out=top[lo:lo + m])

        def rows(idx, g0=g0):
            start = (idx.astype(np.uint64) + np.uint64(g0)) * np.uint64(k)
            return draws_u64(seed, start[:, None] + cols)

        hits += _she_hits(first[:gm], top[:gm], b, cuts, rows)[0]
    asr = hits / trials
    return AsrResult(asr, trials, math.sqrt(asr * (1 - asr) / trials))

"""Vectorized simulation kernels, run over byte-budgeted user blocks.

One `simulate_run` call simulates every user of one run: perturb, aggregate,
estimate, and attack, all as array operations.  It is the only loop over
users: it walks them in blocks of `BLOCK_BYTES // (8 k)` rows (GRR, which
holds no k-wide array, `BLOCK_BYTES // 8`), so one 64-bit array of a block
takes at most `BLOCK_BYTES` and memory stays flat in n.  Each per-family
kernel takes one block, adds its column counts (SHE: column sums) into the
run's running total and returns the block's attack successes.

Each user owns the counter-based stream derived from (master_seed, run,
user), whose j-th draw is addressable directly, so a block draws exactly the
values the whole run would and blocking changes no output bit.  The
per-family draw layout:

- grr: counter 0 = perturbation; the attack guess is the report itself.
- ss:  counter 0 = inclusion; 1..k-1 = selection keys for the non-true
       categories in category order; k = attack pick.
- ue:  counters 0..k-1 = bits in index order; k = attack pick.
- lh:  counter 0 = report hash seed (raw 64-bit); 1 = bucket perturbation;
       2 = attack pick.
- she: counters 0..k-1 = Laplace noise per coordinate; attack is argmax.
- the: counters 0..k-1 = Laplace noise, then thresholding; k = attack pick.

The scalar functions in `protocols`/`attacks` consume draws in exactly this
order, so for any user the kernel and the per-user reference path produce
identical reports and guesses (tested).

THE needs only whether each noisy coordinate exceeds theta, and the Laplace
transform follows the order of the draws, so its kernel compares the draws'
53-bit values with two integer cuts, found once per (eps, theta) and checked
against the transform wherever its rounding leaves the order in doubt.  UE
and THE compare the raw 64-bit draws with each cut shifted up 11 bits, which
tests the same 53-bit values without a shifted copy of the block.

The support families (SS, UE, LH, THE) share one attack count: the rank of
x0 among a row's set bits and the row's bit count come from one reduceat
over the block's flat bytes.  SS's threshold is the row minimum of its keys
at omega = 1 and a partition otherwise; its keys are released before its
selection masks are made, so every block allocates into the heap pages the
last one freed, where keeping them would grow and trim the heap each block.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import (
    PASS_SIZE,
    Family,
    ProtocolConfig,
    draws_laplace,
    draws_u64,
    draws_uniform,
    laplace_inplace,
    order_margin,
    stream_seeds,
)
from .protocols import (
    estimate_from_counts,
    hash_buckets,
    pure_params,
)

# byte budget of one k-wide 64-bit array of a user block
BLOCK_BYTES = 1 << 20


def block_rows(width: int) -> int:
    """Users per block when each user holds `width` 64-bit values."""
    return max(1, BLOCK_BYTES // (8 * width))


def _pick_other(u: np.ndarray, x0: np.ndarray, m: int) -> np.ndarray:
    """Map uniforms to a category in [0, m) excluding x0, uniformly (a
    negative u, on rows the caller discards, maps anywhere)."""
    j = np.minimum((u * (m - 1)).astype(np.int64), m - 2)
    return j + (j >= x0)


def _rank_attack_success(bits: np.ndarray, x0: np.ndarray, u_att: np.ndarray,
                         k: int) -> int:
    """Successes of the uniform-over-support attack on a boolean support
    block: pick the r-th set bit, or uniform over [k] when the row is empty."""
    rows = np.arange(x0.size)
    # x0's rank among the set bits is the count of set bits before it; one
    # pass over the flat block sums each row's segments [row k, row k + x0)
    # and [row k + x0, row k + k), so it gives that count and, added, m
    starts = np.empty(2 * x0.size, dtype=np.int64)
    starts[0::2] = rows * k
    starts[1::2] = starts[0::2] + x0
    seg = np.add.reduceat(bits.reshape(-1).view(np.int8), starts,
                          dtype=np.int32)
    before = seg[0::2]
    # reduceat sums an empty segment (x0 = 0) to its first element, not 0
    before[x0 == 0] = 0
    m = before + seg[1::2]
    r = np.minimum((u_att * m).astype(np.int64), np.maximum(m - 1, 0))
    hit = bits[rows, x0] & (before == r)
    fallback = np.minimum((u_att * k).astype(np.int64), k - 1)
    empty_hit = (m == 0) & (fallback == x0)
    return int(np.count_nonzero(hit)) + int(np.count_nonzero(empty_hit))


def _grr(cfg, x0, seeds, counts):
    k, p = cfg.k, pure_params(cfg).p_star
    u = draws_uniform(seeds, 0)
    keep = u < p
    y0 = np.where(keep, x0, _pick_other((u - p) / (1 - p), x0, k))
    counts += np.bincount(y0, minlength=k)
    return int(np.count_nonzero(keep))


def _ss(cfg, x0, seeds, counts):
    k, omega = cfg.k, cfg.param
    include = draws_uniform(seeds, 0) < pure_params(cfg).p_star
    keys = draws_u64(seeds[:, None], np.arange(1, k)[None, :])
    # included rows take the omega-1 smallest keys, excluded rows the omega
    # smallest
    if omega == 1:
        thr = keys.min(axis=1)
    else:
        # the per-row thresholds come from partitioning a slice of rows at a
        # time, so the partitioned copy stays at PASS_SIZE entries
        thr = np.empty(x0.size, dtype=np.uint64)
        step = max(1, PASS_SIZE // k)
        for lo in range(0, x0.size, step):
            part = np.partition(keys[lo:lo + step], omega - 1, axis=1)
            thr[lo:lo + step] = np.where(include[lo:lo + step],
                                         part[:, :omega - 1].max(axis=1),
                                         part[:, omega - 1])
    take = keys <= thr[:, None]
    # freed before the masks below are made, so each block reuses the same
    # heap pages instead of growing and trimming the heap
    del keys
    if omega == 1:
        take &= ~include[:, None]
    # key column j is category j below x0 and category j + 1 from x0 on
    below = np.arange(k - 1, dtype=np.int32) < x0.astype(np.int32)[:, None]
    sel = np.zeros((x0.size, k), dtype=bool)
    sel[:, :-1] = take & below
    sel[:, 1:] |= take & ~below
    sel[np.arange(x0.size), x0] = include
    counts += sel.sum(axis=0, dtype=np.int32)
    return _rank_attack_success(sel, x0, draws_uniform(seeds, k), k)


def _ue(cfg, x0, seeds, counts):
    k, pp = cfg.k, pure_params(cfg)
    rows = np.arange(x0.size)
    z = draws_u64(seeds[:, None], np.arange(k)[None, :])
    # for the 53-bit uniform u = (z >> 11) 2^-53, u < t is z >> 11 < C with
    # C = ceil(t 2^53), which is z < C 2^11: C <= 2^53 - 1 as t < 1
    bits = z < np.uint64(math.ceil(pp.q_star * 2.0 ** 53) << 11)
    bits[rows, x0] = z[rows, x0] < np.uint64(
        math.ceil(pp.p_star * 2.0 ** 53) << 11)
    counts += bits.sum(axis=0, dtype=np.int32)
    return _rank_attack_success(bits, x0, draws_uniform(seeds, k), k)


def _lh(cfg, x0, seeds, counts):
    k, g, p = cfg.k, cfg.param, pure_params(cfg).p_star
    # one call for the three per-user draws: hash seed, perturbation, pick
    z = draws_u64(seeds[:, None], np.arange(3)[None, :])
    buckets = hash_buckets(z[:, :1], np.arange(1, k + 1)[None, :], g)
    bx = buckets[np.arange(x0.size), x0]
    u, u_att = ((z[:, 1:] >> np.uint64(11)) * 2.0 ** -53).T
    y0 = np.where(u < p, bx, _pick_other((u - p) / (1 - p), bx, g))
    supp = buckets == y0[:, None]
    counts += supp.sum(axis=0, dtype=np.int32)
    return _rank_attack_success(supp, x0, u_att, k)


def _she(cfg, x0, seeds, sums):
    v = draws_laplace(seeds[:, None], np.arange(cfg.k)[None, :], 2.0 / cfg.eps)
    v[np.arange(x0.size), x0] += 1.0
    succ = int(np.count_nonzero(np.argmax(v, axis=1) == x0))
    # folding the running sum into row 0 keeps the whole run's sequential
    # row order, so the sums equal v.mean(axis=0)'s over all users bit for bit
    v[0] += sums
    np.add.reduce(v, axis=0, out=sums)
    return succ


def _first_above(f, x: float) -> int:
    """The first 53-bit draw j with f(j) > x (2^53 when there is none), by a
    63-probe search that narrows [lo, hi) 64-fold per round.  It keeps
    f(lo) <= x < f(hi), taking lo = -1 and hi = 2^53 as past the ends, and
    is exact only where f keeps the order of j, which `_order_cut` checks."""
    lo, hi = -1, 1 << 53
    while hi - lo > 1:
        probes = lo + (hi - lo) * np.arange(1, 64) // 64
        probes = probes[probes > lo]  # repeats, once hi - lo < 64, are harmless
        up = np.flatnonzero(f(probes.astype(np.uint64)) > x)
        if up.size == 0:
            lo = int(probes[-1])
            continue
        hi = int(probes[up[0]])
        if up[0]:
            lo = int(probes[up[0] - 1])
    return hi


def _order_cut(f, x: float, e: float) -> tuple:
    """(t, flips) such that, for every 53-bit draw j, f(j) > x exactly when
    (j >= t) != (j in flips), given that f breaks the order of j by at most
    e around x: f(j1) <= f(j2) + e whenever j1 < j2.

    Let lo and hi be draws with f(lo - 1) <= x - e < f(lo) and
    f(hi - 1) <= x + e < f(hi), as `_first_above` finds them.  Then every j < lo
    has f(j) <= f(lo - 1) + e <= x and every j >= hi has f(j) >= f(hi) - e
    > x, so only the draws in [lo, hi) are in doubt.  Each of them is
    evaluated; t puts the cut where their count of failures says, and any
    draw the cut misclassifies is listed in `flips` (read-only, and empty
    wherever f is monotone).
    """
    lo, hi = _first_above(f, x - e), _first_above(f, x + e)
    window = np.arange(lo, hi, dtype=np.uint64)
    above = f(window) > x
    t = lo + int(np.count_nonzero(~above))
    flips = window[above != (window >= np.uint64(t))]
    flips.setflags(write=False)
    return t, flips


@functools.lru_cache(maxsize=1024)
def _the_cuts(eps: float, theta: float) -> tuple:
    """THE's thresholds on the 53-bit draws j: the cut (t, flips) of
    L(j) > theta, for the other coordinates, and of L(j) + 1 > theta, for
    the true one, where L is `laplace_inplace` at b = 2/eps.  The second
    map's order breaks are L's near theta - 1 plus one rounding of the sum,
    at most an ulp (2^-52) of a value below 2."""
    b = 2.0 / eps

    def lap(j):
        return laplace_inplace(np.left_shift(j, np.uint64(11)), b)

    return (_order_cut(lap, theta, order_margin(theta)),
            _order_cut(lambda j: lap(j) + 1.0, theta,
                       order_margin(theta - 1.0) + 2.0 ** -52))


def _at_or_past(z: np.ndarray, t: int, flips: np.ndarray) -> np.ndarray:
    """The predicate (j >= t) != (j in flips) of an `_order_cut`, for raw
    draws z with 53-bit values j = z >> 11.  j >= t is z >= t 2^11 for
    t < 2^53; at t = 2^53 no draw passes."""
    if t < 1 << 53:
        bits = z >= np.uint64(t << 11)
    else:
        bits = np.zeros(z.shape, dtype=bool)
    if flips.size:
        bits ^= np.isin(z >> np.uint64(11), flips)
    return bits


def _the(cfg, x0, seeds, counts):
    # noise L(j) on every coordinate and 1 more on the true one, thresholded
    # at theta: both tests are integer compares of the raw draws
    k = cfg.k
    rows = np.arange(x0.size)
    others, true = _the_cuts(cfg.eps, cfg.param)
    z = draws_u64(seeds[:, None], np.arange(k)[None, :])
    bits = _at_or_past(z, *others)
    bits[rows, x0] = _at_or_past(z[rows, x0], *true)
    counts += bits.sum(axis=0, dtype=np.int32)
    return _rank_attack_success(bits, x0, draws_uniform(seeds, k), k)


_KERNELS = {Family.GRR: _grr, Family.SS: _ss, Family.UE: _ue, Family.LH: _lh,
            Family.SHE: _she, Family.THE: _the}


def simulate_run(cfg: ProtocolConfig, x0: np.ndarray, master_seed: int,
                 run: int) -> tuple:
    """Simulate one run: every user perturbs their (0-based) value in `x0`
    and is attacked once.

    Returns (f_hat, successes): the frequency estimate over the whole run and
    the number of users whose value the attacker guessed.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    n, k = x0.size, cfg.k
    fam = cfg.family
    kernel = _KERNELS[fam]
    total = np.zeros(k, dtype=np.float64 if fam is Family.SHE else np.int64)
    succ = 0
    step = block_rows(1 if fam is Family.GRR else k)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        seeds = stream_seeds(master_seed, run, np.arange(lo, hi))
        succ += kernel(cfg, x0[lo:hi], seeds, total)
    if fam is Family.SHE:
        return total / n, succ
    return estimate_from_counts(total, n, pure_params(cfg)), succ

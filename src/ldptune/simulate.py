"""Vectorized simulation kernels, run over byte-budgeted user blocks.

One `simulate_run` call simulates every user of one run for every config of
a `RunGroup` (configs of one family and one k; a lone config is a group of
one): perturb, aggregate, estimate, and attack, all as array operations.  It
is the only loop over users: it walks them in blocks of `BLOCK_BYTES // (8 k)`
rows (GRR, which holds no k-wide array, `BLOCK_BYTES // 64`), so one 64-bit
array of a block takes at most `BLOCK_BYTES` and memory stays flat in n.
Each per-family kernel takes one block, draws it once, evaluates every config
of the group on those draws, adds each config's column counts (SHE: column
sums) into that config's float64 running total (counts stay exact, being at
most n) and returns each config's attack successes.

Each user owns the counter-based stream derived from (master_seed, run,
user), whose j-th draw is addressable directly and does not depend on the
config, so a block of a group draws exactly the values a whole run of each
config alone would: neither blocking nor grouping changes an output bit.  The
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

What the configs of a group share, per block:

- grr: the perturbation uniform.
- ss:  the inclusion uniform, the keys, and one sort per PASS_SIZE slice of
       rows, of which each config keeps only its threshold columns.
- ue, the: the raw k-wide block, its true column and the attack uniform;
       each config compares them with its own integer cuts.
- lh:  the 64-bit hashes before the remainder, and both uniforms; each
       config takes its buckets (`hash_remainder`) a slice at a time.
- she: the Laplace transform at scale 1, which each config scales by its
       b = 2/eps.

THE needs only whether each noisy coordinate exceeds theta, and the Laplace
transform follows the order of the draws, so its kernel compares the draws'
53-bit values with two integer cuts, found once per (eps, theta) and checked
against the transform wherever its rounding leaves the order in doubt.  UE
and THE compare the raw 64-bit draws with each cut shifted up 11 bits, which
tests the same 53-bit values without a shifted copy of the block.

The support families (SS, UE, LH, THE) share one attack count: the rank of
x0 among a row's set bits and the row's bit count come from one reduceat
over the block's flat bytes.  SS and LH write every config's support into
one mask per block, so a group holds the shared draws, one mask and
PASS_SIZE scratch however many configs it has.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    PASS_SIZE,
    Family,
    ProtocolConfig,
    RangeError,
    draws_laplace,
    draws_u64,
    draws_uniform,
    laplace_inplace,
    order_margin,
    stream_seeds,
)
from .protocols import (
    PAIRS,
    estimate_from_counts,
    hash_buckets,
    hash_remainder,
    pure_params,
)

# byte budget of one k-wide 64-bit array of a user block
BLOCK_BYTES = 1 << 20


def block_rows(width: int) -> int:
    """Users per block when each user holds `width` 64-bit values."""
    return max(1, BLOCK_BYTES // (8 * width))


def _grr_report(keep, u: np.ndarray, p: float, x0, m: int) -> np.ndarray:
    """GRR's reports over [0, m), as `protocols.grr_perturb` makes them: x0
    where `keep` (u < p), else the value other than x0 that (u - p)/(1 - p)
    picks uniformly.  Where p is 1 every u keeps, and nothing is mapped."""
    if p == 1:
        return x0
    j = np.minimum(((u - p) / (1 - p) * (m - 1)).astype(np.int64), m - 2)
    return np.where(keep, x0, j + (j >= x0))


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
    # reduceat casts the whole block to its dtype first: int16 holds a
    # row's count for k < 2^15 in half int32's bytes
    seg = np.add.reduceat(bits.reshape(-1).view(np.int8), starts,
                          dtype=np.int16 if k < 1 << 15 else np.int32)
    before = seg[0::2]
    # reduceat sums an empty segment (x0 = 0) to its first element, not 0
    before[x0 == 0] = 0
    m = before + seg[1::2]
    r = np.minimum((u_att * m).astype(np.int64), np.maximum(m - 1, 0))
    hit = bits[rows, x0] & (before == r)
    fallback = np.minimum((u_att * k).astype(np.int64), k - 1)
    empty_hit = (m == 0) & (fallback == x0)
    return int(np.count_nonzero(hit)) + int(np.count_nonzero(empty_hit))


def _grr(cfgs, x0, seeds, totals):
    u = draws_uniform(seeds, 0)
    succ = []
    for cfg, counts in zip(cfgs, totals):
        k, p = cfg.k, pure_params(cfg).p_star
        keep = u < p
        succ.append(int(np.count_nonzero(keep)))
        counts += np.bincount(_grr_report(keep, u, p, x0, k), minlength=k)
    return succ


def _order_stats(keys: np.ndarray, cols: set) -> dict:
    """{c: each row's (c+1)-th smallest key} for the columns `cols`, from
    one sort per slice of rows, so the sorted copy stays at PASS_SIZE
    entries; a lone column 0 is the row minimum.  (A partition at several
    columns costs four sorts; at one it costs about one.)"""
    if cols == {0}:
        return {0: keys.min(axis=1)}
    stats = {c: np.empty(len(keys), dtype=np.uint64) for c in cols}
    step = max(1, PASS_SIZE // keys.shape[1])
    for lo in range(0, len(keys), step):
        part = np.sort(keys[lo:lo + step], axis=1)
        for c in cols:
            stats[c][lo:lo + step] = part[:, c]
    return stats


def _ss(cfgs, x0, seeds, totals):
    k = cfgs[0].k
    rows = np.arange(x0.size)
    u_inc = draws_uniform(seeds, 0)
    keys = draws_u64(seeds[:, None], np.arange(1, k)[None, :])
    u_att = draws_uniform(seeds, k)
    # included rows take the omega-1 smallest keys, excluded rows the omega
    # smallest: the threshold is the key of rank omega-1 or omega
    stats = _order_stats(keys, {c for cfg in cfgs
                                for c in (cfg.param - 2, cfg.param - 1)
                                if c >= 0})
    # key column j is category j below x0 and category j + 1 from x0 on
    below = np.arange(k - 1, dtype=np.int32) < x0.astype(np.int32)[:, None]
    # every config rewrites one selection mask whole: key column j's test
    # goes to column j + 1, moves to column j where j < x0 (copyto reads an
    # overlapping source as it was before the call), and column x0 takes the
    # inclusion
    sel = np.empty((x0.size, k), dtype=bool)
    take = sel[:, 1:]
    succ = []
    for cfg, counts in zip(cfgs, totals):
        omega = cfg.param
        include = u_inc < pure_params(cfg).p_star
        if omega == 1:
            np.less_equal(keys, stats[0][:, None], out=take)
            take &= ~include[:, None]
        else:
            thr = np.where(include, stats[omega - 2], stats[omega - 1])
            np.less_equal(keys, thr[:, None], out=take)
        np.copyto(sel[:, :-1], take, where=below)
        sel[rows, x0] = include
        counts += sel.sum(axis=0, dtype=np.int32)
        succ.append(_rank_attack_success(sel, x0, u_att, k))
    return succ


def _bitvector(tests):
    """The UE/THE kernel: `tests(cfg)` gives the config's predicates on raw
    draws for the other coordinates and for the true one."""

    def kernel(cfgs, x0, seeds, totals):
        k = cfgs[0].k
        rows = np.arange(x0.size)
        z = draws_u64(seeds[:, None], np.arange(k)[None, :])
        z_true = z[rows, x0]
        u_att = draws_uniform(seeds, k)
        succ = []
        for cfg, counts in zip(cfgs, totals):
            other, true = tests(cfg)
            bits = other(z)
            bits[rows, x0] = true(z_true)
            counts += bits.sum(axis=0, dtype=np.int32)
            succ.append(_rank_attack_success(bits, x0, u_att, k))
        return succ

    return kernel


def _ue_tests(cfg):
    # for the 53-bit uniform u = (z >> 11) 2^-53, u < t is z >> 11 < C with
    # C = ceil(t 2^53), which is z < C 2^11: C <= 2^53 - 1 as t < 1
    def below(t):
        cut = np.uint64(math.ceil(t * 2.0 ** 53) << 11)
        return lambda z: z < cut

    pp = pure_params(cfg)
    return below(pp.q_star), below(pp.p_star)


def _the_tests(cfg):
    # noise L(j) on every coordinate and 1 more on the true one, thresholded
    # at theta: both tests are integer compares of the raw draws
    others, true = _the_cuts(cfg.eps, cfg.param)
    return (lambda z: _at_or_past(z, *others),
            lambda z: _at_or_past(z, *true))


def _lh(cfgs, x0, seeds, totals):
    k = cfgs[0].k
    rows = np.arange(x0.size)
    # one call for the three per-user draws: hash seed, perturbation, pick
    z = draws_u64(seeds[:, None], np.arange(3)[None, :])
    h = hash_buckets(z[:, :1], np.arange(1, k + 1)[None, :])
    h_true = h[rows, x0]
    u, u_att = ((z[:, 1:] >> np.uint64(11)) * 2.0 ** -53).T
    # each config's buckets are taken a slice of rows at a time, into one
    # buffer of PASS_SIZE entries, and compared with its reports there
    step = max(1, PASS_SIZE // k)
    buf = np.empty((min(step, x0.size), k), dtype=np.uint64)
    supp = np.empty((x0.size, k), dtype=bool)
    succ = []
    for cfg, counts in zip(cfgs, totals):
        g, p = cfg.param, pure_params(cfg).p_star
        bx = hash_remainder(h_true, g, np.empty_like(h_true)).view(np.int64)
        y0 = _grr_report(u < p, u, p, bx, g)
        for lo in range(0, x0.size, step):
            hs = h[lo:lo + step]
            part = hash_remainder(hs, g, buf[:len(hs)]).view(np.int64)
            np.equal(part, y0[lo:lo + step, None], out=supp[lo:lo + step])
        counts += supp.sum(axis=0, dtype=np.int32)
        succ.append(_rank_attack_success(supp, x0, u_att, k))
    return succ


def _she(cfgs, x0, seeds, totals):
    k = cfgs[0].k
    # the sample at scale b is b times the sample at scale 1 (copysign and
    # the product by b > 0 commute bit for bit), so one transform serves
    # every eps; each config scales it a slice of rows at a time
    unit = draws_laplace(seeds[:, None], np.arange(k)[None, :], 1.0)
    step = max(1, PASS_SIZE // k)
    buf = np.empty((min(step, x0.size), k))
    succ = []
    for cfg, sums in zip(cfgs, totals):
        b = 2.0 / cfg.eps
        hits = 0
        for lo in range(0, x0.size, step):
            xs = x0[lo:lo + step]
            v = np.multiply(unit[lo:lo + step], b, out=buf[:xs.size])
            v[np.arange(xs.size), xs] += 1.0
            hits += int(np.count_nonzero(np.argmax(v, axis=1) == xs))
            # folding the running sum into row 0 keeps the whole run's
            # sequential row order, so the sums equal v.mean(axis=0)'s over
            # all users bit for bit
            v[0] += sums
            np.add.reduce(v, axis=0, out=sums)
        succ.append(hits)
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


_KERNELS = {Family.GRR: _grr, Family.SS: _ss, Family.UE: _bitvector(_ue_tests),
            Family.LH: _lh, Family.SHE: _she, Family.THE: _bitvector(_the_tests)}


@dataclass(frozen=True)
class RunGroup:
    """Configs of one family and one k, which one `simulate_run` call runs
    over the same draws.  Construction makes `configs` a tuple and checks
    that it is a non-empty sequence of such ProtocolConfigs."""

    configs: tuple

    def __post_init__(self):
        cfgs = tuple(self.configs)
        object.__setattr__(self, "configs", cfgs)
        if not cfgs or not all(isinstance(c, ProtocolConfig) for c in cfgs):
            raise RangeError("group", "a non-empty sequence of ProtocolConfigs",
                             cfgs)
        if len({(c.family, c.k) for c in cfgs}) > 1:
            raise RangeError("group", "configs of one family and one k",
                             tuple((c.family.value, c.k) for c in cfgs))

    @property
    def family(self) -> Family:
        return self.configs[0].family

    @property
    def k(self) -> int:
        return self.configs[0].k


def simulate_run(group: RunGroup, x0: np.ndarray, master_seed: int, run: int):
    """Simulate one run of every config of `group`: every user perturbs
    their (0-based) value in `x0` and is attacked once, on the same draws
    for every config.

    Returns a list of (f_hat, successes), one per config in group order: the
    frequency estimate over the whole run and the number of users whose
    value the attacker guessed.
    """
    x0 = np.asarray(x0, dtype=np.int64)
    n, k, fam, cfgs = x0.size, group.k, group.family, group.configs
    kernel = _KERNELS[fam]
    totals = [np.zeros(k) for _ in cfgs]
    succ = [0] * len(cfgs)
    # a GRR user holds no k-wide array, but GRR makes several user-wide
    # temporaries: blocks of 8 values a user keep each at PASS_SIZE entries
    step = block_rows(8 if fam is Family.GRR else k)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        seeds = stream_seeds(master_seed, run, np.arange(lo, hi))
        succ = [a + b for a, b in zip(succ, kernel(cfgs, x0[lo:hi], seeds,
                                                   totals))]
    if fam not in PAIRS:
        return [(total / n, s) for total, s in zip(totals, succ)]
    return [(estimate_from_counts(total, n, pure_params(cfg)), s)
            for cfg, total, s in zip(cfgs, totals, succ)]

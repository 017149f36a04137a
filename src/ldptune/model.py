"""Domain types, validation, and deterministic randomness.

Category values are 1-based everywhere a user sees them (configs, reports,
datasets, exports) and 0-based inside numeric kernels.  Randomness is a
counter-based 64-bit stream: every (master_seed, run, user) triple owns an
independent stream whose j-th draw is addressable directly, so scalar code and
vectorized kernels produce identical values and runs can execute in any order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
# splitmix64 increment and finalizer multipliers
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_RUN_SALT = 0x8A183895E7EB0A7D
_USER_SALT = 0xC2B2AE3D27D4EB4F

_U64 = np.uint64
_NP_GAMMA = _U64(GAMMA)
_NP_MIX1 = _U64(_MIX1)
_NP_MIX2 = _U64(_MIX2)

# elements per pass of the in-place transforms below: their temporaries stay
# at 128 KiB whatever the array size
PASS_SIZE = 1 << 14

# largest eps whose e^eps is a finite float64
MAX_EPS = math.log(sys.float_info.max)

# largest LH hash range whose 0-based buckets fit the 64-bit hash and int64
MAX_G = 2 ** 63

# ε-LDP tightness tolerance for UE parameter pairs
UE_TIGHTNESS_TOL = 1e-9


class Family(str, Enum):
    GRR = "grr"
    SS = "ss"
    UE = "ue"
    LH = "lh"
    SHE = "she"
    THE = "the"


class RangeError(ValueError):
    """A config field is outside its allowed range."""

    def __init__(self, field, allowed, got):
        self.field = field
        self.allowed = allowed
        self.got = got
        super().__init__(f"{field} must be {allowed}, got {got!r}")


class UnsupportedFamily(ValueError):
    """Operation not defined for this protocol family."""


class DataError(ValueError):
    """The input data cannot serve the request; the CLI exits 4 on it."""


class EmptyInput(DataError):
    """An operation received an empty collection."""


class NonFinite(ArithmeticError):
    """Objective evaluated to a non-finite value."""

    def __init__(self, x, value):
        self.x = x
        self.value = value
        super().__init__(f"objective returned {value!r} at x={x!r}")


class EmptyCandidates(ValueError):
    """Grid search received no candidates."""


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol instance: family tag, privacy budget, domain size, and the
    family-specific free parameter.

    Parameters
    ----------
    family : Family
    eps : float
        Privacy budget in nats, in (0, MAX_EPS], so that e^eps is finite.
    k : int
        Domain size, >= 2.
    omega : int, optional
        Subset size for SS, 1 <= omega < k.
    p, q : float, optional
        Bit-keep / bit-flip probabilities for UE, each in (0, 1) and tight
        for eps: ln(p(1-q)/((1-p)q)) = eps within 1e-9.
    g : int, optional
        Hash range for LH, in [2, 2^63], so that buckets fit the 64-bit hash.
    theta : float, optional
        Threshold for THE, in [0.5, 1].
    """

    family: Family
    eps: float
    k: int
    omega: int | None = None
    p: float | None = None
    q: float | None = None
    g: int | None = None
    theta: float | None = None


def check_eps(eps) -> float:
    """Return `eps` when it is a real in (0, MAX_EPS], so that e^eps is
    finite; raise RangeError otherwise."""
    if not (isinstance(eps, (int, float)) and not isinstance(eps, bool)
            and 0 < eps <= MAX_EPS):
        raise RangeError("eps", f"a real in (0, {MAX_EPS:.6f}], where e^eps "
                         "is finite", eps)
    return eps


def check_k(k) -> int:
    """Return the domain size `k` when it is an integer >= 2; raise
    RangeError otherwise."""
    if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool)
            and k >= 2):
        raise RangeError("k", "an integer >= 2", k)
    return k


def validate_config(cfg: ProtocolConfig) -> ProtocolConfig:
    """Check every invariant of `cfg`; return it unchanged when valid.

    Raises
    ------
    RangeError
        Naming the violated field, the allowed range, and the actual value.
    """
    fam = Family(cfg.family)
    check_eps(cfg.eps)
    check_k(cfg.k)

    if fam is Family.SS:
        w = cfg.omega
        if not (isinstance(w, (int, np.integer)) and not isinstance(w, bool)
                and 1 <= w < cfg.k):
            raise RangeError("omega", f"an integer in [1, {cfg.k - 1}]", w)
    elif fam is Family.UE:
        for name, v in (("p", cfg.p), ("q", cfg.q)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0 < v < 1):
                raise RangeError(name, "a real in (0, 1)", v)
        gap = abs(math.log(cfg.p * (1 - cfg.q) / ((1 - cfg.p) * cfg.q)) - cfg.eps)
        if gap > UE_TIGHTNESS_TOL:
            raise RangeError("(p, q)",
                             f"tight for eps={cfg.eps} within {UE_TIGHTNESS_TOL}",
                             (cfg.p, cfg.q))
    elif fam is Family.LH:
        if not (isinstance(cfg.g, (int, np.integer)) and not isinstance(cfg.g, bool)
                and 2 <= cfg.g <= MAX_G):
            raise RangeError("g", "an integer in [2, 2^63]", cfg.g)
    elif fam is Family.THE:
        t = cfg.theta
        if not (isinstance(t, (int, float)) and math.isfinite(t) and 0.5 <= t <= 1.0):
            raise RangeError("theta", "a real in [0.5, 1]", t)
    # GRR and SHE carry no extra parameter; reject stray ones to keep
    # validation total
    if fam in (Family.GRR, Family.SHE):
        for name in ("omega", "p", "q", "g", "theta"):
            if getattr(cfg, name) is not None:
                raise RangeError(name, f"absent for family {fam.value}",
                                 getattr(cfg, name))
    return cfg


@dataclass(frozen=True)
class PureParams:
    """The (p*, q*) pair of a pure protocol: probability that the report
    supports the true value / any given other value."""

    p_star: float
    q_star: float

    def __post_init__(self):
        if not (0 < self.p_star <= 1) or not (0 <= self.q_star < 1):
            raise RangeError("(p_star, q_star)", "p* in (0,1], q* in [0,1)",
                             (self.p_star, self.q_star))
        if self.p_star <= self.q_star:
            raise RangeError("p_star", f"> q_star = {self.q_star}", self.p_star)


# -- reports ------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryReport:
    """GRR output: one category in 1..k."""
    value: int


@dataclass(frozen=True)
class SubsetReport:
    """SS output: a sorted tuple of omega distinct categories in 1..k."""
    values: tuple


@dataclass(frozen=True)
class BitVectorReport:
    """UE/THE output: length-k 0/1 array."""
    bits: np.ndarray


@dataclass(frozen=True)
class HashedReport:
    """LH output: the sampled 64-bit hash seed and a value in 1..g."""
    seed: int
    value: int


@dataclass(frozen=True)
class RealVectorReport:
    """SHE output: length-k noisy real vector."""
    values: np.ndarray


# -- randomness ---------------------------------------------------------------

def mix64(z: int) -> int:
    """splitmix64 finalizer on a python int, result in [0, 2^64)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _passes(z: np.ndarray) -> list:
    """Consecutive slices of at most `PASS_SIZE` elements of z's flat view,
    so that writes to a slice land in z."""
    if not z.flags.c_contiguous:
        raise ValueError("in-place passes need a C-contiguous array")
    flat = z.reshape(-1)
    return [flat[lo:lo + PASS_SIZE] for lo in range(0, flat.size, PASS_SIZE)]


def mix64_rounds(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The first two rounds of the splitmix64 finalizer (xor-shift 30, x M1,
    xor-shift 27, x M2) in place on the uint64 array `s`, with `t` a scratch
    array of its shape; returns `s`, the pre-final state."""
    np.right_shift(s, _U64(30), out=t)
    s ^= t
    s *= _NP_MIX1
    np.right_shift(s, _U64(27), out=t)
    s ^= t
    s *= _NP_MIX2
    return s


def mix64_final(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The last round of the splitmix64 finalizer, xor-shift 31, in place on
    the pre-final states `s`, with `t` a scratch array of its shape; returns
    `s`, now the outputs.  It keeps bits 33..63 of each state."""
    np.right_shift(s, _U64(31), out=t)
    s ^= t
    return s


def mix64_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to the contiguous uint64 array
    `z`, which the caller must own; returns `z`."""
    buf = np.empty(min(z.size, PASS_SIZE), dtype=_U64)
    for s in _passes(z):
        t = buf[:s.size]
        mix64_final(mix64_rounds(s, t), t)
    return z


def _stream_seed(master_seed: int, run: int, user: int) -> int:
    return mix64(master_seed ^ mix64((run + _RUN_SALT) & MASK64)
                 ^ mix64((user + _USER_SALT) & MASK64))


def stream_seeds(master_seed: int, run: int, users: np.ndarray) -> np.ndarray:
    """Vectorized stream seeds for many users of one (master_seed, run)."""
    base = _U64((master_seed & MASK64) ^ mix64((run + _RUN_SALT) & MASK64))
    salted = np.array(users, dtype=_U64)
    salted += _U64(_USER_SALT)
    mix64_inplace(salted)
    salted ^= base
    return mix64_inplace(salted)


def draws_u64(seeds, counters) -> np.ndarray:
    """The counters[...]-th 64-bit outputs of the streams with the given
    seeds; broadcasts, so (n,1) seeds x (1,m) counters gives an (n,m) block."""
    seeds = np.asarray(seeds, dtype=_U64)
    counters = np.asarray(counters, dtype=_U64)
    with np.errstate(over="ignore"):
        z = np.asarray(seeds + (counters + _U64(1)) * _NP_GAMMA)
    return mix64_inplace(z)


def draws_uniform(seeds, counters) -> np.ndarray:
    """Same, mapped to float64 in [0, 1)."""
    z = draws_u64(seeds, counters)
    z >>= _U64(11)
    return z * 2.0 ** -53


def laplace_inplace(z: np.ndarray, b: float) -> np.ndarray:
    """Map the contiguous uint64 array `z` of raw draws, which the caller
    must own, to Laplace(0, b) samples in place; returns the float64 view.

    One uniform u in (-1/2, 1/2) per draw, from its 53-bit value j = z >> 11;
    sample = -b sgn(u) ln(1-2|u|).  The offset keeps u off -1/2, and the top
    draw j = 2^53 - 1, whose j + 1/2 would round to 2^53 and give u = 1/2,
    takes the sample of 2^53 - 2, so every sample is finite.  The samples
    follow the order of j up to `log1p`'s rounding error; see `order_margin`.
    """
    # the samples overwrite the raw draws in place, one pass at a time
    out = z.view(np.float64)
    u = np.empty(min(z.size, PASS_SIZE))
    w = np.empty_like(u)
    for zs, dst in zip(_passes(z), _passes(out)):
        us, ws = u[:zs.size], w[:zs.size]
        zs >>= _U64(11)
        np.copyto(us, zs)
        np.minimum(us, 2.0 ** 53 - 2, out=us)
        us += 0.5
        us *= 2.0 ** -53
        us -= 0.5
        # -b sgn(u) L with L = ln(1-2|u|) <= 0 is b L carrying the sign of u
        np.abs(us, out=ws)
        ws *= -2.0
        np.log1p(ws, out=ws)
        ws *= b
        np.copysign(ws, us, out=dst)
    return out


def order_margin(v):
    """How far a Laplace sample of `laplace_inplace` may exceed the sample
    of a larger raw draw: |v| 2^-40 + 2^-60 for samples near v.

    For draws j1 < j2 the exact samples satisfy L(j1) <= L(j2), and the
    rounded ones can break that order only through `log1p`: u is a
    monotone rounding of j, copysign keeps every sample of u < 0 at or
    below every sample of u >= 0, and on each side of u = 0, -2|u| and the
    product by b are monotone roundings.  With `log1p` within c ulp, each
    rounded sample is within (c + 1) 2^-52 |L| of the exact one, so
    L(j1) - L(j2) on the rounded map is at most about (c + 1) 2^-51 |L(j2)|.
    The factor 2^-40 covers any c below 2^10 (glibc's `log1p` and numpy's
    SIMD loops stay within a few ulp); the 2^-60 floor covers samples at 0.

    The argument holds for any 64-bit values j1 <= j2, drawn or not, so j2
    may be an upper bound on draws that were never finished.  The SHE Monte
    Carlo screen (`attacks._she_hits`) uses one: splitmix64's final
    xor-shift 31 keeps bits 33..63 of the pre-final state, so no output of
    a state s exceeds s with bits 0..32 set.  Bits 31 and 32 of the output
    also take in bits 62 and 63, so the kept prefix is 31 bits, not 33.
    """
    return abs(v) * 2.0 ** -40 + 2.0 ** -60


def draws_laplace(seeds, counters, b: float) -> np.ndarray:
    """Same as `draws_u64`, mapped through `laplace_inplace`."""
    return laplace_inplace(draws_u64(seeds, counters), b)


class RngStream:
    """Sequential view of one counter-based stream.

    The j-th call of `u64` returns exactly `draws_u64(seed, j)`, so code using
    an RngStream and vectorized code addressing counters directly agree
    draw-for-draw.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._count = 0

    def u64(self) -> int:
        c = self._count
        self._count = c + 1
        return mix64((self.seed + ((c + 1) * GAMMA)) & MASK64)

    def uniform(self) -> float:
        """One float64 in [0, 1)."""
        return (self.u64() >> 11) * 2.0 ** -53

    def reserve(self, count: int) -> int:
        """Advance the stream by `count` and return the counter of the first
        skipped draw: the skipped draws are `draws_u64(seed, c)` for c in
        [returned, returned + count)."""
        c = self._count
        self._count = c + count
        return c

    def u64s(self, count: int) -> np.ndarray:
        """The next `count` raw draws, built in place on one array; advances
        the stream by `count`."""
        c = self.reserve(count)
        z = np.arange(c + 1, c + 1 + count, dtype=_U64)
        z *= _NP_GAMMA
        z += _U64(self.seed)
        return mix64_inplace(z)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` float64 draws at once; advances the stream by `count`."""
        z = self.u64s(count)
        z >>= _U64(11)
        return z * 2.0 ** -53

    def laplaces(self, count: int, b: float) -> np.ndarray:
        return laplace_inplace(self.u64s(count), b)


def derive_stream(master_seed: int, run: int, user: int) -> RngStream:
    """The stream owned by (master_seed, run, user); deterministic, and
    distinct triples give statistically independent streams."""
    return RngStream(_stream_seed(master_seed, run, user))

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


# each family's free parameter: (name in messages and exports, stored type)
PARAMS = {Family.GRR: ("", None), Family.SHE: ("", None),
          Family.SS: ("omega", int), Family.LH: ("g", int),
          Family.UE: ("p", float), Family.THE: ("theta", float)}


class RangeError(ValueError):
    """A config field is outside its allowed range."""

    def __init__(self, field, allowed, got):
        self.field = field
        self.allowed = allowed
        self.got = got
        super().__init__(f"{field} must be {allowed}, got {got!r}")

    def __reduce__(self):
        return type(self), (self.field, self.allowed, self.got)


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

    def __reduce__(self):
        return type(self), (self.x, self.value)


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol instance: family tag, privacy budget, domain size, and the
    family's one free parameter.  Construction turns `family` into a Family,
    coerces `param` to the family's type and checks every invariant below
    (`check_param`), so a config that exists is valid.

    Parameters
    ----------
    family : Family
    eps : float
        Privacy budget in nats, in (0, MAX_EPS], so that e^eps is finite.
    k : int
        Domain size, >= 2.
    param : int or float, optional
        SS's subset size omega, an int in [1, k); UE's bit-keep probability
        p, a float in (0, 1) whose derived q (`pure_params`) makes the pair
        tight for eps within 1e-9; LH's hash range g, an int in [2, 2^63],
        so that buckets fit the 64-bit hash; THE's threshold theta, a float
        in [0.5, 1]; none for GRR and SHE.  For omega and g a float within
        1e-9 of an integer becomes that int.
    """

    family: Family
    eps: float
    k: int
    param: int | float | None = None

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "param", check_param(
            fam, self.param, check_eps(self.eps), check_k(self.k)))


def is_int(v) -> bool:
    """Whether `v` is an integer: a python or numpy int, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether `v` is a real: a python int or float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def libm(f, x):
    """`f`, a function of `math`, at the real x or at each element of the
    1-d array x: per-point transcendentals go through libm, so an array gets
    the bits of a call per point on any CPU (numpy's SIMD `exp`, `log` and
    `log1p` can miss libm by an ulp); k-wide work stays in numpy."""
    if np.ndim(x) == 0:
        return f(x)
    return np.fromiter(map(f, x.tolist()), float, len(x))


def past_overflow(den, plain, divided):
    """`plain` where the denominator `den` is finite, and `divided()`, the
    same form divided through so it cannot overflow, where `den` is not (near
    the eps cap): a python float for a float `den`, an array otherwise."""
    finite = np.isfinite(den)
    if finite.all():
        return plain
    if np.ndim(den) == 0:
        return divided()
    return np.where(finite, plain, divided())


def ue_pair_from_p(eps: float, p: float) -> tuple:
    """The tight UE pair with keep-probability p: q = p/(e^eps(1-p)+p)."""
    return p, p / (math.exp(eps) * (1 - p) + p)


def check_eps(eps) -> float:
    """Return `eps` when it is a real in (0, MAX_EPS], so that e^eps is
    finite; raise RangeError otherwise."""
    if not (is_real(eps) and 0 < eps <= MAX_EPS):
        raise RangeError("eps", f"a real in (0, {MAX_EPS:.6f}], where e^eps "
                         "is finite", eps)
    return eps


def check_k(k) -> int:
    """Return the domain size `k` when it is an integer >= 2; raise
    RangeError otherwise."""
    if not (is_int(k) and k >= 2):
        raise RangeError("k", "an integer >= 2", k)
    return k


def check_count(field: str, v) -> int:
    """Return `v` if it is an integer >= 1; else raise RangeError on `field`."""
    if not (is_int(v) and v >= 1):
        raise RangeError(field, "an integer >= 1", v)
    return v


def check_seed(seed) -> int:
    """Return `seed` as a python int if it is an integer in [0, 2^64), the
    range in which streams tell seeds apart; else raise RangeError."""
    if not (is_int(seed) and 0 <= seed <= MASK64):
        raise RangeError("seed", "an integer in [0, 2^64)", seed)
    return int(seed)


def check_param(fam: Family, v, eps=None, k=None):
    """Return `v`, family `fam`'s free parameter, as a ProtocolConfig stores
    it (as its `PARAMS` type: p and theta floats, omega and g ints) when it
    is in the family's range; raise RangeError otherwise.  The range of
    omega reads k, and UE's tightness reads eps; GRR and SHE take None."""
    name, kind = PARAMS[fam]
    if kind is float and (is_int(v) or isinstance(v, float)):
        v = float(v)
    elif (kind is int and isinstance(v, float) and math.isfinite(v)
          and abs(v - round(v)) <= 1e-9):
        v = int(round(v))
    if kind is None:
        if v is not None:
            raise RangeError("param", f"absent for {fam.value}", v)
    elif fam is Family.SS:
        if not (is_int(v) and 1 <= v < k):
            raise RangeError(name, f"an integer in [1, {k - 1}]", v)
    elif fam is Family.LH:
        if not (is_int(v) and 2 <= v <= MAX_G):
            raise RangeError(name, "an integer in [2, 2^63]", v)
    elif fam is Family.UE:
        if not (isinstance(v, float) and 0 < v < 1):
            raise RangeError(name, "a real in (0, 1)", v)
        # q is derived, but rounds: as p nears 1 the pair's own budget drifts
        # from eps, either way (by up to 0.1 nats at eps = 1)
        q = ue_pair_from_p(eps, v)[1]
        if not (q > 0 and abs(math.log(v * (1 - q) / ((1 - v) * q)) - eps)
                <= UE_TIGHTNESS_TOL):
            raise RangeError("(p, q)", f"tight for eps={eps} within "
                             f"{UE_TIGHTNESS_TOL}", (v, q))
    elif not (isinstance(v, float) and 0.5 <= v <= 1):  # THE
        raise RangeError(name, "a real in [0.5, 1]", v)
    return v


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


def uniform53(z):
    """The uniforms (z >> 11) 2^-53 in [0, 1) of raw draws z, int or array."""
    return (z >> 11) * 2.0 ** -53


def draws_uniform(seeds, counters) -> np.ndarray:
    """Same, mapped to float64 in [0, 1) by `uniform53`."""
    return uniform53(draws_u64(seeds, counters))


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
        return uniform53(self.u64())

    def u64s(self, count: int) -> np.ndarray:
        """The next `count` raw draws; advances the stream by `count`."""
        c = self._count
        self._count = c + count
        return draws_u64(self.seed, np.arange(c, c + count, dtype=_U64))

    def uniforms(self, count: int) -> np.ndarray:
        """`count` float64 draws at once; advances the stream by `count`."""
        return uniform53(self.u64s(count))

    def laplaces(self, count: int, b: float) -> np.ndarray:
        return laplace_inplace(self.u64s(count), b)


def derive_stream(master_seed: int, run: int, user: int) -> RngStream:
    """The stream owned by (master_seed, run, user); deterministic, and
    distinct triples give statistically independent streams."""
    return RngStream(_stream_seed(master_seed, run, user))

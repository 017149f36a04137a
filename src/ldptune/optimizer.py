"""Two-objective (attack success + estimator variance) parameter tuning.

The scalarized objective is w_asr * expected_asr + w_mse * analytic_mse with
per-user variance (n=1) by default.  The four adaptive solvers minimize it
over their family's free parameter: integer grids for the subset size and
hash range, a 1024-point coarse grid plus bounded scalar refinement for the
continuous keep-probability and threshold.  Objective terms are summed raw
(no normalization beyond the weights), so weight semantics depend on
(eps, k, n).

Grids are ranked in numpy.  `array_objective` evaluates a whole grid in
passes of PASS_SIZE // k points with the closed forms themselves, called on
arrays: the family's `attacks.ASRS`, `protocols.PAIRS` and
`first_order_mse`, which `expected_asr` and `analytic_mse` call for one
config.  Their array forms run each step in the scalar form's order, and
take the transcendental functions of each point from libm (`model.libm`),
so every value is the scalar `objective`'s to the bit, and `grid_argmin`'s
first minimum is the exhaustive scalar search's.  Past g = k the hash-range
objective is convex, and `optimize_alh` bisects instead of walking up to
e^eps points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    MAX_G,
    PASS_SIZE,
    EmptyCandidates,
    Family,
    NonFinite,
    ProtocolConfig,
    RangeError,
    check_k,
)
from .attacks import ASRS, expected_asr
from .protocols import (
    PAIRS,
    analytic_mse,
    first_order_mse,
    round_half_away,
    ss_default_omega,
)

COARSE_GRID_POINTS = 1024
REFINE_TOL = 1e-6
# continuous UE keep-probabilities approach but never reach 1; this cap keeps
# the derived q = p/(e^eps(1-p)+p) numerically stable at the boundary
_P_CAP = 1.0 - 1e-6


@dataclass(frozen=True)
class ObjectiveWeights:
    """Convex weights for the two objectives; must sum to 1."""

    w_asr: float
    w_mse: float

    def __post_init__(self):
        for name, v in (("w_asr", self.w_asr), ("w_mse", self.w_mse)):
            if not (isinstance(v, (int, float)) and 0 <= v <= 1):
                raise RangeError(name, "a real in [0, 1]", v)
        if abs(self.w_asr + self.w_mse - 1) > 1e-12:
            raise RangeError("w_asr + w_mse", "1 within 1e-12",
                             self.w_asr + self.w_mse)

    @classmethod
    def from_w_asr(cls, w_asr: float) -> "ObjectiveWeights":
        return cls(w_asr, 1.0 - w_asr)


@dataclass(frozen=True)
class OptimizationResult:
    """Solver output: chosen parameter, objective value and its components,
    and how many objective evaluations were spent."""

    theta_star: float
    objective_value: float
    asr_at_opt: float
    mse_at_opt: float
    evaluations: int
    config: ProtocolConfig


def objective(cfg: ProtocolConfig, weights: ObjectiveWeights, n: float = 1) -> float:
    """w_asr * expected_asr(cfg) + w_mse * analytic_mse(cfg, n)."""
    return (weights.w_asr * expected_asr(cfg)
            + weights.w_mse * analytic_mse(cfg, n))


def minimize_scalar_bounded(f, lo: float, hi: float, tol: float = REFINE_TOL):
    """Minimize f on [lo, hi] to within tol of a stationary point or boundary.

    Brent's bounded method (Brent 1973, "Algorithms for Minimization without
    Derivatives", ch. 5): golden-section steps, parabolic ones where the fit
    is acceptable.  A port of scipy.optimize's `_minimize_scalar_bounded`
    (BSD-3) that keeps its operation order, its absolute tolerance `xatol`
    = tol and its 500-call cap, so it probes the same points and returns the
    same bits as `minimize_scalar(method="bounded")`.

    Returns (x*, f*, calls), calls being the probes of f (scipy's `nfev`).
    Raises NonFinite when any probe of f is not finite.
    """
    if not lo < hi:
        raise RangeError("(lo, hi)", "lo < hi", (lo, hi))

    def checked(x):
        v = f(x)
        if not math.isfinite(v):
            raise NonFinite(x, v)
        return v

    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # xf: best point so far; nfc, fulc: the second and third best
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = ffulc = fnfc = checked(xf)
    calls = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + tol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = checked(x)
        calls += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + tol / 3.0
        tol2 = 2.0 * tol1
        if calls >= 500:
            break
    return float(xf), float(fx), calls


def grid_search(f, candidates):
    """Exhaustive argmin over candidates; ties go to the smallest candidate.

    Returns (x*, f*).
    """
    best_x = None
    best_f = None
    seen = False
    for c in candidates:
        seen = True
        v = f(c)
        if best_f is None or v < best_f or (v == best_f and c < best_x):
            best_x, best_f = c, v
    if not seen:
        raise EmptyCandidates("no candidates to search")
    return best_x, best_f


def grid_argmin(f, grid: np.ndarray, values, width: int = 1):
    """`grid_search(f, grid.tolist())`, with f's values on the grid taken
    from `values`, its array form.

    `values` maps a slice of the ascending array `grid` to the values of f
    there, bit for bit, holding `width` floats per point.  It is called on
    PASS_SIZE // width points at a time, so its temporaries stay near
    128 KiB: small enough to reuse freed heap pages instead of growing the
    resident set, whatever k is.  Ties go to the smallest point.  Where a
    value is not finite, f is called at the first such point, to raise its
    own error there.
    """
    rows = max(1, PASS_SIZE // width)
    with np.errstate(all="ignore"):
        v = np.concatenate([values(grid[i:i + rows])
                            for i in range(0, len(grid), rows)])
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        x = grid[bad[0]].item()
        raise NonFinite(x, f(x))
    i = int(np.argmin(v))
    return grid[i].item(), float(v[i])


def _result(family: Family, eps: float, k: int, theta_star,
            weights: ObjectiveWeights, n: float,
            evaluations: int) -> OptimizationResult:
    cfg = ProtocolConfig(family, eps, k, theta_star)
    asr = expected_asr(cfg)
    mse = analytic_mse(cfg, n)
    return OptimizationResult(theta_star, weights.w_asr * asr + weights.w_mse * mse,
                              asr, mse, evaluations, cfg)


def array_objective(family: Family, eps: float, k: int,
                    weights: ObjectiveWeights, n: float = 1):
    """The array form of `objective` for one pure family at (eps, k), through
    its `ASRS` and `PAIRS` forms: maps an array of omega, p (with the tight
    q), g or theta values to the objective values, bit for bit.

    At w_asr = 0 it skips the ASR: 0 times a finite ASR adds nothing to the
    scalar value either.
    """
    asr, pair = ASRS[Family(family)], PAIRS[Family(family)]

    def values(x):
        a = asr(eps, k, x) if weights.w_asr else 0.0
        return (weights.w_asr * a
                + weights.w_mse * first_order_mse(*pair(eps, k, x), n))

    return values


def _scalar_objective(family, eps, k, weights, n):
    """`objective` at (eps, k) as a function of the free parameter alone."""
    return lambda x: objective(ProtocolConfig(family, eps, k, x), weights, n)


def optimize_ass(eps: float, k: int, weights: ObjectiveWeights,
                 n: float = 1) -> OptimizationResult:
    """Best subset size: integer grid search over omega in [1, k-1].

    At w_asr = 0 the solver returns the variance-optimal baseline
    round(k/(e^eps+1)) directly (baseline recovery) rather than the grid
    argmin of the first-order variance, whose flat left tail would otherwise
    drift to omega = 1.
    """
    check_k(k)
    if weights.w_asr == 0:
        return _result(Family.SS, eps, k, ss_default_omega(eps, k), weights,
                       n, 1)
    w, _ = grid_argmin(_scalar_objective(Family.SS, eps, k, weights, n),
                       np.arange(1, k),
                       array_objective(Family.SS, eps, k, weights, n))
    return _result(Family.SS, eps, k, w, weights, n, k - 1)


def _grid_then_refine(family: Family, eps: float, k: int,
                      weights: ObjectiveWeights, n: float, grid: np.ndarray,
                      cell: float, hi: float) -> OptimizationResult:
    """Search of `grid` (from 0.5 up), then bounded refinement within `cell`
    of its winner, clipped to [0.5, hi], kept only when strictly better.
    `cell` is the exact grid step, which numpy's spacing of `grid` need not
    be."""
    f = _scalar_objective(family, eps, k, weights, n)
    x0, f0 = grid_argmin(
        f, grid, array_objective(family, eps, k, weights, n), k)
    xr, fr, calls = minimize_scalar_bounded(f, max(0.5, x0 - cell),
                                            min(hi, x0 + cell), REFINE_TOL)
    return _result(family, eps, k, xr if fr < f0 else x0, weights, n,
                   len(grid) + calls)


def optimize_aue(eps: float, k: int, weights: ObjectiveWeights,
                 n: float = 1) -> OptimizationResult:
    """Best keep-probability p in [0.5, 1) with the tight q substituted in:
    1024-point coarse grid, then bounded refinement in the best grid cell."""
    check_k(k)
    grid = np.linspace(0.5, 1.0, COARSE_GRID_POINTS + 1)[:COARSE_GRID_POINTS]
    return _grid_then_refine(Family.UE, eps, k, weights, n, grid,
                             0.5 / COARSE_GRID_POINTS, _P_CAP)


def optimize_alh(eps: float, k: int, weights: ObjectiveWeights,
                 n: float = 1) -> OptimizationResult:
    """Best hash range g in [2, max(k, round(e^eps+1))], capped at MAX_G.

    g in [2, k] is a grid.  For g >= k, with h = g - 1, the ASR term is
    e/(e+h) and the MSE term (e+h)^2/((e-1)^2 h n), both convex in h, so
    the first g with f(g+1) >= f(g) is the smallest minimizer there.
    Integer bisection finds it in at most 63 steps, each the sign of
    f(g+1) - f(g) taken from its closed form: subtracting two rounded values
    of f would read the plateaus where e + g - 1 rounds to e (g below
    e 2^-53) as a minimum.  The scalar objective then picks among the grid
    winner and the bisection point with its two neighbours, ties to the
    smaller g.  `evaluations` counts the grid points and two per step.
    """
    check_k(k)
    e = math.exp(eps)
    f = _scalar_objective(Family.LH, eps, k, weights, n)

    def rises(g):  # f(g+1) >= f(g), for g >= k
        h = g - 1
        mse_step = (1 / ((e - 1) * (e - 1))
                    - (e / (e - 1)) ** 2 / (h * (h + 1))) / n
        asr_drop = e / ((e + h) * (e + h + 1))
        return weights.w_mse * mse_step >= weights.w_asr * asr_drop

    g_low, _ = grid_argmin(
        f, np.arange(2, k + 1), array_objective(Family.LH, eps, k, weights, n))
    top = min(max(k, round_half_away(e + 1)), MAX_G)
    lo, hi = k, top
    steps = 0
    while lo < hi:
        mid = (lo + hi) // 2
        steps += 1
        if rises(mid):
            hi = mid
        else:
            lo = mid + 1
    near = [g for g in (lo - 1, lo, lo + 1) if k <= g <= top]
    g, _ = grid_search(f, sorted({g_low, *near}))
    return _result(Family.LH, eps, k, g, weights, n, k - 1 + 2 * steps)


def optimize_athe(eps: float, k: int, weights: ObjectiveWeights,
                  n: float = 1) -> OptimizationResult:
    """Best threshold theta in [0.5, 1]: coarse grid plus bounded refinement."""
    check_k(k)
    grid = np.linspace(0.5, 1.0, COARSE_GRID_POINTS)
    return _grid_then_refine(Family.THE, eps, k, weights, n, grid,
                             0.5 / (COARSE_GRID_POINTS - 1), 1.0)

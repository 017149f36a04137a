"""Two-objective parameter tuning: grid/continuous solvers and invariants."""

import functools
import hashlib
import itertools
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oracles as orc
from ldptune.model import (
    MAX_EPS,
    MAX_G,
    PASS_SIZE,
    Family,
    NonFinite,
    ProtocolConfig,
    RangeError,
)
from ldptune.cli import main
from ldptune.harness import pareto_sweep
from ldptune.optimizer import (
    _P_CAP,
    COARSE_GRID_POINTS,
    REFINE_TOL,
    ObjectiveWeights,
    array_objective,
    grid_argmin,
    minimize_scalar_bounded,
    objective,
    optimize_alh,
    optimize_ass,
    optimize_athe,
    optimize_aue,
)
from ldptune.protocols import (analytic_mse, olh_g, round_half_away,
                               ss_default_omega)
from ldptune.attacks import expected_asr
from ldptune.presets import ADAPTIVE_NAMES, PROTOCOL_NAMES, resolve_protocol

W_HALF = ObjectiveWeights(0.5)
W_MSE = ObjectiveWeights(0.0)


class TestObjective:
    def test_weighted_sum(self):
        cfg = ProtocolConfig(Family.GRR, 1.0, 5)
        w = ObjectiveWeights(0.3)
        expect = 0.3 * expected_asr(cfg) + 0.7 * analytic_mse(cfg, 1)
        assert objective(cfg, w) == pytest.approx(expect, rel=1e-15)

    def test_n_scales_mse_term(self):
        cfg = ProtocolConfig(Family.GRR, 1.0, 5)
        a = objective(cfg, W_MSE, n=1)
        b = objective(cfg, W_MSE, n=10)
        assert b == pytest.approx(a / 10, rel=1e-12)


class TestBadDomain:
    @pytest.mark.parametrize("solver", [optimize_ass, optimize_aue,
                                        optimize_alh, optimize_athe])
    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_k_below_two_is_a_range_error(self, solver, k):
        with pytest.raises(RangeError) as exc:
            solver(2.0, k, W_HALF)
        assert exc.value.field == "k"


class TestWeights:
    @pytest.mark.parametrize("w", [True, False, -0.1, 1.5, "0.5", None])
    def test_w_asr_must_be_a_real_in_unit_interval(self, w):
        # ObjectiveWeights(True) once gave w_asr True
        with pytest.raises(RangeError) as exc:
            ObjectiveWeights(w)
        assert str(exc.value) == f"w_asr must be a real in [0, 1], got {w!r}"

    @pytest.mark.parametrize("w", [0, 1, 0.25, np.float64(0.75)])
    def test_ints_and_floats_pass(self, w):
        assert ObjectiveWeights(w).w_mse == 1.0 - w


class TestMinimizeScalarBounded:
    def test_quadratic(self):
        x, f, _ = minimize_scalar_bounded(lambda t: (t - 2.0) ** 2, 0.0, 5.0)
        assert abs(x - 2.0) < 1e-4
        assert f < 1e-8

    def test_boundary_minimum(self):
        x, f, _ = minimize_scalar_bounded(lambda t: t, 1.0, 3.0)
        assert abs(x - 1.0) < 1e-4
        assert f == pytest.approx(x)

    def test_returns_point_value_and_calls(self):
        probes = []
        out = minimize_scalar_bounded(lambda t: probes.append(t) or t * t,
                                      -1.0, 1.0)
        assert isinstance(out, tuple) and len(out) == 3
        assert out[2] == len(probes)

    def test_non_finite_objective_rejected(self):
        with pytest.raises(NonFinite):
            minimize_scalar_bounded(lambda t: float("nan"), 0.0, 1.0)

    @staticmethod
    def _assert_same_as_scipy(f, lo, hi):
        ours, ref = [], []
        x, fx, calls = minimize_scalar_bounded(
            lambda t: ours.append(t) or f(t), lo, hi)
        res = minimize_scalar(lambda t: ref.append(t) or f(t),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": REFINE_TOL})
        assert ours == ref  # the same probes, so the same call count
        assert (x, fx) == (float(res.x), float(res.fun))
        assert calls == res.nfev == len(ours)

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda t: (t - 2.0) ** 2, -10.0, 10.0),
        (lambda t: 3.0 * t, 1.0, 3.0),  # minimum on the boundary
        (lambda t: 0.25, 0.0, 1.0),  # flat
    ])
    def test_same_as_scipy(self, f, lo, hi):
        self._assert_same_as_scipy(f, lo, hi)

    @pytest.mark.parametrize("eps,k,w", [(1.0, 10, 0.5), (4.0, 100, 0.3),
                                         (8.0, 100, 0.9), (2.0, 1000, 0.0)])
    def test_same_as_scipy_on_refinement_objectives(self, eps, k, w):
        weights = ObjectiveWeights(w)

        def ue_f(p):
            return objective(ProtocolConfig(Family.UE, eps, k, p), weights)

        def the_f(t):
            return objective(ProtocolConfig(Family.THE, eps, k, t),
                             weights)

        cell = 0.5 / COARSE_GRID_POINTS
        p0 = optimize_aue(eps, k, weights).theta_star
        t0 = optimize_athe(eps, k, weights).theta_star
        for f, lo, hi in [(ue_f, 0.5, _P_CAP),
                          (ue_f, max(0.5, p0 - cell), min(_P_CAP, p0 + cell)),
                          (the_f, 0.5, 1.0),
                          (the_f, max(0.5, t0 - cell), min(1.0, t0 + cell))]:
            self._assert_same_as_scipy(f, lo, hi)


class TestGridArgmin:
    """The array form gives f's values; the first minimum wins."""

    GRID = np.arange(10)
    # points per pass are PASS_SIZE // width: 3 here, so passes split the grid
    WIDTH = PASS_SIZE // 3

    def test_ties_go_to_smallest(self):
        # 2 and 7 tie, in different passes; 5 is one ulp above them
        vals = np.full(10, 2.0)
        vals[[2, 7]] = 1.0
        vals[5] = np.nextafter(1.0, 2.0)

        def f(c):
            raise AssertionError("f is for non-finite values only")

        assert grid_argmin(f, self.GRID, lambda x: vals[x],
                           self.WIDTH) == (2, 1.0)

    def test_non_finite_points_are_evaluated(self):
        # f raises its own error at the first non-finite point, 4
        calls = []

        def f(c):
            calls.append(c)
            raise RangeError("x", "finite", c)

        vals = np.arange(10.0)
        vals[[4, 8]] = [np.inf, np.nan]
        with pytest.raises(RangeError, match="got 4$"):
            grid_argmin(f, self.GRID, lambda x: vals[x], self.WIDTH)
        assert calls == [4]
        # an f that returns the value instead raises NonFinite
        with pytest.raises(NonFinite):
            grid_argmin(lambda c: vals[c], self.GRID, lambda x: vals[x],
                        self.WIDTH)

    def test_equals_grid_search(self):
        rng = np.random.default_rng(3)
        grid = np.arange(50)
        for vals in (rng.random(50), rng.integers(0, 4, 50).astype(float)):
            got = grid_argmin(lambda c: vals[c], grid, lambda x: vals[x],
                              self.WIDTH)
            assert got == orc.grid_argmin(lambda c: vals[c], grid.tolist())


class TestFrozenOptima:
    def test_reference_point_all_four(self):
        r_ass = optimize_ass(4.0, 100, W_HALF)
        r_alh = optimize_alh(4.0, 100, W_HALF)
        r_aue = optimize_aue(4.0, 100, W_HALF)
        r_athe = optimize_athe(4.0, 100, W_HALF)
        assert r_ass.theta_star == 7
        assert r_alh.theta_star == 13
        assert abs(r_aue.theta_star - 0.818) <= 0.005
        assert abs(r_athe.theta_star - 0.783) <= 0.005

    def test_mse_only_recovers_baselines(self):
        assert optimize_ass(4.0, 100, W_MSE).theta_star == 2
        assert optimize_alh(4.0, 100, W_MSE).theta_star == 56
        assert optimize_aue(4.0, 100, W_MSE).theta_star == 0.5
        assert abs(optimize_athe(4.0, 100, W_MSE).theta_star - 0.816) <= 0.005

    def test_athe_mse_only_matches_golden_section_oracle(self):
        for eps in (1.0, 2.0, 4.0):
            got = optimize_athe(eps, 100, W_MSE).theta_star
            ref = orc.optimal_theta(eps)
            assert abs(got - ref) < 5e-4

    def test_result_components_consistent(self):
        r = optimize_ass(4.0, 100, W_HALF)
        assert r.objective_value == pytest.approx(
            0.5 * r.asr_at_opt + 0.5 * r.mse_at_opt, rel=1e-12)
        assert r.config.param == r.theta_star
        assert r.evaluations == 99

    def test_ass_mse_only_shortcut(self):
        r = optimize_ass(4.0, 100, W_MSE)
        assert r.evaluations == 1


class TestWeightCollapse:
    @pytest.mark.parametrize("eps", [1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("k", [25, 100, 1000])
    def test_collapse_to_baseline(self, eps, k):
        assert optimize_ass(eps, k, W_MSE).theta_star == ss_default_omega(eps, k)
        assert optimize_alh(eps, k, W_MSE).theta_star == olh_g(eps)
        assert optimize_aue(eps, k, W_MSE).theta_star == 0.5


class TestGridExhaustiveness:
    def test_ass_no_better_candidate(self):
        eps, k = 2.0, 30
        w = ObjectiveWeights(0.7)
        r = optimize_ass(eps, k, w)
        for omega in range(1, k):
            cfg = ProtocolConfig(Family.SS, eps, k, omega)
            assert objective(cfg, w) >= r.objective_value - 1e-12

    def test_alh_no_better_candidate(self):
        eps, k = 2.0, 30
        w = ObjectiveWeights(0.4)
        r = optimize_alh(eps, k, w)
        hi = max(k, olh_g(eps))
        for g in range(2, hi + 1):
            cfg = ProtocolConfig(Family.LH, eps, k, g)
            assert objective(cfg, w) >= r.objective_value - 1e-12


class TestContinuousSanity:
    def test_aue_beats_probes_and_endpoints(self):
        eps, k = 4.0, 100
        r = optimize_aue(eps, k, W_HALF)
        rng = np.random.default_rng(0)
        probes = list(0.5 + rng.random(64) * (1 - 1e-6 - 0.5)) + [0.5, 1 - 1e-6]
        for p in probes:
            cfg = ProtocolConfig(Family.UE, eps, k, p)
            assert objective(cfg, W_HALF) >= r.objective_value - 1e-9

    def test_athe_beats_probes_and_endpoints(self):
        eps, k = 4.0, 100
        r = optimize_athe(eps, k, W_HALF)
        rng = np.random.default_rng(1)
        probes = list(0.5 + rng.random(64) * 0.5) + [0.5, 1.0]
        for theta in probes:
            cfg = ProtocolConfig(Family.THE, eps, k, theta)
            assert objective(cfg, W_HALF) >= r.objective_value - 1e-9

    def test_returned_params_in_bounds(self):
        for w in (W_HALF, ObjectiveWeights(0.9)):
            assert 0.5 <= optimize_aue(2.0, 50, w).theta_star < 1.0
            assert 0.5 <= optimize_athe(2.0, 50, w).theta_star <= 1.0
            g = optimize_alh(2.0, 50, w).theta_star
            assert isinstance(g, int) and 2 <= g <= max(50, olh_g(2.0))
            om = optimize_ass(2.0, 50, w).theta_star
            assert isinstance(om, int) and 1 <= om < 50


class TestDominanceDirection:
    """Raising the attack weight trades estimation error for attack resistance:
    asr_at_opt is non-increasing and mse_at_opt non-decreasing in w_asr."""

    @pytest.mark.parametrize("solver", [optimize_ass, optimize_aue,
                                        optimize_alh, optimize_athe])
    def test_monotone_tradeoff(self, solver):
        eps, k = 4.0, 100
        asrs, mses = [], []
        for i in range(11):
            w = ObjectiveWeights(i / 10.0)
            r = solver(eps, k, w)
            asrs.append(r.asr_at_opt)
            mses.append(r.mse_at_opt)
        for a, b in zip(asrs, asrs[1:]):
            assert b <= a + 1e-9
        for a, b in zip(mses, mses[1:]):
            assert b >= a - 1e-9


# (k, eps, w_asr) cases on which the solvers must equal the exhaustive
# per-point search
SCREEN_CASES = [(k, eps, w) for k in (2, 10, 100) for eps in (1.0, 4.0, 10.0)
                for w in (0.0, 0.5, 1.0)]


def _scalar_objective(fam, eps, k, weights):
    """The package's scalar objective at one parameter value, memoized."""
    return functools.cache(
        lambda x: objective(ProtocolConfig(fam, eps, k, x), weights))


class TestScreenedGrids:
    """The array form gives the scalar objective's bits at every grid point,
    so theta_star is the exhaustive scalar search's to the bit."""

    GRIDS = {
        Family.SS: lambda k: np.arange(1, k),
        Family.UE: lambda k: np.linspace(0.5, 1.0, COARSE_GRID_POINTS + 1)[
            :COARSE_GRID_POINTS],
        Family.LH: lambda k: np.arange(2, k + 1),
        Family.THE: lambda k: np.linspace(0.5, 1.0, COARSE_GRID_POINTS),
    }

    @pytest.mark.parametrize("k,eps,w", SCREEN_CASES)
    def test_screen_matches_exhaustive_scalar_grid(self, k, eps, w):
        weights = ObjectiveWeights(w)
        f = {fam: _scalar_objective(fam, eps, k, weights)
             for fam in self.GRIDS}
        for fam, grid in self.GRIDS.items():
            g = grid(k)
            if len(g) == 0:
                continue
            vec = array_objective(fam, eps, k, weights)(g)
            scalar = np.array([f[fam](x) for x in g.tolist()])
            gap = np.abs(vec - scalar) / np.abs(scalar)
            assert gap.max() == 0, (fam, gap.max())

        if w > 0:  # at w_asr = 0 ass returns the baseline without a search
            assert (optimize_ass(eps, k, weights).theta_star
                    == orc.ass_exhaustive(f[Family.SS], k))
        assert (optimize_aue(eps, k, weights).theta_star
                == orc.aue_exhaustive(f[Family.UE]))
        assert (optimize_alh(eps, k, weights).theta_star
                == orc.alh_exhaustive(f[Family.LH], eps, k))
        assert (optimize_athe(eps, k, weights).theta_star
                == orc.athe_exhaustive(f[Family.THE]))

    @pytest.mark.parametrize("k", [10, 100])
    def test_ss_grid_past_the_overflow(self, k):
        # past eps = 709.09 omega e^eps overflows for omega >= 2: the array
        # form keeps the scalar bits there too, and ass weighs a real ASR
        # (it read 0, so that omega 2 looked free of attack risk)
        eps = 709.5
        f = _scalar_objective(Family.SS, eps, k, W_HALF)
        grid = np.arange(1, k)
        with np.errstate(all="ignore"):  # as the optimizer calls it
            vec = array_objective(Family.SS, eps, k, W_HALF)(grid)
        assert vec.tolist() == [f(x) for x in grid.tolist()]
        r = optimize_ass(eps, k, W_HALF)
        assert r.theta_star == orc.ass_exhaustive(f, k)
        assert r.asr_at_opt == pytest.approx(1 / r.theta_star, rel=1e-15)

    def test_evaluations_count_grid_and_refinement(self):
        assert optimize_ass(4.0, 100, W_HALF).evaluations == 99
        for solver in (optimize_aue, optimize_athe):
            r = solver(4.0, 100, W_HALF)
            assert COARSE_GRID_POINTS < r.evaluations < COARSE_GRID_POINTS + 60

    @pytest.mark.parametrize("solver", [optimize_aue, optimize_athe])
    def test_memory_flat_in_k(self, solver):
        tracemalloc.start()
        try:
            solver(4.0, 10 ** 4, W_HALF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20, peak / 2 ** 20


class TestBoundedAlh:
    """The hash-range search past g = k is a bisection, so its cost no longer
    grows with e^eps."""

    @pytest.mark.parametrize("eps", [20.0, 40.0])
    def test_large_eps_returns_fast(self, eps, capsys):
        t0 = time.perf_counter()
        code = main(["optimize", "--protocol", "alh", "--eps", str(eps),
                     "--k", "100"])
        assert code == 0
        assert time.perf_counter() - t0 < 2.0
        assert capsys.readouterr().out.startswith("protocol,")

    @pytest.mark.parametrize("eps", [36.0, 40.0, 43.7, 50.0])
    @pytest.mark.parametrize("w_asr", [0.0, 0.5])
    def test_large_eps_beats_log_spaced_probes(self, eps, w_asr):
        # past e^eps = 2^53, e + g - 1 rounds to e for small g and the scalar
        # objective has plateaus; the search must not stop on one
        k, w = 10, ObjectiveWeights(w_asr)
        r = optimize_alh(eps, k, w)
        # olh's g, past eps = 63 ln 2 beyond what a config holds
        top = min(round_half_away(math.exp(eps) + 1), MAX_G)
        assert 2 <= r.theta_star <= top
        probes = set(range(2, k + 1)) | {top, top - 1}
        probes |= {int(x) for x in np.geomspace(k, top, 200)}
        for g in sorted(probes):
            cfg = ProtocolConfig(Family.LH, eps, k, min(g, top))
            assert objective(cfg, w) >= r.objective_value, g

    def test_asr_survives_near_eps_cap(self):
        # (e^eps + g - 1) max(k/g, 1) overflows here; the ASR term must not
        # read as 0, which made g = k - 1 look free of attack risk
        r = optimize_alh(709.78, 100, W_HALF)
        assert r.asr_at_opt > 0
        assert r.asr_at_opt == pytest.approx(r.theta_star / 100, rel=1e-15)

    def test_largest_eps_exits_cleanly(self):
        r = subprocess.run([sys.executable, "-m", "ldptune.cli", "optimize",
                            "--protocol", "alh", "--eps", "700", "--k", "100"],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode in (0, 2)
        assert "Traceback" not in r.stderr


def _resolutions():
    """One line per resolution of the, ass, aue, alh and athe over k, eps,
    w_asr and n: the repr of its reported numbers, or of its error."""
    for name, k, eps, w, n in itertools.product(
            ("the", "ass", "aue", "alh", "athe"), (2, 10, 100, 1000),
            (0.5, 2.0, 8.0, 43.7, 300.0, 709.5), (0.0, 0.5, 1.0), (1, 1e4)):
        try:
            r = resolve_protocol(name, eps, k, ObjectiveWeights(w),
                                 n).optimization
            yield repr((r.theta_star, r.objective_value, r.asr_at_opt,
                        r.mse_at_opt, r.evaluations))
        except (RangeError, NonFinite) as exc:
            yield repr((type(exc).__name__, str(exc)))


# sha256 of `_resolutions()` joined by newlines, pinned from the optimizer
# whose array objective stated the SS and LH forms in a branch per family
_RESOLUTIONS_DIGEST = (
    "005731fff234d75b06742bdd8fe28ceb9eb253436d6750f9213a9656787edd03")

# budgets around the olh limit (63 ln 2), sue's (73.47) and the eps cap
_CAP_EPS = (43.6, 43.7, 73.4, 74.0, 300.0, 700.0, 709.5, MAX_EPS)

# budgets from the least float up: e^eps rounds to 1 below 2^-53, and SHE's
# Laplace samples overflow below 4.09e-307
_LOW_EPS = (5e-324, 1e-300, 1e-17, 2.0 ** -53, 1.2e-16, 1e-12, 1e-8)


class TestPinnedResolutions:
    def test_resolutions_pinned(self):
        got = "\n".join(_resolutions()).encode()
        assert hashlib.sha256(got).hexdigest() == _RESOLUTIONS_DIGEST

    @pytest.mark.parametrize("name", [n for n in PROTOCOL_NAMES if n != "she"])
    def test_eps_cap_band(self, name):
        # every point answers with finite columns or names eps in its error
        for eps, k in itertools.product(_CAP_EPS, (2, 10, 1000, 10 ** 4)):
            try:
                (row,) = pareto_sweep([name], [eps], [k], W_HALF)
            except RangeError as exc:
                assert exc.field == "eps", (eps, k, exc)
                continue
            values = [row.analytic_asr, row.analytic_mse]
            if row.param_value is not None:
                values.append(row.param_value)
            assert all(math.isfinite(v) for v in values), (eps, k, row)

    @pytest.mark.parametrize("name", PROTOCOL_NAMES)
    def test_low_eps_band(self, name):
        # where e^eps rounds to 1 or the pair (p*, q*) rounds to equal, and
        # where SHE's Laplace scale 2/eps overflows, the error names eps
        for eps, k in itertools.product(_LOW_EPS, (2, 10, 1000)):
            try:
                (row,) = pareto_sweep([name], [eps], [k], W_HALF,
                                      she_trials=100)
            except RangeError as exc:
                assert "eps" in exc.field, (eps, k, exc)
                continue
            assert math.isfinite(row.analytic_asr), (eps, k, row)
            assert math.isfinite(row.analytic_mse), (eps, k, row)


# each adaptive name and the standard names whose parameter it tunes
_BASELINES = {"ass": ("ss",), "aue": ("sue", "oue"), "alh": ("blh", "olh"),
              "athe": ("the",)}


@pytest.mark.parametrize("name", ADAPTIVE_NAMES)
def test_adaptive_objective_at_most_its_baselines(name):
    # the paper's claim: at the same weights and n, tuning the free
    # parameter never does worse than the standard rule for it
    for eps, k, w, n in itertools.product(
            (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 14.0, 30.0), (2, 10, 100),
            (0.0, 0.25, 0.5, 0.75, 1.0), (1, 1e4)):
        weights = ObjectiveWeights(w)
        best = objective(resolve_protocol(name, eps, k, weights, n).config,
                         weights, n)
        for base in _BASELINES[name]:
            cfg = resolve_protocol(base, eps, k, weights, n).config
            bound = objective(cfg, weights, n)
            assert best <= bound * (1 + 1e-12), (name, base, eps, k, w, n)


def test_headline_asr_reduction_and_its_mse_cost():
    # the abstract's headline, "reducing ASR by up to five orders of
    # magnitude": at eps 14, k 1e6, w_asr 0.9 and n 1e4, ass and alh cut
    # their baseline's ASR by more than 1e5, and raise its MSE about as much
    # (README, "Findings worth knowing about")
    w, k, n = ObjectiveWeights(0.9), 10 ** 6, 10 ** 4
    for base, tuned, params, mse_cost in (
            ("ss", "ass", (1, 230769), 1.97e5),
            ("olh", "alh", (1202605, 4), 1.0e5)):
        b, t = (resolve_protocol(name, 14.0, k, w, n).config
                for name in (base, tuned))
        assert (b.param, t.param) == params
        assert expected_asr(b) / expected_asr(t) >= 1e5, tuned
        assert analytic_mse(t, n) / analytic_mse(b, n) == pytest.approx(
            mse_cost, rel=0.01), tuned

"""Distinguishability attacks and their expected success rates."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

import oracles as orc
from ldptune import attacks
from ldptune.attacks import (
    ASRS,
    _bucket_cuts,
    _she_hits,
    attack,
    bitvector_expected_asr,
    empirical_asr,
    expected_asr,
    expected_asr_she_mc,
    lgamma_table,
    lh_exact_expected_asr,
    logsumexp,
    ss_expected_asr,
)
from ldptune.model import (
    MAX_EPS,
    BitVectorReport,
    CategoryReport,
    DataError,
    EmptyInput,
    Family,
    ProtocolConfig,
    PureParams,
    RangeError,
    RngStream,
    SubsetReport,
    UnsupportedFamily,
    derive_stream,
    laplace_inplace,
    order_margin,
    validate_config,
)
from ldptune.optimizer import COARSE_GRID_POINTS
from test_protocols import FAMILY_PARAMS, REPORT_FAMILIES
from ldptune.protocols import (PAIRS, hash_buckets, oue_params, perturb,
                               pure_params, sue_params, the_params,
                               ue_pair_from_p)


def _vc(family, eps, k, param=None):
    return validate_config(ProtocolConfig(family, eps, k, param))


class TestAttackBehavior:
    def test_grr_attack_echoes_report(self):
        cfg = _vc(Family.GRR, 1.0, 5)
        rng = derive_stream(0, 0, 0)
        assert attack(CategoryReport(3), cfg, rng) == 3

    def test_ss_attack_picks_inside_subset(self):
        cfg = _vc(Family.SS, 1.0, 6, 3)
        rep = SubsetReport(frozenset({2, 5, 6}))
        for u in range(200):
            g = attack(rep, cfg, derive_stream(1, 0, u))
            assert g in {2, 5, 6}

    def test_ue_attack_picks_support_or_uniform(self):
        cfg = _vc(Family.UE, 1.0, 5, 0.7)
        rep = BitVectorReport(np.asarray([0, 1, 0, 1, 0]))
        for u in range(200):
            assert attack(rep, cfg, derive_stream(2, 0, u)) in {2, 4}

    def test_ue_attack_empty_support_uniform_fallback(self):
        k = 5
        cfg = _vc(Family.UE, 1.0, k, 0.7)
        rep = BitVectorReport(np.zeros(k, dtype=np.int64))
        counts = np.zeros(k)
        n = 20000
        for u in range(n):
            counts[attack(rep, cfg, derive_stream(3, 0, u)) - 1] += 1
        # uniform over all k categories, 5 sigma per cell
        sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
        assert np.all(np.abs(counts - n / k) < 5 * sigma)

    def test_attack_uniform_over_subset(self):
        cfg = _vc(Family.SS, 1.0, 6, 3)
        rep = SubsetReport(frozenset({2, 5, 6}))
        counts = {2: 0, 5: 0, 6: 0}
        n = 30000
        for u in range(n):
            counts[attack(rep, cfg, derive_stream(4, 0, u))] += 1
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        for v in counts.values():
            assert abs(v - n / 3) < 5 * sigma

    def test_she_attack_is_argmax(self):
        cfg = _vc(Family.SHE, 1.0, 4)
        from ldptune.model import RealVectorReport
        rep = RealVectorReport(np.asarray([0.1, 0.9, 0.3, 0.2]))
        rng = derive_stream(5, 0, 0)
        assert attack(rep, cfg, rng) == 2

    def test_she_argmax_tie_takes_lowest_index(self):
        cfg = _vc(Family.SHE, 1.0, 4)
        from ldptune.model import RealVectorReport
        rep = RealVectorReport(np.asarray([0.3, 0.9, 0.9, 0.2]))
        assert attack(rep, cfg, derive_stream(5, 0, 1)) == 2

    @pytest.mark.parametrize("fam", list(Family))
    def test_wrong_report_type_names_the_family(self, fam):
        cfg = _vc(fam, 1.0, 4, FAMILY_PARAMS[fam])
        for report, fams in REPORT_FAMILIES:
            if fam in fams:
                assert 1 <= attack(report, cfg, derive_stream(7, 0, 0)) <= 4
                continue
            with pytest.raises(UnsupportedFamily,
                               match=f"^report does not match family {fam.value}$"):
                attack(report, cfg, derive_stream(7, 0, 0))

    def test_attack_consumes_no_draw_for_grr(self):
        cfg = _vc(Family.GRR, 1.0, 5)
        rng = derive_stream(6, 0, 0)
        before = rng._count
        attack(CategoryReport(2), cfg, rng)
        assert rng._count == before


class TestEmpiricalAsr:
    def test_counts_matches(self):
        r = empirical_asr([(1, 1), (1, 2), (2, 2)])
        assert r.asr == pytest.approx(2 / 3)
        assert r.n == 3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            empirical_asr([])


class TestClosedForms:
    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_grr_asr(self, eps, k):
        cfg = _vc(Family.GRR, eps, k)
        assert expected_asr(cfg) == pytest.approx(orc.grr_asr(eps, k), abs=1e-15)

    def test_grr_asr_monotone_in_eps(self):
        vals = [expected_asr(_vc(Family.GRR, e, 8)) for e in
                (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_small_eps_approaches_uniform_guessing(self):
        for k in (2, 5, 10):
            assert expected_asr(_vc(Family.GRR, 1e-9, k)) == pytest.approx(
                1 / k, abs=1e-9)
            assert expected_asr(_vc(Family.SS, 1e-9, k, max(1, k // 2))
                                ) == pytest.approx(1 / k, abs=1e-9)

    def test_ss_asr_equals_p_star_over_omega(self):
        eps, k, omega = 1.0, 8, 3
        cfg = _vc(Family.SS, eps, k, omega)
        ps, _ = orc.ss_pure(eps, k, omega)
        assert expected_asr(cfg) == pytest.approx(ps / omega, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_bitvector_asr_matches_enumeration(self, k):
        for p, q in [(0.7, 0.2), (0.9, 0.05), (0.6, 0.4)]:
            ref = orc.ue_asr_subset_enum(p, q, k)
            assert bitvector_expected_asr(p, q, k) == pytest.approx(ref, abs=1e-13)
            assert orc.ue_asr_binomial(p, q, k) == pytest.approx(ref, abs=1e-13)

    def test_bitvector_asr_q_zero_edge(self):
        p, k = 0.8, 6
        # report supports only the true value w.p. p, else nothing: uniform
        assert bitvector_expected_asr(p, 0.0, k) == pytest.approx(
            p + (1 - p) / k, abs=1e-15)
        # in an array, the q = 0 pair keeps that form beside the others
        got = bitvector_expected_asr(np.array([p, p]), np.array([0.0, 0.1]), k)
        assert got.tolist() == [bitvector_expected_asr(p, 0.0, k),
                                bitvector_expected_asr(p, 0.1, k)]

    @pytest.mark.parametrize("k", [2, 100, 8193, 10 ** 4])
    def test_bitvector_asr_arrays_match_per_pair_calls(self, k):
        # the optimizer's UE and THE grids at eps 4, in slices of 64 pairs:
        # each pair's ASR is the scalar call's to the bit
        ue_grid = np.linspace(0.5, 1.0, COARSE_GRID_POINTS + 1)[:-1]
        the_grid = np.linspace(0.5, 1.0, COARSE_GRID_POINTS)
        for p, q in (ue_pair_from_p(4.0, ue_grid), the_params(4.0, the_grid)):
            got = np.concatenate([bitvector_expected_asr(p[i:i + 64],
                                                         q[i:i + 64], k)
                                  for i in range(0, len(p), 64)])
            want = [bitvector_expected_asr(a, b, k)
                    for a, b in zip(p.tolist(), q.tolist())]
            assert got.tolist() == want

    @pytest.mark.parametrize("k", [2, 3, 10, 100, 1000, 10 ** 4])
    def test_bitvector_asr_equals_binomial_closed_form(self, k):
        # the log-space support-size sum against E[1/(1+B)] in closed form
        # (`oracles.bitvector_asr_closed`), at the UE and THE pairs the
        # presets and optimizers use, up to the eps cap
        for eps in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0, 73.0,
                    100.0, 300.0, 709.5):
            pairs = [oue_params(eps),
                     *(the_params(eps, t) for t in (0.5, 0.75, 1.0)),
                     *(ue_pair_from_p(eps, p) for p in (0.5, 0.9, 0.999))]
            if eps <= 73.0:  # sue's p rounds to 1 past 73.47
                pairs.append(sue_params(eps))
            p, q = np.array(pairs).T
            want = orc.bitvector_asr_closed(p, q, k)
            got = [bitvector_expected_asr(a, b, k) for a, b in pairs]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
            np.testing.assert_allclose(bitvector_expected_asr(p, q, k), want,
                                       rtol=1e-9, atol=0)

    def test_lh_asr_near_eps_cap(self):
        # e^eps is finite but (e^eps + g - 1) max(k/g, 1) overflows
        assert expected_asr(_vc(Family.LH, 709.78, 10, 2)) == 0.2
        for eps, k, g in [(1.0, 10, 2), (4.0, 100, 55), (30.0, 10, 10 ** 6)]:
            e = math.exp(eps)
            assert expected_asr(_vc(Family.LH, eps, k, g)) == (
                e / ((e + g - 1) * max(k / g, 1.0)))

    @pytest.mark.parametrize("k", [10, 1000, 10 ** 4])
    def test_ss_asr_past_the_overflow(self, k):
        # omega e^eps overflows past eps = 709.09 for omega >= 2; the ASR
        # stays the exact ratio there (it read 0), as scalar and array, and
        # keeps the plain expression's bits wherever that one is finite
        from fractions import Fraction
        omegas = sorted({w for w in (1, 2, 3, k // 2, k - 1) if w < k})
        for eps in (709.0, 709.09, 709.1, 709.5, MAX_EPS):
            e = Fraction(math.exp(eps))
            with np.errstate(all="ignore"):  # as the optimizer calls it
                arr = ss_expected_asr(eps, k, np.array(omegas))
            for i, w in enumerate(omegas):
                got = expected_asr(_vc(Family.SS, eps, k, w))
                assert got == arr[i]
                assert got == pytest.approx(float(e / (w * e + k - w)),
                                            rel=1e-15)
                den = w * math.exp(eps) + k - w
                if math.isfinite(den):
                    assert got == math.exp(eps) / den

    @pytest.mark.parametrize("eps", [2.0, 709.5, MAX_EPS])
    def test_one_form_for_floats_and_arrays(self, eps):
        # each pure family's ASR and (p*, q*) take a float param, and give
        # python floats (a numpy scalar would warn where a python float
        # overflows to inf quietly), or an array, and give each float's bits
        k = 1000
        params = {Family.GRR: [None], Family.SS: [1, 2, 500, 999],
                  Family.UE: [0.5, 0.75, 0.9], Family.THE: [0.5, 0.75, 1.0],
                  Family.LH: [2, 5, 999, 1000, 10 ** 6]}
        assert set(ASRS) == set(PAIRS) == set(params)
        for fam, xs in params.items():
            asrs = [ASRS[fam](eps, k, x) for x in xs]
            pairs = [PAIRS[fam](eps, k, x) for x in xs]
            assert all(type(v) is float for v in [*asrs, *sum(pairs, ())]), fam
            for x, a, pair in zip(xs, asrs, pairs):
                cfg = _vc(fam, eps, k, x)
                assert expected_asr(cfg) == a
                assert pure_params(cfg) == PureParams(*pair)
            if fam is Family.GRR:
                continue
            with np.errstate(all="ignore"):  # as the optimizer calls them
                arr_asr = ASRS[fam](eps, k, np.array(xs))
                arr_pair = PAIRS[fam](eps, k, np.array(xs))
            assert arr_asr.tolist() == asrs, fam
            assert [a.tolist() for a in arr_pair] == [list(v)
                                                      for v in zip(*pairs)]

    def test_she_analytic_asr_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            expected_asr(_vc(Family.SHE, 1.0, 4))


class TestScipyPorts:
    """The in-package log-gamma table and logsumexp return scipy's bits."""

    def test_lgamma_table_equals_gammaln(self):
        j = np.arange(1, 2 * 10 ** 5 + 1)
        ours = lgamma_table(len(j))
        assert not ours.flags.writeable
        mismatched = j[ours.view(np.int64) != special.gammaln(j).view(np.int64)]
        assert mismatched.size == 0, mismatched[:10]

    @staticmethod
    def _rows():
        rng = np.random.default_rng(7)
        rows = [rng.normal(0, s, n) for s in (1.0, 40.0, 700.0)
                for n in (1, 2, 7, 100)]
        tied = rng.normal(0, 3, 50)
        tied[[3, 17, 40]] = tied.max() + 1.0
        holes = rng.normal(0, 3, 50)
        holes[::4] = -np.inf
        rows += [tied, holes, np.full(50, -np.inf), np.full(50, 2.5),
                 np.array([-1e308, 1e308]), np.array([0.0, np.inf]),
                 np.array([np.nan, 1.0])]
        return rows

    def test_logsumexp_1d_equals_scipy(self):
        for a in self._rows():
            with np.errstate(over="ignore"):  # scipy's, at [-1e308, 1e308]
                ours, ref = logsumexp(a), special.logsumexp(a)
            assert np.float64(ours).tobytes() == np.float64(ref).tobytes(), a

    def test_logsumexp_axis1_equals_scipy(self):
        # a 2-d input sums its last axis, row by row
        a = np.vstack([r for r in self._rows() if len(r) == 50])
        ours = logsumexp(a)
        assert ours.shape == (len(a),)
        assert ours.tobytes() == special.logsumexp(a, axis=1).tobytes()
        assert ours[2] == -np.inf  # the all -inf row


class TestBruteForce:
    """The closed forms against `oracles.enumerated_asr`, which sums over
    the report space."""

    @pytest.mark.parametrize("family,param", [
        pytest.param(Family.GRR, None, id="grr-kw0"),
        pytest.param(Family.SS, 2, id="ss-kw1"),
        pytest.param(Family.THE, 0.8, id="the-kw2"),
    ])
    def test_matches_closed_form(self, family, param):
        cfg = _vc(family, 1.0, 5, param)
        for x in (1, 3, 5):
            assert orc.enumerated_asr(cfg, x) == pytest.approx(
                expected_asr(cfg), abs=1e-12)

    def test_ue_matches_closed_form(self):
        cfg = _vc(Family.UE, 1.0, 5, sue_params(1.0)[0])
        assert orc.enumerated_asr(cfg, 2) == pytest.approx(
            expected_asr(cfg), abs=1e-12)

    def test_asr_is_prior_independent(self):
        # the expected ASR does not depend on which value is true
        cfg = _vc(Family.SS, 0.7, 6, 2)
        vals = {orc.enumerated_asr(cfg, x) for x in range(1, 7)}
        assert max(vals) - min(vals) < 1e-12


class TestSheMonteCarlo:
    def test_deterministic_given_stream(self):
        # equal arguments draw the same stream, that of their (eps, k) point
        a = expected_asr_she_mc(2.0, 5, 4000)
        b = expected_asr_she_mc(2.0, 5, 4000)
        assert a.asr == b.asr

    @pytest.mark.parametrize("k", [1, 1.0, True])
    def test_k_one_is_a_range_error(self, k):
        # as resolve_protocol("she", eps, 1) is: k = 1 has no other value
        with pytest.raises(RangeError) as exc:
            expected_asr_she_mc(2.0, k, 10)
        assert exc.value.field == "k"

    @pytest.mark.parametrize("eps,k,field", [(0.0, 10, "eps"), (-1.0, 10, "eps"),
                                             (math.inf, 10, "eps"),
                                             (2.0, 0, "k"), (2.0, -3, "k")])
    def test_bad_eps_or_k_rejected(self, eps, k, field):
        with pytest.raises(RangeError) as exc:
            expected_asr_she_mc(eps, k, 100)
        assert exc.value.field == field

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_is_a_config_error(self, trials):
        # a RangeError exits 2, as a configuration error; a DataError exits 4
        with pytest.raises(RangeError) as exc:
            expected_asr_she_mc(2.0, 10, trials)
        assert exc.value.field == "trials"
        assert not isinstance(exc.value, DataError)

    @pytest.mark.parametrize("trials", [1e3, 2.5, True])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(RangeError) as exc:
            expected_asr_she_mc(2.0, 10, trials)
        assert exc.value.field == "trials"
        assert expected_asr_she_mc(2.0, 10, np.int64(5)).n == 5

    def test_bounds_and_monotonicity(self):
        lo = expected_asr_she_mc(0.5, 8, 30000).asr
        hi = expected_asr_she_mc(6.0, 8, 30000).asr
        assert 0 < lo < hi < 1
        assert lo < 0.3 and hi > 0.5

    def test_matches_independent_oracle(self):
        r = expected_asr_she_mc(2.0, 6, 2 * 10 ** 5)
        ref = orc.she_asr_mc(2.0, 6, 2 * 10 ** 5, seed=1234)
        assert abs(r.asr - ref) < 4 * math.sqrt(2.0) * r.stderr


    @pytest.mark.parametrize("eps", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("k", [2, 10, 100])
    def test_matches_exact_quadrature(self, eps, k):
        r = expected_asr_she_mc(eps, k, 10 ** 5)
        exact = orc.she_asr_exact(eps, k)
        assert abs(r.asr - exact) < 4 * r.stderr


def _laplace_of(j, b):
    """The package's Laplace(0, b) sample of each 53-bit draw j."""
    return laplace_inplace(
        np.left_shift(np.asarray(j, dtype=np.uint64), np.uint64(11)), b)


def _first_reaching(targets, b):
    """For each target v, the first 53-bit draw j with L(j) + 1 >= v."""
    lo = np.full(targets.size, -1, dtype=np.int64)
    hi = np.full(targets.size, 1 << 53, dtype=np.int64)
    for _ in range(60):
        live = hi - lo > 1
        mid = np.where(live, (lo + hi) // 2, 0)
        up = _laplace_of(mid, b) + 1.0 >= targets
        hi = np.where(live & up, mid, hi)
        lo = np.where(live & ~up, mid, lo)
    return hi


def _full_hits(z, b):
    """Hits by the full row transform and argmax, on a copy of z."""
    v = laplace_inplace(z.copy(), b)
    v[:, 0] += 1.0
    return int(np.count_nonzero(np.argmax(v, axis=1) == 0))


def _raw_rows(j, seed):
    """Raw draws with the given 53-bit values and random low 11 bits."""
    low = np.random.default_rng(seed).integers(0, 1 << 11, size=j.shape,
                                               dtype=np.uint64)
    return (np.asarray(j, dtype=np.uint64) << np.uint64(11)) | low


def _states(y):
    """The pre-final splitmix states whose final xor-shift 31 gives the raw
    draws y: the inverse s = y ^ (y >> 31) ^ (y >> 62)."""
    y = np.asarray(y, dtype=np.uint64)
    return y ^ (y >> np.uint64(31)) ^ (y >> np.uint64(62))


def _hi(y):
    """The screen's upper bound for the rows y: the largest state among
    columns 1..k-1 with bits 0..32 set."""
    return _states(y)[:, 1:].max(axis=1) | np.uint64((1 << 33) - 1)


def _screen(y, b):
    """`_she_hits` on the rows of raw draws y, confirming from y itself."""
    s = _states(y)
    return _she_hits(s[:, 0].copy(), s[:, 1:].max(axis=1), b,
                     _bucket_cuts(b), lambda idx: y[idx].copy())


class TestSheScreen:
    """`_she_hits` decides a trial from two pre-final states, the true
    coordinate's and the others' largest: by the buckets of their top 12
    bits, else by the true sample against a 31-bit bracket of the
    runner-up's, else, inside that bracket's order margin, by the full row."""

    B = 1.0
    K = 5

    def _band_rows(self, seed=3):
        # the others' largest draw jt sits in a random column, the rest
        # below it; the true draw j0 is the first whose sample + 1 reaches
        # L(jt), the runner-up's sample, which lands in the band
        rng = np.random.default_rng(seed)
        n = 400
        jt = (6 << 50) + (np.arange(n, dtype=np.int64) << 20)
        j0 = _first_reaching(_laplace_of(jt, self.B), self.B)
        j = rng.integers(0, jt[:, None], size=(n, self.K))
        j[:, 0] = j0
        j[np.arange(n), rng.integers(1, self.K, size=n)] = jt
        return j, jt, j0

    def test_band_rows_go_through_the_full_transform(self):
        j, jt, j0 = self._band_rows()
        vt = _laplace_of(jt, self.B)
        v0 = _laplace_of(j0, self.B) + 1.0
        tie = v0 == vt
        # exact ties and strict near-ties both occur, all inside the band
        assert tie.any() and (~tie).any()
        assert np.all((v0 >= vt) & (v0 < vt + order_margin(vt)))
        z = _raw_rows(j, 4)
        hits, confirmed = _screen(z, self.B)
        assert confirmed == len(j)
        # ties go to the true coordinate, as argmax takes the first maximum
        assert hits == _full_hits(z, self.B) == len(j)

    def test_rows_within_the_margin_of_the_bound_are_confirmed(self):
        # the true sample lands in [L(hi), L(hi) + order_margin): above the
        # bracket's bound, but within the margin that log1p's rounding allows
        j, _, _ = self._band_rows(6)
        z = _raw_rows(j, 7)
        vh = laplace_inplace(_hi(z), self.B)
        j0 = _first_reaching(vh, self.B)
        z[:, 0] = _raw_rows(j0, 8)
        v0 = _laplace_of(j0, self.B) + 1.0
        assert np.all((v0 >= vh) & (v0 < vh + order_margin(vh)))
        hits, confirmed = _screen(z, self.B)
        assert confirmed == len(j)
        assert hits == _full_hits(z, self.B) == len(j)

    def test_bracket_keeps_31_bits(self):
        # the final xor-shift 31 keeps bits 33..63 of a state, not 31..63:
        # column 2's state is below column 1's (bits 31..32 read 00 < 01),
        # but its draw is the larger (bits 31..32 read 11 > 10), because
        # bits 62..63 are set.  The true draw sits above column 1's draw by
        # twice the order margin and below column 2's, so the trial misses;
        # only a bracket on 31 bits sends it to the confirm.
        n = 50
        prefix = (np.uint64(3) << np.uint64(29)) + np.arange(n, dtype=np.uint64)
        high = prefix << np.uint64(33)
        y = np.empty((n, self.K), dtype=np.uint64)
        y[:, 1] = high | (np.uint64(0b10) << np.uint64(31))
        y[:, 2] = high | (np.uint64(0b11) << np.uint64(31))
        y[:, 3:] = _raw_rows(np.full((n, self.K - 3), 1 << 40), 9)
        s = _states(y)
        assert np.all((s[:, 2] < s[:, 1]) & (s[:, 1:].argmax(axis=1) == 0))
        vb = laplace_inplace(y[:, 1].copy(), self.B)
        j0 = _first_reaching(vb + 2 * order_margin(vb), self.B)
        y[:, 0] = _raw_rows(j0, 10)
        v0 = _laplace_of(j0, self.B) + 1.0
        assert np.all(v0 < laplace_inplace(y[:, 2].copy(), self.B))
        hits, confirmed = _screen(y, self.B)
        assert confirmed == n
        assert hits == _full_hits(y, self.B) == 0

    def test_sure_rows_skip_the_confirm(self):
        j, _, j0 = self._band_rows()
        # one draw lower the true sample falls below the runner-up: a miss
        j[:, 0] = j0 - 1
        # a row of equal draws: the true sample is 1 above the rest, a hit
        equal = np.full((7, self.K), 5 << 50)
        z = _raw_rows(np.vstack([j, equal]), 5)
        hits, confirmed = _screen(z, self.B)
        assert confirmed == 0
        assert hits == _full_hits(z, self.B) == len(equal)

    @pytest.mark.parametrize("eps", [0.5, 2.0, 30.0, 1e-9])
    def test_bucket_cuts_decide_only_certain_pairs(self, eps):
        # at the hit cut the least true draw of its bucket beats the
        # greatest other draw of the others' bucket, and one bucket below the
        # miss cut the greatest true draw loses to the least other draw
        b = 2.0 / eps
        hit, miss = _bucket_cuts(b)
        t = np.arange(1 << 12, dtype=np.uint64)
        least = t << np.uint64(52)
        most = least | np.uint64((1 << 52) - 1)
        v_least = laplace_inplace(least.copy(), b)
        v_most = laplace_inplace(most.copy(), b)
        on = hit < t.size
        assert on.any()
        assert np.all(v_least[hit[on]] + 1.0 >= v_most[on])
        on = miss > 0
        assert on.any()
        assert np.all(v_most[miss[on] - 1] + 1.0 < v_least[on])

    @pytest.mark.parametrize("eps", [0.5, 2.0, 10.0, 30.0])
    @pytest.mark.parametrize("k", [2, 3, 100])
    def test_equals_full_transform_on_stream_draws(self, eps, k):
        z = RngStream(17).u64s(4000 * k).reshape(4000, k)
        assert _screen(z, 2.0 / eps)[0] == _full_hits(z, 2.0 / eps)


def _point_seed(eps, k):
    """Seed of the stream `expected_asr_she_mc` draws at (eps, k)."""
    return derive_stream(attacks.DEFAULT_ORACLE_SEED,
                         int(round(eps * 10 ** 6)) & ((1 << 32) - 1), k).seed


class TestSheMonteCarloStream:
    """`expected_asr_she_mc` gives the hits of a full transform of every
    draw of its (eps, k) point's stream (`oracles.she_mc_hits`)."""

    @pytest.mark.parametrize("eps", [0.5, 2.0, 14.0, 700.0])
    @pytest.mark.parametrize("k,trials", [(2, 20001), (3, 20001),
                                          (100, 20001), (1000, 3001),
                                          (40000, 5)])
    def test_hits_equal_full_transform(self, eps, k, trials):
        # trials is not a multiple of the trials per pass or per screen
        r = expected_asr_she_mc(eps, k, trials)
        seed = _point_seed(eps, k)
        assert r.asr == orc.she_mc_hits(eps, k, trials, seed) / trials

    @pytest.mark.parametrize("k", [3, 100])
    def test_confirm_regenerates_the_trials_rows(self, k, monkeypatch):
        # with an infinite margin every trial that is not a sure miss is
        # decided on its regenerated row, in each of three screen groups
        monkeypatch.setattr(attacks, "order_margin", lambda v: np.inf)
        trials = 20001
        r = expected_asr_she_mc(2.0, k, trials)
        seed = _point_seed(2.0, k)
        assert r.asr == orc.she_mc_hits(2.0, k, trials, seed) / trials

    @pytest.mark.parametrize("k", [2, 100])
    def test_memory_bounded_in_trials(self, k):
        # the screen works on groups of a bounded number of trials, whatever
        # k is, and no pass holds more than about 2 PASS_SIZE draws
        tracemalloc.start()
        try:
            expected_asr_she_mc(2.0, k, 4 * 10 ** 5 // k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestLocalHashingAsr:
    def test_seed_average_matches_exact_form(self):
        seeds = derive_stream(10, 0, 0).u64s(10 ** 4)
        for (eps, k, g) in [(0.5, 3, 2), (1.0, 4, 2), (2.0, 5, 3), (2.0, 2, 2)]:
            asr, stderr = orc.lh_seed_averaged_asr(hash_buckets, seeds,
                                                   eps, k, g, 1)
            exact = lh_exact_expected_asr(eps, k, g)
            assert abs(asr - exact) < 3 * stderr

    def test_exact_form_against_independent_oracle(self):
        for (eps, k, g) in [(1.0, 4, 2), (2.0, 6, 3)]:
            p = math.exp(eps) / (math.exp(eps) + g - 1)
            assert lh_exact_expected_asr(eps, k, g) == pytest.approx(
                orc.lh_asr_exact(p, k, g), abs=1e-13)

    def test_pinned_approximation_overshoots_at_small_k(self):
        # the simple closed form ignores preimage collisions; document the gap
        eps, k, g = 2.0, 2, 2
        approx = expected_asr(_vc(Family.LH, eps, k, g))
        exact = lh_exact_expected_asr(eps, k, g)
        assert approx - exact > 0.15

    def test_seed_average_value_independent(self):
        seeds = derive_stream(11, 0, 0).u64s(3000)
        a, a_err = orc.lh_seed_averaged_asr(hash_buckets, seeds, 1.0, 6, 3, 1)
        b, b_err = orc.lh_seed_averaged_asr(hash_buckets, seeds, 1.0, 6, 3, 4)
        assert abs(a - b) < 4 * math.hypot(a_err, b_err)


class TestPrivacyProperty:
    """Enumerated likelihood ratios stay within the privacy budget."""

    def _report_distribution(self, cfg, x, n_outcomes_draws=None):
        # exact output distribution via enumeration for discrete families
        import itertools
        fam = cfg.family
        e = math.exp(cfg.eps)
        if fam is Family.GRR:
            p = e / (e + cfg.k - 1)
            q = (1 - p) / (cfg.k - 1)
            return {y: (p if y == x else q) for y in range(1, cfg.k + 1)}
        if fam is Family.SS:
            probs = {}
            for comb in itertools.combinations(range(1, cfg.k + 1), cfg.param):
                probs[comb] = orc.ss_outcome_prob(cfg.eps, cfg.k, cfg.param,
                                                  x, set(comb))
            return probs
        raise AssertionError

    def test_grr_ratios_bounded(self):
        for k in (2, 4, 6):
            cfg = _vc(Family.GRR, 1.3, k)
            dists = [self._report_distribution(cfg, x) for x in range(1, k + 1)]
            cap = math.exp(cfg.eps) * (1 + 1e-9)
            for da in dists:
                for db in dists:
                    for y in da:
                        assert da[y] / db[y] <= cap

    def test_ue_ratios_bounded(self):
        import itertools
        for eps, p0 in ((0.8, 0.6), (1.5, 0.75)):
            p, q = ue_pair_from_p(eps, p0)
            k = 4
            cap = math.exp(eps) * (1 + 1e-9)
            for bits in itertools.product((0, 1), repeat=k):
                probs = []
                for x in range(1, k + 1):
                    pr = 1.0
                    for j, b in enumerate(bits, start=1):
                        pj = p if j == x else q
                        pr *= pj if b else (1 - pj)
                    probs.append(pr)
                assert max(probs) / min(probs) <= cap

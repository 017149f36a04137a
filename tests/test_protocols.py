"""Perturbation primitives, pure parameters, estimators, and variance forms."""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles as orc
from ldptune.attacks import ASRS, expected_asr, expected_asr_she_mc
from ldptune.model import (
    PARAMS,
    BitVectorReport,
    CategoryReport,
    Family,
    HashedReport,
    MAX_EPS,
    ProtocolConfig,
    RangeError,
    RealVectorReport,
    SubsetReport,
    UnsupportedFamily,
    derive_stream,
    laplace_inplace,
)
from ldptune.protocols import (
    PAIRS,
    PERTURBS,
    REPORTS,
    analytic_mse,
    estimate_frequencies,
    first_order_mse,
    grr_params,
    grr_perturb,
    hash_bucket,
    lh_perturb,
    olh_g,
    oue_params,
    perturb,
    pure_params,
    round_half_away,
    she_estimate,
    she_perturb,
    ss_default_omega,
    ss_perturb,
    ss_pure_pair,
    sue_params,
    support,
    the_params,
    the_perturb,
    the_threshold,
    ue_pair_from_p,
    ue_perturb,
)
from ldptune.harness import gen_dirichlet
from ldptune.presets import resolve_protocol
from ldptune.simulate import (
    _KERNELS,
    RunGroup,
    _at_or_past,
    _order_cut,
    _rank_attack_success,
    _the_cuts,
    block_rows,
    simulate_run,
)


def _vc(family, eps, k, param=None):
    return ProtocolConfig(family, eps, k, param)


class TestParameterRules:
    def test_grr_params_closed_form(self):
        p, q = grr_params(math.log(3.0), 4)
        assert p == pytest.approx(0.5, abs=1e-15)
        assert q == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_sue_params(self):
        p, q = sue_params(2.0 * math.log(3.0))
        assert p == pytest.approx(0.75, abs=1e-15)
        assert q == pytest.approx(0.25, abs=1e-15)

    def test_sue_params_past_its_budget_limit(self):
        # p < 1 up to e^(eps/2) = 2^53; past it p can round to 1, and the
        # error names eps and the limit, not a p the caller never gave
        assert sue_params(73.47)[0] < 1
        for eps in (73.48, 74.0, 700.0):
            with pytest.raises(RangeError, match=r"^eps .*73\.47.*got"):
                sue_params(eps)

    def test_olh_g_past_its_budget_limit(self):
        # g <= 2^63 up to eps = 63 ln 2; past it the error names eps and the
        # limit, not a g the caller never gave
        assert olh_g(43.6) < olh_g(63 * math.log(2)) <= 2 ** 63
        for eps in (43.67, 43.7, 50.0, 700.0):
            with pytest.raises(RangeError, match=r"^eps .*43\.668.*got"):
                olh_g(eps)

    def test_oue_params(self):
        p, q = oue_params(math.log(3.0))
        assert p == 0.5
        assert q == pytest.approx(0.25, abs=1e-15)

    def test_ue_pair_from_p_hits_budget_exactly(self):
        for eps in (0.5, 1.0, 4.0):
            for p in (0.55, 0.7, 0.9):
                pa, qa = ue_pair_from_p(eps, p)
                ratio = math.log(pa * (1 - qa) / ((1 - pa) * qa))
                assert ratio == pytest.approx(eps, abs=1e-12)

    def test_round_half_away(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(3.5) == 4
        assert round_half_away(2.4) == 2
        assert round_half_away(2.6) == 3

    def test_ss_default_omega(self):
        assert ss_default_omega(4.0, 100) == 2
        assert ss_default_omega(2.0, 100) == 12
        assert ss_default_omega(1.0, 4) == 1   # floor at 1

    @pytest.mark.parametrize("eps,g", [(2.0, 8), (4.0, 56), (6.0, 404),
                                       (8.0, 2982), (10.0, 22027)])
    def test_olh_g_frozen_values(self, eps, g):
        assert olh_g(eps) == g

    def test_the_params_at_reference_point(self):
        p, q = the_params(4.0, 0.816)
        assert p == pytest.approx(0.6539414091556348, abs=1e-15)
        assert q == pytest.approx(0.09776905328834747, abs=1e-15)


class TestFamilyConfig:
    """A family's config built from its one free parameter."""

    def test_large_int_g_passes_unchanged(self):
        g = 2 ** 53 + 1  # float(g) would round it to 2^53
        for value in (g, np.int64(g)):
            cfg = ProtocolConfig(Family.LH, 40.0, 10, value)
            assert cfg.param == g and type(cfg.param) is type(value)

    def test_integral_float_becomes_int(self):
        cfg = ProtocolConfig(Family.SS, 2.0, 10, 3.0)
        assert cfg.param == 3 and type(cfg.param) is int
        assert ProtocolConfig(Family.LH, 2.0, 10, 4.0 + 1e-10).param == 4

    @pytest.mark.parametrize("family,name", [(Family.SS, "omega"),
                                             (Family.LH, "g")])
    def test_fractional_integer_parameter_rejected(self, family, name):
        with pytest.raises(RangeError) as exc:
            ProtocolConfig(family, 2.0, 10, 3.5)
        assert exc.value.field == name

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("family,name", [(Family.SS, "omega"),
                                             (Family.LH, "g")])
    def test_non_finite_integer_parameter_rejected(self, family, name, value):
        with pytest.raises(RangeError) as exc:
            ProtocolConfig(family, 2.0, 10, param=value)
        assert exc.value.field == name

    @pytest.mark.parametrize("family", [Family.GRR, Family.SHE])
    @pytest.mark.parametrize("value", [0, 2, 0.5])
    def test_parameter_free_families_reject_any_value(self, family, value):
        with pytest.raises(RangeError) as exc:
            ProtocolConfig(family, 2.0, 10, value)
        assert exc.value.field == "param"
        assert ProtocolConfig(family, 2.0, 10).param is None

    @pytest.mark.parametrize("p", [0.0, 1.0, math.e / (math.e - 1), -1.0])
    def test_ue_p_outside_unit_interval_rejected(self, p):
        # at p = e/(e - 1) and eps = 1 the derived q would divide by zero
        with pytest.raises(RangeError) as exc:
            ProtocolConfig(Family.UE, 1.0, 10, p)
        assert exc.value.field == "p"

    def test_ue_gets_the_tight_q(self):
        cfg = ProtocolConfig(Family.UE, 2.0, 10, 0.7)
        pp = pure_params(cfg)
        assert (pp.p_star, pp.q_star) == ue_pair_from_p(2.0, 0.7)

    def test_theta_stored_as_float(self):
        cfg = ProtocolConfig(Family.THE, 2.0, 10, 1)
        assert cfg.param == 1.0 and type(cfg.param) is float


def _stream():
    return derive_stream(5, 0, 0)


# each entry point fed an input its config class rejects, and the field its
# RangeError names: the scalar paths and the dataset generator share the
# configs' checks
_LOOSE_INPUTS = {
    "ss omega 1.5": (lambda: ss_perturb(1, 1.0, 10, 1.5, _stream()), "omega"),
    "ss omega True": (lambda: ss_perturb(1, 1.0, 10, True, _stream()),
                      "omega"),
    "lh g 2.5": (lambda: lh_perturb(1, 1.0, 10, 2.5, _stream()), "g"),
    "lh g 2^64": (lambda: lh_perturb(1, 1.0, 10, 2 ** 64, _stream()), "g"),
    "threshold theta True": (lambda: the_threshold(np.zeros(4), True),
                             "theta"),
    "the theta True": (lambda: the_perturb(1, 1.0, 10, True, _stream()),
                       "theta"),
    "dirichlet n 2.5": (lambda: gen_dirichlet(10, 2.5, 0), "n"),
    "dirichlet k 2.5": (lambda: gen_dirichlet(2.5, 10, 0), "k"),
    "dirichlet k True": (lambda: gen_dirichlet(True, 10, 0), "k"),
    "dirichlet seed -1": (lambda: gen_dirichlet(10, 10, -1), "seed"),
    "dirichlet seed 2^70": (lambda: gen_dirichlet(10, 10, 2 ** 70), "seed"),
    "dirichlet seed 1.5": (lambda: gen_dirichlet(10, 10, 1.5), "seed"),
}


class TestOneRulePerInput:
    @pytest.mark.parametrize("case", list(_LOOSE_INPUTS))
    def test_entry_point_rejects_what_a_config_rejects(self, case):
        call, field = _LOOSE_INPUTS[case]
        with pytest.raises(RangeError) as exc:
            call()
        assert exc.value.field == field

    def test_scalar_params_coerced_as_a_config_coerces_them(self):
        # omega 2.0 is omega 2, and theta 1 is theta 1.0, as in a config
        assert (ss_perturb(3, 1.0, 10, 2.0, _stream())
                == ss_perturb(3, 1.0, 10, 2, _stream()))
        assert (lh_perturb(3, 1.0, 10, 4.0, _stream())
                == lh_perturb(3, 1.0, 10, 4, _stream()))
        v = np.array([0.5, 1.0, 1.5])
        assert np.array_equal(the_threshold(v, 1).bits,
                              the_threshold(v, 1.0).bits)


class TestFamilyTables:
    # each per-family fact is read from one table, so the tables must agree
    def test_pure_families_are_the_pair_and_asr_tables(self):
        assert set(PAIRS) == set(ASRS) == set(Family) - {Family.SHE}

    def test_every_family_in_every_dispatch_table(self):
        for table in (PARAMS, REPORTS, _KERNELS, PERTURBS):
            assert set(table) == set(Family)

    @pytest.mark.parametrize("fam", list(Family))
    def test_unsupported_exactly_outside_the_tables(self, fam):
        cfg = _vc(fam, 1.0, 4, FAMILY_PARAMS[fam])
        for fn, table in ((pure_params, PAIRS), (expected_asr, ASRS)):
            if fam in table:
                fn(cfg)
            else:
                with pytest.raises(UnsupportedFamily):
                    fn(cfg)


class TestPureParams:
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
    def test_grr_matches_oracle(self, eps, k):
        pp = pure_params(_vc(Family.GRR, eps, k))
        ref = orc.grr_pq(eps, k)
        assert pp.p_star == pytest.approx(ref[0], abs=1e-15)
        assert pp.q_star == pytest.approx(ref[1], abs=1e-15)

    @pytest.mark.parametrize("k,omega", [(4, 1), (4, 2), (4, 3), (8, 3), (10, 5)])
    def test_ss_matches_oracle(self, k, omega):
        eps = 1.3
        pp = pure_params(_vc(Family.SS, eps, k, omega))
        ps, qs = orc.ss_pure(eps, k, omega)
        assert pp.p_star == pytest.approx(ps, abs=1e-15)
        assert pp.q_star == pytest.approx(qs, abs=1e-15)

    @pytest.mark.parametrize("k", [100, 1000, 10 ** 4])
    def test_ss_pair_near_the_eps_cap(self, k):
        # at eps 700 q*'s denominator (k-1)(w e^eps + k - w) overflows for
        # w >= 18 at k = 1000; the pair stays the exact ratio there, and
        # keeps the plain expression's bits wherever that one is finite
        from fractions import Fraction
        eps = 700.0
        e = Fraction(math.exp(eps))
        omegas = sorted({w for w in (1, 2, 17, 18, 50, 133, 134, k // 2, k - 1)
                         if w < k})
        with np.errstate(all="ignore"):  # as the optimizer calls it
            p_arr, q_arr = ss_pure_pair(eps, k, np.array(omegas, dtype=float))
        for i, w in enumerate(omegas):
            pp = pure_params(_vc(Family.SS, eps, k, w))
            assert (pp.p_star, pp.q_star) == (p_arr[i], q_arr[i])
            p_ref = w * e / (w * e + k - w)
            q_ref = ((w * e * (w - 1) + (k - w) * w)
                     / ((k - 1) * (w * e + k - w)))
            assert pp.p_star == pytest.approx(float(p_ref), rel=1e-15)
            assert pp.q_star == pytest.approx(float(q_ref), rel=1e-15)
            plain = orc.ss_pure(eps, k, w)
            if math.isfinite((k - 1) * (w * math.exp(eps) + k - w)):
                assert (pp.p_star, pp.q_star) == plain

    def test_ss_omega_one_equals_grr(self):
        for eps in (0.5, 2.0):
            a = pure_params(_vc(Family.SS, eps, 6, 1))
            b = pure_params(_vc(Family.GRR, eps, 6))
            assert a.p_star == pytest.approx(b.p_star, abs=1e-15)
            assert a.q_star == pytest.approx(b.q_star, abs=1e-15)

    def test_lh_pure_params(self):
        eps, g = 1.5, 4
        pp = pure_params(_vc(Family.LH, eps, 10, g))
        ps, qs = orc.lh_pq(eps, g)
        assert pp.p_star == pytest.approx(ps, abs=1e-15)
        assert pp.q_star == pytest.approx(qs, abs=1e-15)
        assert pp.q_star == pytest.approx(1.0 / g, abs=1e-15)

    def test_the_pure_params(self):
        eps, theta = 2.0, 0.8
        pp = pure_params(_vc(Family.THE, eps, 5, theta))
        ps, qs = orc.the_pq(eps, theta)
        assert pp.p_star == pytest.approx(ps, abs=1e-15)
        assert pp.q_star == pytest.approx(qs, abs=1e-15)

    def test_she_has_no_pure_params(self):
        with pytest.raises(UnsupportedFamily):
            pure_params(_vc(Family.SHE, 1.0, 4))


class TestPerturbStructure:
    def test_grr_report_in_domain(self):
        rng = derive_stream(0, 0, 0)
        for x in (1, 4):
            rep = grr_perturb(x, 1.0, 4, rng)
            assert isinstance(rep, CategoryReport)
            assert 1 <= rep.value <= 4

    def test_grr_keep_rate(self):
        eps, k, n = 1.0, 4, 20000
        hits = sum(grr_perturb(2, eps, k, derive_stream(1, 0, u)).value == 2
                   for u in range(n))
        p = grr_params(eps, k)[0]
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_ss_report_structure(self):
        eps, k, omega = 1.0, 6, 3
        for u in range(50):
            rep = ss_perturb(4, eps, k, omega, derive_stream(2, 0, u))
            assert isinstance(rep, SubsetReport)
            vals = list(rep.values)
            assert len(vals) == omega
            assert len(set(vals)) == omega
            assert all(1 <= v <= k for v in vals)

    def test_ss_inclusion_rate(self):
        eps, k, omega, n = 1.0, 6, 3, 20000
        hits = sum(4 in ss_perturb(4, eps, k, omega, derive_stream(3, 0, u)).values
                   for u in range(n))
        ps = orc.ss_pure(eps, k, omega)[0]
        assert abs(hits / n - ps) < 4 * math.sqrt(ps * (1 - ps) / n)

    def test_ss_noninclusion_rate(self):
        eps, k, omega, n = 1.0, 6, 3, 20000
        hits = sum(5 in ss_perturb(4, eps, k, omega, derive_stream(4, 0, u)).values
                   for u in range(n))
        qs = orc.ss_pure(eps, k, omega)[1]
        assert abs(hits / n - qs) < 4 * math.sqrt(qs * (1 - qs) / n)

    def test_ue_bits_and_rates(self):
        p, q = ue_pair_from_p(1.0, 0.7)
        k, n = 5, 20000
        ones = np.zeros(k)
        for u in range(n):
            rep = ue_perturb(2, p, q, k, derive_stream(5, 0, u))
            assert isinstance(rep, BitVectorReport)
            bits = np.asarray(rep.bits)
            assert bits.shape == (k,)
            assert set(np.unique(bits)) <= {0, 1}
            ones += bits
        assert abs(ones[1] / n - p) < 4 * math.sqrt(p * (1 - p) / n)
        for j in (0, 2, 3, 4):
            assert abs(ones[j] / n - q) < 4 * math.sqrt(q * (1 - q) / n)

    def test_lh_report_structure_and_bucket_rate(self):
        eps, k, g, n = 1.0, 8, 3, 20000
        hits = 0
        for u in range(n):
            rep = lh_perturb(3, eps, k, g, derive_stream(6, 0, u))
            assert isinstance(rep, HashedReport)
            assert 1 <= rep.value <= g
            hits += rep.value == hash_bucket(rep.seed, 3, g)
        p = math.exp(eps) / (math.exp(eps) + g - 1)
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_she_report_is_real_vector(self):
        rep = she_perturb(2, 1.0, 4, derive_stream(7, 0, 0))
        v = np.asarray(rep.values)
        assert v.shape == (4,)
        assert np.isfinite(v).all()

    def test_the_is_thresholded_she(self):
        cfg = _vc(Family.THE, 1.0, 4, 0.8)
        rep = the_perturb(2, 1.0, 4, 0.8, derive_stream(8, 0, 3))
        noisy = she_perturb(2, 1.0, 4, derive_stream(8, 0, 3))
        assert np.array_equal(np.asarray(rep.bits),
                              np.asarray(the_threshold(noisy.values, 0.8).bits))
        assert np.array_equal(np.asarray(rep.bits),
                              (np.asarray(noisy.values) > 0.8).astype(np.int64))

    def test_perturb_dispatch_matches_family_kernels(self):
        cases = [
            (_vc(Family.GRR, 1.0, 4), CategoryReport),
            (_vc(Family.SS, 1.0, 4, 2), SubsetReport),
            (_vc(Family.UE, 1.0, 4, 0.7), BitVectorReport),
            (_vc(Family.LH, 1.0, 4, 2), HashedReport),
            (_vc(Family.THE, 1.0, 4, 0.8), BitVectorReport),
        ]
        for cfg, typ in cases:
            assert isinstance(perturb(2, cfg, derive_stream(9, 0, 0)), typ)

    def test_perturb_rejects_out_of_domain_value(self):
        for fam, param in FAMILY_PARAMS.items():
            cfg = _vc(fam, 1.0, 4, param)
            for x in (0, 5):
                with pytest.raises(RangeError) as exc:
                    perturb(x, cfg, derive_stream(0, 0, 0))
                assert exc.value.field == "x", fam

    @pytest.mark.parametrize("x", [1.5, 2.0, True, 2.5])
    def test_perturb_rejects_non_integer_value(self, x):
        # grr_perturb(1.5, ...) once returned CategoryReport(1.5) and
        # ue_perturb(2.5, ...) raised numpy's IndexError
        for fam, param in FAMILY_PARAMS.items():
            cfg = _vc(fam, 1.0, 4, param)
            with pytest.raises(RangeError) as exc:
                perturb(x, cfg, derive_stream(0, 0, 0))
            assert str(exc.value) == f"x must be an integer in [1, 4], got {x!r}"
        with pytest.raises(RangeError, match=r"x must be an integer in \[1, 4\]"):
            ue_perturb(x, 0.5, 0.1, 4, derive_stream(0, 0, 0))
        # numpy integers are values too
        rep = grr_perturb(np.int64(2), 9.0, 4, derive_stream(0, 0, 0))
        assert rep == grr_perturb(2, 9.0, 4, derive_stream(0, 0, 0))


# a valid free parameter at k = 4 for each family, and one report of each
# class with the families it belongs to
FAMILY_PARAMS = {Family.GRR: None, Family.SS: 2, Family.UE: 0.7,
                 Family.LH: 2, Family.SHE: None, Family.THE: 0.8}
REPORT_FAMILIES = [
    (CategoryReport(2), {Family.GRR}),
    (SubsetReport((1, 3)), {Family.SS}),
    (BitVectorReport(np.asarray([0, 1, 0, 1])), {Family.UE, Family.THE}),
    (HashedReport(7, 1), {Family.LH}),
    (RealVectorReport(np.asarray([0.1, 0.9, 0.3, 0.2])), {Family.SHE}),
]


class TestSupport:
    @pytest.mark.parametrize("fam", [f for f in Family if f is not Family.SHE])
    def test_wrong_report_type_names_the_family(self, fam):
        cfg = _vc(fam, 1.0, 4, FAMILY_PARAMS[fam])
        for report, fams in REPORT_FAMILIES:
            if fam in fams:
                support(report, cfg)
                continue
            with pytest.raises(UnsupportedFamily,
                               match=f"^report does not match family {fam.value}$"):
                support(report, cfg)

    def test_she_reports_have_no_support(self):
        cfg = _vc(Family.SHE, 1.0, 4)
        for report, _ in REPORT_FAMILIES:
            with pytest.raises(UnsupportedFamily,
                               match="^SHE reports have no support set$"):
                support(report, cfg)

    def test_grr_support_is_singleton(self):
        cfg = _vc(Family.GRR, 1.0, 4)
        assert support(CategoryReport(3), cfg) == frozenset({3})

    def test_ss_support_is_subset(self):
        cfg = _vc(Family.SS, 1.0, 6, 3)
        assert support(SubsetReport(frozenset({1, 4, 5})), cfg) == frozenset({1, 4, 5})

    def test_ue_support_is_set_bits(self):
        cfg = _vc(Family.UE, 1.0, 5, 0.7)
        rep = BitVectorReport(np.asarray([1, 0, 0, 1, 0]))
        assert support(rep, cfg) == frozenset({1, 4})

    def test_lh_support_is_hash_preimage(self):
        cfg = _vc(Family.LH, 1.0, 12, 3)
        rep = lh_perturb(5, 1.0, 12, 3, derive_stream(10, 0, 0))
        sup = support(rep, cfg)
        for v in range(1, 13):
            assert (v in sup) == (hash_bucket(rep.seed, v, 3) == rep.value)


class TestEstimators:
    def test_grr_estimate_sums_to_one(self):
        cfg = _vc(Family.GRR, 1.0, 4)
        reports = [grr_perturb(1 + (u % 4), 1.0, 4, derive_stream(11, 0, u))
                   for u in range(400)]
        f_hat = estimate_frequencies(reports, cfg)
        assert f_hat.shape == (4,)
        assert f_hat.sum() == pytest.approx(1.0, abs=1e-9)

    def test_estimator_inverts_known_counts(self):
        # hand-build UE reports with known support counts and check the
        # debias formula (C_i - n q*) / (n (p* - q*))
        cfg = _vc(Family.UE, 1.0, 3, 0.7)
        reports = [BitVectorReport(np.asarray(b)) for b in
                   ([1, 0, 0], [1, 1, 0], [0, 0, 1], [1, 0, 0])]
        f_hat = estimate_frequencies(reports, cfg)
        pp = pure_params(cfg)
        n = 4
        counts = np.asarray([3, 1, 1])
        expect = (counts - n * pp.q_star) / (n * (pp.p_star - pp.q_star))
        assert np.allclose(f_hat, expect, atol=1e-15)

    def test_empty_reports_rejected(self):
        from ldptune.model import EmptyInput
        cfg = _vc(Family.GRR, 1.0, 4)
        with pytest.raises(EmptyInput):
            estimate_frequencies([], cfg)

    def test_she_estimate_recovers_mean_shift(self):
        k = 3
        reports = [she_perturb(1, 2.0, k, derive_stream(12, 0, u))
                   for u in range(4000)]
        f_hat = she_estimate(reports)
        assert f_hat.shape == (k,)
        # all mass on category 1, Laplace noise averages out
        assert f_hat[0] == pytest.approx(1.0, abs=0.05)
        assert abs(f_hat[1]) < 0.05 and abs(f_hat[2]) < 0.05


class TestVarianceForms:
    def test_generic_pure_mse_matches_oracle(self):
        for eps, k in ((0.5, 3), (1.0, 5), (2.0, 8)):
            cfg = _vc(Family.GRR, eps, k)
            assert analytic_mse(cfg, 100) == pytest.approx(
                orc.pure_variance(*orc.grr_pq(eps, k), 100), rel=1e-12)

    def test_she_mse_exact_form(self):
        cfg = _vc(Family.SHE, 2.0, 7)
        assert analytic_mse(cfg, 50) == pytest.approx(8.0 / (50 * 4.0), rel=1e-12)

    def test_adjudication_point_values(self):
        eps = math.log(2.0)
        assert orc.ss_alt_variance(eps, 10, 2, 1) == pytest.approx(9.6875, rel=1e-9)
        cfg = _vc(Family.SS, eps, 10, 2)
        assert analytic_mse(cfg, 1) == pytest.approx(6.875, rel=1e-9)
        pp = pure_params(cfg)
        assert first_order_mse(pp.p_star, pp.q_star, 1) == pytest.approx(
            6.875, rel=1e-9)

    def test_mse_scales_inversely_with_n(self):
        cfg = _vc(Family.GRR, 1.0, 4)
        assert analytic_mse(cfg, 200) == pytest.approx(analytic_mse(cfg, 100) / 2,
                                                       rel=1e-12)


_BULK_CASES = [
    (Family.GRR, None),
    (Family.SS, 3),
    (Family.UE, sue_params(1.5)[0]),
    (Family.LH, 4),
    (Family.SHE, None),
    (Family.THE, 0.8),
]


def _spanning_n(family, k):
    """Users filling three whole blocks and part of a fourth (GRR blocks
    are sized as if a user held 8 64-bit values, every other family's k)."""
    return 3 * block_rows(8 if family is Family.GRR else k) + 5


class TestScalarBulkEquivalence:
    """The vectorized per-run kernels replay exactly the draws the scalar
    primitives consume, so both pipelines must agree bit for bit."""

    @pytest.mark.parametrize("family,param,k,n", [
        *(pytest.param(f, v, 7, 300, id=f"{f.value}-kw{i}")
          for i, (f, v) in enumerate(_BULK_CASES)),
        *(pytest.param(f, v, 4096, _spanning_n(f, 4096),
                       id=f"{f.value}-kw{i}-blocks")
          for i, (f, v) in enumerate(_BULK_CASES)),
        # SS at both ends of omega: included rows that take no key, and
        # excluded rows that take every key
        *(pytest.param(Family.SS, omega, k, n, id=f"ss-k{k}-omega{omega}")
          for k, n in ((7, 300), (4096, _spanning_n(Family.SS, 4096)))
          for omega in (1, k - 1)),
    ])
    def test_pipelines_agree_bitwise(self, family, param, k, n):
        _assert_pipelines_agree(family, 1.5, param, k, n)

    @pytest.mark.parametrize("eps", [709.5, MAX_EPS], ids=["709.5", "max"])
    @pytest.mark.parametrize("family,param", [
        (Family.GRR, None), (Family.SS, 1), (Family.SS, 3),
        (Family.UE, 0.5), (Family.UE, 0.9), (Family.LH, 2), (Family.LH, 5),
        (Family.SHE, None), (Family.THE, 0.75),
    ], ids=lambda v: str(getattr(v, "value", v)))
    def test_pipelines_agree_near_the_eps_cap(self, family, param, eps):
        # past eps = 709.09 omega e^eps overflows for omega >= 2: SS's
        # inclusion must take the divided-through p* in both pipelines
        _assert_pipelines_agree(family, eps, param, 7, 300)


def _assert_pipelines_agree(family, eps, param, k, n):
    from ldptune.attacks import attack
    cfg = _vc(family, eps, k, param)
    x0 = np.random.default_rng(5).integers(0, k, size=n)
    f_bulk, s_bulk = simulate_run(RunGroup((cfg,)), x0, 99, 3)[0]

    succ = 0
    reports = []
    for u in range(len(x0)):
        rng = derive_stream(99, 3, u)
        rep = perturb(int(x0[u]) + 1, cfg, rng)
        succ += attack(rep, cfg, rng) == int(x0[u]) + 1
        reports.append(rep)
    if family is Family.SHE:
        f_scalar = she_estimate(reports)
    else:
        f_scalar = estimate_frequencies(reports, cfg)
    assert s_bulk == succ
    assert np.array_equal(f_bulk, f_scalar)


# sha256 of simulate_run's (f_hat bytes, successes) for one preset per family
# (and blh, whose g is a power of two) at eps 4, n = 5e4, k = 100; pinned from
# the whole-run kernels that the blocked ones replaced
_RUN_DIGESTS = {
    "grr": "f1aca148555bb086b90c7b40e05f519352d8c70e0103092c3a209d19cf9763f0",
    "ss": "6e5eec0cab35c76e7a7bdc72fb7770158adbc4b6c5fae8de79ae47ce46926e78",
    "oue": "6114aa4ed755f4eb112affe36be87a723c8395b565cb6402ddd3ba312741cbb2",
    "olh": "227a49dedd5247eebab78c659654cfbec84517467ac897346fa7bcf7856ad5dd",
    "blh": "cb2428c6c902404e15cb0b7840567ceb38d590c92535853cc3a9c047199e3c8c",
    "she": "bba4a290dc6e919e5cc35c2f112bdceb45db39b3fd7d63e8107027f1403cf4e7",
    "the": "17fa263b671562a096c49c117de249326883214281751775d143ad3ea13d62b5",
}


# the same digests for every name the mc_frontier benchmark runs, at its two
# budgets; they cover ss at omega = 1 (eps 8), ass at omega = 12 (eps 2) and
# olh at g = 2982 (eps 8, not a power of two).  Pinned from the kernels whose
# attack made four n x k passes and whose SS partitioned at omega = 1 too
_SWEEP_DIGESTS = {
    ("grr", 2): "d46051a7864f63f41d8a0745f95a1a464831a52e6373bdff7b3c5d6bee15cc2c",
    ("grr", 8): "17e1002f98ae107ee19bde03c0e7e3df2aa502f559341d003bbb39ea856c1344",
    ("ss", 2): "add44e8fc5665006396cfabae02f9a962487fa7756d52afec596835fef48f75f",
    ("ss", 8): "7b6b5b1eceb27613f8702d31365cbabcbca3030309f68c29a897719464cbe236",
    ("sue", 2): "7e59bdc57306e331a2b68065d4e09b0a446cea81da67be44759069a67681d3dc",
    ("sue", 8): "f072a0df562fc1186e339195a1034a083877e83c33b6ecaa8be6dea1cb2fb084",
    ("oue", 2): "f86fbbae8ed85b07b828d89ce694ea5d1bd987f24728740ac5facd753e449e02",
    ("oue", 8): "8d68586819ea3591fc0e841b4a0b50fe111974ebd173ba5b694b73091d876901",
    ("blh", 2): "0ce9ba79f66e7a094cb2f2af7fd49356b27f3a4646bc262c35ba28f6c8ad9e57",
    ("blh", 8): "36e8a6e8d0a2dec1ae22502534067173400a903e4727ea752676f3b38c01231a",
    ("olh", 2): "bb7cc4fb53d851e54ea09aaa4ca8a3c03146f478305ef9f77d9d50118cefb866",
    ("olh", 8): "7a4aa205ecdcdcbd0d15a2aa6dc8fbd7e675401628d33ed9e8751be90fbd5667",
    ("she", 2): "b9e56ee72b4bbb1b7bb618f7d7fc6bb959230043894d29daa9daa07ea22621b6",
    ("she", 8): "43f71bbcb69100c40ec2c406921441aec74bb9cac2a9026e186a79ded01dadac",
    ("the", 2): "72f6009992b64eb4adee714aa2d0dfae529a0c7f0448649c674fdce36eb45299",
    ("the", 8): "a793c3cfd9c8eadf076aa466fc5f5bed215c82d6aa4ad11f7f70bc3f2e137035",
    ("ass", 2): "add44e8fc5665006396cfabae02f9a962487fa7756d52afec596835fef48f75f",
    ("ass", 8): "b23d650a635f09b7ee9248ed74ad139853ce3c38e61516bcd7472dda6a19f269",
    ("aue", 2): "7d90a3745e41a0a691c287c51a51efa30353b476fa52fa392d70034fd092862f",
    ("aue", 8): "a6a9ec83f24c4bc8c125fbbd9277dbd20159854c68a5c37994bf3e910fd14d1f",
    ("alh", 2): "bb7cc4fb53d851e54ea09aaa4ca8a3c03146f478305ef9f77d9d50118cefb866",
    ("alh", 8): "6161cbbde224cb8172a8a9720e09f73e5242343be0528cec07e47e88f3f8bed7",
    ("athe", 2): "dc081344594542c2fcb64a9964785fbaf7c5ab24c057f7c85eaa54531054d6fe",
    ("athe", 8): "d246e0d5df99e33457f13d6123bc56556ad01b4f20c9198faa9fe992eec1a94f",
}


def _run_digest(name, eps):
    x0 = np.random.default_rng(2024).integers(0, 100, size=50_000)
    cfg = resolve_protocol(name, float(eps), 100).config
    f_hat, successes = simulate_run(RunGroup((cfg,)), x0, 12345, 1)[0]
    return hashlib.sha256(np.asarray(f_hat, dtype=np.float64).tobytes()
                          + str(int(successes)).encode()).hexdigest()


class TestBlockedRuns:
    @pytest.mark.parametrize("name", list(_RUN_DIGESTS))
    def test_run_digest_pinned(self, name):
        assert _run_digest(name, 4) == _RUN_DIGESTS[name]

    @pytest.mark.parametrize("name,eps", list(_SWEEP_DIGESTS))
    def test_sweep_digest_pinned(self, name, eps):
        assert _run_digest(name, eps) == _SWEEP_DIGESTS[name, eps]

    @pytest.mark.parametrize("name", ["oue", "olh", "the", "ss"])
    def test_memory_flat_in_n(self, name):
        n, k = 200_000, 100
        x0 = np.random.default_rng(0).integers(0, k, size=n)
        cfg = resolve_protocol(name, 2.0, k).config
        tracemalloc.start()
        try:
            simulate_run(RunGroup((cfg,)), x0, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense float64 n x k array would take 160 MB
        assert peak < 32 * 2 ** 20


# per family, configs at k = 100 over mixed budgets: SS at omega 1, 2 and
# past 2 side by side (omega 1 and 2 read the same order statistic), LH at
# g powers of two and not, up to the largest g; one config twice
_GROUP_EPS = (0.5, 2.0, 8.0, 14.0)
_GROUP_PARAMS = {
    Family.GRR: [None] * 4,
    Family.SS: [1, 2, 12, 1, 99, 40, 5],
    Family.UE: [0.5, 0.5, 0.9, sue_params(14.0)[0]],
    Family.LH: [2, 7, 2982, 4, 2 ** 62 + 7, 2 ** 63],
    Family.SHE: [None] * 4,
    Family.THE: [0.5, 0.75, 0.9, 1.0, 0.63],
}


class TestRunGroups:
    """A group's configs run on one set of draws, each exactly as alone."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_group_equals_configs_one_by_one(self, family):
        k = 100
        cfgs = [_vc(family, _GROUP_EPS[i % 4], k, v)
                for i, v in enumerate(_GROUP_PARAMS[family])]
        cfgs.append(cfgs[1])
        n = _spanning_n(family, k)
        x0 = np.random.default_rng(8).integers(0, k, size=n)
        grouped = simulate_run(RunGroup(cfgs), x0, 99, 3)
        assert len(grouped) == len(cfgs)
        for cfg, (f_hat, succ) in zip(cfgs, grouped):
            f_one, s_one = simulate_run(RunGroup((cfg,)), x0, 99, 3)[0]
            assert type(succ) is int and succ == s_one, cfg
            assert np.array_equal(f_hat, f_one), cfg

    @pytest.mark.parametrize("cfgs", [
        [],
        [_vc(Family.UE, 2.0, 10, 0.5), _vc(Family.THE, 2.0, 10, 0.8)],
        [_vc(Family.LH, 2.0, 10, 4), _vc(Family.LH, 2.0, 11, 4)],
        [_vc(Family.GRR, 2.0, 10), ("grr", 2.0, 10)],
    ], ids=["empty", "families", "k", "not-a-config"])
    def test_group_rejects(self, cfgs):
        with pytest.raises(RangeError) as exc:
            RunGroup(cfgs)
        assert exc.value.field == "group"


def _attack_hits(bits, x0, u_att):
    """Per row, whether `attacks.attack`'s rule guesses x0: the
    int(u m)-th set bit, or int(u k) when no bit is set."""
    k = bits.shape[1]
    hits = []
    for row, x, u in zip(bits, x0, u_att):
        sup = np.flatnonzero(row)
        if sup.size:
            guess = sup[min(int(u * sup.size), sup.size - 1)]
        else:
            guess = min(int(u * k), k - 1)
        hits.append(guess == x)
    return np.array(hits)


class TestRankAttack:
    """The kernels' attack count against a per-row reference of the
    scalar attack's rule, on crafted support blocks."""

    @staticmethod
    def _check(bits, x0, u_att):
        bits = np.ascontiguousarray(bits, dtype=bool)
        x0 = np.asarray(x0, dtype=np.int64)
        u_att = np.asarray(u_att, dtype=np.float64)
        hits = _attack_hits(bits, x0, u_att)
        k = bits.shape[1]
        assert _rank_attack_success(bits, x0, u_att, k) == hits.sum()
        for r in range(x0.size):
            assert _rank_attack_success(bits[r:r + 1], x0[r:r + 1],
                                        u_att[r:r + 1], k) == hits[r]

    @staticmethod
    def _aimed(bits, x0):
        """Uniforms that pick x0 wherever its bit is set."""
        m = bits.sum(axis=1)
        before = np.array([row[:x].sum() for row, x in zip(bits, x0)])
        return np.where(m > 0, (before + 0.5) / np.maximum(m, 1), 0.5)

    @pytest.mark.parametrize("k", [2, 3, 7, 100])
    @pytest.mark.parametrize("density", [0.01, 0.3, 0.9])
    def test_random_blocks(self, k, density):
        rng = np.random.default_rng(k * 100 + int(density * 100))
        n = 400
        bits = rng.random((n, k)) < density
        x0 = rng.integers(0, k, size=n)
        for u_att in (rng.random(n), np.zeros(n), np.full(n, 1 - 2.0 ** -53),
                      self._aimed(bits, x0)):
            self._check(bits, x0, u_att)

    @pytest.mark.parametrize("k", [2, 3, 100])
    def test_crafted_rows(self, k):
        # empty and full rows, x0 at both ends, and rows with x0 = k - 1
        # next to rows with x0 = 0, so a segment that runs into the next
        # row or an empty segment that is not read as 0 changes the count
        rows = [np.zeros(k, bool), np.ones(k, bool),
                np.arange(k) == 0, np.arange(k) == k - 1,
                np.arange(k) % 2 == 0, np.arange(k) % 2 == 1]
        bits = np.array([r for r in rows for _ in range(4)])
        x0 = np.tile([0, k - 1, k - 1, 0], len(rows))
        for u_att in (np.zeros(x0.size), np.full(x0.size, 1 - 2.0 ** -53),
                      self._aimed(bits, x0)):
            self._check(bits, x0, u_att)
            self._check(bits[::-1], x0[::-1], u_att[::-1])
            self._check(bits, np.full(x0.size, 0), u_att)
            self._check(bits, np.full(x0.size, k - 1), u_att)


def _laplace_of(j, b):
    """The package's Laplace(0, b) sample of each 53-bit draw j."""
    return laplace_inplace(
        np.left_shift(np.asarray(j, dtype=np.uint64), np.uint64(11)), b)


def _raw(j, seed=0):
    """Raw 64-bit draws whose 53-bit values are j, with random low bits."""
    j = np.asarray(j, dtype=np.uint64)
    low = np.random.default_rng(seed).integers(0, 1 << 11, size=j.shape,
                                               dtype=np.uint64)
    return np.left_shift(j, np.uint64(11)) | low


class TestTheCuts:
    """THE thresholds the 53-bit draws at integer cuts: L(j) > theta on the
    other coordinates and L(j) + 1 > theta on the true one."""

    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("eps", [0.5, 2.0, 8.0, 40.0, 150.0, 700.0])
    def test_cut_splits_the_transform(self, eps, theta):
        b = 2.0 / eps
        for (t, flips), plus in zip(_the_cuts(eps, theta), (0.0, 1.0)):
            assert flips.size == 0
            if t > 0:
                assert _laplace_of([t - 1], b)[0] + plus <= theta
            if t < 1 << 53:
                assert _laplace_of([t], b)[0] + plus > theta
            j = np.arange(max(t - 4096, 0), min(t + 4096, 1 << 53),
                          dtype=np.uint64)
            assert np.array_equal(_at_or_past(_raw(j), t, flips),
                                  _laplace_of(j, b) + plus > theta)

    def test_cut_past_every_draw(self):
        # at eps 700 no Laplace(0, 2/700) sample exceeds theta = 0.5, so the
        # cut is 2^53, which is 2^64 on the raw draws: none may pass
        (t, flips), _ = _the_cuts(700.0, 0.5)
        assert t == 1 << 53 and flips.size == 0
        top = np.uint64(2 ** 64 - 1)
        z = np.array([0, top, top - np.uint64(2047), top - np.uint64(2048)],
                     dtype=np.uint64)
        assert not _at_or_past(z, t, flips).any()
        # one below, only the top 53-bit draw passes, whatever its low bits
        assert _at_or_past(z, t - 1, flips).tolist() == [False, True, True,
                                                         False]

    def test_threads_share_the_cut_cache(self):
        # threads race to build the same cuts with a short switch interval;
        # every run must equal the serial run with cold cuts
        cfgs = [resolve_protocol(name, eps, 30).config
                for name in ("the", "athe") for eps in (1.0, 3.0, 5.0)]
        x0 = np.random.default_rng(1).integers(0, 30, size=3000)
        _the_cuts.cache_clear()
        serial = [simulate_run(RunGroup((cfg,)), x0, 7, 0)[0] for cfg in cfgs]
        _the_cuts.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                runs = list(pool.map(
                    lambda c: simulate_run(RunGroup((c,)), x0, 7, 0)[0],
                    cfgs * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (f_hat, succ), (f_ref, s_ref) in zip(runs, serial * 4):
            assert succ == s_ref and np.array_equal(f_hat, f_ref)

    def test_draws_out_of_order_are_listed(self):
        # the identity on j, except that draws 1000 and 1001 swap values:
        # order breaks by at most 1, and the test f(j) > 1000.5 holds at
        # 1000 and from 1002 on, but not at 1001
        def f(j):
            v = j.astype(np.float64)
            v[j == 1000], v[j == 1001] = 1001.0, 1000.0
            return v

        t, flips = _order_cut(f, 1000.5, 1.0)
        assert (t, flips.tolist()) == (1001, [1000, 1001])
        j = np.arange(3000, dtype=np.uint64)
        assert np.array_equal(_at_or_past(_raw(j), t, flips), f(j) > 1000.5)
        # the flips are read from the 53-bit values of the raw draws
        for low in (0, 2047):
            z = np.left_shift(j, np.uint64(11)) | np.uint64(low)
            assert np.array_equal(_at_or_past(z, t, flips), f(j) > 1000.5)


# SHE Monte Carlo hits per 1e5 trials at k = 100, with the pareto sweep's
# stream for each eps (perfbench/reference/analytic_frontier.csv)
_SHE_MC_HITS = {2: 2747, 4: 7482, 6: 19327, 8: 41220, 10: 64439}


def test_she_mc_default_stream_is_the_sweeps():
    # with no stream of its own, the estimate is the one pareto rows carry
    for eps, hits in _SHE_MC_HITS.items():
        assert expected_asr_she_mc(eps, 100, 10 ** 5).asr == hits / 10 ** 5

_DISPATCH_PROBE = """
import hashlib, json, sys
import numpy as np
from ldptune.attacks import expected_asr_she_mc
from ldptune.presets import resolve_protocol
from ldptune.simulate import RunGroup, simulate_run
x0 = np.random.default_rng(2024).integers(0, 100, size=50_000)
group = RunGroup((resolve_protocol("the", 4.0, 100).config,))
f_hat, successes = simulate_run(group, x0, 12345, 1)[0]
hits = {eps: expected_asr_she_mc(eps, 100, 10 ** 5).asr
        for eps in (2, 4, 6, 8, 10)}
json.dump({"the": hashlib.sha256(f_hat.tobytes()
                                 + str(int(successes)).encode()).hexdigest(),
           "she_mc": {eps: a.hex() for eps, a in hits.items()},
           "optima": _optima()}, sys.stdout)
"""


def _optima():
    """theta_star and asr_at_opt of the, aue and athe at k = 100, as hex;
    the probe runs this function's source too."""
    out = {}
    for name in ("the", "aue", "athe"):
        for eps in (2, 4, 6, 8, 10):
            r = resolve_protocol(name, float(eps), 100).optimization
            out[f"{name} {eps}"] = [r.theta_star.hex(), r.asr_at_opt.hex()]
    return out


# sha256 of `_optima()` as sorted JSON, pinned from the optimizer that ranked
# its grids with a numpy twin of the objective and confirmed the near-best
# points with the scalar forms
_OPTIMA_DIGEST = "641385c64ecfa8838a735c5b52286b1eee313a90037699dde38d1add0850cc98"


def test_optima_pinned():
    got = json.dumps(_optima(), sort_keys=True).encode()
    assert hashlib.sha256(got).hexdigest() == _OPTIMA_DIGEST


def test_outputs_hold_without_avx512_dispatch():
    # numpy dispatches log1p to AVX-512 code where the CPU has it; THE and
    # the SHE Monte Carlo compare raw draws, so their bytes must not depend
    # on that dispatch (the SHE kernel's still does), and neither may the
    # optimizers' results
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    probe = inspect.getsource(_optima) + _DISPATCH_PROBE
    r = subprocess.run([sys.executable, "-c", probe], env=env,
                       capture_output=True, text=True)
    if r.returncode != 0 and "NPY_DISABLE_CPU_FEATURES" in r.stderr:
        pytest.skip("numpy refuses to disable these CPU features here")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["the"] == _RUN_DIGESTS["the"]
    assert out["she_mc"] == {str(eps): (hits / 10 ** 5).hex()
                             for eps, hits in _SHE_MC_HITS.items()}
    assert out["optima"] == _optima()

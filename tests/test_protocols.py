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
from ldptune.attacks import expected_asr_she_mc
from ldptune.model import (
    BitVectorReport,
    CategoryReport,
    Family,
    HashedReport,
    ProtocolConfig,
    RangeError,
    SubsetReport,
    UnsupportedFamily,
    derive_stream,
    laplace_inplace,
    validate_config,
)
from ldptune.protocols import (
    analytic_mse,
    estimate_frequencies,
    generic_pure_mse,
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
    sue_params,
    support,
    the_params,
    the_perturb,
    the_threshold,
    ue_pair_from_p,
    ue_perturb,
)
from ldptune.presets import resolve_protocol
from ldptune.simulate import (
    _at_or_past,
    _order_cut,
    _the_cuts,
    block_rows,
    simulate_run,
)


def _vc(family, eps, k, param=None):
    return validate_config(ProtocolConfig(family, eps, k, param))


class TestParameterRules:
    def test_grr_params_closed_form(self):
        pp = grr_params(math.log(3.0), 4)
        assert pp.p_star == pytest.approx(0.5, abs=1e-15)
        assert pp.q_star == pytest.approx(1.0 / 6.0, abs=1e-15)

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
        p = grr_params(eps, k).p_star
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
        cfg = _vc(Family.GRR, 1.0, 4)
        with pytest.raises(RangeError):
            perturb(0, cfg, derive_stream(0, 0, 0))
        with pytest.raises(RangeError):
            perturb(5, cfg, derive_stream(0, 0, 0))


class TestSupport:
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
        assert generic_pure_mse(pure_params(cfg), 1) == pytest.approx(6.875, rel=1e-9)

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
    """Users filling three whole blocks and part of a fourth (a GRR user
    holds one 64-bit value per block row, every other family k)."""
    return 3 * block_rows(1 if family is Family.GRR else k) + 5


class TestScalarBulkEquivalence:
    """The vectorized per-run kernels replay exactly the draws the scalar
    primitives consume, so both pipelines must agree bit for bit."""

    @pytest.mark.parametrize("family,param,k,n", [
        *(pytest.param(f, v, 7, 300, id=f"{f.value}-kw{i}")
          for i, (f, v) in enumerate(_BULK_CASES)),
        *(pytest.param(f, v, 4096, _spanning_n(f, 4096),
                       id=f"{f.value}-kw{i}-blocks")
          for i, (f, v) in enumerate(_BULK_CASES)),
    ])
    def test_pipelines_agree_bitwise(self, family, param, k, n):
        from ldptune.attacks import attack
        eps = 1.5
        cfg = _vc(family, eps, k, param)
        x0 = np.random.default_rng(5).integers(0, k, size=n)
        f_bulk, s_bulk = simulate_run(cfg, x0, 99, 3)

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


class TestBlockedRuns:
    @pytest.mark.parametrize("name", list(_RUN_DIGESTS))
    def test_run_digest_pinned(self, name):
        x0 = np.random.default_rng(2024).integers(0, 100, size=50_000)
        cfg = resolve_protocol(name, 4.0, 100).config
        f_hat, successes = simulate_run(cfg, x0, 12345, 1)
        digest = hashlib.sha256(np.asarray(f_hat, dtype=np.float64).tobytes()
                                + str(int(successes)).encode()).hexdigest()
        assert digest == _RUN_DIGESTS[name]

    @pytest.mark.parametrize("name", ["oue", "olh", "the"])
    def test_memory_flat_in_n(self, name):
        n, k = 200_000, 100
        x0 = np.random.default_rng(0).integers(0, k, size=n)
        cfg = resolve_protocol(name, 2.0, k).config
        tracemalloc.start()
        try:
            simulate_run(cfg, x0, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense float64 n x k array would take 160 MB
        assert peak < 32 * 2 ** 20


def _laplace_of(j, b):
    """The package's Laplace(0, b) sample of each 53-bit draw j."""
    return laplace_inplace(
        np.left_shift(np.asarray(j, dtype=np.uint64), np.uint64(11)), b)


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
            assert np.array_equal(_at_or_past(j, t, flips),
                                  _laplace_of(j, b) + plus > theta)

    def test_threads_share_the_cut_cache(self):
        # threads race to build the same cuts with a short switch interval;
        # every run must equal the serial run with cold cuts
        cfgs = [resolve_protocol(name, eps, 30).config
                for name in ("the", "athe") for eps in (1.0, 3.0, 5.0)]
        x0 = np.random.default_rng(1).integers(0, 30, size=3000)
        _the_cuts.cache_clear()
        serial = [simulate_run(cfg, x0, 7, 0) for cfg in cfgs]
        _the_cuts.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                runs = list(pool.map(lambda c: simulate_run(c, x0, 7, 0),
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
        assert np.array_equal(_at_or_past(j, t, flips), f(j) > 1000.5)


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
from ldptune.simulate import simulate_run
x0 = np.random.default_rng(2024).integers(0, 100, size=50_000)
f_hat, successes = simulate_run(resolve_protocol("the", 4.0, 100).config,
                                x0, 12345, 1)
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

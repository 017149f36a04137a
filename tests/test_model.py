"""Config validation and the counter-based random number streams."""

import math

import numpy as np
import pytest

from ldptune.model import (
    Family,
    ProtocolConfig,
    RangeError,
    RngStream,
    derive_stream,
    draws_laplace,
    draws_u64,
    draws_uniform,
    laplace_inplace,
    mix64,
    stream_seeds,
    validate_config,
)
from ldptune.protocols import pure_params


def _cfg(family, param=None, eps=1.0, k=4):
    return ProtocolConfig(family, eps, k, param)


class TestValidateConfig:
    def test_valid_configs_pass_through(self):
        good = [
            _cfg(Family.GRR),
            _cfg(Family.SS, 2),
            _cfg(Family.UE, 0.7),
            _cfg(Family.LH, 3),
            _cfg(Family.SHE),
            _cfg(Family.THE, 0.8),
        ]
        for cfg in good:
            assert validate_config(cfg) is cfg

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan, "1", True,
                                     800.0])
    def test_bad_eps(self, eps):
        with pytest.raises(RangeError) as exc:
            validate_config(ProtocolConfig(Family.GRR, eps, 4))
        assert exc.value.field == "eps"

    @pytest.mark.parametrize("k", [1, 0, -3, 2.5, "4", True])
    def test_bad_k(self, k):
        with pytest.raises(RangeError) as exc:
            validate_config(ProtocolConfig(Family.GRR, 1.0, k))
        assert exc.value.field == "k"

    @pytest.mark.parametrize("omega", [0, 4, 5, -1, 1.5, None])
    def test_bad_omega(self, omega):
        with pytest.raises(RangeError) as exc:
            validate_config(_cfg(Family.SS, omega))
        assert exc.value.field == "omega"

    def test_omega_full_domain_rejected(self):
        # omega = k would make every report support everything
        with pytest.raises(RangeError):
            validate_config(ProtocolConfig(Family.SS, 1.0, 4, 4))

    @pytest.mark.parametrize("g", [1, 0, 2.5, None, 2 ** 63 + 1])
    def test_bad_g(self, g):
        with pytest.raises(RangeError) as exc:
            validate_config(_cfg(Family.LH, g))
        assert exc.value.field == "g"

    @pytest.mark.parametrize("theta", [0.4, 1.1, -0.5, None])
    def test_bad_theta(self, theta):
        with pytest.raises(RangeError) as exc:
            validate_config(_cfg(Family.THE, theta))
        assert exc.value.field == "theta"

    def test_ue_pair_must_match_budget(self):
        # UE's q is derived from p, but rounds: near p = 1 the pair's own
        # budget misses eps (1.95 nats at eps 2 for the float below 1)
        assert _cfg(Family.UE, 1 - 1e-6, eps=2.0).param == 1 - 1e-6
        with pytest.raises(RangeError) as exc:
            _cfg(Family.UE, 0.9999999999999999, eps=2.0)
        assert exc.value.field == "(p, q)"

    def test_ue_requires_p_greater_than_q(self):
        # where e^eps rounds to 1 the derived q equals p: no pure pair, and
        # the budget is what is too small
        with pytest.raises(RangeError) as exc:
            pure_params(_cfg(Family.UE, 0.3, eps=1e-17))
        assert exc.value.field == "eps" and "k=4" in str(exc.value)

    def test_stray_params_rejected(self):
        for family, value in ((Family.GRR, 2), (Family.SHE, 0.8)):
            with pytest.raises(RangeError) as exc:
                _cfg(family, value)
            assert exc.value.field == "param"

    def test_invalid_config_cannot_be_built(self):
        # construction runs validate_config, so every config is valid
        with pytest.raises(RangeError) as exc:
            ProtocolConfig(Family.GRR, -1.0, 4)
        assert exc.value.field == "eps"
        with pytest.raises(RangeError):
            ProtocolConfig(Family.SS, 1.0, 4, 4)

    def test_family_name_becomes_a_family(self):
        assert ProtocolConfig("ss", 1.0, 4, 2).family is Family.SS
        with pytest.raises(ValueError):
            ProtocolConfig("zzz", 1.0, 4)

    def test_range_error_carries_field_allowed_got(self):
        with pytest.raises(RangeError) as exc:
            validate_config(ProtocolConfig(Family.GRR, -2.0, 4))
        err = exc.value
        assert err.field == "eps"
        assert err.got == -2.0
        assert "eps" in str(err)


class TestStreams:
    def test_same_triple_same_stream(self):
        a = derive_stream(123, 4, 5)
        b = derive_stream(123, 4, 5)
        assert [a.u64() for _ in range(8)] == [b.u64() for _ in range(8)]

    def test_distinct_triples_differ(self):
        base = [derive_stream(123, 4, 5).u64() for _ in range(1)]
        assert derive_stream(123, 4, 6).u64() != base[0]
        assert derive_stream(123, 5, 5).u64() != base[0]
        assert derive_stream(124, 4, 5).u64() != base[0]

    def test_scalar_and_vector_streams_agree(self):
        users = np.arange(50)
        seeds = stream_seeds(77, 3, users)
        block = draws_u64(seeds[:, None], np.arange(6)[None, :])
        for u in range(50):
            rng = derive_stream(77, 3, u)
            assert [rng.u64() for _ in range(6)] == list(block[u])

    def test_bulk_uniforms_match_scalar_uniform(self):
        rng = RngStream(42)
        first = [rng.uniform() for _ in range(10)]
        again = RngStream(42).uniforms(10)
        assert first == list(again)

    def test_bulk_laplaces_match_scalar_laplace(self):
        rng = RngStream(42)
        first = [rng.laplaces(1, 2.0)[0] for _ in range(10)]
        again = RngStream(42).laplaces(10, 2.0)
        assert first == list(again)

    def test_uniform_range_and_mean(self):
        u = RngStream(9).uniforms(10 ** 6)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.002

    def test_laplace_variance_matches_2b_squared(self):
        b = 1.7
        z = RngStream(11).laplaces(10 ** 6, b)
        assert np.isfinite(z).all()
        assert abs(z.var() / (2 * b * b) - 1.0) < 0.01
        assert abs(z.mean()) < 0.01

    def test_no_seed_collisions_across_users(self):
        seeds = stream_seeds(123456789, 0, np.arange(10 ** 6))
        assert len(np.unique(seeds)) == 10 ** 6

    def test_no_collisions_across_runs(self):
        runs = [stream_seeds(5, r, np.arange(1000)) for r in range(50)]
        allseeds = np.concatenate(runs)
        assert len(np.unique(allseeds)) == len(allseeds)

    def test_mix64_is_injective_on_small_range(self):
        outs = {mix64(i) for i in range(10 ** 5)}
        assert len(outs) == 10 ** 5

    def test_uniform_draw_addressing_is_positional(self):
        # j-th u64 equals the counter-j draw regardless of call pattern
        seed = stream_seeds(3, 1, np.asarray([2]))[0]
        direct = draws_u64(seed, np.arange(5))
        rng = derive_stream(3, 1, 2)
        rng.uniform()          # consumes counter 0
        rest = [rng.u64() for _ in range(4)]
        assert rest == list(direct[1:])

    def test_draws_uniform_maps_high_bits(self):
        seed = np.uint64(123)
        u = draws_uniform(seed, np.arange(4))
        z = draws_u64(seed, np.arange(4))
        assert np.array_equal(u, (z >> np.uint64(11)) * 2.0 ** -53)

    def test_top_draw_takes_the_next_samples_value(self):
        # j = 2^53 - 1 would round to u = 1/2, whose sample is +inf
        top = np.uint64((1 << 53) - 1) << np.uint64(11)
        z = np.array([0, top - (np.uint64(1) << np.uint64(11)), top,
                      top | np.uint64(2047)], dtype=np.uint64)
        with np.errstate(all="raise"):
            v = laplace_inplace(z, 1.0)
        assert np.isfinite(v).all()
        assert v[1] == v[2] == v[3] > 35.0
        assert v[0] < -36.0

    def test_draws_laplace_symmetric_tail(self):
        z = draws_laplace(np.uint64(77), np.arange(10 ** 5), 1.0)
        assert abs((z > 0).mean() - 0.5) < 0.01

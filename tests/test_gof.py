"""Characterizing functionals and the reconstruction goodness-of-fit test."""

import math

import numpy as np
import pytest

from logshift import gof
from logshift import (
    DomainError,
    Exponential,
    GofConfig,
    InsufficientDataError,
    Laplace,
    Logistic,
    Normal,
    RngStream,
    Uniform01,
    adjacent_functional_residual,
    gof_test,
    w_functional,
)

VARIANCE_MATCHED_NORMAL = Normal(0.0, math.pi / math.sqrt(3.0))

# frozen from the implementation oracle run; the point is the order of magnitude
NORMAL_RESIDUAL_AT_ZERO = 0.045077


class TestWFunctional:
    def test_identically_one_for_logistic(self):
        xs = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
        assert np.max(np.abs(w_functional(Logistic(), xs) - 1.0)) <= 1e-12

    def test_location_shift_keeps_it_one(self):
        xs = np.linspace(-4, 8, 25)
        assert np.max(np.abs(w_functional(Logistic(mu=2.0), xs) - 1.0)) <= 1e-12

    def test_standard_normal_value_at_zero(self):
        # (1/sqrt(2 pi)) / (1/4) = 4/sqrt(2 pi), from the 40-digit oracle
        assert w_functional(Normal(), 0.0) == pytest.approx(1.5957691216057307118, abs=1e-9)

    def test_uniform_value(self):
        assert w_functional(Uniform01(), 0.5) == pytest.approx(4.0, abs=1e-12)

    def test_not_one_off_logistic(self):
        assert abs(w_functional(VARIANCE_MATCHED_NORMAL, 1.0) - 1.0) > 0.05
        assert abs(w_functional(Laplace(1), 0.5) - 1.0) > 0.05

    def test_boundary_raises(self):
        with pytest.raises(DomainError):
            w_functional(Uniform01(), -0.25)
        with pytest.raises(DomainError):
            w_functional(Logistic(), 900.0)


class TestAdjacentFunctionalResidual:
    def test_vanishes_for_logistic(self):
        for x in (-3.0, 0.0, 2.0):
            assert abs(adjacent_functional_residual(Logistic(), 4, 2, x)) <= 1e-12

    def test_vanishes_for_every_rank_and_size(self):
        xs = np.linspace(-6, 6, 25)
        for n in range(2, 7):
            for k in range(1, n):
                res = adjacent_functional_residual(Logistic(), n, k, xs)
                assert np.max(np.abs(res)) <= 1e-12, (n, k)

    def test_zero_where_cdf_is_zero(self):
        # all four terms vanish left of the support
        assert adjacent_functional_residual(Uniform01(), 3, 1, -0.5) == 0.0
        assert adjacent_functional_residual(Exponential(1.0), 4, 2, -1.0) == 0.0

    def test_nonzero_for_variance_matched_normal(self):
        res = adjacent_functional_residual(VARIANCE_MATCHED_NORMAL, 4, 2, 0.0)
        assert abs(res) > 1e-3
        assert res == pytest.approx(NORMAL_RESIDUAL_AT_ZERO, rel=1e-3)

    def test_rank_validation(self):
        with pytest.raises(DomainError):
            adjacent_functional_residual(Logistic(), 4, 4, 0.0)
        with pytest.raises(DomainError):
            adjacent_functional_residual(Logistic(), 4, 0, 0.0)


class TestGofTest:
    def test_deterministic(self):
        data = Logistic().sample(RngStream(7), 1000)
        a = gof_test(data, 3, 2, GofConfig(seed=5))
        b = gof_test(data, 3, 2, GofConfig(seed=5))
        assert a == b

    def test_pvalue_granularity_and_fields(self):
        data = Logistic().sample(RngStream(8), 600)
        result = gof_test(data, 3, 2, GofConfig(seed=1))
        assert result.null_replicates == 199
        assert result.sample_size == 600
        assert result.identity_used == "lemma1ii:k=2,n=3"
        # p = (1 + count) / 200 for some integer count
        assert round(result.p_value * 200) == pytest.approx(result.p_value * 200, abs=1e-12)
        assert 1.0 / 200 <= result.p_value <= 1.0

    def test_near_null_deterministic_quantile_data(self):
        n = 10_000
        data = Logistic().quantile(np.arange(1, n + 1) / (n + 1.0))
        result = gof_test(data, 3, 2, GofConfig(seed=0))
        assert result.p_value >= 0.05

    def test_rejects_variance_matched_normal(self):
        data = VARIANCE_MATCHED_NORMAL.sample(RngStream(1002), 10_000)
        result = gof_test(data, 3, 2, GofConfig(seed=2))
        assert result.p_value <= 0.05

    def test_location_invariance_of_the_statistic(self):
        data = Logistic().sample(RngStream(9), 3000)
        base = gof_test(data, 3, 2, GofConfig(seed=11))
        shifted = gof_test(data + 5.0, 3, 2, GofConfig(seed=11))
        assert shifted.statistic == pytest.approx(base.statistic, abs=1e-12)
        assert shifted.p_value == base.p_value

    def test_center_flag_replays_through_null(self):
        data = Logistic().sample(RngStream(10), 3000) + 3.0
        plain = gof_test(data, 3, 2, GofConfig(seed=4))
        centered = gof_test(data, 3, 2, GofConfig(seed=4, center=True))
        # centering is a no-op for a location-invariant statistic
        assert centered.p_value == plain.p_value

    def test_scale_deviation_is_detected(self):
        data = 2.0 * Logistic().sample(RngStream(11), 10_000)
        result = gof_test(data, 3, 2, GofConfig(seed=6))
        assert result.p_value <= 0.01

    def test_calibration_smoke(self):
        ps = []
        for s in range(20):
            data = Logistic().sample(RngStream(123).substream(s), 2000)
            ps.append(gof_test(data, 3, 2, GofConfig(seed=s)).p_value)
        ps = np.array(ps)
        assert 0.3 <= ps.mean() <= 0.8
        assert ps.min() >= 1.0 / 200

    def test_other_ranks_run(self):
        data = Logistic().sample(RngStream(12), 2000)
        for n, k in [(2, 1), (4, 3), (5, 1)]:
            result = gof_test(data, n, k, GofConfig(seed=3))
            assert result.identity_used == f"lemma1ii:k={k},n={n}"
            assert result.p_value >= 1.0 / 200

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            gof_test(np.zeros(50), 3, 2)

    def test_rank_validation(self):
        data = Logistic().sample(RngStream(13), 500)
        with pytest.raises(DomainError):
            gof_test(data, 3, 4)
        with pytest.raises(DomainError):
            gof_test(data, 0, 1)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            GofConfig(null_replicates=99)
        with pytest.raises(DomainError):
            GofConfig(passes=0)

    def test_nonfinite_data_rejected(self):
        data = np.r_[Logistic().sample(RngStream(14), 500), np.nan]
        with pytest.raises(DomainError):
            gof_test(data, 3, 2)


def _partition_reference(work, order, k):
    """The np.partition block step that the selection network must reproduce."""
    return np.partition(work[order], k - 1, axis=1)[:, k - 1]


class TestBlockOrderStatistics:
    # both sides of the bound above which gof falls back to np.partition
    SIZES = range(1, gof._NETWORK_MAX_N + 5)

    @pytest.mark.parametrize("n", SIZES)
    def test_network_selects_kth_of_every_zero_one_block(self, n):
        # 0-1 principle: a comparator network that selects correctly on every
        # 0/1 input selects correctly on every input
        blocks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        work = blocks.ravel().astype(float)
        order = np.arange(work.size).reshape(blocks.shape)
        for k in range(1, n + 1):
            got = gof._block_order_statistics(work, order, k, gof._selection_network(n, k))
            assert np.array_equal(got, np.sort(blocks, axis=1)[:, k - 1]), (n, k)

    @pytest.mark.parametrize("n", SIZES)
    def test_block_step_equals_partition_on_tied_data(self, n):
        rng = np.random.default_rng(100 + n)
        work = np.round(rng.logistic(size=600 * n), 1)
        order = rng.permutation(work.size).reshape(600, n)
        for k in range(1, n + 1):
            ref = _partition_reference(work, order, k)
            network = gof._selection_network(n, k)
            assert np.array_equal(gof._block_order_statistics(work, order, k, network), ref), (n, k)
            assert np.array_equal(gof._block_order_statistics(work, order, k, None), ref), (n, k)

    def test_three_two_network_is_the_median_of_three(self):
        # min(max(a, b), max(min(a, b), c)): four elementwise operations
        assert gof._selection_network(3, 2) == [(0, 1, True, True), (0, 2, False, True), (1, 2, True, False)]

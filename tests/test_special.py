"""CF building blocks against independent oracles."""

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from logshift import DomainError, exponential_cf, logistic_cf

# frozen from a 40-digit mpmath evaluation of pi/sinh(pi)
GAMMA_PRODUCT_AT_1 = 0.27202905498213316295


class TestLogisticCF:
    def test_at_zero(self):
        assert logistic_cf(0.0) == 1.0

    def test_closed_form_value(self):
        assert logistic_cf(1.0).real == pytest.approx(GAMMA_PRODUCT_AT_1, abs=1e-14)
        assert logistic_cf(1.0).imag == 0.0

    def test_even(self):
        t = np.array([0.3, 1.0, 2.5, 7.0, 19.0])
        assert np.array_equal(logistic_cf(t), logistic_cf(-t))

    def test_positive_and_bounded(self):
        t = np.linspace(-20, 20, 401)
        values = logistic_cf(t).real
        assert np.all(values > 0.0)
        assert np.all(values <= 1.0)

    def test_taylor_branch_is_continuous(self):
        below = logistic_cf(1e-4 * (1 - 1e-9)).real
        above = logistic_cf(1e-4 * (1 + 1e-9)).real
        assert abs(below - above) < 1e-14

    def test_matches_gamma_product_cross_check(self):
        for t in (0.1, 0.77, 2.0, 5.5, 13.0):
            product = scipy_gamma(1 + 1j * t) * scipy_gamma(1 - 1j * t)
            assert abs(logistic_cf(t) - product) <= 1e-13

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            logistic_cf(float("nan"))


class TestExponentialCF:
    def test_at_zero(self):
        assert exponential_cf(0.0, 1.0) == 1 + 0j

    def test_unit_rate_value(self):
        assert exponential_cf(1.0, 1.0) == pytest.approx(0.5 + 0.5j, abs=1e-15)

    def test_hand_arithmetic_value(self):
        # 1 / (1 - 2i/3) = (9 + 6i) / 13
        assert exponential_cf(2.0, 3.0) == pytest.approx((9 + 6j) / 13, abs=1e-15)

    def test_modulus_bounded_by_one(self):
        t = np.linspace(-50, 50, 101)
        assert np.all(np.abs(exponential_cf(t, 2.5)) <= 1.0 + 1e-15)

    def test_hermitian(self):
        t = np.array([0.5, 1.0, 3.0])
        assert np.allclose(exponential_cf(-t, 2.0), np.conj(exponential_cf(t, 2.0)), rtol=0, atol=1e-16)

    def test_rejects_bad_rate(self):
        with pytest.raises(DomainError):
            exponential_cf(1.0, 0.0)
        with pytest.raises(DomainError):
            exponential_cf(1.0, -2.0)

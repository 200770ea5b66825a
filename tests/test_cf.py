"""Order-statistic characteristic functions, the quadrature oracle, and inversion."""

import io
import math

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from logshift import (
    CFGrid,
    DomainError,
    Logistic,
    OrderStatistic,
    TruncationError,
    Uniform01,
    cf_invert_derivative,
    exponential_order_stat_cf,
    logistic_cf,
    logistic_cf_grid,
    logistic_order_stat_cf,
    numerical_cf,
)

# frozen from the 40-digit oracle: 2*pi/sinh(pi)
MIDDLE_OF_THREE_AT_1 = 0.5440581099642663259


class TestExactLogisticCF:
    def test_unit_at_zero(self):
        for n, k in [(1, 1), (4, 2), (6, 6), (5, 1)]:
            assert logistic_order_stat_cf(n, k, 0.0) == 1.0 + 0.0j

    def test_single_observation_reduces_to_parent_cf(self):
        t = np.linspace(-4, 4, 17)
        assert np.array_equal(logistic_order_stat_cf(1, 1, t), np.asarray(logistic_cf(t)))

    def test_hand_computed_product(self):
        value = logistic_order_stat_cf(3, 2, 1.0)
        assert value.real == pytest.approx(MIDDLE_OF_THREE_AT_1, abs=1e-14)
        assert abs(value.imag) < 1e-16

    def test_gamma_quotient_cross_check(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            t = float(rng.uniform(-6, 6))
            product = logistic_order_stat_cf(n, k, t)
            quotient = (
                scipy_gamma(k + 1j * t)
                * scipy_gamma(n - k + 1 - 1j * t)
                / (scipy_gamma(k) * scipy_gamma(n - k + 1))
            )
            assert abs(product - quotient) <= 1e-12

    def test_gamma_quotient_matches_mpmath_spot_checks(self):
        mpmath = pytest.importorskip("mpmath")
        for n, k, t in ((3, 2, 1.0), (5, 1, 0.7), (6, 4, -2.5), (8, 8, 4.0), (7, 3, 5.9)):
            with mpmath.workdps(40):
                ref = (
                    mpmath.gamma(k + 1j * t)
                    * mpmath.gamma(n - k + 1 - 1j * t)
                    / (mpmath.gamma(k) * mpmath.gamma(n - k + 1))
                )
            assert abs(logistic_order_stat_cf(n, k, t) - complex(ref)) <= 1e-14

    def test_modulus_bounded(self):
        t = np.linspace(-10, 10, 201)
        for n, k in [(2, 1), (5, 3), (6, 2)]:
            assert np.all(np.abs(logistic_order_stat_cf(n, k, t)) <= 1.0 + 1e-12)

    def test_hermitian_symmetry(self):
        t = np.linspace(0.1, 8, 25)
        for n, k in [(4, 1), (4, 3), (6, 5)]:
            assert np.allclose(
                logistic_order_stat_cf(n, k, -t),
                np.conj(logistic_order_stat_cf(n, k, t)),
                rtol=0,
                atol=1e-15,
            )

    def test_rank_validation(self):
        with pytest.raises(DomainError):
            logistic_order_stat_cf(3, 0, 1.0)
        with pytest.raises(DomainError):
            logistic_order_stat_cf(3, 4, 1.0)


def test_exponential_order_stat_cf_max_is_spacings_product():
    t = 1.7
    n = 5
    manual = np.prod([1.0 / (1.0 - 1j * t / j) for j in range(1, n + 1)])
    assert exponential_order_stat_cf(n, n, t) == pytest.approx(manual, abs=1e-15)


def test_exponential_order_stat_cf_against_quadrature():
    from logshift import Exponential

    spec = OrderStatistic(Exponential(1.0), 4, 2)
    for t in (0.5, 2.0):
        oracle = numerical_cf(spec, t, 1e-10)
        assert abs(exponential_order_stat_cf(4, 2, t) - oracle) <= 1e-9


class TestNumericalCF:
    def test_single_logistic_matches_closed_form(self):
        spec = OrderStatistic(Logistic(), 1, 1)
        assert abs(numerical_cf(spec, 1.0, 1e-11) - logistic_cf(1.0)) <= 1e-10

    def test_unit_at_zero(self):
        for spec in (OrderStatistic(Logistic(), 4, 2), OrderStatistic(Uniform01(), 3, 3)):
            assert abs(numerical_cf(spec, 0.0, 1e-10) - 1.0) <= 1e-10

    def test_cross_validates_gamma_product(self):
        spec = OrderStatistic(Logistic(), 5, 2)
        assert abs(numerical_cf(spec, 2.0, 1e-10) - logistic_order_stat_cf(5, 2, 2.0)) <= 1e-9

    def test_uniform_parent_against_scipy(self):
        from scipy.integrate import quad

        spec = OrderStatistic(Uniform01(), 2, 2)
        t = 1.3
        re, _ = quad(lambda x: math.cos(t * x) * 2 * x, 0, 1, epsabs=1e-13)
        im, _ = quad(lambda x: math.sin(t * x) * 2 * x, 0, 1, epsabs=1e-13)
        assert abs(numerical_cf(spec, t, 1e-10) - complex(re, im)) <= 1e-9

    def test_tolerance_validation(self):
        with pytest.raises(DomainError):
            numerical_cf(OrderStatistic(Logistic(), 2, 1), 1.0, 1e-13)


class TestInversion:
    def test_density_of_single_logistic_at_zero(self):
        grid = logistic_cf_grid(1, 1)
        assert cf_invert_derivative(grid, 1, 0.0) == pytest.approx(0.25, abs=1e-6)

    def test_density_of_middle_rank_at_zero(self):
        grid = logistic_cf_grid(3, 2)
        assert cf_invert_derivative(grid, 1, 0.0) == pytest.approx(0.375, abs=1e-6)

    def test_second_derivative_vanishes_at_symmetry_point(self):
        grid = logistic_cf_grid(1, 1, max_order=2)
        assert cf_invert_derivative(grid, 2, 0.0) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (5, 2)])
    def test_round_trip_reproduces_density(self, n, k):
        grid = logistic_cf_grid(n, k)
        spec = OrderStatistic(Logistic(), n, k)
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            value, residual = cf_invert_derivative(grid, 1, x, return_residual=True)
            assert value == pytest.approx(spec.pdf(x), abs=1e-6)
            assert residual <= 1e-8

    def test_truncation_guard(self):
        t = np.linspace(-4, 4, 161)
        short = CFGrid(t, logistic_order_stat_cf(2, 1, t), 1e-14)
        with pytest.raises(TruncationError):
            cf_invert_derivative(short, 1, 0.0)

    def test_order_validation(self):
        grid = logistic_cf_grid(1, 1)
        with pytest.raises(DomainError):
            cf_invert_derivative(grid, 5, 0.0)
        with pytest.raises(DomainError):
            cf_invert_derivative(grid, 0, 0.0)

    def test_higher_derivatives_match_finite_differences(self):
        spec = OrderStatistic(Logistic(), 4, 2)
        grid = logistic_cf_grid(4, 2, max_order=3)
        h = 1e-4
        for x in (-1.0, 0.5):
            fd2 = (spec.pdf(x + h) - spec.pdf(x - h)) / (2 * h)
            assert cf_invert_derivative(grid, 2, x) == pytest.approx(fd2, abs=1e-5)


class TestCFGrid:
    def test_csv_round_trip(self):
        grid = logistic_cf_grid(3, 2, spacing=0.05)
        buffer = io.StringIO()
        grid.to_csv(buffer)
        buffer.seek(0)
        back = CFGrid.from_csv(buffer)
        assert np.array_equal(back.t, grid.t)
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.abs_error, grid.abs_error)

    @pytest.mark.parametrize(
        "text",
        [
            "t,re,im,err\n",
            "t,re,im,err\n0.0,1.0,0.0,0.0\n1.0,0.5,0.0\n",
            "t,re,im,err\n0.0,1.0,0.0,0.0\n1.0,half,0.0,0.0\n",
        ],
        ids=["header_only", "short_row", "non_numeric_row"],
    )
    def test_csv_errors_are_domain_errors(self, text):
        with pytest.raises(DomainError):
            CFGrid.from_csv(io.StringIO(text))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            CFGrid(np.array([0.0, -1.0, 1.0]), np.ones(3, dtype=complex), 1e-14)

    def test_rejects_modulus_violation(self):
        with pytest.raises(DomainError):
            CFGrid(np.array([-1.0, 0.0, 1.0]), np.array([1.5, 1.0, 0.5], dtype=complex), 1e-14)

    def test_rejects_bad_value_at_zero(self):
        with pytest.raises(DomainError):
            CFGrid(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.9, 0.5], dtype=complex), 1e-14)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            CFGrid(np.array([0.0, 1.0]), np.ones(3, dtype=complex), 1e-14)


def test_cf_product_identity_small_cases():
    # phi_m(t) prod phi_E(-t/j) = phi_k(t) prod phi_E(t/(n-j)) for j = k..m-1
    from logshift import exponential_cf

    t = np.linspace(-5, 5, 41)
    for n in range(2, 5):
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                lhs = logistic_order_stat_cf(n, m, t)
                rhs = logistic_order_stat_cf(n, k, t)
                for j in range(k, m):
                    lhs = lhs * exponential_cf(-t / j, 1.0)
                    rhs = rhs * exponential_cf(t / (n - j), 1.0)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

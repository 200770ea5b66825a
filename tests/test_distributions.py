"""Parent families, order statistics, and the sampling routes."""

import math

import numpy as np
import pytest

from logshift import (
    DomainError,
    Exponential,
    Laplace,
    Logistic,
    Normal,
    OrderStatistic,
    RngStream,
    Uniform01,
    ks_two_sample,
    parse_distribution,
)

LOGISTIC_SD = math.pi / math.sqrt(3.0)

ALL_FAMILIES = [
    Logistic(),
    Logistic(mu=1.5),
    Exponential(rate=2.0),
    Laplace(index=3),
    Uniform01(),
    Normal(mu=-0.5, sigma=2.0),
]


def sample_by_sorting(spec, rng, count):
    """Reference sampler: draw n parents per replicate and select the k-th smallest."""
    u = rng.uniform_open(count * spec.n).reshape(count, spec.n)
    draws = spec.parent.quantile(u)
    return np.partition(draws, spec.k - 1, axis=1)[:, spec.k - 1]


def test_logistic_cdf_values():
    d = Logistic()
    assert d.cdf(0.0) == 0.5
    assert d.cdf(1.0) == pytest.approx(0.73105857863000487925, abs=1e-15)
    assert d.cdf(800.0) == 1.0
    assert d.cdf(-800.0) == 0.0


def test_logistic_cdf_monotone_and_stable():
    x = np.linspace(-40, 40, 2001)
    F = Logistic().cdf(x)
    assert np.all(np.diff(F) >= 0)
    assert np.all(np.isfinite(F))


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label())
def test_quantile_inverts_cdf(d):
    # interior points of each family's support
    if isinstance(d, Uniform01):
        xs = np.linspace(0.02, 0.98, 25)
    elif isinstance(d, Exponential):
        xs = np.linspace(0.05, 6.0, 25)
    else:
        xs = np.linspace(-6.0, 6.0, 25) + getattr(d, "mu", 0.0)
    back = d.quantile(d.cdf(xs))
    assert np.max(np.abs(back - xs)) <= 1e-9


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label())
def test_pdf_is_cdf_derivative(d):
    if isinstance(d, Uniform01):
        xs = np.linspace(0.05, 0.95, 12)
    elif isinstance(d, Exponential):
        xs = np.linspace(0.1, 4.0, 12)
    else:
        xs = np.linspace(-4.0, 4.0, 12) + getattr(d, "mu", 0.0)
    h = 1e-6
    numeric = (d.cdf(xs + h) - d.cdf(xs - h)) / (2 * h)
    assert np.max(np.abs(numeric - d.pdf(xs))) <= 1e-6


def test_cdf_limits():
    for d in ALL_FAMILIES:
        assert d.cdf(-1e12) == pytest.approx(0.0, abs=1e-300)
        assert d.cdf(1e12) == pytest.approx(1.0, abs=1e-15)


def test_parameter_validation():
    with pytest.raises(DomainError):
        Exponential(rate=0.0)
    with pytest.raises(DomainError):
        Normal(sigma=-1.0)
    with pytest.raises(DomainError):
        Laplace(index=0)
    with pytest.raises(DomainError):
        Laplace(index=1.5)


class TestOrderStatisticDensity:
    def test_logistic_parent_density_at_zero(self):
        assert OrderStatistic(Logistic(), 1, 1).pdf(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_hand_evaluated_middle_rank(self):
        # 2 * C(3,2) * F * (1-F) * f at 0 = 6 * .5 * .5 * .25
        assert OrderStatistic(Logistic(), 3, 2).pdf(0.0) == pytest.approx(0.375, abs=1e-15)

    def test_uniform_maximum(self):
        assert OrderStatistic(Uniform01(), 2, 2).pdf(0.5) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (5, 2), (6, 6)])
    def test_integrates_to_one(self, n, k):
        from scipy.integrate import quad

        spec = OrderStatistic(Logistic(), n, k)
        mass, _ = quad(spec.pdf, -60, 60, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_rank_validation(self):
        with pytest.raises(DomainError):
            OrderStatistic(Logistic(), 3, 0)
        with pytest.raises(DomainError):
            OrderStatistic(Logistic(), 3, 4)


class TestOrderStatisticCDF:
    def test_median_of_symmetric_sample(self):
        assert OrderStatistic(Logistic(), 3, 2).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("d", [Logistic(), Exponential(2.0), Uniform01()], ids=lambda d: d.label())
    def test_minimum_closed_form(self, d):
        n = 4
        spec = OrderStatistic(d, n, 1)
        xs = np.linspace(0.05, 2.0, 9)
        F = np.asarray(d.cdf(xs))
        assert np.max(np.abs(spec.cdf(xs) - (1 - (1 - F) ** n))) <= 1e-14

    def test_against_large_sample_empirical_cdf(self):
        # Monte Carlo oracle for (n, k, x) = (5, 3, 1)
        spec = OrderStatistic(Logistic(), 5, 3)
        draws = sample_by_sorting(spec, RngStream(2718), 1_000_000)
        p_hat = np.mean(draws <= 1.0)
        p = spec.cdf(1.0)
        assert abs(p_hat - p) <= 3.0 * math.sqrt(p * (1 - p) / 1_000_000)

    def test_recurrence_identity(self):
        # F_k = sum_{j=k}^{k+r} C(n,j) F^j (1-F)^(n-j) + F_{k+r+1}, exactly
        n = 6
        parent = Logistic()
        xs = np.linspace(-6, 6, 25)
        F = parent.cdf(xs)
        for k in range(1, n + 1):
            lhs = OrderStatistic(parent, n, k).cdf(xs)
            for r in range(0, n - k):
                partial = sum(
                    math.comb(n, j) * F**j * (1 - F) ** (n - j) for j in range(k, k + r + 1)
                )
                rest = OrderStatistic(parent, n, k + r + 1).cdf(xs)
                assert np.max(np.abs(lhs - partial - rest)) <= 1e-12

    def test_pdf_is_cdf_derivative(self):
        spec = OrderStatistic(Logistic(), 5, 2)
        xs = np.linspace(-5, 5, 21)
        h = 1e-5
        numeric = (spec.cdf(xs + h) - spec.cdf(xs - h)) / (2 * h)
        assert np.max(np.abs(numeric - spec.pdf(xs))) <= 1e-6


class TestSampling:
    def test_logistic_moments(self):
        draws = Logistic().sample(RngStream(11), 1_000_000)
        assert abs(draws.mean()) <= 4.0 * LOGISTIC_SD / 1000.0
        assert draws.var() == pytest.approx(math.pi**2 / 3.0, rel=0.02)

    def test_uniform_draws_stay_open(self):
        draws = Uniform01().sample(RngStream(12), 100_000)
        assert draws.min() > 0.0
        assert draws.max() < 1.0

    def test_exponential_mean(self):
        draws = Exponential(rate=2.0).sample(RngStream(13), 1_000_000)
        assert abs(draws.mean() - 0.5) <= 4.0 * 0.5 / 1000.0

    def test_sampling_deterministic(self):
        a = Normal().sample(RngStream(99), 64)
        b = Normal().sample(RngStream(99), 64)
        assert np.array_equal(a, b)

    def test_trivial_order_statistic_matches_parent(self):
        spec = OrderStatistic(Logistic(), 1, 1)
        a = spec.sample(RngStream(21).substream(0), 100_000)
        b = Logistic().sample(RngStream(21).substream(1), 100_000)
        assert ks_two_sample(a, b).pvalue >= 0.01

    def test_median_symmetry_point(self):
        draws = OrderStatistic(Logistic(), 3, 2).sample(RngStream(31), 1_000_000)
        assert abs(np.mean(draws <= 0.0) - 0.5) <= 0.002

    def test_empirical_cdf_matches_exact_cdf_on_grid(self):
        spec = OrderStatistic(Logistic(), 5, 2)
        draws = spec.sample(RngStream(41), 1_000_000)
        grid = np.linspace(-5, 5, 21)
        empirical = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
        assert np.max(np.abs(empirical - spec.cdf(grid))) <= 0.004

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 2), (5, 4)])
    def test_beta_route_agrees_with_sorting_route(self, n, k):
        spec = OrderStatistic(Logistic(), n, k)
        fast = spec.sample(RngStream(51).substream(0), 100_000)
        slow = sample_by_sorting(spec, RngStream(51).substream(1), 100_000)
        assert ks_two_sample(fast, slow).pvalue >= 0.01

    def test_laplace_equals_difference_of_exponentials(self):
        direct = Laplace(index=2).sample(RngStream(61).substream(0), 100_000)
        s = RngStream(61).substream(1)
        diff = Exponential(2.0).sample(s, 100_000) - Exponential(2.0).sample(s, 100_000)
        assert ks_two_sample(direct, diff).pvalue >= 0.01

    def test_count_validation(self):
        with pytest.raises(DomainError):
            Logistic().sample(RngStream(0), 0)


class TestParseDistribution:
    def test_defaults(self):
        assert parse_distribution("logistic") == Logistic()
        assert parse_distribution("uniform01") == Uniform01()

    def test_with_parameters(self):
        assert parse_distribution("normal,mu=0,sigma=1.8138") == Normal(0.0, 1.8138)
        assert parse_distribution("exponential,rate=2") == Exponential(2.0)
        assert parse_distribution("laplace,j=2") == Laplace(2)
        assert parse_distribution("laplace,index=3") == Laplace(3)
        assert parse_distribution("logistic,mu=-1.5") == Logistic(-1.5)

    def test_label_round_trip(self):
        for d in ALL_FAMILIES:
            assert parse_distribution(d.label()) == d

    def test_errors(self):
        with pytest.raises(DomainError):
            parse_distribution("cauchy")
        with pytest.raises(DomainError):
            parse_distribution("normal,scale=2")
        with pytest.raises(DomainError):
            parse_distribution("normal,mu")
        with pytest.raises(DomainError):
            parse_distribution("")
        for text in ("logistic,mu=nan", "logistic,mu=inf", "normal,mu=nan,sigma=1", "normal,mu=-inf"):
            with pytest.raises(DomainError, match="not finite"):
                parse_distribution(text)

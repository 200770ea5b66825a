"""Two-sample machinery against scipy oracles."""

import numpy as np
import pytest

from logshift import DomainError, cvm_two_sample, kolmogorov_sf, ks_statistic, ks_two_sample


def test_kolmogorov_sf_matches_scipy():
    from scipy.special import kolmogorov

    for lam in np.concatenate([np.linspace(0.05, 1.17, 29), np.linspace(1.18, 5.0, 40)]):
        assert kolmogorov_sf(float(lam)) == pytest.approx(kolmogorov(lam), abs=1e-12)
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-2.0) == 1.0
    assert kolmogorov_sf(50.0) == 0.0


def test_statistic_matches_scipy():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(17)
    x = rng.normal(size=5000)
    y = rng.normal(0.05, 1.0, size=7000)
    mine = ks_two_sample(x, y)
    ref = ks_2samp(x, y, method="asymp")
    assert mine.statistic == pytest.approx(ref.statistic, abs=0)
    # same statistic through the limiting Kolmogorov law
    from scipy.stats import kstwobign

    en = np.sqrt(len(x) * len(y) / (len(x) + len(y)))
    assert mine.pvalue == pytest.approx(float(kstwobign.sf(en * mine.statistic)), abs=1e-12)


def test_statistic_handles_ties():
    x = np.array([0.0, 0.0, 1.0, 2.0])
    y = np.array([0.0, 1.0, 1.0, 2.0])
    # ECDFs: at 0 -> .5 vs .25, at 1 -> .75 vs .75, at 2 -> 1 vs 1
    assert ks_statistic(x, y) == pytest.approx(0.25, abs=1e-15)


def test_identical_samples_have_zero_distance():
    x = np.linspace(-3, 3, 500)
    result = ks_two_sample(x, x.copy())
    assert result.statistic == 0.0
    assert result.pvalue == 1.0


def test_rejects_separated_samples():
    rng = np.random.default_rng(5)
    x = rng.normal(size=20_000)
    y = rng.normal(0.1, 1.0, size=20_000)
    assert ks_two_sample(x, y).pvalue < 1e-6


def test_does_not_reject_equal_distributions():
    rng = np.random.default_rng(6)
    x = rng.logistic(size=50_000)
    y = rng.logistic(size=50_000)
    assert ks_two_sample(x, y).pvalue >= 0.01


def test_empty_sample_rejected():
    with pytest.raises(DomainError):
        ks_statistic(np.array([]), np.array([1.0]))
    with pytest.raises(DomainError):
        ks_statistic(np.array([1.0, 2.0]), np.array([]))


def _ks_reference(x, y):
    """The double-searchsorted KS statistic that ks_statistic must equal bit for bit."""
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def _ks_cases():
    rng = np.random.default_rng(23)
    wide_tie = np.concatenate([np.zeros(20_000), rng.logistic(size=3_000)])
    nan_x = rng.logistic(size=5_000)
    nan_x[::7] = np.nan
    inf_y = rng.logistic(size=4_000)
    inf_y[:50] = np.inf
    inf_y[50:90] = -np.inf
    same = rng.logistic(size=9_000)
    return {
        "unequal sizes": (rng.logistic(size=20_000), rng.normal(0.0, 1.8, size=13_001)),
        "gof sizes": (rng.logistic(size=10_000), rng.logistic(size=19_998)),
        "rounded": (np.round(rng.logistic(size=30_000), 1), np.round(rng.normal(size=25_000), 1)),
        "few values": (rng.integers(0, 4, size=9_000) * 1.0, rng.integers(0, 5, size=7_000) * 1.0),
        "tie group wider than a scan step": (wide_tie, rng.logistic(size=8_000)),
        "one each": (np.array([0.5]), np.array([-0.5])),
        "one element left": (np.array([0.0]), rng.logistic(size=1_000)),
        "one element right": (rng.logistic(size=1_000), np.array([0.0])),
        "identical": (same, same.copy()),
        "disjoint": (rng.uniform(0, 1, size=3_000), rng.uniform(2, 3, size=4_000)),
        "interleaved disjoint": (np.arange(0, 20_000, 2.0), np.arange(1, 20_001, 2.0)),
        "nan and inf": (nan_x, inf_y),
        "all nan": (np.full(3, np.nan), np.array([1.0, np.nan])),
        "integers": (np.arange(100), np.arange(50, 150)),
    }


@pytest.mark.parametrize("case", sorted(_ks_cases()))
def test_statistic_equals_searchsorted_reference(case):
    x, y = _ks_cases()[case]
    assert ks_statistic(x, y) == _ks_reference(x, y)
    assert ks_statistic(y, x) == _ks_reference(y, x)


def test_cvm_wrapper():
    rng = np.random.default_rng(8)
    x = rng.normal(size=4000)
    y = rng.normal(size=4000)
    result = cvm_two_sample(x, y)
    assert result.statistic >= 0.0
    assert 0.0 <= result.pvalue <= 1.0
    shifted = cvm_two_sample(x, x + 0.5)
    assert shifted.pvalue < 1e-4

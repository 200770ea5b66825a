"""Identity catalog structure, exact CF equality, and the verification pipeline."""

import json
import math

import numpy as np
import pytest

from logshift import (
    DomainError,
    Exponential,
    IdentitySpec,
    Laplace,
    Logistic,
    Normal,
    OrderStatistic,
    RngStream,
    ShiftExpression,
    ShiftTerm,
    UnsupportedParentError,
    VerificationConfig,
    VerificationReport,
    catalog,
    ks_two_sample,
    lemma1i,
    lemma1ii,
    logistic_cf,
    maxexp,
    median,
    parse_identity,
    theorem1,
    verify,
)
from logshift.cli import _family_verdict
from logshift.identities import combine_verdicts

VARIANCE_MATCHED_NORMAL = Normal(0.0, math.pi / math.sqrt(3.0))


def sample_with_laplace_quantiles(expr, rng, count):
    """Reference sampler: each two-sided term by the Laplace quantile, not a difference."""
    out = expr.base.sample(rng.substream(0), count)
    for i, term in enumerate(expr.shifts):
        stream = rng.substream(i + 1)
        if term.kind == "exponential":
            draw = Exponential(rate=term.weight).sample(stream, count)
        else:
            draw = Laplace(index=term.weight).sample(stream, count)
        out = out + term.sign * draw
    return out


class TestCatalogStructure:
    def test_adjacent_pair_layout(self):
        ident = theorem1(1, 2, 4)
        assert ident.label == "theorem1:r=1,k1=2,n=4"
        assert ident.lhs.base == OrderStatistic(Logistic(), 4, 3)
        assert ident.lhs.shifts == (ShiftTerm(-1, 2),)
        assert ident.rhs.base == OrderStatistic(Logistic(), 4, 2)
        assert ident.rhs.shifts == (ShiftTerm(+1, 2),)

    def test_three_spacings_weights(self):
        ident = theorem1(3, 1, 5)
        assert [t.weight for t in ident.lhs.shifts] == [1, 2, 3]
        assert all(t.sign == -1 for t in ident.lhs.shifts)
        assert [t.weight for t in ident.rhs.shifts] == [4, 3, 2]
        assert all(t.sign == +1 for t in ident.rhs.shifts)

    def test_decomposition_with_empty_second_sum(self):
        ident = lemma1ii(1, 3)
        assert ident.lhs.base.n == 1
        assert ident.rhs.shifts == (ShiftTerm(+1, 1), ShiftTerm(+1, 2))

    def test_decomposition_with_both_sums(self):
        ident = lemma1ii(3, 5)
        plus = [t.weight for t in ident.rhs.shifts if t.sign > 0]
        minus = [t.weight for t in ident.rhs.shifts if t.sign < 0]
        assert plus == [1, 2]
        assert minus == [1, 2]

    def test_median_uses_two_sided_terms(self):
        ident = median(2)
        assert ident.rhs.base == OrderStatistic(Logistic(), 3, 2)
        assert ident.rhs.shifts == (ShiftTerm(+1, 1, kind="laplace"),)

    def test_max_exponential_layout(self):
        ident = maxexp(4)
        assert ident.lhs.base == OrderStatistic(Exponential(1.0), 4, 4)
        assert [t.weight for t in ident.rhs.shifts] == [2, 3, 4]

    def test_catalog_count_and_uniqueness(self):
        cat = catalog(6)
        assert len(cat) == 95
        assert len({ident.label for ident in cat}) == 95

    def test_catalog_families(self):
        families = {ident.family for ident in catalog(6)}
        assert families == {"theorem1", "lemma1i", "lemma1ii", "median", "maxexp"}

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            theorem1(4, 1, 6)
        with pytest.raises(DomainError):
            theorem1(2, 4, 5)  # k > n - r
        with pytest.raises(DomainError):
            lemma1i(3, 3, 5)
        with pytest.raises(DomainError):
            lemma1ii(4, 3)
        with pytest.raises(DomainError):
            median(1)
        with pytest.raises(DomainError):
            maxexp(0)


class TestSelectors:
    def test_round_trip_through_labels(self):
        for ident in catalog(5):
            specs, level = parse_identity(ident.label)
            assert len(specs) == 1
            assert specs[0].label == ident.label
            assert specs[0] == ident

    def test_multi_k_expansion(self):
        specs, level = parse_identity("theorem1:r=2,k1=1,k2=2,n=5")
        assert [s.label for s in specs] == ["theorem1:r=2,k1=1,n=5", "theorem1:r=2,k1=2,n=5"]
        assert level is True

    def test_single_k_for_wide_spacing_is_exploratory(self):
        specs, level = parse_identity("theorem1:r=2,k1=1,n=5")
        assert len(specs) == 1
        assert level is False

    def test_adjacent_single_k_is_characterization_level(self):
        _, level = parse_identity("theorem1:r=1,k1=1,n=3")
        assert level is True

    def test_parent_propagates(self):
        specs, _ = parse_identity("lemma1ii:k=2,n=3", VARIANCE_MATCHED_NORMAL)
        assert specs[0].parent == VARIANCE_MATCHED_NORMAL

    def test_selector_errors(self):
        for bad in (
            "unknown:n=3",
            "theorem1:r=1,n=3",            # missing k1
            "theorem1:r=1,k1=1,k2=1,n=3",  # duplicate k
            "lemma1i:k=2,m=2,n=4",
            "median:k=x",
            "median:q=3",
            "maxexp:n=3,k=1",
        ):
            with pytest.raises(DomainError):
                parse_identity(bad)


class TestExactCFEquality:
    def test_whole_catalog_under_logistic_parent(self):
        grid = np.linspace(-5.0, 5.0, 41)
        for ident in catalog(6):
            diff = np.max(np.abs(ident.lhs.cf(grid) - ident.rhs.cf(grid)))
            assert diff <= 1e-12, ident.label

    def test_adjacent_case_at_a_point(self):
        ident = lemma1i(1, 2, 2)
        assert abs(ident.lhs.cf(1.0) - ident.rhs.cf(1.0)) <= 1e-14

    def test_decomposition_side_collapses_to_parent_cf(self):
        ident = lemma1ii(2, 3)
        for t in (0.5, 1.0, 2.0):
            assert abs(ident.rhs.cf(t) - logistic_cf(t)) <= 1e-13
            assert abs(ident.lhs.cf(t) - logistic_cf(t)) <= 1e-15

    def test_location_shifted_parent_still_exact(self):
        ident = lemma1i(1, 3, 4, Logistic(mu=2.5))
        grid = np.linspace(-5, 5, 21)
        assert np.max(np.abs(ident.lhs.cf(grid) - ident.rhs.cf(grid))) <= 1e-12

    def test_unsupported_parent_raises(self):
        ident = theorem1(1, 1, 3, VARIANCE_MATCHED_NORMAL)
        with pytest.raises(UnsupportedParentError):
            ident.lhs.cf(1.0)


class TestSampling:
    def test_zero_shift_expression_matches_order_stat(self):
        expr = ShiftExpression(OrderStatistic(Logistic(), 4, 2))
        a = expr.sample(RngStream(71).substream(0), 100_000)
        b = OrderStatistic(Logistic(), 4, 2).sample(RngStream(71).substream(1), 100_000)
        assert ks_two_sample(a, b).pvalue >= 0.01

    def test_max_exponential_sides_agree(self):
        ident = maxexp(4)
        lhs = ident.lhs.sample(RngStream(81).substream(0), 100_000)
        rhs = ident.rhs.sample(RngStream(81).substream(1), 100_000)
        assert ks_two_sample(lhs, rhs).pvalue >= 0.01

    def test_two_spacing_sides_agree(self):
        ident = theorem1(2, 1, 4)
        lhs = ident.lhs.sample(RngStream(91).substream(0), 100_000)
        rhs = ident.rhs.sample(RngStream(91).substream(1), 100_000)
        assert ks_two_sample(lhs, rhs).pvalue >= 0.01

    def test_laplace_routes_agree(self):
        ident = median(2)
        direct = sample_with_laplace_quantiles(ident.rhs, RngStream(101).substream(0), 100_000)
        differenced = ident.rhs.sample(RngStream(101).substream(1), 100_000)
        assert ks_two_sample(direct, differenced).pvalue >= 0.01

    def test_sampling_deterministic(self):
        expr = lemma1ii(2, 4).rhs
        a = expr.sample(RngStream(111), 1000)
        b = expr.sample(RngStream(111), 1000)
        assert np.array_equal(a, b)


class TestVerify:
    def test_consistent_for_logistic_identity(self):
        report = verify(lemma1i(2, 4, 5), VerificationConfig(sample_size=50_000, seed=42))
        assert report.verdict == "consistent"
        assert report.cf_max_abs_diff is not None
        assert report.cf_max_abs_diff <= 1e-12
        assert report.ks_p_value >= 0.01

    def test_negative_control_rejects(self):
        report = verify(
            theorem1(1, 1, 3, VARIANCE_MATCHED_NORMAL),
            VerificationConfig(sample_size=100_000, seed=1),
        )
        assert report.verdict == "rejected"
        assert report.cf_max_abs_diff is None
        assert report.ks_p_value < 0.01

    def test_structurally_equal_sides_consistent(self):
        parent = Logistic()
        expr = ShiftExpression(OrderStatistic(parent, 3, 2), (ShiftTerm(+1, 2),))
        ident_like = lemma1i(1, 2, 3)
        same = type(ident_like)(
            family="lemma1i", label="custom", lhs=expr, rhs=expr, n=3, k=2
        )
        report = verify(same, VerificationConfig(sample_size=50_000, seed=3))
        assert report.verdict == "consistent"
        assert report.ks_statistic <= 0.02

    def test_deterministic_reports(self):
        config = VerificationConfig(sample_size=20_000, seed=77)
        a = verify(median(3), config)
        b = verify(median(3), config)
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_exponential_parent_has_exact_branch(self):
        report = verify(maxexp(5), VerificationConfig(sample_size=20_000, seed=5))
        assert report.cf_max_abs_diff is not None
        assert report.verdict == "consistent"

    def test_config_validation(self):
        with pytest.raises(DomainError):
            VerificationConfig(sample_size=5000)
        with pytest.raises(DomainError):
            VerificationConfig(alpha=0.0)
        with pytest.raises(DomainError):
            VerificationConfig(t_min=3.0, t_max=-3.0)
        with pytest.raises(DomainError):
            VerificationConfig(statistic="anderson")

    def test_cvm_statistic_available(self):
        report = verify(
            lemma1i(1, 2, 3),
            VerificationConfig(sample_size=20_000, seed=9, statistic="cvm"),
        )
        assert report.verdict == "consistent"

    def test_wrong_rhs_rejected_through_exact_route(self):
        # lemma1i:k=2,m=4,n=5 with the rhs's last shift term dropped
        true = lemma1i(2, 4, 5)
        broken_rhs = ShiftExpression(true.rhs.base, true.rhs.shifts[:-1])
        wrong = IdentitySpec("lemma1i", "wrong", true.lhs, broken_rhs, n=5, k=2, m=4)
        report = verify(wrong, VerificationConfig(sample_size=10_000, seed=0))
        assert report.cf_max_abs_diff > report.cf_threshold
        assert report.verdict == "rejected"

    def test_mismatched_parents_rejected(self):
        lhs = ShiftExpression(OrderStatistic(Logistic(), 2, 1))
        rhs = ShiftExpression(OrderStatistic(Exponential(1.0), 2, 1))
        with pytest.raises(DomainError):
            IdentitySpec("lemma1i", "bad", lhs, rhs, n=2)

    def test_laplace_shift_term_validation(self):
        with pytest.raises(DomainError):
            ShiftTerm(0, 1)
        with pytest.raises(DomainError):
            ShiftTerm(1, 0)
        with pytest.raises(DomainError):
            ShiftTerm(1, 1, kind="gamma")



# (exact route ok, Monte Carlo route ok, verdict); None means no exact route
VERDICT_TABLE = [
    (None, True, "consistent"),
    (None, False, "rejected"),
    (True, True, "consistent"),
    (True, False, "inconclusive"),
    (False, True, "inconclusive"),
    (False, False, "rejected"),
]


@pytest.mark.parametrize("exact_ok,mc_ok,expected", VERDICT_TABLE)
def test_verdict_rule_table(exact_ok, mc_ok, expected):
    assert combine_verdicts(exact_ok, mc_ok) == expected


@pytest.mark.parametrize("exact_ok,mc_ok,expected", VERDICT_TABLE)
def test_family_verdict_table(exact_ok, mc_ok, expected):
    # two reports at alpha 0.01: the Bonferroni level is 0.005
    cf_gaps = {None: (None, None), True: (0.0, 1e-13), False: (0.0, 0.5)}[exact_ok]
    p_values = (0.5, 0.2) if mc_ok else (0.5, 0.001)
    reports = [
        VerificationReport(lemma1i(1, 2, 3), gap, 1e-12, 0.01, p, 10_000, 0, "unused")
        for gap, p in zip(cf_gaps, p_values)
    ]
    family = _family_verdict(reports, 0.01)
    assert family["bonferroni_alpha"] == 0.005
    assert family["verdict"] == expected

"""Oracle tests: brute-force agreement, finite differences, gradcheck reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloss import (
    DistanceKind,
    DistanceSpec,
    FilterMode,
    FilterSpec,
    GradientForm,
    LossConfig,
    PairBudget,
    ValidationError,
    brute_force_loss,
    compute_ranks,
    evaluate_loss,
    evaluate_with_gradient,
    finite_difference_gradient,
    gradient_check,
    gradient_error_driven,
)

from conftest import make_set, nondegenerate_set, random_score_set

CE8 = LossConfig()


def grid_configs():
    for kind in (DistanceKind.STEP, DistanceKind.SIGMOID, DistanceKind.CE_SIGMOID):
        for mode in (FilterMode.RANK_SUM, FilterMode.VALID_NEG_COUNT):
            for q in (None, 5):
                yield LossConfig(
                    distance=DistanceSpec(kind=kind, delta=0.5, lam=8.0),
                    pair_filter=FilterSpec(mode=mode, threshold=0.25),
                    budget=PairBudget(q),
                )


class TestBruteForce:
    def test_matches_main_path_across_grid(self):
        rng = np.random.default_rng(41)
        for config in grid_configs():
            for _ in range(4):
                ss = random_score_set(rng, int(rng.integers(2, 60)))
                mine = evaluate_loss(ss, config)
                ref = brute_force_loss(ss, config)
                assert ref.total_loss == pytest.approx(mine.total_loss, rel=1e-12, abs=1e-300)
                for u, loss in mine.per_anchor_loss.items():
                    assert ref.per_anchor_loss[u] == pytest.approx(loss, rel=1e-12, abs=1e-300)
                if config.distance.is_smooth:
                    grad = gradient_error_driven(ss, config).gradient
                    np.testing.assert_allclose(ref.gradient, grad, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("kind", [DistanceKind.SIGMOID, DistanceKind.CE_SIGMOID])
    @pytest.mark.parametrize("delta", [0.25, 1.0])
    def test_delta_smooths_the_ranks_of_smooth_distances(self, kind, delta):
        rng = np.random.default_rng(43)
        config = LossConfig(distance=DistanceSpec(kind=kind, delta=delta))
        for _ in range(4):
            ss = random_score_set(rng, int(rng.integers(10, 60)))
            mine = evaluate_loss(ss, config)
            ref = brute_force_loss(ss, config)
            assert ref.total_loss == pytest.approx(mine.total_loss, rel=1e-12, abs=1e-300)
            grad = gradient_error_driven(ss, config).gradient
            np.testing.assert_allclose(ref.gradient, grad, rtol=1e-12, atol=1e-300)
            for s in mine.stats:
                plus, minus = compute_ranks(ss, s.anchor_index, delta)
                assert (s.rank_plus, s.rank_minus) == (plus, minus)

    def test_no_gradient_for_step_distance(self):
        config = LossConfig(distance=DistanceSpec(kind=DistanceKind.STEP, delta=0.5))
        ref = brute_force_loss(make_set([0.5, 0.5], [1, 0]), config)
        assert ref.gradient is None

    def test_empty_negative_set(self):
        ref = brute_force_loss(make_set([0.3, 0.8], [1, 1]), CE8)
        assert ref.total_loss == 0.0

    def test_wide_margin_filter_skips_everything(self):
        ss = make_set([0.8, 0.9, 0.7], [1, 0, 0])
        config = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT, threshold=0.5))
        ref = brute_force_loss(ss, config)
        assert ref.total_loss == 0.0
        assert all(v == 0.0 for v in ref.per_anchor_loss.values())
        assert all(g == 0.0 for g in ref.gradient)

    def test_size_guard(self):
        big = make_set(np.zeros(2001), np.zeros(2001, dtype=np.int64))
        with pytest.raises(ValidationError):
            brute_force_loss(big, CE8)

    def test_sigmoid_tails_match_per_pair(self):
        # one anchor, negatives placed so that lam * x sweeps every double sigmoid value, 1e-323 to 1
        xs = np.concatenate([np.linspace(-0.745, 0.745, 1491), np.linspace(-0.04, 0.04, 401)])
        ss = make_set(np.concatenate([[0.0], xs]), [1] + [0] * xs.size)
        config = LossConfig(distance=DistanceSpec(lam=1e3), reduction="sum")
        ref = brute_force_loss(ss, config)
        np.testing.assert_allclose(ref.gradient, gradient_error_driven(ss, config).gradient, rtol=1e-12, atol=1e-300)
        assert ref.total_loss == pytest.approx(evaluate_loss(ss, config).total_loss, rel=1e-12)

    @pytest.mark.parametrize("mode", ["ranksum", "negcount"])
    def test_overflowing_ce_term_agrees(self, mode):
        # lam * x = 2.4e308 overflows, but the pair's cross-entropy is x = 3e307
        ss = make_set([-1.5e307, 1.5e307], [1, 0])
        config = LossConfig(pair_filter=FilterSpec(mode=mode))
        mine = evaluate_with_gradient(ss, config).total_loss
        assert np.isfinite(mine)
        assert brute_force_loss(ss, config).total_loss == mine


# grid levels sit on ramp kinks and the threshold; a spread of 0.25 takes lambda = 1e3 deep into the tails
score_levels = st.sampled_from([-2.0, -0.5, -0.25, 0.0, 0.25, 0.5, 2.0]) | st.floats(-2.0, 2.0)


@st.composite
def tied_score_sets(draw):
    """Up to 12 scores on at most 3 levels around an offset up to 1e6, with any label mix."""
    n = draw(st.integers(1, 12))
    offset = draw(st.floats(-1e6, 1e6))
    levels = draw(st.lists(score_levels, min_size=2, max_size=3))
    scores = [offset + level for level in draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))]
    labels = draw(
        st.one_of(
            st.lists(st.sampled_from([1, 0, -1]), min_size=n, max_size=n),
            st.sampled_from([1, 0, -1]).map(lambda label: [label] * n),
        )
    )
    return make_set(scores, labels)


# lambda from 1e-3 to 1e3, log-uniform, with the two ends drawn often
lambdas = st.sampled_from([1e-3, 1e3]) | st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def property_configs(draw):
    return LossConfig(
        distance=DistanceSpec(kind=draw(st.sampled_from(list(DistanceKind))), lam=draw(lambdas)),
        pair_filter=FilterSpec(
            mode=draw(st.sampled_from(list(FilterMode))),
            threshold=draw(st.sampled_from([0.0, 0.25])),
            filter_numerator=draw(st.booleans()),
        ),
        budget=PairBudget(draw(st.sampled_from([None, 1, 3]))),
    )


class TestBruteForceProperties:
    @settings(max_examples=100, deadline=None)
    @given(ss=tied_score_sets(), config=property_configs())
    def test_loss_and_gradient_match_at_1e12(self, ss, config):
        mine = evaluate_loss(ss, config)
        ref = brute_force_loss(ss, config)
        assert ref.total_loss == pytest.approx(mine.total_loss, rel=1e-12, abs=1e-300)
        assert ref.per_anchor_loss.keys() == mine.per_anchor_loss.keys()
        for u, loss in mine.per_anchor_loss.items():
            assert ref.per_anchor_loss[u] == pytest.approx(loss, rel=1e-12, abs=1e-300)
        if config.distance.is_smooth:
            grad = gradient_error_driven(ss, config).gradient
            np.testing.assert_allclose(ref.gradient, grad, rtol=1e-12, atol=1e-300)


class TestFiniteDifferences:
    def test_equal_pair_matches_analytic_example(self):
        fd = finite_difference_gradient(make_set([0.5, 0.5], [1, 0]), CE8)
        assert fd[0] == pytest.approx(-1.0 / 3.0, abs=1e-6)
        assert fd[1] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_ignore_coordinate_is_zero(self):
        ss = make_set([0.5, 0.5, 0.9], [1, 0, -1])
        fd = finite_difference_gradient(ss, CE8)
        assert fd[2] == 0.0

    def test_epsilon_range_enforced(self):
        ss = make_set([0.5, 0.5], [1, 0])
        for epsilon in (1.0, 1e-2, 1e-10, 0.0, float("nan")):
            with pytest.raises(ValidationError):
                finite_difference_gradient(ss, CE8, epsilon)

    def test_step_distance_rejected(self):
        config = LossConfig(distance=DistanceSpec(kind=DistanceKind.STEP, delta=0.5))
        with pytest.raises(ValidationError):
            finite_difference_gradient(make_set([0.5, 0.5], [1, 0]), config)

    def test_detached_balance_constants(self):
        """The probe loss must move only through the pair terms: an anchor
        whose balance constant would change under perturbation still gets
        the frozen value, matching the analytic gradient."""
        rng = np.random.default_rng(42)
        ss = nondegenerate_set(rng, 4, 9)
        analytic = gradient_error_driven(ss, CE8).gradient
        fd = finite_difference_gradient(ss, CE8, 1e-6)
        np.testing.assert_allclose(fd, analytic, rtol=2e-5, atol=1e-9)


class TestGradientCheck:
    def test_random_instance_passes_default_tolerance(self):
        rng = np.random.default_rng(43)
        ss = nondegenerate_set(rng, 10, 20)
        report = gradient_check(ss, CE8)
        assert report.passed
        assert report.max_rel_error < 1e-5
        assert 0 <= report.worst_index < len(ss)

    def test_both_gradient_forms_check_out(self):
        rng = np.random.default_rng(44)
        ss = nondegenerate_set(rng, 6, 12)
        for form in (GradientForm.ERROR_DRIVEN, GradientForm.AUTODIFF_CE):
            report = gradient_check(ss, LossConfig(gradient_form=form))
            assert report.passed

    def test_negcount_mode_checks_out(self):
        rng = np.random.default_rng(45)
        ss = nondegenerate_set(rng, 6, 12)
        config = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT, threshold=0.25))
        report = gradient_check(ss, config)
        assert report.passed

    def test_passed_is_consistent_with_tolerance(self):
        rng = np.random.default_rng(46)
        ss = nondegenerate_set(rng, 4, 8)
        report = gradient_check(ss, CE8)
        tight = gradient_check(ss, CE8, tolerance=report.max_rel_error / 2 or 1e-18)
        assert report.passed == (report.max_rel_error <= report.tolerance)
        assert not tight.passed

    def test_wrong_gradient_is_caught(self):
        """Sanity check that the checker can fail: a corrupted epsilon big
        enough to shift the difference quotient flags a mismatch."""
        ss = make_set([0.5, 0.45, 0.55], [1, 0, 0])
        report = gradient_check(ss, CE8, epsilon=1e-3, tolerance=1e-12)
        assert not report.passed

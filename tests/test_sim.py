"""Generator, ranking AP, and training-loop tests."""

import math

import numpy as np
import pytest

from pairloss import (
    DistanceSpec,
    DivergenceError,
    FilterSpec,
    GeneratorSpec,
    LossConfig,
    UndefinedMetricError,
    ValidationError,
    descend_scores,
    generate_scores,
    ranking_ap,
    simulate_training,
)
from pairloss import sim

from conftest import assert_compares_by_identity, make_set

CE8 = LossConfig()

# ranking_ap(generate_scores(GeneratorSpec(seed=0))), frozen as the
# regression baseline for the default 50/500 instance
BASELINE_AP_SEED0 = 0.7167614770333541


class TestGeneratorSpec:
    def test_defaults_are_the_reference_instance(self):
        spec = GeneratorSpec()
        assert (spec.n_pos, spec.n_neg) == (50, 500)
        assert (spec.pos_mean, spec.pos_std) == (0.6, 0.1)
        assert (spec.neg_mean, spec.neg_std) == (0.4, 0.1)

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(n_pos=-1)
        with pytest.raises(ValidationError):
            GeneratorSpec(pos_std=-0.1)
        with pytest.raises(ValidationError):
            GeneratorSpec(clamp=(1.0, 0.0))
        with pytest.raises(ValidationError):
            GeneratorSpec(seed=-1)
        with pytest.raises(ValidationError):
            GeneratorSpec(neg_mean=float("inf"))


class TestIntegersTooLargeForADouble:
    @pytest.mark.parametrize(
        ("build", "field"),
        [
            (lambda: DistanceSpec(lam=10**400), "lam"),
            (lambda: FilterSpec(threshold=10**400), "threshold"),
            (lambda: DistanceSpec(delta=10**400), "delta"),
            (lambda: GeneratorSpec(pos_mean=10**400), "pos_mean"),
            (lambda: GeneratorSpec(clamp=(0, 10**400)), "clamp"),
            (lambda: descend_scores(make_set([0.5, 0.4], [1, 0]), CE8, 1, 10**400), "learning_rate"),
        ],
    )
    def test_validation_error_names_the_field(self, build, field):
        with pytest.raises(ValidationError, match=f"^{field} is too large for a double$"):
            build()

    def test_unused_distance_parameter_may_still_be_infinite(self):
        assert DistanceSpec(kind="step", lam=float("inf")).lam == float("inf")


class TestGenerateScores:
    def test_same_seed_identical(self):
        a = generate_scores(GeneratorSpec(seed=123))
        b = generate_scores(GeneratorSpec(seed=123))
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize(("n_pos", "n_neg"), [(10**15, 0), (1, 10**15), (10**19, 10**19)])
    def test_sizes_beyond_memory_are_validation_errors(self, n_pos, n_neg):
        # numpy refuses these sizes before allocating anything
        with pytest.raises(ValidationError, match=rf"^n_pos \+ n_neg = {n_pos + n_neg} "):
            generate_scores(GeneratorSpec(n_pos=n_pos, n_neg=n_neg))

    def test_different_seed_differs(self):
        a = generate_scores(GeneratorSpec(seed=1))
        b = generate_scores(GeneratorSpec(seed=2))
        assert not np.array_equal(a.scores, b.scores)

    def test_label_blocks(self):
        ss = generate_scores(GeneratorSpec(seed=0, n_pos=3, n_neg=5))
        assert ss.labels.tolist() == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_all_negative_set(self):
        ss = generate_scores(GeneratorSpec(seed=0, n_pos=0, n_neg=4))
        assert ss.positive_indices.size == 0
        assert len(ss) == 4

    def test_clamp(self):
        ss = generate_scores(GeneratorSpec(seed=5, clamp=(0.0, 1.0)))
        assert float(ss.scores.min()) >= 0.0
        assert float(ss.scores.max()) <= 1.0

    def test_zero_std_is_deterministic_means(self):
        ss = generate_scores(GeneratorSpec(seed=9, n_pos=2, n_neg=2, pos_std=0.0, neg_std=0.0))
        assert ss.scores.tolist() == [0.6, 0.6, 0.4, 0.4]

    def test_baseline_ap_regression(self):
        assert ranking_ap(generate_scores(GeneratorSpec(seed=0))) == BASELINE_AP_SEED0


class TestRankingAp:
    def test_perfect_separation(self):
        assert ranking_ap(make_set([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])) == 1.0

    def test_single_positive_below_single_negative(self):
        assert ranking_ap(make_set([0.1, 0.9], [1, 0])) == 0.5

    def test_two_positives_ranks_one_and_three(self):
        # precision 1/1 at rank 1 and 2/3 at rank 3
        ss = make_set([0.9, 0.7, 0.5, 0.3], [1, 0, 1, 0])
        assert ranking_ap(ss) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-15)

    def test_no_positives_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            ranking_ap(make_set([0.5, 0.4], [0, 0]))

    def test_ignores_are_excluded(self):
        with_ignores = make_set([0.9, 0.95, 0.2], [1, -1, 0])
        without = make_set([0.9, 0.2], [1, 0])
        assert ranking_ap(with_ignores) == ranking_ap(without) == 1.0

    def test_ties_ranked_by_ascending_index(self):
        # tie at 0.5: index 0 (positive) ranks above index 1 (negative)
        assert ranking_ap(make_set([0.5, 0.5], [1, 0])) == 1.0
        assert ranking_ap(make_set([0.5, 0.5], [0, 1])) == 0.5

    def test_one_iff_strictly_separated(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            labels = rng.choice([1, 0], size=n)
            if not (labels == 1).any():
                labels[0] = 1
            scores = rng.choice(np.linspace(0, 1, 7), size=n)  # force frequent ties
            ss = make_set(scores, labels)
            pos = ss.scores[ss.positive_indices]
            neg = ss.scores[ss.negative_indices]
            separated = neg.size == 0 or float(pos.min()) > float(neg.max())
            if separated:
                assert ranking_ap(ss) == 1.0
            # ties at the boundary can still rank all positives first,
            # so the converse is only checked for strictly separated inputs


class TestSimulateTraining:
    def test_trajectories_compare_and_hash_by_identity(self):
        spec = GeneratorSpec(seed=2, n_pos=3, n_neg=9)
        assert_compares_by_identity(simulate_training(spec, CE8, 2, 0.5), simulate_training(spec, CE8, 2, 0.5))

    def test_record_count(self):
        traj = simulate_training(GeneratorSpec(seed=2, n_pos=3, n_neg=9), CE8, 7, 0.5)
        assert len(traj.records) == 8
        assert [r.step for r in traj.records] == list(range(8))

    def test_zero_learning_rate_is_flat(self):
        traj = simulate_training(GeneratorSpec(seed=2, n_pos=3, n_neg=9), CE8, 5, 0.0)
        losses = {r.total_loss for r in traj.records}
        aps = {r.ranking_ap for r in traj.records}
        assert len(losses) == 1 and len(aps) == 1

    def test_separable_toy_sign_discipline(self):
        """One positive at 0.4 under one negative at 0.6: every update must
        push the positive strictly up and the negative strictly down."""
        spec = GeneratorSpec(seed=0, n_pos=1, n_neg=1, pos_mean=0.4, pos_std=0.0, neg_mean=0.6, neg_std=0.0)
        current = generate_scores(spec)
        assert current.scores.tolist() == [0.4, 0.6]
        traj = descend_scores(current, CE8, 50, 0.1)
        pos_path = [current.scores[0]]
        # replay to observe per-step scores
        replay = current
        for _ in range(50):
            from pairloss import gradient_error_driven

            grad = gradient_error_driven(replay, CE8).gradient
            new = replay.scores - 0.1 * grad
            assert new[0] > replay.scores[0]
            assert new[1] < replay.scores[1]
            replay = replay.with_scores(new)
        assert traj.final_loss < traj.initial_loss
        np.testing.assert_array_equal(traj.final.scores, replay.scores)

    def test_bit_reproducible(self):
        a = simulate_training(GeneratorSpec(seed=77, n_pos=5, n_neg=25), CE8, 20, 1.0)
        b = simulate_training(GeneratorSpec(seed=77, n_pos=5, n_neg=25), CE8, 20, 1.0)
        assert a.records == b.records
        np.testing.assert_array_equal(a.final.scores, b.final.scores)

    def test_ap_stability_once_improving(self):
        """After the loss first drops below its initial value, AP may wobble
        but never by more than 0.02 between consecutive steps."""
        traj = simulate_training(GeneratorSpec(seed=0, n_pos=10, n_neg=100), CE8, 120, 1.0)
        initial = traj.initial_loss
        improving = False
        for prev, cur in zip(traj.records, traj.records[1:]):
            improving = improving or prev.total_loss < initial
            if improving:
                assert cur.ranking_ap >= prev.ranking_ap - 0.02

    def test_divergence_guard(self):
        # scores near the largest double: one step of lr=1e308 pushes the positive past it
        blown = make_set([1.7e308, 1.75e308], [1, 0])
        with pytest.raises(DivergenceError, match="scores became non-finite at step 1"):
            descend_scores(blown, CE8, 1, 1e308)

    def test_divergence_names_step_index_and_value(self):
        # sum reduction: three anchors each push the lone negative (index 2) by about 1,
        # so a 1e308 step overflows it to -inf while the positives stay finite
        ss = make_set([0.0, 0.1, 2.0, 0.2], [1, 1, 0, 1])
        config = LossConfig(pair_filter=FilterSpec(mode="negcount"), reduction="sum")
        with pytest.raises(DivergenceError) as info:
            descend_scores(ss, config, 3, 1e308)
        message = str(info.value)
        assert "step 1" in message
        assert "index 2 is -inf" in message

    def test_overflowing_difference_after_an_update_is_a_divergence(self):
        # sum reduction: step 1 moves the positives to about 1.09e308 and the negative to
        # about -7.3e307, all finite, but their difference overflows a double
        ss = make_set([1e308] * 20 + [1.01e308], [1] * 20 + [0])
        with pytest.raises(DivergenceError) as info:
            descend_scores(ss, LossConfig(reduction="sum"), 3, 1e308)
        assert str(info.value) == (
            "loss evaluation failed at step 1: a score difference of anchor 0 overflows a double; "
            "score differences must be finite"
        )
        assert isinstance(info.value.__cause__, ValidationError)

    def test_non_finite_scores_carry_step_index_and_value(self):
        ss = make_set([0.0, 0.1, 2.0, 0.2], [1, 1, 0, 1])
        config = LossConfig(pair_filter=FilterSpec(mode="negcount"), reduction="sum")
        with pytest.raises(DivergenceError) as info:
            descend_scores(ss, config, 3, 1e308)
        assert (info.value.step, info.value.index, info.value.value) == (1, 2, -math.inf)

    def test_failed_evaluation_carries_its_step_alone(self):
        ss = make_set([1e308] * 20 + [1.01e308], [1] * 20 + [0])
        with pytest.raises(DivergenceError) as info:
            descend_scores(ss, LossConfig(reduction="sum"), 3, 1e308)
        assert (info.value.step, info.value.index, info.value.value) == (1, None, None)

    def test_overflowing_difference_at_step_0_is_a_bad_input(self):
        ss = make_set([1e308, -1e308], [1, 0])
        with pytest.raises(ValidationError, match="a score difference of anchor 0 overflows"):
            descend_scores(ss, CE8, 3, 1.0)

    def test_numpy_integer_steps(self):
        ss = generate_scores(GeneratorSpec(seed=1, n_pos=2, n_neg=4))
        assert descend_scores(ss, CE8, np.int64(3), 1.0).records == descend_scores(ss, CE8, 3, 1.0).records

    def test_validation(self):
        spec = GeneratorSpec(seed=1, n_pos=2, n_neg=4)
        with pytest.raises(ValidationError):
            simulate_training(spec, CE8, 0, 0.1)
        with pytest.raises(ValidationError):
            simulate_training(spec, CE8, 5, -0.1)
        with pytest.raises(ValidationError):
            simulate_training(spec, CE8, 5, float("nan"))
        with pytest.raises(ValidationError):
            simulate_training(GeneratorSpec(seed=1, n_pos=0, n_neg=4), CE8, 5, 0.1)

    def test_arguments_are_checked_before_any_score_is_drawn(self, monkeypatch):
        def spy(spec):
            raise AssertionError("generate_scores ran before the arguments were checked")

        monkeypatch.setattr(sim, "generate_scores", spy)
        with pytest.raises(ValidationError, match="steps must be >= 1"):
            simulate_training(GeneratorSpec(n_neg=10**7), LossConfig(), 0, 1.0)

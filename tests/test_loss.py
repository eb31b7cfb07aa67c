"""Forward loss and gradient tests: spot values, invariants, both gradient forms."""

import importlib.util
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloss import (
    DistanceKind,
    DistanceSpec,
    FilterMode,
    FilterSpec,
    GeneratorSpec,
    GradientForm,
    Label,
    LossConfig,
    PairBudget,
    ScoreSet,
    ValidationError,
    brute_force_loss,
    ce_distance,
    compute_ranks,
    evaluate_loss,
    evaluate_with_gradient,
    generate_scores,
    gradient_autodiff_ce,
    gradient_error_driven,
    sigmoid_distance,
)
from pairloss import ranking
from pairloss.loss import _row_sums, _tree_sums

from conftest import make_set, random_score_set

# 40-digit evaluations, rounded to float64
EQUAL_PAIR_CE_LOSS = 0.05776226504666211  # (ln2/8) / 1.5
EQUAL_PAIR_SIGMOID_LOSS = 0.3333333333333333  # 0.5 / 1.5

CE8 = LossConfig()
SIGMOID8 = LossConfig(distance=DistanceSpec(kind=DistanceKind.SIGMOID, lam=8.0))
NEGCOUNT = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT, threshold=0.25))


def equal_pair():
    return make_set([0.5, 0.5], [1, 0])


class TestForward:
    def test_equal_pair_ce(self):
        result = evaluate_loss(equal_pair(), CE8)
        assert result.total_loss == pytest.approx(EQUAL_PAIR_CE_LOSS, rel=1e-12)
        assert result.per_anchor_loss == {0: pytest.approx(EQUAL_PAIR_CE_LOSS, rel=1e-12)}
        assert result.gradient is None
        assert not result.truncated
        assert not result.no_anchors

    def test_equal_pair_sigmoid(self):
        result = evaluate_loss(equal_pair(), SIGMOID8)
        assert result.total_loss == pytest.approx(EQUAL_PAIR_SIGMOID_LOSS, rel=1e-12)

    def test_no_negatives_is_zero(self):
        ss = make_set([0.2, 0.9], [1, 1])
        result = evaluate_loss(ss, CE8)
        assert result.total_loss == 0.0
        assert result.per_anchor_loss == {0: 0.0, 1: 0.0}

    def test_no_positives_flags_no_anchors(self):
        ss = make_set([0.2, 0.9], [0, 0])
        result = evaluate_loss(ss, CE8)
        assert result.no_anchors
        assert result.total_loss == 0.0
        assert result.stats == []

    def test_total_is_mean_of_per_anchor(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ss = random_score_set(rng, int(rng.integers(3, 60)))
            result = evaluate_loss(ss, CE8)
            n_pos = ss.positive_indices.size
            if n_pos == 0:
                continue
            expected = math.fsum(result.per_anchor_loss.values()) / n_pos
            assert result.total_loss == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_sum_reduction(self):
        config = LossConfig(reduction="sum")
        rng = np.random.default_rng(22)
        ss = random_score_set(rng, 40)
        result = evaluate_loss(ss, config)
        assert result.total_loss == pytest.approx(
            math.fsum(result.per_anchor_loss.values()), rel=1e-15, abs=1e-300
        )

    def test_stats_align_with_mode(self):
        rng = np.random.default_rng(23)
        for config in (CE8, NEGCOUNT):
            ss = random_score_set(rng, 50)
            result = evaluate_loss(ss, config)
            for s in result.stats:
                assert s.rank_plus >= 1.0
                if config.pair_filter.mode is FilterMode.RANK_SUM:
                    assert s.balance_constant == s.rank_plus + s.rank_minus
                elif s.n_neg == 0:
                    assert s.balance_constant is None
                    assert s.active_pairs == 0
                    assert result.per_anchor_loss[s.anchor_index] == 0.0
                else:
                    assert s.balance_constant == float(s.n_neg)


class TestGradientSpotValues:
    def test_equal_pair_both_forms(self):
        for fn in (gradient_error_driven, gradient_autodiff_ce):
            result = fn(equal_pair(), CE8)
            assert result.gradient[0] == pytest.approx(-1.0 / 3.0, rel=1e-12)
            assert result.gradient[1] == pytest.approx(1.0 / 3.0, rel=1e-12)
            assert result.total_loss == pytest.approx(EQUAL_PAIR_CE_LOSS, rel=1e-12)

    def test_saturated_pair_vanishes(self):
        ss = make_set([10.25, 0.25], [1, 0])  # difference -10
        result = gradient_error_driven(ss, CE8)
        assert abs(result.gradient[0]) < 1e-30
        assert abs(result.gradient[1]) < 1e-30

    def test_single_pair_sums_to_zero_exactly(self):
        result = gradient_error_driven(equal_pair(), CE8)
        assert result.gradient[0] + result.gradient[1] == 0.0

    def test_gradient_loss_fields_use_ce_for_sigmoid_kind(self):
        result = gradient_error_driven(equal_pair(), SIGMOID8)
        assert result.total_loss == pytest.approx(EQUAL_PAIR_CE_LOSS, rel=1e-12)

    def test_forward_none_vs_gradient_present(self):
        assert evaluate_loss(equal_pair(), CE8).gradient is None
        grad = gradient_error_driven(equal_pair(), CE8).gradient
        assert grad is not None and grad.shape == (2,)


class TestGradientFormEquivalence:
    def test_bit_equality_on_random_sets(self):
        rng = np.random.default_rng(24)
        for mode in (FilterMode.RANK_SUM, FilterMode.VALID_NEG_COUNT):
            for q in (None, 3):
                config = LossConfig(
                    pair_filter=FilterSpec(mode=mode),
                    budget=PairBudget(q),
                )
                for _ in range(10):
                    ss = random_score_set(rng, int(rng.integers(2, 80)))
                    a = gradient_error_driven(ss, config)
                    b = gradient_autodiff_ce(ss, config)
                    np.testing.assert_array_equal(a.gradient, b.gradient)
                    assert a.total_loss == b.total_loss

    def test_dispatch_matches_direct_calls(self):
        ss = make_set([0.4, 0.6, 0.3], [1, 0, 0])
        by_form = evaluate_with_gradient(ss, LossConfig(gradient_form=GradientForm.AUTODIFF_CE))
        direct = gradient_autodiff_ce(ss, LossConfig())
        np.testing.assert_array_equal(by_form.gradient, direct.gradient)


class TestStructuralInvariants:
    def test_sign_discipline(self):
        rng = np.random.default_rng(25)
        for config in (CE8, NEGCOUNT):
            for _ in range(25):
                ss = random_score_set(rng, int(rng.integers(2, 60)))
                grad = gradient_error_driven(ss, config).gradient
                assert np.all(grad[ss.positive_indices] <= 0.0)
                assert np.all(grad[ss.negative_indices] >= 0.0)
                assert np.all(grad[ss.ignore_indices] == 0.0)

    def test_shift_invariance_on_lattice(self):
        """Lattice scores plus lattice shift: differences are exact, so the
        loss and gradient must be bit-identical."""
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            scores = rng.integers(-4000, 4000, n) / 1024.0
            labels = rng.choice([1, 0, -1], size=n, p=[0.4, 0.5, 0.1])
            ss = make_set(scores, labels)
            shift = float(rng.integers(-8000, 8000)) / 1024.0
            shifted = make_set(scores + shift, labels)
            a = gradient_error_driven(ss, CE8)
            b = gradient_error_driven(shifted, CE8)
            assert a.total_loss == b.total_loss
            np.testing.assert_array_equal(a.gradient, b.gradient)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            scores = rng.permutation(n) / max(n, 1) + rng.uniform(0, 1e-4, n)  # distinct
            labels = rng.choice([1, 0, -1], size=n, p=[0.4, 0.5, 0.1])
            ss = make_set(scores, labels)
            perm = rng.permutation(n)
            permuted = make_set(scores[perm], labels[perm])
            a = gradient_error_driven(ss, CE8)
            b = gradient_error_driven(permuted, CE8)
            assert b.total_loss == pytest.approx(a.total_loss, rel=1e-12, abs=1e-300)
            np.testing.assert_allclose(b.gradient, a.gradient[perm], rtol=1e-12, atol=0.0)

    def test_pair_sum_zero(self):
        rng = np.random.default_rng(28)
        for config in (CE8, NEGCOUNT):
            for _ in range(25):
                ss = random_score_set(rng, int(rng.integers(2, 60)))
                grad = gradient_error_driven(ss, config).gradient
                scale = np.sum(np.abs(grad)) + 1.0
                assert abs(math.fsum(grad.tolist())) <= 1e-12 * scale

    def test_ignore_labels_are_inert(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            ss = random_score_set(rng, n, p_ignore=0.0)
            extra = int(rng.integers(1, 10))
            scores = np.concatenate([ss.scores, rng.uniform(-1, 2, extra)])
            labels = np.concatenate([ss.labels, np.full(extra, Label.IGNORE, dtype=np.int64)])
            grown = make_set(scores, labels)
            a = gradient_error_driven(ss, CE8)
            b = gradient_error_driven(grown, CE8)
            assert a.total_loss == b.total_loss
            np.testing.assert_array_equal(b.gradient[:n], a.gradient)
            assert np.all(b.gradient[n:] == 0.0)


class TestBudget:
    def test_loss_nondecreasing_in_q(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            ss = random_score_set(rng, int(rng.integers(5, 60)))
            n_neg = ss.negative_indices.size
            if n_neg < 2 or ss.positive_indices.size == 0:
                continue
            losses = [
                evaluate_loss(ss, LossConfig(budget=PairBudget(q))).total_loss
                for q in range(1, n_neg + 1)
            ]
            assert all(a <= b for a, b in zip(losses, losses[1:]))

    def test_big_budget_equals_unlimited_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ss = random_score_set(rng, int(rng.integers(5, 60)))
            n_neg = ss.negative_indices.size
            bounded = evaluate_loss(ss, LossConfig(budget=PairBudget(max(n_neg, 1))))
            unlimited = evaluate_loss(ss, LossConfig(budget=PairBudget.unlimited()))
            assert bounded.total_loss == unlimited.total_loss
            assert not bounded.truncated

    def test_default_budget_is_the_library_default(self):
        assert PairBudget() == LossConfig().budget == PairBudget(100_000)
        assert PairBudget(None) == PairBudget.unlimited()
        assert not PairBudget(None).bounded

    def test_truncated_flag(self):
        ss = make_set([0.4, 0.5, 0.6, 0.7], [1, 0, 0, 0])
        assert evaluate_loss(ss, LossConfig(budget=PairBudget(2))).truncated
        assert not evaluate_loss(ss, LossConfig(budget=PairBudget(3))).truncated
        assert not evaluate_loss(ss, LossConfig(budget=PairBudget.unlimited())).truncated


class TestNumeratorFiltering:
    def test_filtered_numerator_drops_easy_pairs(self):
        ss = make_set([0.3, 0.6, 0.5], [1, 0, 0])  # diffs 0.3 and 0.2 vs T=0.25
        filtered = evaluate_loss(
            ss, LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT, threshold=0.25))
        )
        unfiltered = evaluate_loss(
            ss,
            LossConfig(
                pair_filter=FilterSpec(
                    mode=FilterMode.VALID_NEG_COUNT, threshold=0.25, filter_numerator=False
                )
            ),
        )
        assert filtered.stats[0].active_pairs == 1
        assert unfiltered.stats[0].active_pairs == 2
        assert filtered.stats[0].balance_constant == 1.0
        assert unfiltered.stats[0].balance_constant == 1.0
        assert unfiltered.total_loss > filtered.total_loss

    def test_no_valid_pairs_skips_all_anchors(self):
        ss = make_set([0.8, 0.9, 0.7], [1, 0, 0])  # diffs 0.1, -0.1 below T=0.5
        config = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT, threshold=0.5))
        result = gradient_error_driven(ss, config)
        assert result.total_loss == 0.0
        assert np.all(result.gradient == 0.0)
        assert all(s.balance_constant is None for s in result.stats)


def _bits(result):
    """Every reported field, floats as bit patterns so -0.0 and 0.0 differ."""
    return (
        result.total_loss.hex(),
        {u: v.hex() for u, v in result.per_anchor_loss.items()},
        None if result.gradient is None else result.gradient.tobytes(),
        [tuple(x.hex() if isinstance(x, float) else x for x in vars(s).values()) for s in result.stats],
    )


class TestBlocking:
    def _all_forms(self, ss, config):
        return [_bits(fn(ss, config)) for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce)]

    def test_results_independent_of_block_size(self, monkeypatch):
        rng = np.random.default_rng(33)
        # anchors 0..9 sit far above every negative, so in negcount mode all of
        # them are skipped and the small blocks over them hold no live anchor
        skipped_head = make_set(
            np.concatenate([rng.uniform(3.0, 4.0, 10), rng.uniform(0.0, 1.0, 10), rng.uniform(0.0, 2.0, 20)]),
            [1] * 20 + [0] * 20,
        )
        assert all(s.balance_constant is None for s in evaluate_loss(skipped_head, NEGCOUNT).stats[:10])
        sets = [random_score_set(rng, int(rng.integers(20, 120))) for _ in range(6)] + [skipped_head]
        configs = (CE8, NEGCOUNT, LossConfig(budget=PairBudget(3)))
        default = [self._all_forms(ss, config) for ss in sets for config in configs]
        monkeypatch.setattr(ranking, "BLOCK_DOUBLES", 40)
        assert len(ranking.row_blocks(10, 20)) == 5
        assert [self._all_forms(ss, config) for ss in sets for config in configs] == default

    def test_results_independent_of_pair_order(self, monkeypatch):
        # every row is the selection reversed; on the lattice sets the third and fourth
        # highest negatives tie across the Q = 3 cut
        rng = np.random.default_rng(37)
        lattice = [
            make_set(rng.integers(0, 8, n) / 4.0, rng.permutation([1] * (n // 3) + [0] * (n - n // 3))) for n in (45, 90)
        ]
        for ss in lattice:
            top = np.sort(ss.scores[ss.negative_indices])[::-1]
            assert top[2] == top[3]
        sets = lattice + [random_score_set(rng, 80)]
        unfiltered = FilterSpec(mode=FilterMode.VALID_NEG_COUNT, filter_numerator=False)
        configs = (CE8, LossConfig(budget=PairBudget(3)), LossConfig(pair_filter=unfiltered))
        default = [self._all_forms(ss, config) for ss in sets for config in configs]
        select = ranking.select_top_q_negatives
        monkeypatch.setattr("pairloss.loss.select_top_q_negatives", lambda ss, budget: select(ss, budget)[::-1])
        for block_doubles in (ranking.BLOCK_DOUBLES, 40):
            monkeypatch.setattr(ranking, "BLOCK_DOUBLES", block_doubles)
            assert [self._all_forms(ss, config) for ss in sets for config in configs] == default

    def test_multi_block_instance_matches_brute_force(self):
        ss = generate_scores(GeneratorSpec(seed=34, n_pos=150, n_neg=1800))
        assert len(ranking.row_blocks(150, 1800)) > 1
        for config in (CE8, NEGCOUNT):
            got = gradient_error_driven(ss, config)
            expect = brute_force_loss(ss, config)
            assert got.total_loss == pytest.approx(expect.total_loss, rel=1e-12)
            for u, value in expect.per_anchor_loss.items():
                assert got.per_anchor_loss[u] == pytest.approx(value, rel=1e-12, abs=1e-300)
            np.testing.assert_allclose(got.gradient, expect.gradient, rtol=1e-12, atol=0.0)
        # exact per-row contracts: one-anchor rank scans and exactly rounded pair sums
        neg_scores = ss.scores[ss.negative_indices]
        dense = gradient_error_driven(ss, CE8)
        for s in dense.stats:
            assert (s.rank_plus, s.rank_minus) == ranking.compute_ranks(ss, s.anchor_index)
            pair_sum = math.fsum(ce_distance(neg_scores - ss.scores[s.anchor_index], 8.0).tolist())
            assert dense.per_anchor_loss[s.anchor_index] == pair_sum / s.balance_constant

    def test_negcount_pairs_cut_at_the_budget(self, monkeypatch):
        # quarter-point lattice scores: differences of exactly 0.25 tie with the threshold, and
        # the third and fourth highest negative tie across the Q = 3 cut; the first set's
        # anchors have 0, 0, 1, 2, 4, 5 and 6 valid negatives
        rng = np.random.default_rng(36)
        config = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT), budget=PairBudget(3))
        order = rng.permutation(13)
        crafted = np.array([1.5, 1.25, 1.0, 0.75, 0.5, 0.25, 0.0, 1.5, 1.25, 1.0, 1.0, 0.75, 0.5])
        sets = [make_set(crafted[order], np.array([1] * 7 + [0] * 6)[order])] + [
            make_set(rng.integers(0, 8, n) / 4.0, rng.permutation([1] * (n // 3) + [0] * (n - n // 3))) for n in (45, 90)
        ]
        default = [self._all_forms(ss, config) for ss in sets]
        kept = set()
        for ss in sets:
            top = np.sort(ss.scores[ss.negative_indices])[::-1]
            assert top[2] == top[3]
            got = gradient_error_driven(ss, config)
            assert [s.active_pairs for s in got.stats] == [min(s.n_neg, 3) for s in got.stats]
            kept.update(s.active_pairs for s in got.stats)
            expect = brute_force_loss(ss, config)
            assert got.total_loss == pytest.approx(expect.total_loss, rel=1e-12)
            for u, value in expect.per_anchor_loss.items():
                assert got.per_anchor_loss[u] == pytest.approx(value, rel=1e-12, abs=1e-300)
            np.testing.assert_allclose(got.gradient, expect.gradient, rtol=1e-12, atol=0.0)
        assert kept == {0, 1, 2, 3}
        monkeypatch.setattr(ranking, "BLOCK_DOUBLES", 40)
        assert len(ranking.row_blocks(30, 3)) > 1
        assert [self._all_forms(ss, config) for ss in sets] == default


class TestBlockShape:
    """Every row block is one rows x width matrix; a restricted row is zero past its kept prefix."""

    def test_ragged_negcount_block_at_tiny_lam_matches_brute_force(self):
        # the anchors keep 3 and 2 pairs in one block; at lam = 1e-307 any finite value pushed
        # through the kernels past a row's prefix would carry a visible cross-entropy
        ss = make_set([0.3, 0.6, 0.9, 0.7, 0.2, 1.0], [1, 1, 0, 0, 0, 0])
        config = LossConfig(distance=DistanceSpec(lam=1e-307), pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT))
        expect = brute_force_loss(ss, config)
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            got = fn(ss, config)
            assert [s.active_pairs for s in got.stats] == [3, 2]
            assert got.total_loss == pytest.approx(expect.total_loss, rel=1e-12)
            assert got.per_anchor_loss == pytest.approx(expect.per_anchor_loss, rel=1e-12)
            if got.gradient is not None:
                np.testing.assert_allclose(got.gradient, expect.gradient, rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_an_overflow_past_a_prefix_leaves_the_kept_overflow_named(self):
        # anchor 0 skips negative 3, whose difference is -inf, in the slot past its prefix;
        # anchor 1 keeps negative 2, whose difference is +inf
        ss = make_set([1.7e308, -2e307, 1.75e308, -1e307], [1, 1, 0, 0])
        message = "^a score difference of anchor 1 overflows a double; score differences must be finite$"
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            with pytest.raises(ValidationError, match=message):
                fn(ss, NEGCOUNT)

    @pytest.mark.parametrize("q", [1, 2])
    def test_negative_gradients_sum_in_anchor_order(self, q):
        ss = generate_scores(GeneratorSpec(seed=7, n_pos=400, n_neg=60, pos_mean=0.45, neg_mean=0.55))
        result = gradient_error_driven(ss, LossConfig(budget=PairBudget(q)))
        selected = ranking.select_top_q_negatives(ss, PairBudget(q))
        assert selected.size == q
        for v in selected.tolist():
            g = 0.0
            for s in result.stats:
                g += float(sigmoid_distance(ss.scores[v] - ss.scores[s.anchor_index], 8.0)) / s.balance_constant
            assert result.gradient[v].hex() == (g / 400).hex()


# magnitudes for same-sign rows: plain and subnormal doubles, values near 1e300, zeros, and
# dyadic values whose exact sums are often representable or exact rounding midpoints
_MAGNITUDES = st.one_of(
    st.floats(0.0, 1e300),
    st.floats(0.0, 1e-300),
    st.floats(1e299, 1e300),
    st.just(0.0),
    st.builds(math.ldexp, st.integers(1, 7), st.integers(-60, 0)),
)


def _fsum_rows(rows):
    return np.array([math.fsum(row) for row in rows])


def _strict_row_sums(rows):
    """_row_sums of ragged rows padded with +0.0 to one block, with every numpy warning raised as an error."""
    width = max(len(row) for row in rows)
    block = np.array([row + [0.0] * (width - len(row)) for row in rows], dtype=np.float64).reshape(len(rows), width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _row_sums(block, np.arange(len(rows)))


class TestRowSums:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_fsum(self, data):
        width = data.draw(st.integers(0, 33), label="width")
        ragged = data.draw(st.booleans(), label="ragged")
        rows = []
        for _ in range(data.draw(st.integers(1, 6), label="rows")):
            size = data.draw(st.integers(0, width)) if ragged else width
            sign = data.draw(st.sampled_from([1.0, -1.0]))
            rows.append([sign * m for m in data.draw(st.lists(_MAGNITUDES, min_size=size, max_size=size))])
        assert _strict_row_sums(rows).tobytes() == _fsum_rows(rows).tobytes()

    def test_edge_rows(self):
        edge_rows = [
            [],
            [-0.0],
            [-0.0] * 7,
            [0.0, -0.0, 0.0],
            [5e-324] * 9,
            [-5e-324, -1e-310, -2.5e-320],
            [1e300] * 5,
            [-1e300, -3e299, -7e298],
            [1.0, 2.0**-53],
            [1.0, 2.0**-54, 2.0**-54],
        ]
        for rows in (edge_rows, [[-0.0] * 4] * 3, [[-0.0]] * 3, [[]] * 2):
            assert _strict_row_sums(rows).tobytes() == _fsum_rows(rows).tobytes()

    def test_exact_midpoints_take_the_fallback(self):
        # each exact sum lies halfway between two doubles, so only math.fsum can round it
        for row in ([1.0, 2.0**-53], [1.0, 2.0**-54, 2.0**-54], [-1.0, -(2.0**-53)], [3.0, 2.0**-52]):
            sums, certified = _tree_sums(np.array([row]).T.copy())
            assert not certified[0]
            assert _strict_row_sums([row])[0] == math.fsum(row)
        sums, certified = _tree_sums(np.array([[1.0, 2.0**-60, 0.5], [-0.0, -0.0, -0.0]]).T.copy())
        assert certified.all()
        assert sums.tobytes() == np.array([math.fsum([1.0, 2.0**-60, 0.5]), 0.0]).tobytes()


class TestOverflow:
    def test_overflowing_pair_sum_names_the_anchor(self):
        # 100 pairs of CE value 2e306 sum past the largest double
        ss = make_set([1e306] * 100 + [-1e306], [0] * 100 + [1])
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            with pytest.raises(ValidationError, match=r"anchor 100 overflows"):
                fn(ss, CE8)

    def test_overflowing_total_loss(self):
        # every per-anchor loss is finite (2.46e307), but the sum of the ten is not
        ss = make_set([-8e307] * 10 + [8e307], [1] * 10 + [0])
        with pytest.raises(ValidationError, match="total loss overflows"):
            evaluate_loss(ss, LossConfig(distance=DistanceSpec(kind=DistanceKind.CE_SIGMOID, lam=1.0)))


    @pytest.mark.filterwarnings("error")
    def test_overflowing_score_differences_are_validation_errors(self):
        # finite scores whose difference overflows: the kernels reject it, and no RuntimeWarning escapes
        ss = make_set([-1e308, 1e308], [1, 0])
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            for config in (CE8, NEGCOUNT):
                with pytest.raises(ValidationError, match="must be finite"):
                    fn(ss, config)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("config", "anchor"),
        [
            (CE8, 0),  # anchor 0's kept pair with negative 1 overflows to -inf
            (NEGCOUNT, 2),  # anchor 0's -inf pair is not valid, so the kept inf of anchor 2 is the one
            (LossConfig(pair_filter=FilterSpec(mode="negcount", filter_numerator=False)), 0),
        ],
    )
    def test_overflowing_score_difference_names_its_anchor(self, config, anchor):
        ss = make_set([1e308, -1e308, -1e308, 1.5e308], [1, 0, 1, 0])
        message = f"^a score difference of anchor {anchor} overflows a double; score differences must be finite$"
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            with pytest.raises(ValidationError, match=message):
                fn(ss, config)

    @pytest.mark.filterwarnings("error")
    def test_overflows_outside_the_kept_pairs_are_read_by_the_ranks(self):
        # negative 4 lies more than a double below both anchors, and Q = 2 does not keep it:
        # the ranks read its -inf differences as 0, and no kept pair overflows
        ss = make_set([9e307, 8.9e307, 8.95e307, 9.1e307, -1e308], [1, 1, 0, 0, 0])
        config = LossConfig(budget=PairBudget(2))
        expect = brute_force_loss(ss, config)
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            got = fn(ss, config)
            assert got.total_loss == pytest.approx(expect.total_loss, rel=1e-12)
            assert got.per_anchor_loss == pytest.approx(expect.per_anchor_loss, rel=1e-12)
            if got.gradient is not None:
                np.testing.assert_allclose(got.gradient, expect.gradient, rtol=1e-12, atol=0.0)
        # a kept pair's overflow stays the one refused case
        message = "^a score difference of anchor 0 overflows a double; score differences must be finite$"
        with pytest.raises(ValidationError, match=message):
            evaluate_loss(make_set([1e308, -1e308], [1, 0]), CE8)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_differences_of_a_perfect_ranking_cost_nothing_under_negcount(self):
        ss = make_set([1e308, -1e308], [1, 0])
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            assert fn(ss, NEGCOUNT).total_loss == 0.0


class TestMemory:
    def test_peak_memory_is_bounded_by_the_block(self):
        ss = generate_scores(GeneratorSpec(seed=35, n_pos=300, n_neg=20000))
        config = LossConfig(budget=PairBudget(None))
        tracemalloc.start()
        try:
            result = gradient_error_driven(ss, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.active_pairs == 300 * 20000
        # a few block-sized temporaries plus O(n) per-set arrays; the full matrix would be 48 MB
        assert peak < 10 * ranking.BLOCK_DOUBLES * 8 + 16 * len(ss) * 8

    def test_rank_memory_is_linear_in_the_set(self):
        # the ranks read every positive-negative pair whatever the budget: 2 000 x 50 000 ramp values would take 800 MB
        ss = generate_scores(GeneratorSpec(seed=36, n_pos=2000, n_neg=50000))
        tracemalloc.start()
        try:
            plus, minus = compute_ranks(ss, ss.positive_indices, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plus.shape == minus.shape == (2000,) and (plus >= 1).all()
        # the cached order and a few set-sized arrays: the prefix sums go one split level at a time
        assert peak < 12 * 8 * len(ss)


class TestArgumentErrors:
    def test_error_driven_rejects_step_distance(self):
        config = LossConfig(distance=DistanceSpec(kind=DistanceKind.STEP, delta=0.5))
        with pytest.raises(ValidationError):
            gradient_error_driven(equal_pair(), config)

    def test_autodiff_rejects_plain_sigmoid(self):
        with pytest.raises(ValidationError):
            gradient_autodiff_ce(equal_pair(), SIGMOID8)

    def test_config_rejects_autodiff_with_step(self):
        with pytest.raises(ValidationError):
            LossConfig(
                distance=DistanceSpec(kind=DistanceKind.STEP, delta=0.5),
                gradient_form=GradientForm.AUTODIFF_CE,
            )

    @pytest.mark.parametrize("kind", list(DistanceKind))
    @pytest.mark.parametrize("delta", [0, -0.5, float("inf"), float("nan")])
    def test_delta_is_validated_under_every_kind(self, kind, delta):
        with pytest.raises(ValidationError, match="^delta must be > 0"):
            DistanceSpec(kind=kind, delta=delta)

    def test_forward_allows_step_distance(self):
        config = LossConfig(distance=DistanceSpec(kind=DistanceKind.STEP, delta=0.5))
        result = evaluate_loss(equal_pair(), config)
        assert result.total_loss == pytest.approx(0.5 / 1.5, rel=1e-12)


def test_every_call_site_the_benchmark_traces_exists(monkeypatch):
    # perfbench/spans.py times layers by replacing names bound in pairloss modules, such as
    # pairloss.loss.compute_ranks; a refactor that moves such a call would trace its layer as 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)
    spec.loader.exec_module(spans)
    assert spans.absent_sites() == []

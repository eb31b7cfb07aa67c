"""Forward loss and gradient tests: spot values, invariants, both gradient forms."""

import importlib.util
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    Reduction,
    ScoreSet,
    ValidationError,
    brute_force_loss,
    ce_distance,
    compute_ranks,
    descend_scores,
    evaluate_loss,
    evaluate_with_gradient,
    generate_scores,
    gradient_autodiff_ce,
    gradient_error_driven,
    sigmoid_distance,
    simulate_training,
)
from pairloss import loss, ranking
from pairloss.loss import _certified_sums, _row_sums

from conftest import assert_compares_by_identity, make_set, random_score_set

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


_COLUMNS = ("anchors", "losses", "rank_plus", "rank_minus", "balance_constants", "n_neg", "kept")


class TestPerAnchorViews:
    """stats and per_anchor_loss are built from the result's columns on first read only."""

    SET = make_set(np.linspace(-1.0, 2.0, 40), np.arange(40) % 3 == 0)

    def test_evaluation_builds_no_per_anchor_objects(self, monkeypatch):
        built = []

        def counting(*row):
            built.append(row)
            return ranking.RankStats(*row)

        monkeypatch.setattr(loss, "RankStats", counting)
        for config in (CE8, NEGCOUNT):
            results = [fn(self.SET, config) for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce)]
            descend_scores(self.SET, config, 5, 0.5)
            assert built == []
            assert all("stats" not in vars(r) and "per_anchor_loss" not in vars(r) for r in results)
        assert len(results[0].stats) == len(built) == self.SET.positive_indices.size

    @pytest.mark.parametrize("config", [CE8, NEGCOUNT])
    def test_a_second_read_returns_the_same_object(self, config):
        result = gradient_error_driven(self.SET, config)
        assert result.stats is result.stats
        assert result.per_anchor_loss is result.per_anchor_loss
        assert list(result.per_anchor_loss) == [s.anchor_index for s in result.stats] == result.anchors.tolist()

    @pytest.mark.parametrize("config", [CE8, NEGCOUNT, LossConfig(budget=PairBudget(3))])
    def test_active_pairs_is_an_int_summing_the_stats(self, config):
        result = evaluate_loss(self.SET, config)
        assert type(result.active_pairs) is int
        assert result.active_pairs == sum(s.active_pairs for s in result.stats) > 0

    def test_a_set_without_positives_has_no_active_pairs(self):
        result = gradient_error_driven(make_set([0.2, 0.9], [0, 0]), CE8)
        assert type(result.active_pairs) is int
        assert result.active_pairs == 0

    @pytest.mark.parametrize("labels", [np.arange(40) % 3 == 0, np.zeros(40, dtype=np.int64)])
    def test_the_columns_are_read_only(self, labels):
        result = evaluate_loss(make_set(self.SET.scores, labels), NEGCOUNT)
        for name in _COLUMNS:
            column = getattr(result, name)
            assert column.size == labels.sum()
            with pytest.raises(ValueError, match="read-only"):
                column[...] = 0

    @staticmethod
    def _count_calls(monkeypatch) -> list:
        calls = []
        count = ranking.valid_negative_count

        def counting(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(loss, "valid_negative_count", counting)
        return calls

    def test_ranksum_counts_valid_negatives_on_first_read(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        by_n_neg, by_stats, autodiff = (fn(self.SET, CE8) for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce))
        descend_scores(self.SET, CE8, 5, 0.5)
        assert calls == []
        eager = ranking.valid_negative_count(self.SET, self.SET.positive_indices, CE8.pair_filter.threshold)
        assert by_n_neg.n_neg.tolist() == eager.tolist() and len(calls) == 1
        assert by_n_neg.n_neg is by_n_neg.n_neg and len(calls) == 1
        with pytest.raises(ValueError, match="read-only"):
            by_n_neg.n_neg[0] = 0
        assert [s.n_neg for s in by_stats.stats] == eager.tolist() and len(calls) == 2
        assert autodiff.n_neg.tolist() == eager.tolist() and len(calls) == 3

    def test_negcount_counts_valid_negatives_once_per_evaluation(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        results = [fn(self.SET, NEGCOUNT) for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce)]
        assert len(calls) == 3
        assert all(r.n_neg.tolist() == r.balance_constants.astype(int).tolist() for r in results)
        assert len(calls) == 3


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
    def test_results_compare_and_hash_by_identity(self):
        ss = make_set([0.3, 0.1, 0.2], [1, 0, 0])
        assert_compares_by_identity(evaluate_with_gradient(ss, CE8), evaluate_with_gradient(ss, CE8))

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
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", 40)
        assert len(loss.row_blocks(10, 20)) == 5
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
        for block_doubles in (loss.BLOCK_DOUBLES, 40):
            monkeypatch.setattr(loss, "BLOCK_DOUBLES", block_doubles)
            assert [self._all_forms(ss, config) for ss in sets for config in configs] == default

    def test_multi_block_instance_matches_brute_force(self):
        ss = generate_scores(GeneratorSpec(seed=34, n_pos=150, n_neg=1800))
        assert len(loss.row_blocks(150, 1800)) > 1
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
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", 40)
        assert len(loss.row_blocks(30, 3)) > 1
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

    @pytest.mark.parametrize("fn", [gradient_error_driven, gradient_autodiff_ce])
    def test_every_row_of_the_criterion_9_instance_is_certified(self, monkeypatch, fn):
        # the 500 / 9 500 instance in 6 x 9 500 blocks: no row may leave the fast path for math.fsum
        certify, seen = loss._certified_sums, []

        def spy(block):
            sums, certified = certify(block)
            seen.append(certified.copy())
            return sums, certified

        monkeypatch.setattr(loss, "_certified_sums", spy)
        fn(generate_scores(GeneratorSpec(seed=9, n_pos=500, n_neg=9500)), LossConfig(budget=PairBudget(100_000)))
        assert sum(c.size for c in seen) == 2 * 500
        assert all(c.all() for c in seen)

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


class TestColumnFold:
    @pytest.mark.parametrize("block_doubles", [loss.BLOCK_DOUBLES, 40])
    def test_fold_equals_add_at(self, monkeypatch, block_doubles):
        # terms spread over 2**80, so that a sum in any other order than row by row rounds differently
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", block_doubles)
        rng = np.random.default_rng(40)
        for width in [1, 2, *rng.integers(1, 65, 14).tolist(), 9_500]:
            rows = int(rng.integers(1, 401))
            terms = np.ldexp(rng.uniform(0.5, 1.0, (rows, width)), rng.integers(-40, 40, (rows, width)))
            expect = np.zeros(width)
            np.add.at(expect, np.tile(np.arange(width), rows), terms.ravel())
            carry = np.zeros(width)
            for block in loss.row_blocks(rows, width):
                loss._fold_rows(carry, terms[block].copy())
            assert carry.tobytes() == expect.tobytes(), (width, rows)


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

    @pytest.mark.parametrize(
        ("rows", "width"),
        [
            (1, 99_800),  # one anchor alone wider than a block, as ranksum eval keeps on a 200/99 800 set
            (4, 1 << 14),  # a full 2**16-slot block
            (6, 30),  # 30 and 31, 16 382 and 16 383: the widths on each side of a step in the split's grid
            (6, 31),
            (6, 16_382),
            (6, 16_383),
        ],
    )
    def test_bitwise_equal_to_fsum_at_block_widths(self, rows, width):
        # rows spanning subnormals to about 1e300 alternate with rows near the top of one binade, whose
        # level sums run nearest their limits; every row takes one sign
        rng = np.random.default_rng(width)
        block = np.empty((rows, width))
        for i in range(rows):
            if i % 2:
                exponents, mantissas = np.full(width, rng.integers(-1074, 998)), rng.uniform(0.875, 1.0, width)
            else:
                exponents, mantissas = rng.integers(-1074, 998, width), rng.uniform(0.5, 1.0, width)
                exponents[:2] = -1074, 997
            block[i] = (-1) ** ((i + 1) // 2) * np.ldexp(mantissas, exponents)
        assert np.abs(block).max() < 2.0**997 and np.abs(block).min() < 2.0**-1073
        assert _strict_row_sums(block.tolist()).tobytes() == _fsum_rows(block.tolist()).tobytes()

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
            sums, certified = _certified_sums(np.array([row]))
            assert not certified[0]
            assert _strict_row_sums([row])[0] == math.fsum(row)
        sums, certified = _certified_sums(np.array([[1.0, 2.0**-60, 0.5], [-0.0, -0.0, -0.0]]))
        assert certified.all()
        assert sums.tobytes() == np.array([math.fsum([1.0, 2.0**-60, 0.5]), 0.0]).tobytes()

    def test_a_remainder_sum_that_rounds_across_a_midpoint_takes_the_fallback(self):
        # width 15 gives m = 7 and the peak 1.5 + 2**-47 gives k = 8: the split grid is 2**-45, every other
        # value lies below half of it and is all remainder, and the unit of the bound is U = 2**-98. numpy
        # adds a row of 15 as a tree of the first 8 remainders, exact here, then the last 7 in order, each
        # of which rounds down by 3.5 U, so the remainder sum comes out 24.5 U low: more than w U = 15 U.
        # The first remainder puts first + low 16 U below the midpoint above hi, where the exact sum lies
        # 8.5 U past it: a bound of w U would certify hi, and only one of w**2 U declines
        unit = 2.0**-98
        row = [1.5 + 2.0**-47, (2.0**52 - 2.0**45 + 88) * unit]
        row += [(2.0**52 - 8) * unit] * 6 + [(2.0**52 - 4.5) * unit] * 7
        rests = np.array([row])
        rests[0, 0] = 2.0**-47  # the peak splits into the part 1.5 and this remainder
        low = rests.sum(axis=1)[0]
        assert (sum(map(Fraction, rests[0].tolist())) - Fraction(low)) / Fraction(unit) == Fraction(49, 2)
        _, certified = _certified_sums(np.array([row]))
        assert not certified[0]
        assert math.fsum(row) == np.nextafter(1.5 + low, 2.0)
        assert _strict_row_sums([row]).tobytes() == _fsum_rows([row]).tobytes()


    def test_rows_at_the_ends_of_the_range_take_the_fallback(self):
        # width 3 gives m = 5: a block peak at or above 2**1018 would overflow the split constant 2**(e + m),
        # and below 2**-922 the bound's unit leaves the normal range; a peak just inside, in a block of its
        # own, is certified
        largest = [[1e308, 5e307, 1e300], [-(2.0**1018), -1.0, -0.0], [2.0**1018 * 1.5, 2.0**1018, 0.0]]
        tiny = [[2.0**-1001, 2.0**-1010, 5e-324], [-(2.0**-923), -1e-310, -2.5e-320], [2.0**-1040, 0.0, 0.0]]
        inside = [[[np.nextafter(2.0**1018, 0.0), 1.0, 0.0]], [[2.0**-922, 2.0**-1000, 0.0]]]
        for rows, proven in ((largest, False), (tiny, False), *((row, True) for row in inside)):
            sums, certified = _certified_sums(np.array(rows))
            assert (certified == proven).all()
            assert _strict_row_sums(rows).tobytes() == _fsum_rows(rows).tobytes()

    @pytest.mark.parametrize(
        ("rows", "proven", "overflows"),
        [
            # the block's peak sets one split constant: a row near 1 is certified, one near 2**-40 goes to fsum
            (np.random.default_rng(1).uniform(0.5, 1.0, (2, 9500)) * [[1.0], [2.0**-40]], [True, False], None),
            # a row of negative values is never certified, whatever the peak of the rows beside it
            ([[0.25, 0.5, 0.125], [-0.5, -1e-3, -0.0], [1.0, 0.75, 0.0]], [True, False, True], None),
            ([[1e-3, 2e-3, 0.0], [-1e300, -3e299, -1.0]], [True, False], None),
            # width 3 gives m = 5, so a peak of 2**1019 gives k > 1023 and no row of its block is certified
            ([[2.0**1019, 1.0, 0.5], [1.0, 0.5, 0.25]], [False, False], None),
            ([[1.0, 0.5, 0.25], [1.7e308, 1.7e308, 2.0**1019], [1.7e308] * 3], [False, False, False], 1),
        ],
    )
    def test_one_split_constant_per_block(self, rows, proven, overflows):
        _, certified = _certified_sums(np.array(rows))
        assert certified.tolist() == proven
        rows = np.asarray(rows).tolist()
        if overflows is None:
            assert _strict_row_sums(rows).tobytes() == _fsum_rows(rows).tobytes()
        else:
            with pytest.raises(ValidationError, match=f"^pair sum of anchor {overflows} overflows$"):
                _strict_row_sums(rows)

    def test_every_row_of_the_default_descent_is_certified(self, monkeypatch):
        # 101 evaluations of 50 x 500 blocks on changing scores: no row may leave the fast path for math.fsum
        certify, seen = loss._certified_sums, []

        def spy(block):
            sums, certified = certify(block)
            seen.append(certified.copy())
            return sums, certified

        monkeypatch.setattr(loss, "_certified_sums", spy)
        simulate_training(GeneratorSpec(), LossConfig(), 100, 1.0)
        assert sum(c.size for c in seen) == 2 * 50 * 101
        assert all(c.all() for c in seen)


# finite scores whose differences overflow, or come near to it, among small ones
_EXTREME_SCORES = st.one_of(st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 1e307, -1e307]), st.floats(-2.0, 2.0))


def _first_kept_overflow(scores, labels, config):
    """The first live positive, in index order, with a kept pair whose difference overflows, by a float loop."""
    threshold = config.pair_filter.threshold
    negcount = config.pair_filter.mode is FilterMode.VALID_NEG_COUNT
    negatives = [i for i, label in enumerate(labels) if label == 0]
    selection = sorted(negatives, key=lambda i: (-scores[i], i))[: config.budget.q]
    for u, label in enumerate(labels):
        if label != 1:
            continue
        valid = sum(1 for v in negatives if scores[v] - scores[u] > threshold)
        if negcount and valid == 0:
            continue  # a zero negcount constant skips the anchor
        kept = selection[:valid] if negcount and config.pair_filter.filter_numerator else selection
        if any(math.isinf(scores[v] - scores[u]) for v in kept):
            return u
    return None


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

    @pytest.mark.parametrize("block_doubles", [loss.BLOCK_DOUBLES, 8])
    @settings(max_examples=150, deadline=None)
    # anchor 0 keeps only negative 2 and overflows past its prefix, at negative 3, which anchor 1 keeps:
    # anchor 1 is named, as it overflows at its first slot
    @example(
        points=[(1e308, 1), (-1.7e308, 1), (1.7e308, 0), (-1e308, 0)],
        mode=FilterMode.VALID_NEG_COUNT,
        filter_numerator=True,
        q=None,
    )
    @given(
        points=st.lists(st.tuples(_EXTREME_SCORES, st.sampled_from([1, 0, 0, -1])), min_size=1, max_size=12),
        mode=st.sampled_from([FilterMode.RANK_SUM, FilterMode.VALID_NEG_COUNT]),
        filter_numerator=st.booleans(),
        q=st.sampled_from([None, 1, 3]),
    )
    def test_the_gate_names_the_first_kept_overflow(self, block_doubles, points, mode, filter_numerator, q):
        scores, labels = map(list, zip(*points))
        config = LossConfig(pair_filter=FilterSpec(mode=mode, filter_numerator=filter_numerator), budget=PairBudget(q))
        anchor = _first_kept_overflow(scores, labels, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loss, "BLOCK_DOUBLES", block_doubles)
            for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
                try:
                    fn(make_set(scores, labels), config)
                except ValidationError as exc:
                    # a kernel's own "x must be finite" matches neither
                    if anchor is not None:
                        message = f"a score difference of anchor {anchor} overflows a double; score differences must be finite"
                        assert str(exc) == message
                    else:  # finite differences can still sum past the largest double
                        assert re.fullmatch(r"pair sum of anchor \d+ overflows|total loss overflows", str(exc)), str(exc)
                else:
                    assert anchor is None


def _outcome(fn, score_set, config):
    try:
        return _bits(fn(score_set, config))
    except Exception as exc:  # an error is an outcome: its type and message
        return type(exc).__name__, str(exc)


def _reducing_threads(monkeypatch) -> list[str]:
    """Patch both reduction steps of loss._evaluate to record the name of the thread that runs each one."""
    names = []
    for name in ("_reduce_losses", "_reduce_pulls"):

        def spy(*args, step=getattr(loss, name)):
            names.append(threading.current_thread().name)
            step(*args)

        monkeypatch.setattr(loss, name, spy)
    return names


_FORMS = (evaluate_loss, gradient_error_driven, gradient_autodiff_ce)
_ALL_BLOCKS_PIPELINED, _NONE_PIPELINED = 1, sys.maxsize


class TestPipeline:
    """Calls of PIPELINE_MIN_BLOCKS blocks or more reduce on the reducing thread, with the same bits and errors."""

    CONFIGS = (
        (CE8, _FORMS),
        (LossConfig(budget=PairBudget(3)), _FORMS),
        (NEGCOUNT, _FORMS),  # restricted rows: a ragged tail in most blocks
        (LossConfig(reduction=Reduction.SUM), _FORMS),
        (LossConfig(pair_filter=NEGCOUNT.pair_filter, reduction=Reduction.SUM), _FORMS),
        (SIGMOID8, (evaluate_loss, gradient_error_driven)),
        (LossConfig(distance=DistanceSpec(kind=DistanceKind.STEP, delta=0.5)), (evaluate_loss,)),
    )

    def test_results_match_one_loop_bit_for_bit(self, monkeypatch):
        ss = random_score_set(np.random.default_rng(39), 260, p_pos=0.5)
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", 24)
        blocks = []
        row_blocks = loss.row_blocks
        monkeypatch.setattr(loss, "row_blocks", lambda n, w: blocks.append(len(row_blocks(n, w))) or row_blocks(n, w))
        names = _reducing_threads(monkeypatch)
        got = {}
        for gate in (_ALL_BLOCKS_PIPELINED, _NONE_PIPELINED):
            monkeypatch.setattr(loss, "PIPELINE_MIN_BLOCKS", gate)
            got[gate] = [_bits(fn(ss, config)) for config, forms in self.CONFIGS for fn in forms]
            assert min(blocks) >= 8
            if gate == _ALL_BLOCKS_PIPELINED:
                assert "pairloss-reducer" in names
            else:
                assert set(names) == {threading.current_thread().name}
            names.clear()
        assert got[_ALL_BLOCKS_PIPELINED] == got[_NONE_PIPELINED]

    @pytest.mark.parametrize(
        ("scores", "later"),
        [
            # lam = 1e-308: CE(0) = log(2) / lam = 6.9e307, so anchors at 0 sum past the largest double over the three
            # negatives at 0; CE(-1.7e308) is 1.7e307, and CE(1.7e308) overflows in the kernel
            ([0.0, -1.7e308, 1.7e308, 1.7e308], "a kernel"),
            ([0.0, 1.7e308, 0.0, 1.7e308], "a pair sum"),
        ],
    )
    def test_a_handed_blocks_error_comes_before_a_later_blocks(self, monkeypatch, scores, later):
        ss = make_set(scores + [0.0] * 3, [1] * 4 + [0] * 3)
        config = LossConfig(distance=DistanceSpec(lam=1e-308))
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", 3)  # one anchor per block
        names = _reducing_threads(monkeypatch)
        for gate in (_NONE_PIPELINED, _ALL_BLOCKS_PIPELINED):
            monkeypatch.setattr(loss, "PIPELINE_MIN_BLOCKS", gate)
            for fn in _FORMS:
                with pytest.raises(ValidationError, match="^pair sum of anchor 0 overflows$"):
                    fn(ss, config)
        assert "pairloss-reducer" in names
        with pytest.raises(ValidationError, match="overflows"):  # the later block fails on its own, too
            _FORMS[0](make_set(scores[1:] + [0.0] * 3, [1] * 3 + [0] * 3), config)

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(st.tuples(_EXTREME_SCORES, st.sampled_from([1, 0, 0, -1])), min_size=1, max_size=12),
        mode=st.sampled_from([FilterMode.RANK_SUM, FilterMode.VALID_NEG_COUNT]),
        filter_numerator=st.booleans(),
        q=st.sampled_from([None, 1, 3]),
        lam=st.sampled_from([8.0, 1e-308]),
    )
    def test_extreme_sets_give_the_outcomes_of_one_loop(self, points, mode, filter_numerator, q, lam):
        scores, labels = map(list, zip(*points))
        ss = make_set(scores, labels)
        pair_filter = FilterSpec(mode=mode, filter_numerator=filter_numerator)
        config = LossConfig(distance=DistanceSpec(lam=lam), pair_filter=pair_filter, budget=PairBudget(q))
        outcomes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loss, "BLOCK_DOUBLES", 8)
            for gate in (_ALL_BLOCKS_PIPELINED, _NONE_PIPELINED):
                patch.setattr(loss, "PIPELINE_MIN_BLOCKS", gate)
                outcomes.append([_outcome(fn, ss, config) for fn in _FORMS])
        assert outcomes[0] == outcomes[1]

    def test_a_callers_errstate_holds_on_the_reducing_thread(self, monkeypatch):
        # lam = 1: the kernels of anchors 0 and 1 give exp(-708.2) = 2.7e-308, still normal, but their balance
        # constant is 1.5 (they tie), so their losses go subnormal and inexact, which np.errstate(under="raise")
        # refuses; the other anchors' values are log(2). Anchors 0 and 1 are handed blocks, and only they underflow
        ss = make_set([708.2] * 2 + [0.0] * 10 + [0.0], [1] * 12 + [0])
        config = LossConfig(distance=DistanceSpec(lam=1.0))
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", 1)
        names = _reducing_threads(monkeypatch)
        raised = {}
        for gate in (_NONE_PIPELINED, _ALL_BLOCKS_PIPELINED):
            monkeypatch.setattr(loss, "PIPELINE_MIN_BLOCKS", gate)
            for fn in _FORMS:
                assert fn(ss, config).losses[0] < np.finfo(float).tiny
                with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow") as info:
                    fn(ss, config)
                raised.setdefault(fn, []).append(str(info.value))
        assert "pairloss-reducer" in names
        assert all(first == second for first, second in raised.values())

    def test_calls_below_the_gate_start_no_thread(self, monkeypatch):
        def refuse():
            raise AssertionError("a call below the gate asked for the reducing thread")

        monkeypatch.setattr(loss, "_reducing_thread", refuse)
        threads = threading.active_count()
        assert len(loss.row_blocks(50, 500)) == 1 < loss.PIPELINE_MIN_BLOCKS
        for fn in _FORMS:
            fn(equal_pair(), CE8)
        simulate_training(GeneratorSpec(), LossConfig(), 100, 1.0)
        assert threading.active_count() == threads

    def test_concurrent_callers_share_the_reducing_thread(self, monkeypatch):
        # more callers than cores, switching threads every 10 us: each call's steps still run in its own order
        monkeypatch.setattr(loss, "PIPELINE_MIN_BLOCKS", _ALL_BLOCKS_PIPELINED)
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", 400)
        sets = [generate_scores(GeneratorSpec(seed=seed, n_pos=40, n_neg=100)) for seed in range(4)]
        expect = [_bits(gradient_error_driven(ss, CE8)) for ss in sets]
        got = [[] for _ in sets]

        def evaluate(i):
            for _ in range(5):
                got[i].append(_bits(gradient_error_driven(sets[i], CE8)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=evaluate, args=(i,)) for i in range(len(sets))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert got == [[e] * 5 for e in expect]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_reducing_thread(self, monkeypatch):
        monkeypatch.setattr(loss, "PIPELINE_MIN_BLOCKS", _ALL_BLOCKS_PIPELINED)
        monkeypatch.setattr(loss, "BLOCK_DOUBLES", 400)
        ss = generate_scores(GeneratorSpec(seed=38, n_pos=40, n_neg=100))
        expect = _bits(gradient_error_driven(ss, CE8))
        assert os.getpid() in loss._reducers  # the parent's reducing thread runs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # Python 3.12+ warns on forking a process with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if _bits(gradient_error_driven(ss, CE8)) == expect else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if waited[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's evaluation did not finish in 60 s")
        assert os.waitstatus_to_exitcode(waited[1]) == 0


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
        assert peak < 10 * loss.BLOCK_DOUBLES * 8 + 16 * len(ss) * 8

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

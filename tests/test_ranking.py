"""Rank statistics, filtering, truncation, and balance constant tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloss import (
    FilterMode,
    FilterSpec,
    GeneratorSpec,
    LossConfig,
    PairBudget,
    ScoreSet,
    ValidationError,
    balance_constant,
    compute_ranks,
    generate_scores,
    gradient_error_driven,
    select_top_q_negatives,
    valid_negative_count,
    valid_pair_indicator,
)
from pairloss import ranking
from pairloss.distance import _ramp

from conftest import assert_compares_by_identity, make_set, random_score_set


class TestScoreSet:
    @pytest.mark.parametrize("scores", [[0.3, 0.1, 0.2], [0.5]], ids=["three", "one"])
    def test_sets_compare_and_hash_by_identity(self, scores):
        labels = [1] + [0] * (len(scores) - 1)
        assert_compares_by_identity(make_set(scores, labels), make_set(scores, labels))

    def test_order_is_descending_score_then_ascending_index(self):
        ss = make_set([0.5, 0.9, 0.5, -0.0, 0.0, 0.9], [1, 0, -1, 0, 1, 1])
        assert ss.order.tolist() == [1, 5, 0, 2, 3, 4]

    def test_order_is_computed_once_and_read_only(self):
        ss = make_set([0.2, 0.7], [1, 0])
        assert ss.order is ss.order
        with pytest.raises(ValueError):
            ss.order[0] = 1
        assert ss.with_scores(np.array([0.7, 0.2])).order.tolist() == [0, 1]

    def test_negatives_by_score_are_the_negatives_of_the_order_and_read_only(self):
        ss = make_set([0.5, 0.9, 0.5, -0.0, 0.0, 0.9], [0, 0, -1, 0, 1, 0])
        assert ss.negatives_by_score.tolist() == [1, 5, 0, 3]
        assert ss.negatives_by_score is ss.negatives_by_score
        with pytest.raises(ValueError):
            ss.negatives_by_score[0] = 1

    def test_a_negcount_gradient_call_computes_the_negatives_by_score_once(self, monkeypatch):
        calls = []
        compute = ScoreSet.negatives_by_score.func
        monkeypatch.setattr(ScoreSet.negatives_by_score, "func", lambda ss: calls.append(1) or compute(ss))
        ss = generate_scores(GeneratorSpec())
        config = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT), budget=PairBudget(100))
        gradient_error_driven(ss, config)
        assert calls == [1]

    def test_arrays_are_copied(self):
        scores, labels = np.array([0.2, 0.7]), np.array([1, 0])
        ss = ScoreSet(scores=scores, labels=labels)
        scores[0], labels[0] = 9.0, 0
        assert ss.scores.tolist() == [0.2, 0.7] and ss.labels.tolist() == [1, 0]
        assert ss.order.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0.7, 1.9], "label at index 0 is 0.7, expected one of [-1, 0, 1]"),
            ([1.0, -1.5], "label at index 1 is -1.5, expected one of [-1, 0, 1]"),
            (np.array([1, 2**63 + 5], dtype=np.uint64), "label at index 1 is 9223372036854775813, expected one of [-1, 0, 1]"),
            ([1, 2], "label at index 1 is 2, expected one of [-1, 0, 1]"),
            ([1, 10**20], "label at index 1 is 100000000000000000000, expected one of [-1, 0, 1]"),
        ],
    )
    def test_labels_are_checked_before_the_cast(self, labels, message):
        with pytest.raises(ValidationError) as exc:
            ScoreSet(scores=np.array([0.2, 0.7]), labels=labels)
        assert str(exc.value) == message

    def test_integral_labels_of_any_type_are_accepted(self):
        for labels in ([1.0, -0.0], np.array([1, 0], dtype=np.uint8), [True, False]):
            ss = ScoreSet(scores=np.array([0.2, 0.7]), labels=labels)
            assert ss.labels.dtype == np.int64 and ss.labels.tolist() == [1, 0]


class TestComputeRanks:
    def test_lone_positive(self):
        ss = make_set([0.7], [1])
        assert compute_ranks(ss, 0, 0.5) == (1.0, 0.0)

    def test_negative_far_below(self):
        ss = make_set([0.9, 0.1], [1, 0])
        assert compute_ranks(ss, 0, 0.5) == (1.0, 0.0)

    def test_three_way_tie(self):
        # tied positive contributes H(0) = 0.5, tied negative likewise
        ss = make_set([0.6, 0.6, 0.6], [1, 1, 0])
        assert compute_ranks(ss, 0, 0.5) == (1.5, 0.5)

    def test_ignores_do_not_count(self):
        ss = make_set([0.6, 0.9, 0.9], [1, -1, -1])
        assert compute_ranks(ss, 0, 0.5) == (1.0, 0.0)

    def test_rank_plus_at_least_one(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ss = random_score_set(rng, int(rng.integers(2, 40)))
            for u in ss.positive_indices:
                rank_plus, rank_minus = compute_ranks(ss, int(u), 0.5)
                assert rank_plus >= 1.0
                assert rank_minus >= 0.0

    def test_rejects_non_positive_anchor(self):
        ss = make_set([0.6, 0.4], [1, 0])
        with pytest.raises(ValidationError):
            compute_ranks(ss, 1, 0.5)
        with pytest.raises(ValidationError):
            compute_ranks(ss, 5, 0.5)
        with pytest.raises(ValidationError):
            compute_ranks(ss, np.array([0, 5]), 0.5)
        with pytest.raises(ValidationError):
            compute_ranks(ss, np.array([0, 1]), 0.5)
        with pytest.raises(ValidationError):
            valid_negative_count(ss, np.array([0, 5]), 0.25)
        with pytest.raises(ValidationError):
            valid_negative_count(ss, np.array([0, 1]), 0.25)

    def test_rejects_bad_rank_delta(self):
        ss = make_set([0.6], [1])
        with pytest.raises(ValidationError, match=r"^delta must be > 0, got 0\.0$"):
            compute_ranks(ss, 0, 0.0)

    @pytest.mark.parametrize("high, groupings", [(1.5, 2), (0.9, 1)])
    def test_an_anchors_rank_ignores_the_other_anchors(self, monkeypatch, high, groupings):
        # delta = 0.25: a window that reaches a score >= 1 takes its grid from one grouping of the exponents, a
        # window below 1 from the other, and compute_ranks sums prefixes only under the groupings in use
        rng = np.random.default_rng(41)
        ss = make_set(rng.uniform(0.0, high, 300), rng.uniform(size=300) < 0.3)
        pos = ss.positive_indices
        rows = []
        levels = ranking._levels
        monkeypatch.setattr(ranking, "_levels", lambda x, top: rows.append(x.shape[0]) or levels(x, top))
        together = compute_ranks(ss, pos, 0.25)
        assert rows[0] == groupings
        for i, u in enumerate(pos.tolist()):
            alone = compute_ranks(ss, u, 0.25)
            assert [r.hex() for r in alone] == [together[0][i].hex(), together[1][i].hex()]

    def test_no_anchors_give_two_empty_arrays(self):
        ss = make_set([0.6, 0.4], [1, 0])
        ranks = compute_ranks(ss, np.array([], dtype=np.int64), 0.25)
        assert len(ranks) == 2
        assert all(r.dtype == np.float64 and r.shape == (0,) for r in ranks)

    def test_overflowing_differences_read_as_the_ramps_limits(self):
        # -1e308 - 1e308 overflows to -inf, which lies below the window and counts 0
        ss = make_set([1e308, -1e308], [1, 0])
        assert compute_ranks(ss, 0, 0.5) == (1.0, 0.0)
        assert balance_constant(ss, 0, LossConfig()) == 1.0


class TestValidPairIndicator:
    def test_fires_above_threshold(self):
        assert valid_pair_indicator(0.3, 0.6, 0.25) == 1

    def test_quiet_below_threshold(self):
        assert valid_pair_indicator(0.3, 0.5, 0.25) == 0

    def test_strict_at_equality(self):
        assert valid_pair_indicator(0.4, 0.4, 0.0) == 0

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValidationError):
            valid_pair_indicator(0.3, 0.6, -0.1)

    @given(
        p_u=st.floats(-5, 5, allow_nan=False),
        p_v=st.floats(-5, 5, allow_nan=False),
        threshold=st.floats(0, 2, allow_nan=False),
    )
    def test_matches_definition(self, p_u, p_v, threshold):
        assert valid_pair_indicator(p_u, p_v, threshold) == int(p_v - p_u > threshold)


class TestValidNegativeCount:
    def test_nothing_above(self):
        ss = make_set([0.8, 0.1, 0.2], [1, 0, 0])
        assert valid_negative_count(ss, 0, 0.25) == 0

    def test_enumerated(self):
        ss = make_set([0.3, 0.6, 0.5, 0.2], [1, 0, 0, 0])
        assert valid_negative_count(ss, 0, 0.25) == 1

    def test_bounded_by_negative_count(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            ss = random_score_set(rng, int(rng.integers(2, 40)))
            n_neg = ss.negative_indices.size
            for u in ss.positive_indices:
                assert 0 <= valid_negative_count(ss, int(u), 0.1) <= n_neg

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        thresholds = [0.0, 0.1, 0.25, 0.5, 1.0]
        for _ in range(25):
            ss = random_score_set(rng, int(rng.integers(2, 60)))
            for u in ss.positive_indices:
                counts = [valid_negative_count(ss, int(u), t) for t in thresholds]
                assert counts == sorted(counts, reverse=True)

    def test_rounded_difference_not_shifted_score(self):
        # 1.1 - 1.0 rounds to 0.10000000000000009 > 0.1, although 1.1 > 1.0 + 0.1 is false,
        # so a search for score[u] + threshold in the sorted scores would count 0 here
        ss = make_set([1.0, 1.1], [1, 0])
        assert valid_negative_count(ss, 0, 0.1) == 1
        assert valid_negative_count(ss, np.array([0]), 0.1).tolist() == [1]

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 8).map(lambda k: k / 4.0),  # lattice: ties, and differences equal to 0.25
                    st.integers(0, 30).map(lambda k: k / 10.0),  # differences an ulp off 0.1 and 0.3
                    st.floats(-3.0, 3.0),
                    st.sampled_from([1e308, -1e308]),  # differences overflow to +-inf
                ),
                st.sampled_from([1, 0, 0, -1]),
            ),
            min_size=1,
            max_size=40,
        ),
        offset=st.sampled_from([0.0, 1e3, 1e6, -1e6]),
        threshold=st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.3]), st.floats(0.0, 2.0)),
    )
    def test_equals_the_pairwise_predicate(self, points, offset, threshold):
        labels = [1] + [label for _, label in points[1:]]
        ss = make_set([score + offset for score, _ in points], labels)
        neg_scores = ss.scores[ss.negative_indices]
        with np.errstate(over="ignore"):
            expect = [np.count_nonzero(neg_scores - ss.scores[u] > threshold) for u in ss.positive_indices]
        counts = valid_negative_count(ss, ss.positive_indices, threshold)
        assert counts.dtype == np.int64
        assert counts.tolist() == expect
        assert [valid_negative_count(ss, int(u), threshold) for u in ss.positive_indices] == expect


class TestSelectTopQ:
    def test_unbounded_returns_all(self):
        ss = make_set([0.1, 0.9, 0.5], [1, 0, 0])
        out = select_top_q_negatives(ss, PairBudget.unlimited())
        assert out.tolist() == [1, 2]

    def test_budget_not_binding(self):
        ss = make_set([0.1, 0.9, 0.5], [1, 0, 0])
        assert select_top_q_negatives(ss, PairBudget(10)).tolist() == [1, 2]

    def test_top_two_by_score_in_index_order(self):
        scores = np.zeros(8)
        labels = np.full(8, -1)
        scores[[2, 5, 7]] = [0.9, 0.1, 0.5]
        labels[[2, 5, 7]] = 0
        ss = make_set(scores, labels)
        assert select_top_q_negatives(ss, PairBudget(2)).tolist() == [2, 7]

    def test_ties_break_by_ascending_index(self):
        scores = np.zeros(10)
        labels = np.full(10, -1)
        scores[[1, 4, 9]] = 0.5
        labels[[1, 4, 9]] = 0
        ss = make_set(scores, labels)
        assert select_top_q_negatives(ss, PairBudget(2)).tolist() == [1, 4]

    def test_nested_in_budget(self):
        """Raising q never drops a selected index."""
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(3, 50))
            ss = random_score_set(rng, n)
            previous: set[int] = set()
            for q in range(1, ss.negative_indices.size + 1):
                selected = set(select_top_q_negatives(ss, PairBudget(q)).tolist())
                assert len(selected) == min(q, ss.negative_indices.size)
                assert previous <= selected
                previous = selected

    def test_mixed_ties_keep_score_order_first(self):
        scores = np.zeros(10)
        labels = np.full(10, -1)
        scores[[1, 4, 9]] = [0.5, 0.9, 0.5]
        labels[[1, 4, 9]] = 0
        ss = make_set(scores, labels)
        assert select_top_q_negatives(ss, PairBudget(3)).tolist() == [4, 1, 9]

    def test_subset_of_negatives_and_sorted(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            ss = random_score_set(rng, int(rng.integers(2, 50)))
            out = select_top_q_negatives(ss, PairBudget(3))
            keys = [(-float(ss.scores[i]), int(i)) for i in out]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert set(out.tolist()) <= set(ss.negative_indices.tolist())


class TestBalanceConstant:
    def test_ranksum_lone_positive(self):
        ss = make_set([0.7], [1])
        assert balance_constant(ss, 0, LossConfig()) == 1.0

    def test_negcount_no_qualifier_is_absent(self):
        ss = make_set([0.8, 0.1], [1, 0])
        config = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT))
        assert balance_constant(ss, 0, config) is None

    def test_ranksum_tied_triple(self):
        ss = make_set([0.6, 0.6, 0.6], [1, 1, 0])
        assert balance_constant(ss, 0, LossConfig()) == 2.0

    def test_negcount_counts(self):
        ss = make_set([0.3, 0.6, 0.5, 0.2], [1, 0, 0, 0])
        config = LossConfig(pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT, threshold=0.25))
        assert balance_constant(ss, 0, config) == 1.0

    def test_always_at_least_one_in_ranksum(self):
        rng = np.random.default_rng(10)
        config = LossConfig()
        for _ in range(25):
            ss = random_score_set(rng, int(rng.integers(2, 40)))
            for u in ss.positive_indices:
                assert balance_constant(ss, int(u), config) >= 1.0


class TestShiftInvariance:
    def test_rank_ops_depend_only_on_differences(self):
        """Shifting every score by an exactly-representable constant leaves
        ranks, counts, and selections bit-identical."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            lattice = rng.integers(-2000, 2000, n) / 1024.0
            labels = rng.choice([1, 0, -1], size=n, p=[0.4, 0.5, 0.1])
            if not (labels == 1).any():
                labels[0] = 1
            ss = make_set(lattice, labels)
            shift = float(rng.integers(-4000, 4000)) / 1024.0
            shifted = make_set(lattice + shift, labels)
            for u in ss.positive_indices:
                assert compute_ranks(ss, int(u), 0.5) == compute_ranks(shifted, int(u), 0.5)
                assert valid_negative_count(ss, int(u), 0.25) == valid_negative_count(shifted, int(u), 0.25)
            budget = PairBudget(3)
            assert np.array_equal(
                select_top_q_negatives(ss, budget), select_top_q_negatives(shifted, budget)
            )


def _naive_ranks(ss, u, delta):
    """Ranks by a double loop over Python floats, whose overflow gives +-inf without a warning."""

    def ramp(x):
        t = 0.5 + 0.5 * (x / delta)
        return min(1.0, max(0.0, t))

    rank_plus = 1.0
    rank_minus = 0.0
    for j in range(len(ss)):
        if j == u:
            continue
        if ss.labels[j] == 1:
            rank_plus += ramp(float(ss.scores[j]) - float(ss.scores[u]))
        elif ss.labels[j] == 0:
            rank_minus += ramp(float(ss.scores[j]) - float(ss.scores[u]))
    return rank_plus, rank_minus


class TestNaiveReference:
    def test_ranks_match_double_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            ss = random_score_set(rng, int(rng.integers(2, 50)))
            plus, minus = compute_ranks(ss, ss.positive_indices, 0.5)
            for i, u in enumerate(ss.positive_indices):
                fast = compute_ranks(ss, int(u), 0.5)
                slow = _naive_ranks(ss, int(u), 0.5)
                assert fast[0] == pytest.approx(slow[0], rel=1e-12, abs=1e-12)
                assert fast[1] == pytest.approx(slow[1], rel=1e-12, abs=1e-12)
                assert (plus[i].tobytes(), minus[i].tobytes()) == (
                    np.float64(fast[0]).tobytes(),
                    np.float64(fast[1]).tobytes(),
                )

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 8).map(lambda k: k / 4.0),  # lattice: ties, and differences on the ramp's kinks
                    st.floats(-3.0, 3.0),
                    st.sampled_from([1e308, -1e308]),  # differences overflow to +-inf
                ),
                st.sampled_from([1, 1, 0, -1]),
            ),
            min_size=1,
            max_size=40,
        ),
        offset=st.sampled_from([0.0, 1e3, 1e6, -1e6]),
        delta=st.sampled_from([0.125, 0.5, 3.0]),
    )
    def test_ranks_match_double_loop_at_any_offset(self, points, offset, delta):
        labels = [1] + [label for _, label in points[1:]]
        ss = make_set([score + offset for score, _ in points], labels)
        plus, minus = compute_ranks(ss, ss.positive_indices, delta)
        for i, u in enumerate(ss.positive_indices):
            assert (plus[i], minus[i]) == pytest.approx(_naive_ranks(ss, int(u), delta), rel=1e-12, abs=1e-12)

    def test_counts_match_double_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            ss = random_score_set(rng, int(rng.integers(2, 50)))
            counts = valid_negative_count(ss, ss.positive_indices, 0.25)
            for i, u in enumerate(ss.positive_indices):
                naive = sum(
                    1
                    for j in range(len(ss))
                    if ss.labels[j] == 0 and float(ss.scores[j] - ss.scores[u]) > 0.25
                )
                assert valid_negative_count(ss, int(u), 0.25) == naive
                assert counts[i] == naive

    def test_topq_matches_sorted_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            ss = random_score_set(rng, int(rng.integers(2, 50)))
            q = int(rng.integers(1, 8))
            neg = [int(i) for i in ss.negative_indices]
            expected = sorted(neg, key=lambda i: (-float(ss.scores[i]), i))[:q]
            assert select_top_q_negatives(ss, PairBudget(q)).tolist() == expected


EPS = Fraction(1, 2**53)


def _exact_ranks(ss, u, delta):
    """(rank+, rank-) as Fractions: a score counts 1 (or 0) where the ramp of its rounded difference to
    the anchor reads 1 (or 0), as in a pairwise scan, and adds its exact ramp value inside the window."""
    s_u = float(ss.scores[u])
    ranks = {1: Fraction(1, 2), 0: Fraction(0)}
    for t, label in zip(ss.scores.tolist(), ss.labels.tolist()):
        if label in ranks:
            ramp = 0.5 + 0.5 * ((t - s_u) / delta)  # Python floats: an overflow reads +-inf
            inside = (Fraction(t) - Fraction(s_u) + Fraction(delta)) / (2 * Fraction(delta))
            ranks[label] += 1 if ramp >= 1 else 0 if ramp <= 0 else inside
    return ranks[1], ranks[0]


def _rank_bound(exact, n, s_u, delta):
    """The error bound compute_ranks states: 5 eps R + eps (n + 2)**4 (|s_u| / delta + 2) 2**-96."""
    return 5 * EPS * exact + EPS * (n + 2) ** 4 * (abs(Fraction(s_u)) / Fraction(delta) + 2) / 2**96


class TestExactReference:
    @settings(max_examples=150, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-24, 24).map(lambda k: k / 8.0),  # eighth points: ties on every window edge
                    st.floats(-3.0, 3.0),
                    st.sampled_from([1e308, -1e308]),  # differences overflow to +-inf
                    st.sampled_from([1e-30, -3e-200, 0.5 + 2**-60]),  # bits below the window's grid
                ),
                st.lists(st.sampled_from([1, 1, 0, -1]), min_size=1, max_size=12),  # one tie block
            ),
            min_size=1,
            max_size=10,
        ),
        offset=st.sampled_from([0.0, 1e3, 1e6, -1e6]),
        delta=st.sampled_from([0.125, 0.5, 3.0]),
    )
    def test_ranks_hold_the_stated_bound(self, blocks, offset, delta):
        scores = [value + offset for value, block in blocks for _ in block]
        labels = [label for _, block in blocks for label in block]
        labels[0] = 1
        ss = make_set(scores, labels)
        plus, minus = compute_ranks(ss, ss.positive_indices, delta)
        for i, u in enumerate(ss.positive_indices):
            s_u = ss.scores[u]
            for got, exact in zip((plus[i], minus[i]), _exact_ranks(ss, int(u), delta)):
                assert abs(Fraction(float(got)) - exact) <= _rank_bound(exact, len(ss), s_u, delta)

    def test_bits_below_the_windows_grid_count(self):
        # the anchor's window tops at 1, and its grid is far coarser than 1e-30; at the anchor
        # 0.5 - 2**-54 the negative 1e-30 lies just inside the bottom of the window and adds 2**-54 + 1e-30
        for scores in ([0.5 - 2**-54, 1e-30], [0.5 - 2**-54, 1e-30, 3e-31, 0.75], [0.25, 1e-30, -1e-300]):
            ss = make_set(scores, [1] + [0] * (len(scores) - 1))
            for got, exact in zip(compute_ranks(ss, 0, 0.5), _exact_ranks(ss, 0, 0.5)):
                assert abs(Fraction(got) - exact) <= _rank_bound(exact, len(ss), scores[0], 0.5)

    def test_a_delta_far_below_the_scores_grid_counts_in_full(self):
        # delta lies wholly below the grid of scores near 1e300: the window holds the anchor's ties, 1/2 each
        assert compute_ranks(make_set([1e300, 1e300, 1e300, 3e300], [1, 0, 1, 0]), 0, 1e-300) == (1.5, 1.5)
        # 0.1 and 0.2 have bits below the grid of scores near 1e15, whose ulp is 0.125
        for delta in (0.1, 0.2):
            ss = make_set([1e15, 1e15 + 0.125, 1e15 - 0.125, 1e15 + 0.25, 1e15], [1, 0, 0, 1, 0])
            for got, exact in zip(compute_ranks(ss, 0, delta), _exact_ranks(ss, 0, delta)):
                assert abs(Fraction(got) - exact) <= _rank_bound(exact, len(ss), 1e15, delta)


def _ulp_run(centre, steps):
    """centre and its `steps` nearest doubles on either side, descending."""
    run = [centre]
    for direction in (np.inf, -np.inf):
        value = centre
        for _ in range(steps):
            value = np.nextafter(value, direction)
            run.append(value)
    return np.sort(np.array(run))[::-1]


class TestEdgeCounts:
    @pytest.mark.parametrize("s_u", [0.0, 0.3, 1.0, -7.25, 1e3 + 0.1, 1e6, -1e6, 1e300])
    @pytest.mark.parametrize("width", [0.1, 0.25, 0.5, 3.0])
    def test_equals_the_pairwise_predicates_on_ulp_runs(self, s_u, width):
        anchors = np.array([s_u])
        for offset, holds in (
            (width, lambda t: _ramp(t - s_u, width) >= 1),  # the top of the ramp's window
            (-width, lambda t: _ramp(t - s_u, width) > 0),  # its bottom
            (width, lambda t: t - s_u > width),  # a valid pair at threshold width
        ):
            row = np.repeat(_ulp_run(s_u + offset, 40), 3)  # ties too
            count = ranking._leading_counts(-row, anchors, offset, width, lambda t, rows: holds(t))
            assert count.tolist() == [np.count_nonzero(holds(row))]
            assert holds(row[: count[0]]).all() and not holds(row[count[0] :]).any()

    def test_settles_a_tie_block_in_one_step(self):
        # 1.1 - 1.0 rounds above 0.1, so all 1000 ties at the edge count; no other score is near it
        row = np.concatenate([[3.0, 2.0], np.full(1000, 1.1), [0.5, -1.0]])
        calls = []

        def valid(t, rows):
            calls.append(t.size)
            return t - 1.0 > 0.1

        assert ranking._leading_counts(-row, np.array([1.0]), 0.1, 0.1, valid).tolist() == [1002]
        assert calls == [1]

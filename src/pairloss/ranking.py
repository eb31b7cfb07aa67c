"""Smoothed ranks, valid-pair counting, top-q truncation, balance constants.

The balance constant divides each anchor's pair-error sum and is treated as
a constant under differentiation. Two modes:

  ranksum   rank+(u) + rank-(u), where rank+ counts positives at or above
            the anchor (smoothed by a ramp, self term included so
            rank+ >= 1) and rank- counts negatives above it. Always
            computed over the full set, never the truncated pair set.
  negcount  the number of negatives that beat the anchor by more than the
            filter threshold. Zero means the anchor has no valid errors
            and is skipped (balance_constant returns None).

Every reader here walks the set's one score order, ScoreSet.order
(descending score, ties by ascending index): the top-q selection is a
prefix of the negatives in it (ScoreSet.negatives_by_score, computed once
per set, as the order is), and a valid count or an edge of a rank's ramp
window is a count of leading scores in one of the two, bracketed by
np.searchsorted and settled by the predicate itself. So selections,
counts and ranks depend on the scores alone, bit for bit, not on the order
of the elements in the set.

Ranks from exact window sums. The ramp is 0 below its window, 1 above it
and linear inside it, so

    rank = (scores above the window) + sum over the window of (t - s_u + delta) / (2 delta).

The ramp's own float predicate on each rounded difference t - s_u decides
which scores lie above, inside or below, as a pairwise scan would. The
window sum comes from prefix sums over the order: each score is split twice
by ExtractScalar (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008) on
a power-of-two grid set by its binade's group, and the first two levels of the
split, their prefix sums and each window's sum minus k (s_u - delta) are
exact. Only the third level, the bits below the grid, and the final
combination round. So a rank is the exact ramp sum, rounded within the
bound that compute_ranks states, in O(n log n) for n scores (Joachims,
ICML 2005, computes pairwise rank losses by sorting in the same way). On a
lattice (scores and delta multiples of 2**-p below 2**q, q + p + 2m <= 100
with 2**m >= 4 (n + 2)) no score has bits below its grid, so each rank is
the exact ramp sum rounded by one fixed sequence of roundings, and shifting
every score along the lattice leaves the ranks bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import _ramp
from .types import NEGATIVE, POSITIVE, FilterMode, LossConfig, PairBudget, ScoreSet, ValidationError
from .types import array, finite, instance, integer


@dataclass(frozen=True)
class RankStats:
    """Per-anchor bookkeeping emitted alongside the loss."""

    anchor_index: int
    rank_plus: float
    rank_minus: float
    balance_constant: float | None
    n_neg: int
    active_pairs: int


_LARGEST = float(np.finfo(np.float64).max)
_GROUP_SHIFT = np.array([[3], [1]], dtype=np.int32)  # with _GROUP_OFFSET, the groups' top exponents; see compute_ranks
_GROUP_OFFSET = np.array([[0], [2]], dtype=np.int32)
_GROUP_SHIFT.flags.writeable = _GROUP_OFFSET.flags.writeable = False


def _check_anchors(score_set: ScoreSet, u) -> tuple[np.ndarray, bool]:
    """Anchor indices as a 1-D array, and whether u was a single index."""
    instance("score_set", score_set, ScoreSet)
    # np.ndim raises on a ragged list, so a list or tuple goes to array(), whose error names u
    scalar = not isinstance(u, (list, tuple)) and np.ndim(u) == 0
    anchors = np.atleast_1d(integer("u", u) if scalar else array("u", u, "iu"))
    if anchors.ndim != 1:
        raise ValidationError("u must be an index or a 1-D integer index array")
    outside = anchors.astype(np.uint64) >= len(score_set)  # a negative index wraps past every length
    if outside.any():
        raise ValidationError(f"u holds index {anchors[outside][0]}, out of range for a set of {len(score_set)}")
    unlabelled = score_set.labels[anchors] != POSITIVE
    if unlabelled.any():
        raise ValidationError(f"u holds index {anchors[unlabelled][0]}, which is not labelled positive")
    return anchors, scalar


def _leading_counts(ascending: np.ndarray, s_u: np.ndarray, offset, width: float, holds) -> np.ndarray:
    """Per query, how many leading scores of a descending row satisfy holds.

    ascending is the row negated, the form np.searchsorted reads. The queries
    are the entries of s_u + offset (broadcast), with |offset| <= width: query
    i asks about the edge near its centre s_u + offset, and holds(t, i) tests
    scores t against the queries i (flat indices) and must be true on a prefix
    of the row. Rounding moves an edge by a few ulp of |s_u| + width, so every
    score above the centre by the slack 2^-40 (|centre| + 2 width) holds and
    every score below it by as much fails: searchsorted brackets each count,
    and the scores between the brackets are settled by bisection that steps
    over a whole tie block at a time, so a count never splits a tie.
    """
    with np.errstate(over="ignore"):
        # clamped, an overflowing centre still brackets its edge: no finite score lies beyond the largest double
        centre = np.minimum(np.maximum(s_u + offset, -_LARGEST), _LARGEST)
        slack = 2.0**-40 * (np.abs(centre) + (2.0 * width + 2.0**-960))
        centre = -centre
        found = np.searchsorted(ascending, np.concatenate([centre - slack, centre + slack]), "right")
    counts, limits = found.reshape(2, -1)
    unsettled = (counts < limits).nonzero()[0]
    while unsettled.size:
        middle = ascending[(counts[unsettled] + limits[unsettled]) // 2]
        ok = holds(-middle, unsettled)
        # past the middle score's tie block when it holds, before it when it fails (-inf is before them all)
        with np.errstate(over="ignore"):
            below = np.nextafter(middle, -np.inf)
        edge = np.searchsorted(ascending, np.where(ok, middle, below), "right")
        counts[unsettled] = np.where(ok, edge, counts[unsettled])
        limits[unsettled] = np.where(ok, limits[unsettled], edge)
        unsettled = unsettled[counts[unsettled] < limits[unsettled]]
    return counts.reshape(centre.shape)


def _levels(x: np.ndarray, top: float):
    """ExtractScalar twice (Rump, Ogita & Oishi 2008): three parts of x that sum to x exactly.

    compute_ranks sums the levels in prefix sums over the score order;
    loss._certified_sums does one such split of its own per pair block. With
    top = 2**(106 - m) and |x| < 2**(106 - 2m), the first part holds
    multiples of 2**(53 - m), the second integers of magnitude at most
    2**(53 - m) + 1 and the third the rest, of magnitude at most 1. The parts
    come one at a time, in one buffer that the next part overwrites, so that
    a caller holds one extra array of x's size; x is overwritten.
    """
    part = np.empty_like(x)
    for level_top in (top, 2.0**53):
        np.subtract(np.add(x, level_top, out=part), level_top, out=part)
        np.subtract(x, part, out=x)
        yield part
    yield x


def compute_ranks(score_set: ScoreSet, u, delta: float = 0.5):
    """Smoothed (rank+, rank-) of positive anchor u.

    rank+ = 1 + sum over other positives of H(score[p] - score[u]);
    rank- = sum over all negatives of H(score[n] - score[u]).
    The leading 1 is the anchor's own contribution, so rank+ >= 1 always.
    H is the ramp of distance.step_distance. A score counts 1 (or 0) where
    the ramp of its rounded difference to the anchor reads 1 (or 0), so a
    difference that overflows counts as the ramp's limit; a score inside the
    ramp's window adds its exact (t - score[u] + delta) / (2 delta). With
    eps = 2**-53, n = len(score_set) and R the exact rank so defined,

        |rank - R| <= 5 eps R + eps (n + 2)**4 (|score[u]| / delta + 2) 2**-96.

    The ranks read the scores through the set's one order only, so they
    depend on the scores alone, bit for bit, not on the order of the
    elements in the set. The brute-force oracle, a pairwise scan, agrees to
    1e-12 and decides disputes.
    An int u gives two floats; an index array gives two arrays, one entry per anchor.
    """
    anchors, scalar = _check_anchors(score_set, u)
    delta = finite("delta", delta, gt=0)
    order = score_set.order
    row = score_set.scores[order]
    s_u = score_set.scores[anchors]

    def inside(t, rows):
        with np.errstate(over="ignore"):
            ramp = _ramp(t - s_u[rows % s_u.size], delta)
        return np.where(rows < s_u.size, ramp == 1, ramp > 0)

    # the anchor's window: the first edges[0] scores of the order have ramp 1, the first edges[1] ramp > 0
    edges = _leading_counts(-row, s_u, np.array([[delta], [-delta]]), delta, inside)
    # every score t lies below 2**c, c = exponent(max(|t|, delta)), and one window's scores span at most three
    # consecutive c. So one of two groupings of the c by fours holds each window in one group, whose top
    # exponent e sets the window's grid: the units 2**(e + 2m - 106), in which the first two split levels are
    # integers, and their prefix sums and the window sums below exact
    c = np.frexp(np.maximum(np.abs(row), delta))[1]
    window_c = np.maximum(c[edges[0]], c[edges[1] - 1])
    # the one group of [window_c - 2, window_c] tops at window_c rounded up to even
    window_e = (window_c + 1) & -2
    grouping = (window_e >> 1) & 1

    # each label's scores in the order form one block of by_label, after a leading slot that holds 0, so a
    # window is a range of each block, at[label, edge], and a prefix sum at j sums the first j entries
    labels = score_set.labels[order]
    positives = np.flatnonzero(labels == POSITIVE)
    by_label = np.concatenate([[0], positives, np.flatnonzero(labels == NEGATIVE)])
    n_pos = positives.size
    blocks = by_label[1 : n_pos + 1], by_label[n_pos + 1 :]
    at = np.concatenate([blocks[0].searchsorted(edges), blocks[1].searchsorted(edges) + n_pos]).reshape(2, 2, -1)
    m = (4 * len(score_set) + 7).bit_length()  # 2**m >= 4 (n + 2)
    top = 2.0 ** (106 - m)
    # the groupings some window uses; an anchor's window sums read only its own grouping's prefix sums
    used = np.flatnonzero(np.bincount(grouping, minlength=2))
    # the top exponent of c's group: (c + 3) & -4 in one grouping, ((c + 1) & -4) + 2 in the other
    grid = c[by_label] + _GROUP_SHIFT[used]
    grid &= -4
    np.subtract((106 - 2 * m) - _GROUP_OFFSET[used], grid, out=grid)
    entries = row[by_label]
    entries[0] = 0.0
    del labels, positives, by_label, blocks, row, c  # so that the set-sized arrays do not pile up
    # the prefix sums of each level under the groupings in use only, read at each window's edges in the row
    # of its grouping
    flat = used.searchsorted(grouping) * entries.size + at
    window = np.empty((3, 2, 2, s_u.size))
    for level, part in enumerate(_levels(np.ldexp(entries, grid), top)):
        np.take(np.cumsum(part, axis=1, out=part), flat, out=window[level])
    del entries, grid

    # s_u - delta on the window's grid: the anchor's parts equal those of its own entry. delta's first two
    # levels go into the exact window sums; the rest of delta, below the grid, counts on its own, so a
    # delta far below the grid of the scores near s_u still counts in full
    window_grid = (106 - 2 * m) - window_e
    x = np.empty((2, s_u.size))
    x[0], x[1] = s_u, delta
    parts = np.empty((3, 2, s_u.size))
    for level, part in enumerate(_levels(np.ldexp(x, window_grid, out=x), top)):
        parts[level] = part
    below_grid = 0.5 * ((delta - np.ldexp(parts[0, 1] + parts[1, 1], -window_grid)) / delta)
    offsets = parts[:, 0] - parts[:, 1]
    offsets[2] = parts[2, 0]
    k = at[:, 1] - at[:, 0]
    total = (window[:, :, 1] - window[:, :, 0]) - k * offsets[:, None]
    mantissa, exponent = math.frexp(delta)
    inner = np.ldexp(((total[0] + total[1]) + total[2]) / (2 * mantissa), -window_grid - exponent) + k * below_grid
    ranks = (at[:, 0] + [[0.5], [-n_pos]]) + inner
    return tuple(ranks[:, 0].tolist()) if scalar else tuple(ranks)


def valid_pair_indicator(p_u: float, p_v: float, threshold: float = 0.25) -> int:
    """1 when negative score p_v beats anchor score p_u by more than threshold."""
    p_u, p_v, threshold = finite("p_u", p_u), finite("p_v", p_v), finite("threshold", threshold, ge=0)
    return int(p_v - p_u > threshold)


def valid_negative_count(score_set: ScoreSet, u, threshold: float = 0.25):
    """Number of negatives t forming a valid error pair with anchor u: t - score[u] > threshold.

    The rounded difference is monotone in t, so the valid negatives are the highest-scoring
    ones, and each count is a count of leading negatives in the set's score order.
    An int u gives an int; an index array gives an int64 array, one count per anchor.
    """
    anchors, scalar = _check_anchors(score_set, u)
    threshold = finite("threshold", threshold, ge=0)
    s_u = score_set.scores[anchors]
    ascending = -score_set.scores[score_set.negatives_by_score]

    def valid(t, rows):
        with np.errstate(over="ignore"):  # an overflow to +-inf compares correctly
            return t - s_u[rows] > threshold

    counts = _leading_counts(ascending, s_u, threshold, threshold, valid)
    return int(counts[0]) if scalar else counts


def select_top_q_negatives(score_set: ScoreSet, budget: PairBudget) -> np.ndarray:
    """Indices of the q highest-scoring negatives, by descending score.

    Ties on score are broken by ascending original index, so every selection
    is a prefix of the next larger one; an unlimited or non-binding budget
    returns every negative in that order. The same selection serves every
    anchor; it is a read-only view of ScoreSet.negatives_by_score.
    """
    instance("score_set", score_set, ScoreSet)
    instance("budget", budget, PairBudget)
    return score_set.negatives_by_score[: budget.q]


def balance_constant(score_set: ScoreSet, u: int, config: LossConfig) -> float | None:
    """Denominator for anchor u under config, or None when the anchor is skipped.

    ranksum mode always yields a value >= 1 (the self term); negcount mode
    yields None when no negative clears the threshold.
    """
    instance("config", config, LossConfig)
    if config.pair_filter.mode is FilterMode.RANK_SUM:
        rank_plus, rank_minus = compute_ranks(score_set, u, config.distance.delta)
        return rank_plus + rank_minus
    n = valid_negative_count(score_set, u, config.pair_filter.threshold)
    return float(n) if n > 0 else None

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
prefix of the negatives in it, valid counts bisect their descending
scores, and each anchor's ranks sum one row of the positives' then the
negatives' scores in it. So selections, counts and ranks depend on the
scores alone, bit for bit, not on the order of the elements in the set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import _ramp
from .types import FilterMode, Label, LossConfig, PairBudget, ScoreSet, ValidationError, array, finite, instance, integer


@dataclass(frozen=True)
class RankStats:
    """Per-anchor bookkeeping emitted alongside the loss."""

    anchor_index: int
    rank_plus: float
    rank_minus: float
    balance_constant: float | None
    n_neg: int
    active_pairs: int


BLOCK_DOUBLES = 1 << 16  # most doubles one block of anchor rows holds, so memory stays bounded


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """Slices covering range(n_rows), each of at most BLOCK_DOUBLES // width rows (at least one)."""
    step = max(1, BLOCK_DOUBLES // max(width, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _check_anchors(score_set: ScoreSet, u) -> tuple[np.ndarray, bool]:
    """Anchor indices as a 1-D array, and whether u was a single index."""
    instance("score_set", score_set, ScoreSet)
    # np.ndim raises on a ragged list, so a list or tuple goes to array(), whose error names u
    scalar = not isinstance(u, (list, tuple)) and np.ndim(u) == 0
    anchors = np.atleast_1d(integer("u", u) if scalar else array("u", u, "iu"))
    if anchors.ndim != 1:
        raise ValidationError("u must be an index or a 1-D integer index array")
    outside = (anchors < 0) | (anchors >= len(score_set))
    if outside.any():
        raise ValidationError(f"u holds index {anchors[outside][0]}, out of range for a set of {len(score_set)}")
    unlabelled = score_set.labels[anchors] != Label.POSITIVE
    if unlabelled.any():
        raise ValidationError(f"u holds index {anchors[unlabelled][0]}, which is not labelled positive")
    return anchors, scalar


def _by_score(score_set: ScoreSet, label: Label) -> np.ndarray:
    """Indices labelled `label`, in the set's score order: descending score, ties by ascending index."""
    return score_set.order[score_set.labels[score_set.order] == label]


def compute_ranks(score_set: ScoreSet, u, delta: float = 0.5):
    """Smoothed (rank+, rank-) of positive anchor u.

    rank+ = 1 + sum over other positives of H(score[p] - score[u]);
    rank- = sum over all negatives of H(score[n] - score[u]).
    The leading 1 is the anchor's own contribution, so rank+ >= 1 always.
    Each anchor scans one row, the positives' then the negatives' scores in
    the set's score order, so the ranks depend on the scores alone, not on
    their order in the set; a difference that overflows counts 1 or 0.
    An int u gives two floats; an index array gives two arrays, one entry per anchor.
    """
    anchors, scalar = _check_anchors(score_set, u)
    delta = finite("delta", delta, gt=0)
    scores = score_set.scores
    pos = _by_score(score_set, Label.POSITIVE)
    row = scores[np.concatenate([pos, _by_score(score_set, Label.NEGATIVE)])]
    ranks = np.empty((2, anchors.size))
    for rows in row_blocks(anchors.size, row.size):
        # finite scores can differ by more than a double holds; the ramp reads the +-inf as its limit
        with np.errstate(over="ignore"):
            ramps = _ramp(row - scores[anchors[rows], None], delta)
        # the anchor's own ramp H(0) = 1/2 stays in its row; the other half completes the self term
        ranks[0, rows] = 0.5 + np.sum(ramps[:, : pos.size], axis=1)
        ranks[1, rows] = np.sum(ramps[:, pos.size :], axis=1)
    return tuple(ranks[:, 0].tolist()) if scalar else tuple(ranks)


def valid_pair_indicator(p_u: float, p_v: float, threshold: float = 0.25) -> int:
    """1 when negative score p_v beats anchor score p_u by more than threshold."""
    p_u, p_v, threshold = finite("p_u", p_u), finite("p_v", p_v), finite("threshold", threshold, ge=0)
    return int(p_v - p_u > threshold)


def valid_negative_count(score_set: ScoreSet, u, threshold: float = 0.25):
    """Number of negatives t forming a valid error pair with anchor u: t - score[u] > threshold.

    The rounded difference is monotone in t, so the valid negatives are the highest-scoring
    ones, and a binary search of the negatives in the set's score order finds each anchor's count.
    An int u gives an int; an index array gives an int64 array, one count per anchor.
    """
    anchors, scalar = _check_anchors(score_set, u)
    threshold = finite("threshold", threshold, ge=0)
    s_u = score_set.scores[anchors]
    neg_scores = score_set.scores[_by_score(score_set, Label.NEGATIVE)]
    counts = np.zeros(anchors.size, dtype=np.int64)
    # counts grow by powers of two while the predicate holds; an overflow to +-inf compares correctly
    with np.errstate(over="ignore"):
        for bit in reversed(range(neg_scores.size.bit_length())):
            wider = np.minimum(counts + (1 << bit), neg_scores.size)
            counts = np.where(neg_scores[wider - 1] - s_u > threshold, wider, counts)
    return int(counts[0]) if scalar else counts


def select_top_q_negatives(score_set: ScoreSet, budget: PairBudget) -> np.ndarray:
    """Indices of the q highest-scoring negatives, by descending score.

    Ties on score are broken by ascending original index, so every selection
    is a prefix of the next larger one; an unlimited or non-binding budget
    returns every negative in that order. The same selection serves every
    anchor.
    """
    instance("score_set", score_set, ScoreSet)
    instance("budget", budget, PairBudget)
    return _by_score(score_set, Label.NEGATIVE)[: budget.q]


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

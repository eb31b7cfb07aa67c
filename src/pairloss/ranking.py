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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import step_distance
from .types import FilterMode, Label, LossConfig, PairBudget, ScoreSet, ValidationError


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
    scalar = np.ndim(u) == 0
    anchors = np.atleast_1d(int(u) if scalar else np.asarray(u))
    if anchors.ndim != 1 or anchors.dtype.kind not in "iu":
        raise ValidationError("anchors must be an index or a 1-D integer index array")
    outside = (anchors < 0) | (anchors >= len(score_set))
    if outside.any():
        raise ValidationError(f"anchor index {anchors[outside][0]} out of range for set of {len(score_set)}")
    unlabelled = score_set.labels[anchors] != Label.POSITIVE
    if unlabelled.any():
        raise ValidationError(f"anchor index {anchors[unlabelled][0]} is not labelled positive")
    return anchors, scalar


def overflow_error(anchor) -> ValidationError:
    """The error for finite scores whose difference from anchor's score overflows a double."""
    return ValidationError(f"a score difference of anchor {anchor} overflows a double; score differences must be finite")


def compute_ranks(score_set: ScoreSet, u, rank_delta: float = 0.5):
    """Smoothed (rank+, rank-) of positive anchor u.

    rank+ = 1 + sum over other positives of H(score[p] - score[u]);
    rank- = sum over all negatives of H(score[n] - score[u]).
    The leading 1 is the anchor's own contribution, so rank+ >= 1 always.
    An int u gives two floats; an index array gives two arrays, one entry per anchor.
    """
    anchors, scalar = _check_anchors(score_set, u)
    if not (math.isfinite(rank_delta) and rank_delta > 0):
        raise ValidationError(f"rank_delta must be > 0, got {rank_delta!r}")
    scores = score_set.scores
    pos = score_set.positive_indices
    neg_scores = scores[score_set.negative_indices]
    # an anchor's own slot is dropped from its positive row, not zeroed, so each row is
    # the array a one-anchor call sums, and np.sum reduces it the same way
    others = np.arange(pos.size - 1)
    own = np.searchsorted(pos, anchors)[:, None]
    ranks = np.empty((2, anchors.size))
    # finite scores can differ by more than a double holds; step_distance rejects the inf
    with np.errstate(over="ignore"):
        for rows in row_blocks(anchors.size, pos.size + neg_scores.size):
            s_u = scores[anchors[rows], None]
            pos_diffs = scores[pos[others + (others >= own[rows])]] - s_u
            neg_diffs = neg_scores - s_u
            try:
                ranks[0, rows] = 1.0 + np.sum(step_distance(pos_diffs, rank_delta), axis=1)
                ranks[1, rows] = np.sum(step_distance(neg_diffs, rank_delta), axis=1)
            except ValidationError:
                finite = np.isfinite(pos_diffs).all(axis=1) & np.isfinite(neg_diffs).all(axis=1)
                raise overflow_error(anchors[rows][~finite][0]) from None
    return tuple(ranks[:, 0].tolist()) if scalar else tuple(ranks)


def valid_pair_indicator(p_u: float, p_v: float, threshold: float = 0.25) -> int:
    """1 when negative score p_v beats anchor score p_u by more than threshold."""
    p_u, p_v, threshold = float(p_u), float(p_v), float(threshold)
    if not (math.isfinite(p_u) and math.isfinite(p_v)):
        raise ValidationError("scores must be finite")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValidationError(f"threshold must be >= 0, got {threshold!r}")
    return int(p_v - p_u > threshold)


def valid_negative_count(score_set: ScoreSet, u, threshold: float = 0.25):
    """Number of negatives t forming a valid error pair with anchor u: t - score[u] > threshold.

    The rounded difference is monotone in t, so the valid negatives are the highest-scoring
    ones, and a binary search of the sorted scores finds each anchor's count.
    An int u gives an int; an index array gives an int64 array, one count per anchor.
    """
    anchors, scalar = _check_anchors(score_set, u)
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValidationError(f"threshold must be >= 0, got {threshold!r}")
    s_u = score_set.scores[anchors]
    neg_scores = np.sort(score_set.scores[score_set.negative_indices])
    counts = np.zeros(anchors.size, dtype=np.int64)
    # counts grow by powers of two while the predicate holds; an overflow to +-inf compares correctly
    with np.errstate(over="ignore"):
        for bit in reversed(range(neg_scores.size.bit_length())):
            wider = np.minimum(counts + (1 << bit), neg_scores.size)
            counts = np.where(neg_scores[-wider] - s_u > threshold, wider, counts)
    return int(counts[0]) if scalar else counts


def select_top_q_negatives(score_set: ScoreSet, budget: PairBudget) -> np.ndarray:
    """Indices of the q highest-scoring negatives, by descending score.

    Ties on score are broken by ascending original index, so every selection
    is a prefix of the next larger one; an unlimited or non-binding budget
    returns every negative in that order. The same selection serves every
    anchor.
    """
    if not isinstance(budget, PairBudget):
        raise ValidationError("budget must be a PairBudget")
    neg = score_set.negative_indices
    # stable sort on negated scores: equal scores keep ascending index order
    return neg[np.argsort(-score_set.scores[neg], kind="stable")[: budget.q]]


def balance_constant(score_set: ScoreSet, u: int, config: LossConfig) -> float | None:
    """Denominator for anchor u under config, or None when the anchor is skipped.

    ranksum mode always yields a value >= 1 (the self term); negcount mode
    yields None when no negative clears the threshold.
    """
    if config.pair_filter.mode is FilterMode.RANK_SUM:
        rank_plus, rank_minus = compute_ranks(score_set, u, config.distance.delta)
        return rank_plus + rank_minus
    n = valid_negative_count(score_set, u, config.pair_filter.threshold)
    return float(n) if n > 0 else None

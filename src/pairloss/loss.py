"""Forward loss and its two analytic gradient forms.

Per positive anchor u the loss is

    l(u) = sum over paired negatives v of D(score[v] - score[u]) / BC(u)

where D is the configured distance and BC(u) the balance constant, which is
treated as a constant under differentiation. The pair set is the global
top-q negative selection, which comes in descending score order; negcount
mode with filter_numerator keeps only its first n_neg negatives, which are
the anchor's valid errors.

Two gradient derivations are exposed as genuinely separate code paths:

  error-driven  accumulates sigmoid error masses S(score[v] - score[u]) and
                negates their sum at the anchor;
  autodiff-ce   walks the cross-entropy chain rule, whose lam factors cancel
                to d CE / d u = -S.

They are the same function in exact arithmetic; keeping both runnable is what
makes the equivalence testable. Either gradient call reports cross-entropy loss values
alongside the gradient.

Anchors are evaluated in row blocks: each block is one rows x width matrix
of score differences against the first `width` selected negatives, where
width is the largest kept count among its rows, and it holds at most
ranking.BLOCK_DOUBLES slots. A restricted row keeps a prefix of the
selection, and every kernel output is zeroed past it. Per-anchor pair sums
are exactly rounded, equal to math.fsum bit for bit and independent of pair
order: a compensated TwoSum tree sums a whole block and certifies each row's
rounding, and the rows it cannot certify (exact rounding midpoints,
overflow) go through math.fsum. Negative-side gradients add up in anchor
order, so results are bitwise independent of the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .distance import (
    ce_distance,
    ce_distance_grad_wrt_u,
    distance_value,
    sigmoid_distance,
)
from .ranking import (
    RankStats,
    compute_ranks,
    row_blocks,
    select_top_q_negatives,
    valid_negative_count,
)
from .types import (
    DistanceKind,
    FilterMode,
    GradientForm,
    LossConfig,
    Reduction,
    ScoreSet,
    ValidationError,
    instance,
)


def overflow_error(anchor) -> ValidationError:
    """The error for a kept pair of finite scores whose difference overflows a double."""
    return ValidationError(f"a score difference of anchor {anchor} overflows a double; score differences must be finite")


@dataclass(frozen=True)
class LossResult:
    """Outcome of one loss (and optionally gradient) evaluation.

    per_anchor_loss maps anchor index to its unreduced l(u); gradient is
    None for forward-only evaluation and has the reduction applied
    otherwise. truncated reports whether the pair budget actually cut the
    negative set; no_anchors flags a set without positive anchors (legal,
    loss 0).
    """

    total_loss: float
    per_anchor_loss: dict[int, float]
    gradient: np.ndarray | None
    stats: list[RankStats]
    truncated: bool
    no_anchors: bool = False

    @property
    def active_pairs(self) -> int:
        return sum(s.active_pairs for s in self.stats)


def _tree_sums(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of each column of a 2-D block, and a mask of the columns whose sum is proven exactly rounded.

    Every column holds values of one sign (all >= 0 or all <= 0); the block
    is scratch and is overwritten. A pairwise tree adds the top half of the
    live rows onto the bottom half, level by level, in double-double: hi
    parts through the error-free TwoSum, lo parts (the TwoSum errors) in
    plain doubles. Columns run along the fast axis, so each level is a few
    contiguous whole-array operations.

    Certificate. Let u = 2^-53, d the number of levels and S the exact
    column sum. A TwoSum error is at most u times its rounded sum; the sums
    of one level cover disjoint parts of a one-sign column, so they add to
    at most (1 + u)^d |S| and the errors of all levels to at most
    d u (1 + u)^d |S|. Each error reaches the root lo through at most 3d
    plain additions (three per level), so lo is off by at most gamma_3d
    times that, 3 d^2 u^2 |S| (1 + 2^-40) for d <= 64. One more TwoSum
    gives hi + lo = r + t exactly, so |S - r| <= |t| + that, and
    |S| <= (1 + 2u) |r|. The bound 4 d^2 u^2 |r| covers it, with room for
    the rounding of its own product (below the normal range the true error
    is a multiple of 2^-1074, which round-to-nearest cannot undercut). When
    2 (|t| + bound) < |r| - nextafter(|r|, 0), the smaller spacing next to
    r, S lies strictly inside r's rounding interval; rounding is monotone,
    so the comparison is safe in floating point. A one-sign column sums to
    0 only when all of it is zero, which is exact. What fails are exact
    rounding midpoints, sums within the bound of one, and non-finite r.
    Zero sums come back as +0.0, as math.fsum returns them: x - x is +0.0
    under round-to-nearest, so a zero sum's a-side TwoSum error, its lo
    and hi + lo are all +0.0.
    """
    width, n = cols.shape
    if width <= 1:
        return (cols[0] + 0.0 if width else np.zeros(n)), np.ones(n, dtype=bool)
    cur, nxt, lo = cols, np.empty_like(cols), np.empty(((width + 1) // 2, n))
    depth = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing column reads non-finite and fails
        while width > 1:
            h = width // 2
            a, b, s, bp, low = cur[:h], cur[h : 2 * h], nxt[:h], nxt[h : 2 * h], lo[:h]
            np.add(a, b, out=s)
            np.subtract(s, a, out=bp)
            np.subtract(b, bp, out=b)  # b's rounding error
            np.subtract(s, bp, out=bp)
            np.subtract(a, bp, out=a)  # a's rounding error
            if depth:
                low += lo[h : 2 * h]
                low += a
                low += b
            else:
                np.add(a, b, out=low)
            if width % 2:
                nxt[h] = cur[2 * h]
                lo[h] = lo[2 * h] if depth else 0.0
            cur, nxt = nxt, cur
            width = h + width % 2
            depth += 1
        hi, low = cur[0], lo[0]
        r = hi + low
        bp = r - hi
        t = (hi - (r - bp)) + (low - bp)
        size = np.abs(r)
        bound = 4 * depth * depth * 2.0**-106 * size
        certified = (2.0 * (np.abs(t) + bound) < size - np.nextafter(size, 0.0)) | (r == 0.0)
    return r, certified


def _row_sums(block: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-D block, bit for bit.

    Every row holds values of one sign; a restricted row is +0.0 past its
    prefix, which changes neither fsum nor the tree's sum. Rows the tree sum
    cannot certify go through math.fsum; a row whose sum overflows raises
    ValidationError naming its anchor.
    """
    sums, certified = _tree_sums(block.T.copy())
    for i in np.flatnonzero(~certified):
        try:
            sums[i] = fsum(block[i].tolist())
        except OverflowError:
            raise ValidationError(f"pair sum of anchor {anchors[i]} overflows") from None
    return sums


def _evaluate(score_set: ScoreSet, config: LossConfig, form: GradientForm | None) -> LossResult:
    """The loss under config, plus the gradient by `form` unless form is None."""
    instance("score_set", score_set, ScoreSet)
    instance("config", config, LossConfig)
    if form is GradientForm.ERROR_DRIVEN and not config.distance.is_smooth:
        raise ValidationError(f"gradients need a sigmoid or ce-sigmoid distance, got {config.distance.kind.value}")
    if form is GradientForm.AUTODIFF_CE and config.distance.kind is not DistanceKind.CE_SIGMOID:
        raise ValidationError("autodiff-ce gradient needs the ce-sigmoid distance")

    want_grad = form is not None
    scores = score_set.scores
    pos = score_set.positive_indices
    n = len(score_set)
    sel = select_top_q_negatives(score_set, config.budget)
    truncated = sel.size < score_set.negative_indices.size

    if pos.size == 0:
        grad = np.zeros(n) if want_grad else None
        return LossResult(0.0, {}, grad, [], truncated, no_anchors=True)

    restrict = config.pair_filter.mode is FilterMode.VALID_NEG_COUNT and config.pair_filter.filter_numerator
    lam = config.distance.lam

    n_neg = valid_negative_count(score_set, pos, config.pair_filter.threshold)
    if config.pair_filter.mode is FilterMode.RANK_SUM:
        rank_plus, rank_minus = compute_ranks(score_set, pos, config.distance.delta)
        bc = rank_plus + rank_minus
    else:
        rank_plus, rank_minus = np.ones(pos.size), n_neg.astype(np.float64)
        bc = rank_minus
    # ranksum constants are >= 1; a zero negcount constant skips its anchor
    live = np.flatnonzero(bc > 0)

    # an anchor's valid negatives are its n_neg highest-scoring ones, so a restricted row is a prefix of sel
    active = np.where(bc > 0, np.minimum(n_neg, sel.size) if restrict else sel.size, 0)
    loss = np.zeros(pos.size)
    grad = np.zeros(n) if want_grad else None
    for rows in row_blocks(live.size, int(active.max(initial=0))):
        at = live[rows]
        anchors, b = pos[at], bc[at]
        negs = sel[: active[at].max()]
        # the slots past each row's kept prefix; their kernel outputs are zeroed, as no finite difference
        # written there would give exactly zero at every lam
        tail = np.arange(negs.size) >= active[at, None]
        with np.errstate(over="ignore"):  # an overflowed difference fails the distance kernel's finiteness check
            pair_diffs = scores[negs] - scores[anchors, None]
        try:
            values = ce_distance(pair_diffs, lam) if want_grad else distance_value(pair_diffs, config.distance)
        except ValidationError:
            overflowed = ~(np.isfinite(pair_diffs) | tail).all(axis=1)
            if not overflowed.any():
                raise  # the kernel's own refusal, such as a lam whose cross-entropy overflows
            raise overflow_error(anchors[overflowed.argmax()]) from None
        values[tail] = 0.0
        loss[at] = _row_sums(values, anchors) / b
        if not want_grad:
            continue
        # anchors add onto 0.0, so an anchor without pair mass reads +0.0, never -0.0;
        # np.add.at adds pairs one by one in row order, so each negative sums in anchor order
        if form is GradientForm.ERROR_DRIVEN:
            masses = sigmoid_distance(pair_diffs, lam)
            masses[tail] = 0.0
            grad[anchors] += -_row_sums(masses, anchors) / b
            np.add.at(grad, np.tile(negs, at.size), (masses / b[:, None]).ravel())
        else:
            slopes = ce_distance_grad_wrt_u(pair_diffs, lam)
            slopes[tail] = 0.0
            grad[anchors] += _row_sums(slopes, anchors) / b
            np.add.at(grad, np.tile(negs, at.size), (-slopes / b[:, None]).ravel())

    n_pos = pos.size
    try:
        total = fsum(loss.tolist())
    except OverflowError:
        raise ValidationError("total loss overflows") from None
    if config.reduction is Reduction.MEAN_OVER_POSITIVES:
        total /= n_pos
        if want_grad:
            grad /= n_pos

    anchors = pos.tolist()
    bc_or_none = [b if b > 0 else None for b in bc.tolist()]
    stats = [
        RankStats(*row)
        for row in zip(anchors, rank_plus.tolist(), rank_minus.tolist(), bc_or_none, n_neg.tolist(), active.tolist())
    ]
    return LossResult(float(total), dict(zip(anchors, loss.tolist())), grad, stats, truncated)


def evaluate_loss(score_set: ScoreSet, config: LossConfig) -> LossResult:
    """Forward evaluation under the configured distance; gradient is None."""
    return _evaluate(score_set, config, None)


def gradient_error_driven(score_set: ScoreSet, config: LossConfig) -> LossResult:
    """Loss plus gradient via accumulated sigmoid error masses."""
    return _evaluate(score_set, config, GradientForm.ERROR_DRIVEN)


def gradient_autodiff_ce(score_set: ScoreSet, config: LossConfig) -> LossResult:
    """Loss plus gradient via the cross-entropy chain rule."""
    return _evaluate(score_set, config, GradientForm.AUTODIFF_CE)


def evaluate_with_gradient(score_set: ScoreSet, config: LossConfig) -> LossResult:
    """Dispatch to the gradient form named in the config."""
    instance("config", config, LossConfig)
    if config.gradient_form is GradientForm.AUTODIFF_CE:
        return gradient_autodiff_ce(score_set, config)
    return gradient_error_driven(score_set, config)

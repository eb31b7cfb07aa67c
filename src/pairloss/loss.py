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

A kept score difference that overflows a double is refused before any
pair is evaluated: the selection descends, so two differences per live
anchor, against the first selected negative and against its last kept one,
bound all of its kept differences (the gate's comment in _evaluate proves
that they also bound the differences past a restricted row's prefix). So
the distance kernels only ever see finite differences, and an overflow they
report is their own, such as a lam whose cross-entropy overflows.

Anchors are evaluated in row blocks: each block is one rows x width matrix
of score differences against the first `width` selected negatives, where
width is the largest kept count among its rows, and it holds at most
BLOCK_DOUBLES slots. A restricted row keeps a prefix of the selection, and
every kernel output is zeroed past it. Per-anchor pair sums are exactly
rounded, equal to math.fsum bit for bit and independent of pair order: one
ExtractScalar split per block, on a power-of-two grid set by the block's
peak, gives each row a sum of parts that is exact and a sum of remainders
whose rounding a bound in the block width certifies; the rows it cannot
certify (sums within the bound of a rounding boundary, exact midpoints
included, sums far below the block's peak, and every row of a block whose
peak lies near either end of the double range, where every sum that
overflows lies) go through math.fsum. Negative-side gradients are folded
block by block into one carried array over the selection, row after row, so
each negative's terms add up in anchor order and results are bitwise
independent of the block size.

A call of PIPELINE_MIN_BLOCKS blocks or more runs its blocks in two stages.
The calling thread computes each block's score differences and distance
kernels; one reducing thread per process, started on first use, takes the
rest, the row sums, the divide by the balance constants, the column fold and
the writes into the loss, gradient and carried arrays, one step after
another in the order a single thread would run them. So the fold still adds
each negative's terms in anchor order on one thread, and every result keeps
its bits whether or not a call is pipelined. The calling thread reduces the
call's last block itself once the handed steps are done. An error keeps its
place too: a handed step's error is raised once every handed step is done,
and before any error of a later kernel. Each handed step runs in a copy of
the caller's context, so a caller's np.errstate holds on the reducing
thread. Fewer blocks than PIPELINE_MIN_BLOCKS are reduced on the calling
thread between the kernels, as one loop would: waking an idle thread costs
more than a few blocks' reductions save.

A LossResult holds the per-anchor columns that the evaluation computes as
read-only arrays; its per_anchor_loss dict and its RankStats list are built
from them on first read and cached, so an evaluation, and each step of a
descent, builds no per-anchor Python object.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from math import frexp, fsum, ldexp
from queue import SimpleQueue

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


@dataclass(frozen=True, eq=False)
class LossResult:
    """Outcome of one loss (and optionally gradient) evaluation.

    gradient is None for forward-only evaluation and has the reduction
    applied otherwise. truncated reports whether the pair budget actually cut
    the negative set. The per-anchor columns are read-only arrays, one entry
    per positive anchor in index order: anchors, their unreduced losses l(u),
    rank+ and rank-, balance constants (0 for a skipped negcount anchor) and
    kept pair counts. n_neg, the valid-negative counts, is one more such
    column, computed by count_valid on first read and cached, as only
    negcount's balance constants need it during evaluation. per_anchor_loss,
    which maps anchor index to l(u), and stats, one RankStats per anchor, are
    views of those columns, built on first read and cached. no_anchors flags
    a set without positive anchors (legal, loss 0). Results compare and hash
    by identity, as ScoreSet does.
    """

    total_loss: float
    gradient: np.ndarray | None
    truncated: bool
    anchors: np.ndarray
    losses: np.ndarray
    rank_plus: np.ndarray
    rank_minus: np.ndarray
    balance_constants: np.ndarray
    kept: np.ndarray
    count_valid: Callable[[], np.ndarray]

    def __post_init__(self) -> None:
        for column in self.anchors, self.losses, self.rank_plus, self.rank_minus, self.balance_constants, self.kept:
            column.flags.writeable = False

    @property
    def no_anchors(self) -> bool:
        return self.anchors.size == 0

    @property
    def active_pairs(self) -> int:
        return int(self.kept.sum())

    @cached_property
    def n_neg(self) -> np.ndarray:
        counts = self.count_valid()
        counts.flags.writeable = False
        return counts

    @cached_property
    def per_anchor_loss(self) -> dict[int, float]:
        return dict(zip(self.anchors.tolist(), self.losses.tolist()))

    @cached_property
    def stats(self) -> list[RankStats]:
        bc_or_none = [b if b > 0 else None for b in self.balance_constants.tolist()]
        ranks = self.rank_plus.tolist(), self.rank_minus.tolist()
        rows = zip(self.anchors.tolist(), *ranks, bc_or_none, self.n_neg.tolist(), self.kept.tolist())
        return [RankStats(*row) for row in rows]


BLOCK_DOUBLES = 1 << 16  # most doubles one block of anchor rows holds, so memory stays bounded
PIPELINE_MIN_BLOCKS = 8  # fewest row blocks in a call that hand their reductions to the reducing thread


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """Slices covering range(n_rows), each of at most BLOCK_DOUBLES // width rows (at least one)."""
    step = max(1, BLOCK_DOUBLES // max(width, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _certified_sums(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of each row of a 2-D block, and a mask of the rows whose sum is proven exactly rounded.

    Every row holds values of one sign, and every caller's rows are >= 0. Let
    u = 2^-53, w the width, e the exponent of the block's peak, the larger of
    0 and its largest value (the peak lies in [2**(e - 1), 2**e), and e = 0
    for a peak of 0), k = e + m with 2**m >= 4 (w + 2) as in
    ranking.compute_ranks, and sigma = -2**k: one constant for the whole
    block, as AccSum takes one sigma from the largest |x| of a vector (Rump,
    Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008). One ExtractScalar split
    of the block: for every x of a row >= 0, x <= the peak < 2**(k - m), so
    x + sigma lies in [2**(k - 1), 2**k] in magnitude, where doubles are
    spaced 2**(k - 53), and subtracting sigma is exact (Sterbenz), so
    part = (x + sigma) - sigma is x rounded to that grid and rest = x - part
    is exact, with |rest| <= 2**(k - 54). The parts are multiples of 2**(k - 53) of
    magnitude at most 2**e, and a row holds fewer than 2**(m - 2) of them, so
    every partial sum of parts lies below 2**(k - 2) and is a double: their
    sum along the row is exact in any order. The sum of the rests is off by
    at most gamma_(w - 1) w 2**(k - 54) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, eq. 4.4), whatever order numpy adds in.

    Certificate. With S the exact row sum, TwoSum joins the two: hi + t is
    exactly first + low, so |S - hi| <= |t| + gamma_(w - 1) w 2**(k - 54).
    The bound w^2 2**(k - 106) / (1 - w u) is at least twice the last term;
    the slack covers its own rounding and that of |t| + bound. When
    2 (|t| + bound) < hi - nextafter(hi, 0), the smaller spacing next to a
    positive hi, S lies strictly inside hi's rounding interval; rounding is
    monotone, so the comparison is safe in floating point. In any block,
    each part of a row has the row's sign or is 0, and a rest of the other
    sign is at most half its part, so hi has the row's sign, or is NaN where
    the row overflows: hi == 0 holds only for a row of zeros, whose sum is
    +0.0, as math.fsum returns it, and a row of negative values, whose hi
    is negative, is never certified. The other rows left uncertified, for
    math.fsum to decide, are:
      - every row of a block with k > 1023, where sigma would overflow. A
        row of a block with k <= 1023 sums to less than w 2**e < 2**(k - 2)
        <= 2**1021, so every row whose sum overflows lies in such a block;
      - every row of a block with k < -916, where the bound's unit
        2**(k - 106) leaves the normal range and so would round with an
        absolute, not a relative, error (every block whose peak lies below
        2**-1000 is one);
      - a row whose sum lies within the bound of a rounding boundary, exact
        midpoints included. As w < 2**(m - 2), twice the bound is below
        2**(3m - 55) of the spacing next to hi in the worst case, hi near
        the peak, where that spacing is at least 2**(e - 54): at widths up
        to 16 382 (m <= 16) that leaves 7 bits of margin, while a 99 800-wide
        row (m = 19) whose one value dominates keeps none and goes to
        math.fsum;
      - a row whose sum lies far below the block's peak, under about
        w^2 2**(k - 52), where twice the bound passes the spacing next to hi.
    Such blocks still run through the split, with sigma capped at -2**1023;
    x + sigma overflows only in a row of negative values.
    """
    width = block.shape[1]
    m = (4 * width + 7).bit_length()  # 2**m >= 4 (width + 2)
    k = frexp(block.max(initial=0.0))[1] + m
    sigma = -ldexp(1.0, min(k, 1023))
    bound = ldexp(width * width * 2.0**-106 / (1.0 - width * 2.0**-53), k)
    with np.errstate(over="ignore", invalid="ignore"):  # only uncertified rows overflow
        part = np.add(block, sigma, out=np.empty_like(block))
        part -= sigma
        first = part.sum(axis=1)
        low = np.subtract(block, part, out=part).sum(axis=1)
        hi = first + low
        bp = hi - first
        t = (first - (hi - bp)) + (low - bp)
        certified = 2.0 * (np.abs(t) + bound) < hi - np.nextafter(hi, 0.0)
    certified &= -916 <= k <= 1023
    certified |= hi == 0.0
    return hi, certified


def _row_sums(block: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-D block, bit for bit.

    Every row holds values of one sign; a restricted row is +0.0 past its
    prefix, which changes neither fsum nor the split sums. _certified_sums
    sums the whole block by one ExtractScalar split against one constant,
    set by the block's peak, and certifies each row's rounding; the rows it
    cannot certify, a row of negative values among them, go through
    math.fsum, and a row whose sum overflows raises ValidationError naming
    its anchor.
    """
    sums, certified = _certified_sums(block)
    for i in np.flatnonzero(~certified):
        try:
            sums[i] = fsum(block[i].tolist())
        except OverflowError:
            raise ValidationError(f"pair sum of anchor {anchors[i]} overflows") from None
    return sums


def _fold_rows(carry: np.ndarray, block: np.ndarray) -> None:
    """Add the rows of a 2-D C-contiguous block into carry[:width] one after another, overwriting the block.

    Each entry of carry gets its column's terms in row order, bit for bit as
    a loop over the rows would add them, which is what makes the negative
    side of the gradient independent of the block size. numpy reduces a
    block of two or more columns along axis 0 row by row; a single column
    is one contiguous run, which np.add.reduce would sum pairwise, so it
    goes through np.add.accumulate, which adds in order.
    """
    width = block.shape[1]
    block[0] += carry[:width]
    if width == 1:
        carry[0] = np.add.accumulate(block[:, 0])[-1]
    else:
        np.add.reduce(block, axis=0, out=carry[:width])


def _reduce_losses(loss: np.ndarray, at: np.ndarray, anchors: np.ndarray, b: np.ndarray, values: np.ndarray) -> None:
    """Reduce one block's distance values into its anchors' losses."""
    loss[at] = _row_sums(values, anchors) / b


def _reduce_pulls(grad: np.ndarray, carry: np.ndarray, anchors: np.ndarray, b: np.ndarray, pull: np.ndarray) -> None:
    """Reduce one block's pulls into its anchors' gradients, and fold them into the negatives' carry."""
    # anchors add onto 0.0, so an anchor without pair mass reads +0.0, never -0.0
    grad[anchors] += -_row_sums(pull, anchors) / b
    np.divide(pull, b[:, None], out=pull)
    _fold_rows(carry, pull)


_reducers: dict[int, SimpleQueue] = {}  # the task queue of each process's reducing thread, by process id


def _reducing_thread() -> SimpleQueue:
    """The task queue of this process's reducing thread, started on first use.

    Queues are keyed by process id: a child forked after the thread started
    has no such thread, and starts its own. Two first calls at once may each
    start one; each call still hands its steps to a queue that a thread serves.
    """
    tasks = _reducers.get(os.getpid())
    if tasks is None:
        tasks = _reducers[os.getpid()] = SimpleQueue()
        threading.Thread(target=_reduce_forever, args=(tasks,), name="pairloss-reducer", daemon=True).start()
    return tasks


def _reduce_forever(tasks: SimpleQueue) -> None:
    while True:
        _reduce_one(*tasks.get())


def _reduce_one(context: contextvars.Context, step: Callable[[], None], done: SimpleQueue) -> None:
    # run in a function of its own, so no buffer of a finished step stays referenced while the thread waits
    try:
        context.run(step)
    except BaseException as error:
        done.put(error)
    else:
        done.put(None)


class _Reduction:
    """The reducing stage of one evaluation: its steps run in the order they are given.

    A handed step goes to the reducing thread, in a copy of the caller's
    context, and at most `most` handed steps wait unfinished, each holding
    one block-sized buffer; a step run here first waits for every handed
    one. Without handing, every step runs here at once.
    """

    def __init__(self, handing: bool, most: int) -> None:
        self._tasks = _reducing_thread() if handing else None
        self._done: SimpleQueue = SimpleQueue()
        self._in_flight = 0
        self._most = most

    def run(self, step: Callable[[], None], here: bool) -> None:
        if self._tasks is None or here:
            self.wait(0)
            step()
        else:
            self._tasks.put((contextvars.copy_context(), step, self._done))
            self._in_flight += 1
            self.wait(self._most)

    def wait(self, most: int) -> None:
        """Wait until at most `most` handed steps are unfinished, or all are once one failed; raise the first error."""
        error = None
        while self._in_flight > most or (error is not None and self._in_flight):
            failed = self._done.get()
            self._in_flight -= 1
            error = error or failed
        if error is not None:
            raise error


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
    truncated = sel.size < score_set.negatives_by_score.size

    # ranksum reads no valid-negative count, so its result counts them on the first read of n_neg
    count_valid = partial(valid_negative_count, score_set, pos, config.pair_filter.threshold)
    if pos.size == 0:
        grad = np.zeros(n) if want_grad else None
        empty = np.zeros(0)
        return LossResult(0.0, grad, truncated, pos, empty, empty, empty, empty, pos, count_valid)

    restrict = config.pair_filter.mode is FilterMode.VALID_NEG_COUNT and config.pair_filter.filter_numerator
    lam = config.distance.lam

    if config.pair_filter.mode is FilterMode.RANK_SUM:
        rank_plus, rank_minus = compute_ranks(score_set, pos, config.distance.delta)
        bc = rank_plus + rank_minus
    else:
        n_neg = count_valid()
        count_valid = partial(np.asarray, n_neg)
        rank_plus, rank_minus = np.ones(pos.size), n_neg.astype(np.float64)
        bc = rank_minus
    # ranksum constants are >= 1; a zero negcount constant skips its anchor
    live = np.flatnonzero(bc > 0)

    # an anchor's valid negatives are its n_neg highest-scoring ones, so a restricted row is a prefix of sel
    active = np.where(bc > 0, np.minimum(n_neg, sel.size) if restrict else sel.size, 0)
    width = int(active.max(initial=0))
    sel_scores = scores[sel[:width]]
    if width:
        # one overflow gate for every block below, on two differences per live anchor. With t_0 >= t_1 >= ...
        # the selected scores, rounding is monotone, so each kept difference t_j - s_u lies between t_0 - s_u
        # and t_(a-1) - s_u, a the anchor's kept count. A slot past a restricted row's prefix cannot overflow
        # alone either: say t_j - s_u2 overflows there, and row u1 keeps column j. Both rows are live, so
        # t_0 - s_u2 > T and t_j - s_u1 > T for the threshold T >= 0, and
        #     t_0 - s_u1 = (t_0 - s_u2) + (s_u2 - t_j) + (t_j - s_u1) >= s_u2 - t_j,
        # which is past the largest double: u1 overflows at its first slot. So the kernels see finite
        # differences only, and the first anchor named here is the first a block would meet
        s_live = scores[pos[live]]
        with np.errstate(over="ignore"):
            over = (sel_scores[0] - s_live == np.inf) | (sel_scores[active[live] - 1] - s_live == -np.inf)
        if over.any():
            anchor = pos[live[over.argmax()]]
            raise ValidationError(f"a score difference of anchor {anchor} overflows a double; score differences must be finite")
    loss = np.zeros(pos.size)
    grad = np.zeros(n) if want_grad else None
    carry = np.zeros(width)  # negative-side gradient by position in the selection
    blocks = row_blocks(live.size, width)
    reduction = _Reduction(len(blocks) >= PIPELINE_MIN_BLOCKS, 4 if want_grad else 2)
    try:
        for number, rows in enumerate(blocks, 1):
            here = number == len(blocks)
            at = live[rows]
            anchors, b, kept = pos[at], bc[at], active[at]
            w = int(kept.max())
            # the slots past each row's kept prefix; their kernel outputs are zeroed, as no finite difference
            # written there would give exactly zero at every lam
            tail = np.arange(w) >= kept[:, None] if kept.min() < w else None
            pair_diffs = sel_scores[:w] - scores[anchors, None]
            values = ce_distance(pair_diffs, lam) if want_grad else distance_value(pair_diffs, config.distance)
            if tail is not None:
                values[tail] = 0.0
            reduction.run(partial(_reduce_losses, loss, at, anchors, b, values), here)
            if not want_grad:
                continue
            # each pair pulls its anchor down and its negative up by one amount: its sigmoid error mass, or
            # its negated cross-entropy slope -d CE / d u
            if form is GradientForm.ERROR_DRIVEN:
                pull = sigmoid_distance(pair_diffs, lam)
            else:
                pull = ce_distance_grad_wrt_u(pair_diffs, lam)
                np.negative(pull, out=pull)
            if tail is not None:
                pull[tail] = 0.0
            reduction.run(partial(_reduce_pulls, grad, carry, anchors, b, pull), here)
    except BaseException:
        reduction.wait(0)  # a handed step's error comes first, as it would in one loop
        raise
    if want_grad:
        grad[sel[:width]] = carry

    n_pos = pos.size
    try:
        total = fsum(loss.tolist())
    except OverflowError:
        raise ValidationError("total loss overflows") from None
    if config.reduction is Reduction.MEAN_OVER_POSITIVES:
        total /= n_pos
        if want_grad:
            grad /= n_pos

    return LossResult(float(total), grad, truncated, pos, loss, rank_plus, rank_minus, bc, active, count_valid)


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

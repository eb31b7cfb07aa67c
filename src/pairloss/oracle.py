"""Independent reference implementations used to verify the main loss path.

Two oracles, deliberately sharing no kernel, summation, or selection code
with the distance/ranking/loss modules:

  brute_force_loss             walks every (anchor, negative) pair in pure
                               Python with math-module scalar kernels and
                               naive accumulation;
  finite_difference_gradient   central differences of the oracle's own
                               forward pass, with balance constants frozen
                               at their unperturbed values to mirror the
                               constant-under-differentiation rule.

gradient_check is the comparator: it runs the main analytic gradient against
central differences and reports the worst per-coordinate relative error. The
relative error uses the denominator max(|analytic|, |fd|, 1e-4): central
differences at epsilon = 1e-6 carry an absolute noise floor near 1e-10, so a
purely relative comparison on near-zero coordinates would measure roundoff,
not correctness. The floor is part of the pinned contract, not a tunable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import evaluate_with_gradient
from .types import (
    DistanceKind,
    FilterMode,
    Label,
    LossConfig,
    Reduction,
    ScoreSet,
    ValidationError,
    finite,
    instance,
    real,
)

BRUTE_FORCE_LIMIT = 2000
EPSILON_MIN = 1e-9
EPSILON_MAX = 1e-3
DENOMINATOR_FLOOR = 1e-4


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of an analytic-vs-finite-difference comparison."""

    max_rel_error: float
    worst_index: int
    epsilon: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class BruteForceResult:
    """Plain-Python mirror of a loss evaluation."""

    total_loss: float
    per_anchor_loss: dict[int, float]
    gradient: list[float] | None


def _bf_ramp(x: float, delta: float) -> float:
    t = 0.5 + 0.5 * (x / delta)
    if t < 0.0:
        return 0.0
    if t > 1.0:
        return 1.0
    return t


def _bf_sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _bf_softplus(z: float) -> float:
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def _bf_ce(x: float, lam: float) -> float:
    value = _bf_softplus(lam * x) / lam
    # CE(x) -> x as lam * x grows, so x is the value where this overflows
    return x if value == math.inf else value


def _bf_distance(x: float, config: LossConfig) -> float:
    spec = config.distance
    if spec.kind is DistanceKind.STEP:
        return _bf_ramp(x, spec.delta)
    if spec.kind is DistanceKind.SIGMOID:
        return _bf_sigmoid(spec.lam * x)
    return _bf_ce(x, spec.lam)


def _bf_top_q(scores: list[float], neg: list[int], q: int | None) -> list[int]:
    if q is None or len(neg) <= q:
        return list(neg)
    ranked = sorted(neg, key=lambda i: (-scores[i], i))
    return sorted(ranked[:q])


def _bf_balance(
    scores: list[float], pos: list[int], neg: list[int], u: int, config: LossConfig
) -> float | None:
    s_u = scores[u]
    if config.pair_filter.mode is FilterMode.RANK_SUM:
        rank_plus = 1.0
        for p in pos:
            if p != u:
                rank_plus += _bf_ramp(scores[p] - s_u, config.distance.delta)
        rank_minus = 0.0
        for v in neg:
            rank_minus += _bf_ramp(scores[v] - s_u, config.distance.delta)
        return rank_plus + rank_minus
    count = 0
    for v in neg:
        if scores[v] - s_u > config.pair_filter.threshold:
            count += 1
    return float(count) if count > 0 else None


def _bf_forward(
    scores: list[float],
    pos: list[int],
    neg: list[int],
    config: LossConfig,
    balance: dict[int, float | None],
    ce_only: bool,
    want_gradient: bool,
) -> BruteForceResult:
    restrict = (
        config.pair_filter.mode is FilterMode.VALID_NEG_COUNT
        and config.pair_filter.filter_numerator
    )
    threshold = config.pair_filter.threshold
    lam = config.distance.lam
    sel = _bf_top_q(scores, neg, config.budget.q)
    grad = [0.0] * len(scores) if want_gradient else None
    per_anchor: dict[int, float] = {}
    total = 0.0
    for u in pos:
        bc = balance[u]
        if bc is None:
            per_anchor[u] = 0.0
            continue
        s_u = scores[u]
        acc = 0.0
        for v in sel:
            x = scores[v] - s_u
            if restrict and not x > threshold:
                continue
            if ce_only:
                acc += _bf_ce(x, lam)
            else:
                acc += _bf_distance(x, config)
            if grad is not None:
                mass = _bf_sigmoid(lam * x)
                grad[u] -= mass / bc
                grad[v] += mass / bc
        loss_u = acc / bc
        per_anchor[u] = loss_u
        total += loss_u
    if config.reduction is Reduction.MEAN_OVER_POSITIVES and pos:
        total /= len(pos)
        if grad is not None:
            grad = [g / len(pos) for g in grad]
    return BruteForceResult(total, per_anchor, grad)


def _check_inputs(score_set: ScoreSet, config: LossConfig) -> None:
    instance("score_set", score_set, ScoreSet)
    instance("config", config, LossConfig)
    if len(score_set) > BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"brute-force oracle refuses sets larger than {BRUTE_FORCE_LIMIT} "
            f"elements, got {len(score_set)}"
        )


def brute_force_loss(score_set: ScoreSet, config: LossConfig) -> BruteForceResult:
    """Pure-Python re-evaluation of the forward loss, plus gradient when smooth.

    The reported loss uses the configured distance, matching evaluate_loss;
    the gradient (None for the step distance) uses the error-mass form,
    matching either analytic gradient path.
    """
    _check_inputs(score_set, config)
    scores = [float(s) for s in score_set.scores]
    pos = [int(i) for i in score_set.positive_indices]
    neg = [int(i) for i in score_set.negative_indices]
    balance = {u: _bf_balance(scores, pos, neg, u, config) for u in pos}
    want_gradient = config.distance.is_smooth
    return _bf_forward(scores, pos, neg, config, balance, False, want_gradient)


def gradcheck_arguments(epsilon: float = 1e-6, tolerance: float = 1e-5) -> dict:
    """The checked epsilon and tolerance of a gradient check, as keywords of gradient_check.

    tolerance must be > 0 and epsilon must lie in [1e-9, 1e-3]; tolerance is checked first.
    """
    tolerance = finite("tolerance", tolerance, gt=0)
    epsilon = real("epsilon", epsilon)
    if not EPSILON_MIN <= epsilon <= EPSILON_MAX:
        raise ValidationError(f"epsilon must lie in [{EPSILON_MIN:g}, {EPSILON_MAX:g}], got {epsilon!r}")
    return {"epsilon": epsilon, "tolerance": tolerance}


def finite_difference_gradient(
    score_set: ScoreSet, config: LossConfig, epsilon: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of the cross-entropy loss.

    Balance constants are frozen at their unperturbed values (they are
    constants under differentiation); pair membership is recomputed per
    probe, so inputs sitting exactly on a threshold or truncation boundary
    are not differentiable and should not be probed. Ignore-labelled
    coordinates get gradient 0. epsilon must lie in [1e-9, 1e-3].
    """
    _check_inputs(score_set, config)
    epsilon = gradcheck_arguments(epsilon)["epsilon"]
    if not config.distance.is_smooth:
        raise ValidationError("finite differences need a sigmoid or ce-sigmoid distance")
    scores = [float(s) for s in score_set.scores]
    pos = [int(i) for i in score_set.positive_indices]
    neg = [int(i) for i in score_set.negative_indices]
    balance = {u: _bf_balance(scores, pos, neg, u, config) for u in pos}

    def loss_at(probe: list[float]) -> float:
        return _bf_forward(probe, pos, neg, config, balance, True, False).total_loss

    grad = np.zeros(len(scores))
    labels = score_set.labels
    for i in range(len(scores)):
        if labels[i] == Label.IGNORE:
            continue
        probe = list(scores)
        probe[i] = scores[i] + epsilon
        up = loss_at(probe)
        probe[i] = scores[i] - epsilon
        down = loss_at(probe)
        grad[i] = (up - down) / (2.0 * epsilon)
    return grad


def gradient_check(
    score_set: ScoreSet,
    config: LossConfig,
    epsilon: float = 1e-6,
    tolerance: float = 1e-5,
) -> GradCheckReport:
    """Compare the configured analytic gradient against central differences.

    Per-coordinate error is |analytic - fd| / max(|analytic|, |fd|, 1e-4);
    see the module docstring for why the denominator is floored.
    """
    epsilon, tolerance = gradcheck_arguments(epsilon, tolerance).values()
    analytic = evaluate_with_gradient(score_set, config).gradient
    fd = finite_difference_gradient(score_set, config, epsilon)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), DENOMINATOR_FLOOR)
    rel = np.abs(analytic - fd) / denom
    worst = int(np.argmax(rel))
    max_rel = float(rel[worst])
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_index=worst,
        epsilon=epsilon,
        tolerance=tolerance,
        passed=bool(max_rel <= tolerance),
    )

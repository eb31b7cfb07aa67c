"""Synthetic score generation, ranking AP, and a score-space training loop.

The simulator treats the scores themselves as the parameters: plain gradient
descent (no momentum) on the loss drives positive scores up and negative
scores down, which is the cheapest honest demonstration that the gradient
ranks. Determinism contract: scores come from numpy's PCG64 generator with
explicit seeding (positives drawn before negatives), so a (spec, config,
steps, lr) tuple reproduces bit-identical trajectories on one machine with
one numpy build. The gradient's sigmoid masses go through np.exp, whose
code numpy picks per CPU (see pairloss.distance), so across CPU dispatch
targets trajectories agree to rounding, not bit for bit. ranking_ap ranks
by the score set's one score order, ScoreSet.order, which the loss's top-q
selection, valid counts and ranks read too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import LossResult, evaluate_with_gradient
from .types import (
    IGNORE,
    NEGATIVE,
    POSITIVE,
    DivergenceError,
    LossConfig,
    ScoreSet,
    UndefinedMetricError,
    ValidationError,
    finite,
    instance,
    integer,
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the two-Gaussian synthetic score generator.

    Positives are drawn first from N(pos_mean, pos_std), then negatives from
    N(neg_mean, neg_std), using PCG64 seeded with `seed`. clamp, when given,
    clips all scores into [lo, hi].
    """

    seed: int = 0
    n_pos: int = 50
    n_neg: int = 500
    pos_mean: float = 0.6
    pos_std: float = 0.1
    neg_mean: float = 0.4
    neg_std: float = 0.1
    clamp: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        seed = integer("seed", self.seed, 0)
        if seed >= 2**64:
            raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "n_pos", integer("n_pos", self.n_pos, 0))
        object.__setattr__(self, "n_neg", integer("n_neg", self.n_neg, 0))
        for name in ("pos_mean", "pos_std", "neg_mean", "neg_std"):
            object.__setattr__(self, name, finite(name, getattr(self, name), ge=0 if name.endswith("std") else None))
        if self.clamp is not None:
            try:
                lo, hi = self.clamp
            except (TypeError, ValueError):  # not a pair, which lo = hi refuses below
                lo = hi = 0.0
            lo, hi = finite("clamp", lo), finite("clamp", hi)
            if not lo < hi:
                raise ValidationError(f"clamp must be a finite [lo, hi] with lo < hi, got {self.clamp!r}")
            object.__setattr__(self, "clamp", (lo, hi))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Metrics at one optimisation step (step 0 is the initial state)."""

    step: int
    total_loss: float
    ranking_ap: float
    gradient_norm: float
    active_pairs: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-step records plus the final score state.

    Always holds steps + 1 records: the initial state and one per update.
    Trajectories compare and hash by identity, as ScoreSet does.
    """

    records: tuple[TrajectoryRecord, ...]
    final: ScoreSet

    @property
    def initial_loss(self) -> float:
        return self.records[0].total_loss

    @property
    def final_loss(self) -> float:
        return self.records[-1].total_loss

    @property
    def final_ap(self) -> float:
        return self.records[-1].ranking_ap


def generate_scores(spec: GeneratorSpec) -> ScoreSet:
    """Draw a labelled Gaussian score set: n_pos positives then n_neg negatives."""
    instance("spec", spec, GeneratorSpec)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    try:
        pos = spec.pos_mean + spec.pos_std * rng.standard_normal(spec.n_pos)
        neg = spec.neg_mean + spec.neg_std * rng.standard_normal(spec.n_neg)
        scores = np.concatenate([pos, neg])
        if spec.clamp is not None:
            lo, hi = spec.clamp
            scores = np.clip(scores, lo, hi)
        labels = np.concatenate(
            [
                np.full(spec.n_pos, POSITIVE, dtype=np.int64),
                np.full(spec.n_neg, NEGATIVE, dtype=np.int64),
            ]
        )
    except (MemoryError, ValueError):  # numpy refuses sizes beyond memory or the address space
        raise ValidationError(f"n_pos + n_neg = {spec.n_pos + spec.n_neg} scores are too many to allocate") from None
    return ScoreSet(scores=scores, labels=labels)


def ranking_ap(score_set: ScoreSet) -> float:
    """Score-level average precision: mean precision at each positive's rank.

    Entries are ranked in the set's score order (descending score, ties by
    ascending index); ignore-labelled entries take no part in the ranking.
    AP is 1 exactly when every positive outscores every negative.
    """
    labels = instance("score_set", score_set, ScoreSet).labels[score_set.order]
    ranks = np.flatnonzero(labels[labels != IGNORE] == POSITIVE) + 1
    if not ranks.size:
        raise UndefinedMetricError("ranking AP needs at least one positive")
    # the i-th positive in the order has i positives at or above its rank
    return float(np.mean(np.arange(1, ranks.size + 1) / ranks))


def descent_arguments(steps: int = 200, learning_rate: float = 1.0) -> dict:
    """The checked steps and learning_rate of a descent, as keywords of descend_scores and simulate_training."""
    return {"steps": integer("steps", steps, 1), "learning_rate": finite("learning_rate", learning_rate, ge=0)}


def simulate_training(
    spec: GeneratorSpec,
    config: LossConfig,
    steps: int,
    learning_rate: float,
) -> Trajectory:
    """Run `steps` gradient-descent updates on a freshly generated score set.

    Records metrics before the first update and after each one. Aborts with
    DivergenceError if the scores stop being finite, or if an update leaves
    scores the loss rejects; the loss of finite scores is finite or refused.
    A ValidationError from the initial scores is a bad input and propagates
    as it is. A zero learning rate is allowed and yields a flat trajectory.
    """
    descent = descent_arguments(steps, learning_rate)
    if instance("spec", spec, GeneratorSpec).n_pos < 1:
        raise ValidationError("simulation needs at least one positive")
    return descend_scores(generate_scores(spec), config, **descent)


def descend_scores(
    score_set: ScoreSet,
    config: LossConfig,
    steps: int,
    learning_rate: float,
) -> Trajectory:
    """Gradient descent on an existing score set; see simulate_training."""
    steps, learning_rate = descent_arguments(steps, learning_rate).values()
    if instance("score_set", score_set, ScoreSet).positive_indices.size < 1:
        raise ValidationError("descent needs at least one positive anchor")

    current = score_set
    records: list[TrajectoryRecord] = []
    for step in range(steps + 1):
        try:
            result: LossResult = evaluate_with_gradient(current, config)
        except ValidationError as exc:
            if step == 0:
                raise
            raise DivergenceError(f"loss evaluation failed at step {step}: {exc}", step) from exc
        records.append(
            TrajectoryRecord(
                step=step,
                total_loss=result.total_loss,
                ranking_ap=ranking_ap(current),
                gradient_norm=float(np.linalg.norm(result.gradient)),
                active_pairs=result.active_pairs,
            )
        )
        if step == steps:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # reported below as a DivergenceError
            updated = current.scores - learning_rate * result.gradient
        bad = np.flatnonzero(~np.isfinite(updated))
        if bad.size:
            index, value = int(bad[0]), float(updated[bad[0]])
            message = f"scores became non-finite at step {step + 1}: index {index} is {value}"
            raise DivergenceError(message, step + 1, index, value)
        current = current.with_scores(updated)
    return Trajectory(records=tuple(records), final=current)

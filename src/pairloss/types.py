"""Shared dataclasses, enums, and error types for the pairwise ranking loss.

Everything downstream (ranking, loss, oracle, sim, cli) builds on the types
here. Configuration objects are frozen dataclasses that validate themselves on
construction, so an instance that exists is an instance that is usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np


class ValidationError(ValueError):
    """An argument or configuration violates its documented contract."""


class UndefinedMetricError(ValueError):
    """A metric was requested on an input where it has no defined value."""


class DivergenceError(RuntimeError):
    """A simulated optimisation produced non-finite losses or scores."""


class Label(IntEnum):
    """Per-element role in a score set.

    IGNORE entries take part in nothing: no anchors, no pairs, no ranks,
    no gradient.
    """

    NEGATIVE = 0
    POSITIVE = 1
    IGNORE = -1


VALID_LABELS = frozenset(int(v) for v in Label)


class DistanceKind(str, Enum):
    """Which distance function maps a score difference to a pairwise error."""

    STEP = "step"
    SIGMOID = "sigmoid"
    CE_SIGMOID = "ce-sigmoid"


class FilterMode(str, Enum):
    """How the per-anchor balance constant is formed."""

    RANK_SUM = "ranksum"
    VALID_NEG_COUNT = "negcount"


class GradientForm(str, Enum):
    """Which of the two interchangeable gradient derivations to run."""

    ERROR_DRIVEN = "error-driven"
    AUTODIFF_CE = "autodiff-ce"


class Reduction(str, Enum):
    """How per-anchor losses combine into the reported total."""

    MEAN_OVER_POSITIVES = "mean"
    SUM = "sum"


def to_float(name: str, value) -> float:
    """float(value), with an integer too large for a double reported as a ValidationError naming `name`."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a double") from None


def require_finite(name: str, value) -> float:
    value = to_float(name, value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ScoreSet:
    """A batch of scores with {positive, negative, ignore} labels.

    Arrays are copied, cast to float64/int64, and frozen read-only. Scores
    must be finite; labels must come from `Label`, checked before the cast.
    """

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        # copies, so no caller's array can change the scores under the cached order
        scores = np.array(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.ndim != 1:
            raise ValidationError("scores and labels must be one-dimensional")
        if scores.shape != labels.shape:
            raise ValidationError(
                f"scores and labels must have equal length, "
                f"got {scores.shape[0]} and {labels.shape[0]}"
            )
        if scores.shape[0] == 0:
            raise ValidationError("a score set must contain at least one element")
        if not np.isfinite(scores).all():
            bad = int(np.flatnonzero(~np.isfinite(scores))[0])
            raise ValidationError(f"non-finite score at index {bad}")
        valid = np.isin(labels, list(VALID_LABELS))
        if not valid.all():
            bad = int(np.flatnonzero(~valid)[0])
            raise ValidationError(
                f"label at index {bad} is {labels[bad].item()!r}, "
                f"expected one of {sorted(VALID_LABELS)}"
            )
        labels = np.array(labels, dtype=np.int64)
        scores.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    @property
    def positive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == Label.POSITIVE)

    @property
    def negative_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == Label.NEGATIVE)

    @property
    def ignore_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == Label.IGNORE)

    @cached_property
    def order(self) -> np.ndarray:
        """Indices by descending score, ties by ascending index: the one score order every reader shares.

        Computed on first use and read-only. Filtering it by label gives each
        label's indices in the same order.
        """
        # stable sort on negated scores: equal scores keep ascending index order
        order = np.argsort(-self.scores, kind="stable")
        order.flags.writeable = False
        return order

    def with_scores(self, scores: np.ndarray) -> "ScoreSet":
        """Same labels, new scores (used by the training simulator)."""
        return ScoreSet(scores=scores, labels=self.labels)


@dataclass(frozen=True)
class DistanceSpec:
    """Distance function selection plus its parameters.

    delta is the ramp half-width: the step distance's ramp and, under every
    kind, the ramp of the smoothed ranks, so it is always validated. lam is
    the sigmoid steepness and is validated only for the smooth kinds.
    """

    kind: DistanceKind = DistanceKind.CE_SIGMOID
    delta: float = 0.5
    lam: float = 8.0

    def __post_init__(self) -> None:
        kind = DistanceKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "delta", to_float("delta", self.delta))
        object.__setattr__(self, "lam", to_float("lam", self.lam))
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValidationError(f"delta must be > 0, got {self.delta!r}")
        if self.is_smooth and not (math.isfinite(self.lam) and self.lam > 0):
            raise ValidationError(f"lam must be > 0 for {kind.value} distance, got {self.lam!r}")

    @property
    def is_smooth(self) -> bool:
        """True when the distance is differentiable in its parameterisation."""
        return self.kind is not DistanceKind.STEP


@dataclass(frozen=True)
class FilterSpec:
    """Hard-pair filtering: threshold on the score difference of a pair.

    A (anchor u, negative v) pair counts as a valid error when
    score[v] - score[u] > threshold. filter_numerator controls whether the
    pair sum itself is restricted to valid pairs (only meaningful in
    negcount mode; ranksum keeps every pair in the numerator).
    """

    mode: FilterMode = FilterMode.RANK_SUM
    threshold: float = 0.25
    filter_numerator: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", FilterMode(self.mode))
        threshold = require_finite("threshold", self.threshold)
        if threshold < 0:
            raise ValidationError(f"threshold must be >= 0, got {threshold!r}")
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "filter_numerator", bool(self.filter_numerator))


@dataclass(frozen=True)
class PairBudget:
    """Cap on how many negatives an anchor may be paired with.

    q defaults to 100 000; q=None means unlimited. A bounded budget keeps
    the top q negatives by score (ties broken by ascending index), shared by
    all anchors.
    """

    q: int | None = 100_000

    def __post_init__(self) -> None:
        if self.q is None:
            return
        if isinstance(self.q, bool) or not isinstance(self.q, (int, np.integer)):
            raise ValidationError(f"q must be a positive integer or None, got {self.q!r}")
        if self.q < 1:
            raise ValidationError(f"q must be >= 1, got {self.q}")
        object.__setattr__(self, "q", int(self.q))

    @classmethod
    def unlimited(cls) -> "PairBudget":
        return cls(q=None)

    @property
    def bounded(self) -> bool:
        return self.q is not None


@dataclass(frozen=True)
class LossConfig:
    """Full configuration of one loss evaluation."""

    distance: DistanceSpec = field(default_factory=DistanceSpec)
    pair_filter: FilterSpec = field(default_factory=FilterSpec)
    budget: PairBudget = field(default_factory=PairBudget)
    gradient_form: GradientForm = GradientForm.ERROR_DRIVEN
    reduction: Reduction = Reduction.MEAN_OVER_POSITIVES

    def __post_init__(self) -> None:
        if not isinstance(self.distance, DistanceSpec):
            raise ValidationError("distance must be a DistanceSpec")
        if not isinstance(self.pair_filter, FilterSpec):
            raise ValidationError("pair_filter must be a FilterSpec")
        if not isinstance(self.budget, PairBudget):
            raise ValidationError("budget must be a PairBudget")
        object.__setattr__(self, "gradient_form", GradientForm(self.gradient_form))
        object.__setattr__(self, "reduction", Reduction(self.reduction))
        if self.gradient_form is GradientForm.AUTODIFF_CE and self.distance.kind is not DistanceKind.CE_SIGMOID:
            raise ValidationError(
                "gradient form autodiff-ce requires the ce-sigmoid distance, "
                f"got {self.distance.kind.value}"
            )

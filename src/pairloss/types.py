"""Shared dataclasses, enums, error types and argument checks for the pairwise ranking loss.

Everything downstream (ranking, loss, oracle, sim, cli) builds on the types
here. Configuration objects are frozen dataclasses that validate themselves on
construction, so an instance that exists is an instance that is usable.

The argument checks are the one place that says what a valid argument is,
one helper per kind of value: `real` and `finite` for numbers, `integer`
for counts and indices, `choice` for enum settings, `flag` for switches,
`instance` for objects of a given class, `array` for arrays of given
dtype kinds and `real_array` for arrays of numbers. bool and str are not
numbers; Python and numpy integer and floating scalars are. Each failure
is a ValidationError whose message starts with the argument's name,
which the CLI maps to its setting key.
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
    """A simulated optimisation produced non-finite scores, or scores the loss rejects.

    step is the step at which it happened, index the element whose score
    stopped being finite and value that offending score; each is None where
    it does not apply.
    """

    def __init__(self, message: str, step: int | None = None, index: int | None = None, value: float | None = None):
        super().__init__(message)
        self.step, self.index, self.value = step, index, value


class Label(IntEnum):
    """Per-element role in a score set.

    IGNORE entries take part in nothing: no anchors, no pairs, no ranks,
    no gradient.
    """

    NEGATIVE = 0
    POSITIVE = 1
    IGNORE = -1


VALID_LABELS = frozenset(int(v) for v in Label)
# the label codes as plain ints, which numpy compares with an int64 array faster than the enum
POSITIVE, NEGATIVE, IGNORE = int(Label.POSITIVE), int(Label.NEGATIVE), int(Label.IGNORE)


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


_REALS = (float, int, np.floating, np.integer)
_INTEGERS = (int, np.integer)


def real(name: str, value) -> float:
    """value as a float: a Python or numpy float or integer that is not a bool, nor too large for a double."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} is too large for a double") from None


def finite(name: str, value, *, gt: float | None = None, ge: float | None = None, note: str = "") -> float:
    """A finite real(name, value), > gt or >= ge when given; a bound's message covers non-finite values too."""
    value = real(name, value)
    if not (math.isfinite(value) and (gt is None or value > gt) and (ge is None or value >= ge)):
        rule = f"> {gt}" if gt is not None else f">= {ge}" if ge is not None else "finite"
        raise ValidationError(f"{name} must be {rule}{note}, got {value!r}")
    return value


def integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int: an integer that is not a bool, and >= minimum when given."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def flag(name: str, value) -> bool:
    """value as a bool: True or False, as Python or numpy spells them."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def choice(name: str, value, enum: type[Enum]):
    """The member of enum that value is, or whose value it is."""
    try:
        return enum(value)
    except ValueError:
        raise ValidationError(f"{name} must be one of {[m.value for m in enum]}, got {value!r}") from None


def instance(name: str, value, cls: type):
    """value itself, when it is an instance of cls."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


# the dtype kinds an array argument may take, and how a message names them
_ARRAY_KINDS = {"biuf": "bool, integer or float numbers", "biufO": "numbers", "iu": "integers"}


def array(name: str, values, kinds: str) -> np.ndarray:
    """values as an array (no copy when they already are one) whose dtype kind is in kinds, a key of _ARRAY_KINDS.

    Ragged nesting, which numpy refuses to hold, is refused whatever the kinds.
    """
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{name} must be an array of {_ARRAY_KINDS[kinds]}, got ragged nesting") from None
    if arr.dtype.kind not in kinds:
        raise ValidationError(f"{name} must be an array of {_ARRAY_KINDS[kinds]}, got dtype {arr.dtype}")
    return arr


def real_array(name: str, values) -> np.ndarray:
    """values as a float64 array (no copy when they already are one); the dtype must be bool, integer or float."""
    return array(name, values, "biuf").astype(np.float64, copy=False)


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """A batch of scores with {positive, negative, ignore} labels.

    Arrays are copied, cast to float64/int64, and frozen read-only. Scores
    must have a bool, integer or float dtype, checked before the cast, and
    be finite; labels must be numbers from `Label`, also checked before
    the cast. Ragged nesting of either is refused. Sets compare and hash
    by identity, as arrays have no single truth value to compare by.
    """

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        # copies, so no caller's array can change the scores under the cached order
        scores = real_array("scores", self.scores).copy()
        # objects hold Python integers beyond int64, which the label check below names by index
        labels = array("labels", self.labels, "biufO")
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
                f"label at index {bad} is {labels.tolist()[bad]!r}, "
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
        return np.flatnonzero(self.labels == POSITIVE)

    @property
    def negative_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == NEGATIVE)

    @property
    def ignore_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == IGNORE)

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

    @cached_property
    def negatives_by_score(self) -> np.ndarray:
        """The negative indices in the set's score order; computed on first use and read-only."""
        # gathers the one-byte mask, not the int64 labels, so the temporary is an eighth of the set's indices
        negatives = self.order[(self.labels == NEGATIVE)[self.order]]
        negatives.flags.writeable = False
        return negatives

    def with_scores(self, scores: np.ndarray) -> "ScoreSet":
        """Same labels, new scores (used by the training simulator)."""
        return ScoreSet(scores=scores, labels=self.labels)


@dataclass(frozen=True)
class DistanceSpec:
    """Distance function selection plus its parameters.

    delta is the ramp half-width: the step distance's ramp and, under every
    kind, the ramp of the smoothed ranks, so it must always be > 0. lam is
    the sigmoid steepness; it must be a number, and > 0 for the smooth kinds.
    """

    kind: DistanceKind = DistanceKind.CE_SIGMOID
    delta: float = 0.5
    lam: float = 8.0

    def __post_init__(self) -> None:
        kind = choice("kind", self.kind, DistanceKind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "delta", finite("delta", self.delta, gt=0))
        note = f" for {kind.value} distance"
        lam = finite("lam", self.lam, gt=0, note=note) if self.is_smooth else real("lam", self.lam)
        object.__setattr__(self, "lam", lam)

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
        object.__setattr__(self, "mode", choice("mode", self.mode, FilterMode))
        object.__setattr__(self, "threshold", finite("threshold", self.threshold, ge=0))
        object.__setattr__(self, "filter_numerator", flag("filter_numerator", self.filter_numerator))


@dataclass(frozen=True)
class PairBudget:
    """Cap on how many negatives an anchor may be paired with.

    q defaults to 100 000; q=None means unlimited. A bounded budget keeps
    the top q negatives by score (ties broken by ascending index), shared by
    all anchors.
    """

    q: int | None = 100_000

    def __post_init__(self) -> None:
        if self.q is not None:
            object.__setattr__(self, "q", integer("q", self.q, 1))

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
        instance("distance", self.distance, DistanceSpec)
        instance("pair_filter", self.pair_filter, FilterSpec)
        instance("budget", self.budget, PairBudget)
        object.__setattr__(self, "gradient_form", choice("gradient_form", self.gradient_form, GradientForm))
        object.__setattr__(self, "reduction", choice("reduction", self.reduction, Reduction))
        if self.gradient_form is GradientForm.AUTODIFF_CE and self.distance.kind is not DistanceKind.CE_SIGMOID:
            raise ValidationError(
                "gradient form autodiff-ce requires the ce-sigmoid distance, "
                f"got {self.distance.kind.value}"
            )

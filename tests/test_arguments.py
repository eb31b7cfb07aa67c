"""Argument checks: a bad value of any public number, count, choice or type is a ValidationError naming it."""

import reprlib

import numpy as np
import pytest

from pairloss import (
    DistanceSpec,
    FilterSpec,
    GeneratorSpec,
    LossConfig,
    PairBudget,
    ScoreSet,
    ValidationError,
    balance_constant,
    brute_force_loss,
    ce_distance,
    ce_distance_grad_wrt_u,
    compute_ranks,
    descend_scores,
    descent_arguments,
    evaluate_loss,
    evaluate_with_gradient,
    finite_difference_gradient,
    generate_scores,
    gradcheck_arguments,
    gradient_autodiff_ce,
    gradient_check,
    gradient_error_driven,
    ranking_ap,
    select_top_q_negatives,
    sigmoid_distance,
    sigmoid_distance_grad_wrt_u,
    simulate_training,
    step_distance,
    valid_negative_count,
    valid_pair_indicator,
    write_score_file,
)
from pairloss.scorefile import round_floats

SS = ScoreSet(np.array([0.9, 0.2, 0.55, 0.4]), np.array([1, 1, 0, 0]))
CFG = LossConfig()
TINY = {"n_pos": 2, "n_neg": 3}
NAN, INF = float("nan"), float("inf")

# (entry, argument, call with the bad value, the message of any value out of range, one such value)
NUMBERS = [
    ("DistanceSpec", "delta", lambda v: DistanceSpec(delta=v), "delta must be > 0", 0),
    ("DistanceSpec", "lam", lambda v: DistanceSpec(lam=v), "lam must be > 0 for ce-sigmoid distance", -1),
    ("DistanceSpec step", "lam", lambda v: DistanceSpec(kind="step", lam=v), None, None),
    ("FilterSpec", "threshold", lambda v: FilterSpec(threshold=v), "threshold must be >= 0", -0.5),
    ("GeneratorSpec", "pos_mean", lambda v: GeneratorSpec(pos_mean=v), "pos_mean must be finite", None),
    ("GeneratorSpec", "neg_mean", lambda v: GeneratorSpec(neg_mean=v), "neg_mean must be finite", None),
    ("GeneratorSpec", "pos_std", lambda v: GeneratorSpec(pos_std=v), "pos_std must be >= 0", -0.1),
    ("GeneratorSpec", "neg_std", lambda v: GeneratorSpec(neg_std=v), "neg_std must be >= 0", -0.1),
    ("GeneratorSpec lo", "clamp", lambda v: GeneratorSpec(clamp=(v, 1.0)), "clamp must be finite", None),
    ("GeneratorSpec hi", "clamp", lambda v: GeneratorSpec(clamp=(0.0, v)), "clamp must be finite", None),
    ("step_distance", "delta", lambda v: step_distance(0.1, v), "delta must be > 0", -0.5),
    ("sigmoid_distance", "lam", lambda v: sigmoid_distance(0.1, v), "lam must be > 0", 0),
    ("sigmoid_distance_grad_wrt_u", "lam", lambda v: sigmoid_distance_grad_wrt_u(0.1, v), "lam must be > 0", 0),
    ("ce_distance", "lam", lambda v: ce_distance(0.1, v), "lam must be > 0", 0),
    ("ce_distance_grad_wrt_u", "lam", lambda v: ce_distance_grad_wrt_u(0.1, v), "lam must be > 0", 0),
    ("compute_ranks", "delta", lambda v: compute_ranks(SS, 0, v), "delta must be > 0", 0.0),
    ("valid_negative_count", "threshold", lambda v: valid_negative_count(SS, 0, v), "threshold must be >= 0", -1),
    ("valid_pair_indicator", "p_u", lambda v: valid_pair_indicator(v, 0.1), "p_u must be finite", None),
    ("valid_pair_indicator", "p_v", lambda v: valid_pair_indicator(0.1, v), "p_v must be finite", None),
    ("valid_pair_indicator", "threshold", lambda v: valid_pair_indicator(0.1, 0.5, v), "threshold must be >= 0", -1),
    ("descend_scores", "learning_rate", lambda v: descend_scores(SS, CFG, 1, v), "learning_rate must be >= 0", -1),
    (
        "simulate_training",
        "learning_rate",
        lambda v: simulate_training(GeneratorSpec(**TINY), CFG, 1, v),
        "learning_rate must be >= 0",
        -1,
    ),
    ("finite_difference_gradient", "epsilon", lambda v: finite_difference_gradient(SS, CFG, v), "epsilon must lie", 1),
    ("gradient_check", "epsilon", lambda v: gradient_check(SS, CFG, epsilon=v), "epsilon must lie in", 1e-12),
    ("gradient_check", "tolerance", lambda v: gradient_check(SS, CFG, tolerance=v), "tolerance must be > 0", 0),
    ("descent_arguments", "learning_rate", lambda v: descent_arguments(learning_rate=v), "learning_rate must be >= 0", -1),
    ("gradcheck_arguments", "epsilon", lambda v: gradcheck_arguments(epsilon=v), "epsilon must lie in", 1),
    ("gradcheck_arguments", "tolerance", lambda v: gradcheck_arguments(tolerance=v), "tolerance must be > 0", 0),
]

# (entry, argument, call with the bad value, the smallest value allowed, or None where the set bounds it)
INTEGERS = [
    ("PairBudget", "q", lambda v: PairBudget(v), 1),
    ("GeneratorSpec", "seed", lambda v: GeneratorSpec(seed=v), 0),
    ("GeneratorSpec", "n_pos", lambda v: GeneratorSpec(n_pos=v), 0),
    ("GeneratorSpec", "n_neg", lambda v: GeneratorSpec(n_neg=v), 0),
    ("descend_scores", "steps", lambda v: descend_scores(SS, CFG, v, 1.0), 1),
    ("simulate_training", "steps", lambda v: simulate_training(GeneratorSpec(**TINY), CFG, v, 1.0), 1),
    ("descent_arguments", "steps", lambda v: descent_arguments(steps=v), 1),
    ("compute_ranks", "u", lambda v: compute_ranks(SS, v), None),
    ("valid_negative_count", "u", lambda v: valid_negative_count(SS, v), None),
    ("balance_constant", "u", lambda v: balance_constant(SS, v, CFG), None),
]

CHOICES = [
    ("DistanceSpec", "kind", lambda v: DistanceSpec(kind=v)),
    ("FilterSpec", "mode", lambda v: FilterSpec(mode=v)),
    ("LossConfig", "gradient_form", lambda v: LossConfig(gradient_form=v)),
    ("LossConfig", "reduction", lambda v: LossConfig(reduction=v)),
]

# (entry, argument, call with the bad value, the class it must be)
TYPES = [
    ("LossConfig", "distance", lambda v: LossConfig(distance=v), "DistanceSpec"),
    ("LossConfig", "pair_filter", lambda v: LossConfig(pair_filter=v), "FilterSpec"),
    ("LossConfig", "budget", lambda v: LossConfig(budget=v), "PairBudget"),
    ("select_top_q_negatives", "budget", lambda v: select_top_q_negatives(SS, v), "PairBudget"),
    ("generate_scores", "spec", lambda v: generate_scores(v), "GeneratorSpec"),
    ("simulate_training", "spec", lambda v: simulate_training(v, CFG, 1, 1.0), "GeneratorSpec"),
    ("finite_difference_gradient", "score_set", lambda v: finite_difference_gradient(v, CFG), "ScoreSet"),
    ("finite_difference_gradient", "config", lambda v: finite_difference_gradient(SS, v), "LossConfig"),
    ("gradient_check", "score_set", lambda v: gradient_check(v, CFG), "ScoreSet"),
    ("gradient_check", "config", lambda v: gradient_check(SS, v), "LossConfig"),
    ("balance_constant", "score_set", lambda v: balance_constant(v, 0, CFG), "ScoreSet"),
    ("balance_constant", "config", lambda v: balance_constant(SS, 0, v), "LossConfig"),
    ("compute_ranks", "score_set", lambda v: compute_ranks(v, 0), "ScoreSet"),
    ("valid_negative_count", "score_set", lambda v: valid_negative_count(v, 0), "ScoreSet"),
    ("select_top_q_negatives", "score_set", lambda v: select_top_q_negatives(v, PairBudget()), "ScoreSet"),
    ("ranking_ap", "score_set", lambda v: ranking_ap(v), "ScoreSet"),
    ("descend_scores", "score_set", lambda v: descend_scores(v, CFG, 1, 1.0), "ScoreSet"),
    ("write_score_file", "score_set", lambda v: write_score_file("unused.csv", v), "ScoreSet"),
]
for entry in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce, evaluate_with_gradient, brute_force_loss):
    TYPES.append((entry.__name__, "score_set", lambda v, f=entry: f(v, CFG), "ScoreSet"))
    TYPES.append((entry.__name__, "config", lambda v, f=entry: f(SS, v), "LossConfig"))

ARRAY_MESSAGE = "must be an array of bool, integer or float numbers"
ARRAYS = [
    ("ScoreSet", "scores", lambda v: ScoreSet(v, [1, 0])),
    ("ScoreSet.with_scores", "scores", lambda v: ScoreSet([0.2, 0.7], [1, 0]).with_scores(v)),
    ("step_distance", "x", lambda v: step_distance(v)),
    ("sigmoid_distance", "x", lambda v: sigmoid_distance(v)),
    ("sigmoid_distance_grad_wrt_u", "x", lambda v: sigmoid_distance_grad_wrt_u(v)),
    ("ce_distance", "x", lambda v: ce_distance(v)),
    ("ce_distance_grad_wrt_u", "x", lambda v: ce_distance_grad_wrt_u(v)),
]


def _rows():
    """(entry and argument, call, bad value, expected message prefix), one row per bad value of each argument."""
    for entry, name, call, bound, out_of_range in NUMBERS:
        for bad in (None, "0.5", True, [0.5]):
            yield f"{entry} {name}", call, bad, f"{name} must be a number, got {bad!r}"
        yield f"{entry} {name}", call, 10**400, f"{name} is too large for a double"
        if bound is not None:
            yield f"{entry} {name}", call, NAN, bound
            yield f"{entry} {name}", call, INF, bound
        if out_of_range is not None:
            yield f"{entry} {name}", call, out_of_range, bound
    for entry, name, call, minimum in INTEGERS:
        # q=None is the unlimited budget
        for bad in ("1", True, 1.7, NAN, INF, {}) + (() if name == "q" else (None,)):
            yield f"{entry} {name}", call, bad, f"{name} must be an integer, got {bad!r}"
        if minimum is not None:
            yield f"{entry} {name}", call, minimum - 1, f"{name} must be >= {minimum}, got {minimum - 1}"
        else:
            yield f"{entry} {name}", call, 4, "u holds index 4, out of range for a set of 4"
            yield f"{entry} {name}", call, 2, "u holds index 2, which is not labelled positive"
    for entry, name, call in CHOICES:
        for bad in (None, "0.5", True, 10**400, NAN, "x", []):
            yield f"{entry} {name}", call, bad, f"{name} must be one of "
    filter_numerator = lambda v: FilterSpec(filter_numerator=v)  # noqa: E731
    for bad in (None, "false", 1, 0, NAN, np.array([True])):
        yield "FilterSpec filter_numerator", filter_numerator, bad, "filter_numerator must be True or False"
    for entry, name, call, cls in TYPES:
        for bad in (None, "0.5", True, CFG if cls == "ScoreSet" else SS):
            yield f"{entry} {name}", call, bad, f"{name} must be a {cls}, got {type(bad).__name__}"
    for entry, name, call in ARRAYS:
        # strings, complex, an int beyond a double, ragged nesting, objects
        for bad in (["0.9", "0.1"], np.array([0.9 + 1j, 0.1]), [10**400, 0.1], [[0.9, 0.1], [0.5]], [None, 0.1]):
            yield f"{entry} {name}", call, bad, f"{name} {ARRAY_MESSAGE}"
    # ragged nesting of the labels or of an anchor array, an anchor array of floats and a 2-D one
    labels = lambda v: ScoreSet([0.1, 0.2], v)  # noqa: E731
    yield "ScoreSet labels", labels, [[1], [0, 1]], "labels must be an array of numbers, got ragged nesting"
    for entry, call in (("compute_ranks", compute_ranks), ("valid_negative_count", valid_negative_count)):
        for bad, message in (
            ([[0], [0, 1]], "u must be an array of integers, got ragged nesting"),
            ([0.0], "u must be an array of integers, got dtype float64"),
            ([[0], [1]], "u must be an index or a 1-D integer index array"),
        ):
            yield f"{entry} u", lambda v, f=call: f(SS, v), bad, message
    # scores that cannot make a score set with two labels, and a set empty of elements or of positives
    scores = lambda v: ScoreSet(v, [1, 0])  # noqa: E731
    for bad, message in (
        ([[0.1, 0.2]], "scores and labels must be one-dimensional"),
        ([0.1, 0.2, 0.3], "scores and labels must have equal length, got 3 and 2"),
        ([0.1, NAN], "non-finite score at index 1"),
    ):
        yield "ScoreSet scores", scores, bad, message
    yield "ScoreSet", lambda v: ScoreSet(v, v), [], "a score set must contain at least one element"
    descend = lambda v: descend_scores(v, CFG, 1, 1.0)  # noqa: E731
    yield "descend_scores score_set", descend, ScoreSet([0.1, 0.2], [0, 0]), "descent needs at least one positive anchor"
    yield "GeneratorSpec seed", lambda v: GeneratorSpec(seed=v), 2**64, "seed must fit in 64 unsigned bits"
    clamp = "clamp must be a finite [lo, hi] with lo < hi,"
    for bad in (5, (0,), (0, 1, 2), (1.0, 0.0)):
        yield "GeneratorSpec clamp", lambda v: GeneratorSpec(clamp=v), bad, clamp


ROWS = list(_rows())


@pytest.mark.parametrize(
    ("call", "bad", "prefix"),
    [r[1:] for r in ROWS],
    ids=[f"{r[0]}={reprlib.repr(r[2])}" for r in ROWS],
)
def test_bad_argument_is_a_validation_error_naming_it(call, bad, prefix):
    with pytest.raises(ValidationError) as exc:
        call(bad)
    assert str(exc.value).startswith(prefix)


@pytest.mark.parametrize(
    ("numpy_form", "python_form"),
    [
        (lambda: DistanceSpec(delta=np.float32(0.25), lam=np.int8(3)), lambda: DistanceSpec(delta=0.25, lam=3.0)),
        (
            lambda: FilterSpec(threshold=np.float16(0.25), filter_numerator=np.bool_(False)),
            lambda: FilterSpec(threshold=0.25, filter_numerator=False),
        ),
        (lambda: PairBudget(np.uint16(4)), lambda: PairBudget(4)),
        (
            lambda: GeneratorSpec(seed=np.uint64(2**64 - 1), clamp=np.array([0, 1])),
            lambda: GeneratorSpec(seed=2**64 - 1, clamp=(0.0, 1.0)),
        ),
        (lambda: compute_ranks(SS, np.int64(1), np.float64(0.5)), lambda: compute_ranks(SS, 1, 0.5)),
        (
            lambda: ce_distance(np.array([1, 2], dtype=np.int8), np.float16(8)),
            lambda: ce_distance(np.array([1.0, 2.0]), 8.0),
        ),
        (lambda: round_floats(np.float32(0.1)), lambda: round_floats(float(np.float32(0.1)))),
    ],
)
def test_numpy_scalars_are_accepted_as_their_python_values(numpy_form, python_form):
    assert repr(numpy_form()) == repr(python_form())

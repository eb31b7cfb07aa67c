"""Command-line surface: eval, gradcheck, sweep, curve, simulate.

One SETTINGS row per setting: flag --<key>, config key <key>. Flags override
a JSON config file (--config, or $PAIRLOSS_CONFIG); a setting neither names
takes the library's default. main is the one path through a run: before any
subcommand's handler runs, and so before any input is read, it builds every
target a setting fills (build), so each setting, from either source, meets
the library's own rule with the library's message; the CLI owns only how a
flag is spelled, and "unlimited" for q. Each handler returns its report and
exit code, and main writes every report, to stdout or --out: JSON with
floats rounded to 15 significant digits, or two-column text for curve.

Exit codes: 0 success, 1 check failed (gradcheck mismatch or diverged
simulation), 2 parse error (bad file syntax, or a file that is not UTF-8),
3 validation error (legal syntax, illegal values, or an --out path that
cannot be written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .distance import distance_value
from .loss import LossResult, evaluate_loss, evaluate_with_gradient
from .oracle import gradcheck_arguments, gradient_check
from .scorefile import ScoreFileError, format_float, read_score_file, read_text, render_report, write_text
from .sim import GeneratorSpec, descend_scores, descent_arguments, generate_scores, simulate_training
from .types import (
    DistanceKind,
    DistanceSpec,
    DivergenceError,
    FilterMode,
    FilterSpec,
    GradientForm,
    LossConfig,
    PairBudget,
    Reduction,
    ValidationError,
    integer,
)

CONFIG_ENV_VAR = "PAIRLOSS_CONFIG"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3

# the gradient paths report the cross-entropy loss, whatever distance is configured
GRADIENT_LOSS = DistanceKind.CE_SIGMOID.value

CURVE_FUNCTIONS = {
    "h": "step",
    "step": "step",
    "s": "sigmoid",
    "sigmoid": "sigmoid",
    "ce": "ce-sigmoid",
    "ce-sigmoid": "ce-sigmoid",
}


def _parse_q(text: str):
    """The --q flag and Q sweep values: an integer, or 'unlimited'."""
    try:
        return None if text == "unlimited" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q must be an integer or 'unlimited', got {text!r}") from None


def _choice(enum: type[Enum]) -> dict:
    return {"choices": [member.value for member in enum]}


# the argparse keywords of each kind of flag; the targets hold every rule a value must meet
NUMBER = {"type": float}
INTEGER = {"type": int}
SWITCH = {"action": argparse.BooleanOptionalAction}
BUDGET = {"type": _parse_q}
RANGE = {"type": float, "nargs": 2, "metavar": ("LO", "HI")}


@dataclass(frozen=True)
class Setting:
    """One setting: flag --<key> (with _ as -), config key <key>, and the keyword `field` of `target` it fills."""

    key: str
    target: object
    field: str
    kind: dict  # the flag's argparse keywords
    help: str


SETTINGS = {
    s.key: s
    for s in (
        Setting("distance", DistanceSpec, "kind", _choice(DistanceKind), "distance function"),
        Setting("lambda", DistanceSpec, "lam", NUMBER, "sigmoid steepness"),
        Setting("delta", DistanceSpec, "delta", NUMBER, "ramp half-width of the step distance and the smoothed ranks"),
        Setting("threshold", FilterSpec, "threshold", NUMBER, "valid-pair score margin"),
        Setting("filter_numerator", FilterSpec, "filter_numerator", SWITCH, "negcount: sum only valid pairs"),
        Setting("q", PairBudget, "q", BUDGET, "pair budget (integer or 'unlimited')"),
        Setting("mode", FilterSpec, "mode", _choice(FilterMode), "balance constant"),
        Setting("grad_form", LossConfig, "gradient_form", _choice(GradientForm), "gradient derivation"),
        Setting("reduction", LossConfig, "reduction", _choice(Reduction), "how anchor losses combine"),
        Setting("seed", GeneratorSpec, "seed", INTEGER, "generator seed"),
        Setting("n_pos", GeneratorSpec, "n_pos", INTEGER, "generated positives"),
        Setting("n_neg", GeneratorSpec, "n_neg", INTEGER, "generated negatives"),
        Setting("pos_mean", GeneratorSpec, "pos_mean", NUMBER, "mean of positive scores"),
        Setting("pos_std", GeneratorSpec, "pos_std", NUMBER, "spread of positive scores"),
        Setting("neg_mean", GeneratorSpec, "neg_mean", NUMBER, "mean of negative scores"),
        Setting("neg_std", GeneratorSpec, "neg_std", NUMBER, "spread of negative scores"),
        Setting("clamp", GeneratorSpec, "clamp", RANGE, "clip generated scores into [LO, HI]"),
        Setting("steps", descent_arguments, "steps", INTEGER, "descent steps"),
        Setting("lr", descent_arguments, "learning_rate", NUMBER, "learning rate"),
        Setting("epsilon", gradcheck_arguments, "epsilon", NUMBER, "finite-difference step"),
        Setting("tolerance", gradcheck_arguments, "tolerance", NUMBER, "gradcheck tolerance"),
    )
}


# each sweep parameter: the SETTINGS key its value fills, and the settings it fixes
SWEEPS = {
    "lambda": ("lambda", {}),
    "delta": ("delta", {}),
    "T": ("threshold", {"mode": FilterMode.VALID_NEG_COUNT.value}),
    "Q": ("q", {}),
}


def load_config_file(path: str) -> dict:
    """Read a JSON config file into {key: value}, with "unlimited" for q read as None."""
    text = read_text(path, "config ")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScoreFileError(f"config {path}: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    unknown = sorted(set(data) - set(SETTINGS))
    if unknown:
        raise ValidationError(f"config {path}: unknown keys {unknown}")
    return {key: None if key == "q" and value == "unlimited" else value for key, value in data.items()}


def given_settings(args: argparse.Namespace) -> dict:
    """The settings a run names: config file values, overridden by flags. Everything else is a library default."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    given = load_config_file(path) if path else {}
    given.update((key, value) for key, value in vars(args).items() if key in SETTINGS)
    return given


def keywords(given: dict, target) -> dict:
    """The given settings that fill keywords of `target`, as {field: value}."""
    return {s.field: given[s.key] for s in SETTINGS.values() if s.target is target and s.key in given}


def loss_config(given: dict) -> LossConfig:
    """Build only the parts the settings name; the rest keep LossConfig's defaults."""
    parts = {
        name: part(**kw)
        for name, part in (("distance", DistanceSpec), ("pair_filter", FilterSpec), ("budget", PairBudget))
        if (kw := keywords(given, part))
    }
    return LossConfig(**parts, **keywords(given, LossConfig))


def build(given: dict) -> tuple[LossConfig, GeneratorSpec, dict, dict]:
    """Every target a setting fills: the loss config, the generator, and the descent and gradcheck keywords."""
    return (
        loss_config(given),
        GeneratorSpec(**keywords(given, GeneratorSpec)),
        descent_arguments(**keywords(given, descent_arguments)),
        gradcheck_arguments(**keywords(given, gradcheck_arguments)),
    )


def _stats_rows(result: LossResult) -> list[dict]:
    return [
        {
            "anchor": s.anchor_index,
            "loss": result.per_anchor_loss[s.anchor_index],
            "rank_plus": s.rank_plus,
            "rank_minus": s.rank_minus,
            "balance_constant": s.balance_constant,
            "n_neg": s.n_neg,
            "active_pairs": s.active_pairs,
        }
        for s in result.stats
    ]


def cmd_eval(args, given, config, spec, descent, check) -> tuple[str, int]:
    score_set = read_score_file(args.scores)
    if config.distance.is_smooth:
        result = evaluate_with_gradient(score_set, config)
    else:
        result = evaluate_loss(score_set, config)
    warnings = []
    if result.no_anchors:
        warnings.append("score set has no positive anchors; loss is trivially zero")
    if score_set.negative_indices.size == 0:
        warnings.append("score set has no negatives; loss is trivially zero")
    report = {
        "command": "eval",
        "total_loss": result.total_loss,
        "loss_distance": GRADIENT_LOSS if config.distance.is_smooth else config.distance.kind.value,
        "reduction": config.reduction.value,
        "truncated": result.truncated,
        "active_pairs": result.active_pairs,
        "warnings": warnings,
        "per_anchor": _stats_rows(result),
        "gradient": result.gradient,
    }
    return render_report(report), EXIT_OK


def cmd_gradcheck(args, given, config, spec, descent, check) -> tuple[str, int]:
    score_set = read_score_file(args.scores)
    report = gradient_check(score_set, config, **check)
    document = {
        "command": "gradcheck",
        "passed": report.passed,
        "max_rel_error": report.max_rel_error,
        "worst_index": report.worst_index,
        "epsilon": report.epsilon,
        "tolerance": report.tolerance,
    }
    return render_report(document), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep(args, given, config, spec, descent, check) -> tuple[str, int]:
    parameter = {name.lower(): name for name in SWEEPS}.get(args.parameter.lower())
    if parameter is None:
        raise ValidationError(f"unknown sweep parameter {args.parameter!r}, expected one of {list(SWEEPS)}")
    key, fixed = SWEEPS[parameter]
    parts = [p.strip() for p in args.values.split(",") if p.strip()]
    if not parts:
        raise ValidationError("sweep needs at least one value")
    try:
        values = [SETTINGS[key].kind["type"](p) for p in parts]
    except ValueError:
        raise ValidationError(f"sweep values for {parameter} must be numbers, got {args.values!r}") from None
    configs = [loss_config({**given, **fixed, key: value}) for value in values]
    initial = read_score_file(args.scores) if args.scores else generate_scores(spec)
    rows = []
    for value, config in zip(values, configs):
        trajectory = descend_scores(initial, config, **descent)
        first, last = trajectory.records[0], trajectory.records[-1]
        rows.append(
            {
                "parameter": parameter,
                "value": "unlimited" if value is None else value,
                "initial_loss": first.total_loss,
                "final_loss": last.total_loss,
                "initial_ap": first.ranking_ap,
                "final_ap": last.ranking_ap,
                "initial_active_pairs": first.active_pairs,
                "final_active_pairs": last.active_pairs,
            }
        )
    document = {
        "command": "sweep",
        "parameter": parameter,
        "loss_distance": GRADIENT_LOSS,
        "steps": descent["steps"],
        "lr": descent["learning_rate"],
        "rows": rows,
    }
    return render_report(document), EXIT_OK


def cmd_curve(args, given, config, spec, descent, check) -> tuple[str, int]:
    kind = CURVE_FUNCTIONS.get(args.function.lower())
    if kind is None:
        raise ValidationError(
            f"unknown curve function {args.function!r}, expected H, S, or CE"
        )
    samples = integer("samples", args.samples, 2)
    # a finite width needs finite ends, and linspace scales its steps by the width
    if not (math.isfinite(args.x_max - args.x_min) and args.x_min < args.x_max):
        raise ValidationError(f"need x_min < x_max with a finite width x_max - x_min, got [{args.x_min}, {args.x_max}]")
    spec = replace(config.distance, kind=kind)
    try:
        xs = np.linspace(args.x_min, args.x_max, samples)
    except (MemoryError, ValueError):  # numpy refuses sizes beyond memory or the address space
        raise ValidationError(f"samples = {samples} points are too many to allocate") from None
    ys = distance_value(xs, spec)
    lines = [f"{format_float(float(x))} {format_float(float(y))}" for x, y in zip(xs, ys)]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_simulate(args, given, config, spec, descent, check) -> tuple[str, int]:
    trajectory = simulate_training(spec, config, **descent)
    document = {
        "command": "simulate",
        "seed": spec.seed,
        "steps": descent["steps"],
        "lr": descent["learning_rate"],
        "grad_form": config.gradient_form.value,
        "loss_distance": GRADIENT_LOSS,
        "records": [asdict(r) for r in trajectory.records],
        "final_loss": trajectory.final_loss,
        "final_ap": trajectory.final_ap,
    }
    return render_report(document), EXIT_OK


def _add_command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    # a setting absent from the namespace was not given, so the config file or the library supplies it
    parser = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    parser.add_argument("--config", default=None, help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
    for s in SETTINGS.values():
        parser.add_argument("--" + s.key.replace("_", "-"), help=s.help, **s.kind)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.set_defaults(handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairloss",
        description="Pairwise-error ranking loss: evaluation, gradient checks, sweeps, curves, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = _add_command(sub, "eval", cmd_eval, "evaluate loss (and gradient) on a score file")
    p_eval.add_argument("scores", help="score CSV (index,score,label)")

    p_check = _add_command(sub, "gradcheck", cmd_gradcheck, "compare analytic gradient against finite differences")
    p_check.add_argument("scores", help="score CSV (index,score,label)")

    p_sweep = _add_command(sub, "sweep", cmd_sweep, "sweep lambda, delta, T, or Q over a value list")
    p_sweep.add_argument("scores", nargs="?", default=None, help="optional score CSV; default is generated scores")
    p_sweep.add_argument("--parameter", required=True, help="one of lambda, delta, T, Q")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    p_curve = _add_command(sub, "curve", cmd_curve, "sample a distance function on a grid")
    p_curve.add_argument("--function", required=True, help="H (step), S (sigmoid), or CE")
    p_curve.add_argument("--x-min", dest="x_min", type=float, default=-1.0)
    p_curve.add_argument("--x-max", dest="x_max", type=float, default=1.0)
    p_curve.add_argument("--samples", type=int, default=101)

    _add_command(sub, "simulate", cmd_simulate, "gradient-descent training on synthetic scores")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    Builds every target (build) before the handler runs, calls it as
    handler(args, given, config, spec, descent, check), and writes the report
    text it returns to --out or stdout; an error becomes a message on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        given = given_settings(args)
        text, code = args.handler(args, given, *build(given))
        if args.out:
            write_text(args.out, text, "--out ")
        else:
            sys.stdout.write(text)
        return code
    except ScoreFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DivergenceError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, argparse.ArgumentTypeError) as exc:  # the latter from _parse_q on sweep values
        # a message that starts with a library field names the setting that fills it
        field, space, rest = str(exc).partition(" ")
        keys = {s.field: s.key for s in SETTINGS.values()}
        print(f"validation error: {keys.get(field, field)}{space}{rest}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

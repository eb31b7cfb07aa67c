"""Command-line surface: eval, gradcheck, sweep, curve, simulate.

Configuration is layered: built-in defaults, then an optional JSON config
file (--config, or the path in the PAIRLOSS_CONFIG environment variable),
then explicit flags. Reports go to stdout (or --out) as JSON with floats
rounded to 15 significant digits; curve output is two-column numeric text.

Exit codes: 0 success, 1 check failed (gradcheck mismatch or diverged
simulation), 2 parse error (bad file syntax), 3 validation error (legal
syntax, illegal values).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .distance import distance_value
from .loss import LossResult, evaluate_loss, evaluate_with_gradient
from .oracle import gradient_check
from .scorefile import ScoreFileError, format_float, read_score_file, render_report
from .sim import GeneratorSpec, Trajectory, descend_scores, generate_scores, simulate_training
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
    ScoreSet,
    ValidationError,
)

CONFIG_ENV_VAR = "PAIRLOSS_CONFIG"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3

SWEEP_PARAMETERS = ("lambda", "delta", "T", "Q")

CURVE_FUNCTIONS = {
    "h": "step",
    "step": "step",
    "s": "sigmoid",
    "sigmoid": "sigmoid",
    "ce": "ce-sigmoid",
    "ce-sigmoid": "ce-sigmoid",
}


@dataclass
class RunSettings:
    """Flattened knobs for one CLI run; every field has a working default."""

    distance: str = "ce-sigmoid"
    lam: float = 8.0
    delta: float = 0.5
    rank_delta: float | None = None
    threshold: float = 0.25
    filter_numerator: bool = True
    q: int | None = 100_000
    mode: str = "ranksum"
    grad_form: str = "error-driven"
    reduction: str = "mean"
    seed: int = 0
    n_pos: int = 50
    n_neg: int = 500
    pos_mean: float = 0.6
    pos_std: float = 0.1
    neg_mean: float = 0.4
    neg_std: float = 0.1
    clamp: tuple[float, float] | None = None
    steps: int = 200
    lr: float = 1.0
    epsilon: float = 1e-6
    tolerance: float = 1e-5


# config file key -> RunSettings field ("lambda" is a keyword, hence the map)
_FILE_KEYS = {f.name: f.name for f in fields(RunSettings) if f.name != "lam"}
_FILE_KEYS["lambda"] = "lam"


def _parse_q(text: str):
    if text.strip().lower() in {"unlimited", "none"}:
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q must be an integer or 'unlimited', got {text!r}") from None


def _parse_q_flag(text: str):
    # the flag layer needs "unlimited" kept distinct from "flag absent"
    value = _parse_q(text)
    return "unlimited" if value is None else value


def load_config_file(path: str) -> dict:
    """Read a JSON config file into RunSettings field updates."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScoreFileError(f"cannot read config {path}: {exc.strerror or exc}", 0, 0) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScoreFileError(f"config {path}: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise ValidationError(f"config {path}: top level must be an object")
    unknown = sorted(set(data) - set(_FILE_KEYS))
    if unknown:
        raise ValidationError(f"config {path}: unknown keys {unknown}")
    updates = {}
    for key, value in data.items():
        field = _FILE_KEYS[key]
        if field == "q" and isinstance(value, str):
            value = _parse_q(value)
        if field == "clamp" and value is not None:
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ValidationError(f"config {path}: clamp must be [lo, hi] or null")
            value = (float(value[0]), float(value[1]))
        updates[field] = value
    return updates


def resolve_settings(args: argparse.Namespace) -> RunSettings:
    settings = RunSettings()
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if path:
        for field, value in load_config_file(path).items():
            setattr(settings, field, value)
    for field in (f.name for f in fields(RunSettings)):
        value = getattr(args, field, None)
        if value is None:
            continue
        if field == "q" and value == "unlimited":
            value = None
        setattr(settings, field, value)
    return settings


def to_loss_config(settings: RunSettings) -> LossConfig:
    return LossConfig(
        distance=DistanceSpec(
            kind=DistanceKind(settings.distance),
            delta=float(settings.delta),
            lam=float(settings.lam),
        ),
        pair_filter=FilterSpec(
            mode=FilterMode(settings.mode),
            threshold=float(settings.threshold),
            filter_numerator=bool(settings.filter_numerator),
        ),
        budget=PairBudget(q=settings.q),
        gradient_form=GradientForm(settings.grad_form),
        reduction=Reduction(settings.reduction),
        rank_delta=settings.rank_delta,
    )


def to_generator_spec(settings: RunSettings) -> GeneratorSpec:
    return GeneratorSpec(
        seed=settings.seed,
        n_pos=settings.n_pos,
        n_neg=settings.n_neg,
        pos_mean=settings.pos_mean,
        pos_std=settings.pos_std,
        neg_mean=settings.neg_mean,
        neg_std=settings.neg_std,
        clamp=settings.clamp,
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_eval(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    config = to_loss_config(settings)
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
        "reduction": settings.reduction,
        "truncated": result.truncated,
        "active_pairs": result.active_pairs,
        "warnings": warnings,
        "per_anchor": _stats_rows(result),
        "gradient": None if result.gradient is None else result.gradient,
    }
    _emit(render_report(report), args.out)
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    config = to_loss_config(settings)
    score_set = read_score_file(args.scores)
    report = gradient_check(score_set, config, settings.epsilon, settings.tolerance)
    document = {
        "command": "gradcheck",
        "passed": report.passed,
        "max_rel_error": report.max_rel_error,
        "worst_index": report.worst_index,
        "epsilon": report.epsilon,
        "tolerance": report.tolerance,
    }
    _emit(render_report(document), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _sweep_values(parameter: str, raw: str) -> list:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValidationError("sweep needs at least one value")
    if parameter == "Q":
        return [_parse_q(p) for p in parts]
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"sweep values for {parameter} must be numbers, got {raw!r}") from None


def _sweep_config(base: RunSettings, parameter: str, value) -> LossConfig:
    settings = replace(base)
    if parameter == "lambda":
        settings.lam = value
    elif parameter == "delta":
        settings.delta = value
        settings.rank_delta = value
    elif parameter == "T":
        settings.threshold = value
        settings.mode = FilterMode.VALID_NEG_COUNT.value
    else:
        settings.q = value
    return to_loss_config(settings)


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    parameter = {"lambda": "lambda", "delta": "delta", "t": "T", "q": "Q"}.get(args.parameter.lower())
    if parameter is None:
        raise ValidationError(
            f"unknown sweep parameter {args.parameter!r}, expected one of {list(SWEEP_PARAMETERS)}"
        )
    values = _sweep_values(parameter, args.values)
    if args.scores:
        initial = read_score_file(args.scores)
    else:
        initial = generate_scores(to_generator_spec(settings))
    rows = []
    for value in values:
        config = _sweep_config(settings, parameter, value)
        trajectory = descend_scores(initial, config, settings.steps, settings.lr)
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
        "steps": settings.steps,
        "lr": settings.lr,
        "rows": rows,
    }
    _emit(render_report(document), args.out)
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    kind = CURVE_FUNCTIONS.get(args.function.lower())
    if kind is None:
        raise ValidationError(
            f"unknown curve function {args.function!r}, expected H, S, or CE"
        )
    samples = args.samples
    if samples < 2:
        raise ValidationError(f"samples must be >= 2, got {samples}")
    if not (math.isfinite(args.x_min) and math.isfinite(args.x_max) and args.x_min < args.x_max):
        raise ValidationError(f"need finite x_min < x_max, got [{args.x_min}, {args.x_max}]")
    spec = DistanceSpec(kind=DistanceKind(kind), delta=settings.delta, lam=settings.lam)
    xs = np.linspace(args.x_min, args.x_max, samples)
    ys = distance_value(xs, spec)
    lines = [f"{format_float(float(x))} {format_float(float(y))}" for x, y in zip(xs, ys)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _trajectory_document(trajectory: Trajectory, settings: RunSettings) -> dict:
    return {
        "command": "simulate",
        "seed": settings.seed,
        "steps": settings.steps,
        "lr": settings.lr,
        "grad_form": settings.grad_form,
        "records": [
            {
                "step": r.step,
                "total_loss": r.total_loss,
                "ranking_ap": r.ranking_ap,
                "gradient_norm": r.gradient_norm,
                "active_pairs": r.active_pairs,
            }
            for r in trajectory.records
        ],
        "final_loss": trajectory.final_loss,
        "final_ap": trajectory.final_ap,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    config = to_loss_config(settings)
    trajectory = simulate_training(to_generator_spec(settings), config, settings.steps, settings.lr)
    _emit(render_report(_trajectory_document(trajectory, settings)), args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
    parser.add_argument("--distance", choices=[k.value for k in DistanceKind])
    parser.add_argument("--lambda", dest="lam", type=float, help="sigmoid steepness")
    parser.add_argument("--delta", type=float, help="step ramp half-width")
    parser.add_argument("--rank-delta", dest="rank_delta", type=float, help="ramp half-width for smoothed ranks")
    parser.add_argument("--threshold", type=float, help="valid-pair score margin")
    parser.add_argument("--q", type=_parse_q_flag, help="pair budget (integer or 'unlimited')")
    parser.add_argument("--mode", choices=[m.value for m in FilterMode])
    parser.add_argument("--grad-form", dest="grad_form", choices=[g.value for g in GradientForm])
    parser.add_argument("--reduction", choices=[r.value for r in Reduction])
    parser.add_argument(
        "--filter-numerator",
        dest="filter_numerator",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="restrict the pair sum to valid pairs in negcount mode",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n-pos", dest="n_pos", type=int)
    parser.add_argument("--n-neg", dest="n_neg", type=int)
    parser.add_argument("--pos-mean", dest="pos_mean", type=float)
    parser.add_argument("--pos-std", dest="pos_std", type=float)
    parser.add_argument("--neg-mean", dest="neg_mean", type=float)
    parser.add_argument("--neg-std", dest="neg_std", type=float)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--epsilon", type=float, help="finite-difference step")
    parser.add_argument("--tolerance", type=float, help="gradcheck tolerance")
    parser.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairloss",
        description="Pairwise-error ranking loss: evaluation, gradient checks, sweeps, curves, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate loss (and gradient) on a score file")
    p_eval.add_argument("scores", help="score CSV (index,score,label)")
    _add_common(p_eval)
    p_eval.set_defaults(handler=cmd_eval)

    p_check = sub.add_parser("gradcheck", help="compare analytic gradient against finite differences")
    p_check.add_argument("scores", help="score CSV (index,score,label)")
    _add_common(p_check)
    p_check.set_defaults(handler=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="sweep lambda, delta, T, or Q over a value list")
    p_sweep.add_argument("scores", nargs="?", help="optional score CSV; default is the synthetic generator")
    p_sweep.add_argument("--parameter", required=True, help="one of lambda, delta, T, Q")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_curve = sub.add_parser("curve", help="sample a distance function on a grid")
    p_curve.add_argument("--function", required=True, help="H (step), S (sigmoid), or CE")
    p_curve.add_argument("--x-min", dest="x_min", type=float, default=-1.0)
    p_curve.add_argument("--x-max", dest="x_max", type=float, default=1.0)
    p_curve.add_argument("--samples", type=int, default=101)
    _add_common(p_curve)
    p_curve.set_defaults(handler=cmd_curve)

    p_sim = sub.add_parser("simulate", help="gradient-descent training on synthetic scores")
    _add_common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScoreFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except DivergenceError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()

"""Acceptance gate: nine checks covering the library's core guarantees.

Each check prints one verdict line, so running this file with -s reads as
a checklist. Tolerances and runtime budgets are pinned here on purpose;
loosening them to make a red check green defeats the point of the gate.
"""

import math
import time
from dataclasses import astuple

import numpy as np

from pairloss import (
    DistanceKind,
    DistanceSpec,
    FilterMode,
    FilterSpec,
    GeneratorSpec,
    LossConfig,
    PairBudget,
    brute_force_loss,
    ce_distance,
    evaluate_loss,
    evaluate_with_gradient,
    generate_scores,
    gradient_autodiff_ce,
    gradient_check,
    gradient_error_driven,
    sigmoid_distance,
    simulate_training,
    step_distance,
    valid_negative_count,
)

from conftest import make_set, nondegenerate_set, random_score_set


def verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {label}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def ce_config(lam=8.0, mode=FilterMode.RANK_SUM, q=None) -> LossConfig:
    return LossConfig(
        distance=DistanceSpec(kind=DistanceKind.CE_SIGMOID, lam=lam),
        pair_filter=FilterSpec(mode=mode),
        budget=PairBudget(q),
    )


def test_criterion_1_gradient_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        score_set = random_score_set(rng, int(rng.integers(2, 201)))
        for lam in (2.0, 4.0, 8.0, 16.0):
            for mode in (FilterMode.RANK_SUM, FilterMode.VALID_NEG_COUNT):
                for q in (3, None):
                    config = ce_config(lam=lam, mode=mode, q=q)
                    a = gradient_error_driven(score_set, config).gradient
                    b = gradient_autodiff_ce(score_set, config).gradient
                    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
                    worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    verdict(1, "gradient forms agree", ok, f"max rel {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_finite_difference_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    all_passed = True
    for case in range(20):
        mode = FilterMode.RANK_SUM if case % 2 == 0 else FilterMode.VALID_NEG_COUNT
        score_set = nondegenerate_set(rng, n_pos=3 + case % 4, n_neg=8 + case % 7)
        report = gradient_check(score_set, ce_config(mode=mode), epsilon=1e-6, tolerance=1e-5)
        worst = max(worst, report.max_rel_error)
        all_passed = all_passed and report.passed
    elapsed = time.perf_counter() - start
    ok = all_passed and elapsed < 10.0
    verdict(2, "analytic gradient matches finite differences", ok, f"max rel {worst:.3g}, {elapsed:.2f}s")


def test_criterion_3_closed_form_spot_values():
    ok = rel_gap(ce_distance(0.0, 8.0), math.log(2.0) / 8.0) <= 1e-12
    for lam in (2.0, 4.0, 8.0, 16.0):
        ok = ok and rel_gap(sigmoid_distance(0.0, lam), 0.5) <= 1e-12
    ok = ok and rel_gap(sigmoid_distance(0.25, 8.0), 0.8807970779778824) <= 1e-12
    result = evaluate_with_gradient(make_set([0.5, 0.5], [1, 0]), ce_config())
    ok = ok and result.stats[0].balance_constant == 1.5
    ok = ok and rel_gap(result.gradient[0], -1.0 / 3.0) <= 1e-12
    ok = ok and rel_gap(result.gradient[1], 1.0 / 3.0) <= 1e-12
    verdict(3, "closed-form spot values", ok)


def test_criterion_4_distance_family_coherence():
    xs = np.concatenate([np.linspace(-2.0, -0.01, 400), np.linspace(0.01, 2.0, 400)])
    hard = (xs > 0.0).astype(float)
    ok_limit = float(np.max(np.abs(sigmoid_distance(xs, 1000.0) - hard))) < 1e-3

    grid = np.linspace(-3.0, 3.0, 601)
    ok_sym = True
    for delta in (1.0, 0.5, 0.25, 0.125):
        gap = step_distance(grid, delta) + step_distance(-grid, delta) - 1.0
        ok_sym = ok_sym and float(np.max(np.abs(gap))) <= 1e-14
    for lam in (2.0, 4.0, 8.0, 16.0):
        gap = sigmoid_distance(grid, lam) + sigmoid_distance(-grid, lam) - 1.0
        ok_sym = ok_sym and float(np.max(np.abs(gap))) <= 1e-14

    rng = np.random.default_rng(44)
    score_set = random_score_set(rng, 60)
    ok_grids = True
    for delta in (1.0, 0.5, 0.25, 0.125):
        config = LossConfig(distance=DistanceSpec(kind=DistanceKind.STEP, delta=delta))
        ok_grids = ok_grids and math.isfinite(evaluate_loss(score_set, config).total_loss)
    for lam in (2.0, 4.0, 8.0, 16.0):
        total = evaluate_with_gradient(score_set, ce_config(lam=lam)).total_loss
        ok_grids = ok_grids and math.isfinite(total)
    counts = []
    for threshold in (0.0, 0.2, 0.25, 0.3, 0.5):
        config = LossConfig(
            distance=DistanceSpec(kind=DistanceKind.CE_SIGMOID),
            pair_filter=FilterSpec(mode=FilterMode.VALID_NEG_COUNT, threshold=threshold),
        )
        ok_grids = ok_grids and math.isfinite(evaluate_with_gradient(score_set, config).total_loss)
        counts.append(
            sum(valid_negative_count(score_set, int(u), threshold) for u in score_set.positive_indices)
        )
    ok_monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    verdict(4, "distance family coherence and parameter grids", ok_limit and ok_sym and ok_grids and ok_monotone)


def test_criterion_5_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    grid = [
        (kind, mode, q)
        for kind in (DistanceKind.STEP, DistanceKind.SIGMOID, DistanceKind.CE_SIGMOID)
        for mode in (FilterMode.RANK_SUM, FilterMode.VALID_NEG_COUNT)
        for q in (None, 5)
    ]
    worst = 0.0
    ok = True
    for case in range(200):
        kind, mode, q = grid[case % len(grid)]
        score_set = random_score_set(rng, int(rng.integers(2, 90)))
        config = LossConfig(
            distance=DistanceSpec(kind=kind),
            pair_filter=FilterSpec(mode=mode),
            budget=PairBudget(q),
        )
        expect = brute_force_loss(score_set, config)
        got = evaluate_loss(score_set, config)
        worst = max(worst, rel_gap(got.total_loss, expect.total_loss))
        ok = ok and set(got.per_anchor_loss) == set(expect.per_anchor_loss)
        for u, value in expect.per_anchor_loss.items():
            worst = max(worst, rel_gap(got.per_anchor_loss[u], value))
        if expect.gradient is not None:
            g = np.asarray(expect.gradient)
            main_grad = evaluate_with_gradient(score_set, config).gradient
            scale = np.maximum(np.maximum(np.abs(g), np.abs(main_grad)), 1e-300)
            worst = max(worst, float(np.max(np.abs(main_grad - g) / scale)))
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-12 and elapsed < 30.0
    verdict(5, "brute-force oracle equivalence", ok, f"max rel {worst:.3g}, {elapsed:.2f}s")


def test_criterion_6_budget_monotonicity():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(20):
        score_set = random_score_set(rng, int(rng.integers(10, 120)))
        n_neg = int(score_set.negative_indices.size)
        reference = evaluate_loss(score_set, ce_config(q=None)).total_loss
        budgets = sorted({1, 2, 3, 5, 8, 13, 21, max(1, n_neg)})
        previous = None
        for q in budgets:
            total = evaluate_loss(score_set, ce_config(q=q)).total_loss
            if previous is not None:
                ok = ok and total >= previous
            previous = total
        ok = ok and evaluate_loss(score_set, ce_config(q=max(1, n_neg))).total_loss == reference
        ok = ok and evaluate_loss(score_set, ce_config(q=n_neg + 5)).total_loss == reference
    verdict(6, "pair budget monotone and saturating", ok)


def test_criterion_7_optimization_sanity():
    start = time.perf_counter()
    spec = GeneratorSpec(seed=0)
    first = simulate_training(spec, ce_config(), steps=100, learning_rate=1.0)
    second = simulate_training(spec, ce_config(), steps=100, learning_rate=1.0)
    best_ap = max(r.ranking_ap for r in first.records)
    ok_ap = best_ap >= 0.99
    ok_loss = first.final_loss < first.initial_loss
    ok_repro = first.records == second.records and np.array_equal(
        first.final.scores, second.final.scores
    )
    elapsed = time.perf_counter() - start
    ok = ok_ap and ok_loss and ok_repro and elapsed < 60.0
    verdict(7, "synthetic separation training", ok, f"best AP {best_ap:.4f}, {elapsed:.2f}s")


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(88)
    config = ce_config()
    ok_shift = ok_perm = ok_sign = ok_pairsum = ok_ignore = True
    for _ in range(100):
        n = int(rng.integers(2, 60))
        # lattice scores make an integer shift exact in floating point
        scores = rng.integers(-2048, 2049, size=n) / 1024.0
        labels = rng.choice([1, 0, 0, -1], size=n)
        labels[int(rng.integers(0, n))] = -1
        score_set = make_set(scores, labels)
        base = evaluate_with_gradient(score_set, config)
        gradient = base.gradient

        shift = float(rng.integers(-8, 9))
        shifted = evaluate_with_gradient(score_set.with_scores(score_set.scores + shift), config)
        ok_shift = (
            ok_shift
            and shifted.total_loss == base.total_loss
            and np.array_equal(shifted.gradient, gradient)
        )

        perm = rng.permutation(n)
        permuted = evaluate_with_gradient(make_set(score_set.scores[perm], score_set.labels[perm]), config)
        ok_perm = ok_perm and rel_gap(permuted.total_loss, base.total_loss) <= 1e-12
        ok_perm = ok_perm and np.allclose(permuted.gradient, gradient[perm], rtol=1e-12, atol=1e-15)

        pos = score_set.positive_indices
        neg = score_set.negative_indices
        ign = score_set.ignore_indices
        ok_sign = ok_sign and bool(
            np.all(gradient[pos] <= 0.0) and np.all(gradient[neg] >= 0.0) and np.all(gradient[ign] == 0.0)
        )

        total_mass = float(np.sum(np.abs(gradient)))
        ok_pairsum = ok_pairsum and abs(math.fsum(gradient.tolist())) <= 1e-12 * max(1.0, total_mass)

        kept = np.sort(np.concatenate([pos, neg]))
        stripped = evaluate_with_gradient(make_set(score_set.scores[kept], score_set.labels[kept]), config)
        ok_ignore = ok_ignore and stripped.total_loss == base.total_loss
        ok_ignore = ok_ignore and np.array_equal(stripped.gradient, gradient[kept])

    verdict(
        8,
        "shift, permutation, sign, pair-sum, ignore invariants",
        ok_shift and ok_perm and ok_sign and ok_pairsum and ok_ignore,
        f"shift {ok_shift}, perm {ok_perm}, sign {ok_sign}, pair-sum {ok_pairsum}, ignore {ok_ignore}",
    )


def _bits(stats) -> tuple:
    """A RankStats row with its floats as hex strings, so equality is bitwise (the sign of zero included)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(stats)[1:])


def test_criterion_8_bitwise_permutation():
    # the ranks and per-anchor losses depend on the scores alone; the gradient keeps criterion 8's 1e-12,
    # because negative-side sums run in anchor order
    rng = np.random.default_rng(89)
    sets = [generate_scores(GeneratorSpec(seed=seed)) for seed in range(4)]
    for _ in range(20):
        n = int(rng.integers(2, 80))
        # a coarse lattice gives score ties, across the top-Q cut too
        sets.append(make_set(rng.integers(-16, 17, size=n) / 16.0, rng.choice([1, 0, 0, -1], size=n)))
    anchors = differing = 0
    for config in (ce_config(), ce_config(q=3)):
        for score_set in sets:
            perm = rng.permutation(len(score_set))
            base = evaluate_with_gradient(score_set, config)
            permuted = evaluate_with_gradient(make_set(score_set.scores[perm], score_set.labels[perm]), config)
            before = {s.anchor_index: s for s in base.stats}
            for s in permuted.stats:
                u = int(perm[s.anchor_index])
                same = _bits(s) == _bits(before[u])
                same = same and permuted.per_anchor_loss[s.anchor_index].hex() == base.per_anchor_loss[u].hex()
                anchors += 1
                differing += not same
            differing += permuted.total_loss.hex() != base.total_loss.hex()
    verdict(
        8,
        "ranks, per-anchor and total losses are bitwise permutation-invariant",
        differing == 0,
        f"{differing} differing results over {anchors} anchors",
    )


def test_criterion_9_performance():
    score_set = generate_scores(GeneratorSpec(seed=9, n_pos=500, n_neg=9500))
    config = ce_config(q=100_000)
    start = time.perf_counter()
    result = evaluate_with_gradient(score_set, config)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0 and math.isfinite(result.total_loss) and result.gradient is not None
    verdict(9, "10k-score loss and gradient in under a second", ok, f"{elapsed:.3f}s")

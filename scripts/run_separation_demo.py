"""Gradient descent on overlapping Gaussian score blocks, trajectory printed.

Fifty positives at N(0.6, 0.1) against five hundred negatives at
N(0.4, 0.1) start heavily interleaved; descending the pairwise ranking
loss should drive the ranking AP from roughly 0.7 to 1.0 within a few
dozen steps. Prints one row every --every steps plus the final summary.

Usage:
    python3 scripts/run_separation_demo.py [--seed 0] [--steps 200] [--lr 1.0]
"""

import argparse

from pairloss import GeneratorSpec, LossConfig, simulate_training


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--lr", type=float, default=1.0)
    parser.add_argument("--every", type=int, default=10, help="print every k-th step")
    args = parser.parse_args()

    spec = GeneratorSpec(seed=args.seed)
    config = LossConfig()
    trajectory = simulate_training(spec, config, args.steps, args.lr)

    print(f"{'step':>6} {'loss':>12} {'AP':>8} {'|grad|':>12} {'pairs':>7}")
    for record in trajectory.records:
        if record.step % args.every and record.step != args.steps:
            continue
        print(
            f"{record.step:>6d} {record.total_loss:>12.6f} {record.ranking_ap:>8.4f} "
            f"{record.gradient_norm:>12.6f} {record.active_pairs:>7d}"
        )
    print(
        f"\nloss {trajectory.initial_loss:.6f} -> {trajectory.final_loss:.6f}, "
        f"AP {trajectory.records[0].ranking_ap:.4f} -> {trajectory.final_ap:.4f} "
        f"after {args.steps} steps (seed {args.seed}, lr {args.lr:g})"
    )


if __name__ == "__main__":
    main()

"""The four benchmark workloads and the correctness gates each operation must pass.

Every workload is a closed loop: one caller starts its next operation only
after the previous one returned. No threads are used and the library's
`threads` argument is never passed. Inputs come from `generate_scores`,
seeded from the benchmark's --seed; timing covers the operation only, never
instance generation or the checks.

Why these four (each stresses a different layer of the package):

  dense_10k      the criterion-9 shape, 500 pos / 9 500 neg, default config
                 (Q=100000 does not bind: 4.75 M pairs per call). Both gradient
                 forms run in one op, so a change that speeds one form and slows
                 the other shows. The pair kernels and per-anchor row sums in
                 `loss` dominate; the same instance repeats every op.
  topq_50k       1 000 pos / 49 000 neg with PairBudget(200): the budget binds
                 (200 k active pairs), so the per-anchor rank scans in `ranking`
                 dominate and the pair kernels barely run.
  train_550      100 descent steps on the default 50 / 500 instance: 101 small
                 loss calls on scores that change every step, so per-call fixed
                 cost and the `sim` / `types` overheads dominate and no input
                 repeats.
  cli_eval_100k  `python -m pairloss.cli eval` on a 200 pos / 99 800 neg CSV in
                 negcount mode: interpreter start-up, CSV parsing and JSON
                 rendering in `scorefile` and `cli` carry the time. Positives
                 are drawn tight (std 0.02) and negatives wide (N(0.5, 0.2)):
                 with the default generator the threshold filter keeps a rare
                 tail (about 11 k pairs, varying by 60 % between seeds), so
                 pairs_per_s would measure the seed; here it keeps about 0.8 M
                 pairs, varying by 2 %.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pairloss import loss, sim
from pairloss.oracle import brute_force_loss
from pairloss.scorefile import format_float, read_score_file, write_score_file
from pairloss.sim import GeneratorSpec, generate_scores
from pairloss.types import FilterSpec, LossConfig, PairBudget
from spans import OpTrace

REL_TOL = 1e-12
CHILD_TIMEOUT_S = 120.0
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def derived_seed(seed: int, stream: int) -> int:
    """A generator seed for a secondary instance, derived from the run seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def gradient_failures(total_loss: float, gradient, labels: np.ndarray) -> list[str]:
    """Gates on one loss-plus-gradient result.

    The loss is finite; the gradient pair-sum is zero to REL_TOL of its mass
    (each pair moves its anchor and its negative by equal and opposite
    amounts); positives never get a positive gradient and negatives never a
    negative one.
    """
    failures = []
    if not math.isfinite(total_loss):
        failures.append(f"non-finite loss {total_loss!r}")
    g = None if gradient is None else np.asarray(gradient, dtype=np.float64)
    if g is None or g.shape != labels.shape or not np.isfinite(g).all():
        return failures + ["gradient missing, misshaped or non-finite"]
    mass = math.fsum(np.abs(g).tolist())
    pair_sum = math.fsum(g.tolist())
    if abs(pair_sum) > REL_TOL * mass:
        failures.append(f"gradient pair-sum {pair_sum:.3g} exceeds {REL_TOL:g} x mass {mass:.3g}")
    if (g[labels == 1] > 0).any():
        failures.append("a positive has a positive gradient")
    if (g[labels == 0] < 0).any():
        failures.append("a negative has a negative gradient")
    return failures


@dataclass
class Checked:
    """Outcome of the gates on one operation.

    pairs is the sum of active pairs over the op's loss evaluations; facts
    are exact counts that must repeat on every op of a run.
    """

    pairs: int
    facts: dict[str, int]
    failures: list[str] = field(default_factory=list)


@dataclass
class Child:
    """A finished child process: wall time, exit code, and its own peak RSS and minor faults."""

    wall_s: float
    returncode: int
    maxrss_kb: int
    minflt: int
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PAIRLOSS_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], workdir: Path) -> Child:
    """Run argv to completion and reap it with wait4, which gives its own rusage."""
    err_path = workdir / "child.stderr"
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
    deadline = start + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.001)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")[-2000:]
    return Child(wall, proc.returncode, usage.ru_maxrss, usage.ru_minflt, stderr)


def settle_allocator() -> None:
    """Allocate and free one 16 MiB block before any op is timed.

    glibc raises its mmap and trim thresholds when a block it mapped is freed,
    as in any long-running process that once held a large array. Left at the
    start-up thresholds, the 392 KB per-anchor temporaries of topq_50k flip at
    random from op to op between reusing heap memory and handing it back to the
    kernel (about 1 k against 256 k minor faults, 0.7 s against 1.4 s per op),
    and run medians become bimodal. CLI children are fresh processes and keep
    the start-up thresholds.
    """
    np.ones(2 * 1024 * 1024)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Workload:
    """One closed-loop workload: inputs, the timed op, and its checks."""

    name = ""
    oracle_entries = ("evaluate_with_gradient",)

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def build(self) -> None:
        """Set-up whose cost setup_s reports: generate (and for the CLI, write) the inputs."""
        self.score_set = generate_scores(self.spec)

    def prepare(self) -> None:
        """Untimed reference values the checks need."""

    def op(self):
        raise NotImplementedError

    def check(self, output) -> Checked:
        raise NotImplementedError

    def run(self, tracer=None):
        """One timed op: (wall seconds, minor page faults, output, OpTrace or None)."""
        if tracer is None:
            faults = minor_faults()
            start = time.perf_counter()
            output = self.op()
            wall = time.perf_counter() - start
            return wall, minor_faults() - faults, output, None
        with tracer:
            start = time.perf_counter()
            output = self.op()
            wall = time.perf_counter() - start
        return wall, 0, output, tracer.collect(wall)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def oracle_check(self) -> tuple[float, list[str]]:
        """Compare with brute_force_loss on a small companion instance of the same config.

        Returns the worst relative gap over total loss, per-anchor losses and
        gradient entries, and the failures (gap above REL_TOL, the bound
        acceptance criterion 5 uses).
        """
        n_pos, n_neg = (10, 190) if self.tiny else (100, 1900)
        companion = generate_scores(replace(self.spec, seed=derived_seed(self.seed, 1), n_pos=n_pos, n_neg=n_neg))
        expect = brute_force_loss(companion, self.config)
        worst = 0.0
        failures = []
        for entry in self.oracle_entries:
            got = getattr(loss, entry)(companion, self.config)
            worst = max(worst, rel_gap(got.total_loss, expect.total_loss))
            if set(got.per_anchor_loss) != set(expect.per_anchor_loss):
                failures.append(f"oracle: {entry} anchors differ from brute force")
                continue
            for u, value in expect.per_anchor_loss.items():
                worst = max(worst, rel_gap(got.per_anchor_loss[u], value))
            g = np.asarray(expect.gradient)
            scale = np.maximum(np.maximum(np.abs(g), np.abs(got.gradient)), 1e-300)
            worst = max(worst, float(np.max(np.abs(got.gradient - g) / scale)))
        if worst > REL_TOL:
            failures.append(f"oracle: worst relative gap {worst:.3g} exceeds {REL_TOL:g}")
        return worst, failures


class Dense(Workload):
    name = "dense_10k"
    oracle_entries = ("gradient_error_driven", "gradient_autodiff_ce")

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        n_pos, n_neg = (20, 380) if tiny else (500, 9500)
        self.spec = GeneratorSpec(seed=seed, n_pos=n_pos, n_neg=n_neg)
        self.config = LossConfig()
        self.size = f"{n_pos} pos x {n_neg} neg, Q={self.config.budget.q}, both gradient forms per op"

    def op(self):
        return (
            loss.gradient_error_driven(self.score_set, self.config),
            loss.gradient_autodiff_ce(self.score_set, self.config),
        )

    def check(self, output) -> Checked:
        driven, autodiff = output
        labels = self.score_set.labels
        slots = self.spec.n_pos * self.spec.n_neg
        failures = []
        for form, result in (("error-driven", driven), ("autodiff-ce", autodiff)):
            failures += [f"{form}: {f}" for f in gradient_failures(result.total_loss, result.gradient, labels)]
            if result.active_pairs != slots:
                failures.append(f"{form}: {result.active_pairs} active pairs, expected all {slots}")
        if not failures:
            scale = float(np.max(np.abs(driven.gradient)))
            gap = float(np.max(np.abs(driven.gradient - autodiff.gradient)))
            if rel_gap(driven.total_loss, autodiff.total_loss) > REL_TOL or gap > REL_TOL * scale:
                failures.append("the two gradient forms disagree beyond 1e-12 relative")
        pairs = driven.active_pairs + autodiff.active_pairs
        return Checked(pairs, {"active_pairs": pairs}, failures)


class TopQ(Workload):
    name = "topq_50k"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        n_pos, n_neg, q = (20, 480, 50) if tiny else (1000, 49000, 200)
        self.spec = GeneratorSpec(seed=seed, n_pos=n_pos, n_neg=n_neg)
        self.config = LossConfig(budget=PairBudget(q))
        self.size = f"{n_pos} pos x {n_neg} neg, Q={q} (binding)"

    def op(self):
        return loss.evaluate_with_gradient(self.score_set, self.config)

    def check(self, result) -> Checked:
        failures = gradient_failures(result.total_loss, result.gradient, self.score_set.labels)
        expected = self.spec.n_pos * self.config.budget.q
        if not result.truncated or result.active_pairs != expected:
            failures.append(f"budget: {result.active_pairs} active pairs, expected {expected} and truncation")
        return Checked(result.active_pairs, {"active_pairs": result.active_pairs}, failures)


class Train(Workload):
    name = "train_550"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.spec = GeneratorSpec(seed=seed, n_pos=10, n_neg=100) if tiny else GeneratorSpec(seed=seed)
        self.steps = 5 if tiny else 100
        self.config = LossConfig()
        self.size = f"{self.spec.n_pos} pos x {self.spec.n_neg} neg, {self.steps} steps, lr 1.0"

    def op(self):
        captured = []
        evaluate = sim.evaluate_with_gradient

        def capture(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            captured.append(result)
            return result

        sim.evaluate_with_gradient = capture
        try:
            trajectory = sim.simulate_training(self.spec, self.config, steps=self.steps, learning_rate=1.0)
        finally:
            sim.evaluate_with_gradient = evaluate
        return trajectory, captured

    def check(self, output) -> Checked:
        trajectory, captured = output
        labels = self.score_set.labels
        slots = self.spec.n_pos * self.spec.n_neg
        failures = []
        if len(trajectory.records) != self.steps + 1 or len(captured) != self.steps + 1:
            failures.append(f"{len(trajectory.records)} records, expected {self.steps + 1}")
        for step, result in enumerate(captured):
            failures += [f"step {step}: {f}" for f in gradient_failures(result.total_loss, result.gradient, labels)]
            if result.active_pairs != slots:
                failures.append(f"step {step}: {result.active_pairs} active pairs, expected {slots}")
        if any(not 0.0 <= r.ranking_ap <= 1.0 for r in trajectory.records):
            failures.append("ranking AP outside [0, 1]")
        reached = [r.step for r in trajectory.records if r.ranking_ap >= 0.99]
        pairs = sum(r.active_pairs for r in trajectory.records)
        facts = {"active_pairs": pairs, "steps_to_ap99": reached[0] if reached else -1}
        return Checked(pairs, facts, failures)


class CliEval(Workload):
    name = "cli_eval_100k"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        n_pos, n_neg = (20, 980) if tiny else (200, 99800)
        self.spec = GeneratorSpec(seed=seed, n_pos=n_pos, n_neg=n_neg, pos_std=0.02, neg_mean=0.5, neg_std=0.2)
        self.config = LossConfig(pair_filter=FilterSpec(mode="negcount"))
        self.csv = workdir / "scores.csv"
        self.out = workdir / "report.json"
        self.trace_file = workdir / "trace.json"
        self.child_peak_kb = 0
        self.size = f"{n_pos} pos x {n_neg} neg CSV, negcount mode, one child process per op"

    def build(self) -> None:
        super().build()
        write_score_file(str(self.csv), self.score_set)

    def prepare(self) -> None:
        # the CSV holds 15-digit scores, so the reference is computed on the file, as the CLI sees it
        from_file = read_score_file(str(self.csv))
        self.labels = from_file.labels
        expected = loss.evaluate_with_gradient(from_file, self.config)
        self.expected_loss = float(format_float(expected.total_loss))
        self.expected_pairs = expected.active_pairs

    def run(self, tracer=None):
        args = ["eval", str(self.csv), "--mode", "negcount", "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        if tracer is None:
            child = run_child([sys.executable, "-m", "pairloss.cli", *args], self.workdir)
            self.child_peak_kb = max(self.child_peak_kb, child.maxrss_kb)
            return child.wall_s, child.minflt, (child, self._report()), None
        probe = Path(__file__).with_name("probe.py")
        child = run_child([sys.executable, str(probe), "cli", str(self.trace_file), *args], self.workdir)
        trace = None
        if child.returncode == 0:
            trace = OpTrace.from_json(json.loads(self.trace_file.read_text()))
            trace.startup_s = child.wall_s - trace.wall_s
            trace.wall_s = child.wall_s
        return child.wall_s, child.minflt, (child, self._report()), trace

    def _report(self):
        try:
            return json.loads(self.out.read_text())
        except (OSError, ValueError):
            return None

    def peak_rss_kb(self) -> int:
        return self.child_peak_kb

    def check(self, output) -> Checked:
        child, report = output
        if child.returncode != 0 or report is None:
            return Checked(0, {}, [f"cli exited {child.returncode}: {child.stderr.strip()[-300:]}"])
        failures = gradient_failures(report["total_loss"], report["gradient"], self.labels)
        if report["total_loss"] != self.expected_loss:
            failures.append(f"cli total_loss {report['total_loss']!r} != in-process {self.expected_loss!r}")
        pairs = report["active_pairs"]
        if pairs != self.expected_pairs:
            failures.append(f"cli active_pairs {pairs} != in-process {self.expected_pairs}")
        return Checked(pairs, {"active_pairs": pairs}, failures)


WORKLOADS = {w.name: w for w in (Dense, TopQ, Train, CliEval)}

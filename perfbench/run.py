"""pairloss benchmark: run one workload as a closed loop for a fixed time.

Run from the repository root:

    python3 perfbench/run.py --workload dense_10k --seed 0 --seconds 24 --trace 0

--trace 0 times untraced operations and reports the end-to-end metrics.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics (self time per layer, work counts, tracing overhead).
Every operation passes correctness gates (workloads.py); a failed gate counts
the operation as failed. Once per run, outside the timed region, the
workload's config is also checked against the brute-force oracle.

The lines before the last describe the run: the environment, each metric
with its unit, and for traced runs the coverage of every wrapped call site.
The last line is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "loss.self_s": "s",
    "loss.self_ms_per_call": "ms",
    "loss.calls": "count",
    "loss.active_pairs": "count",
    "loss.pair_ratio": "ratio",
    "distance.calls": "count",
    "distance.elements": "count",
    "distance.self_s": "s",
    "distance.ns_per_element": "ns",
    "ranking.calls": "count",
    "ranking.scanned_elements": "count",
    "ranking.self_s": "s",
    "ranking.topq_s": "s",
    "types.scoreset_calls": "count",
    "types.scoreset_s": "s",
    "sim.self_s": "s",
    "sim.steps": "count",
    "sim.steps_to_ap99": "count",
    "scorefile.rows": "count",
    "scorefile.read_s": "s",
    "scorefile.render_s": "s",
    "scorefile.report_bytes": "bytes",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "op.minor_faults": "count",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
}


def say(text: str) -> None:
    print(f"perfbench: {text}", flush=True)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least TAIL_BEYOND samples above it, and its percentile.

    With fewer than TAIL_BEYOND + 1 samples no value qualifies; the minimum is
    returned instead.
    """
    ordered = sorted(values)
    index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[index], 100.0 * index / max(len(ordered) - 1, 1)


def git_state() -> tuple[str, object]:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)", None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)", None
    return rev.stdout.strip() or "unknown", bool(status.stdout.strip())


def environment(args, samples: dict) -> dict:
    import numpy
    import scipy

    rev, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": rev,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "samples": samples,
    }


def setup_times(args, workdir: Path) -> list[float]:
    """Import plus input set-up, each in a fresh interpreter, SETUP_REPEATS times."""
    from workloads import child_env

    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        argv = [sys.executable, str(HERE / "probe.py"), "setup", args.workload, str(args.seed), str(probe_dir)]
        done = subprocess.run(
            argv + [str(int(args.tiny))], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


@dataclass
class Sample:
    """One attempted operation."""

    wall_s: float
    faults: int
    checked: object
    trace: object


def measure(workload, seconds: float, traced: bool) -> tuple[list[Sample], list[Sample]]:
    """Closed loop for `seconds`; with tracing, untraced and traced ops alternate.

    Exact counts (active pairs, AP step, and for traced ops every span count
    and call count) must repeat on every op: the same seed gives the same
    instance. A mismatch fails the op.
    """
    from spans import Tracer
    from workloads import Checked

    tracer = Tracer() if traced else None
    plain: list[Sample] = []
    traced_ops: list[Sample] = []
    reference: dict[bool, object] = {}
    start = time.perf_counter()
    while True:
        use = tracer if traced and len(traced_ops) < len(plain) else None
        began = time.perf_counter()
        try:
            wall, faults, output, trace = workload.run(use)
            checked = workload.check(output)
        except Exception as exc:  # a failing op is counted, and the loop goes on
            wall, faults, trace = time.perf_counter() - began, 0, None
            checked = Checked(0, {}, [f"{type(exc).__name__}: {exc}"])
        if use is not None and trace is None and not checked.failures:
            checked.failures.append("traced op produced no trace")
        if not checked.failures:
            exact = (checked.facts, trace and (trace.counts, trace.site_calls))
            if reference.setdefault(use is not None, exact) != exact:
                checked.failures.append("exact counts differ from those of the run's first op")
        (plain if use is None else traced_ops).append(Sample(wall, faults, checked, trace))
        enough = plain and (not traced or len(traced_ops) >= 2)
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced_ops


def end_to_end_metrics(workload, plain: list[Sample], setup: list[float], ok_ratio: float) -> dict:
    walls = [s.wall_s for s in plain]
    tail, pct = tail_percentile(walls)
    pairs_per_s = sum(s.checked.pairs for s in plain) / sum(walls)
    say(f"op_tail_ms is p{pct:.0f} of {len(walls)} samples ({TAIL_BEYOND} or more beyond it)")
    say(f"pairs_per_s at input size: {workload.size}")
    say(f"setup_s is the median of {len(setup)} fresh-interpreter set-ups: {[round(t, 4) for t in setup]}")
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail * 1e3,
        "pairs_per_s": pairs_per_s,
        "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
        "ok_ratio": ok_ratio,
    }


def per_layer_metrics(plain: list[Sample], traced_ops: list[Sample]) -> dict:
    traces = [s.trace for s in traced_ops if s.trace is not None]
    if not traces:
        return dict.fromkeys(PER_LAYER, 0)

    def med(value) -> float:
        return statistics.median(value(t) for t in traces)

    def layer(name: str) -> float:
        return med(lambda t: t.layer_self_s[name])

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    first = traces[0]
    counts, entries = first.counts, first.layer_entries
    # each traced op is compared with the untraced op just before it, which cancels slow drift
    pairs = [(u.wall_s, t.trace) for u, t in zip(plain, traced_ops) if t.trace is not None]
    m = {
        "loss.self_s": layer("loss"),
        "loss.calls": entries["loss"],
        "loss.active_pairs": counts.get("loss.active_pairs", 0),
        "distance.calls": entries["distance"],
        "distance.elements": counts.get("distance.elements", 0),
        "distance.self_s": layer("distance"),
        "ranking.calls": entries["ranking"],
        "ranking.scanned_elements": counts.get("ranking.scanned_elements", 0),
        "ranking.self_s": layer("ranking"),
        "ranking.topq_s": med(lambda t: t.site_self_s["loss.select_top_q_negatives"]),
        "types.scoreset_calls": entries["types"],
        "types.scoreset_s": layer("types"),
        "sim.self_s": layer("sim"),
        "sim.steps": counts.get("sim.steps", 0),
        "sim.steps_to_ap99": counts.get("sim.steps_to_ap99", 0),
        "scorefile.rows": counts.get("scorefile.rows", 0),
        "scorefile.read_s": med(lambda t: t.site_self_s["cli.read_score_file"]),
        "scorefile.render_s": med(lambda t: t.site_self_s["cli.render_report"]),
        "scorefile.report_bytes": counts.get("scorefile.report_bytes", 0),
        "cli.self_s": layer("cli"),
        "cli.startup_s": med(lambda t: t.startup_s),
        "op.minor_faults": statistics.median(s.faults for s in plain),
        "trace.overhead_ratio": statistics.median(t.wall_s / u for u, t in pairs),
        "trace.self_sum_ratio": med(lambda t: (sum(t.layer_self_s.values()) + t.startup_s) / t.wall_s),
    }
    m["loss.self_ms_per_call"] = per(m["loss.self_s"], m["loss.calls"], 1e3)
    m["loss.pair_ratio"] = per(m["loss.active_pairs"], counts.get("loss.pair_slots", 0))
    m["distance.ns_per_element"] = per(m["distance.self_s"], m["distance.elements"], 1e9)
    return m


def report_coverage(traced_ops: list[Sample], metrics: dict) -> None:
    from spans import SITES, absent_sites

    absent = set(absent_sites())
    traces = [s.trace for s in traced_ops if s.trace is not None]
    for site in SITES:
        calls = sum(t.site_calls[site.name] for t in traces)
        state = "absent" if site.name in absent else f"{calls} calls over {len(traces)} traced ops"
        say(f"coverage {site.name} [{site.layer}]: {state}")
    ratio = metrics["trace.self_sum_ratio"]
    verdict = "ok" if 0.9 <= ratio <= 1.1 else "NOT MET"
    say(f"coverage: layer self times sum to {ratio:.3f} x the traced op time (within 10%: {verdict}); "
        f"traced ops take {metrics['trace.overhead_ratio']:.3f} x the untraced op before them")


def bench(args, workdir: Path) -> dict:
    from workloads import WORKLOADS, settle_allocator

    setup = [] if args.trace else setup_times(args, workdir)
    settle_allocator()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    workload.build()
    workload.prepare()
    say(f"workload {workload.name}: {workload.size}; closed loop, one caller, no threads")
    worst, oracle_failures = workload.oracle_check()
    say(f"oracle: worst relative gap to brute_force_loss {worst:.3g} (bound 1e-12): "
        + ("ok" if not oracle_failures else "; ".join(oracle_failures)))

    plain, traced_ops = measure(workload, args.seconds, bool(args.trace))
    samples = plain + traced_ops
    failed = [s for s in samples if s.checked.failures]
    for sample in failed[:5]:
        say("failed op: " + "; ".join(sample.checked.failures[:3]))
    counts = {"untraced_ops": len(plain), "traced_ops": len(traced_ops), "setup_runs": len(setup)}
    say("env " + json.dumps(environment(args, counts)))

    if args.trace:
        metrics, units = per_layer_metrics(plain, traced_ops), PER_LAYER
        report_coverage(traced_ops, metrics)
    else:
        ok_ratio = 1.0 - len(failed) / len(samples)
        metrics, units = end_to_end_metrics(workload, plain, setup, ok_ratio), END_TO_END
        say(f"failed_ratio = {len(failed) / len(samples)} ({len(failed)} of {len(samples)} ops)")
    for name, unit in units.items():
        say(f"metric {name} = {metrics[name]} {unit}")
    return {
        "correct": not failed and not oracle_failures,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["dense_10k", "topq_50k", "train_550", "cli_eval_100k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny instances, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "pairloss" / "__init__.py").is_file():
        print(f"perfbench: no pairloss sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Checked, Dense, Train  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "0.5", "--tiny", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert f"perfbench: metric {name} = {value} {unit}" in lines
    assert any(line.startswith("perfbench: env ") for line in lines)


def test_corrupted_gradient_raises_failed_ratio(tmp_path):
    workload = Dense(5, True, tmp_path)
    workload.build()
    honest = workload.op

    def corrupted():
        driven, autodiff = honest()
        driven.gradient[-1] += 1e-6
        return driven, autodiff

    workload.op = corrupted
    plain, _ = run.measure(workload, 0.1, traced=False)
    failed = [s for s in plain if s.checked.failures]
    assert len(failed) / len(plain) > 0
    assert "pair-sum" in failed[0].checked.failures[0]


def test_count_mismatch_within_a_run_is_a_failure(tmp_path):
    workload = Dense(5, True, tmp_path)
    workload.build()
    calls = []

    def drifting(output):
        calls.append(1)
        return Checked(1, {"active_pairs": len(calls)})

    workload.check = drifting
    plain, _ = run.measure(workload, 0.1, traced=False)
    assert len(plain) >= 2
    assert not plain[0].checked.failures
    assert all(s.checked.failures for s in plain[1:])


def test_counts_repeat_exactly_across_runs(tmp_path):
    keys = ("loss.active_pairs", "ranking.scanned_elements", "distance.elements", "sim.steps_to_ap99")
    seen = []
    for attempt in range(2):
        workload = Train(5, True, tmp_path)
        workload.build()
        plain, traced = run.measure(workload, 0.1, traced=True)
        assert not any(s.checked.failures for s in plain + traced)
        metrics = run.per_layer_metrics(plain, traced)
        seen.append({k: metrics[k] for k in keys})
    assert seen[0] == seen[1]
    assert all(seen[0][k] > 0 for k in keys)


def test_absent_site_traces_as_zero_calls(tmp_path, monkeypatch):
    missing = spans.Site("pairloss.loss", "no_longer_here", "loss")
    monkeypatch.setattr(spans, "SITES", spans.SITES + (missing,))
    assert spans.absent_sites() == ["loss.no_longer_here"]
    workload = Dense(5, True, tmp_path)
    workload.build()
    _, _, _, trace = workload.run(spans.Tracer())
    assert trace.site_calls["loss.no_longer_here"] == 0
    assert trace.site_calls["loss.compute_ranks"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "dense_10k", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

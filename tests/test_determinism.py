"""The determinism contract: bitwise on one machine and numpy build, within a few ulp across CPU dispatch.

numpy picks the SIMD code of ufuncs such as np.exp for the CPU at import
(NEP 38). A child process started with NPY_DISABLE_CPU_FEATURES naming every
feature numpy dispatches above its baseline runs the baseline code, and its
results are compared with this process's.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairloss
from pairloss import GeneratorSpec, LossConfig, ce_distance, evaluate_with_gradient, generate_scores, sigmoid_distance

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# lam * x spans the whole range where the sigmoid is neither 0 nor 1, densely where exp is near 2^53
GRID = np.concatenate([np.linspace(-745.0, 745.0, 20_001), np.linspace(-40.0, 40.0, 200_001)])
# where exp(-z) lies in [2^53, 2^54), the rounding of 1 + exp(-z) may double a 1-ulp step of exp
WIDE_BAND = (GRID >= -54 * math.log(2)) & (GRID <= -53 * math.log(2))

CHILD = """
import sys
import numpy as np
from pairloss import GeneratorSpec, LossConfig, ce_distance, evaluate_with_gradient, generate_scores, sigmoid_distance
from test_determinism import GRID, __cpu_dispatch__, __cpu_features__
result = evaluate_with_gradient(generate_scores(GeneratorSpec()), LossConfig())
np.savez(
    sys.argv[1],
    sigmoid=sigmoid_distance(GRID, 1.0),
    ce=ce_distance(GRID, 1.0),
    per_anchor_loss=list(result.per_anchor_loss.values()),
    gradient=result.gradient,
    enabled=[f for f in __cpu_dispatch__ if __cpu_features__[f]],
)
"""


def run_in_process():
    result = evaluate_with_gradient(generate_scores(GeneratorSpec()), LossConfig())
    return sigmoid_distance(GRID, 1.0), result


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of doubles between two arrays of nonnegative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_repeated_runs_are_bitwise_equal():
    sigmoid_a, result_a = run_in_process()
    sigmoid_b, result_b = run_in_process()
    assert sigmoid_a.tobytes() == sigmoid_b.tobytes()
    assert result_a.total_loss.hex() == result_b.total_loss.hex()
    assert result_a.gradient.tobytes() == result_b.gradient.tobytes()


def test_baseline_dispatch_agrees(tmp_path):
    dispatched = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    if not dispatched:
        pytest.skip("numpy dispatches nothing above its baseline on this CPU")
    src = str(Path(pairloss.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched),
        "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)]),
    }
    out = tmp_path / "baseline.npz"
    subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env, check=True)
    child = np.load(out)
    assert child["enabled"].size == 0

    sigmoid, result = run_in_process()
    ulps = ulp_distance(sigmoid, child["sigmoid"])
    assert ulps[~WIDE_BAND].max() <= 2
    assert ulps[WIDE_BAND].max() <= 4
    # softplus runs on SIMD exp and log1p: a cross-entropy value moves by at most 2 ulp, as measured
    assert ulp_distance(ce_distance(GRID, 1.0), child["ce"]).max() <= 2
    # a per-anchor loss sums such pair values exactly rounded and divides once: 2 ulp, as measured
    per_anchor = np.array(list(result.per_anchor_loss.values()))
    assert ulp_distance(per_anchor, child["per_anchor_loss"]).max() <= 2
    np.testing.assert_allclose(result.gradient, child["gradient"], rtol=1e-14, atol=0.0)

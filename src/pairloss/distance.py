"""Distance functions turning score differences into pairwise error values.

Three kernels, all vectorised over numpy arrays and exact for scalars:

  step_distance     piecewise-linear ramp, 0 below -delta, 1 above +delta
  sigmoid_distance  logistic curve with steepness lam
  ce_distance       cross-entropy of the sigmoid, softplus(lam*x)/lam

plus two analytic derivatives; only ce_distance_grad_wrt_u serves a
gradient path (autodiff-ce). The derivative convention everywhere is
d/d(anchor score): the argument x is score[negative] - score[anchor], so
d/d(anchor) = -d/dx.

Numerical notes. Every ramp value comes from one helper, _ramp, which
computes 0.5 + 0.5*(x/delta) inside the clamp: huge |x| cannot overflow the
way (x + delta) can, and x = +-inf reads as the ramp's limit, 1 or 0. Every
sigmoid value comes from one helper, _sigmoid(z) = 1 / (1 + exp(-z)); where
exp overflows the quotient saturates to exactly 0. The cross-entropy form
-(1/lam)*log(1 - sigmoid(lam*x)) loses everything to rounding once
lam*x > ~37, so it is evaluated as np.logaddexp(0, lam*x)/lam, the same
function arranged without the cancellation. Where that overflows, CE(x) = x
only if softplus(lam*x) rounds to lam*x (or lam*x is inf): there the true
value rounds to x. Any other overflow is the cross-entropy's own, as for
every x once lam < log(2) / DBL_MAX (about 3.86e-309), or for x near DBL_MAX
with lam*x of order 1, and raises ValidationError naming lam.

Determinism. np.exp runs on the SIMD code numpy selects for the CPU at
import (NEP 38 dispatch), so sigmoid values are bitwise repeatable on one
machine with one numpy build. Between numpy 2.4's AVX-512 and baseline
x86-64 code, exp differs by at most 1 ulp and a sigmoid value by at most
2 ulp, except where exp(-z) lies in [2^53, 2^54) (z in about
[-37.5, -36.7], values near 1e-16): there the rounding of 1 + exp(-z) can
double a 1-ulp step of exp to 4 ulp. tests/test_determinism.py pins this.
"""

from __future__ import annotations

import numpy as np

from .types import DistanceKind, DistanceSpec, ValidationError, finite, real_array


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = real_array("x", x)
    if not np.isfinite(arr).all():
        raise ValidationError("x must be finite")
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)); callers ignore the overflow of exp(-z), which saturates the result to 0."""
    return 1.0 / (1.0 + np.exp(-z))


def _ramp(x: np.ndarray, delta: float) -> np.ndarray:
    """clip(0.5 + 0.5 * (x / delta), 0, 1); x / delta may overflow to +-inf, which the clamp absorbs."""
    with np.errstate(over="ignore"):
        return np.clip(0.5 + 0.5 * (x / delta), 0.0, 1.0)


def step_distance(x, delta: float = 0.5):
    """Clamped linear ramp H(x) = clip((x + delta) / (2 delta), 0, 1).

    Exactly 0 for x <= -delta, exactly 1 for x >= delta, 0.5 at x = 0, and
    symmetric: H(x) + H(-x) = 1.
    """
    delta = finite("delta", delta, gt=0)
    arr, scalar = _prepare(x)
    return _ret(_ramp(arr, delta), scalar)


def sigmoid_distance(x, lam: float = 8.0):
    """Logistic distance S(x) = 1 / (1 + exp(-lam * x))."""
    lam = finite("lam", lam, gt=0)
    arr, scalar = _prepare(x)
    # lam * x may overflow to +-inf for extreme scores; the sigmoid saturates correctly
    with np.errstate(over="ignore"):
        return _ret(_sigmoid(lam * arr), scalar)


def sigmoid_distance_grad_wrt_u(x, lam: float = 8.0):
    """d S(v - u) / d u = -lam * S(x) * (1 - S(x)) at x = v - u.

    Written as -lam * S(x) * S(-x): both factors are stable, neither is a
    subtraction from 1.
    """
    lam = finite("lam", lam, gt=0)
    arr, scalar = _prepare(x)
    with np.errstate(over="ignore"):
        z = lam * arr
        return _ret(-lam * _sigmoid(z) * _sigmoid(-z), scalar)


def ce_distance(x, lam: float = 8.0):
    """Cross-entropy distance CE(x) = softplus(lam * x) / lam.

    Identical to -(1/lam) * log(1 - S(x)) but immune to the 1 - S
    cancellation for large lam * x. Nonnegative everywhere, ~0 for strongly
    correct pairs, asymptotically linear (slope 1) for strongly wrong ones.
    A value past the largest double raises ValidationError naming lam,
    unless it rounds to x (see the module's numerical notes).
    """
    lam = finite("lam", lam, gt=0)
    arr, scalar = _prepare(x)
    with np.errstate(over="ignore"):
        out = np.logaddexp(0.0, lam * arr) / lam
        if out.max(initial=0.0) == np.inf:
            over = np.isinf(out)
            # CE(x) is x where softplus(z) rounds to z (or z is inf); elsewhere the cross-entropy itself overflows
            z = lam * arr[over]
            refused = arr[over][np.logaddexp(0.0, z) != z].tolist()
            if refused:
                raise ValidationError(f"lam = {lam!r}: the cross-entropy of x = {refused[0]!r} overflows a double")
            out = np.where(over, arr, out)
    return _ret(out, scalar)


def ce_distance_grad_wrt_u(x, lam: float = 8.0):
    """d CE(v - u) / d u = -S(x) at x = v - u.

    The lam factors cancel: (1 / (lam * (1 - S))) from the outer log times
    (-lam * S * (1 - S)) from the inner sigmoid leaves -S.
    """
    lam = finite("lam", lam, gt=0)
    arr, scalar = _prepare(x)
    with np.errstate(over="ignore"):
        return _ret(-_sigmoid(lam * arr), scalar)


def distance_value(x, spec: DistanceSpec):
    """Evaluate the distance selected by spec."""
    if spec.kind is DistanceKind.STEP:
        return step_distance(x, spec.delta)
    if spec.kind is DistanceKind.SIGMOID:
        return sigmoid_distance(x, spec.lam)
    return ce_distance(x, spec.lam)

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
exp overflows the quotient saturates to exactly 0. It runs in the one array
that holds lam*x, a 0-d array for a scalar x: negate, exp, add 1 and divide
1 by the sum, each in place, which gives the bits of the expression. The
cross-entropy form -(1/lam)*log(1 - sigmoid(lam*x)) loses everything to
rounding once lam*x > ~37, so CE is computed as
max(x, 0) + log1p(exp(-lam*|x|))/lam: Maechler's softplus(z) = max(z, 0) +
log1p(exp(-|z|)) ("Accurately computing log(1 - exp(-|a|))", Rmpfr
vignette, 2012), the same function arranged without the cancellation,
divided by lam term by term. exp(-lam*|x|) lies in [0, 1] (it is 0 where
lam*|x| overflows), so the second term lies in [0, log(2)/lam], and both
exp and log1p run on numpy's SIMD code. Both terms are nonnegative, so the
value overflows only where the cross-entropy itself does: for every x once
lam < log(2) / DBL_MAX (about 3.86e-309), or for x near DBL_MAX with lam*x
of order 1. That overflow raises ValidationError naming lam. At a
power-of-two lam, scaling by lam is exact away from the ends of the double
range, so with L = log1p(exp(-lam*|x|)), (lam*x + L)/lam and x + L/lam
round alike and the value equals softplus(lam*x)/lam bit for bit; at any
other lam the two differ by at most 2 ulp.

Determinism. np.exp and np.log1p run on the SIMD code numpy selects for the
CPU at import (NEP 38 dispatch), so sigmoid and cross-entropy values are
bitwise repeatable on one machine with one numpy build. Between numpy 2.4's
AVX-512 and baseline x86-64 code, exp differs by at most 1 ulp and a
sigmoid value by at most 2 ulp, except where exp(-z) lies in [2^53, 2^54)
(z in about [-37.5, -36.7], values near 1e-16): there the rounding of
1 + exp(-z) can double a 1-ulp step of exp to 4 ulp. A cross-entropy value
differs by at most 2 ulp, and on either target lies within 2 ulp of the
oracle's math-module value. tests/test_determinism.py pins the dispatch
bounds and tests/test_distance.py the oracle bound.
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


def _scaled(arr: np.ndarray, lam: float) -> np.ndarray:
    """lam * arr in a new float array, 0-d for a 0-d arr, which the kernels then overwrite."""
    return np.multiply(arr, lam, out=np.empty_like(arr))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), computed in the float array z, which it returns.

    Callers ignore the overflow of exp(-z), which saturates the result to 0.
    """
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


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
        return _ret(_sigmoid(_scaled(arr, lam)), scalar)


def sigmoid_distance_grad_wrt_u(x, lam: float = 8.0):
    """d S(v - u) / d u = -lam * S(x) * (1 - S(x)) at x = v - u.

    Written as -lam * S(x) * S(-x): both factors are stable, neither is a
    subtraction from 1.
    """
    lam = finite("lam", lam, gt=0)
    arr, scalar = _prepare(x)
    with np.errstate(over="ignore"):
        return _ret(-lam * _sigmoid(_scaled(arr, lam)) * _sigmoid(_scaled(arr, -lam)), scalar)


def ce_distance(x, lam: float = 8.0):
    """Cross-entropy distance CE(x) = softplus(lam * x) / lam = max(x, 0) + log1p(exp(-lam * |x|)) / lam.

    Identical to -(1/lam) * log(1 - S(x)) but immune to the 1 - S
    cancellation for large lam * x. Nonnegative everywhere, ~0 for strongly
    correct pairs, asymptotically linear (slope 1) for strongly wrong ones.
    A value past the largest double is the cross-entropy's own overflow and
    raises ValidationError naming lam (see the module's numerical notes).
    """
    lam = finite("lam", lam, gt=0)
    arr, scalar = _prepare(x)
    out = np.abs(arr, out=np.empty_like(arr))
    with np.errstate(over="ignore"):  # lam * |x| past the largest double makes exp give exactly 0
        out *= -lam
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out /= lam
        out += np.maximum(arr, 0.0)
    if out.max(initial=0.0) == np.inf:
        raise ValidationError(f"lam = {lam!r}: the cross-entropy of x = {arr.flat[out.argmax()].item()!r} overflows a double")
    return _ret(out, scalar)


def ce_distance_grad_wrt_u(x, lam: float = 8.0):
    """d CE(v - u) / d u = -S(x) at x = v - u.

    The lam factors cancel: (1 / (lam * (1 - S))) from the outer log times
    (-lam * S * (1 - S)) from the inner sigmoid leaves -S.
    """
    lam = finite("lam", lam, gt=0)
    arr, scalar = _prepare(x)
    with np.errstate(over="ignore"):
        slopes = _sigmoid(_scaled(arr, lam))
        return _ret(np.negative(slopes, out=slopes), scalar)


def distance_value(x, spec: DistanceSpec):
    """Evaluate the distance selected by spec."""
    if spec.kind is DistanceKind.STEP:
        return step_distance(x, spec.delta)
    if spec.kind is DistanceKind.SIGMOID:
        return sigmoid_distance(x, spec.lam)
    return ce_distance(x, spec.lam)

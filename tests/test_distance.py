"""Distance function unit and property tests.

Expected values marked "40-digit" were computed independently with mpmath at
40 decimal digits and rounded to the nearest float64.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairloss import (
    DistanceKind,
    DistanceSpec,
    LossConfig,
    ScoreSet,
    ValidationError,
    brute_force_loss,
    ce_distance,
    ce_distance_grad_wrt_u,
    distance_value,
    evaluate_loss,
    gradient_autodiff_ce,
    gradient_error_driven,
    sigmoid_distance,
    sigmoid_distance_grad_wrt_u,
    step_distance,
)
from pairloss.oracle import _bf_ce

# 40-digit evaluations, rounded to float64
S_QUARTER = 0.8807970779778824  # 1/(1+e^-2)
S_MINUS_QUARTER = 0.11920292202211756
DS_QUARTER = -0.8399486832280522  # -8 * S * (1 - S) at x = 0.25
CE_ZERO = 0.08664339756999316  # ln(2)/8
CE_QUARTER = 0.2658660013803716  # softplus(2)/8
CE_MINUS_TEN = 2.256064234806769e-36  # 120-digit run: 40 digits absorb the tiny sigmoid into 1-S

REL = 1e-12

finite_x = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def rel_close(value, expected, rel=REL):
    return math.isclose(value, expected, rel_tol=rel, abs_tol=0.0)


class TestStepDistance:
    def test_midpoint(self):
        assert step_distance(0.0, 0.5) == 0.5

    def test_saturation(self):
        assert step_distance(-1.0, 0.5) == 0.0
        assert step_distance(1.0, 0.5) == 1.0
        assert step_distance(-1e300, 0.5) == 0.0
        assert step_distance(1e300, 0.5) == 1.0

    def test_ramp_value(self):
        assert step_distance(0.25, 0.5) == 0.75

    def test_vectorised(self):
        out = step_distance(np.array([-1.0, 0.0, 0.25, 1.0]), 0.5)
        assert out.tolist() == [0.0, 0.5, 0.75, 1.0]

    def test_nondecreasing(self):
        xs = np.linspace(-2.0, 2.0, 801)
        ys = step_distance(xs, 0.5)
        assert np.all(np.diff(ys) >= 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            step_distance(float("nan"), 0.5)
        with pytest.raises(ValidationError):
            step_distance(0.0, 0.0)
        with pytest.raises(ValidationError):
            step_distance(0.0, -1.0)

    @given(x=finite_x, delta=st.floats(min_value=1e-3, max_value=10.0))
    def test_symmetry_identity(self, x, delta):
        """H(x) + H(-x) = 1 within 1e-15."""
        assert abs(step_distance(x, delta) + step_distance(-x, delta) - 1.0) <= 1e-15

    @given(x=finite_x, delta=st.floats(min_value=1e-3, max_value=10.0))
    def test_range(self, x, delta):
        assert 0.0 <= step_distance(x, delta) <= 1.0


class TestSigmoidDistance:
    def test_midpoint(self):
        assert sigmoid_distance(0.0, 8.0) == 0.5

    def test_quarter(self):
        assert rel_close(sigmoid_distance(0.25, 8.0), S_QUARTER)
        assert rel_close(sigmoid_distance(-0.25, 8.0), S_MINUS_QUARTER)

    def test_extreme_arguments_stay_finite(self):
        assert sigmoid_distance(-500.0, 8.0) == 0.0
        assert sigmoid_distance(500.0, 8.0) == 1.0

    def test_strictly_increasing(self):
        xs = np.linspace(-3.0, 3.0, 1201)  # lam*x within +-24, no saturation
        ys = sigmoid_distance(xs, 8.0)
        assert np.all(np.diff(ys) > 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            sigmoid_distance(float("inf"), 8.0)
        with pytest.raises(ValidationError):
            sigmoid_distance(0.0, 0.0)

    @given(x=finite_x, lam=st.floats(min_value=0.1, max_value=64.0))
    def test_symmetry_identity(self, x, lam):
        """S(x) + S(-x) = 1 within 1e-14."""
        assert abs(sigmoid_distance(x, lam) + sigmoid_distance(-x, lam) - 1.0) <= 1e-14

    def test_hard_step_limit(self):
        """At lam = 1000 the sigmoid is within 1e-3 of a hard step for |x| >= 0.01."""
        xs = np.concatenate([np.linspace(-5.0, -0.01, 500), np.linspace(0.01, 5.0, 500)])
        ys = sigmoid_distance(xs, 1000.0)
        hard = (xs > 0).astype(float)
        assert np.max(np.abs(ys - hard)) < 1e-3


class TestSigmoidGradient:
    def test_midpoint(self):
        assert sigmoid_distance_grad_wrt_u(0.0, 8.0) == -2.0

    def test_quarter(self):
        assert rel_close(sigmoid_distance_grad_wrt_u(0.25, 8.0), DS_QUARTER)

    def test_saturation(self):
        assert abs(sigmoid_distance_grad_wrt_u(1e6, 8.0)) == 0.0

    @given(x=finite_x, lam=st.floats(min_value=0.1, max_value=64.0))
    def test_never_positive(self, x, lam):
        assert sigmoid_distance_grad_wrt_u(x, lam) <= 0.0


class TestCeDistance:
    def test_zero(self):
        assert rel_close(ce_distance(0.0, 8.0), CE_ZERO)

    def test_quarter(self):
        assert rel_close(ce_distance(0.25, 8.0), CE_QUARTER)

    def test_saturation_low(self):
        value = ce_distance(-10.0, 8.0)
        assert value < 1e-30
        assert rel_close(value, CE_MINUS_TEN)

    def test_no_cancellation_blowup(self):
        # naive -(1/lam)*log(1 - S) returns inf past lam*x ~ 37; this must not
        assert math.isfinite(ce_distance(100.0, 8.0))
        assert rel_close(ce_distance(100.0, 8.0), 100.0, rel=1e-12)

    def test_asymptotically_linear(self):
        assert rel_close(ce_distance(50.0, 8.0), 50.0, rel=1e-12)

    def test_overflowing_lam_x_returns_x(self):
        # lam * x overflows to inf, but CE(x) -> x is finite there
        assert ce_distance(3e307, 8.0) == 3e307
        np.testing.assert_array_equal(ce_distance(np.array([3e307, -3e307, 2e307]), 8.0), [3e307, 0.0, 2e307])

    @given(x=finite_x, lam=st.floats(min_value=0.1, max_value=64.0))
    def test_nonnegative(self, x, lam):
        assert ce_distance(x, lam) >= 0.0

    def test_convex_second_differences(self):
        xs = np.linspace(-3.0, 3.0, 601)
        ys = ce_distance(xs, 8.0)
        second = ys[:-2] - 2.0 * ys[1:-1] + ys[2:]
        assert np.min(second) >= -1e-9

    def test_strictly_increasing(self):
        xs = np.linspace(-3.0, 3.0, 1201)
        ys = ce_distance(xs, 8.0)
        assert np.all(np.diff(ys) > 0.0)


class TestCeOverflow:
    """softplus(lam x) / lam that overflows is x only where softplus(lam x) rounds to lam x."""

    LAMS = (5e-324, 1e-310, 3.8e-309, 3.9e-309, 1e-300)
    XS = (-1.7e308, -1e300, -1.0, -0.1, -5e-324, 5e-324, 0.1, 1.0, 1e300, 1.7e308)

    @pytest.mark.parametrize("lam", LAMS)
    def test_kernel_and_oracle_are_cross_entropies_or_refuse(self, lam):
        for x in self.XS:
            for ce in (ce_distance, _bf_ce):
                try:
                    value = ce(x, lam)
                except ValidationError as exc:
                    assert str(exc).startswith(f"lam = {lam!r}: ")
                else:
                    assert value >= 0.0, (ce, x, lam, value)

    def test_tiny_lam_refuses_every_x(self):
        # log(2) / lam overflows once lam < log(2) / DBL_MAX, about 3.86e-309
        for x in (-0.1, 0.0, 0.1):
            with pytest.raises(ValidationError, match=r"^lam = 1e-310: the cross-entropy of x = "):
                ce_distance(x, 1e-310)
        with pytest.raises(ValidationError, match=r"^lam = 1e-310: "):
            ce_distance(np.array([-1.0, 1.0]), 1e-310)
        assert ce_distance(0.0, 3.9e-309) == pytest.approx(math.log(2) / 3.9e-309, rel=1e-12)

    def test_overflowing_ce_near_the_largest_double_refuses(self):
        # lam x = 1.7: the true CE, about 1.87e308, is past the largest double, and not x
        with pytest.raises(ValidationError, match=r"^lam = 1e-308: "):
            ce_distance(1.7e308, 1e-308)
        with pytest.raises(ValidationError, match=r"^lam = 1e-308: "):
            _bf_ce(1.7e308, 1e-308)

    def test_the_loss_passes_the_refusal_through(self):
        ss = ScoreSet([0.3, 0.1, 0.2], [1, 0, 0])
        config = LossConfig(distance=DistanceSpec(lam=1e-310))
        for fn in (evaluate_loss, gradient_error_driven, gradient_autodiff_ce):
            with pytest.raises(ValidationError, match=r"^lam = 1e-310: the cross-entropy of x = "):
                fn(ss, config)
        with pytest.raises(ValidationError, match=r"^lam = 1e-310: "):
            brute_force_loss(ss, config)


class TestCeGradient:
    def test_is_negated_sigmoid(self):
        xs = np.linspace(-4.0, 4.0, 257)
        assert np.array_equal(ce_distance_grad_wrt_u(xs, 8.0), -sigmoid_distance(xs, 8.0))

    def test_zero(self):
        assert ce_distance_grad_wrt_u(0.0, 8.0) == -0.5

    def test_quarter(self):
        assert rel_close(ce_distance_grad_wrt_u(0.25, 8.0), -S_QUARTER)

    def test_matches_finite_differences_spot(self):
        eps = 1e-6
        fd = (ce_distance(0.1 + eps, 8.0) - ce_distance(0.1 - eps, 8.0)) / (2.0 * eps)
        assert abs(-fd - ce_distance_grad_wrt_u(0.1, 8.0)) < 1e-7

    def test_matches_finite_differences_grid(self):
        """1000 random points per steepness: analytic vs central differences, 1e-6 relative."""
        rng = np.random.default_rng(20240817)
        xs = rng.uniform(-2.0, 2.0, 1000)
        eps = 1e-6
        for lam in (2.0, 4.0, 8.0, 16.0):
            fd = (ce_distance(xs + eps, lam) - ce_distance(xs - eps, lam)) / (2.0 * eps)
            analytic = ce_distance_grad_wrt_u(xs, lam)
            rel = np.abs(-fd - analytic) / np.abs(analytic)
            assert np.max(rel) < 1e-6


class TestDistanceValue:
    def test_dispatch(self):
        x = np.array([-0.5, 0.0, 0.5])
        assert np.array_equal(distance_value(x, DistanceSpec(kind=DistanceKind.STEP, delta=0.5)), step_distance(x, 0.5))
        assert np.array_equal(distance_value(x, DistanceSpec(kind=DistanceKind.SIGMOID, lam=4.0)), sigmoid_distance(x, 4.0))
        assert np.array_equal(distance_value(x, DistanceSpec(kind=DistanceKind.CE_SIGMOID, lam=4.0)), ce_distance(x, 4.0))

    def test_scalar_in_scalar_out(self):
        out = distance_value(0.0, DistanceSpec())
        assert isinstance(out, float)

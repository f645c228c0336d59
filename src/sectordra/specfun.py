"""Bessel functions of the first kind with real order, and their zeros.

Everything downstream keys off J_v, its derivative, and its positive zeros,
with v real and non-negative (sector geometries need non-integer orders).
Values come from scipy.special.jv, the Amos algorithm (ACM TOMS 644). Its
worst relative error against the arbitrary-precision series on the test
grid is 2.9e-14, inside the 1e-12 contract, and it evaluates whole arrays
at once.

Zeros are located by a vectorized sign-change scan with a step well below
the minimal spacing of consecutive zeros (about 3.11, attained near v = 0),
so the ordinal index n is counted correctly for any order, then polished
with a bracket-guarded Newton iteration.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jv, jvp

from .errors import ConvergenceError, check_index, check_real

__all__ = ["bessel_j", "bessel_j_prime", "bessel_zero", "ConvergenceError"]

# sign-scan step, below half the minimal spacing of consecutive zeros
_STEP = 1.5
# tolerance on a zero's location, absolute for zeros below 1 and relative
# above: at large x doubles cannot resolve an absolute step of it
_TOL = 1e-12

# a zero search spans at most this many scan points, which bounds its time
# (about 4 s at the largest orders on a 2-vCPU Xeon) and memory (8 MB of
# abscissae): orders up to about 2.3e6 at n = 1 and indices up to about
# 500000 at small v
_MAX_SCAN = 1 << 20


def _arrays(v, x) -> tuple[np.ndarray, np.ndarray]:
    """v and x as float arrays; any element that is negative or not finite
    raises ValueError."""
    v, x = np.asarray(v, dtype=float), np.asarray(x, dtype=float)
    for name, value in (("order", v), ("argument", x)):
        if not ((value >= 0.0) & (value < math.inf)).all():
            raise ValueError(f"bessel {name} must be finite and >= 0, got {value}")
    return v, x


def _result(values: np.ndarray):
    """A 0-d result as a Python float, an array result as it is."""
    return float(values) if values.ndim == 0 else values


def bessel_j(v, x):
    """Bessel function of the first kind J_v(x).

    Args:
        v: order, real and >= 0; a float or an array.
        x: argument, >= 0; a float or an array broadcasting against v.

    Returns:
        J_v(x), a float for scalar arguments and an array otherwise, equal
        element by element to the scalar calls. Away from zeros of J_v it
        is within 1e-13 relative of mpmath for orders up to 1e4 and
        arguments up to 3e5 (the tested range); Amos loses digits at larger
        orders (4.4e-13 measured at v = 1e5).

    Raises:
        ValueError: if any element has v < 0 or x < 0, or is not finite.
    """
    v, x = _arrays(v, x)
    return _result(np.where(x == 0.0, v == 0.0, jv(v, x)))


def bessel_j_prime(v, x):
    """Derivative dJ_v/dx, from scipy.special.jvp (J_{v-1} - J_{v+1}) / 2.

    At x = 0 only v = 0 and v = 1 have series limits (0 and 1/2); other
    orders require x > 0. Takes and returns arrays as `bessel_j` does.
    Against mpmath for orders 0 to 30 and arguments up to 60 its error is
    within 1e-13 of max(|J_{v-1}|, |J_v|, |J_{v+1}|) (tested). For
    0 < v < 1 the derivative grows like x^(v-1) toward the axis, and at
    the smallest subnormal arguments J_{v-1} overflows (at v = 0.6,
    x = 5e-324, where the derivative is 9.3e128) or the derivative itself
    does (near 3e320 at v = 0.0096, x = 3e-323): a result that is not
    finite raises ValueError.
    """
    v, x = _arrays(v, x)
    at_zero = x == 0.0
    if np.any(at_zero & (v != 0.0) & (v != 1.0)):
        raise ValueError(f"derivative at x=0 is only handled for v=0 and v=1, got v={v}")
    # the series limits at x = 0 (jvp gives -0.0 at v = 0)
    values = np.where(at_zero, 0.5 * (v == 1.0), jvp(v, x))
    bad = ~np.isfinite(values)
    if bad.any():
        v_bad, x_bad = (float(np.broadcast_to(a, values.shape)[bad][0]) for a in (v, x))
        raise ValueError(f"derivative of J_v overflows at v={v_bad!r}, x={x_bad!r}")
    return _result(values)


def _bracket(v: float, n: int) -> tuple[float, float]:
    """Scan points (lo, hi) on either side of the n-th zero of J_v."""
    # J_v > 0 on (0, X_v1) and X_v1 > v, so start in the positive region
    start = max(0.9 * v, 0.05)
    top = (n + 0.5 * v - 0.25) * math.pi if v > 0.5 else n * math.pi
    points = (top - start) / _STEP + 2.0
    if not points <= _MAX_SCAN:
        raise ValueError(
            f"the zero search for v={v}, n={n} needs about {points:.3g} "
            f"scan points, more than the {_MAX_SCAN} allowed")
    xs = start + _STEP * np.arange(int((top - start) / _STEP) + 2)
    neg = jv(v, xs) < 0.0
    flips = np.flatnonzero(neg[1:] != neg[:-1])
    if flips.size < n:
        raise ConvergenceError(f"zero scan failed for v={v}, n={n}")
    i = flips[n - 1]
    return float(xs[i]), float(xs[i + 1])


def bessel_zero(v: float, n: int) -> float:
    """n-th positive zero X_vn of J_v, n = 1, 2, ...

    The scan starts just below the first zero, where J_v > 0, and marches
    in steps of 1.5 up to a proven bound on X_vn: zeros of sqrt(x) J_v(x)
    are spaced more than pi apart for v > 1/2 and approach McMahon's
    (n + v/2 - 1/4) pi from below, and for v <= 1/2 they lie below
    X_{1/2,n} = n pi. The n-th bracket is then polished by Newton steps
    that are rejected whenever they leave the bracket, with bisection as
    the fallback.

    Args:
        v: order, real and >= 0.
        n: 1-based zero index.

    Raises:
        ValueError: on a bad order or index, or when the scan would exceed
            _MAX_SCAN points.
        ConvergenceError: if the scan or the refinement exhausts its
            iteration budget (indicates a bug, not a user error).
    """
    check_real(v, "bessel order", closed=True)  # a scalar check, cheaper than _arrays
    lo, hi = _bracket(v, check_index(n, "zero index", 1))
    f_lo = jv(v, lo)
    xk = 0.5 * (lo + hi)
    step_tol = _TOL * max(1.0, xk)
    for it in range(80):
        f = jv(v, xk)
        if (f < 0.0) != (f_lo < 0.0):
            hi = xk
        else:
            lo, f_lo = xk, f
        # J_v' = (v/x) J_v - J_{v+1} holds for every order v >= 0
        fp = (v / xk) * f - jv(v + 1.0, xk)
        x_new = xk - f / fp if fp != 0.0 else 0.5 * (lo + hi)
        # convergence is judged on the raw Newton step, before the bracket
        # guard: an iterate that lands on the root becomes an endpoint, and
        # the strict inequality would otherwise reject the (tiny) next step
        # and bisect away from the best point found
        if abs(x_new - xk) <= step_tol:
            return float(x_new)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        xk = x_new
        if hi - lo <= 2.0 * step_tol:
            return float(0.5 * (lo + hi))
    raise ConvergenceError(f"zero refinement for v={v}, n={n} did not converge in {it + 1} iterations")

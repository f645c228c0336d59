import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import jn_zeros

import sectordra
from sectordra import ConvergenceError, bessel_j, bessel_j_prime, bessel_zero

from oracles import bessel_j_series, bessel_zero_bisect

ORDERS = [0.0, 0.5, 1.0, 2.0, 7.0 / 3.0, 4.0, 7.5, 12.0]
ARGS = [1e-6, 0.4, 1.0, 3.0, 7.0, 11.9, 12.1, 25.0, 60.0]


@pytest.mark.parametrize("v", ORDERS)
@pytest.mark.parametrize("x", ARGS)
def test_matches_series_oracle(v, x):
    ref = float(bessel_j_series(v, x))
    got = bessel_j(v, x)
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("v, x", [(2.0, 300000.3), (0.5, 123000.0),
                                  (1000.0, 1050.0), (10000.0, 10200.0)])
def test_matches_mpmath_at_large_order_and_argument(v, x):
    # beyond the series grid; mpmath switches to asymptotic expansions here
    with mpmath.workdps(30):
        ref = float(mpmath.besselj(v, x, maxterms=10**6, maxprec=10**5))
    assert bessel_j(v, x) == pytest.approx(ref, rel=1e-13)


def test_known_points():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.0, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0
    # half order collapses to a spherical wave
    for x in (0.7, 2.3, 9.1):
        ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert bessel_j(0.5, x) == pytest.approx(ref, rel=1e-12)


def test_derivative_against_central_difference():
    h = 1e-6
    for v in (0.0, 1.0, 2.0, 10.0 / 3.0):
        for x in (0.8, 2.0, 6.5, 14.0):
            num = (bessel_j(v, x + h) - bessel_j(v, x - h)) / (2.0 * h)
            assert bessel_j_prime(v, x) == pytest.approx(num, rel=1e-7, abs=1e-10)


def test_derivative_matches_mpmath():
    # orders 0-30 with fractional ones below 1, arguments 1e-3 to 60; the
    # error is scaled by the largest of J_{v-1}, J_v, J_{v+1}, from which
    # the derivative is formed, so it stays meaningful near zeros of J_v'
    orders = np.concatenate([np.arange(0.0, 31.0),
                             [0.1, 0.25, 0.5, 0.75, 0.9, 1.5, 2.5, 7.3, 12.7, 29.5]])
    xs = np.geomspace(1e-3, 60.0, 40)
    worst = 0.0
    with mpmath.workdps(40):
        for v in orders:
            for x, got in zip(xs, bessel_j_prime(v, xs)):
                mv, mx = mpmath.mpf(float(v)), mpmath.mpf(float(x))
                ref = mpmath.besselj(mv, mx, derivative=1)
                scale = max(abs(mpmath.besselj(mv + k, mx)) for k in (-1, 0, 1))
                worst = max(worst, float(abs(got - ref) / scale))
    assert worst <= 1e-13


def test_derivative_identity():
    # J2' = (J1 - J3) / 2 (DLMF 10.6.1), from bessel_j's values
    for x in (0.9, 3.7, 8.8):
        lhs = bessel_j_prime(2.0, x)
        rhs = 0.5 * (bessel_j(1.0, x) - bessel_j(3.0, x))
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


def test_derivative_at_origin():
    assert bessel_j_prime(0.0, 0.0) == 0.0
    assert bessel_j_prime(1.0, 0.0) == 0.5
    with pytest.raises(ValueError):
        bessel_j_prime(0.3, 0.0)
    with pytest.raises(ValueError):
        bessel_j_prime(2.0, 0.0)


@pytest.mark.parametrize("v, x", [(0.6, 5e-324), (0.0096, 3e-323)])
def test_derivative_refuses_a_result_that_is_not_finite(v, x):
    # jvp returned inf here: J_{v-1} overflows at the first point (mpmath
    # gives 9.3e128), and the derivative itself near 3e320 at the second
    for args in ((v, x), (v, np.array([1.0, x])), (np.array([v, v]), x)):
        with pytest.raises(ValueError, match=f"overflows at v={v!r}, x={x!r}$"):
            bessel_j_prime(*args)
    assert math.isfinite(bessel_j_prime(v, 1e-300))


def test_argument_validation():
    with pytest.raises(ValueError):
        bessel_j(-1.0, 2.0)
    with pytest.raises(ValueError):
        bessel_j(1.0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(math.nan, 1.0)
    # one bad element of an array is enough
    for bad in (-1.0, math.nan, math.inf):
        for f in (bessel_j, bessel_j_prime):
            with pytest.raises(ValueError):
                f(2.0, np.array([1.0, bad, 3.0]))
            with pytest.raises(ValueError):
                f(np.array([1.0, bad]), 2.0)
    with pytest.raises(ValueError, match="x=0"):
        bessel_j_prime(2.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        bessel_zero(1.0, 0)
    with pytest.raises(ValueError):
        bessel_zero(-2.0, 1)


def test_array_calls_match_scalar_calls():
    xs = np.array([0.0, 1e-6, 0.4, 3.0, 11.9, 25.0, 60.0])
    for v in ORDERS:
        for f in (bessel_j, bessel_j_prime):
            # J_v'(0) is only defined here for v = 0 and v = 1
            args = xs if f is bessel_j or v in (0.0, 1.0) else xs[1:]
            got = f(v, args)
            want = [f(v, float(x)) for x in args]
            assert all(type(w) is float for w in want)
            assert got.shape == args.shape
            assert got.tobytes() == np.array(want).tobytes()
    # orders broadcast against arguments as numpy arrays do
    table = bessel_j_prime(np.array(ORDERS)[:, None], xs[None, 1:])
    assert table.tobytes() == np.array(
        [[bessel_j_prime(v, float(x)) for x in xs[1:]] for v in ORDERS]).tobytes()


ZERO_CASES = [(0.0, 1), (0.0, 2), (0.0, 3), (1.0, 1), (1.0, 2),
              (2.0, 1), (2.0, 2), (3.0, 1), (4.0, 1), (2.0 * math.pi, 1)]


@pytest.mark.parametrize("v,n", ZERO_CASES)
def test_zero_against_bisection_oracle(v, n):
    got = bessel_zero(v, n)
    ref = bessel_zero_bisect(v, n)
    assert abs(got - ref) < 5e-12
    # and it really is a zero
    assert abs(bessel_j(v, got)) < 1e-12


def test_zero_reference_values():
    # the two orders the resonance model leans on hardest
    assert bessel_zero(1.0, 1) == pytest.approx(3.8317, abs=1e-4)
    assert bessel_zero(2.0, 1) == pytest.approx(5.1356, abs=1e-4)
    assert bessel_zero(0.0, 1) == pytest.approx(2.4048, abs=1e-4)


def test_zero_interlacing():
    # X_{v,n} < X_{v+1,n} < X_{v,n+1} for a few orders
    for v in (0.0, 1.0, 2.5):
        for n in (1, 2):
            a = bessel_zero(v, n)
            b = bessel_zero(v + 1.0, n)
            c = bessel_zero(v, n + 1)
            assert a < b < c


def test_zero_spacing_approaches_pi():
    xs = [bessel_zero(3.0, n) for n in range(1, 8)]
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    assert all(3.0 < g < 4.2 for g in gaps)
    assert gaps[-1] == pytest.approx(math.pi, abs=0.05)


def test_large_order_zero():
    v = 40.0
    x1 = bessel_zero(v, 1)
    assert x1 > v  # first zero always sits beyond the order
    assert abs(bessel_j(v, x1)) < 1e-12


def test_far_zeros_match_scipy():
    # large order with n > 1, and large index at v = 40: the n-th zero lies
    # past v + 2 v^(1/3) + pi (n + 1) + 3, so the scan must run further
    for v, n in ((1000, 3), (40, 1000)):
        ref = float(jn_zeros(v, n)[-1])
        assert bessel_zero(float(v), n) == pytest.approx(ref, rel=1e-13)


def test_high_index_zero_fast_and_on_mcmahon():
    v, n = 2.0, 100000
    # a generous bound: the scan is about 0.1 s, the per-point scalar
    # search it replaced took minutes
    t0 = time.perf_counter()
    got = bessel_zero(v, n)
    assert time.perf_counter() - t0 < 10.0
    beta = (n + 0.5 * v - 0.25) * math.pi
    mu = 4.0 * v * v
    ref = beta - (mu - 1.0) / (8.0 * beta)
    assert got == pytest.approx(ref, rel=1e-9)


def test_large_order_zero_on_olver():
    # |dx| <= tol cannot hold once x * eps > tol, so the Newton stop is
    # relative there; Olver's expansion of the first zero (leading
    # coefficient -a_1 / 2^(1/3), a_1 the first Airy zero) is good to
    # better than 1e-14 relative at v = 1e6
    v = 1e6
    got = bessel_zero(v, 1)
    ref = (v + 2.338107410459767 / 2.0 ** (1.0 / 3.0) * v ** (1.0 / 3.0)
           + 1.033150 * v ** (-1.0 / 3.0) - 0.00397 / v)
    assert got == pytest.approx(ref, rel=1e-12)


def test_zero_search_is_capped():
    with pytest.raises(ValueError, match="scan points"):
        bessel_zero(1e9, 1)
    with pytest.raises(ValueError, match="scan points"):
        bessel_zero(1.0, 10**7)
    with pytest.raises(ValueError, match="scan points"):
        bessel_zero(1.7e308, 1)


def test_import_loads_only_scipy_special():
    # a fresh interpreter: the FD solver's scipy modules load on first use,
    # and mpmath is a test-only dependency; the FD check itself never needs
    # scipy.sparse
    probe = ("import json, sys, sectordra\n"
             "def loaded(): return sorted(m for m in sys.modules\n"
             "    if m.split('.')[0] in ('scipy', 'mpmath'))\n"
             "after_import = loaded()\n"
             "sectordra.compare_modes(sectordra.SectorGeometry.quarter("
             "0.012, 0.00254, 12.85), 3, 16)\n"
             "print(json.dumps([after_import, loaded()]))")
    src = str(Path(sectordra.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    after_import, after_compare = json.loads(result.stdout)
    assert "scipy.special" in after_import
    for loaded, banned in (
            (after_import, ("scipy.sparse", "scipy.linalg", "scipy.optimize",
                            "mpmath")),
            (after_compare, ("scipy.sparse", "mpmath"))):
        for name in banned:
            assert not any(m == name or m.startswith(name + ".")
                           for m in loaded), name

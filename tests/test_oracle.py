import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from sectordra import (
    FDProblem,
    SectorGeometry,
    bessel_zero,
    compare_modes,
    fd_transverse_eigs,
)
from sectordra.errors import ConvergenceError
from sectordra.oracle import _assemble, _fd_eigenpairs

# analytic transverse spectrum of the unit quarter disk: conducting faces
# admit even azimuthal orders only, the arc pins H_z to zero
QUARTER_TARGETS = sorted(
    bessel_zero(float(v), n) for v in (0, 2, 4, 6) for n in (1, 2, 3))[:7]


def test_problem_validation():
    with pytest.raises(ValueError):
        FDProblem(a=0.0, phi0=math.pi / 2.0, n_r=32, n_phi=32)
    with pytest.raises(ValueError):
        FDProblem(a=1.0, phi0=math.pi / 2.0, n_r=8, n_phi=32)
    # the grid cap rejects on construction, before anything is allocated
    FDProblem(a=1.0, phi0=math.pi / 2.0, n_r=16, n_phi=512)
    for n_r, n_phi in ((513, 32), (32, 513), (100_000, 100_000)):
        with pytest.raises(ValueError, match="at most 512"):
            FDProblem(a=1.0, phi0=math.pi / 2.0, n_r=n_r, n_phi=n_phi)
    with pytest.raises(ValueError):
        fd_transverse_eigs(FDProblem(a=1.0, phi0=math.pi / 2.0,
                                     n_r=32, n_phi=32), 0)
    # shift-invert Lanczos needs count < n
    with pytest.raises(ValueError, match="from a 256-dim operator"):
        fd_transverse_eigs(FDProblem(a=1.0, phi0=math.pi / 2.0,
                                     n_r=16, n_phi=16), 256)


@pytest.mark.parametrize("grid", [16, 24, 32])
@pytest.mark.parametrize("phi0", [0.3, math.pi / 2.0, math.pi, 2.0 * math.pi])
def test_lanczos_matches_dense_eigh(grid, phi0):
    # every one of the smallest eigenvalues, none skipped or repeated
    problem = FDProblem(a=1.0, phi0=phi0, n_r=grid, n_phi=grid)
    dense = np.sqrt(scipy.linalg.eigh(_assemble(problem).toarray(),
                                      eigvals_only=True))
    for count in (1, 7, 12, 40):
        got = fd_transverse_eigs(problem, count)
        np.testing.assert_allclose(got, dense[:count], rtol=1e-8, atol=0.0)


def test_arpack_failure_is_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(1), np.zeros((289, 1)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)
    with pytest.raises(ConvergenceError, match="converged 1 of 3 eigenpairs"):
        fd_transverse_eigs(FDProblem(a=1.0, phi0=1.0, n_r=17, n_phi=17), 3)


def test_eigenvalues_cover_even_order_zeros(fd_quarter):
    kts, _ = fd_quarter[256]
    assert len(kts) == 7
    for got, want in zip(kts, QUARTER_TARGETS):
        assert got == pytest.approx(want, rel=5e-4)


def test_second_order_convergence(fd_quarter):
    for k in range(3):
        errs = [abs(fd_quarter[g][0][k] - QUARTER_TARGETS[k])
                for g in (64, 128, 256)]
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


def test_lowest_eigenvector_is_azimuthally_uniform():
    # the fundamental on the quarter disk carries no phi variation
    problem = FDProblem(a=1.0, phi0=math.pi / 2.0, n_r=64, n_phi=64)
    _, vecs = _fd_eigenpairs(problem, 3)
    fundamental = vecs[0]
    peak = float(np.max(np.abs(fundamental)))
    variation = float(np.max(fundamental.max(axis=1) - fundamental.min(axis=1)))
    assert variation / peak < 1e-6


def test_deterministic_results():
    problem = FDProblem(a=1.0, phi0=math.pi / 2.0, n_r=32, n_phi=32)
    assert fd_transverse_eigs(problem, 3) == fd_transverse_eigs(problem, 3)


def test_out_of_range_operators_are_rejected():
    # radii whose cell areas underflow or overflow, and sectors so thin that
    # the operator overflows, cannot be factorized, or is so ill-conditioned
    # that rounding swamps its smallest eigenvalues (1e-5 read 2.4007 for
    # 2.4033, 1e-60 read 3e-52)
    for a, phi0 in ((1e-303, math.pi / 2.0), (1e-160, math.pi / 2.0),
                    (1e300, math.pi / 2.0), (1.0, 1e-200), (1.0, 1e-80),
                    (1.0, 1e-60), (1.0, 1e-5)):
        with pytest.raises(ValueError):
            fd_transverse_eigs(FDProblem(a=a, phi0=phi0, n_r=16, n_phi=16), 2)
    # inside the range the 1/a scaling holds
    unit = fd_transverse_eigs(FDProblem(a=1.0, phi0=math.pi / 2.0, n_r=16,
                                        n_phi=16), 2)
    for a in (1e150, 1e-150):
        got = fd_transverse_eigs(FDProblem(a=a, phi0=math.pi / 2.0, n_r=16,
                                           n_phi=16), 2)
        np.testing.assert_allclose(np.multiply(got, a), unit, rtol=1e-12)


def test_radius_scaling():
    # k_t scales as 1/a for a fixed cross-section shape
    small = FDProblem(a=1.0, phi0=math.pi / 2.0, n_r=32, n_phi=32)
    big = FDProblem(a=2.0, phi0=math.pi / 2.0, n_r=32, n_phi=32)
    ks = fd_transverse_eigs(small, 2)
    kb = fd_transverse_eigs(big, 2)
    for a, b in zip(ks, kb):
        assert b == pytest.approx(a / 2.0, rel=1e-10)


def test_compare_modes_quarter():
    geom = SectorGeometry.quarter(a=1.0, h=1.0, eps_r=1.0)
    rows = compare_modes(geom, count=3, grid=128)
    assert [(row.m, row.n) for row in rows] == [(1, 1), (2, 1), (1, 2)]
    for row in rows:
        assert row.rel_error < 1e-3
        assert row.fd_k_t == pytest.approx(row.analytic_k_r,
                                           rel=row.rel_error + 1e-12)
    assert rows[0].analytic_k_r == pytest.approx(bessel_zero(2.0, 1), rel=1e-12)


def test_compare_modes_half_disk():
    # on the half disk the first azimuthally varying mode has v = 1
    geom = SectorGeometry(a=1.0, h=1.0, phi0=math.pi, eps_r=1.0)
    rows = compare_modes(geom, count=1, grid=128)
    assert rows[0].m == 1
    assert rows[0].analytic_k_r == pytest.approx(3.8317, abs=1e-4)
    assert rows[0].rel_error < 1e-3


def test_compare_modes_validation(table1):
    with pytest.raises(ValueError):
        compare_modes(table1, count=0, grid=64)
    # the cap rejects before any zero search or solve
    with pytest.raises(ValueError, match="at most 50"):
        compare_modes(table1, count=51, grid=64)

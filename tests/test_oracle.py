import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sectordra import (
    FDProblem,
    SectorGeometry,
    bessel_zero,
    compare_modes,
    fd_transverse_eigs,
)
from sectordra.errors import ConvergenceError
from sectordra.oracle import _apply, _fd_eigenpairs, _rings
import sectordra.modal as modal

from oracles import compare_targets_grid, fd_operator_loop

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
    # the smallest count eigenpairs of an n-dim operator need count < n
    with pytest.raises(ValueError, match="from a 256-dim operator"):
        fd_transverse_eigs(FDProblem(a=1.0, phi0=math.pi / 2.0,
                                     n_r=16, n_phi=16), 256)
    # 216 eigenvectors at 512^2 is the cap, refused before any solve
    with pytest.raises(ValueError, match="217 FD eigenvectors on a 512 x 512 grid"):
        fd_transverse_eigs(FDProblem(a=1.0, phi0=math.pi / 2.0,
                                     n_r=512, n_phi=512), 217)


@pytest.mark.parametrize("grid", [16, 24, 32])
@pytest.mark.parametrize("phi0", [0.3, math.pi / 2.0, math.pi, 2.0 * math.pi])
def test_lanczos_matches_dense_eigh(grid, phi0):
    # every one of the smallest eigenvalues, none skipped or repeated
    problem = FDProblem(a=1.0, phi0=phi0, n_r=grid, n_phi=grid)
    dense = np.sqrt(scipy.linalg.eigh(
        fd_operator_loop(1.0, phi0, grid, grid).toarray(), eigvals_only=True))
    for count in (1, 7, 12, 40):
        got = fd_transverse_eigs(problem, count)
        np.testing.assert_allclose(got, dense[:count], rtol=1e-8, atol=0.0)


def test_lapack_failure_is_convergence_error(monkeypatch):
    # a LAPACK failure on a radial problem is a ConvergenceError, not a crash
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("stemr (eigh_tridiagonal) did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    with pytest.raises(ConvergenceError, match="azimuthal mode 0 failed"):
        fd_transverse_eigs(FDProblem(a=1.0, phi0=1.0, n_r=17, n_phi=17), 3)


@pytest.mark.parametrize("n_r, n_phi", [(16, 40), (40, 16), (17, 23)])
@pytest.mark.parametrize("phi0", [0.3, math.pi / 2.0, 2.0 * math.pi])
def test_non_square_grids_match_dense_eigh(n_r, n_phi, phi0):
    # a square grid would hide a transposed ring/azimuth layout
    problem = FDProblem(a=1.0, phi0=phi0, n_r=n_r, n_phi=n_phi)
    b = fd_operator_loop(1.0, phi0, n_r, n_phi).toarray()
    dense = np.sqrt(scipy.linalg.eigh(b, eigvals_only=True))
    for count in (1, 7, 12, 40):
        got, y, q = _fd_eigenpairs(problem, count)
        vecs = y[:, :, None] * q[:, None, :]
        np.testing.assert_allclose(got, dense[:count], rtol=1e-8, atol=0.0)
        assert vecs.shape == (count, n_r, n_phi)
        x = vecs.reshape(count, -1).T
        np.testing.assert_allclose(x.T @ x, np.eye(count), atol=1e-12)
        np.testing.assert_allclose(b @ x, x * np.square(got), rtol=0.0,
                                   atol=1e-9 * max(got) ** 2)


@pytest.mark.parametrize("a, phi0, n_r, n_phi", [
    (1.0, math.pi / 2.0, 16, 16), (0.012, 0.3, 40, 16), (0.012, 0.3, 16, 40),
    (1e-150, 2.0 * math.pi, 23, 17), (1e150, 1e-5, 17, 23),
    (0.02, math.pi, 72, 72)])
def test_assembly_is_bitwise_the_face_loop(a, phi0, n_r, n_phi):
    _, entries = _rings(FDProblem(a=a, phi0=phi0, n_r=n_r, n_phi=n_phi))
    b = fd_operator_loop(a, phi0, n_r, n_phi)
    # every nonzero is bitwise the one ring entry its position names
    coo = b.tocoo()
    (ring, cell), (to_ring, to_cell) = (np.divmod(coo.row, n_phi),
                                        np.divmod(coo.col, n_phi))
    same, diag = ring == to_ring, coo.row == coo.col
    edge = (cell == 0) | (cell == n_phi - 1)
    kinds = (diag & edge, diag & ~edge, to_ring == ring + 1,
             to_ring == ring - 1, same & (abs(cell - to_cell) == 1))
    assert np.array_equal(sum(k.astype(int) for k in kinds), np.ones(coo.nnz))
    for kind, entry in zip(kinds, entries):
        want = coo.data[kind]
        assert want.size == np.count_nonzero(kind) > 0
        assert (entry[np.minimum(ring, to_ring)[kind]].tobytes()
                == want.tobytes())
    # B applied from the entries to a random stack agrees with the sparse
    # product to rounding
    x = np.random.default_rng(7).standard_normal((3, n_r, n_phi))
    flat = x.reshape(3, -1).T
    want = (b @ flat).T.reshape(x.shape)
    scale = (abs(b) @ abs(flat)).T.reshape(x.shape)
    assert np.all(abs(_apply(entries, x) - want) <= 1e-14 * scale)


@pytest.mark.parametrize("phi0, count, message", [
    (1e-100, 2, "too thin for the grid"),
    # B fits the float range, but with all 16 blocks solved the diagonal of
    # the last one (about twice B's) would not
    (5.5e-152, 255, "out of floating-point range")])
def test_extreme_sectors_are_refused_silently(capfd, phi0, count, message):
    # nothing, such as a LAPACK DLASCL complaint, reaches stdout or stderr
    with pytest.raises(ValueError, match=message):
        fd_transverse_eigs(FDProblem(a=1.0, phi0=phi0, n_r=16, n_phi=16),
                           count)
    assert capfd.readouterr() == ("", "")


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
    _, y, q = _fd_eigenpairs(problem, 3)
    vecs = y[:, :, None] * q[:, None, :]
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


def test_compare_modes_thin_sector():
    # at v = 20 pi, 23 FD eigenvalues, all of block 0, lie below the first
    # target; its partner is the first eigenvalue of block 1
    geom = SectorGeometry(a=1.0, h=1.0, phi0=0.05, eps_r=1.0)
    rows = compare_modes(geom, count=1, grid=64)
    assert (rows[0].m, rows[0].n) == (1, 1)
    assert rows[0].rel_error < 1e-3


@pytest.mark.parametrize("phi0", [0.3, 1.0, math.pi / 2.0, math.radians(137.5),
                                  math.pi, 2.0 * math.pi])
def test_compare_modes_frontier_is_the_sorted_grid(phi0):
    # the same (k_r, m, n) rows as the sorted candidate grid, ties and order
    # included; the largest count first, so the rest find its zeros cached.
    # At 24^2 the grid holds every target (up to m = 21 at 2 pi, n = 18 at
    # 0.3 rad)
    geom = SectorGeometry(a=0.012, h=0.00254, phi0=phi0, eps_r=12.85)
    for count in (50, 20, 7, 3, 1):
        rows = compare_modes(geom, count=count, grid=24)
        assert ([(row.analytic_k_r, row.m, row.n) for row in rows]
                == compare_targets_grid(geom, count))


def test_compare_modes_zero_searches(table1):
    modal._zero.cache_clear()
    compare_modes(table1, count=50, grid=16)
    assert modal._zero.cache_info().misses <= 2 * 50 + 1


def test_compare_modes_answers_a_thin_sector_at_its_caps():
    # at 0.01 rad all 50 targets are block 1's: 50 eigenvectors of 512^2,
    # where a window of every FD eigenvalue below the 50th target would
    # hold 246 or more. They are formed one at a time for the residual
    # check (9 MB peak); their stack alone would take 105 MB
    geom = SectorGeometry(a=0.012, h=0.00254, phi0=0.01, eps_r=12.85)
    tracemalloc.start()
    try:
        rows = compare_modes(geom, count=50, grid=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 50
    assert peak < 20e6


@pytest.mark.parametrize("phi0, grid", [(math.pi / 2.0, 16), (0.3, 24)])
def test_compare_modes_pairs_each_mode_with_its_dense_block(phi0, grid):
    # dense eigenvectors of B sorted by their azimuthal cosine: row (m, n)
    # holds the n-th eigenvalue of class m. On the quarter sector at 16^2
    # the nearest FD value is often another mode's
    geom = SectorGeometry(a=0.012, h=0.00254, phi0=phi0, eps_r=12.85)
    lam, x = scipy.linalg.eigh(
        fd_operator_loop(geom.a, phi0, grid, grid).toarray())
    q = np.cos(np.pi * np.outer(np.arange(grid), np.arange(grid) + 0.5) / grid)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    weight = np.square(x.T.reshape(-1, grid, grid) @ q.T).sum(axis=1)
    assert np.all(weight.max(axis=1) > 1.0 - 1e-8)
    cls = weight.argmax(axis=1)
    for row in compare_modes(geom, count=50, grid=grid):
        want = lam[cls == row.m][row.n - 1]
        assert row.fd_k_t ** 2 == pytest.approx(want, rel=1e-8)


def test_compare_modes_refuses_modes_the_grid_cannot_hold():
    # the 20 smallest modes at 0.05 rad reach n = 23 in block 1; 16 rings
    # hold 16
    geom = SectorGeometry(a=0.012, h=0.00254, phi0=0.05, eps_r=12.85)
    with pytest.raises(ValueError, match="16 x 16 FD grid holds m < 16, n <= 16"):
        compare_modes(geom, count=20, grid=16)
    assert len(compare_modes(geom, count=20, grid=24)) == 20


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.01, 2.0 * math.pi), st.integers(1, 50), st.integers(16, 64))
def test_fuzzed_compare_modes_answers_or_refuses(phi0, count, grid):
    # each call returns its rows or refuses within 2 s; the worst case,
    # 0.01 rad, count 50 at 64^2 with cold zeros, takes 0.14 s on 2 vCPUs
    geom = SectorGeometry(a=0.012, h=0.00254, phi0=phi0, eps_r=12.85)
    start = time.perf_counter()
    try:
        rows = compare_modes(geom, count=count, grid=grid)
    except ValueError:
        rows = None
    assert time.perf_counter() - start < 2.0
    if rows is not None:
        assert len(rows) == count
        for row in rows:
            assert math.isfinite(row.fd_k_t) and row.fd_k_t > 0.0
            assert math.isfinite(row.rel_error)


def test_compare_modes_validation(table1):
    with pytest.raises(ValueError):
        compare_modes(table1, count=0, grid=64)
    # the cap rejects before any zero search or solve
    with pytest.raises(ValueError, match="at most 50"):
        compare_modes(table1, count=51, grid=64)
    # k_r of (1, 1) fits the float range, the FD operator does not
    with pytest.raises(ValueError, match="FD operator out of floating-point range"):
        compare_modes(SectorGeometry(a=2.38e-154, h=1.0, phi0=2.0 * math.pi,
                                     eps_r=1.0), count=1, grid=16)

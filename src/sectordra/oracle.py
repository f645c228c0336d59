"""Finite-difference eigensolver for the sector cross-section.

An independent check on the closed-form transverse eigenvalues: discretize

    -(1/r) d/dr(r dH/dr) - (1/r^2) d2H/dphi2 = k_t^2 H

on the sector 0 < r < a, 0 < phi < phi0 with a conservative 5-point stencil
on a cell-centered polar grid (first radial node at dr/2, so the axis needs
no special casing: the flux through r = 0 vanishes with the face length),
zero-flux (Neumann) faces, and a Dirichlet arc. The discrete spectrum must
converge to {X_vn / a : v = m pi / phi0}, which is exactly what the
closed-form model claims, and this module computes it without touching the
Bessel routines it is meant to validate.

The weighted operator is symmetrized with the polar cell areas, so all
eigenvalues are real and positive. On the tensor grid it separates as in
the fast Poisson solvers (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
1970): the DCT-II cosines diagonalize its azimuthal part, the cell-centered
Neumann second difference, and split it into one symmetric tridiagonal
radial problem per cosine. LAPACK's deterministic MRRR routine solves each
in O(n_r) per eigenpair (Dhillon & Parlett, Linear Algebra Appl. 387, 2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, is_index
from .modal import ModeFamily, ModeSpec, SectorGeometry, wavenumbers

__all__ = ["FDProblem", "CompareRow", "fd_transverse_eigs", "compare_modes"]

# nodes per grid axis: 7 eigenpairs at 512^2 take 0.3 s, 145 MB on 2 vCPUs
_MAX_GRID = 512
# analytic-vs-FD pairs per compare_modes call
_MAX_COUNT = 50
# largest |B x - lam x| / lam accepted for a unit eigenvector x. B is
# symmetric, so some eigenvalue of B lies that close to lam, relatively
# (Parlett, The Symmetric Eigenvalue Problem, ch. 4), which bounds the
# rounding error of the solve. Sectors of 0.01 rad and wider pass up to
# 512^2 (worst 1.8e-4 at 0.01 rad and 512^2, 2.8e-6 at 128^2); in thinner
# ones the azimuthal couplings of B, of order 1/phi0^2, carry rounding
# errors that swamp its smallest eigenvalues (at 1e-5 rad and 16^2 the
# residual is 2.8e-2).
_MAX_RESIDUAL = 1e-3


@dataclass(frozen=True)
class FDProblem:
    """Polar-grid discretization of the sector cross-section.

    n_r and n_phi count cell-centered nodes, each from 16 to 512 (the cap
    bounds the solve's memory); boundary conditions are fixed by the physics
    (conducting faces force dH_z/dphi = 0, the magnetic-wall arc forces
    H_z = 0) and are recorded for the record only.
    """

    a: float
    phi0: float
    n_r: int
    n_phi: int
    face_bc: str = field(default="neumann", init=False)
    arc_bc: str = field(default="dirichlet", init=False)

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"radius must be positive, got {self.a}")
        if not (0.0 < self.phi0 <= 2.0 * math.pi):
            raise ValueError(f"sector angle must lie in (0, 2 pi], got {self.phi0}")
        for name, count in (("n_r", self.n_r), ("n_phi", self.n_phi)):
            if not is_index(count, 16):
                raise ValueError(f"{name} must be an integer >= 16, got {count}")
            if count > _MAX_GRID:
                raise ValueError(f"{name} must be at most {_MAX_GRID}, got {count}")


# g_r[i] couples rings i and i + 1, radial[i] sums ring i's radial couplings
# (the Dirichlet arc's in the last ring), g_phi[i] couples azimuthal neighbours
# in ring i, w[i] is a ring-i cell's area; the callers check them for overflow
@np.errstate(all="ignore")
def _coefficients(problem: FDProblem) -> tuple[np.ndarray, ...]:
    dr = problem.a / problem.n_r
    dphi = problem.phi0 / problem.n_phi
    r = (np.arange(problem.n_r) + 0.5) * dr
    g_r = (np.arange(1, problem.n_r) * dr) * dphi / dr
    radial = np.insert(g_r, 0, 0.0) + np.append(g_r, 0.0)
    radial[-1] += problem.a * dphi / (dr / 2.0)
    return g_r, radial, dr / (r * dphi), r * dr * dphi


@np.errstate(all="ignore")
def _assemble(problem: FDProblem) -> scipy.sparse.csc_matrix:
    """Area-weighted negative Laplacian, symmetrized to B = D^-1 M D^-1.

    M is the finite-volume matrix (flux coefficients, symmetric by
    construction), W the diagonal of polar cell areas, D = sqrt(W); the
    returned B is similar to W^-1 M and explicitly symmetric.
    """
    # scipy.sparse loads on first use, so that importing the package costs
    # only scipy.special
    import scipy.sparse

    n_r, n_phi = problem.n_r, problem.n_phi
    g_r, radial, g_phi, w = _coefficients(problem)
    # the Neumann faces at phi = 0 and phi0 carry no flux, so the first and
    # last cell of a ring have one azimuthal coupling, the others two
    diag = np.repeat((radial + g_phi)[:, None], n_phi, axis=1)
    diag[:, 1:-1] += g_phi[:, None]
    idx = np.arange(n_r * n_phi).reshape(n_r, n_phi)
    # couplings across radial faces (ring i to i + 1), then azimuthal ones
    lo = np.concatenate([idx[:-1].ravel(), idx[:, :-1].ravel()])
    hi = np.concatenate([idx[1:].ravel(), idx[:, 1:].ravel()])
    off = np.concatenate([np.repeat(-g_r, n_phi), np.repeat(-g_phi, n_phi - 1)])
    b = scipy.sparse.coo_matrix(
        (np.concatenate([off, off, diag.ravel()]),
         (np.concatenate([lo, hi, idx.ravel()]),
          np.concatenate([hi, lo, idx.ravel()]))),
        shape=(idx.size, idx.size)).tocsc()
    # scale M to B in place, each entry rounded as (d_i m_ij) d_j
    d_inv = np.repeat(1.0 / np.sqrt(w), n_phi)
    b.data = d_inv[b.indices] * b.data * np.repeat(d_inv, np.diff(b.indptr))
    # cell areas that underflow to zero or overflow (a radius near the ends
    # of the float range) are refused too, and B keeps a factor 4 of headroom
    # for the tridiagonal blocks of _smallest, whose diagonals reach twice B's
    if not (w.min() > 0.0 and math.isfinite(w.max())
            and np.isfinite(4.0 * b.data).all()):
        raise ValueError(f"radius {problem.a} m and sector angle "
                         f"{problem.phi0} put the FD operator out of "
                         "floating-point range")
    return b


def _smallest(problem: FDProblem, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` smallest eigenpairs of B, ascending. Block j of B under
    the cosines q_j is W^-1/2 (A_r + mu_j diag(g_phi)) W^-1/2, mu_j = 4
    sin^2(pi j / (2 n_phi)); its eigenvector y gives y (x) q_j / |q_j|."""
    import scipy.linalg

    g_r, radial, g_phi, w = _coefficients(problem)
    off = -g_r / (np.sqrt(w[:-1]) * np.sqrt(w[1:]))
    lam, y, mode = np.empty(0), np.empty((0, problem.n_r)), np.empty(0, int)
    for j in range(problem.n_phi):
        mu = 4.0 * math.sin(math.pi * j / (2.0 * problem.n_phi)) ** 2
        try:
            lam_j, y_j = scipy.linalg.eigh_tridiagonal(
                (radial + mu * g_phi) / w, off, select="i",
                select_range=(0, min(count, problem.n_r) - 1),
                lapack_driver="stemr")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"radial eigensolve of azimuthal mode {j} "
                                   f"failed: {exc}") from None
        # mu_j rises with j and g_phi >= 0, so by Weyl no later block has a
        # smaller eigenvalue than this one
        if lam.size == count and lam_j[0] > lam[-1]:
            break
        keep = np.argsort(np.append(lam, lam_j), kind="stable")[:count]
        lam = np.append(lam, lam_j)[keep]
        y = np.vstack([y, y_j.T])[keep]
        mode = np.append(mode, np.full(lam_j.size, j))[keep]
    q = np.cos(np.pi * np.outer(mode, np.arange(problem.n_phi) + 0.5)
               / problem.n_phi)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return lam, (y[:, :, None] * q[:, None, :]).reshape(count, -1)


def fd_transverse_eigs(problem: FDProblem, count: int) -> list[float]:
    """The `count` smallest transverse wavenumbers k_t (rad/m), ascending.

    `count` must be below n_r * n_phi. Deterministic for fixed inputs;
    raises ConvergenceError if LAPACK fails to converge on a radial
    problem, and ValueError if the operator leaves floating-point range or
    rounding leaves an eigenpair residual above 1e-3 of its eigenvalue.
    """
    if not is_index(count, 1):
        raise ValueError(f"count must be a positive integer, got {count}")
    return _fd_eigenpairs(problem, int(count))[0]


def _fd_eigenpairs(problem: FDProblem, count: int) -> tuple[list[float], np.ndarray]:
    """k_t values plus eigenvectors reshaped to (count, n_r, n_phi)."""
    b = _assemble(problem)
    if count >= (n := b.shape[0]):
        raise ValueError(f"requested {count} eigenvalues from a {n}-dim operator")
    lam, vec = _smallest(problem, count)
    # in place, to hold one n x count temporary; B's entries near the float
    # range make it inf or nan, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        misfit = b @ vec.T
        misfit /= lam
        misfit -= vec.T
        residual = np.linalg.norm(misfit, axis=0)
    if not np.all(residual <= _MAX_RESIDUAL):
        raise ValueError(
            f"rounding swamps the FD eigenvalues of radius {problem.a} m and "
            f"sector angle {problem.phi0} (relative residual "
            f"{np.max(residual):.1e}); the sector is too thin for the grid")
    if lam[0] <= 0.0 or np.any(np.diff(lam) < 0.0):
        raise ConvergenceError("symmetrized spectrum is not positive ascending; "
                               "assembly bug")
    return ([math.sqrt(x) for x in lam],
            vec.reshape(count, problem.n_r, problem.n_phi))


@dataclass(frozen=True)
class CompareRow:
    """One analytic-vs-FD pairing."""

    m: int
    n: int
    analytic_k_r: float
    fd_k_t: float
    rel_error: float


def compare_modes(geom: SectorGeometry, count: int, grid: int) -> list[CompareRow]:
    """Pair the smallest analytic radial eigenvalues with FD eigenvalues.

    The analytic side enumerates derived-v modes with m >= 1 (the
    azimuthally varying modes the antenna model targets), takes the `count`
    smallest k_r = X_vn/a, and pairs each with the nearest FD eigenvalue of
    the same cross-section. Relative errors are reported against the
    analytic value. `count` is capped at 50: at grid 512 that takes 7 s
    and 530 MB peak on a 2-vCPU VM, at grid 64 about 3 s, most of it in
    the analytic side's Bessel zeros.
    """
    if not is_index(count, 1):
        raise ValueError(f"count must be a positive integer, got {count}")
    if count > _MAX_COUNT:
        raise ValueError(f"count must be at most {_MAX_COUNT}, got {count}")
    problem = FDProblem(a=geom.a, phi0=geom.phi0, n_r=grid, n_phi=grid)
    span = range(1, count + 5)
    targets = sorted(
        (wavenumbers(geom, ModeSpec.derived(ModeFamily.TE, m, n, 0,
                                            geom.phi0)).k_r, m, n)
        for m in span for n in span)[:count]

    fd_count = count + 4
    fd = fd_transverse_eigs(problem, fd_count)
    # extend until the FD list reaches past the largest analytic target
    while fd[-1] < targets[-1][0] * 1.02 and fd_count < 4 * count + 16:
        fd_count += 4
        fd = fd_transverse_eigs(problem, fd_count)

    rows = []
    fd_arr = np.array(fd)
    for k_r, m, n in targets:
        nearest = float(fd_arr[np.argmin(np.abs(fd_arr - k_r))])
        rows.append(CompareRow(m=m, n=n, analytic_k_r=k_r, fd_k_t=nearest,
                               rel_error=abs(nearest - k_r) / k_r))
    return rows

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

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, check_index, check_real
from .modal import ModeFamily, ModeSpec, SectorGeometry, wavenumbers

__all__ = ["FDProblem", "CompareRow", "fd_transverse_eigs", "compare_modes"]

# nodes per grid axis: 7 eigenpairs at 512^2 take 0.07 s, 20 MB on 2 vCPUs
_MAX_GRID = 512
# analytic-vs-FD pairs per compare_modes call
_MAX_COUNT = 50
# eigenvector values whose residual fd_transverse_eigs checks, one vector at
# a time: 216 eigenpairs at 512^2 take 2.3 s, 13 MB on 2 vCPUs
_MAX_ENTRIES = (4 * _MAX_COUNT + 16) * _MAX_GRID ** 2
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
    H_z = 0).
    """

    a: float
    phi0: float
    n_r: int
    n_phi: int

    def __post_init__(self) -> None:
        check_real(self.a, "radius")
        check_real(self.phi0, "sector angle", high=math.tau)
        for name in ("n_r", "n_phi"):
            count = check_index(getattr(self, name), name, 16)
            if count > _MAX_GRID:
                raise ValueError(f"{name} must be at most {_MAX_GRID}, got {count}")
            object.__setattr__(self, name, count)  # the dataclass is frozen


@np.errstate(all="ignore")
def _rings(problem: FDProblem) -> tuple[tuple[np.ndarray, ...], ...]:
    """The FD operator ring by ring: coefficients of the finite-volume matrix
    M and nonzeros of its symmetrization B = D^-1 M D^-1, D = sqrt(W) for
    the polar cell areas W, which makes B similar to W^-1 M.

    Of M, g_r[i] couples rings i and i + 1, radial[i] sums ring i's radial
    couplings (the Dirichlet arc's in the last ring), g_phi[i] couples
    azimuthal neighbours in ring i, and w[i] is a ring-i cell's area. Of B,
    each rounded as (d_i m_ij) d_j: ring i's diagonal at its first and last
    cell (the Neumann faces carry no flux) and at the others, its couplings
    to and from ring i + 1, and its azimuthal one."""
    dr = problem.a / problem.n_r
    dphi = problem.phi0 / problem.n_phi
    r = (np.arange(problem.n_r) + 0.5) * dr
    g_r = (np.arange(1, problem.n_r) * dr) * dphi / dr
    radial = np.insert(g_r, 0, 0.0) + np.append(g_r, 0.0)
    radial[-1] += problem.a * dphi / (dr / 2.0)
    g_phi, w = dr / (r * dphi), r * dr * dphi
    d = 1.0 / np.sqrt(w)
    entries = (d * (radial + g_phi) * d, d * (radial + g_phi + g_phi) * d,
               d[:-1] * -g_r * d[1:], d[1:] * -g_r * d[:-1], d * -g_phi * d)
    # cell areas that underflow to zero or overflow (a radius near the ends
    # of the float range) are refused too, and B keeps a factor 4 of headroom
    # for the tridiagonal blocks, whose diagonals reach twice B's
    if not (w.min() > 0.0 and math.isfinite(w.max())
            and all(np.isfinite(4.0 * x).all() for x in entries)):
        raise ValueError(f"radius {problem.a} m and sector angle "
                         f"{problem.phi0} put the FD operator out of "
                         "floating-point range")
    return (g_r, radial, g_phi, w), entries


def _apply(entries: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """B x for x of shape (..., n_r, n_phi), from the ring entries."""
    edge, inner, outward, inward, azimuthal = (e[:, None] for e in entries)
    y = inner * x
    y[..., [0, -1]] = edge * x[..., [0, -1]]
    y[..., :-1, :] += outward * x[..., 1:, :]
    y[..., 1:, :] += inward * x[..., :-1, :]
    y[..., :-1] += azimuthal * x[..., 1:]
    y[..., 1:] += azimuthal * x[..., :-1]
    return y


def fd_transverse_eigs(problem: FDProblem, count: int) -> list[float]:
    """The `count` smallest transverse wavenumbers k_t (rad/m), ascending.

    `count` must be below n_r * n_phi. Deterministic for fixed inputs;
    raises ConvergenceError if LAPACK fails to converge on a radial
    problem, and ValueError if the eigenvectors would hold over 216 * 512^2
    values (before any solve, to bound the time of the residual check), the
    operator leaves floating-point range, or rounding leaves an eigenpair
    residual above 1e-3 of its eigenvalue.
    """
    count = check_index(count, "count", 1)
    if count >= (n := problem.n_r * problem.n_phi):
        raise ValueError(f"requested {count} eigenvalues from a {n}-dim operator")
    if count * n > _MAX_ENTRIES:
        raise ValueError(f"{count} FD eigenvectors on a {problem.n_r} x "
                         f"{problem.n_phi} grid would hold more than "
                         f"{_MAX_ENTRIES} values")
    return _fd_eigenpairs(problem, count)[0]


def _fd_eigenpairs(problem: FDProblem, count: int, blocks: list[int] | None = None
                   ) -> tuple[list[float], np.ndarray, np.ndarray]:
    """The `count` smallest k_t of the named blocks (ascending j, default
    all), ascending, with the factors y (k, n_r) and q (k, n_phi) of their
    eigenvectors y[k] (x) q[k]. Block j of B under the cosines q_j is
    W^-1/2 (A_r + mu_j diag(g_phi)) W^-1/2, mu_j = 4 sin^2(pi j / (2 n_phi));
    its eigenvector y gives y (x) q_j / |q_j|."""
    import scipy.linalg

    (g_r, radial, g_phi, w), entries = _rings(problem)
    off = -g_r / (np.sqrt(w[:-1]) * np.sqrt(w[1:]))
    lam, y, mode = np.empty(0), np.empty((0, problem.n_r)), np.empty(0, int)
    for j in range(problem.n_phi) if blocks is None else blocks:
        mu = 4.0 * math.sin(math.pi * j / (2.0 * problem.n_phi)) ** 2
        try:
            lam_j, y_j = scipy.linalg.eigh_tridiagonal(
                (radial + mu * g_phi) / w, off, select="i",
                select_range=(0, min(count, problem.n_r) - 1), lapack_driver="stemr")
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
    # one eigenvector at a time, to hold no array the size of the stack;
    # entries near the float range make it inf or nan, which the check refuses
    residual = np.empty(lam.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, lam_k in enumerate(lam):
            x = np.outer(y[k], q[k])
            residual[k] = np.linalg.norm(_apply(entries, x) / lam_k - x)
    if not np.all(residual <= _MAX_RESIDUAL):
        raise ValueError(
            f"rounding swamps the FD eigenvalues of radius {problem.a} m and "
            f"sector angle {problem.phi0} (relative residual "
            f"{np.max(residual):.1e}); the sector is too thin for the grid")
    if lam[0] <= 0.0 or np.any(np.diff(lam) < 0.0):
        raise ConvergenceError("symmetrized spectrum is not positive ascending; "
                               "assembly bug")
    return [math.sqrt(x) for x in lam], y, q


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
    azimuthally varying modes the antenna model targets) and takes the
    `count` smallest k_r = X_vn/a. The cosine of FD block m is the face
    mode m, so (m, n) is paired with the n-th eigenvalue of block m, and
    only the blocks the targets name are solved, each to its deepest n.
    Relative errors are reported against the analytic value. A row whose n
    comes near the grid size measures the grid's radial resolution, not a
    failed check: at 0.01 rad, count 50 and grid 64 all rows are block 1's,
    and rel_error climbs with n to 1.49 at n = 50, where grid 512 gives
    8.4e-3. `count` is capped at 50: at grid 512 that takes under 0.5 s
    and 12 MB on sectors from 0.01 rad to 2 pi (2-vCPU VM). A target the
    grid cannot represent (m >= grid or n > grid) is refused with
    ValueError before any solve.
    """
    count = check_index(count, "count", 1)
    if count > _MAX_COUNT:
        raise ValueError(f"count must be at most {_MAX_COUNT}, got {count}")
    problem = FDProblem(a=geom.a, phi0=geom.phi0, n_r=grid, n_phi=grid)

    def target(m: int, n: int) -> tuple[float, int, int]:
        mode = ModeSpec.derived(ModeFamily.TE, m, n, 0, geom.phi0)
        return wavenumbers(geom, mode).k_r, m, n

    # X_vn rises in n and in v = m pi / phi0 (DLMF 10.21), so (m, n) follows
    # (m, n - 1), and (m - 1, 1) when n = 1: a heap that takes in those
    # successors of each target yields the next one, from 2 count - 1 zeros
    frontier, targets = [], [target(1, 1)]
    while len(targets) < count:
        _, m, n = targets[-1]
        heapq.heappush(frontier, target(m, n + 1))
        if n == 1:
            heapq.heappush(frontier, target(m + 1, 1))
        targets.append(heapq.heappop(frontier))
    # (m, n) comes after (m, n - 1), so the last target of m is block m's depth
    depth = {m: n for _, m, n in targets}
    if max(depth) >= problem.n_phi or max(depth.values()) > problem.n_r:
        raise ValueError(f"the {count} smallest modes reach m = {max(depth)}, n = "
                         f"{max(depth.values())}; a {problem.n_r} x {problem.n_phi} "
                         f"FD grid holds m < {problem.n_phi}, n <= {problem.n_r}")
    fd = {m: _fd_eigenpairs(problem, n, [m])[0] for m, n in depth.items()}
    return [CompareRow(m=m, n=n, analytic_k_r=k_r, fd_k_t=fd[m][n - 1],
                       rel_error=abs(fd[m][n - 1] - k_r) / k_r)
            for k_r, m, n in targets]

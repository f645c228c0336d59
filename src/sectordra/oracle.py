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
eigenvalues are real and positive. The smallest ones come from ARPACK's
shift-invert Lanczos about zero (scipy.sparse.linalg.eigsh; Lehoucq,
Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), started from a seeded
vector so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, is_index
from .modal import ModeFamily, ModeSpec, SectorGeometry, wavenumbers

__all__ = ["FDProblem", "CompareRow", "fd_transverse_eigs", "compare_modes"]

_SEED = 20240817
# nodes per grid axis: 7 eigenpairs at 512^2 take 6 s, 560 MB on 2 vCPUs
_MAX_GRID = 512
# analytic-vs-FD pairs per compare_modes call
_MAX_COUNT = 50
# largest |B x - lam x| / lam accepted for a unit eigenvector x. B is
# symmetric, so some eigenvalue of B lies that close to lam, relatively
# (Parlett, The Symmetric Eigenvalue Problem, ch. 4), which bounds the
# rounding error of the solve. Sectors of 0.01 rad and wider pass up to
# 512^2 (worst 5.7e-4 at 0.01 rad and 512^2, 8.7e-6 at 128^2); thinner
# ones make B so ill-conditioned that rounding swamps the smallest
# eigenvalues (at 1e-5 rad and 16^2 the residual is 3e-2 and k_t 2.4007
# for 2.4033).
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
    dr = problem.a / n_r
    dphi = problem.phi0 / n_phi
    r = (np.arange(n_r) + 0.5) * dr

    n = n_r * n_phi
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    idx = np.arange(n).reshape(n_r, n_phi)
    diag = np.zeros((n_r, n_phi))

    # radial couplings through interior faces at r = (i+1) dr
    g_r = (np.arange(1, n_r) * dr) * dphi / dr
    for i in range(n_r - 1):
        g = g_r[i]
        diag[i, :] += g
        diag[i + 1, :] += g
        rows.append(idx[i, :])
        cols.append(idx[i + 1, :])
        vals.append(np.full(n_phi, -g))
    # Dirichlet arc: value fixed to zero half a cell beyond the last node
    diag[n_r - 1, :] += problem.a * dphi / (dr / 2.0)
    # azimuthal couplings; Neumann faces contribute no flux
    g_phi = dr / (r * dphi)
    for j in range(n_phi - 1):
        diag[:, j] += g_phi
        diag[:, j + 1] += g_phi
        rows.append(idx[:, j])
        cols.append(idx[:, j + 1])
        vals.append(-g_phi)

    rows_a = np.concatenate(rows)
    cols_a = np.concatenate(cols)
    vals_a = np.concatenate(vals)
    m = scipy.sparse.coo_matrix(
        (np.concatenate([vals_a, vals_a, diag.ravel()]),
         (np.concatenate([rows_a, cols_a, np.arange(n)]),
          np.concatenate([cols_a, rows_a, np.arange(n)]))),
        shape=(n, n)).tocsc()
    w = np.repeat(r * dr * dphi, n_phi)
    # cell areas that underflow to zero or overflow (a radius near the ends
    # of the float range) are refused before they are inverted
    b = None
    if w.min() > 0.0 and math.isfinite(w.max()):
        d_inv = scipy.sparse.diags(1.0 / np.sqrt(w))
        b = (d_inv @ m @ d_inv).tocsc()
    if b is None or not np.isfinite(b.data).all():
        raise ValueError(f"radius {problem.a} m and sector angle "
                         f"{problem.phi0} put the FD operator out of "
                         "floating-point range")
    return b


def _smallest(b: scipy.sparse.csc_matrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` smallest eigenpairs of B, ascending, by ARPACK shift-invert
    Lanczos about zero from a seeded start vector."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(_SEED).standard_normal(b.shape[0])
    try:
        lam, vec = eigsh(b, k=count, sigma=0.0, v0=v0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"shift-invert Lanczos converged {len(exc.eigenvalues)} of "
            f"{count} eigenpairs") from None
    except RuntimeError as exc:
        # a factorization that rounding made singular, or an ARPACK breakdown
        raise ValueError(f"the FD operator is too ill-conditioned to solve: "
                         f"{exc}") from None
    order = np.argsort(lam)
    return lam[order], vec.T[order]


@lru_cache(maxsize=8)
def _solve(problem: FDProblem, count: int) -> tuple[tuple[float, ...], np.ndarray]:
    b = _assemble(problem)
    n = b.shape[0]
    if count >= n:
        raise ValueError(f"requested {count} eigenvalues from a {n}-dim operator")
    lam, vec = _smallest(b, count)
    residual = np.linalg.norm(b @ vec.T / lam - vec.T, axis=0)
    if not np.all(residual <= _MAX_RESIDUAL):
        raise ValueError(
            f"rounding swamps the FD eigenvalues of radius {problem.a} m and "
            f"sector angle {problem.phi0} (relative residual "
            f"{np.max(residual):.1e}); the sector is too thin for the grid")
    if lam[0] <= 0.0 or np.any(np.diff(lam) < 0.0):
        raise ConvergenceError("symmetrized spectrum is not positive ascending; "
                               "assembly bug")
    vec.setflags(write=False)
    return tuple(float(x) for x in lam), vec


def fd_transverse_eigs(problem: FDProblem, count: int) -> list[float]:
    """The `count` smallest transverse wavenumbers k_t (rad/m), ascending.

    `count` must be below n_r * n_phi. Deterministic for fixed inputs;
    raises ConvergenceError if the Lanczos iteration fails to settle, and
    ValueError if the operator leaves floating-point range or rounding
    leaves an eigenpair residual above 1e-3 of its eigenvalue.
    """
    if not is_index(count, 1):
        raise ValueError(f"count must be a positive integer, got {count}")
    lam, _ = _solve(problem, int(count))
    return [math.sqrt(x) for x in lam]


def _fd_eigenpairs(problem: FDProblem, count: int) -> tuple[list[float], np.ndarray]:
    """k_t values plus eigenvectors reshaped to (count, n_r, n_phi)."""
    lam, vec = _solve(problem, count)
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
    analytic value. `count` is capped at 50: at grid 512 that took 148 s
    and 1.36 GB peak on a 2-vCPU VM, at grid 64 about 4 s.
    """
    if not is_index(count, 1):
        raise ValueError(f"count must be a positive integer, got {count}")
    if count > _MAX_COUNT:
        raise ValueError(f"count must be at most {_MAX_COUNT}, got {count}")
    problem = FDProblem(a=geom.a, phi0=geom.phi0, n_r=grid, n_phi=grid)
    span = count + 4
    candidates = []
    for m in range(1, span + 1):
        for n in range(1, span + 1):
            mode = ModeSpec.derived(ModeFamily.TE, m, n, 0, geom.phi0)
            candidates.append((wavenumbers(geom, mode).k_r, m, n))
    candidates.sort()
    targets = candidates[:count]

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

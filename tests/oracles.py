"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against mpmath's arbitrary precision
floats and avoids importing the package under test, so the production code and
these oracles can only agree by both being right. There are two exceptions.
`load_grid_json_reference`, the field grid loader as it was before the
document reader, builds the package's own value objects from json.loads.
`compare_targets_grid`, the analytic side of `compare_modes` as it was
before the heap frontier, ranks the package's own wavenumbers.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf


def bessel_j_series(v: float, x: float, dps: int | None = None) -> mpf:
    """Ascending power series for J_v(x) in arbitrary precision.

    J_v(x) = sum_k (-1)^k (x/2)^(v+2k) / (k! Gamma(v+k+1)), summed until the
    running term underflows the partial sum at the working precision.
    """
    if dps is None:
        # enough headroom for the alternating-series cancellation up to x ~ 100
        dps = 30 + int(abs(x))
    with mp.workdps(dps):
        xv = mpf(x)
        vv = mpf(v)
        if xv == 0:
            return mpf(1) if vv == 0 else mpf(0)
        half = xv / 2
        q = -(half * half)
        term = half ** vv / mp.gamma(vv + 1)
        total = term
        for k in range(1, 4000):
            term = term * q / (k * (vv + k))
            total += term
            if abs(term) < abs(total) * mpf(10) ** (-dps):
                break
        else:
            raise RuntimeError("series did not terminate")
        return total


def bessel_zero_bisect(v: float, n: int, tol: float = 1e-13) -> float:
    """n-th positive zero of J_v by sign scan plus plain bisection.

    No Newton, no derivative, no asymptotic guess: marches from just below the
    first zero in steps smaller than the minimal zero spacing, counts sign
    changes, then bisects the n-th bracket down to tol.
    """
    f = lambda x: bessel_j_series(v, x)
    x = max(0.9 * v, 0.05)
    step = 1.4
    fx = f(x)
    count = 0
    lo = hi = None
    for _ in range(10000):
        x2 = x + step
        fx2 = f(x2)
        if (fx > 0) != (fx2 > 0):
            count += 1
            if count == n:
                lo, hi = x, x2
                break
        x, fx = x2, fx2
    if lo is None:
        raise RuntimeError("scan failed")
    flo = f(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return float((lo + hi) / 2)


def helmholtz_residual(h_z: np.ndarray, r: np.ndarray, phi: np.ndarray,
                       z: np.ndarray, k_sq: float) -> float:
    """Max interior residual of the cylindrical Helmholtz operator on a grid.

    Applies the second-order stencil for
        (1/r) d/dr(r dH/dr) + (1/r^2) d2H/dphi2 + d2H/dz2 + k_sq H
    at interior nodes of a uniform (r, phi, z) grid and returns the max
    absolute value. h_z has shape (len(r), len(phi), len(z)); a singleton z
    axis drops the axial term (modes with no z variation).
    """
    dr = r[1] - r[0]
    dphi = phi[1] - phi[0]
    res_max = 0.0
    nz = len(z)
    kz_range = range(1, nz - 1) if nz > 2 else [0]
    for i in range(1, len(r) - 1):
        ri = r[i]
        rp = ri + dr / 2
        rm = ri - dr / 2
        for j in range(1, len(phi) - 1):
            for k in kz_range:
                u = h_z[i, j, k]
                radial = (rp * (h_z[i + 1, j, k] - u)
                          - rm * (u - h_z[i - 1, j, k])) / (ri * dr * dr)
                azim = (h_z[i, j + 1, k] - 2 * u + h_z[i, j - 1, k]) / (ri * ri * dphi * dphi)
                axial = 0.0
                if nz > 2:
                    dz = z[1] - z[0]
                    axial = (h_z[i, j, k + 1] - 2 * u + h_z[i, j, k - 1]) / (dz * dz)
                res = radial + azim + axial + k_sq * u
                res_max = max(res_max, abs(res))
    return res_max


def curl_div(field, r: float, phi: float, z: float, step: float):
    """Curl and divergence of a vector field in cylindrical coordinates.

    field(r, phi, z) returns the components (A_r, A_phi, A_z). Every partial
    derivative is a second-order central difference over a length `step`
    (an angle of step / r along phi), combined as

        curl_r   = (dA_z/dphi) / r - dA_phi/dz
        curl_phi = dA_r/dz - dA_z/dr
        curl_z   = (A_phi + r dA_phi/dr - dA_r/dphi) / r
        div      = (A_r + r dA_r/dr + dA_phi/dphi) / r + dA_z/dz

    Returns ((curl_r, curl_phi, curl_z), div).
    """
    at = (r, phi, z)
    steps = (step, step / r, step)
    grad = []  # grad[axis][k]: derivative of component k along axis
    for axis, h in enumerate(steps):
        hi = [c + h * (i == axis) for i, c in enumerate(at)]
        lo = [c - h * (i == axis) for i, c in enumerate(at)]
        grad.append([(p - q) / (2.0 * h)
                     for p, q in zip(field(*hi), field(*lo))])
    (dr_r, dr_phi, dr_z), (dphi_r, dphi_phi, dphi_z), (dz_r, dz_phi, dz_z) = grad
    a_r, a_phi, _ = field(*at)
    curl = (dphi_z / r - dz_phi,
            dz_r - dr_z,
            (a_phi + r * dr_phi - dphi_r) / r)
    div = (a_r + r * dr_r + dphi_phi) / r + dz_z
    return curl, div


def averaged_sar_brute(sigma: np.ndarray, rho: np.ndarray, e_mag: np.ndarray,
                       voxel_m: float, mass_target_kg: float):
    """Exhaustive mass-averaged SAR: every center, every cube half-width.

    Returns (peak average in W/kg, linear x-major index of the peak center).
    Cube sums are numpy slice sums so the reduction matches any implementation
    that sums the same index windows.
    """
    nx, ny, nz = sigma.shape
    voxel_mass = rho * voxel_m ** 3
    psar = sigma * e_mag ** 2 / rho
    weighted = psar * voxel_mass
    best = -1.0
    best_idx = None
    w_max = max(nx, ny, nz)
    for ix in range(nx):
        for iy in range(ny):
            for iz in range(nz):
                avg = None
                for w in range(w_max + 1):
                    xs, xe = max(0, ix - w), min(nx, ix + w + 1)
                    ys, ye = max(0, iy - w), min(ny, iy + w + 1)
                    zs, ze = max(0, iz - w), min(nz, iz + w + 1)
                    m = np.sum(voxel_mass[xs:xe, ys:ye, zs:ze])
                    if m >= mass_target_kg:
                        avg = np.sum(weighted[xs:xe, ys:ye, zs:ze]) / m
                        break
                if avg is None:
                    raise RuntimeError("grid mass below target")
                lin = (ix * ny + iy) * nz + iz
                if avg > best:
                    best = avg
                    best_idx = lin
    return best, best_idx


def fd_operator_loop(a: float, phi0: float, n_r: int, n_phi: int):
    """The symmetrized FD operator B = D^-1 M D^-1 assembled face by face.

    The reference for the vectorized assembly: each cell's diagonal sums its
    radial faces outward, then the Dirichlet arc (last ring), then its
    azimuthal faces in order, exactly as this loop visits them.
    """
    import scipy.sparse

    dr = a / n_r
    dphi = phi0 / n_phi
    r = (np.arange(n_r) + 0.5) * dr
    n = n_r * n_phi
    rows, cols, vals = [], [], []
    idx = np.arange(n).reshape(n_r, n_phi)
    diag = np.zeros((n_r, n_phi))
    g_r = (np.arange(1, n_r) * dr) * dphi / dr
    for i in range(n_r - 1):
        diag[i, :] += g_r[i]
        diag[i + 1, :] += g_r[i]
        rows.append(idx[i, :])
        cols.append(idx[i + 1, :])
        vals.append(np.full(n_phi, -g_r[i]))
    diag[n_r - 1, :] += a * dphi / (dr / 2.0)
    g_phi = dr / (r * dphi)
    for j in range(n_phi - 1):
        diag[:, j] += g_phi
        diag[:, j + 1] += g_phi
        rows.append(idx[:, j])
        cols.append(idx[:, j + 1])
        vals.append(-g_phi)
    rows_a, cols_a, vals_a = (np.concatenate(x) for x in (rows, cols, vals))
    m = scipy.sparse.coo_matrix(
        (np.concatenate([vals_a, vals_a, diag.ravel()]),
         (np.concatenate([rows_a, cols_a, np.arange(n)]),
          np.concatenate([cols_a, rows_a, np.arange(n)]))),
        shape=(n, n)).tocsc()
    d_inv = scipy.sparse.diags(1.0 / np.sqrt(np.repeat(r * dr * dphi, n_phi)))
    return (d_inv @ m @ d_inv).tocsc()


def compare_targets_grid(geom, count: int) -> list[tuple[float, int, int]]:
    """The `count` smallest (k_r, m, n) over the grid m, n = 1 .. count + 4,
    sorted: the reference for the heap frontier of `compare_modes`, ties and
    order included. It costs (count + 4)^2 zeros."""
    from sectordra import ModeFamily, ModeSpec, wavenumbers

    span = range(1, count + 5)
    return sorted(
        (wavenumbers(geom, ModeSpec.derived(ModeFamily.TE, m, n, 0,
                                            geom.phi0)).k_r, m, n)
        for m in span for n in span)[:count]


def _numbers(items, name):
    # numpy would read null as nan, a string as its number and a bool, which
    # is an int, as 1.0 or 0.0
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in items):
        raise ValueError(f"{name} holds an item that is not a number")
    return items


def load_grid_json_reference(doc):
    """The field grid loader that ran json.loads over the whole document:
    the reference that `sectordra.load_grid_json` must match on every
    document it accepts, and in raising ValueError on every one it rejects.
    It accepts amplitudes the loader refuses."""
    from sectordra import FieldGrid, ModeFamily, ModeSpec, SectorGeometry
    from sectordra.errors import json_object

    data = json_object(doc, "field grid document")
    try:
        geo = data["geometry"]
        geom = SectorGeometry(a=geo["radius_m"], h=geo["height_m"],
                              phi0=geo["sector_rad"], eps_r=geo["eps_r"])
        md = data["mode"]
        mode = ModeSpec(family=ModeFamily(md["family"]), v=md["v"],
                        n=md["n"], p=md["p"], m=md["m"])
        n_r, n_phi, n_z = data["shape"]
        r, phi, z = (np.array(_numbers(data["axes"][key], key), dtype=float)
                     for key in ("r_m", "phi_rad", "z_m"))
        if (len(r), len(phi), len(z)) != (n_r, n_phi, n_z):
            raise ValueError("axes do not match the shape")
        arrays = []
        for name in ("Er", "Ephi", "Ez", "Hr", "Hphi", "Hz"):
            comp = data["components"][name]
            size = n_r * n_phi * n_z
            if len(comp["re"]) != size or len(comp["im"]) != size:
                raise ValueError(f"{name} holds the wrong number of values")
            flat = np.empty(size, dtype=complex)
            for half, key in (("real", "re"), ("imag", "im")):
                setattr(flat, half, _numbers(comp[key], name))
            arrays.append(flat.reshape(n_z, n_phi, n_r).transpose(2, 1, 0))
        return FieldGrid(geom, mode, r, phi, z, *arrays,
                         amplitude=data["amplitude"])
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
        # OverflowError: an integer item that no float holds
        raise ValueError(f"malformed value: {exc}") from None

"""Specific absorption rate: point values, mass averages, power budgets.

Local SAR in tissue is sigma |E|^2 / rho. Regulatory limits constrain its
average over a reference mass (1 g or 10 g), so the mass average is computed
per voxel by growing a centered cube until it holds the target mass, then
mass-weighting the point SAR over that cube (IEC/IEEE 62704-1 cube
averaging); the reported value is the peak over all centers. Summed-area
tables size every cube and bound every average in a few array passes; they
only prune, and the centers that could hold the peak are summed again with
the same slice sums as a voxel-by-voxel loop, whose tie rule (lowest index)
is kept. With a SAR figure achieved at reference input power P_in, the
largest input power that still meets a limit L is

    P_max = P_in * L / SAR_achieved

The limit table is closed: it contains exactly the published rows
(IEEE C95.1 average 1 g / 10 g and peak 1 g, ECC/CEPT average 1 g / 10 g)
and any other combination is an error rather than a guess.

Tissue data arrives from files; computing in-tissue fields is a full-wave
problem outside this model's scope.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_array, check_real, is_index, json_numbers, json_object

__all__ = [
    "SarStandard",
    "AveragingMass",
    "LimitKind",
    "SarLimit",
    "TissueGrid",
    "AveragedSar",
    "point_sar",
    "averaged_sar",
    "limit_lookup",
    "max_allowed_power",
    "tissue_grid_from_json",
    "tissue_grid_from_csv",
]


class SarStandard(enum.Enum):
    IEEE_C95_1 = "ieee"
    ECC_CEPT = "ecc"


class AveragingMass(enum.Enum):
    ONE_G = "1g"
    TEN_G = "10g"

    @property
    def kilograms(self) -> float:
        return 0.001 if self is AveragingMass.ONE_G else 0.010


class LimitKind(enum.Enum):
    AVERAGE = "average"
    PEAK = "peak"


@dataclass(frozen=True)
class SarLimit:
    """One row of the regulatory limit table."""

    standard: SarStandard
    mass: AveragingMass
    kind: LimitKind
    value: float


_LIMIT_TABLE = {
    (SarStandard.IEEE_C95_1, AveragingMass.ONE_G, LimitKind.AVERAGE): 1.6,
    (SarStandard.IEEE_C95_1, AveragingMass.TEN_G, LimitKind.AVERAGE): 2.0,
    (SarStandard.IEEE_C95_1, AveragingMass.ONE_G, LimitKind.PEAK): 4.0,
    (SarStandard.ECC_CEPT, AveragingMass.ONE_G, LimitKind.AVERAGE): 1.6,
    (SarStandard.ECC_CEPT, AveragingMass.TEN_G, LimitKind.AVERAGE): 2.0,
}


def _coerce(enum_cls, value):
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(e.value for e in enum_cls)
        raise ValueError(f"{value!r} is not one of: {options}") from None


def limit_lookup(standard, mass, kind=LimitKind.AVERAGE) -> SarLimit:
    """Published SAR limit for a standard, averaging mass, and kind.

    Accepts the enums or their string values ("ieee"/"ecc", "1g"/"10g",
    "average"/"peak"). Raises ValueError for combinations with no published
    row (for example an ECC peak limit).
    """
    standard = _coerce(SarStandard, standard)
    mass = _coerce(AveragingMass, mass)
    kind = _coerce(LimitKind, kind)
    try:
        value = _LIMIT_TABLE[(standard, mass, kind)]
    except KeyError:
        raise ValueError(
            f"no published limit for standard={standard.value}, "
            f"mass={mass.value}, kind={kind.value}") from None
    return SarLimit(standard=standard, mass=mass, kind=kind, value=value)


def point_sar(sigma: float, e_mag: float, rho: float) -> float:
    """Local SAR sigma * e_mag^2 / rho in W/kg; a SAR that overflows the
    floats raises ValueError."""
    check_real(sigma, "conductivity", closed=True)
    check_real(e_mag, "field magnitude", closed=True)
    try:
        sar = sigma * e_mag ** 2 / check_real(rho, "mass density")
    except OverflowError:  # float ** raises where float * gives inf
        sar = math.inf
    if sar == math.inf:
        raise ValueError(f"SAR {sigma} * {e_mag}^2 / {rho} is out of floating-point range")
    return sar


def max_allowed_power(p_in: float, sar_achieved: float, limit: SarLimit) -> float:
    """Input power that scales a computed SAR figure onto its limit.

    A ratio that overflows or underflows to zero raises ValueError.
    """
    check_real(p_in, "input power")
    check_real(sar_achieved, "achieved SAR")
    p_max = p_in * (limit.value / sar_achieved)
    if not (p_max > 0.0 and math.isfinite(p_max)):
        raise ValueError(f"input power {p_in} W at SAR {sar_achieved} W/kg "
                         f"gives a power limit out of floating-point range")
    return p_max


# voxels per tissue grid, the cap on field grid nodes (64^3): a 64^3 SAR
# average takes 0.035-0.055 s (1 g to 10 g) on a varied field of 2 mm
# voxels on a 2-vCPU VM, and seconds on a uniform one
_MAX_VOXELS = 2**18


class TissueGrid:
    """Voxelized tissue block: conductivity, density, field magnitude.

    Arrays share one (nx, ny, nz) shape of at most 2**18 voxels (64^3);
    e_mag is the field magnitude obtained at reference input power p_in_w.
    Linear voxel indices are x-major, matching the file format. The grid
    holds a read-only `check_array` copy of each array, so an array it was
    built from can change without reaching it. voxel_m is at most 1e100.
    """

    def __init__(self, voxel_m: float, sigma, rho, e_mag, p_in_w: float = 1.0):
        sigma = check_array(sigma, "conductivity", closed=True)
        rho = check_array(rho, "mass density")
        e_mag = check_array(e_mag, "field magnitude", closed=True)
        if not (sigma.shape == rho.shape == e_mag.shape) or sigma.ndim != 3:
            raise ValueError(
                f"sigma, rho, e_mag must share one 3-D shape, got "
                f"{sigma.shape}, {rho.shape}, {e_mag.shape}")
        _check_size(sigma.shape)
        check_real(voxel_m, "voxel edge", high=1e100)
        check_real(p_in_w, "reference power")
        self.voxel_m = float(voxel_m)
        self.sigma = sigma
        self.rho = rho
        self.e_mag = e_mag
        self.p_in_w = float(p_in_w)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.sigma.shape

    def scaled_field(self, factor: float) -> "TissueGrid":
        """Same tissue with every field magnitude multiplied by factor."""
        check_real(factor, "field factor", closed=True)
        with np.errstate(over="ignore"):  # inf is refused as not finite
            e_mag = self.e_mag * factor
        return TissueGrid(self.voxel_m, self.sigma, self.rho, e_mag, self.p_in_w)


@dataclass(frozen=True)
class AveragedSar:
    """Peak mass-averaged SAR with the winning cube's center voxel."""

    peak_avg_w_per_kg: float
    center_index: int
    center: tuple[int, int, int]


def _cube_sums(table: np.ndarray, w: int) -> np.ndarray:
    """Every center's sum over its cube of half-width w, clipped at the grid.

    table is a zero-padded summed-area table (one more entry per axis than
    the grid). Differencing one axis at a time keeps every intermediate a
    non-negative partial box sum, so no step cancels more than the total.
    """
    out = table
    for axis in range(3):
        i = np.arange(table.shape[axis] - 1)
        out = (np.take(out, np.minimum(i + w + 1, len(i)), axis)
               - np.take(out, np.maximum(i - w, 0), axis))
    return out


def _summed_area(values: np.ndarray) -> np.ndarray:
    table = np.zeros(tuple(n + 1 for n in values.shape))
    table[1:, 1:, 1:] = values.cumsum(0).cumsum(1).cumsum(2)
    return table


def _cube(center, w: int, shape) -> tuple[slice, slice, slice]:
    return tuple(slice(max(0, c - w), min(n, c + w + 1))
                 for c, n in zip(center, shape))


def averaged_sar(grid: TissueGrid, mass_target_kg: float) -> AveragedSar:
    """Peak cube-averaged SAR over all voxel centers (IEC/IEEE 62704-1).

    For each center the cube grows one voxel layer at a time (clipped at the
    grid boundary) until it holds at least mass_target_kg, then point SAR is
    averaged over the cube weighted by voxel mass. Ties in the peak are
    broken toward the lowest linear (x-major) index, so the result is fully
    deterministic.

    Summed-area tables (Crow 1984) of voxel mass and mass-weighted SAR give
    every center's cube mass and average for all centers at once, together
    with a proven bound on their rounding error. They only prune: a center
    whose table mass is too close to the target to decide its cube is grown
    again with exact slice sums, and the peak is taken over the centers whose
    averages could still be the largest, each recomputed as
    np.sum(weighted[cube]) / np.sum(mass[cube]). The reported value and its
    tie rule are therefore those of the exhaustive loop, bit for bit.
    """
    check_real(mass_target_kg, "mass target")
    # an overflow, or inf times a voxel mass of 0, is refused just below
    with np.errstate(over="ignore", invalid="ignore"):
        voxel_mass = grid.rho * grid.voxel_m ** 3
        psar = grid.sigma * grid.e_mag ** 2 / grid.rho
        weighted = psar * voxel_mass
        total, total_w = float(voxel_mass.sum()), float(weighted.sum())
    if not math.isfinite(total):
        raise ValueError(f"grid mass {total} kg is not finite")
    if total < mass_target_kg:
        raise ValueError(
            f"grid holds {total:.6g} kg, below the averaging mass "
            f"{mass_target_kg:.6g} kg")
    if not math.isfinite(total_w):
        raise ValueError(
            f"mass-weighted SAR sums to {total_w} W, not a finite value")
    shape = grid.shape
    nx, ny, nz = shape
    # All terms are non-negative, so a table entry (at most nx+ny+nz
    # additions per term) errs by at most gamma_(nx+ny+nz) * total, a cube sum
    # from eight entries by eight times that plus seven roundings, and
    # np.sum over any cube, in whatever order numpy adds, by gamma_N * total.
    # gamma_k is about k * eps / 2; using eps doubles the bound, which covers
    # the division and the rounding of the bounds themselves.
    slack = (nx * ny * nz + 8 * (nx + ny + nz) + 64) * np.finfo(float).eps
    dm, dw = slack * total, slack * total_w
    mass_t, weighted_t = _summed_area(voxel_mass), _summed_area(weighted)

    # a cube of half-width w holds at most (2w+1)^3 voxels, so below the
    # first w where that many of the heaviest voxels, with both bounds, can
    # reach the target, no table mass can and no center is summed again.
    # The factor 1 + 4 eps covers the rounding of the test itself
    heaviest = float(voxel_mass.max())
    first = next((w for w in range(max(shape))
                  if (2 * w + 1) ** 3 * heaviest * (1.0 + 4.0 * np.finfo(float).eps)
                  + 2.0 * dm >= mass_target_kg), max(shape))
    width = np.full(shape, -1)
    cube_m = np.empty(shape)
    cube_w = np.empty(shape)
    for w in range(first, max(shape) + 1):
        open_ = width < 0
        if not open_.any():
            break
        m = _cube_sums(mass_t, w)
        reached = open_ & (m - dm >= mass_target_kg)
        for center in zip(*np.nonzero(open_ & ~reached
                                      & (m + dm >= mass_target_kg))):
            # too close to call from the table: decide as the loop does
            if np.sum(voxel_mass[_cube(center, w, shape)]) >= mass_target_kg:
                reached[center] = True
        width[reached] = w
        cube_m[reached] = m[reached]
        cube_w[reached] = _cube_sums(weighted_t, w)[reached]

    # a center whose largest possible average is below some center's
    # smallest possible one cannot hold the peak; the rest are summed exactly
    m_lo = cube_m - dm
    hi = np.divide(cube_w + dw, m_lo, out=np.full(shape, np.inf),
                   where=m_lo > 0.0)
    lo = (cube_w - dw) / (cube_m + dm)
    best = -math.inf
    best_lin = -1
    best_center = (0, 0, 0)
    for lin in np.flatnonzero(hi >= lo.max()):
        center = np.unravel_index(lin, shape)
        cube = _cube(center, int(width[center]), shape)
        avg = float(np.sum(weighted[cube]) / np.sum(voxel_mass[cube]))
        if avg > best:
            best = avg
            best_lin = int(lin)
            best_center = tuple(int(c) for c in center)
    return AveragedSar(peak_avg_w_per_kg=best, center_index=best_lin,
                       center=best_center)


def _check_size(shape: tuple[int, int, int]) -> None:
    if math.prod(shape) > _MAX_VOXELS:
        raise ValueError(f"tissue grid of {' x '.join(map(str, shape))} voxels "
                         f"exceeds the cap of {_MAX_VOXELS}")


def _shape(entries) -> tuple[int, int, int]:
    shape = tuple(entries)
    if len(shape) != 3 or not all(is_index(x, 1) for x in shape):
        raise ValueError(f"shape must be three positive integers, got {entries}")
    shape = tuple(int(x) for x in shape)
    _check_size(shape)  # before a loader builds any array
    return shape


def tissue_grid_from_json(text: str) -> TissueGrid:
    """Parse the JSON tissue file: header keys shape, voxel_m, p_in_w and
    flat sigma/rho/e_mag arrays of numbers in x-major order. An array that
    holds a boolean, a string, a null or a nested array, or a bare number
    in place of one, raises ValueError, as in the field grid loader."""
    data = json_object(text, "tissue grid document")
    try:
        shape = _shape(data["shape"])
        voxel, p_in = data["voxel_m"], data["p_in_w"]
        arrays = {k: json_numbers(data[k], text) for k in ("sigma", "rho", "e_mag")}
    except KeyError as exc:
        raise ValueError(f"tissue grid document is missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"tissue grid document holds a malformed value: {exc}") from None
    n = shape[0] * shape[1] * shape[2]
    for name, arr in arrays.items():
        if arr.size != n:
            raise ValueError(f"{name} holds {arr.size} values, expected {n}")
    return TissueGrid(voxel, arrays["sigma"].reshape(shape),
                      arrays["rho"].reshape(shape),
                      arrays["e_mag"].reshape(shape), p_in)


def tissue_grid_from_csv(csv_text: str, sidecar_text: str) -> TissueGrid:
    """Parse the CSV tissue form: rows index,sigma,rho,e_mag in x-major
    order with shape/voxel_m/p_in_w in a JSON sidecar."""
    meta = json_object(sidecar_text, "tissue grid sidecar")
    try:
        shape = _shape(meta["shape"])
        voxel, p_in = meta["voxel_m"], meta["p_in_w"]
    except KeyError as exc:
        raise ValueError(f"tissue grid sidecar is missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"tissue grid sidecar holds a malformed value: {exc}") from None
    rows = []
    for line_no, line in enumerate(csv_text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if line_no == 1 and not parts[0].strip().lstrip("-").replace(".", "", 1).isdigit():
            continue  # optional header line
        if len(parts) != 4:
            raise ValueError(f"line {line_no}: expected 4 columns, got {len(parts)}")
        rows.append(tuple(float(p) for p in parts))
    n = shape[0] * shape[1] * shape[2]
    if len(rows) != n:
        raise ValueError(f"CSV holds {len(rows)} voxels, expected {n}")
    for k, row in enumerate(rows):
        if row[0] != k:  # compare as floats: no int() to truncate or overflow
            raise ValueError(f"voxel index column out of order at row {k}: {row[0]}")
    data = np.array(rows, dtype=float)
    return TissueGrid(voxel, data[:, 1].reshape(shape), data[:, 2].reshape(shape),
                      data[:, 3].reshape(shape), p_in)

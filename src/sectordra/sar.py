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

import array
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import is_index, json_object

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
    """Local SAR sigma * e_mag^2 / rho in W/kg."""
    if rho <= 0.0 or not math.isfinite(rho):
        raise ValueError(f"mass density must be positive, got {rho}")
    if sigma < 0.0:
        raise ValueError(f"conductivity must be >= 0, got {sigma}")
    if e_mag < 0.0:
        raise ValueError(f"field magnitude must be >= 0, got {e_mag}")
    return sigma * e_mag ** 2 / rho


def max_allowed_power(p_in: float, sar_achieved: float, limit: SarLimit) -> float:
    """Input power that scales a computed SAR figure onto its limit.

    A ratio that overflows or underflows to zero raises ValueError.
    """
    if not (p_in > 0.0 and math.isfinite(p_in)):
        raise ValueError(f"input power must be positive, got {p_in}")
    if not (sar_achieved > 0.0 and math.isfinite(sar_achieved)):
        raise ValueError(f"achieved SAR must be positive, got {sar_achieved}")
    p_max = p_in * (limit.value / sar_achieved)
    if not (p_max > 0.0 and math.isfinite(p_max)):
        raise ValueError(f"input power {p_in} W at SAR {sar_achieved} W/kg "
                         f"gives a power limit out of floating-point range")
    return p_max


class TissueGrid:
    """Voxelized tissue block: conductivity, density, field magnitude.

    Arrays share one (nx, ny, nz) shape; e_mag is the field magnitude
    obtained at reference input power p_in_w. Linear voxel indices are
    x-major, matching the file format.
    """

    def __init__(self, voxel_m: float, sigma, rho, e_mag, p_in_w: float = 1.0):
        sigma = np.asarray(sigma, dtype=float)
        rho = np.asarray(rho, dtype=float)
        e_mag = np.asarray(e_mag, dtype=float)
        if not (sigma.shape == rho.shape == e_mag.shape) or sigma.ndim != 3:
            raise ValueError(
                f"sigma, rho, e_mag must share one 3-D shape, got "
                f"{sigma.shape}, {rho.shape}, {e_mag.shape}")
        if not (voxel_m > 0.0 and math.isfinite(voxel_m)):
            raise ValueError(f"voxel edge must be positive, got {voxel_m}")
        if voxel_m > 1e100:  # the voxel volume, its cube, would overflow
            raise ValueError(f"voxel edge {voxel_m} m is too large")
        if not (p_in_w > 0.0 and math.isfinite(p_in_w)):
            raise ValueError(f"reference power must be positive, got {p_in_w}")
        for name, arr in (("conductivity", sigma), ("mass density", rho),
                          ("field magnitude", e_mag)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite everywhere")
        if np.any(sigma < 0.0):
            raise ValueError("conductivity must be >= 0 everywhere")
        if np.any(rho <= 0.0):
            raise ValueError("mass density must be positive everywhere")
        if np.any(e_mag < 0.0):
            raise ValueError("field magnitude must be >= 0 everywhere")
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
        return TissueGrid(self.voxel_m, self.sigma, self.rho,
                          self.e_mag * factor, self.p_in_w)


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
    if not (mass_target_kg > 0.0 and math.isfinite(mass_target_kg)):
        raise ValueError(f"mass target must be positive, got {mass_target_kg}")
    voxel_mass = grid.rho * grid.voxel_m ** 3
    total = float(voxel_mass.sum())
    if not math.isfinite(total):
        raise ValueError(f"grid mass {total} kg is not finite")
    if total < mass_target_kg:
        raise ValueError(
            f"grid holds {total:.6g} kg, below the averaging mass "
            f"{mass_target_kg:.6g} kg")
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        psar = grid.sigma * grid.e_mag ** 2 / grid.rho
        weighted = psar * voxel_mass
    total_w = float(weighted.sum())
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

    width = np.full(shape, -1)
    cube_m = np.empty(shape)
    cube_w = np.empty(shape)
    for w in range(max(shape) + 1):
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


def _shape(entries) -> tuple[int, int, int]:
    shape = tuple(entries)
    if len(shape) != 3 or not all(is_index(x, 1) for x in shape):
        raise ValueError(f"shape must be three positive integers, got {entries}")
    return tuple(int(x) for x in shape)


def tissue_grid_from_json(text: str) -> TissueGrid:
    """Parse the JSON tissue file: header keys shape, voxel_m, p_in_w and
    flat sigma/rho/e_mag arrays of numbers in x-major order. Booleans in an
    array load as 1.0 and 0.0, as the field grid loader reads them; a
    string, null, nested array or bare number raises ValueError."""
    data = json_object(text, "tissue grid document")
    try:
        shape = _shape(data["shape"])
        voxel = float(data["voxel_m"])
        p_in = float(data["p_in_w"])
        # array("d") takes the JSON numbers and booleans, and raises
        # TypeError at anything else, which numpy's float conversion would
        # read as a number, a nan or a nested array
        arrays = {k: np.frombuffer(array.array("d", data[k]))
                  for k in ("sigma", "rho", "e_mag")}
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
        voxel = float(meta["voxel_m"])
        p_in = float(meta["p_in_w"])
    except KeyError as exc:
        raise ValueError(f"tissue grid sidecar is missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
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

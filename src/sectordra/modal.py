"""Geometry, mode bookkeeping, and resonant frequencies for sector DRAs.

A sectoral cylindrical dielectric resonator of radius a, height h, and sector
angle phi0 supports TE/EH modes whose transverse behavior is J_v(k_r r) with
the azimuthal order set by the perfectly conducting faces:

    v = m pi / phi0,    m = 0, 1, 2, ...

so a quarter sector (phi0 = pi/2) has even integer orders v = 2m. The lower
family of hybrid modes whose order is an explicit integer (EH_110 has v = 1
on the quarter sector) is represented with an explicit-v override rather
than a derived m. In this kernel those modes do not meet the conducting-face
condition: E_r carries sin(v phi), which vanishes on phi = phi0 only when
v phi0 is a multiple of pi. On a 12 mm, 2.54 mm quarter sector,
`boundary_residuals` reports a tangential face field of 54.3 for EH v = 1,
p = 0 (210.7 at p = 1) against 5e-15 for TE v = 2; ROADMAP item 1 keeps the
question open.

The resonance condition composes radial, azimuthal, and axial wavenumbers,

    k_r = X_vn / a,  k_phi = v / a,  k_z = p pi / h,
    f = c / (2 pi sqrt(eps_r)) * sqrt(k_r^2 + k_phi^2 + k_z^2)

with X_vn the n-th positive zero of J_v. All quantities are SI internally;
unit conversion (mm, degrees, GHz) happens only at the CLI boundary.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import check_index, check_real
from .specfun import bessel_zero

__all__ = [
    "C_LIGHT",
    "MU_0",
    "ModeFamily",
    "SectorGeometry",
    "ModeSpec",
    "Wavenumbers",
    "azimuthal_order",
    "wavenumbers",
    "resonant_frequency",
    "enumerate_modes",
    "geometry_from_json",
    "mode_from_json",
]

C_LIGHT = 299_792_458.0  # m/s, exact
MU_0 = 4.0e-7 * math.pi  # H/m

# tolerance for "this float is the integer it claims to be" checks
_ORDER_TOL = 1e-9
# modes enumerate_modes lists before it rejects a cutoff as too high; 1000
# modes of growing n take 0.5 s on a 2-vCPU VM, of growing order on a quarter
# sector 2.8 s, and at sector angle 0.3 (orders 10.5 m) 14 s
_MAX_MODES = 1000


class ModeFamily(enum.Enum):
    """Mode family label. TE and EH share the same field equations (E_z = 0);
    the distinction is metadata carried through reports and exports."""

    TE = "TE"
    EH = "EH"


def azimuthal_order(m: int, phi0: float) -> float:
    """Azimuthal order v = m pi / phi0 imposed by the conducting faces.

    Args:
        m: non-negative integer azimuthal index.
        phi0: sector angle in radians, > 0.

    An order that overflows raises ValueError.
    """
    v = check_index(m, "azimuthal index", 0) * math.pi / check_real(phi0, "sector angle")
    return check_real(v, "azimuthal order m pi / phi0", closed=True)


@dataclass(frozen=True)
class SectorGeometry:
    """Sector resonator geometry, SI units.

    Attributes:
        a: radius in meters.
        h: height in meters.
        phi0: sector angle in radians, 0 < phi0 <= 2 pi.
        eps_r: relative permittivity, >= 1.
    """

    a: float
    h: float
    phi0: float
    eps_r: float

    def __post_init__(self) -> None:
        check_real(self.a, "radius")
        check_real(self.h, "height")
        check_real(self.phi0, "sector angle", high=math.tau)
        check_real(self.eps_r, "relative permittivity", 1.0, closed=True)

    @classmethod
    def quarter(cls, a: float, h: float, eps_r: float) -> "SectorGeometry":
        """Quarter-sector geometry, phi0 fixed to pi/2."""
        return cls(a=a, h=h, phi0=math.pi / 2.0, eps_r=eps_r)


@dataclass(frozen=True)
class ModeSpec:
    """One resonant mode: family label, azimuthal order, radial and axial index.

    The order v either derives from an integer m through the face condition
    (m is then recorded) or is set explicitly (m is None), which is how the
    lower EH family on sector geometries is expressed.
    """

    family: ModeFamily
    v: float
    n: int
    p: int
    m: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, ModeFamily):
            raise ValueError(f"family must be a ModeFamily, got {self.family!r}")
        check_real(self.v, "azimuthal order", closed=True)
        check_index(self.n, "radial index", 1)
        check_index(self.p, "axial index", 0)
        if self.m is not None:
            check_index(self.m, "azimuthal index", 0)

    @classmethod
    def derived(cls, family: ModeFamily, m: int, n: int, p: int,
                phi0: float) -> "ModeSpec":
        """Mode with v = m pi / phi0 from the face boundary condition."""
        return cls(family=family, v=azimuthal_order(m, phi0), n=n, p=p, m=m)

    @classmethod
    def explicit(cls, family: ModeFamily, v: float, n: int, p: int) -> "ModeSpec":
        """Mode with a directly assigned azimuthal order."""
        # checked before float(), which reads True and '1' as 1.0
        return cls(family, float(check_real(v, "azimuthal order", closed=True)), n, p)


@dataclass(frozen=True)
class Wavenumbers:
    """Radial, azimuthal, axial wavenumbers and their composition (rad/m)."""

    k_r: float
    k_phi: float
    k_z: float
    k: float


@lru_cache(maxsize=4096)
def _zero(v: float, n: int) -> float:
    return bessel_zero(v, n)


def _check_mode_geometry(geom: SectorGeometry, mode: ModeSpec) -> None:
    # a derived mode is only meaningful against the sector angle it was built for
    if mode.m is not None:
        expected = azimuthal_order(mode.m, geom.phi0)
        if abs(mode.v - expected) > _ORDER_TOL * max(1.0, expected):
            raise ValueError(
                f"mode order v={mode.v} does not match m={mode.m} for "
                f"sector angle {geom.phi0} (expected v={expected})")


def wavenumbers(geom: SectorGeometry, mode: ModeSpec) -> Wavenumbers:
    """Wavenumbers of a mode on a geometry.

    k_r = X_vn / a, k_phi = v / a, k_z = p pi / h, composed into
    k = sqrt(k_r^2 + k_phi^2 + k_z^2). A geometry so extreme that k
    overflows, or that k_r^2 falls below the normal floats and loses
    digits, raises ValueError; the resonant frequency is then always
    positive and finite.
    """
    _check_mode_geometry(geom, mode)
    k_r = _zero(mode.v, mode.n) / geom.a
    k_phi = mode.v / geom.a
    k_z = mode.p * math.pi / geom.h
    k = math.sqrt(k_r * k_r + k_phi * k_phi + k_z * k_z)
    if not (math.isfinite(k) and k_r * k_r >= sys.float_info.min):
        raise ValueError(
            f"wavenumbers of v={mode.v}, n={mode.n}, p={mode.p} on radius "
            f"{geom.a} m and height {geom.h} m are out of floating-point range")
    return Wavenumbers(k_r=k_r, k_phi=k_phi, k_z=k_z, k=k)


def resonant_frequency(geom: SectorGeometry, mode: ModeSpec) -> float:
    """Resonant frequency in Hz, f = c k / (2 pi sqrt(eps_r))."""
    k = wavenumbers(geom, mode).k
    return C_LIGHT / (2.0 * math.pi * math.sqrt(geom.eps_r)) * k


def enumerate_modes(geom: SectorGeometry, f_max: float, m_max: int,
                    n_max: int, p_max: int) -> list[tuple[ModeSpec, float]]:
    """All modes with resonant frequency <= f_max within the index bounds.

    Two families are generated: the derived family v = m pi / phi0 for
    m = 0..m_max (labeled TE), and the explicit integer family v = 1..m_max
    (labeled EH) for orders the derived map cannot produce, which is what
    admits the lower sector modes such as v = 1 on a quarter sector. The
    result is sorted ascending by frequency with ties broken lexicographically
    by (m, n, p), where the explicit family sorts with v in the m slot.

    Each index loop ends at its first mode above f_max, so the cost follows
    the modes below the cutoff rather than the index bounds. More than 1000
    modes below the cutoff raise ValueError. That cap bounds the length of
    the list, not the runtime: each zero search scans further as the order
    grows, so 1000 modes of growing order on a sector of angle 0.3 take
    about 14 s.

    Returns:
        list of (ModeSpec, frequency_hz) pairs.
    """
    check_real(f_max, "frequency cutoff")
    m_max = check_index(m_max, "m_max", 1)
    n_max = check_index(n_max, "n_max", 1)
    p_max = check_index(p_max, "p_max", 0)

    entries: list[tuple[ModeSpec, float]] = []

    def _collect(mode_at) -> bool:
        """Collect mode_at(n, p) for p = 0.. and n = 1.. up to the first
        mode above f_max; False when mode_at(1, 0) is already above it."""
        for n in range(1, n_max + 1):
            for p in range(0, p_max + 1):
                mode = mode_at(n, p)
                f = resonant_frequency(geom, mode)
                if f > f_max:
                    break
                if len(entries) == _MAX_MODES:
                    raise ValueError(
                        f"more than {_MAX_MODES} modes lie below {f_max} Hz; "
                        "lower the cutoff or the index bounds")
                entries.append((mode, f))
            if p == 0 and f > f_max:
                return n > 1
        return True

    # f grows with p, with X_vn and so with n, and with v (X_vn increases in
    # v, DLMF 10.21), so each loop ends at its first mode above f_max
    derived = set()  # the whole-number orders the derived loop reached
    for m in range(0, m_max + 1):
        v = azimuthal_order(m, geom.phi0)
        if abs(v - round(v)) <= _ORDER_TOL:
            derived.add(round(v))
        if not _collect(partial(ModeSpec.derived, ModeFamily.TE, m,
                                phi0=geom.phi0)):
            break
    # an order past the last one reached is above f_max in either family,
    # so only the reached orders need skipping
    for v_int in range(1, m_max + 1):
        if v_int in derived:
            continue
        if not _collect(partial(ModeSpec.explicit, ModeFamily.EH,
                                float(v_int))):
            break

    def _key(item: tuple[ModeSpec, float]):
        mode, f = item
        m_slot = mode.m if mode.m is not None else int(round(mode.v))
        return (f, m_slot, mode.n, mode.p)

    return sorted(entries, key=_key)


_GEOMETRY_KEYS = ("radius_mm", "height_mm", "sector_deg", "eps_r")
_MODE_KEYS = ("family", "m", "v", "n", "p")


def mm_to_m(mm: float) -> float:
    return mm / 1000.0


def to_si(value: float, what: str, convert, top: float = math.inf) -> float:
    """A length in mm or an angle in degrees, as typed, in meters or radians;
    ValueError naming it as typed when it is outside (0, top] or underflows."""
    si = convert(check_real(value, what, high=top))
    if si == 0.0:
        raise ValueError(f"{what} {value!r} is out of floating-point range "
                         "in SI units")
    return si


def geometry_from_json(data: dict) -> SectorGeometry:
    """Geometry from its JSON document form (mm and degrees at this boundary).

    The document must carry exactly the keys radius_mm, height_mm,
    sector_deg, eps_r; unknown keys are rejected. A bad length or angle is
    named by its key and its value as typed (see `to_si`).
    """
    if not isinstance(data, dict):
        raise ValueError(f"geometry document must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_GEOMETRY_KEYS))
    if unknown:
        raise ValueError(f"unknown geometry keys: {', '.join(unknown)}")
    missing = [k for k in _GEOMETRY_KEYS if k not in data]
    if missing:
        raise ValueError(f"missing geometry keys: {', '.join(missing)}")
    return SectorGeometry(
        a=to_si(data["radius_mm"], "radius_mm", mm_to_m),
        h=to_si(data["height_mm"], "height_mm", mm_to_m),
        phi0=to_si(data["sector_deg"], "sector_deg", math.radians, top=360.0),
        eps_r=float(check_real(data["eps_r"], "relative permittivity", 1.0, closed=True)),
    )


def mode_from_json(data: dict, geom: SectorGeometry) -> ModeSpec:
    """Mode from its JSON document form, {family, m | v, n, p}.

    An explicit "v" takes precedence over "m"; with only "m" the order is
    derived from the geometry's sector angle. Unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise ValueError(f"mode document must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_MODE_KEYS))
    if unknown:
        raise ValueError(f"unknown mode keys: {', '.join(unknown)}")
    try:
        family = ModeFamily(data["family"])
    except KeyError:
        raise ValueError("mode document needs a 'family' key") from None
    except ValueError:
        raise ValueError(f"family must be TE or EH, got {data['family']!r}") from None
    for key in ("n", "p"):
        if key not in data:
            raise ValueError(f"mode document needs an {key!r} key")
    # int() of a whole float index, as ModeSpec keeps what it is given
    n = check_index(data["n"], "radial index", 1)
    p = check_index(data["p"], "axial index", 0)
    if "v" in data:
        return ModeSpec.explicit(family, data["v"], n, p)
    if "m" in data:
        m = check_index(data["m"], "azimuthal index", 0)
        return ModeSpec.derived(family, m, n, p, geom.phi0)
    raise ValueError("mode document needs either 'v' or 'm'")

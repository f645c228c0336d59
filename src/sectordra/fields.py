"""Vector field distributions of sector DRA modes, grid sampling, export.

With the face and cap conditions applied (B = 0, F = 0) and the product
amplitude A E set to 1, the surviving components in cylindrical coordinates
(e^{+j omega t} phasors) are

    H_z   =            J_v(k_r r) cos(v phi) cos(k_z z)
    E_r   =  j w u v / k_r^2 * J_v(k_r r)/r  * sin(v phi) cos(k_z z)
    E_phi =  j w u   / k_r^2 * k_r J_v'(k_r r) cos(v phi) cos(k_z z)
    H_r   =   -k_z   / k_r^2 * k_r J_v'(k_r r) cos(v phi) sin(k_z z)
    H_phi =    k_z v / k_r^2 * J_v(k_r r)/r  * sin(v phi) sin(k_z z)
    E_z   =  0

with w = 2 pi f the mode's angular frequency and u the vacuum permeability:
the TE relations E_t = (j w u / k_r^2) z x grad_t H_z and
H_t = (1/k_r^2) grad_t dH_z/dz (Harrington, Time-Harmonic Electromagnetic
Fields, 1961, ch. 5). On the axis v J_v(k_r r)/r and k_r J_v'(k_r r) share
one limit: k_r/2 for v = 1, and 0 for v = 0 and v > 1. For 0 < v < 1 both
diverge, which is the real edge singularity of reentrant sectors, and
evaluation at r = 0 is refused.

Grids are sampled on uniform nodes with endpoints included and rescaled so
the largest |H_z| equals the requested amplitude (1 by default). There node
n_z - 1 - k stands for h - z_k, and cos(k_z (h - z)) = (-1)^p cos(k_z z),
sin(k_z (h - z)) = -(-1)^p sin(k_z z): for p >= 1 each interior z-plane
past the middle takes its axial factor from its mirror plane k, so that it
is bitwise plane k or its negation (each within an ulp or two of the direct
value). Likewise node n_phi - 1 - j stands for phi0 - phi_j, and for a
derived order v = m pi / phi0 with m >= 1, cos(v (phi0 - phi)) =
(-1)^m cos(v phi) and sin(v (phi0 - phi)) = -(-1)^m sin(v phi): each
interior phi-row past the middle is bitwise row j or its negation. Its
azimuthal factors differ from the direct ones by their argument rounding
(v phi is up to m pi), so each sampled part is within 8 m 2^-52 of its
peak of the direct value (measured: at most 3.8 m 2^-52 for m = 1 to 8),
unless every node sits on a zero of sin(v phi) and the part is roundoff
either way. Explicit orders are evaluated directly, since their faces need
not be alike (EH v = 1 on a quarter sector has cos(v (phi0 - phi)) =
sin(v phi)), and so is m = 0, where sin(v phi) is +0.0 and a mirror would
flip the sign of its zeros. The export formats and the loader parses one
plane of a pair, and one row of a pair within each plane it formats or
parses.
"""

from __future__ import annotations

import array
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_index, check_real, json_object
from .modal import (
    MU_0,
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    azimuthal_order,
    resonant_frequency,
    wavenumbers,
)
from .specfun import bessel_j, bessel_j_prime

__all__ = [
    "CylPoint",
    "FieldSample",
    "FieldGrid",
    "BoundaryResiduals",
    "field_at",
    "sample_grid",
    "boundary_residuals",
    "export_grid",
    "load_grid_json",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "r_m", "phi_rad", "z_m",
    "Er_re", "Er_im", "Ephi_re", "Ephi_im", "Ez_re", "Ez_im",
    "Hr_re", "Hr_im", "Hphi_re", "Hphi_im", "Hz_re", "Hz_im",
)

# the FieldSample and FieldGrid attributes, and their JSON keys
_FIELDS = ("E_r", "E_phi", "E_z", "H_r", "H_phi", "H_z")
_COMPONENT_NAMES = ("Er", "Ephi", "Ez", "Hr", "Hphi", "Hz")
# nodes per grid (n_r * n_phi * n_z). At 64^3 on a 2-vCPU VM, with 95 MB of
# process peak after sampling, a derived TE m = 1 grid's first export: CSV
# 0.06 s and 159 MB peak at p = 0, 0.46 s and 195 MB at p = 1; JSON 0.025 s
# and 107 MB at p = 0, 0.32 s and 134 MB at p = 1. The second export reuses
# the grid's texts: JSON after CSV takes 0.012-0.017 s, CSV after JSON
# 0.044 s at p = 0 and 0.18 s at p = 1. A load takes 0.03-0.04 s at p = 0
# and 0.26 s at p = 1
_MAX_NODES = 2**18


@dataclass(frozen=True)
class CylPoint:
    """A point in cylindrical coordinates (meters, radians, meters)."""

    r: float
    phi: float
    z: float


@dataclass(frozen=True)
class FieldSample:
    """Complex field components at one point, A E = 1 scale unless noted."""

    at: CylPoint
    E_r: complex
    E_phi: complex
    E_z: complex
    H_r: complex
    H_phi: complex
    H_z: complex


@dataclass(frozen=True)
class BoundaryResiduals:
    """Supremum norms of the boundary conditions, sampled on boundary nodes.

    face_e_tangential: max |E_r| on the two flat faces (E_z is zero, so E_r
        is the whole tangential electric field there).
    arc_h_phi: max |H_phi| on the curved wall r = a.
    cap_dhz_dz: max |dH_z/dz| on the top and bottom caps.
    """

    face_e_tangential: float
    arc_h_phi: float
    cap_dhz_dz: float


def _components(geom: SectorGeometry, mode: ModeSpec, r: np.ndarray,
                phi: np.ndarray, z: np.ndarray, amplitude: float | None = None,
                mirrored: bool = False) -> tuple[np.ndarray, ...]:
    """(E_r, E_phi, E_z, H_r, H_phi, H_z) on the outer product of the node
    arrays r, phi and z, arrays of shape (len(r), len(phi), len(z)): E_r and
    E_phi complex, the real E_z (zero) and H components as floats.

    The scale is A E = 1, or with an amplitude, such that max |H_z| over
    the nodes equals it. Nodes on the axis (r = 0) take the limits of the
    module docstring; for 0 < v < 1 they raise ValueError, and so does a
    component that overflows to inf or NaN. When phi and z are `mirrored`,
    node n_z - 1 - k standing for h - z[k], the axial factors of a p >= 1
    mode at each interior node past the middle are those of node k times
    (-1)^p (cos) and -(-1)^p (sin), so that z-plane n_z - 1 - k of each
    component is bitwise plane k or its negation; and node n_phi - 1 - j
    standing for phi0 - phi[j], so are the azimuthal factors of a mode with
    m >= 1 whose v is m pi / phi0 on this geometry, with (-1)^m, so that
    phi-row n_phi - 1 - j is bitwise row j or its negation. Other modes'
    azimuthal factors, explicit orders and m = 0 among them, are direct.
    """
    wn = wavenumbers(geom, mode)
    omega = 2.0 * math.pi * resonant_frequency(geom, mode)
    v = mode.v
    kr2 = wn.k_r * wn.k_r
    on_axis = r == 0.0
    if 0.0 < v < 1.0 and on_axis.any():
        raise ValueError(
            f"field diverges on the axis for azimuthal order 0 < v < 1 (v={v}); "
            "evaluate at r > 0")
    # v J_v(k_r r) / r and k_r J_v'(k_r r) share their limit on the axis
    axis = wn.k_r * 0.5 * (v == 1.0)
    r_off = np.where(on_axis, 1.0, r)  # a stand-in radius on the axis
    jv = bessel_j(v, wn.k_r * r)
    cos_v = np.cos(v * phi)
    sin_v = np.sin(v * phi)
    cos_z = np.cos(wn.k_z * z)
    sin_z = np.sin(wn.k_z * z)
    if mirrored:
        # cos(v (phi0 - phi)) = (-1)^m cos(v phi) and sin(v (phi0 - phi)) =
        # -(-1)^m sin(v phi) where v = m pi / phi0, and likewise along z
        # with k_z = p pi / h; the end nodes keep their own values (sin(k_z
        # h) is roundoff, not -0.0), and an index of 0 would flip the sign
        # of the zeros of sin. The modal layer accepts an m whose v is off
        # by up to 1e-9, and that v takes no mirror
        derived = mode.m and v == azimuthal_order(mode.m, geom.phi0)
        for index, cos_f, sin_f in ((mode.m if derived else 0, cos_v, sin_v),
                                    (mode.p, cos_z, sin_z)):
            if index:
                k = np.arange(1, len(cos_f) // 2)
                sign = -1.0 if index % 2 else 1.0
                cos_f[-1 - k] = sign * cos_f[k]
                sin_f[-1 - k] = -sign * sin_f[k]

    def outer(radial: np.ndarray, azim: np.ndarray,
              axial: np.ndarray = cos_z) -> np.ndarray:
        return radial[:, None, None] * azim[None, :, None] * axial[None, None, :]

    h_z = outer(jv, cos_v)
    scale = 1.0
    if amplitude is not None:
        peak = float(np.max(np.abs(h_z)))
        if not (peak > 0.0 and math.isfinite(peak)):
            raise ValueError("grid H_z vanishes everywhere; cannot normalize "
                             "(all radial nodes sit on zeros of J_v)")
        scale = amplitude / peak

    # E is imaginary: its part is assigned, since multiplying by 1j would
    # add +0.0 to it and so lose the sign of its zeros
    e_r = np.zeros(h_z.shape, dtype=complex)
    e_phi = np.zeros_like(e_r)
    with np.errstate(over="ignore", invalid="ignore"):
        # near r = 0 both radial factors may overflow, which the check
        # below refuses
        vj_r = np.where(on_axis, axis, v * jv / r_off)
        kjp = np.where(on_axis, axis,
                       wn.k_r * bessel_j_prime(v, wn.k_r * r_off))
        e_r.imag = omega * MU_0 / kr2 * scale * outer(vj_r, sin_v)
        e_phi.imag = omega * MU_0 / kr2 * scale * outer(kjp, cos_v)
        h_r = -wn.k_z / kr2 * scale * outer(kjp, cos_v, sin_z)
        h_phi = wn.k_z / kr2 * scale * outer(vj_r, sin_v, sin_z)
        comps = (e_r, e_phi, np.zeros(h_z.shape), h_r, h_phi, scale * h_z)
    if not all(np.isfinite(comp).all() for comp in comps):
        at = "" if amplitude is None else f" at amplitude {amplitude}"
        raise ValueError(f"field components overflow{at}")
    return comps


def field_at(geom: SectorGeometry, mode: ModeSpec, point: CylPoint) -> FieldSample:
    """Field components of a mode at one in-domain point.

    Args:
        geom: sector geometry.
        mode: mode whose wavenumbers are computable on that geometry.
        point: cylindrical point with 0 <= r <= a, 0 <= phi <= phi0,
            0 <= z <= h.

    Returns:
        FieldSample on the A E = 1 scale (no grid normalization).

    Raises:
        ValueError: for a point outside the sector, and when a component
            overflows.
    """
    for name, top in (("r", geom.a), ("phi", geom.phi0), ("z", geom.h)):
        check_real(getattr(point, name), f"point {name}", high=top, closed=True)
    comps = _components(geom, mode, *(np.array([value], dtype=float)
                                      for value in (point.r, point.phi, point.z)))
    return FieldSample(point, *(complex(comp[0, 0, 0]) for comp in comps))


@dataclass(frozen=True)
class FieldGrid:
    """Dense field samples on a uniform (r, phi, z) grid, endpoints included.

    Component arrays are complex with shape (n_r, n_phi, n_z) and are scaled
    so that max |H_z| equals `amplitude`. A grid is a value: it holds a
    read-only copy of each of its nine arrays (complex for the components),
    so writing an element raises ValueError, and a change to an array it
    was built from does not reach it. Its export number texts are made once,
    on its first export.
    """

    geometry: SectorGeometry
    mode: ModeSpec
    r: np.ndarray
    phi: np.ndarray
    z: np.ndarray
    E_r: np.ndarray
    E_phi: np.ndarray
    E_z: np.ndarray
    H_r: np.ndarray
    H_phi: np.ndarray
    H_z: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        for name in ("r", "phi", "z", *_FIELDS):
            dtype = complex if name in _FIELDS else None
            values = np.array(getattr(self, name), dtype=dtype)
            values.flags.writeable = False
            object.__setattr__(self, name, values)  # the dataclass is frozen

    def __reduce__(self):
        # a copy or a pickled grid is built anew, so its arrays are
        # read-only too and its texts are its own
        return type(self), tuple(getattr(self, name)
                                 for name in self.__dataclass_fields__)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.r), len(self.phi), len(self.z))

    def sample(self, ir: int, iphi: int, iz: int) -> FieldSample:
        """The stored sample at one grid node."""
        point = CylPoint(float(self.r[ir]), float(self.phi[iphi]), float(self.z[iz]))
        return FieldSample(point, *(complex(getattr(self, name)[ir, iphi, iz])
                                    for name in _FIELDS))

    @functools.cached_property
    def _export_texts(self) -> list[list[str]]:
        """The JSON items text of each z-plane of the grid's 12 component
        parts (the real, then the imaginary half of each of `_FIELDS`), from
        which both exports take their numbers. No dataclass field, so a
        `dataclasses.replace` copy makes its own."""
        texts = []
        for name in _FIELDS:
            comp = getattr(self, name)
            for half, (sources, rows) in zip(("real", "imag"),
                                             _component_sources(_bits(comp))):
                texts.append(_plane_texts(comp, half, sources, rows))
        return texts


def _validate_counts(mode: ModeSpec, n_r: int, n_phi: int,
                     n_z: int) -> tuple[int, int, int]:
    n_r = check_index(n_r, "n_r", 2)
    n_phi = check_index(n_phi, "n_phi", 2)
    n_z = check_index(n_z, "n_z", 1)
    if n_r * n_phi * n_z > _MAX_NODES:
        raise ValueError(f"grid of {n_r} x {n_phi} x {n_z} nodes exceeds "
                         f"the cap of {_MAX_NODES}")
    if n_z < 2 and not (n_z == 1 and mode.p == 0):
        raise ValueError("n_z = 1 is only allowed for p = 0 modes")
    return n_r, n_phi, n_z


def sample_grid(geom: SectorGeometry, mode: ModeSpec, n_r: int, n_phi: int,
                n_z: int, amplitude: float = 1.0) -> FieldGrid:
    """Sample a mode's fields on a uniform grid and normalize them.

    The solution factors into radial, azimuthal, and axial parts, so each
    axis is evaluated once and the 3-D arrays are outer products; the result
    is identical to pointwise evaluation up to roundoff. After sampling,
    every component is scaled so max |H_z| over the grid equals `amplitude`.
    A grid of more than 2**18 nodes (64^3) is rejected before anything is
    allocated, and an amplitude at which a component overflows raises
    ValueError.
    """
    n_r, n_phi, n_z = _validate_counts(mode, n_r, n_phi, n_z)
    check_real(amplitude, "amplitude")
    r = np.linspace(0.0, geom.a, n_r)
    phi = np.linspace(0.0, geom.phi0, n_phi)
    z = np.linspace(0.0, geom.h, n_z) if n_z > 1 else np.zeros(1)
    comps = _components(geom, mode, r, phi, z, amplitude, mirrored=True)
    return FieldGrid(geom, mode, r, phi, z, *comps, amplitude=amplitude)


def boundary_residuals(geom: SectorGeometry, mode: ModeSpec,
                       resolution: int = 16) -> BoundaryResiduals:
    """Measure how well a mode satisfies the cavity walls.

    Samples `resolution` nodes per axis on each boundary surface and returns
    supremum norms of the tangential electric field on the flat faces, H_phi
    on the curved wall, and the axial H_z derivative on the caps. Derived-v
    modes satisfy all three analytically; an explicit odd order on a quarter
    sector leaves a face residual, which is reported as is. A component
    that overflows on a boundary surface raises ValueError.
    """
    resolution = check_index(resolution, "resolution", 8)
    r = np.linspace(0.0, geom.a, resolution)
    phi = np.linspace(0.0, geom.phi0, resolution)
    z = np.linspace(0.0, geom.h, resolution)
    # flat faces phi = 0 and phi = phi0: tangential E is (E_r, E_z), E_z = 0
    e_r = _components(geom, mode, r, np.array([0.0, geom.phi0]), z)[0]
    # curved wall r = a
    h_phi = _components(geom, mode, np.array([geom.a]), phi, z)[4]
    # caps z = 0 and z = h: H_z is its z = 0 plane times cos(k_z z), so
    # dH_z/dz = -k_z sin(k_z z) times that plane
    h_z0 = _components(geom, mode, r, phi, np.zeros(1))[5]
    k_z = wavenumbers(geom, mode).k_z
    cap = max(k_z * abs(math.sin(k_z * z_cap)) for z_cap in (0.0, geom.h))
    return BoundaryResiduals(face_e_tangential=float(np.abs(e_r).max()),
                             arc_h_phi=float(np.abs(h_phi).max()),
                             cap_dhz_dz=cap * float(np.abs(h_z0).max()))


def _json_rows(rows: np.ndarray) -> list[str]:
    """The items text of json.dumps(row.tolist()), without the brackets,
    of each row of a 2-D array with at least one row, in one json.dumps."""
    return json.dumps(rows.tolist())[2:-2].split("], [")


def _csv_column(items: str) -> list[str]:
    """repr() of each float in the JSON items text `items`. json writes a
    finite float as repr does, and NaN, Infinity and -Infinity where repr
    writes nan, inf and -inf; no finite float's text holds an N or an I."""
    if not items:
        return []
    if "N" in items or "I" in items:
        items = items.replace("NaN", "nan").replace("Infinity", "inf")
    return items.split(", ")


def _bits(comp: np.ndarray) -> np.ndarray:
    """A complex component's (real, imaginary) pair of uint64 per node,
    whatever its strides: equal bits are what tobytes() compares, so -0.0
    differs from 0.0, and NaNs with equal payloads are equal."""
    return comp.view(np.dtype((np.uint64, 2)))


def _plane_sources(n: int, repeats, copies, negates) -> list:
    """Where each of n z-planes (or phi-rows) takes its text (or, on load,
    its values) from, by one rule for the exporter and the loader: (k - 1,
    False) for a plane k that `repeats(k)` the plane before; else, for a
    plane in the upper half, (n - 1 - k, False) where it `copies(k)` its
    mirror plane n - 1 - k, and (n - 1 - k, True) where it `negates(k)` the
    mirror; else None, for a plane formatted or parsed anew. A predicate is
    asked only where the ones before it failed; `repeats` is false for
    rows, which only mirror. Every plane of a p = 0 mode repeats, every interior
    upper plane of a p >= 1 `sample_grid` copies or negates its mirror, and
    so does every interior upper row of a derived m >= 1 one."""
    sources = []
    for k in range(n):
        mirror = n - 1 - k
        if k and repeats and repeats(k):
            sources.append((k - 1, False))
        elif mirror < k and copies(k):
            sources.append((mirror, False))
        elif mirror < k and negates(k):
            sources.append((mirror, True))
        else:
            sources.append(None)
    return sources


_SIGN_BIT = np.uint64(1 << 63)
_INF_BITS = np.uint64(0x7FF0_0000_0000_0000)  # above it, without the sign: NaN


def _mirror_flags(bits: np.ndarray, axis: int) -> np.ndarray:
    """Whether each phi-row (axis 1) or z-plane (axis 2) of the real and of
    the imaginary half of a component's `_bits` is, past the middle, bitwise
    its mirror (copies), or its mirror with every sign bit flipped and no
    NaN (negates), in whole-array comparisons: the boolean stack (copies,
    negates), of shape (2, n_phi, n_z, 2) for rows and (2, n_z, 2) for
    planes, False up to the middle."""
    slices = np.moveaxis(bits, axis, 0)
    n, half = len(slices), len(slices) // 2
    upper = slices[n - half:]
    diff = upper ^ slices[:half][::-1]
    over = tuple(range(1, axis + 1))
    flags = np.zeros((2, n, *slices.shape[axis + 1:]), dtype=bool)
    flags[0, n - half:] = (diff == 0).all(axis=over)
    flags[1, n - half:] = ((diff == _SIGN_BIT)
                           & ((upper & ~_SIGN_BIT) <= _INF_BITS)).all(axis=over)
    return flags


def _component_sources(bits: np.ndarray) -> list[tuple]:
    """For the real and for the imaginary half of a component's `_bits`, the
    _plane_sources of its z-planes, each compared bitwise with the plane
    before and by `_mirror_flags`, and the `_mirror_flags` of the phi-rows
    of each plane. When every plane repeats, the mirror planes are not
    compared, and only the rows of plane 0 are."""
    n_z = bits.shape[2]
    repeats = np.zeros((n_z, 2), dtype=bool)
    repeats[1:] = (bits[:, :, 1:] == bits[:, :, :-1]).all(axis=(0, 1))
    if repeats[1:].all():
        planes = np.zeros((2, n_z, 2), dtype=bool)
        rows = _mirror_flags(bits[:, :, :1], 1)
    else:
        planes, rows = _mirror_flags(bits, 2), _mirror_flags(bits, 1)
    flags = (repeats.T.tolist(), *planes.transpose(0, 2, 1).tolist())  # by half
    return [(_plane_sources(n_z, *(by_half[half].__getitem__ for by_half in flags)),
             rows[..., half]) for half in range(2)]


def _toggled(items: str) -> str:
    """The JSON items text `items`, separated by ", ", with a "-" put in
    front of each item or taken off it: json's text of the negated floats,
    unless one is a NaN, which json writes without its sign."""
    return ("-" + items.replace(", ", ", -")).replace("--", "") if items else ""


def _source_text(texts: list[str], source: tuple[int, bool]) -> str:
    """The text object of the source plane or row, or that text `_toggled`."""
    text = texts[source[0]]
    return _toggled(text) if source[1] else text


def _plane_texts(comp: np.ndarray, half: str, sources: list,
                 rows: np.ndarray) -> list[str]:
    """The JSON items text of the real or imaginary `half` of each z-plane
    of a component, flattened phi-major. A plane with a source takes its
    `_source_text`. A plane formatted anew is its phi-rows' texts joined,
    where a row with a source (the `_plane_sources` of the half's row
    `_mirror_flags`, `rows`) takes its `_source_text` too, and the others
    are formatted in one `_json_rows` call."""
    texts = []
    for iz, source in enumerate(sources):
        if source is None:
            copies, negates = rows[:, :, iz].tolist()
            row_sources = _plane_sources(len(copies), None, copies.__getitem__,
                                         negates.__getitem__)
            plane = getattr(comp[:, :, iz].T, half)
            fresh = iter(_json_rows(plane[[j for j, row in enumerate(row_sources)
                                           if row is None]]))
            row_texts = []
            for row in row_sources:
                row_texts.append(next(fresh) if row is None
                                 else _source_text(row_texts, row))
            # rows of no node (n_r = 0) add no text
            texts.append(", ".join(filter(None, row_texts)))
        else:
            texts.append(_source_text(texts, source))
    return texts


def _separated(texts: list[str]) -> list[str]:
    """The nonempty `texts` with ", " between them: the pieces of
    ", ".join(filter(None, texts)), for a larger join to copy once."""
    texts = list(filter(None, texts))
    pieces = [", "] * (2 * len(texts) - 1)
    pieces[::2] = texts
    return pieces


# a CSV row template: the "r,phi," text, the z slot, then "," and a slot for
# each of the 12 component parts, and the row's end
_CSV_ROW = [None, None, *[",", None] * 12, "\n"]
_CSV_WIDTH = len(_CSV_ROW)


def _csv_rows(template: list, columns, z_texts: list[str]) -> list[str]:
    """The CSV text, rows ended by "\\n", of each z-plane of a run of planes
    that share their 12 component column texts. `template` is the rows of
    one plane, each laid out as `_CSV_ROW` with its "r,phi," text in place:
    the columns fill its part slots by slice assignment. A single plane
    fills its z slot too and is one join. A longer run joins the rows once
    with a mark in the z slots and splits the text there: each plane is
    those pieces joined by its z value."""
    for k, column in enumerate(columns):
        template[3 + 2 * k::_CSV_WIDTH] = column
    rows = len(template) // _CSV_WIDTH
    if len(z_texts) == 1:
        template[1::_CSV_WIDTH] = [z_texts[0]] * rows
        return ["".join(template)]
    template[1::_CSV_WIDTH] = ["\0"] * rows  # a mark that no number's text holds
    pieces = "".join(template).split("\0")
    return [z.join(pieces) for z in z_texts]


def export_grid(grid: FieldGrid, format: str) -> str:
    """Serialize a grid to a CSV or JSON document string.

    CSV rows run z-major, then phi, then r, under the fixed header
    `CSV_COLUMNS`. The JSON document stores the same samples (flat arrays in
    the same order) and round-trips bitwise through `load_grid_json`. Both
    take their numbers from the grid's `_export_texts`, made on its first
    export and kept, since its arrays are read-only: the JSON items text of
    each z-plane of each component part (the real or imaginary half of a
    component), where a part bitwise equal to the same part of the plane
    before, or to its mirror plane, reuses that plane's text, and a part
    bitwise equal to its mirror with every sign bit flipped (and no NaN,
    which json writes without its sign) takes the mirror's text with its
    signs toggled. Within a part formatted anew the phi-rows follow the
    same mirror rule, row n_phi - 1 - j against row j, and the other rows
    are formatted in one json.dumps. The CSV splits a part's text into
    its column once per run of planes that share it and fills the columns
    into one row template per export, so each plane is one join of that
    template, and a run of planes whose parts all repeat joins its rows
    once and each further plane is one join of its z value. Either document
    is one join of its pieces: the CSV's planes, and the JSON's head,
    array leads and plane texts, so no part of it is copied twice.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    texts = grid._export_texts
    if format == "csv":
        # the (r, phi) text of a row is the same in every z-plane: join it
        # once, phi-major like the rows, into the one row template
        r_text = list(map(repr, grid.r.tolist()))
        template = _CSV_ROW * (len(r_text) * len(grid.phi))
        template[::_CSV_WIDTH] = [f"{r},{phi}," for phi in map(repr, grid.phi.tolist())
                                  for r in r_text]
        lines = [",".join(CSV_COLUMNS) + "\n"]
        z_texts = list(map(repr, grid.z.tolist()))
        # a run of planes starts at each plane with a part whose text is
        # not the one of the plane before
        starts = [iz for iz in range(len(z_texts))
                  if iz == 0 or any(part[iz] is not part[iz - 1] for part in texts)]
        columns = []
        for start, stop in zip(starts, [*starts[1:], len(z_texts)]):
            # a part whose text goes on from the run before keeps its column
            columns = [columns[k] if start and part[start] is part[start - 1]
                       else _csv_column(part[start])
                       for k, part in enumerate(texts)]
            lines.extend(_csv_rows(template, columns, z_texts[start:stop]))
        del template, columns  # not held while the document is joined
        return "".join(lines)
    mode = grid.mode
    head = json.dumps({
        "geometry": {
            "radius_m": grid.geometry.a,
            "height_m": grid.geometry.h,
            "sector_rad": grid.geometry.phi0,
            "eps_r": grid.geometry.eps_r,
        },
        "mode": {
            "family": mode.family.value,
            "v": mode.v,
            "n": mode.n,
            "p": mode.p,
            "m": mode.m,
        },
        "shape": list(grid.shape),
        "amplitude": grid.amplitude,
        "axes": {
            "r_m": grid.r.tolist(),
            "phi_rad": grid.phi.tolist(),
            "z_m": grid.z.tolist(),
        },
    })
    # the components go last, as json.dumps(doc) would place them, in the
    # layout `_read_export` reads back, flat and z-major to match the CSV (an
    # empty plane has no items); the one join copies each plane's text into
    # the document
    pieces = [head[:-1], _HEAD_END]
    for name, real, imag in zip(_COMPONENT_NAMES, texts[::2], texts[1::2]):
        pieces += [f'"{name}": {{"re": [', *_separated(real),
                   '], "im": [', *_separated(imag), "]}", ", "]
    pieces[-1] = "}}"  # close "components" and the document
    return "".join(pieces)


def load_grid_json(doc: str) -> FieldGrid:
    """Rebuild a FieldGrid from its JSON document, bitwise identical.

    A document in the layout `export_grid` writes is read by `_read_export`,
    which parses only the planes of each component "re" or "im" array that
    repeat no other (one plane of every array of a p = 0 mode, one of each
    mirror pair of a p >= 1 `sample_grid`), and within those only the
    phi-rows that mirror no other (one of each mirror pair of a derived
    m >= 1 `sample_grid`), by comparing their texts; the document's mode
    decides nothing. json.loads reads any other document whole. Either way
    the grid is the one json.loads would give. A
    document that is not an object, lacks a key, holds a non-numeric or
    boolean geometry or mode number, an amplitude that is not a positive
    finite number, axes that do not match its shape, or a component "re" or
    "im" array of another length than n_r * n_phi * n_z or with an item that
    is not a number (null, a string), raises ValueError. Booleans in such an
    array load as 1.0 and 0.0, as float() reads them.
    """
    data = _read_export(doc) if isinstance(doc, str) else None
    if data is None:
        data = json_object(doc, "field grid document")
    try:
        return _grid_from_document(data)
    except KeyError as exc:
        raise ValueError(f"field grid document is missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"field grid document holds a malformed value: {exc}") from None


# where the head of an `export_grid` document ends and its components begin
_HEAD_END = ', "components": {'


def _read_export(doc: str) -> dict | None:
    """json.loads(doc), with each component read into one complex array of
    shape (n_z, n_phi, n_r), for a document that is the head, with a shape
    of three positive integers, then the six components in the layout and
    order `export_grid` writes them, each "re" and "im" array one that
    `_read_planes` reads, then JSON whitespace; None for any other text. A
    head that json reads as a nonempty object once closed with "}" ends at
    depth 1 outside any string, and `_HEAD_END` cannot sit inside a string
    (its '"' would close it), so the components are the document's last
    member, and their text is checked byte for byte."""
    cut = doc.find(_HEAD_END)
    if cut < 0:
        return None
    try:
        data = json.loads(doc[:cut] + "}")
    except (ValueError, RecursionError):  # json's own reading decides
        return None
    shape = data.get("shape") if data else None  # "{" alone: no member
    # every item takes a character, so a larger grid is json's to refuse,
    # before its components are allocated
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(count) is int and count > 0 for count in shape)
            and math.prod(shape) <= len(doc)):
        return None
    n_r, n_phi, n_z = shape
    idx, components = cut + len(_HEAD_END), {}
    for name in _COMPONENT_NAMES:
        planes = components[name] = np.empty((n_z, n_phi, n_r), dtype=complex)
        for half, lead in (("real", f'"{name}": {{"re": ['), ("imag", ', "im": [')):
            start = idx + len(lead)
            close = doc.find("]", start)
            if (not doc.startswith(lead, idx) or close < 0
                    or not _read_planes(doc[start:close], getattr(planes, half))):
                return None
            idx = close + 1
        # "components" and the document close after the last one
        tail = "}}}" if name == _COMPONENT_NAMES[-1] else "}, "
        if not doc.startswith(tail, idx):
            return None
        idx += len(tail)
    if doc[idx:].strip(" \t\n\r"):
        return None
    data["components"] = components  # the last of duplicate keys wins
    return data


def _read_planes(text: str, out: np.ndarray) -> bool:
    """Fill `out`, n_z planes of n_phi rows of n_r floats, with what json
    reads from the array items text `text`, and return True; False, with
    `out` partly filled, unless the text holds no '"', '[', '{', l or r (no
    string, array, object, true, false or null) and json reads no integer
    in it, so that every comma falls between two floats. A text that is one
    plane's text joined n_z times by ", " (every array of a p = 0 mode, and
    any of n_z = 1) is read as that one plane. That plane, or any other
    text, must be ASCII, with one space after each comma as its only
    whitespace; every n_r-th comma then falls between rows. Planes, and the
    rows of each plane parsed, take their `_text_sources`: the values of
    the source, or their negation (each number is the mirror's with a "-"
    put in front or taken off; json reads "0" and "-0" alike, as the
    integer 0). The other rows are parsed in one json.loads."""
    n_z, n_phi, n_r = out.shape
    width, rest = divmod(len(text) - 2 * (n_z - 1), n_z)
    plane = text[:width]
    joined = ", " + plane
    # every later plane follows a ", " at its place: tested before any scan
    # of the whole text, which a p = 0 array would not need
    repeated = width > 0 and not rest and all(
        text.startswith(joined, at) for at in range(width, len(text), width + 2))
    checked = plane if repeated else text
    if not checked.isascii() or any(mark in checked for mark in '"[{lr'):
        return False
    data = np.frombuffer(checked.encode("ascii"), np.uint8)
    commas = np.flatnonzero(data == ord(","))
    # as many whitespace (or control) bytes as commas, one after each
    if (commas.size != (1 if repeated else n_z) * n_phi * n_r - 1
            or checked.endswith(",")
            or np.count_nonzero(data <= ord(" ")) != commas.size
            or not (data[commas + 1] == ord(" ")).all()):
        return False
    ends = commas[n_r - 1::n_r].tolist()
    begins, ends = [0, *(end + 2 for end in ends)], [*ends, len(checked)]
    planes = [plane] * n_z if repeated else [
        text[begins[k * n_phi]:ends[k * n_phi + n_phi - 1]] for k in range(n_z)]
    sources = _text_sources(planes, repeats=True)
    # each row of the planes parsed takes the values of a parsed row, as
    # they are or negated
    parsed = [k for k, source in enumerate(sources) if source is None]
    take, negate, texts = [], [], []
    for k in parsed:
        bounds = slice(k * n_phi, (k + 1) * n_phi)
        rows = [checked[begin:end]
                for begin, end in zip(begins[bounds], ends[bounds])]
        first = len(take)
        for row, source in zip(rows, _text_sources(rows)):
            if source is None:
                take.append(len(texts))
                negate.append(False)
                texts.append(row)
            else:
                take.append(take[first + source[0]])
                negate.append(source[1])
    try:
        items = json.loads("".join(["[", *_separated(texts), "]"]),
                           parse_int=_refuse_integer)
    except ValueError:
        return False
    if len(items) != len(texts) * n_r:
        return False
    values = np.reshape(array.array("d", items), (len(texts), n_r))[take]
    np.negative(values, out=values, where=np.array(negate)[:, None])
    out[parsed] = values.reshape(len(parsed), n_phi, n_r)
    for k, source in enumerate(sources):
        if source is not None:
            out[k] = -out[source[0]] if source[1] else out[source[0]]
    return True


def _text_sources(texts: list[str], repeats: bool = False) -> list:
    """_plane_sources of planes' or rows' texts by text equality: with the
    text before where they may repeat, with the mirror's text, and with the
    mirror's text `_toggled` where that holds no NaN."""
    return _plane_sources(
        len(texts), repeats and (lambda k: texts[k] == texts[k - 1]),
        lambda k: texts[k] == texts[-1 - k],
        lambda k: "N" not in texts[-1 - k] and texts[k] == _toggled(texts[-1 - k]))


def _refuse_integer(text: str):
    raise ValueError(f"integer item {text}")


def _grid_from_document(data: dict) -> FieldGrid:
    geo = data["geometry"]
    geom = SectorGeometry(a=geo["radius_m"], h=geo["height_m"],
                          phi0=geo["sector_rad"], eps_r=geo["eps_r"])
    md = data["mode"]
    mode = ModeSpec(family=ModeFamily(md["family"]), v=md["v"], n=md["n"],
                    p=md["p"], m=md["m"])
    amplitude = check_real(data["amplitude"], "amplitude")
    n_r, n_phi, n_z = data["shape"]
    r, phi, z = (np.array(data["axes"][key], dtype=float)
                 for key in ("r_m", "phi_rad", "z_m"))
    if (len(r), len(phi), len(z)) != (n_r, n_phi, n_z):
        raise ValueError(f"field grid axes hold {len(r)}, {len(phi)} and "
                         f"{len(z)} values, but the shape is {data['shape']}")
    arrays = []
    for name in _COMPONENT_NAMES:
        comp = data["components"][name]
        if not isinstance(comp, np.ndarray):  # as json.loads reads it
            parts = []
            for key in ("re", "im"):
                part = comp[key]
                if isinstance(part, list):
                    # array("d") takes the JSON numbers and booleans, and
                    # raises TypeError at a null or a string, which numpy's
                    # float conversion would read as nan or as the number
                    part = np.frombuffer(array.array("d", part))
                # numpy would broadcast [0.5] or 7; the length is checked
                # before a component of the document's shape is allocated
                part = np.asarray(part, dtype=float)
                if part.shape != (n_r * n_phi * n_z,):
                    raise ValueError(
                        f"field grid component {name!r} {key!r} holds "
                        f"{part.size} values, but the shape is {data['shape']}")
                parts.append(part)
            # filling the parts keeps -0.0; re + 1j * im would turn it into +0.0
            comp = np.empty(n_r * n_phi * n_z, dtype=complex)
            comp.real, comp.imag = parts
        arrays.append(comp.reshape(n_z, n_phi, n_r).transpose(2, 1, 0))
    return FieldGrid(geom, mode, r, phi, z, *arrays, amplitude=amplitude)

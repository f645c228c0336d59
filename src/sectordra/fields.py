"""Vector field distributions of sector DRA modes, grid sampling, export.

With the face and cap conditions applied (B = 0, F = 0) and the product
amplitude A E set to 1, the surviving components in cylindrical coordinates
(e^{+j omega t} phasors) are

    H_z   =            J_v(k_r r) cos(v phi) cos(k_z z)
    E_r   =  j w u v / k_r^2 * J_v(k_r r)/r  * sin(v phi) cos(k_z z)
    E_phi =  j w u   / k_r^2 * k_r r J_v'(k_r r) cos(v phi) cos(k_z z)
    H_r   = -j k_z   / k_r^2 * k_r r J_v'(k_r r) cos(v phi) cos(k_z z)
    H_phi =  j k_z v / k_r^2 * J_v(k_r r)/r  * sin(v phi) cos(k_z z)
    E_z   =  0

with w = 2 pi f the mode's angular frequency and u the vacuum permeability.
On the axis the 1/r factors are taken through their analytic limits
(J_v(x)/x -> 1/2 for v = 1, -> 0 for v > 1; the v = 0 terms carry a factor
v and vanish outright). For 0 < v < 1 the limit diverges, which is the real
edge singularity of reentrant sectors, and evaluation at r = 0 is refused.

Grids are sampled on uniform nodes with endpoints included and rescaled so
the largest |H_z| equals the requested amplitude (1 by default).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import is_index, json_object
from .modal import (
    MU_0,
    ModeFamily,
    ModeSpec,
    SectorGeometry,
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
    "write_grid",
    "load_grid_json",
    "CSV_COLUMNS",
]

CSV_COLUMNS = (
    "r_m", "phi_rad", "z_m",
    "Er_re", "Er_im", "Ephi_re", "Ephi_im", "Ez_re", "Ez_im",
    "Hr_re", "Hr_im", "Hphi_re", "Hphi_im", "Hz_re", "Hz_im",
)

_COMPONENT_NAMES = ("Er", "Ephi", "Ez", "Hr", "Hphi", "Hz")
# nodes per grid (n_r * n_phi * n_z). At 64^3 on a 2-vCPU VM, with 87 MB of
# process peak before the export: CSV 0.3 s and 176 MB peak at p = 0, 2.0 s
# and 196 MB at p = 1; JSON 0.2 s and 147 MB at p = 0, 1.5-1.8 s and 167 MB
# at p = 1
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


def _vj_over_r(v: float, k_r: float, r: float) -> float:
    """v * J_v(k_r r) / r with the analytic limit on the axis."""
    if r > 0.0:
        return v * bessel_j(v, k_r * r) / r
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return k_r * 0.5
    if v > 1.0:
        return 0.0
    raise ValueError(
        f"field diverges on the axis for azimuthal order 0 < v < 1 (v={v}); "
        "evaluate at r > 0")


def _r_jprime(v: float, k_r: float, r: float) -> float:
    """k_r r * J_v'(k_r r); zero on the axis for every order."""
    if r == 0.0:
        return 0.0
    return k_r * r * bessel_j_prime(v, k_r * r)


def field_at(geom: SectorGeometry, mode: ModeSpec, point: CylPoint) -> FieldSample:
    """Field components of a mode at one in-domain point.

    Args:
        geom: sector geometry.
        mode: mode whose wavenumbers are computable on that geometry.
        point: cylindrical point with 0 <= r <= a, 0 <= phi <= phi0,
            0 <= z <= h.

    Returns:
        FieldSample on the A E = 1 scale (no grid normalization).
    """
    if not (0.0 <= point.r <= geom.a):
        raise ValueError(f"point r={point.r} outside [0, {geom.a}]")
    if not (0.0 <= point.phi <= geom.phi0):
        raise ValueError(f"point phi={point.phi} outside [0, {geom.phi0}]")
    if not (0.0 <= point.z <= geom.h):
        raise ValueError(f"point z={point.z} outside [0, {geom.h}]")
    wn = wavenumbers(geom, mode)
    omega = 2.0 * math.pi * resonant_frequency(geom, mode)
    v = mode.v
    kr2 = wn.k_r * wn.k_r
    cos_v = math.cos(v * point.phi)
    sin_v = math.sin(v * point.phi)
    cos_z = math.cos(wn.k_z * point.z)
    jv = bessel_j(v, wn.k_r * point.r)
    vj_r = _vj_over_r(v, wn.k_r, point.r)
    rjp = _r_jprime(v, wn.k_r, point.r)
    return FieldSample(
        at=point,
        E_r=1j * omega * MU_0 / kr2 * vj_r * sin_v * cos_z,
        E_phi=1j * omega * MU_0 / kr2 * rjp * cos_v * cos_z,
        E_z=0.0 + 0.0j,
        H_r=-1j * wn.k_z / kr2 * rjp * cos_v * cos_z,
        H_phi=1j * wn.k_z / kr2 * vj_r * sin_v * cos_z,
        H_z=complex(jv * cos_v * cos_z),
    )


@dataclass(frozen=True)
class FieldGrid:
    """Dense field samples on a uniform (r, phi, z) grid, endpoints included.

    Component arrays are complex with shape (n_r, n_phi, n_z) and are scaled
    so that max |H_z| equals `amplitude`.
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

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.r), len(self.phi), len(self.z))

    @property
    def n_samples(self) -> int:
        nr, nphi, nz = self.shape
        return nr * nphi * nz

    def sample(self, ir: int, iphi: int, iz: int) -> FieldSample:
        """The stored sample at one grid node."""
        point = CylPoint(float(self.r[ir]), float(self.phi[iphi]), float(self.z[iz]))
        return FieldSample(
            at=point,
            E_r=complex(self.E_r[ir, iphi, iz]),
            E_phi=complex(self.E_phi[ir, iphi, iz]),
            E_z=complex(self.E_z[ir, iphi, iz]),
            H_r=complex(self.H_r[ir, iphi, iz]),
            H_phi=complex(self.H_phi[ir, iphi, iz]),
            H_z=complex(self.H_z[ir, iphi, iz]),
        )


def _validate_counts(mode: ModeSpec, n_r: int, n_phi: int, n_z: int) -> None:
    for name, count in (("n_r", n_r), ("n_phi", n_phi), ("n_z", n_z)):
        if not is_index(count, 1):
            raise ValueError(f"{name} must be a positive integer, got {count}")
    if n_r < 2 or n_phi < 2:
        raise ValueError("need at least 2 nodes along r and phi")
    if n_r * n_phi * n_z > _MAX_NODES:
        raise ValueError(f"grid of {n_r} x {n_phi} x {n_z} nodes exceeds "
                         f"the cap of {_MAX_NODES}")
    if n_z < 2 and not (n_z == 1 and mode.p == 0):
        raise ValueError("n_z = 1 is only allowed for p = 0 modes")


def _check_amplitude(amplitude) -> None:
    if isinstance(amplitude, bool) or not (amplitude > 0.0
                                           and math.isfinite(amplitude)):
        raise ValueError(f"amplitude must be positive, got {amplitude!r}")


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
    _validate_counts(mode, n_r, n_phi, n_z)
    _check_amplitude(amplitude)
    wn = wavenumbers(geom, mode)
    omega = 2.0 * math.pi * resonant_frequency(geom, mode)
    v = mode.v
    kr2 = wn.k_r * wn.k_r

    r = np.linspace(0.0, geom.a, n_r)
    phi = np.linspace(0.0, geom.phi0, n_phi)
    z = np.linspace(0.0, geom.h, n_z) if n_z > 1 else np.zeros(1)

    jv = np.array([bessel_j(v, wn.k_r * ri) for ri in r])
    vj_r = np.array([_vj_over_r(v, wn.k_r, ri) for ri in r])
    rjp = np.array([_r_jprime(v, wn.k_r, ri) for ri in r])
    cos_v = np.cos(v * phi)
    sin_v = np.sin(v * phi)
    cos_z = np.cos(wn.k_z * z)

    def outer(radial: np.ndarray, azim: np.ndarray) -> np.ndarray:
        return radial[:, None, None] * azim[None, :, None] * cos_z[None, None, :]

    h_z = outer(jv, cos_v)
    peak = float(np.max(np.abs(h_z)))
    if not (peak > 0.0 and math.isfinite(peak)):
        raise ValueError("grid H_z vanishes everywhere; cannot normalize "
                         "(all radial nodes sit on zeros of J_v)")
    scale = amplitude / peak

    with np.errstate(over="ignore", invalid="ignore"):
        e_r = 1j * omega * MU_0 / kr2 * scale * outer(vj_r, sin_v)
        e_phi = 1j * omega * MU_0 / kr2 * scale * outer(rjp, cos_v)
        h_r = -1j * wn.k_z / kr2 * scale * outer(rjp, cos_v)
        h_phi = 1j * wn.k_z / kr2 * scale * outer(vj_r, sin_v)
    if not all(np.isfinite(comp).all() for comp in (e_r, e_phi, h_r, h_phi)):
        raise ValueError(f"field components overflow at amplitude {amplitude}")
    return FieldGrid(
        geometry=geom,
        mode=mode,
        r=r,
        phi=phi,
        z=z,
        E_r=e_r,
        E_phi=e_phi,
        E_z=np.zeros_like(e_r),
        H_r=h_r.astype(complex),
        H_phi=h_phi,
        H_z=(scale * h_z).astype(complex),
        amplitude=amplitude,
    )


def boundary_residuals(geom: SectorGeometry, mode: ModeSpec,
                       resolution: int = 16) -> BoundaryResiduals:
    """Measure how well a mode satisfies the cavity walls.

    Samples `resolution` nodes per axis on each boundary surface and returns
    supremum norms of the tangential electric field on the flat faces, H_phi
    on the curved wall, and the axial H_z derivative on the caps. Derived-v
    modes satisfy all three analytically; an explicit odd order on a quarter
    sector leaves a face residual, which is reported as is.
    """
    if not is_index(resolution, 8):
        raise ValueError(f"resolution must be an integer >= 8, got {resolution}")
    wn = wavenumbers(geom, mode)
    omega = 2.0 * math.pi * resonant_frequency(geom, mode)
    v = mode.v
    kr2 = wn.k_r * wn.k_r

    r = np.linspace(0.0, geom.a, resolution)
    phi = np.linspace(0.0, geom.phi0, resolution)
    z = np.linspace(0.0, geom.h, resolution)
    vj_r = np.array([_vj_over_r(v, wn.k_r, ri) for ri in r])
    jv = np.array([bessel_j(v, wn.k_r * ri) for ri in r])
    cos_z = np.cos(wn.k_z * z)

    # flat faces phi = 0 and phi = phi0: tangential E is (E_r, E_z), E_z = 0
    face = 0.0
    for phi_face in (0.0, geom.phi0):
        sin_v = math.sin(v * phi_face)
        e_r = omega * MU_0 / kr2 * np.abs(vj_r[:, None] * sin_v * cos_z[None, :])
        face = max(face, float(e_r.max()))

    # curved wall r = a
    vj_a = v * bessel_j(v, wn.k_r * geom.a) / geom.a
    h_phi = wn.k_z / kr2 * np.abs(vj_a * np.sin(v * phi)[:, None] * cos_z[None, :])
    arc = float(h_phi.max())

    # caps z = 0 and z = h: dH_z/dz = -k_z J_v cos(v phi) sin(k_z z)
    cap = 0.0
    for z_face in (0.0, geom.h):
        dz = wn.k_z * abs(math.sin(wn.k_z * z_face))
        grad = dz * np.abs(jv[:, None] * np.cos(v * phi)[None, :])
        cap = max(cap, float(grad.max()))

    return BoundaryResiduals(face_e_tangential=face, arc_h_phi=arc, cap_dhz_dz=cap)


def _csv_column(part: np.ndarray) -> list[str]:
    """repr() of every float in `part`; a part with no nonzero entry (E_z,
    and the real or imaginary half of a purely imaginary or real component)
    only needs the sign of each zero. NaN counts as nonzero."""
    if np.count_nonzero(part):
        return list(map(repr, part.tolist()))
    return list(map(("0.0", "-0.0").__getitem__, np.signbit(part).tolist()))


def _json_items(part: np.ndarray) -> str:
    """The items of json.dumps(part.tolist()), without the brackets."""
    return json.dumps(part.tolist())[1:-1]


def _plane_texts(comp: np.ndarray, half: str, fmt):
    """fmt of the real or imaginary `half` of each z-plane of a component,
    flattened phi-major. A plane bitwise equal to the one before it reuses
    that plane's text: every plane of a p = 0 mode is the same, since its
    fields do not vary along z."""
    last_key = last_text = None
    for iz in range(comp.shape[2]):
        part = getattr(comp[:, :, iz].T.ravel(), half)
        key = part.tobytes()
        if key != last_key:
            last_key, last_text = key, fmt(part)
        yield last_text


def export_grid(grid: FieldGrid, format: str) -> str:
    """Serialize a grid to a CSV or JSON document string.

    CSV rows run z-major, then phi, then r, under the fixed header
    `CSV_COLUMNS`. The JSON document stores the same samples (flat arrays in
    the same order) and round-trips bitwise through `load_grid_json`. Both
    format one z-plane at a time and format a repeated plane only once.
    """
    comps = (grid.E_r, grid.E_phi, grid.E_z, grid.H_r, grid.H_phi, grid.H_z)
    if format == "csv":
        # the (r, phi) text of a row is the same in every z-plane: join it
        # once, phi-major like the rows
        r_text = list(map(repr, grid.r.tolist()))
        r_phi = [f"{r},{phi}" for phi in map(repr, grid.phi.tolist())
                 for r in r_text]
        lines = [",".join(CSV_COLUMNS)]
        # one z-plane at a time, column by column: zip() assembles the rows
        parts = [_plane_texts(comp, half, _csv_column)
                 for comp in comps for half in ("real", "imag")]
        for z, *columns in zip(grid.z.tolist(), *parts):
            lines.extend(map(",".join,
                             zip(r_phi, itertools.repeat(repr(z)), *columns)))
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)
    if format == "json":
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

        def array(comp: np.ndarray, half: str) -> str:
            # flat and z-major to match the CSV; an empty plane has no items
            planes = _plane_texts(comp, half, _json_items)
            return "[" + ", ".join(filter(None, planes)) + "]"

        # the components go last, as json.dumps(doc) would place them
        body = ", ".join(f'"{name}": {{"re": {array(comp, "real")}, '
                         f'"im": {array(comp, "imag")}}}'
                         for name, comp in zip(_COMPONENT_NAMES, comps))
        return f'{head[:-1]}, "components": {{{body}}}}}'
    raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def write_grid(grid: FieldGrid, path: str, format: str) -> None:
    """Export a grid to a file; I/O errors carry the path."""
    doc = export_grid(grid, format)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        raise OSError(f"cannot write grid to {path!r}: {exc}") from exc


def load_grid_json(doc: str) -> FieldGrid:
    """Rebuild a FieldGrid from its JSON document, bitwise identical.

    The document is read as json.loads would read it, with one shortcut:
    a component's "re" or "im" array whose text is one z-plane's text
    repeated, as `export_grid` writes every plane of a p = 0 mode, is
    parsed once and tiled. A document that is not an object, lacks a key,
    holds a non-numeric or boolean geometry or mode number, an amplitude
    that is not a positive finite number, or axes that do not match its
    shape raises ValueError.
    """
    if isinstance(doc, str) and doc.startswith("{", _WS(doc).end()):
        try:
            data = _read_document(doc)
        except RecursionError:  # json's own depth limit decides
            data = json_object(doc, "field grid document")
    else:  # not an object: json's own reading and messages
        data = json_object(doc, "field grid document")
    try:
        return _grid_from_document(data)
    except KeyError as exc:
        raise ValueError(f"field grid document is missing key {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"field grid document holds a malformed value: {exc}") from None


_WS = json.decoder.WHITESPACE.match
_DECODER = json.JSONDecoder()


def _scan_object(doc: str, idx: int, read) -> tuple[dict, int]:
    """The JSON object that opens at doc[idx], as json would scan it (the
    last of duplicate keys wins), and the index past it. read(key, i)
    returns the value at doc[i] and the index past that value."""
    members = {}
    idx = _WS(doc, idx + 1).end()
    if doc.startswith("}", idx):
        return members, idx + 1
    while True:
        if not doc.startswith('"', idx):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", doc, idx)
        key, idx = json.decoder.scanstring(doc, idx + 1)
        idx = _WS(doc, idx).end()
        if not doc.startswith(":", idx):
            raise json.JSONDecodeError("Expecting ':' delimiter", doc, idx)
        members[key], idx = read(key, _WS(doc, idx + 1).end())
        idx = _WS(doc, idx).end()
        if doc.startswith("}", idx):
            return members, idx + 1
        if not doc.startswith(",", idx):
            raise json.JSONDecodeError("Expecting ',' delimiter", doc, idx)
        idx = _WS(doc, idx + 1).end()


def _read_document(doc: str) -> dict:
    """json.loads(doc) for a document that opens an object, except that
    `_read_part` reads the "re" and "im" arrays under "components" with
    the "shape" seen before them."""
    shape = None

    def top(key: str, idx: int):
        nonlocal shape
        if key == "components" and doc.startswith("{", idx):
            return _scan_object(doc, idx, component)
        value, end = _DECODER.raw_decode(doc, idx)
        if key == "shape":
            shape = value
        return value, end

    def component(key: str, idx: int):
        if doc.startswith("{", idx):
            return _scan_object(doc, idx, part)
        return _DECODER.raw_decode(doc, idx)

    def part(key: str, idx: int):
        if key in ("re", "im"):
            return _read_part(doc, idx, shape)
        return _DECODER.raw_decode(doc, idx)

    data, end = _scan_object(doc, _WS(doc).end(), top)
    end = _WS(doc, end).end()
    if end != len(doc):
        raise json.JSONDecodeError("Extra data", doc, end)
    return data


def _read_part(doc: str, idx: int, shape) -> tuple[object, int]:
    """The array at doc[idx] and the index past it. When its text is one
    plane's text joined n_z times by ", ", that plane is parsed once and
    tiled. A plane with no '"' or '[' holds no string or nested array, so
    every ", " in the array text falls between elements, and the tiled
    plane is what json would read. Any other value is json's."""
    if (doc.startswith("[", idx) and isinstance(shape, list)
            and len(shape) == 3
            and all(type(count) is int and count > 0 for count in shape)):
        n_r, n_phi, n_z = shape
        close = doc.find("]", idx)
        width, rest = divmod(close - idx - 1 - 2 * (n_z - 1), n_z)
        plane = doc[idx + 1:idx + 1 + width] if width > 0 and not rest else ""
        if (plane and '"' not in plane and "[" not in plane
                and doc.startswith(", ".join(itertools.repeat(plane, n_z)),
                                   idx + 1)):
            values = _plane_values(plane, n_r * n_phi)
            if values is not None:
                return np.tile(values, n_z), close + 1
    return _DECODER.raw_decode(doc, idx)


def _plane_values(text: str, size: int) -> np.ndarray | None:
    """The floats of one plane's array items, or None unless `text` holds
    exactly `size` of them and nothing else."""
    try:
        values = json.loads(f"[{text}]")
    except ValueError:
        return None
    if len(values) != size or not all(type(x) is float for x in values):
        return None
    return np.array(values)


def _number(section: dict, key: str):
    """section[key], refusing a JSON true or false where a number belongs
    (Python takes a bool for the integer 0 or 1)."""
    value = section[key]
    if isinstance(value, bool):
        raise ValueError(f"field grid document key {key!r} must be a number, "
                         f"got {value!r}")
    return value


def _grid_from_document(data: dict) -> FieldGrid:
    geo = data["geometry"]
    geom = SectorGeometry(a=_number(geo, "radius_m"), h=_number(geo, "height_m"),
                          phi0=_number(geo, "sector_rad"),
                          eps_r=_number(geo, "eps_r"))
    md = data["mode"]
    mode = ModeSpec(family=ModeFamily(md["family"]), v=_number(md, "v"),
                    n=_number(md, "n"), p=_number(md, "p"), m=_number(md, "m"))
    amplitude = data["amplitude"]
    _check_amplitude(amplitude)
    n_r, n_phi, n_z = data["shape"]
    r, phi, z = (np.array(data["axes"][key], dtype=float)
                 for key in ("r_m", "phi_rad", "z_m"))
    if (len(r), len(phi), len(z)) != (n_r, n_phi, n_z):
        raise ValueError(f"field grid axes hold {len(r)}, {len(phi)} and "
                         f"{len(z)} values, but the shape is {data['shape']}")
    arrays = {}
    for name in _COMPONENT_NAMES:
        comp = data["components"][name]
        # filling the parts keeps -0.0; re + 1j * im would turn it into +0.0
        flat = np.empty(len(comp["re"]), dtype=complex)
        flat.real = comp["re"]
        flat.imag = comp["im"]
        arrays[name] = flat.reshape(n_z, n_phi, n_r).transpose(2, 1, 0)
    return FieldGrid(
        geometry=geom,
        mode=mode,
        r=r,
        phi=phi,
        z=z,
        E_r=arrays["Er"],
        E_phi=arrays["Ephi"],
        E_z=arrays["Ez"],
        H_r=arrays["Hr"],
        H_phi=arrays["Hphi"],
        H_z=arrays["Hz"],
        amplitude=amplitude,
    )

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
the largest |H_z| equals the requested amplitude (1 by default).
"""

from __future__ import annotations

import array
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
# nodes per grid (n_r * n_phi * n_z). At 64^3 on a 2-vCPU VM, with 87 MB of
# process peak before the export, a grid's first export: CSV 0.1 s and
# 163 MB peak at p = 0, 2.2 s and 241 MB at p = 1; JSON 0.1 s and 134 MB at
# p = 0, 1.1-1.8 s and 196 MB at p = 1. The second export of the grid reuses
# its number texts: JSON after CSV takes 0.1 s at p = 1
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
                phi: np.ndarray, z: np.ndarray,
                amplitude: float | None = None) -> tuple[np.ndarray, ...]:
    """(E_r, E_phi, E_z, H_r, H_phi, H_z) on the outer product of the node
    arrays r, phi and z: complex arrays of shape (len(r), len(phi), len(z)).

    The scale is A E = 1, or with an amplitude, such that max |H_z| over
    the nodes equals it. Nodes on the axis (r = 0) take the limits of the
    module docstring; for 0 < v < 1 they raise ValueError. A component that
    overflows is returned as inf or NaN, for the caller to check.
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
    vj_r = np.where(on_axis, axis, v * jv / r_off)
    kjp = np.where(on_axis, axis, wn.k_r * bessel_j_prime(v, wn.k_r * r_off))
    cos_v = np.cos(v * phi)
    sin_v = np.sin(v * phi)
    cos_z = np.cos(wn.k_z * z)
    sin_z = np.sin(wn.k_z * z)

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

    with np.errstate(over="ignore", invalid="ignore"):
        e_r = 1j * omega * MU_0 / kr2 * scale * outer(vj_r, sin_v)
        e_phi = 1j * omega * MU_0 / kr2 * scale * outer(kjp, cos_v)
        h_r = -wn.k_z / kr2 * scale * outer(kjp, cos_v, sin_z)
        h_phi = wn.k_z / kr2 * scale * outer(vj_r, sin_v, sin_z)
        return (e_r, e_phi, np.zeros_like(e_r), h_r.astype(complex),
                h_phi.astype(complex), (scale * h_z).astype(complex))


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
    for name, top in (("r", geom.a), ("phi", geom.phi0), ("z", geom.h)):
        if not (0.0 <= getattr(point, name) <= top):
            raise ValueError(f"point {name}={getattr(point, name)} outside [0, {top}]")
    comps = _components(geom, mode, *(np.array([value], dtype=float)
                                      for value in (point.r, point.phi, point.z)))
    return FieldSample(point, *(complex(comp[0, 0, 0]) for comp in comps))


@dataclass(frozen=True)
class FieldGrid:
    """Dense field samples on a uniform (r, phi, z) grid, endpoints included.

    Component arrays are complex with shape (n_r, n_phi, n_z) and are scaled
    so that max |H_z| equals `amplitude`. `export_grid` keeps the number
    text of the components on the grid, for as long as they stay bitwise
    unchanged.
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

    def sample(self, ir: int, iphi: int, iz: int) -> FieldSample:
        """The stored sample at one grid node."""
        point = CylPoint(float(self.r[ir]), float(self.phi[iphi]), float(self.z[iz]))
        return FieldSample(point, *(complex(getattr(self, name)[ir, iphi, iz])
                                    for name in _FIELDS))


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
    r = np.linspace(0.0, geom.a, n_r)
    phi = np.linspace(0.0, geom.phi0, n_phi)
    z = np.linspace(0.0, geom.h, n_z) if n_z > 1 else np.zeros(1)
    comps = _components(geom, mode, r, phi, z, amplitude)
    if not all(np.isfinite(comp).all() for comp in comps):
        raise ValueError(f"field components overflow at amplitude {amplitude}")
    return FieldGrid(geom, mode, r, phi, z, *comps, amplitude=amplitude)


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


def _json_items(part: np.ndarray) -> str:
    """The items of json.dumps(part.tolist()), without the brackets."""
    return json.dumps(part.tolist())[1:-1]


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
    """A component's (real, imaginary) pair of uint64 per node, whatever its
    strides: equal bits are what tobytes() compares, so -0.0 differs from
    0.0, and NaNs with equal payloads are equal."""
    return np.asarray(comp, dtype=complex).view(np.dtype((np.uint64, 2)))


def _repeats(bits: np.ndarray) -> list[list[bool]]:
    """For the real and for the imaginary half of a component's `_bits`:
    whether each z-plane is bitwise equal to the plane before it (never the
    first). Every plane of a p = 0 mode repeats, since its fields do not
    vary along z."""
    repeats = np.zeros((bits.shape[2], 2), dtype=bool)
    repeats[1:] = (bits[:, :, 1:] == bits[:, :, :-1]).all(axis=(0, 1))
    return repeats.T.tolist()


def _plane_texts(comp: np.ndarray, half: str, repeats: list[bool]) -> list[str]:
    """_json_items of the real or imaginary `half` of each z-plane of a
    component, flattened phi-major; where `repeats` says a plane is bitwise
    equal to the plane before, the text object of the plane before."""
    texts = []
    for iz, repeat in enumerate(repeats):
        if not repeat:
            text = _json_items(getattr(comp[:, :, iz].T.ravel(), half))
        texts.append(text)
    return texts


def _part_texts(grid: FieldGrid) -> list[list[str]]:
    """The JSON items text of each z-plane of the grid's 12 component parts
    (the real, then the imaginary half of each of `_FIELDS`), from which
    both exports take their numbers.

    The texts are kept on the grid with a snapshot of its components, and
    reused while the components still match it in shape and bits, so an
    in-place edit shows in the next export. The snapshot holds each part's
    `_repeats` flags and the bits of every plane that does not repeat the
    plane before in both parts; the flags give the bits of the others.
    Neither is a dataclass field, so a `dataclasses.replace` copy starts
    without them."""
    comps = [getattr(grid, name) for name in _FIELDS]
    bits = list(map(_bits, comps))
    repeats = list(map(_repeats, bits))
    firsts = [comp_bits[:, :, ~np.logical_and(*flags)]  # a copy of the planes
              for comp_bits, flags in zip(bits, repeats)]
    kept = vars(grid).get("_export_texts")
    if (kept is not None and kept[0] == repeats
            and all(map(np.array_equal, firsts, kept[1]))):
        return kept[2]
    texts = [_plane_texts(comp, half, flags)
             for comp, comp_repeats in zip(comps, repeats)
             for half, flags in zip(("real", "imag"), comp_repeats)]
    # FieldGrid is frozen, and the snapshot and texts are no field of it
    object.__setattr__(grid, "_export_texts", (repeats, firsts, texts))
    return texts


def _csv_rows(r_phi: list[str], columns, z_texts: list[str]):
    """The CSV rows of a run of z-planes that share their 12 component
    column texts. A single plane takes one row-join pass. In a longer run
    row i reads r_phi[i] + "," + z + "," + tail[i], so the rows are split
    around z once, and each plane is one join of its z text."""
    if len(z_texts) == 1 or not r_phi:
        return map(",".join, zip(r_phi, itertools.repeat(z_texts[0]), *columns))
    tails = list(map(",".join, zip(*columns)))
    pieces = [f"{r_phi[0]},", *map(",{}\n{},".format, tails, r_phi[1:]),
              f",{tails[-1]}"]
    return [z.join(pieces) for z in z_texts]


def export_grid(grid: FieldGrid, format: str) -> str:
    """Serialize a grid to a CSV or JSON document string.

    CSV rows run z-major, then phi, then r, under the fixed header
    `CSV_COLUMNS`. The JSON document stores the same samples (flat arrays in
    the same order) and round-trips bitwise through `load_grid_json`. Both
    take their numbers from one formatting pass per grid, kept on the grid
    (`_part_texts`): the JSON items text of each z-plane of each component
    part (the real or imaginary half of a component), where a part bitwise
    equal to the same part of the plane before reuses its text. The CSV
    splits a part's text into its column once per run of planes that share
    it. A run of planes whose parts all repeat has its rows assembled once
    and each plane's text is one join of its z value; every other plane is
    assembled row by row.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    texts = _part_texts(grid)
    if format == "csv":
        # the (r, phi) text of a row is the same in every z-plane: join it
        # once, phi-major like the rows
        r_text = list(map(repr, grid.r.tolist()))
        r_phi = [f"{r},{phi}" for phi in map(repr, grid.phi.tolist())
                 for r in r_text]
        lines = [",".join(CSV_COLUMNS)]
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
            lines.extend(_csv_rows(r_phi, columns, z_texts[start:stop]))
        lines.append("")  # the final newline, without a second copy of the text
        return "\n".join(lines)
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
    # empty plane has no items); one join copies each array's items into
    # the document
    pieces = [head[:-1], ', "components": {']
    for name, real, imag in zip(_COMPONENT_NAMES, texts[::2], texts[1::2]):
        pieces += [f'"{name}": {{"re": [', ", ".join(filter(None, real)),
                   '], "im": [', ", ".join(filter(None, imag)), "]}", ", "]
    pieces[-1] = "}}"  # close "components" and the document
    return "".join(pieces)


def load_grid_json(doc: str) -> FieldGrid:
    """Rebuild a FieldGrid from its JSON document, bitwise identical.

    A document in the layout `export_grid` writes is read by `_read_export`,
    which parses a component's "re" or "im" array whose text is one
    z-plane's text repeated (every plane of a p = 0 mode) once and fills
    every plane from it; json.loads reads any other document. Either way
    the grid is the one json.loads would give. A document that is not an
    object, lacks a key, holds a non-numeric or boolean geometry or mode
    number, an amplitude that is not a positive finite number, axes that
    do not match its shape, or a component "re" or "im" array of another
    length than n_r * n_phi * n_z or with an item that is not a number
    (null, a string), raises ValueError. Booleans in such an array load as
    1.0 and 0.0, as float() reads them.
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


_DECODER = json.JSONDecoder()
# where the head of an `export_grid` document ends and its components begin
_HEAD_END = ', "components": {'


def _read_export(doc: str) -> dict | None:
    """json.loads(doc) for a document that is the head, then the six
    components in the layout and order `export_grid` writes them, then
    JSON whitespace; None for any other text. A head that json reads as a
    nonempty object once closed with "}" ends at depth 1 outside any
    string, and `_HEAD_END` cannot sit inside a string (its '"' would close
    it), so the components are the document's last member, and their text
    is checked byte for byte."""
    cut = doc.find(_HEAD_END)
    if cut < 0:
        return None
    try:
        data = json.loads(doc[:cut] + "}")
        if not data:  # "{" alone: the "," of _HEAD_END would follow no member
            return None
        shape = data.get("shape")
        idx, components = cut + len(_HEAD_END), {}
        for name in _COMPONENT_NAMES:
            comp = components[name] = {}
            for key, lead in (("re", f'"{name}": {{"re": ['), ("im", ', "im": [')):
                if not doc.startswith(lead, idx):
                    return None
                comp[key], idx = _read_part(doc, idx + len(lead), shape)
            # "components" and the document close after the last one
            tail = "}}}" if name == _COMPONENT_NAMES[-1] else "}, "
            if not doc.startswith(tail, idx):
                return None
            idx += len(tail)
    except (ValueError, RecursionError):  # json's own reading decides
        return None
    if doc[idx:].strip(" \t\n\r"):
        return None
    data["components"] = components  # the last of duplicate keys wins
    return data


def _read_part(doc: str, start: int, shape) -> tuple[object, int]:
    """The array whose items start at doc[start], after its "[", and the
    index past its "]". When its text is one plane's text joined n_z times
    by ", ", that plane is parsed once and returned broadcast to shape
    (n_z, n_r * n_phi), without a copy. A plane with no '"' or '[' holds no
    string or nested array, so every ", " in the array text falls between
    elements, and the repeated plane is what json would read. Any other
    array is json's."""
    if (isinstance(shape, list) and len(shape) == 3
            and all(type(count) is int and count > 0 for count in shape)):
        n_r, n_phi, n_z = shape
        close = doc.find("]", start)
        width, rest = divmod(close - start - 2 * (n_z - 1), n_z)
        plane = doc[start:start + width] if width > 0 and not rest else ""
        # every later plane follows a ", " at its place in the array text
        if (plane and '"' not in plane and "[" not in plane
                and all(doc.startswith(f", {plane}", at)
                        for at in range(start + width, close, width + 2))):
            values = _plane_values(plane, n_r * n_phi)
            if values is not None:
                return np.broadcast_to(values, (n_z, values.size)), close + 1
    return _DECODER.raw_decode(doc, start - 1)


def _plane_values(text: str, size: int) -> np.ndarray | None:
    """The floats of one plane's array items, or None unless `text` holds
    exactly `size` items and numpy reads them all as floats."""
    try:
        values = np.array(json.loads(f"[{text}]"))
    except ValueError:
        return None
    if values.shape != (size,) or values.dtype != float:
        return None
    return values


def _grid_from_document(data: dict) -> FieldGrid:
    geo = data["geometry"]
    geom = SectorGeometry(a=geo["radius_m"], h=geo["height_m"],
                          phi0=geo["sector_rad"], eps_r=geo["eps_r"])
    md = data["mode"]
    mode = ModeSpec(family=ModeFamily(md["family"]), v=md["v"], n=md["n"],
                    p=md["p"], m=md["m"])
    amplitude = data["amplitude"]
    _check_amplitude(amplitude)
    n_r, n_phi, n_z = data["shape"]
    r, phi, z = (np.array(data["axes"][key], dtype=float)
                 for key in ("r_m", "phi_rad", "z_m"))
    if (len(r), len(phi), len(z)) != (n_r, n_phi, n_z):
        raise ValueError(f"field grid axes hold {len(r)}, {len(phi)} and "
                         f"{len(z)} values, but the shape is {data['shape']}")
    arrays = []
    for name in _COMPONENT_NAMES:
        comp = data["components"][name]
        # filling the parts keeps -0.0; re + 1j * im would turn it into +0.0
        planes = np.empty((n_z, n_r * n_phi), dtype=complex)
        for half, key in (("real", "re"), ("imag", "im")):
            part = comp[key]
            if isinstance(part, list):
                # array("d") takes the JSON numbers and booleans, and raises
                # TypeError at a null or a string, which numpy's float
                # conversion would read as nan or as the number in it
                part = np.frombuffer(array.array("d", part))
            part = np.asarray(part, dtype=float)
            if part.shape == (planes.size,):
                part = part.reshape(planes.shape)
            # a repeated plane comes broadcast to planes.shape; numpy would
            # also broadcast [0.5] or 7
            if part.shape != planes.shape:
                raise ValueError(
                    f"field grid component {name!r} {key!r} holds "
                    f"{part.size} values, but the shape is {data['shape']}")
            setattr(planes, half, part)
        arrays.append(planes.reshape(n_z, n_phi, n_r).transpose(2, 1, 0))
    return FieldGrid(geom, mode, r, phi, z, *arrays, amplitude=amplitude)

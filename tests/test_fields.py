import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sectordra import (
    CylPoint,
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    boundary_residuals,
    export_grid,
    field_at,
    load_grid_json,
    sample_grid,
    wavenumbers,
)
from sectordra import fields
from sectordra.fields import CSV_COLUMNS

from oracles import helmholtz_residual, load_grid_json_reference


def _mode(v, n=1, p=0):
    return ModeSpec.explicit(ModeFamily.TE, v, n, p)


def test_ez_vanishes_everywhere(table1):
    grid = sample_grid(table1, _mode(2.0), 9, 9, 3)
    assert np.all(grid.E_z == 0)
    sample = field_at(table1, _mode(2.0), CylPoint(0.007, 0.5, 0.001))
    assert sample.E_z == 0


def test_normalization(table1):
    grid = sample_grid(table1, _mode(2.0), 17, 17, 5, amplitude=1.0)
    assert np.max(np.abs(grid.H_z)) == pytest.approx(1.0, rel=1e-14)
    scaled = sample_grid(table1, _mode(2.0), 17, 17, 5, amplitude=2.5)
    assert np.max(np.abs(scaled.H_z)) == pytest.approx(2.5, rel=1e-14)
    assert np.allclose(scaled.H_z, 2.5 * grid.H_z, rtol=1e-14, atol=0.0)
    assert np.allclose(scaled.E_phi, 2.5 * grid.E_phi, rtol=1e-14, atol=0.0)
    # True would pass as 1, and the JSON export would then write true
    with pytest.raises(ValueError, match="amplitude must be positive"):
        sample_grid(table1, _mode(2.0), 17, 17, 5, amplitude=True)


def test_grid_matches_pointwise_evaluation(table1):
    mode = _mode(2.0, 1, 1)
    grid = sample_grid(table1, mode, 7, 7, 5)
    # undo the grid normalization, then both routes express the same formula
    raw_peak = max(
        abs(field_at(table1, mode, CylPoint(float(r), float(p), float(z))).H_z)
        for r in grid.r for p in grid.phi for z in grid.z)
    scale = 1.0 / raw_peak
    for ir in (1, 3, 6):
        for iphi in (0, 2, 5):
            for iz in (0, 2, 4):
                point = CylPoint(float(grid.r[ir]), float(grid.phi[iphi]),
                                 float(grid.z[iz]))
                direct = field_at(table1, mode, point)
                stored = grid.sample(ir, iphi, iz)
                for name in ("E_r", "E_phi", "H_r", "H_phi", "H_z"):
                    assert getattr(stored, name) == pytest.approx(
                        getattr(direct, name) * scale, rel=1e-12, abs=1e-18)


def test_field_domain_validation(table1):
    mode = _mode(2.0)
    for bad in (CylPoint(-0.001, 0.5, 0.001),
                CylPoint(0.013, 0.5, 0.001),
                CylPoint(0.007, -0.1, 0.001),
                CylPoint(0.007, 2.0, 0.001),
                CylPoint(0.007, 0.5, -0.001),
                CylPoint(0.007, 0.5, 0.003)):
        with pytest.raises(ValueError):
            field_at(table1, mode, bad)


def test_axis_behavior(table1):
    # v = 0 and v > 1: all components finite on the axis, E_r limit is 0
    for v in (0.0, 2.0, 3.0):
        s = field_at(table1, _mode(v), CylPoint(0.0, 0.3, 0.0))
        assert math.isfinite(abs(s.H_z))
        assert s.E_r == 0
    # v = 1 keeps a finite nonzero transverse limit on the axis
    s1 = field_at(table1, ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0),
                  CylPoint(0.0, 0.3, 0.0))
    assert abs(s1.E_r) > 0
    near = field_at(table1, ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0),
                    CylPoint(1e-9, 0.3, 0.0))
    assert abs(s1.E_r) == pytest.approx(abs(near.E_r), rel=1e-6)
    # fractional orders below 1 have no finite axis value
    with pytest.raises(ValueError):
        field_at(table1, _mode(0.5), CylPoint(0.0, 0.3, 0.0))


def test_boundary_residuals_small(table1):
    for m in range(0, 4):
        for p in (0, 1):
            mode = ModeSpec.derived(ModeFamily.TE, m, 1, p, table1.phi0)
            res = boundary_residuals(table1, mode, resolution=16)
            assert res.face_e_tangential < 1e-9
            assert res.arc_h_phi < 1e-9
            assert res.cap_dhz_dz < 1e-9


def test_boundary_residual_resolution_validation(table1):
    with pytest.raises(ValueError):
        boundary_residuals(table1, _mode(2.0), resolution=4)


def test_helmholtz_residual_shrinks_with_refinement(table1):
    for mode in (_mode(2.0), ModeSpec.derived(ModeFamily.TE, 0, 1, 0,
                                              table1.phi0)):
        wn = wavenumbers(table1, mode)
        k_sq = wn.k_r ** 2 + wn.k_z ** 2
        res = []
        for nodes in (21, 41):
            grid = sample_grid(table1, mode, nodes, nodes, 1)
            res.append(helmholtz_residual(np.real(grid.H_z), grid.r,
                                          grid.phi, grid.z, k_sq))
        assert res[0] / res[1] >= 3.5


def test_grid_count_validation(table1):
    with pytest.raises(ValueError):
        sample_grid(table1, _mode(2.0), 1, 9, 3)
    with pytest.raises(ValueError):
        sample_grid(table1, _mode(2.0, 1, 1), 9, 9, 1)  # p = 1 needs z nodes
    # p = 0 modes may collapse the z axis
    grid = sample_grid(table1, _mode(2.0), 9, 9, 1)
    assert grid.shape == (9, 9, 1)
    # the node cap rejects before anything is allocated
    for shape in ((10 ** 6, 10 ** 6, 10 ** 6), (2, 2, 10 ** 400)):
        with pytest.raises(ValueError):
            sample_grid(table1, _mode(2.0, 1, 1), *shape)
    with pytest.raises(ValueError, match="exceeds the cap of 262144"):
        sample_grid(table1, _mode(2.0, 1, 1), 65, 64, 64)


def test_overflowing_grids_are_rejected(table1):
    # k_r^2 underflowed to zero (ZeroDivisionError), and an amplitude whose
    # components overflow to inf and NaN
    huge = SectorGeometry(a=1e297, h=table1.h, phi0=table1.phi0,
                          eps_r=table1.eps_r)
    with pytest.raises(ValueError, match="out of floating-point range"):
        sample_grid(huge, _mode(2.0), 3, 3, 1)
    with pytest.raises(ValueError, match=r"overflow at amplitude 1e\+308"):
        sample_grid(table1, _mode(2.0), 3, 3, 1, amplitude=1e308)
    grid = sample_grid(table1, _mode(2.0, 1, 1), 3, 3, 2, amplitude=1e290)
    for comp in (grid.E_r, grid.E_phi, grid.H_r, grid.H_phi, grid.H_z):
        assert np.isfinite(comp).all()


def test_csv_export_shape(table1):
    grid = sample_grid(table1, _mode(2.0), 3, 3, 9)
    doc = export_grid(grid, "csv")
    lines = doc.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 * 3 * 9  # 82 lines, header plus one per node
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert float(first[0]) == grid.r[0]


def _csv_row_loop(grid):
    # the row-by-row export the column-wise one replaced, kept as reference
    comps = (grid.E_r, grid.E_phi, grid.E_z, grid.H_r, grid.H_phi, grid.H_z)
    lines = [",".join(CSV_COLUMNS)]
    for iz in range(len(grid.z)):
        for iphi in range(len(grid.phi)):
            for ir in range(len(grid.r)):
                row = [grid.r[ir], grid.phi[iphi], grid.z[iz]]
                for comp in comps:
                    row.extend((comp[ir, iphi, iz].real,
                                comp[ir, iphi, iz].imag))
                lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _json_dumps(grid):
    # the whole-document json.dumps the plane-wise export replaced, kept as
    # reference
    comps = {}
    for name, arr in zip(("Er", "Ephi", "Ez", "Hr", "Hphi", "Hz"),
                         (grid.E_r, grid.E_phi, grid.E_z,
                          grid.H_r, grid.H_phi, grid.H_z)):
        flat = arr.transpose(2, 1, 0).ravel()
        comps[name] = {"re": flat.real.tolist(), "im": flat.imag.tolist()}
    mode = grid.mode
    return json.dumps({
        "geometry": {"radius_m": grid.geometry.a, "height_m": grid.geometry.h,
                     "sector_rad": grid.geometry.phi0,
                     "eps_r": grid.geometry.eps_r},
        "mode": {"family": mode.family.value, "v": mode.v, "n": mode.n,
                 "p": mode.p, "m": mode.m},
        "shape": list(grid.shape),
        "amplitude": grid.amplitude,
        "axes": {"r_m": grid.r.tolist(), "phi_rad": grid.phi.tolist(),
                 "z_m": grid.z.tolist()},
        "components": comps,
    })


def _assert_exports_match_references(grid):
    for fmt, reference in (("csv", _csv_row_loop), ("json", _json_dumps)):
        assert export_grid(grid, fmt).encode() == reference(grid).encode()


def test_csv_matches_row_loop(table1):
    # the JSON export is held to its json.dumps reference on the same grids
    te = (ModeSpec.derived(ModeFamily.TE, m, n, p, table1.phi0)
          for m, n, p in ((2, 1, 0), (2, 1, 1), (1, 2, 2), (1, 1, 0)))
    eh = ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 1)
    for mode, shape in zip((*te, eh), ((5, 6, 4), (5, 6, 4), (7, 4, 5),
                                       (7, 9, 1), (6, 5, 3))):
        grid = sample_grid(table1, mode, *shape, amplitude=1.75)
        expected = _csv_row_loop(grid)
        assert "-0.0," in expected  # the sign of zero must survive as well
        _assert_exports_match_references(grid)


def test_csv_matches_row_loop_on_special_values(table1):
    mode = ModeSpec.derived(ModeFamily.TE, 2, 1, 1, table1.phi0)
    doc = json.loads(export_grid(sample_grid(table1, mode, 4, 3, 2), "json"))
    comps = doc["components"]
    comps["Er"]["re"][:4] = [math.nan, math.inf, -math.inf, -0.0]
    comps["Hz"]["im"][5] = math.nan   # the only nonzero entry of its part
    comps["Ez"]["re"] = [-0.0] * len(comps["Ez"]["re"])
    comps["Ez"]["im"] = [(-0.0, 0.0)[k % 2] for k in range(len(comps["Ez"]["im"]))]
    comps["Hr"]["re"][3] = -math.inf
    grid = load_grid_json(json.dumps(doc))
    expected = _csv_row_loop(grid)
    for text in ("nan", "inf", "-inf", ",-0.0,-0.0,"):
        assert text in expected
    for text in ("NaN", "-Infinity", "-0.0"):
        assert text in _json_dumps(grid)
    _assert_exports_match_references(grid)
    # a loaded grid may have no nodes along an axis: empty planes add no text
    for shape in ([0, 3, 2], [4, 3, 0]):
        empty = dict(doc, shape=shape, axes={
            key: [0.0] * count
            for key, count in zip(("r_m", "phi_rad", "z_m"), shape)})
        empty["components"] = {name: {"re": [], "im": []} for name in comps}
        _assert_exports_match_references(load_grid_json(json.dumps(empty)))


def test_repeated_planes_are_formatted_once(table1, monkeypatch):
    # a p = 0 mode does not vary along z, so each part is formatted once
    calls = []
    for name in ("_csv_column", "_json_items"):
        real = getattr(fields, name)
        monkeypatch.setattr(fields, name,
                            lambda part, real=real: calls.append(1) or real(part))
    grid = sample_grid(table1, _mode(2.0), 5, 4, 6)
    for fmt in ("csv", "json"):
        calls.clear()
        export_grid(grid, fmt)
        assert len(calls) == 12  # six components, real and imaginary parts


def _with_planes(grid, edit):
    comps = {name: getattr(grid, name).copy()
             for name in ("E_r", "E_phi", "E_z", "H_r", "H_phi", "H_z")}
    edit(comps)
    return dataclasses.replace(grid, **comps)


def test_only_a_bitwise_equal_previous_plane_is_reused(table1):
    # plane 2 equals plane 0 but not plane 1, so it is formatted anew
    def plane_2_from_0(comps):
        for comp in comps.values():
            comp[:, :, 2] = comp[:, :, 0]

    grid = _with_planes(sample_grid(table1, _mode(2.0, 1, 1), 5, 4, 4),
                        plane_2_from_0)
    assert grid.H_z[:, :, 2].tobytes() != grid.H_z[:, :, 1].tobytes()
    _assert_exports_match_references(grid)

    # planes that differ only in the sign of one zero, in a part with
    # nonzero entries (H_z on the axis) and in the all-zero E_z
    def flip_zero_signs(comps):
        hz = comps["H_z"][0, 1, 1]
        assert hz.real == 0.0
        comps["H_z"][0, 1, 1] = complex(-hz.real, hz.imag)
        comps["E_z"][2, 3, 2] = complex(-0.0, 0.0)

    plain = sample_grid(table1, _mode(2.0), 5, 4, 3)
    grid = _with_planes(plain, flip_zero_signs)
    for fmt in ("csv", "json"):
        assert export_grid(grid, fmt) != export_grid(plain, fmt)
    _assert_exports_match_references(grid)


def test_csv_and_json_agree(table1):
    grid = sample_grid(table1, _mode(2.0), 4, 3, 2)
    doc_csv = export_grid(grid, "csv")
    doc_json = export_grid(grid, "json")
    rows = [line.split(",") for line in doc_csv.splitlines()[1:]]
    data = json.loads(doc_json)
    hz = data["components"]["Hz"]
    for k, row in enumerate(rows):
        assert float(row[CSV_COLUMNS.index("Hz_re")]) == hz["re"][k]
        assert float(row[CSV_COLUMNS.index("Hz_im")]) == hz["im"][k]


def test_json_round_trip_bitwise(table1):
    mode = ModeSpec.derived(ModeFamily.TE, 2, 1, 1, table1.phi0)
    grid = sample_grid(table1, mode, 5, 6, 4, amplitude=1.75)
    back = load_grid_json(export_grid(grid, "json"))
    assert back.geometry == grid.geometry
    assert back.mode == grid.mode
    assert back.amplitude == grid.amplitude
    assert np.array_equal(back.r, grid.r)
    assert np.array_equal(back.phi, grid.phi)
    assert np.array_equal(back.z, grid.z)
    for name in ("E_r", "E_phi", "E_z", "H_r", "H_phi", "H_z"):
        # bytes, not values: -0.0 and +0.0 compare equal but differ in sign
        assert getattr(back, name).tobytes() == getattr(grid, name).tobytes()


def test_load_grid_json_rejects_malformed_documents(table1):
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_grid_json("[1]")
    with pytest.raises(ValueError, match="nests too deeply"):
        load_grid_json("[" * 100_000 + "]" * 100_000)
    doc = json.loads(export_grid(sample_grid(table1, _mode(2.0), 3, 3, 2), "json"))
    # an axis longer or shorter than the shape says (the export would drop
    # or fail on the planes, rows or columns that do not match)
    for key in ("r_m", "z_m"):
        for values in (doc["axes"][key] + [0.5], doc["axes"][key][:-1]):
            bad = json.loads(json.dumps(doc))
            bad["axes"][key] = values
            with pytest.raises(ValueError, match="axes hold"):
                load_grid_json(json.dumps(bad))
    # nesting too deep for json inside the object, at the top level and in
    # a component part
    deep = "[" * 100_000 + "]" * 100_000
    for text in (f'{{"a": {deep}}}',
                 export_grid(sample_grid(table1, _mode(2.0), 3, 3, 2), "json")
                 .replace('"Hz": {"re": ', f'"Hz": {{"re": {deep}, "re": ')):
        with pytest.raises(ValueError, match="nests too deeply"):
            load_grid_json(text)
    # an integer json reads but no float holds
    huge = json.dumps(doc).replace('"re": [', f'"re": [{10 ** 400}, ', 1)
    with pytest.raises(ValueError, match="malformed value"):
        load_grid_json(huge)
    del doc["axes"]
    with pytest.raises(ValueError, match="missing key 'axes'"):
        load_grid_json(json.dumps(doc))
    doc["geometry"] = 3
    with pytest.raises(ValueError, match="malformed value"):
        load_grid_json(json.dumps(doc))


_BAD_SCALARS = [
    (None, "amplitude", "abc"), (None, "amplitude", None),
    (None, "amplitude", -1), (None, "amplitude", math.nan),
    (None, "amplitude", [1]), (None, "amplitude", True),
    (None, "amplitude", 10 ** 400),
    ("mode", "v", True), ("mode", "n", True), ("mode", "p", False),
    ("mode", "m", True), ("geometry", "radius_m", True),
    ("geometry", "eps_r", True)]


@pytest.mark.parametrize("section, key, value", _BAD_SCALARS,
                         ids=[f"{key}={value!r:.8}" for _, key, value in _BAD_SCALARS])
def test_load_grid_json_rejects_bad_scalars(table1, section, key, value):
    # each of these loaded, and export_grid wrote it back
    doc = json.loads(export_grid(sample_grid(table1, _mode(2.0), 3, 3, 1), "json"))
    (doc if section is None else doc[section])[key] = value
    with pytest.raises(ValueError):
        load_grid_json(json.dumps(doc))


def test_repeated_planes_are_parsed_once(table1, monkeypatch):
    # a part whose planes are all bitwise equal, which is every part of a
    # p = 0 mode, has its plane parsed once; any other part is read whole
    # by json
    calls = []
    real = fields._plane_values
    monkeypatch.setattr(fields, "_plane_values",
                        lambda text, size: calls.append(1) or real(text, size))
    for p in (0, 1):
        grid = sample_grid(table1, _mode(2.0, 1, p), 5, 4, 6)
        repeated = [all(part[:, :, iz].tobytes() == part[:, :, 0].tobytes()
                        for iz in range(6))
                    for comp in (grid.E_r, grid.E_phi, grid.E_z, grid.H_r,
                                 grid.H_phi, grid.H_z)
                    for part in (comp.real, comp.imag)]
        calls.clear()
        back = load_grid_json(export_grid(grid, "json"))
        assert len(calls) == sum(repeated)
        assert back.H_z.tobytes() == grid.H_z.tobytes()
        if p == 0:
            assert all(repeated)
        else:
            assert not repeated[-2]  # the real part of H_z varies along z


# ------------------------------------------- load_grid_json against json.loads

_SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 1e-310)
_PLANE_ITEMS = ("x", [1.0], {}, None, True)
_NAMES = ("E_r", "E_phi", "E_z", "H_r", "H_phi", "H_z")


def _redump(**kwargs):
    return lambda draw, doc: json.dumps(json.loads(doc), **kwargs)


def _components_first(draw, doc):
    data = json.loads(doc)
    return json.dumps({"components": data.pop("components"), **data})


def _duplicate_key(draw, doc):
    if draw(st.booleans()):  # a repeated key before the one that wins
        anchor, extra = draw(st.sampled_from((
            ('"shape": ', '"shape": [1, 1, 1], '),
            ('"components": ', '"components": {"Er": 1}, '),
            ('"re": ', '"re": [0.5], '), ('"im": ', '"im": [], '),
            ('"amplitude": ', '"amplitude": 2.0, '))))
        return doc.replace(anchor, extra + anchor, 1)
    # one that wins, at the end of the document, of "components" or of "Hz"
    closing, extra = draw(st.sampled_from((
        (1, ', "shape": [1, 1, 1]'), (1, ', "amplitude": 2.0'),
        (2, ', "Hz": {"re": [], "im": []}'), (3, ', "re": [0.5]'))))
    return doc[:-closing] + extra + doc[-closing:]


def _plane_item(draw, doc):
    # one item of a component part, in one plane or in every plane
    data = json.loads(doc)
    n_r, n_phi, n_z = data["shape"]
    part = data["components"][draw(st.sampled_from(("Er", "Ez", "Hz")))][
        draw(st.sampled_from(("re", "im")))]
    k = draw(st.integers(0, n_r * n_phi - 1))
    item = draw(st.sampled_from(_PLANE_ITEMS))
    planes = range(n_z) if draw(st.booleans()) else [draw(st.integers(0, n_z - 1))]
    for iz in planes:
        part[iz * n_r * n_phi + k] = item
    return json.dumps(data)


def _truncate(draw, doc):
    return doc[:draw(st.integers(0, max(len(doc) - 1, 0)))]


def _trailing(draw, doc):
    return doc + draw(st.sampled_from((" \n", "x", "{}", " 1", ",", "]")))


_EDITS = (_redump(indent=1), _redump(separators=(",", ":")),
          _components_first, _duplicate_key, _plane_item, _truncate,
          _trailing)


@st.composite
def _grid_documents(draw, geom):
    p = draw(st.integers(0, 2))
    if draw(st.booleans()):
        mode = ModeSpec.derived(ModeFamily.TE, draw(st.integers(1, 2)),
                                draw(st.integers(1, 2)), p, geom.phi0)
    else:
        mode = ModeSpec.explicit(ModeFamily.EH, 1.0, 1, p)
    n_r, n_phi = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    n_z = draw(st.integers(1 if p == 0 else 2, 5))
    grid = sample_grid(geom, mode, n_r, n_phi, n_z,
                       amplitude=draw(st.sampled_from((1.0, 1.75, 3))))
    comps = {name: getattr(grid, name).copy() for name in _NAMES}
    for _ in range(draw(st.integers(0, 3))):
        comp = comps[draw(st.sampled_from(_NAMES))]
        ir, iphi = draw(st.integers(0, n_r - 1)), draw(st.integers(0, n_phi - 1))
        value = draw(st.sampled_from(_SPECIAL))
        value = complex(value, 0.0) if draw(st.booleans()) else complex(0.0, value)
        iz = slice(None) if draw(st.booleans()) else draw(st.integers(0, n_z - 1))
        comp[ir, iphi, iz] = value
    doc = export_grid(dataclasses.replace(grid, **comps), "json")
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=2)):
        try:
            doc = edit(draw, doc)
        except (ValueError, LookupError):
            pass  # an earlier edit left the document unreadable or too short
    return doc


def _load(loader, doc):
    try:
        return loader(doc)
    except ValueError:
        return None


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_load_grid_json_matches_json_loads(table1, data):
    doc = data.draw(_grid_documents(table1))
    want = _load(load_grid_json_reference, doc)
    got = _load(load_grid_json, doc)
    assert (got is None) == (want is None)
    if want is not None:
        for name in ("geometry", "mode", "amplitude"):
            assert repr(getattr(got, name)) == repr(getattr(want, name))
        for name in ("r", "phi", "z", *_NAMES):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


def test_export_rejects_unknown_format(table1):
    grid = sample_grid(table1, _mode(2.0), 3, 3, 1)
    with pytest.raises(ValueError):
        export_grid(grid, "xml")

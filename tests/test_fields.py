import dataclasses
import json
import math

import numpy as np
import pytest

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

from oracles import helmholtz_residual


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
    del doc["axes"]
    with pytest.raises(ValueError, match="missing key 'axes'"):
        load_grid_json(json.dumps(doc))
    doc["geometry"] = 3
    with pytest.raises(ValueError, match="malformed value"):
        load_grid_json(json.dumps(doc))


def test_export_rejects_unknown_format(table1):
    grid = sample_grid(table1, _mode(2.0), 3, 3, 1)
    with pytest.raises(ValueError):
        export_grid(grid, "xml")

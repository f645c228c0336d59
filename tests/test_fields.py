import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sectordra import (
    MU_0,
    CylPoint,
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    boundary_residuals,
    export_grid,
    field_at,
    load_grid_json,
    resonant_frequency,
    sample_grid,
    wavenumbers,
)
from sectordra import fields
from sectordra.fields import CSV_COLUMNS

from oracles import curl_div, helmholtz_residual, load_grid_json_reference


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
    # v = 1 keeps nonzero transverse fields on the axis row ir = 0
    for mode in (_mode(2.0, 1, 1), ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 1)):
        grid = sample_grid(table1, mode, 7, 7, 5)
        # undo the grid normalization, then both routes express the same formula
        raw_peak = max(
            abs(field_at(table1, mode, CylPoint(float(r), float(p), float(z))).H_z)
            for r in grid.r for p in grid.phi for z in grid.z)
        scale = 1.0 / raw_peak
        for ir, iphi, iz in itertools.product((0, 1, 3, 6), (0, 2, 5), (0, 2, 4)):
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


def test_axis_limits_match_nearby_points(table1):
    # every component on the axis equals its value a nanometre away; at
    # v = 1 the transverse components are nonzero there
    point = CylPoint(0.0, 0.3, 0.3 * table1.h)
    near = dataclasses.replace(point, r=1e-9)
    names = ("E_r", "E_phi", "E_z", "H_r", "H_phi", "H_z")
    for v in (0.0, 1.0, 2.0, 3.0):
        mode = ModeSpec.explicit(ModeFamily.EH, v, 1, 1)
        on, off = field_at(table1, mode, point), field_at(table1, mode, near)
        inside = field_at(table1, mode, dataclasses.replace(point, r=0.004))
        size = max(abs(getattr(inside, name)) for name in names)
        for name in names:
            assert abs(getattr(on, name) - getattr(off, name)) <= 1e-6 * size
        if v == 1.0:
            for name in ("E_r", "E_phi", "H_r", "H_phi"):
                assert abs(getattr(on, name)) > 1e-3 * size
    # 0 < v < 1 diverges on the axis: the whole grid is refused
    with pytest.raises(ValueError, match="diverges on the axis"):
        sample_grid(table1, _mode(0.5), 5, 5, 1)


@pytest.mark.parametrize("mode", [
    ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0),
    ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 1),
    ModeSpec.derived(ModeFamily.TE, 1, 1, 0, math.pi / 2.0),
    ModeSpec.derived(ModeFamily.TE, 1, 1, 1, math.pi / 2.0),
], ids=["v1p0", "v1p1", "v2p0", "v2p1"])
def test_fields_satisfy_faraday_and_gauss(table1, mode):
    # curl E = -j w u0 H in all three components and div H = 0, by central
    # differences at interior points
    omega_mu = 2.0 * math.pi * resonant_frequency(table1, mode) * MU_0
    wn = wavenumbers(table1, mode)

    def e_field(r, phi, z):
        s = field_at(table1, mode, CylPoint(r, phi, z))
        return s.E_r, s.E_phi, s.E_z

    def h_field(r, phi, z):
        s = field_at(table1, mode, CylPoint(r, phi, z))
        return s.H_r, s.H_phi, s.H_z

    step = 1e-5 * table1.a
    for r in (0.25 * table1.a, 0.5 * table1.a, 0.8 * table1.a):
        for phi in (0.3, 1.1):
            for z in (0.3 * table1.h, 0.7 * table1.h):
                h = h_field(r, phi, z)
                h_norm = max(map(abs, h))
                curl_e, _ = curl_div(e_field, r, phi, z, step)
                for curl, h_k in zip(curl_e, h):
                    assert abs(curl + 1j * omega_mu * h_k) <= 1e-6 * omega_mu * h_norm
                _, div_h = curl_div(h_field, r, phi, z, step)
                assert abs(div_h) <= 1e-6 * math.hypot(wn.k_r, wn.k_z) * h_norm


def test_boundary_residuals_small(table1):
    for m in range(0, 4):
        for p in (0, 1):
            mode = ModeSpec.derived(ModeFamily.TE, m, 1, p, table1.phi0)
            res = boundary_residuals(table1, mode, resolution=16)
            assert res.face_e_tangential < 1e-9
            assert res.arc_h_phi < 1e-9
            assert res.cap_dhz_dz < 1e-9


def test_boundary_residual_reports_the_face_field(table1):
    # v = 1 on a quarter sector leaves E_r, which carries sin(v phi), whole
    # on the face phi = phi0; a residual that always read 0 would pass the
    # test above
    mode = ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 1)
    res = boundary_residuals(table1, mode, resolution=16)
    face = max(abs(field_at(table1, mode, CylPoint(float(r), table1.phi0,
                                                   float(z))).E_r)
               for r in np.linspace(0.0, table1.a, 16)
               for z in np.linspace(0.0, table1.h, 16))
    assert face > 1.0
    assert res.face_e_tangential == pytest.approx(face, rel=1e-12)
    assert res.arc_h_phi < 1e-9 and res.cap_dhz_dz < 1e-9


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


def _record_csv_runs(monkeypatch):
    # the number of z-planes in each run whose CSV rows are assembled once
    runs = []
    real = fields._csv_rows
    monkeypatch.setattr(
        fields, "_csv_rows",
        lambda r_phi, columns, z_texts: runs.append(len(z_texts))
        or real(r_phi, columns, z_texts))
    return runs


def test_repeated_planes_are_formatted_once(table1, monkeypatch):
    # a p = 0 mode does not vary along z, so each part is formatted once for
    # both exports of a grid, and the CSV rows of one plane are assembled:
    # each plane is then one join of its z text
    calls = []
    real = fields._json_items
    monkeypatch.setattr(fields, "_json_items",
                        lambda part: calls.append(1) or real(part))
    runs = _record_csv_runs(monkeypatch)
    grid = sample_grid(table1, _mode(2.0), 5, 4, 6)

    def export_both():
        calls.clear()
        for fmt in ("csv", "json"):
            export_grid(grid, fmt)
        return len(calls)

    assert export_both() == 12  # six components, real and imaginary parts
    # an in-place edit, alike in every plane, is formatted once again
    grid.H_z.real[1, 2, :] = 0.5
    assert export_both() == 12
    assert runs == [6, 6]
    # no plane of a p = 1 mode repeats: each has its rows assembled
    runs.clear()
    export_grid(sample_grid(table1, _mode(2.0, 1, 1), 5, 4, 6), "csv")
    assert runs == [1] * 6


@pytest.mark.parametrize("n_z", (4, 5, 33))
@pytest.mark.parametrize("p", (1, 2, 3))
def test_sampled_planes_mirror(table1, p, n_z):
    # interior plane n_z - 1 - k is bitwise plane k times (-1)^p in the
    # parts that carry cos(k_z z), and times -(-1)^p in those that carry
    # sin(k_z z); the parts that vanish are +0.0 throughout
    for mode in (_mode(2.0, 1, p), ModeSpec.explicit(ModeFamily.EH, 1.0, 1, p)):
        grid = sample_grid(table1, mode, 6, 5, n_z)
        sign = (-1.0) ** p
        for part, factor in ((grid.E_r.imag, sign), (grid.E_phi.imag, sign),
                             (grid.H_z.real, sign), (grid.H_r.real, -sign),
                             (grid.H_phi.real, -sign)):
            assert np.any(part != 0.0)
            for k in range(1, n_z):
                if k < n_z - 1 - k:
                    assert (part[:, :, n_z - 1 - k].tobytes()
                            == (factor * part[:, :, k]).tobytes())
        for part in (grid.E_r.real, grid.E_phi.real, grid.E_z.real,
                     grid.E_z.imag, grid.H_r.imag, grid.H_phi.imag,
                     grid.H_z.imag):
            assert not np.ascontiguousarray(part).view(np.uint64).any()


def test_mirror_planes_are_formatted_once(table1, monkeypatch):
    # of the 33 planes of a p = 1 part, the 15 interior ones past the middle
    # take the text of their mirror, as is or with its signs toggled
    counts = []
    real_items, real_texts = fields._json_items, fields._plane_texts

    def plane_texts(*args):
        counts.append(0)
        return real_texts(*args)

    def json_items(part):
        counts[-1] += 1
        return real_items(part)

    monkeypatch.setattr(fields, "_plane_texts", plane_texts)
    monkeypatch.setattr(fields, "_json_items", json_items)
    export_grid(sample_grid(table1, _mode(2.0, 1, 1), 5, 4, 33), "json")
    assert len(counts) == 12 and max(counts) <= 18


def _break_one_mirror_value(comps):
    comps["H_z"].real[2, 1, -2] *= 1.0 + 2.0 ** -50


def _flip_one_mirror_zero(comps):
    # E_r carries sin(v phi), which is 0 on the face phi = 0
    assert comps["E_r"].imag[3, 0, -2] == 0.0
    comps["E_r"].imag[3, 0, -2] *= -1.0


def _nan_in_mirror_planes(comps):
    # with the sign bit flipped in the mirror plane, as a negation would
    # leave it; json writes both without a sign
    comps["E_phi"].imag[1, 2, 1] = math.nan
    comps["E_phi"].imag[1, 2, -2] = -math.nan
    comps["H_r"].real[2, 3, 2] = math.nan
    comps["H_r"].real[2, 3, -3] = math.nan


@pytest.mark.parametrize("p", (1, 2))
@pytest.mark.parametrize("edit", (_break_one_mirror_value, _flip_one_mirror_zero,
                                  _nan_in_mirror_planes))
def test_edited_mirror_planes_match_the_references(table1, edit, p):
    grid = sample_grid(table1, _mode(2.0, 1, p), 5, 4, 6)
    edited = _with_planes(grid, edit)
    _assert_exports_match_references(edited)
    for fmt in ("csv", "json"):
        assert export_grid(edited, fmt) != export_grid(grid, fmt)
    # json reads a NaN without a sign: the loads are held to json.loads
    doc = export_grid(edited, "json")
    back, want = load_grid_json(doc), load_grid_json_reference(doc)
    for name in _NAMES:
        assert getattr(back, name).tobytes() == getattr(want, name).tobytes()


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


def _sliced(grid, ir=slice(None), iphi=slice(None), iz=slice(None)):
    return dataclasses.replace(
        grid, r=grid.r[ir], phi=grid.phi[iphi], z=grid.z[iz],
        **{name: getattr(grid, name)[ir, iphi, iz] for name in _NAMES})


def test_plane_runs_match_the_references(table1, monkeypatch):
    runs = _record_csv_runs(monkeypatch)
    varied = sample_grid(table1, _mode(2.0, 1, 1), 4, 3, 5)

    # planes A, A, B, B, A in every part, then in two components only,
    # where the parts repeat but no whole plane does
    def a_a_b_b_a(comps, names=_NAMES):
        for name in names:
            comp = comps[name]
            comp[:, :, 1], comp[:, :, 3] = comp[:, :, 0], comp[:, :, 2]
            comp[:, :, 4] = comp[:, :, 0]

    for names, expected in ((_NAMES, [2, 2, 1]), (("E_r", "H_z"), [1] * 5)):
        runs.clear()
        _assert_exports_match_references(
            _with_planes(varied, lambda comps: a_a_b_b_a(comps, names)))
        assert runs == expected

    plain = sample_grid(table1, _mode(2.0), 4, 3, 5)

    # planes that differ only in the sign of one zero
    def flip_zero_sign(comps):
        comps["E_z"].real[1, 2, 2] = -0.0

    # NaN in every plane, with one payload (those planes still repeat); a
    # NaN with another payload than the one in the plane before does not
    def nans(comps):
        comps["H_z"].imag[1, 2, :] = math.nan
        payload = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(float)
        comps["E_r"].real[0, 0, 3] = payload[0]
        comps["E_r"].real[0, 0, 4] = math.nan

    for edit, expected in ((flip_zero_sign, [2, 1, 2]), (nans, [3, 1, 1])):
        runs.clear()
        grid = _with_planes(plain, edit)
        _assert_exports_match_references(grid)
        assert runs == expected
    assert "nan" in export_grid(grid, "csv")

    # no node along r or phi, and a single z-plane
    for grid in (plain, varied):
        for empty in (_sliced(grid, ir=slice(0)), _sliced(grid, iphi=slice(0)),
                      _sliced(grid, iz=slice(1))):
            _assert_exports_match_references(empty)


# float64 bit patterns: any, and the ones where repr and json disagree or
# that are easy to get wrong (zeros, subnormals, infinities, NaN payloads,
# extreme exponents)
_FLOAT_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([
        *np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
                   math.nan], dtype=float).view(np.uint64).tolist(),
        0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0000, 0xFFFF_FFFF_FFFF_FFFF]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_FLOAT_BITS, max_size=48), st.booleans())
def test_csv_columns_from_json_items_are_repr(table1, bits, repeat):
    values = np.array(bits, dtype=np.uint64).view(float)
    assert (fields._csv_column(fields._json_items(values))
            == list(map(repr, values.tolist())))
    if not bits:
        return
    # the same bits in every component of a grid, where plane 1 may repeat
    # plane 0, through both exports
    grid = sample_grid(table1, _mode(2.0, 1, 1), 2, 3, 3)
    filled = np.resize(values, 6 * 2 * 18).view(complex).reshape(6, 2, 3, 3)
    if repeat:
        filled[:, :, :, 1] = filled[:, :, :, 0]
    _assert_exports_match_references(
        dataclasses.replace(grid, **dict(zip(_NAMES, filled))))


_NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(float)[0]


def _set_value(grid, iz):
    grid.E_phi.imag[1, 2, iz] *= 3.0


def _flip_zero_sign(grid, iz):
    grid.E_z.real[2, 1, iz] = -0.0


def _change_nan_payload(grid, iz):
    grid.H_z.imag[1, 1, iz] = _NAN_PAYLOAD


@pytest.mark.parametrize("p", (0, 1))
@pytest.mark.parametrize("iz", (1, slice(None)), ids=("one-plane", "every-plane"))
@pytest.mark.parametrize("edit", (_set_value, _flip_zero_sign,
                                  _change_nan_payload))
def test_in_place_edit_shows_in_the_next_export(table1, edit, iz, p):
    # an edit in every plane leaves each plane repeating the one before
    # where it did, so only the kept planes' bits can tell the grid changed
    grid = sample_grid(table1, _mode(2.0, 1, p), 4, 3, 3)
    grid.H_z.imag[1, 1, :] = math.nan
    export_grid(grid, "csv")
    texts = fields._part_texts(grid)
    assert fields._part_texts(grid) is texts  # unchanged: kept
    edit(grid, iz)
    # a NaN payload changes neither export, but the grid's bits: the texts
    # are made again, as after any other edit
    assert fields._part_texts(grid) is not texts
    for fmt, reference in (("json", _json_dumps), ("csv", _csv_row_loop)):
        assert export_grid(grid, fmt).encode() == reference(grid).encode()


def test_export_order_does_not_matter(table1):
    for p in (0, 1):
        def make():
            return sample_grid(table1, _mode(2.0, 1, p), 4, 3, 3)

        csv_first = make()
        docs = (export_grid(csv_first, "csv"), export_grid(csv_first, "json"))
        json_first = make()
        assert export_grid(json_first, "json") == docs[1]
        assert export_grid(json_first, "csv") == docs[0]
        assert (export_grid(make(), "csv"), export_grid(make(), "json")) == docs


def test_replaced_grid_formats_its_own_components(table1):
    grid = sample_grid(table1, _mode(2.0), 4, 3, 3)
    export_grid(grid, "json")

    def scale(comps):
        for comp in comps.values():
            comp *= 2.0

    copy = _with_planes(grid, scale)
    assert "_export_texts" not in vars(copy)
    assert "_export_texts" not in vars(dataclasses.replace(grid))
    _assert_exports_match_references(copy)
    assert export_grid(copy, "json") != export_grid(grid, "json")


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
    # a component part of the wrong length: numpy broadcast the first two
    # into every imaginary part of H_z
    for value in ([0.5], 7, doc["components"]["Hz"]["im"] + [0.5]):
        bad = json.loads(json.dumps(doc))
        bad["components"]["Hz"]["im"] = value
        with pytest.raises(ValueError, match="'Hz' 'im' holds"):
            load_grid_json(json.dumps(bad))
    # a null, a numeric string or an integer that no float holds in a
    # component part, in one plane or in both (which the loader would
    # otherwise tile): numpy read the first two as nan and 1.5
    for item in (None, "1.5", 10 ** 400):
        for planes in ([0], [0, 1]):
            bad = json.loads(json.dumps(doc))
            for iz in planes:
                bad["components"]["Hz"]["re"][iz * 9 + 4] = item
            text = json.dumps(bad)
            for loader in (load_grid_json, load_grid_json_reference):
                with pytest.raises(ValueError, match="not a number|malformed value"):
                    loader(text)
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


# items for both planes of a mirror pair: numbers whose sign json reads or
# writes apart from their value (0, NaN), and items that no JSON signs
_MIRROR_ITEMS = ("0", "-0", "0.0", "-0.0", "NaN", "Infinity", "1e400", "true",
                 "null", '"]"', "{}", "[]")


def _mirror_item(draw, doc):
    # one item text, at one node of plane k and of its mirror n_z - 1 - k
    # in a part that varies along z, there as is or with its sign toggled
    data = json.loads(doc)
    n_r, n_phi, n_z = data["shape"]
    name, key = draw(st.sampled_from((("Er", "im"), ("Ephi", "im"), ("Hr", "re"),
                                      ("Hphi", "re"), ("Hz", "re"))))
    part = data["components"][name][key]
    k, node = draw(st.integers(0, n_z - 1)), draw(st.integers(0, n_r * n_phi - 1))
    item = draw(st.sampled_from(_MIRROR_ITEMS))
    toggled = item[1:] if item.startswith("-") else "-" + item
    texts = (item, toggled if draw(st.booleans()) else item)
    for iz, marker in ((k, "@k@"), (n_z - 1 - k, "@mirror@")):
        part[iz * n_r * n_phi + node] = marker
    doc = json.dumps(data)
    for marker, text in zip(("@k@", "@mirror@"), texts):
        doc = doc.replace(f'"{marker}"', text)
    return doc


def _truncate(draw, doc):
    return doc[:draw(st.integers(0, max(len(doc) - 1, 0)))]


def _trailing(draw, doc):
    return doc + draw(st.sampled_from((" \n", "x", "{}", " 1", ",", "]")))


_EDITS = (_redump(indent=1), _redump(separators=(",", ":")),
          _components_first, _duplicate_key, _plane_item, _mirror_item,
          _truncate, _trailing)


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


def _bracket_string(doc):
    data = json.loads(doc)
    data["components"]["Hz"]["re"][1] = "]"
    return json.dumps(data)  # the exporter's own layout, as json.dumps writes it


def _compact_part(doc):
    # "," between the items of one component array, where json writes ", "
    start = doc.index('"Hz": {"re": [') + len('"Hz": {"re": [')
    end = doc.index("]", start)
    return doc[:start] + doc[start:end].replace(", ", ",") + doc[end:]


def _blank_before_comma(doc):
    # " ," between the first two z-planes of H_r's real parts: as many
    # blanks as commas, but one not after its comma
    n_r, n_phi, _ = json.loads(doc)["shape"]
    at = doc.index('"Hr": {"re": [')
    for _ in range(n_r * n_phi):
        at = doc.index(", ", at) + 2
    return doc[:at - 2] + " ," + doc[at:]


def _signed_nan(doc):
    # NaN at a node of the first z-plane of H_z and -NaN, which is no JSON,
    # at the node of the last, whose other numbers negate the first's at p = 1
    data = json.loads(doc)
    n_r, n_phi, n_z = data["shape"]
    part = data["components"]["Hz"]["re"]
    part[0], part[(n_z - 1) * n_r * n_phi] = math.nan, "@"
    return json.dumps(data).replace('"@"', "-NaN")


def _signed_blank(doc):
    # a second blank after the first comma of H_z's first z-plane of real
    # parts, and the last plane that text with each item's sign toggled,
    # which puts "- " (no JSON) before a number
    n_r, n_phi, _ = json.loads(doc)["shape"]
    start = doc.index('"Hz": {"re": [') + len('"Hz": {"re": [')
    end = doc.index("]", start)
    items = doc[start:end].split(", ")
    first = ", ".join(items[:n_r * n_phi]).replace(", ", ",  ", 1)
    last = ", ".join(("-" + item).replace("--", "") for item in first.split(", "))
    return (doc[:start] + ", ".join([first, *items[n_r * n_phi:-n_r * n_phi], last])
            + doc[end:])


def _trailing_comma(doc):
    # H_z's last real part replaced by " ,": as many blanks as commas again
    start = doc.index('"Hz": {"re": [')
    end = doc.index("]", start)
    return doc[:doc.rindex(", ", start, end)] + " ," + doc[end:]


# (name, edit, whether the exporter layout reader takes the document,
# whether it loads)
_LAYOUT_EDITS = [
    ("compact-part", _compact_part, True, True),
    ("blank-before-comma", _blank_before_comma, True, True),
    ("signed-nan", _signed_nan, False, False),
    ("signed-blank", _signed_blank, False, False),
    ("trailing-comma", _trailing_comma, False, False),
    ("trailing-newline", lambda doc: doc + "\n", True, True),
    # an object inside "axes" that holds "components" ahead of the real one
    ("nested-components", lambda doc: doc.replace(
        '"phi_rad": ', '"components": {"Er": {"re": [], "im": []}}, '
        '"phi_rad": ', 1), False, True),
    ("bracket-string", _bracket_string, True, False),
    ("sort-keys", lambda doc: json.dumps(json.loads(doc), sort_keys=True),
     False, True),
    # "{}" is a head json reads, but "{, " opens no JSON object
    ("empty-head", lambda doc: "{" + doc[doc.index(', "components": {'):],
     False, False),
]


@pytest.mark.parametrize("p", (0, 1))
@pytest.mark.parametrize("edit, layout, loads",
                         [edit[1:] for edit in _LAYOUT_EDITS],
                         ids=[edit[0] for edit in _LAYOUT_EDITS])
def test_load_grid_json_layout_rule(table1, edit, layout, loads, p):
    # the exporter's layout is read by _read_export, any other document by
    # json.loads; both load what the whole-document reference loads
    doc = edit(export_grid(sample_grid(table1, _mode(2.0, 1, p), 4, 3, 3), "json"))
    assert (fields._read_export(doc) is not None) == layout
    want = _load(load_grid_json_reference, doc)
    got = _load(load_grid_json, doc)
    assert (got is not None) == (want is not None) == loads
    if want is not None:
        for name in ("geometry", "mode", "amplitude"):
            assert repr(getattr(got, name)) == repr(getattr(want, name))
        for name in ("r", "phi", "z", *_NAMES):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_export_rejects_unknown_format(table1):
    grid = sample_grid(table1, _mode(2.0), 3, 3, 1)
    with pytest.raises(ValueError):
        export_grid(grid, "xml")

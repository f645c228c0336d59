"""The argument rule of errors.py, entry point by entry point.

Every scalar or integer argument of the package is checked by
`check_real` or `check_index`, and every real array argument by
`check_array`: a bool, a string, None, a NaN, an infinity or a number
outside the argument's range raises ValueError naming the argument and the
value, or for an array its first element out of range.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from sectordra import (
    CylPoint,
    FDProblem,
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    SweepParameter,
    SweepSpec,
    TissueGrid,
    averaged_sar,
    azimuthal_order,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    boundary_residuals,
    compare_modes,
    enumerate_modes,
    export_grid,
    fd_transverse_eigs,
    field_at,
    geometry_from_json,
    limit_lookup,
    load_grid_json,
    max_allowed_power,
    mode_from_json,
    point_sar,
    sample_grid,
    solve_radius,
    tissue_grid_from_csv,
    tissue_grid_from_json,
)

TE = ModeFamily.TE
QUARTER = math.pi / 2.0
GEOM = SectorGeometry.quarter(0.012, 0.00254, 12.85)
TE210 = ModeSpec.derived(TE, 1, 1, 0, QUARTER)
GEOMETRY_DOC = {"radius_mm": 12.0, "height_mm": 2.54, "sector_deg": 90.0,
                "eps_r": 12.85}
ONES = np.ones((4, 4, 4))
TISSUE = TissueGrid(0.003, ONES, 1000.0 * ONES, ONES)  # 1.7 g
LIMIT = limit_lookup("ieee", "1g")
FD16 = FDProblem(1.0, QUARTER, 16, 16)
GRID = sample_grid(GEOM, TE210, 3, 3, 1)


def _tissue_json(**scalars):
    return json.dumps({"shape": [2, 2, 2], "voxel_m": 0.002, "p_in_w": 1.0,
                       "sigma": [0.8] * 8, "rho": [1000.0] * 8,
                       "e_mag": [10.0] * 8, **scalars})


def _tissue_csv(**scalars):
    rows = "".join(f"{k},0.8,1000.0,10.0\n" for k in range(8))
    return tissue_grid_from_csv(rows, json.dumps(
        {"shape": [2, 2, 2], "voxel_m": 0.002, "p_in_w": 1.0, **scalars}))


def _field_json(amplitude):
    doc = json.loads(export_grid(sample_grid(GEOM, TE210, 3, 3, 1), "json"))
    return json.dumps(dict(doc, amplitude=amplitude))


# (name in the message, call taking the value, a good value, a number out
# of range). ModeSpec's own m may be None; test_modal checks it.
CASES = {
    "bessel_j v": ("bessel order", lambda x: bessel_j(x, 2.0), 1.5, -1.0),
    "bessel_j x": ("bessel argument", lambda x: bessel_j(1.5, x), 0, -2.0),
    "bessel_j_prime v": ("bessel order", lambda x: bessel_j_prime(x, 2.0), 1, -0.5),
    "bessel_j_prime x": ("bessel argument", lambda x: bessel_j_prime(1.5, x), 2.0,
                         -1.0),
    "bessel_zero v": ("bessel order", lambda x: bessel_zero(x, 1), 1.5, -1.0),
    "bessel_zero n": ("zero index", lambda x: bessel_zero(1.5, x), 2, 0),
    "azimuthal_order m": ("azimuthal index", lambda x: azimuthal_order(x, 1.0), 2, -1),
    "azimuthal_order phi0": ("sector angle", lambda x: azimuthal_order(1, x), 1.0, 0.0),
    "SectorGeometry a": ("radius", lambda x: SectorGeometry(x, 0.00254, 1.0, 12.85),
                         0.012, 0.0),
    "SectorGeometry h": ("height", lambda x: SectorGeometry(0.012, x, 1.0, 12.85),
                         0.00254, -0.001),
    "SectorGeometry phi0": ("sector angle",
                            lambda x: SectorGeometry(0.012, 0.00254, x, 12.85),
                            2.0 * math.pi, 7.0),
    "SectorGeometry eps_r": ("relative permittivity",
                             lambda x: SectorGeometry(0.012, 0.00254, 1.0, x), 1.0, 0.5),
    "ModeSpec v": ("azimuthal order", lambda x: ModeSpec(TE, x, 1, 0), 0.0, -1.0),
    "ModeSpec n": ("radial index", lambda x: ModeSpec(TE, 2.0, x, 0), 3, 0),
    "ModeSpec p": ("axial index", lambda x: ModeSpec(TE, 2.0, 1, x), 0, -1),
    "ModeSpec.derived m": ("azimuthal index",
                           lambda x: ModeSpec.derived(TE, x, 1, 0, QUARTER), 0, -1),
    "ModeSpec.explicit v": ("azimuthal order",
                            lambda x: ModeSpec.explicit(TE, x, 1, 0), 1, -0.5),
    "enumerate_modes f_max": ("frequency cutoff",
                              lambda x: enumerate_modes(GEOM, x, 2, 2, 1), 7e9, -1.0),
    "enumerate_modes m_max": ("m_max", lambda x: enumerate_modes(GEOM, 7e9, x, 2, 1),
                              1, 0),
    "enumerate_modes n_max": ("n_max", lambda x: enumerate_modes(GEOM, 7e9, 2, x, 1),
                              1, 0),
    "enumerate_modes p_max": ("p_max", lambda x: enumerate_modes(GEOM, 7e9, 2, 2, x),
                              0, -1),
    "geometry_from_json radius_mm": (
        "radius_mm", lambda x: geometry_from_json(dict(GEOMETRY_DOC, radius_mm=x)),
        12, -12.0),
    "geometry_from_json height_mm": (
        "height_mm", lambda x: geometry_from_json(dict(GEOMETRY_DOC, height_mm=x)),
        2.54, 0.0),
    "geometry_from_json sector_deg": (
        "sector_deg", lambda x: geometry_from_json(dict(GEOMETRY_DOC, sector_deg=x)),
        360, 400.0),
    "geometry_from_json eps_r": (
        "relative permittivity",
        lambda x: geometry_from_json(dict(GEOMETRY_DOC, eps_r=x)), 1, 0.5),
    "mode_from_json v": ("azimuthal order", lambda x: mode_from_json(
        {"family": "TE", "v": x, "n": 1, "p": 0}, GEOM), 1, -1.0),
    "mode_from_json n": ("radial index", lambda x: mode_from_json(
        {"family": "TE", "v": 1.0, "n": x, "p": 0}, GEOM), 2.0, 0),
    "mode_from_json p": ("axial index", lambda x: mode_from_json(
        {"family": "TE", "v": 1.0, "n": 1, "p": x}, GEOM), 1, -1),
    "mode_from_json m": ("azimuthal index", lambda x: mode_from_json(
        {"family": "TE", "m": x, "n": 1, "p": 0}, GEOM), 1, -1),
    "field_at r": ("point r", lambda x: field_at(GEOM, TE210, CylPoint(x, 0.5, 0.001)),
                   0.012, 0.013),
    "field_at phi": ("point phi",
                     lambda x: field_at(GEOM, TE210, CylPoint(0.006, x, 0.001)),
                     0.0, -0.1),
    "field_at z": ("point z", lambda x: field_at(GEOM, TE210, CylPoint(0.006, 0.5, x)),
                   0.001, 0.003),
    "sample_grid n_r": ("n_r", lambda x: sample_grid(GEOM, TE210, x, 3, 1), 2, 1),
    "sample_grid n_phi": ("n_phi", lambda x: sample_grid(GEOM, TE210, 3, x, 1), 2, 1),
    "sample_grid n_z": ("n_z", lambda x: sample_grid(GEOM, TE210, 3, 3, x), 2, 0),
    "sample_grid amplitude": ("amplitude", lambda x: sample_grid(
        GEOM, TE210, 3, 3, 1, amplitude=x), 2, -1.0),
    "boundary_residuals resolution": ("resolution", lambda x: boundary_residuals(
        GEOM, TE210, x), 8, 7),
    "FieldGrid amplitude": ("amplitude", lambda x: dataclasses.replace(
        GRID, amplitude=x), 1.0, 0.0),
    "load_grid_json amplitude": ("amplitude", lambda x: load_grid_json(_field_json(x)),
                                 0.5, 0.0),
    "FDProblem a": ("radius", lambda x: FDProblem(x, QUARTER, 16, 16), 1, -1.0),
    "FDProblem phi0": ("sector angle", lambda x: FDProblem(1.0, x, 16, 16),
                       2.0 * math.pi, 6.3),
    "FDProblem n_r": ("n_r", lambda x: FDProblem(1.0, QUARTER, x, 16), 16.0, 15),
    "FDProblem n_phi": ("n_phi", lambda x: FDProblem(1.0, QUARTER, 16, x), 17, 15),
    "fd_transverse_eigs count": ("count", lambda x: fd_transverse_eigs(FD16, x), 1, 0),
    "compare_modes count": ("count", lambda x: compare_modes(GEOM, x, 16), 1, 0),
    "compare_modes grid": ("n_r", lambda x: compare_modes(GEOM, 1, x), 16, 15),
    "point_sar sigma": ("conductivity", lambda x: point_sar(x, 1.0, 1000.0), 0, -0.1),
    "point_sar e_mag": ("field magnitude", lambda x: point_sar(1.0, x, 1000.0), 0.0, -1.0),
    "point_sar rho": ("mass density", lambda x: point_sar(1.0, 1.0, x), 1000, 0.0),
    "max_allowed_power p_in": ("input power", lambda x: max_allowed_power(x, 1.24, LIMIT),
                               1, 0.0),
    "max_allowed_power sar_achieved": (
        "achieved SAR", lambda x: max_allowed_power(1.0, x, LIMIT), 1.24, -1.24),
    "TissueGrid voxel_m": ("voxel edge", lambda x: TissueGrid(x, ONES, ONES, ONES),
                           1e100, 1.1e100),
    "TissueGrid p_in_w": ("reference power",
                          lambda x: TissueGrid(0.002, ONES, ONES, ONES, x), 2, 0.0),
    "TissueGrid.scaled_field factor": ("field factor", TISSUE.scaled_field, 0.0, -1.0),
    "averaged_sar mass_target_kg": ("mass target", lambda x: averaged_sar(TISSUE, x),
                                    0.001, 0.0),
    "tissue_grid_from_json voxel_m": (
        "voxel edge", lambda x: tissue_grid_from_json(_tissue_json(voxel_m=x)),
        0.002, -0.002),
    "tissue_grid_from_json p_in_w": (
        "reference power", lambda x: tissue_grid_from_json(_tissue_json(p_in_w=x)),
        1, 0),
    "tissue_grid_from_csv voxel_m": ("voxel edge", lambda x: _tissue_csv(voxel_m=x),
                                     1, 0.0),
    "tissue_grid_from_csv p_in_w": ("reference power", lambda x: _tissue_csv(p_in_w=x),
                                    0.5, -1.0),
    "SweepSpec start": ("sweep start", lambda x: SweepSpec(
        SweepParameter.RADIUS, x, 0.016, 3, (TE210,)), 0.008, 0.0),
    "SweepSpec stop": ("sweep stop", lambda x: SweepSpec(
        SweepParameter.RADIUS, 0.008, x, 3, (TE210,)), 0.016, -1.0),
    "SweepSpec steps": ("sweep steps", lambda x: SweepSpec(
        SweepParameter.RADIUS, 0.008, 0.016, x, (TE210,)), 2.0, 1),
    "solve_radius target_f_hz": ("target frequency", lambda x: solve_radius(
        GEOM, TE210, x, 0.006, 0.024), 6e9, -6e9),
    "solve_radius a_min": ("a_min", lambda x: solve_radius(
        GEOM, TE210, 6e9, x, 0.024), 0.006, 0.0),
    "solve_radius a_max": ("a_max", lambda x: solve_radius(
        GEOM, TE210, 6e9, 0.006, x), 0.024, -0.024),
}

# True passed as 1, "1" raised TypeError, nan and inf passed or came out
# as nan somewhere
BAD = (True, False, "1", None, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("case", CASES)
def test_every_argument_refuses_what_is_not_a_valid_number(case):
    what, call, good, out_of_range = CASES[case]
    call(good)
    for value in (*BAD, out_of_range):
        shown = str(value) if isinstance(value, (int, float)) \
            and not isinstance(value, bool) else repr(value)
        with pytest.raises(ValueError, match=rf"^{re.escape(what)} must be "
                                             rf".+, got {re.escape(shown)}$"):
            call(value)


# bessel_j(True, "2") was J_1(2), and a complex value raised TypeError
@pytest.mark.parametrize("call", (bessel_j, bessel_j_prime))
@pytest.mark.parametrize("bad", (True, np.array([[True, False]]), "2",
                                 np.array(["1", "2"]), np.array(2.0, dtype=object),
                                 np.array([1.0, None]), 1 + 0j,
                                 np.array([[1.0 + 2.0j]])))
def test_bessel_functions_refuse_what_is_not_a_real_array(call, bad):
    for what, args in (("order", (bad, 2.0)), ("argument", (1.0, bad))):
        with pytest.raises(ValueError, match=f"^bessel {what} must be a number, got "):
            call(*args)


# (name in the message, call taking the array, a good array, the elements
# that make an array bad). A field grid component may be complex and hold
# NaN and inf; the other arrays are real with every element finite and in
# range, the last element of each tuple being a number out of range
NOT_REAL = (True, "1", None, 1.0 + 2.0j)
NOT_FINITE = (math.nan, math.inf, -math.inf)
ARRAY_CASES = {
    "bessel_j v": ("bessel order", lambda x: bessel_j(x, 2.0), np.array([0.0, 1.5, 3.0]),
                   (*NOT_REAL, *NOT_FINITE, -1.0)),
    "bessel_j x": ("bessel argument", lambda x: bessel_j(1.5, x), np.array([[0.0, 2.0]]),
                   (*NOT_REAL, *NOT_FINITE, -2.0)),
    "bessel_j_prime v": ("bessel order", lambda x: bessel_j_prime(x, 2.0),
                         np.array([1.0, 2.5]), (*NOT_REAL, *NOT_FINITE, -0.5)),
    "bessel_j_prime x": ("bessel argument", lambda x: bessel_j_prime(1.5, x),
                         np.array([0.5, 2.0]), (*NOT_REAL, *NOT_FINITE, -1.0)),
    "TissueGrid sigma": ("conductivity", lambda x: TissueGrid(0.003, x, ONES, ONES),
                         0.0 * ONES, (*NOT_REAL, *NOT_FINITE, -0.1)),
    "TissueGrid rho": ("mass density", lambda x: TissueGrid(0.003, ONES, x, ONES),
                       1000.0 * ONES, (*NOT_REAL, *NOT_FINITE, 0.0)),
    "TissueGrid e_mag": ("field magnitude", lambda x: TissueGrid(0.003, ONES, ONES, x),
                         ONES, (*NOT_REAL, *NOT_FINITE, -1.0)),
    "FieldGrid r": ("field grid axis r", lambda x: dataclasses.replace(GRID, r=x),
                    GRID.r, (*NOT_REAL, *NOT_FINITE, -0.001)),
    "FieldGrid phi": ("field grid axis phi", lambda x: dataclasses.replace(GRID, phi=x),
                      GRID.phi, (*NOT_REAL, *NOT_FINITE, -0.1)),
    "FieldGrid z": ("field grid axis z", lambda x: dataclasses.replace(GRID, z=x),
                    GRID.z, (*NOT_REAL, *NOT_FINITE, -1e-3)),
    "FieldGrid H_z": ("field grid component H_z", lambda x: dataclasses.replace(
        GRID, H_z=x), GRID.H_z, NOT_REAL[:3]),
}


def _with_last(values, element):
    """`values` in the dtype numpy gives `element`, with that as its last."""
    out = values.astype(np.array(element).dtype)
    out.flat[-1] = element
    return out


@pytest.mark.parametrize("case", ARRAY_CASES)
def test_every_array_argument_refuses_what_is_not_a_valid_number_array(case):
    # a string, bool or complex array was read as its numbers by numpy's
    # float conversion, where TissueGrid and the FieldGrid axes took it;
    # the axes took NaN and inf too
    what, call, good, bad_elements = ARRAY_CASES[case]
    call(good)
    for element in bad_elements:
        for bad in (_with_last(np.array(good.flat[-1]), element), _with_last(good, element)):
            with pytest.raises(ValueError, match=rf"^{re.escape(what)} must be .+, got "):
                call(bad)

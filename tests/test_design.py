import math

import numpy as np
import pytest

from sectordra import (
    C_LIGHT,
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    SweepParameter,
    SweepSpec,
    resonant_frequency,
    solve_radius,
    sweep,
)

TE210 = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
EH110 = ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(SweepParameter.RADIUS, 0.016, 0.008, 5, (TE210,))
    with pytest.raises(ValueError):
        SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 1, (TE210,))
    with pytest.raises(ValueError):
        SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 5, ())
    # a fractional, non-finite or oversized step count is a ValueError
    # before values() would meet it
    for steps in (2.5, math.nan, math.inf, 10_001, 10 ** 400):
        with pytest.raises(ValueError, match="steps"):
            SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, steps, (TE210,))
    assert len(SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 10_000,
                         (TE210,)).values()) == 10_000
    # a bool radial index made a sweep of mode n = 1
    with pytest.raises(ValueError, match="radial index"):
        SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 5,
                  (ModeSpec.derived(ModeFamily.TE, 1, True, 0, math.pi / 2.0),))
    spec = SweepSpec("radius", 0.008, 0.016, 3, (TE210,))
    assert spec.parameter is SweepParameter.RADIUS
    assert spec.values() == [0.008, 0.012, 0.016]


def test_radius_sweep_decreasing(table1):
    spec = SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 17, (TE210, EH110))
    rows = sweep(table1, spec)
    assert len(rows) == 17 * 2
    for mode in (TE210, EH110):
        fs = [r.f_hz for r in rows if r.mode.v == mode.v]
        assert len(fs) == 17
        assert all(a > b for a, b in zip(fs, fs[1:]))


def test_row_ordering(table1):
    spec = SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 2, (TE210, EH110))
    rows = sweep(table1, spec)
    assert len(rows) == 4
    assert [r.mode.v for r in rows] == [2.0, 1.0, 2.0, 1.0]
    assert rows[0].value == 0.008
    assert rows[2].value == 0.016


def test_eps_sweep_halving(table1):
    spec = SweepSpec(SweepParameter.EPS_R, 12.85, 4.0 * 12.85, 2,
                     (TE210, EH110))
    rows = sweep(table1, spec)
    for k in range(2):
        assert rows[2 + k].f_hz == pytest.approx(rows[k].f_hz / 2.0,
                                                 rel=1e-12)


def test_height_sweep_moves_p1_only(table1):
    p1 = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 1)
    spec = SweepSpec(SweepParameter.HEIGHT, 0.002, 0.004, 3, (TE210, p1))
    rows = sweep(table1, spec)
    flat = [r.f_hz for r in rows if r.mode.p == 0]
    moving = [r.f_hz for r in rows if r.mode.p == 1]
    assert flat[0] == flat[1] == flat[2]
    assert moving[0] > moving[1] > moving[2]


def test_sector_sweep_rederives_order(table1):
    derived = ModeSpec.derived(ModeFamily.TE, 1, 1, 0, table1.phi0)
    spec = SweepSpec(SweepParameter.SECTOR_ANGLE, math.pi / 2.0, math.pi, 2,
                     (derived,))
    rows = sweep(table1, spec)
    assert rows[0].mode.v == pytest.approx(2.0, rel=1e-15)
    assert rows[1].mode.v == pytest.approx(1.0, rel=1e-15)
    # wider sector, lower order, lower frequency
    assert rows[1].f_hz < rows[0].f_hz


def test_invalid_step_names_offender(table1):
    spec = SweepSpec(SweepParameter.EPS_R, 0.5, 2.0, 4, (TE210,))
    with pytest.raises(ValueError, match="step 0"):
        sweep(table1, spec)


def test_sweep_deterministic(table1):
    spec = SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 9, (TE210,))
    first = [r.f_hz for r in sweep(table1, spec)]
    second = [r.f_hz for r in sweep(table1, spec)]
    assert first == second


def test_solve_radius_anchor(table1):
    a = solve_radius(table1, TE210, 6.117e9, 0.006, 0.024)
    assert a == pytest.approx(0.012, rel=1e-3)


def test_solve_radius_halved_target_doubles_radius(table1):
    f = resonant_frequency(table1, TE210)
    a2 = solve_radius(table1, TE210, f / 2.0, 0.006, 0.060)
    assert a2 == pytest.approx(2.0 * table1.a, rel=1e-8)


def test_solve_radius_round_trip(table1):
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        a_true = float(rng.uniform(0.004, 0.040))
        geom = SectorGeometry.quarter(a=a_true,
                                      h=float(rng.uniform(0.001, 0.010)),
                                      eps_r=float(rng.uniform(2.0, 40.0)))
        mode = ModeSpec.derived(ModeFamily.TE, int(rng.integers(1, 4)),
                                int(rng.integers(1, 3)), 0, geom.phi0)
        f = resonant_frequency(geom, mode)
        a_back = solve_radius(geom, mode, f, 0.5 * a_true, 2.0 * a_true)
        assert a_back == pytest.approx(a_true, rel=1e-8)


def test_solve_radius_bracket_errors(table1):
    with pytest.raises(ValueError):
        solve_radius(table1, TE210, 1e9, 0.010, 0.012)  # target below range
    with pytest.raises(ValueError):
        solve_radius(table1, TE210, 1e12, 0.010, 0.012)  # target above range
    with pytest.raises(ValueError):
        solve_radius(table1, TE210, 6e9, 0.012, 0.012)
    with pytest.raises(ValueError):
        solve_radius(table1, TE210, -1.0, 0.006, 0.024)


def test_solve_radius_extreme_bracket_ends(table1):
    # only the closed-form radius is checked against the bracket; the
    # frequency at a far end (1e297 m, 1e-320 m) is never evaluated
    for a_min, a_max in ((0.006, 1e297), (1e-320, 0.024), (1e-320, 1e297)):
        a = solve_radius(table1, TE210, 6.117e9, a_min, a_max)
        assert a == pytest.approx(0.012, rel=1e-3)
    with pytest.raises(ValueError, match="outside"):
        solve_radius(table1, TE210, 6.117e9, 0.013, 1e297)


@pytest.mark.parametrize("target", [math.nan, math.inf, 0.0])
def test_solve_radius_rejects_non_finite_target(table1, target):
    with pytest.raises(ValueError,
                       match="target frequency must be positive and finite"):
        solve_radius(table1, TE210, target, 0.006, 0.024)


def test_solve_radius_with_axial_index(table1):
    # p = 1 adds a radius-independent k_z, which the closed form subtracts
    mode = ModeSpec.explicit(ModeFamily.TE, 2.0, 2, 1)
    f = resonant_frequency(table1, mode)
    a = solve_radius(table1, mode, f, 0.006, 0.024)
    assert a == pytest.approx(table1.a, rel=1e-13)
    # no radius reaches a target at or below the axial cutoff c k_z / 2 pi n
    cutoff = C_LIGHT / (2.0 * table1.h * math.sqrt(table1.eps_r))
    for target in (cutoff, 0.5 * cutoff):
        with pytest.raises(ValueError, match="at or below the axial cutoff"):
            solve_radius(table1, mode, target, 0.006, 0.024)

import math
import re

import pytest

import sectordra
from sectordra import modal
from sectordra import (
    C_LIGHT,
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    azimuthal_order,
    bessel_zero,
    enumerate_modes,
    geometry_from_json,
    mode_from_json,
    resonant_frequency,
    wavenumbers,
)


def test_azimuthal_order():
    assert azimuthal_order(1, math.pi / 2.0) == pytest.approx(2.0, rel=1e-15)
    assert azimuthal_order(2, math.pi / 2.0) == pytest.approx(4.0, rel=1e-15)
    assert azimuthal_order(0, math.pi) == 0.0
    with pytest.raises(ValueError):
        azimuthal_order(-1, math.pi / 2.0)
    with pytest.raises(ValueError):
        azimuthal_order(1, 0.0)
    with pytest.raises(ValueError):  # float(m) would overflow
        azimuthal_order(10 ** 400, math.pi / 2.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SectorGeometry(a=0.0, h=0.01, phi0=1.0, eps_r=10.0)
    with pytest.raises(ValueError):
        SectorGeometry(a=0.01, h=-0.01, phi0=1.0, eps_r=10.0)
    with pytest.raises(ValueError):
        SectorGeometry(a=0.01, h=0.01, phi0=7.0, eps_r=10.0)
    with pytest.raises(ValueError):
        SectorGeometry(a=0.01, h=0.01, phi0=1.0, eps_r=0.5)
    # Python takes True for 1, so each of these built a geometry
    good = dict(a=0.012, h=0.00254, phi0=math.pi / 2.0, eps_r=12.85)
    for key, what in (("a", "radius"), ("h", "height"), ("phi0", "sector angle"),
                      ("eps_r", "relative permittivity")):
        with pytest.raises(ValueError, match=f"^{what} must be a number, got True$"):
            SectorGeometry(**dict(good, **{key: True}))


def test_mode_validation():
    with pytest.raises(ValueError):
        ModeSpec.explicit(ModeFamily.TE, 1.0, 0, 0)
    with pytest.raises(ValueError):
        ModeSpec.explicit(ModeFamily.TE, 1.0, 1, -1)
    with pytest.raises(ValueError):
        ModeSpec.explicit(ModeFamily.TE, -1.0, 1, 0)
    # indices too large for a float are rejected, not left to overflow
    with pytest.raises(ValueError):
        ModeSpec.explicit(ModeFamily.TE, 1.0, 10 ** 400, 0)
    with pytest.raises(ValueError):
        ModeSpec.explicit(ModeFamily.TE, 1.0, 1, 10 ** 400)
    with pytest.raises(ValueError):
        ModeSpec(ModeFamily.TE, 1.0, 1, 0, m=10 ** 400)
    # nor are bools, which Python takes for 0 and 1
    for args in ((True, 1, 0), (2.0, True, 0), (2.0, 1, False)):
        with pytest.raises(ValueError):
            ModeSpec(ModeFamily.TE, *args)
    with pytest.raises(ValueError, match="^azimuthal index must be an integer >= 0, got True$"):
        ModeSpec(ModeFamily.TE, 2.0, 1, 0, m=True)
    with pytest.raises(ValueError, match="family must be a ModeFamily, got 'TE'"):
        ModeSpec("TE", 2.0, 1, 0)
    with pytest.raises(ValueError):
        azimuthal_order(True, math.pi / 2.0)
    with pytest.raises(ValueError):
        bessel_zero(1.0, True)


def test_te210_anchor(table1):
    mode = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
    f = resonant_frequency(table1, mode)
    assert f == pytest.approx(6.12e9, rel=0.005)
    # the derived route lands on the same mode for the quarter sector
    derived = ModeSpec.derived(ModeFamily.TE, 1, 1, 0, table1.phi0)
    assert derived.v == pytest.approx(2.0, rel=1e-15)
    assert resonant_frequency(table1, derived) == pytest.approx(f, rel=1e-14)


def test_eh110_anchor(table1):
    mode = ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0)
    f = resonant_frequency(table1, mode)
    assert f == pytest.approx(4.39e9, rel=0.005)


def test_wavenumber_components(table1):
    mode = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
    wn = wavenumbers(table1, mode)
    assert wn.k_r == pytest.approx(bessel_zero(2.0, 1) / table1.a, rel=1e-15)
    assert wn.k_phi == pytest.approx(2.0 / table1.a, rel=1e-15)
    assert wn.k_z == 0.0
    assert wn.k == pytest.approx(math.hypot(wn.k_r, wn.k_phi), rel=1e-15)
    # representative magnitudes of the three components
    assert wn.k_r == pytest.approx(427.97, rel=1e-3)
    assert wn.k_phi == pytest.approx(166.67, rel=1e-3)
    p1 = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 1)
    assert wavenumbers(table1, p1).k_z == pytest.approx(math.pi / table1.h, rel=1e-15)


def test_frequency_formula(table1):
    mode = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
    wn = wavenumbers(table1, mode)
    expect = C_LIGHT / (2.0 * math.pi * math.sqrt(table1.eps_r)) * wn.k
    assert resonant_frequency(table1, mode) == expect


def test_radius_doubling_halves_frequency(table1):
    # p = 0 removes the height term, leaving pure 1/a scaling
    mode = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
    doubled = SectorGeometry(a=2.0 * table1.a, h=table1.h,
                             phi0=table1.phi0, eps_r=table1.eps_r)
    assert resonant_frequency(doubled, mode) == resonant_frequency(table1, mode) / 2.0


def test_eps_quadrupling_halves_frequency(table1):
    mode = ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0)
    denser = SectorGeometry(a=table1.a, h=table1.h, phi0=table1.phi0,
                            eps_r=4.0 * table1.eps_r)
    f1 = resonant_frequency(table1, mode)
    f4 = resonant_frequency(denser, mode)
    assert f4 == pytest.approx(f1 / 2.0, rel=1e-12)


def test_out_of_range_wavenumbers_are_rejected(table1):
    # k_r^2 underflowing, k overflowing through k_r, and through k_z; the
    # frequency used to read 0.0 or inf
    te211 = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 1)
    for a, h in ((1e297, table1.h), (1e-160, table1.h), (1e-323, table1.h),
                 (table1.a, 1e-323)):
        geom = SectorGeometry(a=a, h=h, phi0=table1.phi0, eps_r=table1.eps_r)
        with pytest.raises(ValueError, match="out of floating-point range"):
            wavenumbers(geom, te211)
        with pytest.raises(ValueError, match="out of floating-point range"):
            resonant_frequency(geom, te211)
    # inside the range the 1/a scaling holds, even at eps_r = 1e300
    te210 = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
    f1 = resonant_frequency(SectorGeometry(a=1.0, h=1.0, phi0=table1.phi0,
                                           eps_r=1e300), te210)
    for a in (1e150, 1e-150):
        geom = SectorGeometry(a=a, h=1.0, phi0=table1.phi0, eps_r=1e300)
        assert resonant_frequency(geom, te210) == pytest.approx(f1 / a, rel=1e-14)


def test_mode_geometry_mismatch(table1):
    # a derived mode carries its source sector angle along
    other = ModeSpec.derived(ModeFamily.TE, 1, 1, 0, math.pi / 3.0)
    with pytest.raises(ValueError):
        resonant_frequency(table1, other)


def test_enumerate_below_seven_ghz(table1):
    found = enumerate_modes(table1, 7e9, m_max=4, n_max=4, p_max=1)
    labels = [(mode.family, mode.v, mode.n, mode.p) for mode, _ in found]
    freqs = [f for _, f in found]
    assert labels == [
        (ModeFamily.TE, 0.0, 1, 0),
        (ModeFamily.EH, 1.0, 1, 0),
        (ModeFamily.TE, 2.0, 1, 0),
        (ModeFamily.TE, 0.0, 2, 0),
    ]
    assert freqs == sorted(freqs)
    assert freqs[1] == pytest.approx(4.392e9, rel=1e-3)
    assert freqs[2] == pytest.approx(6.113e9, rel=1e-3)
    assert all(f <= 7e9 for f in freqs)


def test_enumerate_empty_below_cutoff(table1):
    assert enumerate_modes(table1, 1e6, m_max=4, n_max=4, p_max=1) == []


def test_enumerate_no_duplicate_orders(table1):
    # explicit integer orders that the derived family already covers
    # appear once
    found = enumerate_modes(table1, 2e10, m_max=4, n_max=2, p_max=0)
    seen = [(mode.v, mode.n, mode.p) for mode, _ in found]
    assert len(seen) == len(set(seen))


def _enumerate_every_candidate(geom, f_max, m_max, n_max, p_max):
    # the unbounded loop over every index, kept as reference
    entries = []
    derived = [azimuthal_order(m, geom.phi0) for m in range(m_max + 1)]
    for m in range(m_max + 1):
        for n in range(1, n_max + 1):
            for p in range(p_max + 1):
                entries.append(ModeSpec.derived(ModeFamily.TE, m, n, p,
                                                geom.phi0))
    for v in range(1, m_max + 1):
        if all(abs(v - d) > 1e-9 for d in derived):
            entries += [ModeSpec.explicit(ModeFamily.EH, float(v), n, p)
                        for n in range(1, n_max + 1) for p in range(p_max + 1)]
    found = [(mode, resonant_frequency(geom, mode)) for mode in entries]
    return sorted(((mode, f) for mode, f in found if f <= f_max),
                  key=lambda item: (item[1], item[0].m if item[0].m is not None
                                    else int(round(item[0].v)),
                                    item[0].n, item[0].p))


@pytest.mark.parametrize("phi0", [0.3, math.pi / 3.0, math.pi / 2.0, 2.0,
                                  math.pi, 2.0 * math.pi])
@pytest.mark.parametrize("f_max", [3e9, 9e9, 2.5e10])
def test_enumerate_matches_every_candidate(phi0, f_max):
    geom = SectorGeometry(a=0.012, h=0.00254, phi0=phi0, eps_r=12.85)
    bounds = dict(m_max=5, n_max=4, p_max=2)
    assert enumerate_modes(geom, f_max, **bounds) == \
        _enumerate_every_candidate(geom, f_max, **bounds)


def test_enumerate_cost_follows_the_cutoff(table1):
    # index bounds far above the cutoff: each loop stops at its first mode
    # above f_max, so only a handful of zeros are computed
    modal._zero.cache_clear()
    found = enumerate_modes(table1, 7e9, m_max=2_000_000, n_max=2_000_000,
                            p_max=2_000_000)
    assert modal._zero.cache_info().misses <= 10
    assert found == enumerate_modes(table1, 7e9, m_max=6, n_max=6, p_max=2)


def test_enumerate_caps_the_mode_count():
    # a half disk lists orders 0 and 1 once each (the explicit v = 1 is a
    # derived order), so p = 0..499 gives exactly the 1000 modes allowed
    half = SectorGeometry(a=0.012, h=0.00254, phi0=math.pi, eps_r=12.85)
    assert len(enumerate_modes(half, 1e14, m_max=1, n_max=1, p_max=499)) == 1000
    with pytest.raises(ValueError, match="more than 1000 modes"):
        enumerate_modes(half, 1e14, m_max=1, n_max=1, p_max=500)
    with pytest.raises(ValueError, match="more than 1000 modes"):
        enumerate_modes(half, 1e300, m_max=1, n_max=1, p_max=10 ** 9)


_TE210 = ModeSpec.derived(ModeFamily.TE, 1, 1, 0, math.pi / 2.0)


@pytest.mark.parametrize("call", [
    lambda g, n: sectordra.fd_transverse_eigs(
        sectordra.FDProblem(a=g.a, phi0=g.phi0, n_r=n(16), n_phi=n(16)), 3),
    lambda g, n: sectordra.compare_modes(g, n(3), n(64)),
    lambda g, n: sectordra.sample_grid(g, _TE210, n(9), n(9), n(9)),
    lambda g, n: sectordra.boundary_residuals(g, _TE210, n(16)),
    lambda g, n: sectordra.sweep(g, sectordra.SweepSpec(
        "radius", 0.01, 0.012, n(3), (_TE210,))),
    lambda g, n: enumerate_modes(g, 1e10, n(2), n(2), n(1)),
], ids=["fd_transverse_eigs", "compare_modes", "sample_grid",
        "boundary_residuals", "sweep", "enumerate_modes"])
def test_whole_float_counts_act_as_ints(table1, call):
    # is_index takes 16.0 for 16, so every count it admits must work as one
    assert repr(call(table1, float)) == repr(call(table1, int))


def test_mode_json_rejects_non_integer_indices(table1):
    # n, p and m are checked, not truncated through int()
    for key, value in (("n", 1.5), ("p", 0.7), ("n", 0), ("p", -1),
                       ("n", 10 ** 400), ("n", True), ("n", "1")):
        doc = {"family": "TE", "v": 2.0, "n": 1, "p": 0, key: value}
        with pytest.raises(ValueError):
            mode_from_json(doc, table1)
    for m in (1.5, -1, 10 ** 400):
        with pytest.raises(ValueError, match="azimuthal index"):
            mode_from_json({"family": "TE", "m": m, "n": 1, "p": 0}, table1)
    mode = mode_from_json({"family": "TE", "v": 2.0, "n": 2.0, "p": 1.0}, table1)
    assert (mode.n, mode.p) == (2, 1) and type(mode.n) is int


def test_geometry_json_round_trip():
    doc = {"radius_mm": 12.0, "height_mm": 2.54, "sector_deg": 90.0,
           "eps_r": 12.85}
    geom = geometry_from_json(doc)
    assert geom.a == pytest.approx(0.012, rel=1e-15)
    assert geom.h == pytest.approx(0.00254, rel=1e-15)
    assert geom.phi0 == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert geom.eps_r == 12.85


def test_geometry_json_rejects_bad_docs():
    good = {"radius_mm": 12.0, "height_mm": 2.54, "sector_deg": 90.0,
            "eps_r": 12.85}
    with pytest.raises(ValueError):
        geometry_from_json({**good, "extra": 1.0})
    missing = dict(good)
    del missing["height_mm"]
    with pytest.raises(ValueError):
        geometry_from_json(missing)
    with pytest.raises(ValueError):
        geometry_from_json({**good, "eps_r": True})
    with pytest.raises(ValueError):
        geometry_from_json([1, 2, 3])


def test_mode_json_v_precedence(table1):
    doc = {"family": "TE", "v": 2.0, "m": 3, "n": 1, "p": 0}
    mode = mode_from_json(doc, table1)
    assert mode.v == 2.0
    assert mode.m is None
    derived = mode_from_json({"family": "TE", "m": 1, "n": 1, "p": 0}, table1)
    assert derived.v == pytest.approx(2.0, rel=1e-15)
    assert derived.m == 1
    with pytest.raises(ValueError):
        mode_from_json({"family": "TM", "v": 1.0, "n": 1, "p": 0}, table1)
    with pytest.raises(ValueError):
        mode_from_json({"family": "TE", "n": 1, "p": 0}, table1)
    with pytest.raises(ValueError):
        mode_from_json({"family": "TE", "v": 1.0, "n": 1, "p": 0, "q": 2},
                       table1)
    for doc, message in (([1.0, 1, 0], "mode document must be an object, got list"),
                         ({"v": 1.0, "n": 1, "p": 0}, "needs a 'family' key"),
                         ({"family": "EH", "v": 1.0, "p": 0}, "needs an 'n' key")):
        with pytest.raises(ValueError, match=re.escape(message)):
            mode_from_json(doc, table1)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sectordra import (
    AveragingMass,
    LimitKind,
    SarStandard,
    TissueGrid,
    averaged_sar,
    limit_lookup,
    max_allowed_power,
    point_sar,
    tissue_grid_from_csv,
    tissue_grid_from_json,
)
from sectordra import sar

from oracles import averaged_sar_brute


def _random_grid(seed=20240817, shape=(8, 8, 8), voxel=0.004):
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.2, 2.0, shape)
    rho = rng.uniform(900.0, 1100.0, shape)
    e_mag = rng.uniform(0.0, 80.0, shape)
    return TissueGrid(voxel, sigma, rho, e_mag, p_in_w=1.0)


def test_point_sar():
    assert point_sar(1.0, 1.0, 1000.0) == 0.001
    assert point_sar(0.8, 20.0, 1050.0) == pytest.approx(0.8 * 400.0 / 1050.0,
                                                         rel=1e-15)
    with pytest.raises(ValueError):
        point_sar(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        point_sar(-0.1, 1.0, 1000.0)
    with pytest.raises(ValueError):
        point_sar(1.0, -1.0, 1000.0)
    # e_mag ** 2 raised OverflowError, and the second came out as inf
    for args in ((1.0, 1e200, 1e-10), (1e300, 1e10, 1e-300)):
        with pytest.raises(ValueError, match="out of floating-point range$"):
            point_sar(*args)


def test_limit_table():
    assert limit_lookup(SarStandard.IEEE_C95_1, AveragingMass.ONE_G).value == 1.6
    assert limit_lookup("ieee", "10g").value == 2.0
    assert limit_lookup("ieee", "1g", "peak").value == 4.0
    assert limit_lookup("ecc", "1g").value == 1.6
    assert limit_lookup("ecc", "10g", LimitKind.AVERAGE).value == 2.0
    # the table is closed: no invented rows
    with pytest.raises(ValueError):
        limit_lookup("ecc", "10g", "peak")
    with pytest.raises(ValueError):
        limit_lookup("fcc", "1g")
    with pytest.raises(ValueError):
        limit_lookup("ieee", "5g")


def test_power_budget_anchor():
    limit = limit_lookup("ieee", "10g")
    p = max_allowed_power(1.0, 53.3, limit)
    assert p == pytest.approx(0.0375, rel=0.002)
    p2 = max_allowed_power(1.0, 1.24, limit)
    assert p2 == pytest.approx(1.613, rel=1e-3)
    with pytest.raises(ValueError):
        max_allowed_power(0.0, 53.3, limit)
    with pytest.raises(ValueError):
        max_allowed_power(1.0, -2.0, limit)


def test_power_budget_out_of_range_is_rejected():
    # the ratio used to come out as inf, or as 0.0
    limit = limit_lookup("ieee", "1g")
    for p_in, sar in ((1e308, 1e-308), (1e-308, 1e308)):
        with pytest.raises(ValueError, match="out of floating-point range"):
            max_allowed_power(p_in, sar, limit)


def test_budget_scales_linearly_in_pin():
    limit = limit_lookup("ieee", "10g")
    assert max_allowed_power(2.0, 53.3, limit) == \
        2.0 * max_allowed_power(1.0, 53.3, limit)


def test_tissue_grid_validation():
    ones = np.ones((2, 2, 2))
    with pytest.raises(ValueError):
        TissueGrid(0.0, ones, 1000.0 * ones, ones)
    with pytest.raises(ValueError):
        TissueGrid(0.001, ones, 0.0 * ones, ones)
    with pytest.raises(ValueError):
        TissueGrid(0.001, -ones, 1000.0 * ones, ones)
    with pytest.raises(ValueError):
        TissueGrid(0.001, ones, 1000.0 * ones, -ones)
    with pytest.raises(ValueError):
        TissueGrid(0.001, ones, np.ones((2, 2)), ones)
    with pytest.raises(ValueError):  # the voxel volume would overflow
        TissueGrid(1e200, ones, 1000.0 * ones, ones)
    # NaN slips past a sign test, so non-finite values are checked first
    for bad in (math.nan, math.inf):
        spoiled = ones.copy()
        spoiled[1, 0, 1] = bad
        with pytest.raises(ValueError, match="conductivity must be finite"):
            TissueGrid(0.001, spoiled, 1000.0 * ones, ones)
        with pytest.raises(ValueError, match="mass density must be finite"):
            TissueGrid(0.001, ones, 1000.0 * spoiled, ones)
        with pytest.raises(ValueError, match="field magnitude must be finite"):
            TissueGrid(0.001, ones, 1000.0 * ones, spoiled)


def test_overflowing_sar_is_rejected():
    ones = np.ones((2, 2, 2))
    grid = TissueGrid(0.004, ones, 1000.0 * ones, 1e160 * ones)
    with pytest.raises(ValueError, match="not a finite value"):
        averaged_sar(grid, 0.0001)
    # the voxel masses overflow: numpy warned before the refusal
    grid = TissueGrid(1e100, ones, 1e10 * ones, ones)
    with pytest.raises(ValueError, match="grid mass inf kg is not finite"):
        averaged_sar(grid, 0.001)


def test_tissue_grid_holds_read_only_copies():
    # a density written after construction reached averaged_sar unchecked:
    # -1e6 kg/m^3 in one voxel gave "grid holds -0.937 kg"
    ones = np.ones((4, 4, 4))
    sigma, rho, e_mag = ones.copy(), 1000.0 * ones, ones.copy()
    grid = TissueGrid(0.002, sigma, rho, e_mag)
    before = averaged_sar(grid, 0.0001)
    rho[0, 0, 0] = -1e6
    for arr in (sigma, e_mag):
        arr *= 2.0
    assert averaged_sar(grid, 0.0001) == before
    for name, arr in (("sigma", sigma), ("rho", rho), ("e_mag", e_mag)):
        held = getattr(grid, name)
        assert not np.shares_memory(held, arr)
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0, 0] = 1.0


def test_matches_brute_force_exactly():
    grid = _random_grid()
    result = averaged_sar(grid, 0.001)
    peak, idx = averaged_sar_brute(grid.sigma, grid.rho, grid.e_mag,
                                   grid.voxel_m, 0.001)
    assert result.peak_avg_w_per_kg == peak
    assert result.center_index == idx
    # again at the 10 g mass
    result10 = averaged_sar(grid, 0.010)
    peak10, idx10 = averaged_sar_brute(grid.sigma, grid.rho, grid.e_mag,
                                       grid.voxel_m, 0.010)
    assert result10.peak_avg_w_per_kg == peak10
    assert result10.center_index == idx10


def test_uniform_grid_ties_break_low():
    grid = TissueGrid(0.004, np.full((4, 4, 4), 0.7),
                      np.full((4, 4, 4), 1000.0), np.full((4, 4, 4), 30.0))
    # a single-voxel mass target makes every center's average bitwise
    # identical, a genuine tie, so the first voxel must win
    one_voxel = 1000.0 * 0.004 ** 3
    result = averaged_sar(grid, one_voxel)
    assert result.center_index == 0
    assert result.center == (0, 0, 0)
    assert result.peak_avg_w_per_kg == pytest.approx(
        point_sar(0.7, 30.0, 1000.0), rel=1e-12)
    # with boundary clipping the averages differ in the last ulp and the
    # winner is whatever the exhaustive oracle picks
    result_1g = averaged_sar(grid, 0.001)
    peak, idx = averaged_sar_brute(grid.sigma, grid.rho, grid.e_mag,
                                   grid.voxel_m, 0.001)
    assert result_1g.peak_avg_w_per_kg == peak
    assert result_1g.center_index == idx


def test_widths_no_center_can_reach_are_skipped(monkeypatch):
    # 27 voxels (w = 1) hold less than the target however they are summed,
    # so the table is differenced from w = 2 on, where the uniform grid's
    # 125-voxel cubes reach it
    widths = []
    real = sar._cube_sums
    monkeypatch.setattr(sar, "_cube_sums",
                        lambda table, w: widths.append(w) or real(table, w))
    grid = _random_grid(shape=(6, 6, 6), voxel=0.002)
    grid = TissueGrid(grid.voxel_m, grid.sigma, np.full(grid.shape, 1000.0),
                      grid.e_mag)
    target = 40 * 1000.0 * 0.002 ** 3
    result = averaged_sar(grid, target)
    assert min(widths) == 2
    peak, idx = averaged_sar_brute(grid.sigma, grid.rho, grid.e_mag,
                                   grid.voxel_m, target)
    assert (result.peak_avg_w_per_kg, result.center_index) == (peak, idx)


@st.composite
def _tissue_and_target(draw):
    """Small grids, uniform or not, with targets that often equal a cube's
    mass exactly, so the table bounds must defer to the exact slice sums."""
    shape = draw(st.tuples(*[st.integers(1, 7)] * 3))
    voxel = draw(st.sampled_from([0.002, 0.004, 0.01]))

    def field(lo, hi):
        if draw(st.booleans()):
            return np.full(shape, draw(st.floats(lo, hi)))
        return draw(hnp.arrays(float, shape, elements=st.floats(lo, hi)))

    sigma = field(0.0, 2.0)
    rho = field(500.0, 2000.0)
    e_mag = np.zeros(shape) if draw(st.booleans()) else field(0.0, 100.0)
    mass = rho * voxel ** 3
    kind = draw(st.sampled_from(["voxel", "cube", "fraction", "total"]))
    if kind == "voxel":
        target = float(mass.flat[draw(st.integers(0, mass.size - 1))])
    elif kind == "cube":
        center = [draw(st.integers(0, n - 1)) for n in shape]
        w = draw(st.integers(0, max(shape)))
        cube = tuple(slice(max(0, c - w), c + w + 1) for c in center)
        target = float(np.sum(mass[cube]))
    elif kind == "fraction":
        target = draw(st.floats(1e-3, 1.0)) * float(mass.sum())
    else:
        target = float(mass.sum())
    return TissueGrid(voxel, sigma, rho, e_mag), target


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_tissue_and_target())
def test_matches_brute_force_on_random_grids(case):
    grid, target = case
    result = averaged_sar(grid, target)
    peak, idx = averaged_sar_brute(grid.sigma, grid.rho, grid.e_mag,
                                   grid.voxel_m, target)
    assert result.peak_avg_w_per_kg == peak
    assert result.center_index == idx


@pytest.mark.parametrize("mass", [0.001, 0.010])
def test_large_grid_peak_is_consistent(mass):
    # 64^3 is out of the brute oracle's reach; check what holds regardless
    grid = _random_grid(seed=64, shape=(64, 64, 64), voxel=0.002)
    result = averaged_sar(grid, mass)
    psar = grid.sigma * grid.e_mag ** 2 / grid.rho
    assert psar.min() <= result.peak_avg_w_per_kg <= psar.max()
    ix, iy, iz = result.center
    assert 0 <= result.center_index < psar.size
    assert result.center_index == (ix * 64 + iy) * 64 + iz
    # the winning center's own cube, grown as the brute oracle grows it
    voxel_mass = grid.rho * grid.voxel_m ** 3
    for w in range(64):
        cube = tuple(slice(max(0, c - w), c + w + 1) for c in result.center)
        m = np.sum(voxel_mass[cube])
        if m >= mass:
            break
    assert result.peak_avg_w_per_kg == np.sum((psar * voxel_mass)[cube]) / m


def test_field_scaling_scales_sar():
    grid = _random_grid()
    base = averaged_sar(grid, 0.001).peak_avg_w_per_kg
    s = 3.0
    scaled = averaged_sar(grid.scaled_field(math.sqrt(s)), 0.001)
    assert scaled.peak_avg_w_per_kg == pytest.approx(s * base, rel=1e-12)


def test_full_mass_average_is_weighted_mean():
    grid = _random_grid(seed=5, shape=(5, 5, 5))
    mass = grid.rho * grid.voxel_m ** 3
    total = float(mass.sum())
    expect = float((grid.sigma * grid.e_mag ** 2 / grid.rho * mass).sum()
                   / mass.sum())
    result = averaged_sar(grid, total)
    assert result.peak_avg_w_per_kg == pytest.approx(expect, rel=1e-12)


def test_budget_identity():
    # scale fields for the allowed power and land exactly on the limit
    grid = _random_grid(seed=11)
    limit = limit_lookup("ieee", "10g")
    sar0 = averaged_sar(grid, 0.010).peak_avg_w_per_kg
    p_max = max_allowed_power(grid.p_in_w, sar0, limit)
    rescaled = grid.scaled_field(math.sqrt(p_max / grid.p_in_w))
    assert averaged_sar(rescaled, 0.010).peak_avg_w_per_kg == pytest.approx(
        limit.value, rel=1e-12)


def test_insufficient_mass():
    grid = TissueGrid(0.001, np.ones((2, 2, 2)), np.full((2, 2, 2), 1000.0),
                      np.ones((2, 2, 2)))
    # 8 voxels of 1 mm at water density hold 8 mg
    with pytest.raises(ValueError):
        averaged_sar(grid, 0.010)
    with pytest.raises(ValueError):
        averaged_sar(grid, 0.0)


def _grid_documents(grid):
    doc = {"shape": list(grid.shape), "voxel_m": grid.voxel_m,
           "p_in_w": grid.p_in_w,
           "sigma": grid.sigma.ravel().tolist(),
           "rho": grid.rho.ravel().tolist(),
           "e_mag": grid.e_mag.ravel().tolist()}
    lines = ["index,sigma,rho,e_mag"]
    for k, (s, r, e) in enumerate(zip(grid.sigma.ravel(), grid.rho.ravel(),
                                      grid.e_mag.ravel())):
        lines.append(f"{k},{float(s)!r},{float(r)!r},{float(e)!r}")
    sidecar = {"shape": list(grid.shape), "voxel_m": grid.voxel_m,
               "p_in_w": grid.p_in_w}
    return json.dumps(doc), "\n".join(lines) + "\n", json.dumps(sidecar)


def test_file_round_trips():
    grid = _random_grid(seed=2, shape=(3, 4, 5))
    jdoc, cdoc, sidecar = _grid_documents(grid)
    from_json = tissue_grid_from_json(jdoc)
    from_csv = tissue_grid_from_csv(cdoc, sidecar)
    for back in (from_json, from_csv):
        assert back.shape == grid.shape
        assert back.voxel_m == grid.voxel_m
        assert back.p_in_w == grid.p_in_w
        assert np.array_equal(back.sigma, grid.sigma)
        assert np.array_equal(back.rho, grid.rho)
        assert np.array_equal(back.e_mag, grid.e_mag)


def _tissue_document(count):
    return {"shape": [count, 1, 1], "voxel_m": 0.002, "p_in_w": 1.0,
            "sigma": [0.8] * count, "rho": [1000.0] * count,
            "e_mag": [10.0] * count}


@pytest.mark.parametrize("key, value", [
    ("sigma", ["0.8", "0.9"]), ("sigma", [" 1e3", 1000]),
    ("rho", [[1000.0], [1000.0]]), ("e_mag", [None, 10.0]), ("sigma", 0.8),
], ids=["strings", "padded-string", "nested", "null", "bare-number"])
def test_tissue_json_rejects_non_numbers(key, value):
    # numpy's float conversion loaded each of these (a bare number as the
    # one voxel of a 1 x 1 x 1 grid, null as nan)
    doc = _tissue_document(len(value) if isinstance(value, list) else 1)
    doc[key] = value
    with pytest.raises(ValueError, match="malformed value"):
        tissue_grid_from_json(json.dumps(doc))


def test_tissue_json_reads_booleans_as_numbers():
    # as a field grid's component arrays do
    doc = _tissue_document(2)
    doc["sigma"] = [True, False]
    assert tissue_grid_from_json(json.dumps(doc)).sigma.ravel().tolist() == [1.0, 0.0]


def test_tissue_grids_above_the_cap_are_rejected():
    # one plane more than 64^3 voxels; the file arrays are short, so only a
    # cap checked before they are read raises this error
    shape = [65, 64, 64]
    with pytest.raises(ValueError, match="exceeds the cap of 262144"):
        tissue_grid_from_json(json.dumps(dict(_tissue_document(2), shape=shape)))
    sidecar = json.dumps({"shape": shape, "voxel_m": 0.002, "p_in_w": 1.0})
    with pytest.raises(ValueError, match="exceeds the cap of 262144"):
        tissue_grid_from_csv("index,sigma,rho,e_mag\n0,0.8,1000.0,10.0\n", sidecar)
    ones = np.ones(shape)
    with pytest.raises(ValueError, match="exceeds the cap of 262144"):
        TissueGrid(0.002, ones, ones, ones)


def test_file_error_paths():
    grid = _random_grid(seed=2, shape=(3, 4, 5))
    jdoc, cdoc, sidecar = _grid_documents(grid)
    bad = json.loads(jdoc)
    del bad["voxel_m"]
    with pytest.raises(ValueError):
        tissue_grid_from_json(json.dumps(bad))
    short = json.loads(jdoc)
    short["sigma"] = short["sigma"][:-1]
    with pytest.raises(ValueError):
        tissue_grid_from_json(json.dumps(short))
    for text in ("[1,2]", "3", "null"):
        with pytest.raises(ValueError, match="must be a JSON object"):
            tissue_grid_from_json(text)
        with pytest.raises(ValueError, match="must be a JSON object"):
            tissue_grid_from_csv(cdoc, text)
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ValueError, match="nests too deeply"):
        tissue_grid_from_json(deep)
    with pytest.raises(ValueError, match="nests too deeply"):
        tissue_grid_from_csv(cdoc, deep)
    for key, value in (("shape", 3), ("voxel_m", None), ("sigma", {"a": 1}),
                       ("rho", [10 ** 400] * 60), ("shape", [1e400, 1, 1])):
        malformed = json.loads(jdoc)
        malformed[key] = value
        with pytest.raises(ValueError):
            tissue_grid_from_json(json.dumps(malformed))
    # a fractional shape entry is rejected, not truncated: 12 * 12 * 12
    # values would fit the truncated shape
    cube = {"shape": [12.5, 12, 12], "voxel_m": 0.002, "p_in_w": 1.0,
            "sigma": [0.5] * 1728, "rho": [1000.0] * 1728,
            "e_mag": [10.0] * 1728}
    with pytest.raises(ValueError, match="shape must be three positive integers"):
        tissue_grid_from_json(json.dumps(cube))
    # true is not the integer 1: this loaded as a 1 x 1 x 1 grid
    one = {"shape": [True, True, True], "voxel_m": 0.002, "p_in_w": 1.0,
           "sigma": [0.5], "rho": [1000.0], "e_mag": [10.0]}
    with pytest.raises(ValueError, match="shape must be three positive integers"):
        tissue_grid_from_json(json.dumps(one))
    csv_cube = "".join(f"{k},0.5,1000.0,10.0\n" for k in range(1728))
    for shape in ([12.5, 12, 12], [12, 144], [0, 12, 144], [12, 12, 12, 1]):
        meta = json.dumps({"shape": shape, "voxel_m": 0.002, "p_in_w": 1.0})
        with pytest.raises(ValueError, match="shape must be three positive integers"):
            tissue_grid_from_csv(csv_cube, meta)
    # csv body with a row missing
    with pytest.raises(ValueError):
        tissue_grid_from_csv("\n".join(cdoc.splitlines()[:-1]) + "\n", sidecar)
    # the header line is optional; a row of another width is not read
    lines = cdoc.splitlines()
    assert lines[0] == "index,sigma,rho,e_mag"
    headless = tissue_grid_from_csv("\n".join(lines[1:]) + "\n", sidecar)
    assert np.array_equal(headless.e_mag, tissue_grid_from_csv(cdoc, sidecar).e_mag)
    lines[3] += ",1.0"
    with pytest.raises(ValueError, match="line 4: expected 4 columns, got 5"):
        tissue_grid_from_csv("\n".join(lines) + "\n", sidecar)
    # a sidecar without a key, and one whose shape is not a list
    meta = json.loads(sidecar)
    del meta["voxel_m"]
    with pytest.raises(ValueError, match="sidecar is missing key 'voxel_m'"):
        tissue_grid_from_csv(cdoc, json.dumps(meta))
    meta["voxel_m"], meta["shape"] = 0.002, 3
    with pytest.raises(ValueError, match="sidecar holds a malformed value"):
        tissue_grid_from_csv(cdoc, json.dumps(meta))
    # shuffled index column
    lines = cdoc.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(ValueError):
        tissue_grid_from_csv("\n".join(lines) + "\n", sidecar)
    # an index that int() would truncate or overflow on
    for index in ("1.7", "inf", "nan", "1e400"):
        lines = cdoc.splitlines()
        lines[2] = ",".join([index] + lines[2].split(",")[1:])
        with pytest.raises(ValueError, match="voxel index column"):
            tissue_grid_from_csv("\n".join(lines) + "\n", sidecar)

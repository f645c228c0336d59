"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible even under captured output)
and then asserts, so a full run shows exactly eleven verdict lines.
"""

import math
import time

import numpy as np
import pytest

from sectordra import (
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    SweepParameter,
    SweepSpec,
    TissueGrid,
    averaged_sar,
    bessel_zero,
    boundary_residuals,
    compare_modes,
    limit_lookup,
    max_allowed_power,
    resonant_frequency,
    sample_grid,
    solve_radius,
    sweep,
    wavenumbers,
)
import sectordra.modal as modal

from oracles import averaged_sar_brute, bessel_zero_bisect, helmholtz_residual

QUARTER_TARGETS = sorted(
    bessel_zero(float(v), n) for v in (0, 2, 4, 6) for n in (1, 2, 3))[:3]


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance {num:2d}] {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


def _timed_frequency(geom, mode):
    modal._zero.cache_clear()  # no warm cache: time the full computation
    t0 = time.perf_counter()
    f = resonant_frequency(geom, mode)
    return f, time.perf_counter() - t0


def test_01_te210_frequency(table1, capsys):
    mode = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
    f, elapsed = _timed_frequency(table1, mode)
    rel = abs(f - 6.12e9) / 6.12e9
    ok = rel < 0.005 and elapsed < 1e-3
    _verdict(capsys, 1, "TE v=2 anchor 6.12 GHz", ok,
             f"f={f/1e9:.4f} GHz, rel={rel:.2e}, {elapsed*1e3:.3f} ms")


def test_02_eh110_frequency(table1, capsys):
    mode = ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0)
    f, elapsed = _timed_frequency(table1, mode)
    rel = abs(f - 4.39e9) / 4.39e9
    ok = rel < 0.005 and elapsed < 1e-3
    _verdict(capsys, 2, "EH v=1 anchor 4.39 GHz", ok,
             f"f={f/1e9:.4f} GHz, rel={rel:.2e}, {elapsed*1e3:.3f} ms")


def test_03_bessel_zeros(capsys):
    t0 = time.perf_counter()
    x11 = bessel_zero(1.0, 1)
    x21 = bessel_zero(2.0, 1)
    elapsed = time.perf_counter() - t0
    err_published = max(abs(x11 - 3.8317), abs(x21 - 5.1356))
    err_oracle = max(abs(x11 - bessel_zero_bisect(1.0, 1)),
                     abs(x21 - bessel_zero_bisect(2.0, 1)))
    ok = err_published < 1e-4 and err_oracle < 1e-9 and elapsed < 10e-3
    _verdict(capsys, 3, "Bessel zeros X11, X21", ok,
             f"published err={err_published:.1e}, oracle err={err_oracle:.1e},"
             f" {elapsed*1e3:.2f} ms")


def test_04_power_budget(capsys):
    p = max_allowed_power(1.0, 53.3, limit_lookup("ieee", "10g"))
    rel = abs(p - 0.0375) / 0.0375
    ok = rel < 0.002
    _verdict(capsys, 4, "power budget 37.5 mW", ok,
             f"p={p*1e3:.3f} mW, rel={rel:.2e}")


def test_05_fd_convergence(fd_quarter, capsys):
    ratios = []
    finals = []
    for k, target in enumerate(QUARTER_TARGETS):
        errs = [abs(fd_quarter[g][0][k] - target) for g in (64, 128, 256)]
        ratios += [errs[0] / errs[1], errs[1] / errs[2]]
        finals.append(errs[2] / target)
    t256 = fd_quarter[256][1]
    ok = min(ratios) >= 3.5 and max(finals) < 0.01 and t256 < 60.0
    _verdict(capsys, 5, "FD eigensolver convergence", ok,
             f"min ratio={min(ratios):.2f}, final rel={max(finals):.1e}, "
             f"256^2 solve {t256:.1f} s")


def test_06_boundary_invariants(table1, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(0, 4):
        for n in range(1, 4):
            for p in range(0, 2):
                mode = ModeSpec.derived(ModeFamily.TE, m, n, p, table1.phi0)
                res = boundary_residuals(table1, mode, resolution=33)
                worst = max(worst, res.face_e_tangential, res.arc_h_phi,
                            res.cap_dhz_dz)
                grid = sample_grid(table1, mode, 33, 33, 33)
                if not np.all(grid.E_z == 0):
                    worst = math.inf
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _verdict(capsys, 6, "boundary invariants m<=3 n<=3 p<=1", ok,
             f"worst residual={worst:.1e}, {elapsed:.2f} s")


def test_07_helmholtz_residual(table1, capsys):
    ratios = []
    for mode in (ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0),
                 ModeSpec.derived(ModeFamily.TE, 0, 1, 0, table1.phi0)):
        wn = wavenumbers(table1, mode)
        k_sq = wn.k_r ** 2 + wn.k_z ** 2
        res = []
        for nodes in (21, 41):
            grid = sample_grid(table1, mode, nodes, nodes, 1)
            res.append(helmholtz_residual(np.real(grid.H_z), grid.r,
                                          grid.phi, grid.z, k_sq))
        ratios.append(res[0] / res[1])
    ok = min(ratios) >= 3.5
    _verdict(capsys, 7, "Helmholtz residual refinement", ok,
             f"ratios={ratios[0]:.2f}, {ratios[1]:.2f}")


def test_08_radius_sweep_trend(table1, capsys):
    spec = SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 17,
                     (ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0),
                      ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0)))
    rows = sweep(table1, spec)
    ok = True
    for v in (2.0, 1.0):
        fs = [r.f_hz for r in rows if r.mode.v == v]
        ok = ok and len(fs) == 17 and all(a > b for a, b in zip(fs, fs[1:]))
    _verdict(capsys, 8, "radius sweep strictly decreasing", ok,
             f"{len(rows)} rows over 8-16 mm")


def test_09_sar_brute_force(capsys):
    rng = np.random.default_rng(20240817)
    shape = (8, 8, 8)
    grid = TissueGrid(0.004, rng.uniform(0.2, 2.0, shape),
                      rng.uniform(900.0, 1100.0, shape),
                      rng.uniform(0.0, 80.0, shape))
    result = averaged_sar(grid, 0.001)
    peak, idx = averaged_sar_brute(grid.sigma, grid.rho, grid.e_mag,
                                   grid.voxel_m, 0.001)
    ok = result.peak_avg_w_per_kg == peak and result.center_index == idx
    _verdict(capsys, 9, "averaged SAR equals brute force", ok,
             f"peak={result.peak_avg_w_per_kg:.6f} W/kg at "
             f"voxel {result.center_index}")


def test_10_inverse_design_round_trip(capsys):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        a_true = float(rng.uniform(0.004, 0.040))
        geom = SectorGeometry.quarter(a=a_true,
                                      h=float(rng.uniform(0.001, 0.010)),
                                      eps_r=float(rng.uniform(2.0, 40.0)))
        mode = ModeSpec.derived(ModeFamily.TE, int(rng.integers(1, 4)),
                                int(rng.integers(1, 3)), 0, geom.phi0)
        f = resonant_frequency(geom, mode)
        a_back = solve_radius(geom, mode, f, 0.5 * a_true, 2.0 * a_true)
        worst = max(worst, abs(a_back - a_true) / a_true)
    ok = worst < 1e-8
    _verdict(capsys, 10, "inverse design round trip", ok,
             f"worst rel={worst:.1e} over 20 geometries")


def test_11_compare_modes_at_its_caps(table1, capsys):
    # count and grid at their caps, analytic side cold: under 1 s and 200 MB
    # on a 2-vCPU VM
    modal._zero.cache_clear()
    t0 = time.perf_counter()
    rows = compare_modes(table1, count=50, grid=512)
    elapsed = time.perf_counter() - t0
    worst = max(row.rel_error for row in rows)
    ok = len(rows) == 50 and worst < 1e-3 and elapsed < 3.0
    _verdict(capsys, 11, "FD cross-check at its caps", ok,
             f"worst rel={worst:.1e}, count 50 at 512^2 in {elapsed:.2f} s")

"""The two benchmark workloads: seeded inputs, one op each, and its checks.

design-session is one workload. field-export, fd-crosscheck and sar-budget
are the three steps of the other, mode-signoff; each step keeps its own
seeded inputs, run and checks.

Module level is stdlib only: a cold start synthesizes its inputs first and
only then times `import sectordra`, so nothing here may pull in numpy or the
package. Each workload gets the package module as `sd` and a tracer `t`;
every package function an op calls goes through `t.call`, which is a plain
call when tracing is off.

Inputs come from an additive recurrence (Roberts' R_d sequence) whose start
point the seed sets. Every prefix of it covers the parameter box evenly, so
two runs of any length see the same mix of cheap and costly ops and differ
in speed only.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

C_LIGHT = 299_792_458.0


class CheckFailed(Exception):
    """An op ran but its output is wrong, or a cache-state rule broke."""


def r_sequence(dim: int, seed: str):
    """Point i of the seeded R_d low-discrepancy sequence in [0, 1)^dim."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = [(1.0 / phi) ** (k + 1) % 1.0 for k in range(dim)]
    rng = random.Random(seed)
    start = [rng.random() for _ in range(dim)]
    return lambda i: [(start[k] + i * alpha[k]) % 1.0 for k in range(dim)]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


class Workload:
    """One closed-loop client: op i takes `op_input(i)` and runs `run`."""

    name = ""
    # a run measures for --seconds and for at least this many timed ops
    min_ops = 1
    # design-session's ops must each compute a Bessel zero no earlier op did
    needs_cold_zero = False

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.seed = seed
        self.tmpdir = tmpdir

    def prepare(self) -> None:
        """Synthesize every input up front, outside the timed phase."""

    def run_checks(self, sd, oracles) -> list[str]:
        """Once-per-run checks; returns failure messages."""
        return []

    def zero_pairs(self, sd, inp, out) -> set:
        """The (v, n) Bessel-zero keys the op asks the modal layer for."""
        return set()

    def replay(self, sd, inp, out, cold: set, t) -> None:
        """Traced run only, after the op span: time specfun on the op's orders."""
        for v, n in sorted(cold):
            t.call("specfun.bessel_zero", sd.bessel_zero, v, n)

    def stats(self, sd, inp, out) -> dict:
        """Per-op counts the traced run turns into layer ratios."""
        return {}


# ------------------------------------------------------------ design-session

@dataclass(frozen=True)
class DesignInput:
    sector_deg: float
    radius_mm: float
    height_mm: float
    eps_r: float
    target_factor: float
    fmax_ghz: float


class DesignSession(Workload):
    """A designer's query: modes, a radius for a target, a sweep, the CLI.

    Caches: modal._zero is cold on every op, because the continuous sector
    angle makes every derived order new. 100 timed ops put ten samples
    beyond p90.
    """

    name = "design-session"
    min_ops = 100
    needs_cold_zero = True
    M_MAX, N_MAX, P_MAX = 3, 3, 1
    SWEEP_STEPS = 5

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self._point = r_sequence(6, f"{self.name}:{seed}")
        self._csv_path = f"{tmpdir}/modes.csv"

    def op_input(self, i: int) -> DesignInput:
        x = self._point(i)
        deg = _lerp(45.0, 360.0, x[0])
        radius_mm = _lerp(5.0, 20.0, x[1])
        eps_r = _lerp(6.0, 40.0, x[3])
        # cutoff 1.5-3x an upper estimate of the m = 1, n = 1, p = 0 mode
        # (Olver's expansion of j_{v,1}), so that mode is always listed and
        # some higher candidates are not
        v = 180.0 / deg
        x_11 = v + 1.8557571 * v ** (1 / 3) + 1.033150 * v ** (-1 / 3)
        f_11 = C_LIGHT / (2 * math.pi * math.sqrt(eps_r)) * math.hypot(x_11, v) \
            / (radius_mm / 1000.0)
        return DesignInput(
            sector_deg=deg, radius_mm=radius_mm,
            height_mm=_lerp(1.0, 10.0, x[2]), eps_r=eps_r,
            target_factor=_lerp(0.8, 1.25, x[4]),
            fmax_ghz=_lerp(1.5, 3.0, x[5]) * f_11 / 1e9)

    def run(self, sd, inp: DesignInput, t):
        from sectordra import cli

        geom = sd.SectorGeometry(a=inp.radius_mm / 1000.0,
                                 h=inp.height_mm / 1000.0,
                                 phi0=math.radians(inp.sector_deg),
                                 eps_r=inp.eps_r)
        modes = t.call("modal.enumerate_modes", sd.enumerate_modes, geom,
                       inp.fmax_ghz * 1e9, self.M_MAX, self.N_MAX, self.P_MAX)
        low = [(m, f) for m, f in modes if m.family is sd.ModeFamily.TE
               and (m.m, m.n, m.p) == (1, 1, 0)]
        if not low:
            raise CheckFailed("TE m=1 n=1 p=0 is missing from the mode list")
        mode, f_low = low[0]
        target = f_low * inp.target_factor
        radius = t.call("design.solve_radius", sd.solve_radius, geom, mode,
                        target, geom.a / 2.0, geom.a * 2.0)
        spec = sd.SweepSpec(sd.SweepParameter.SECTOR_ANGLE, 0.9 * geom.phi0,
                            min(1.1 * geom.phi0, 2.0 * math.pi),
                            self.SWEEP_STEPS, (mode,))
        rows = t.call("design.sweep", sd.sweep, geom, spec)
        argv = ["modes", "--radius-mm", repr(inp.radius_mm),
                "--height-mm", repr(inp.height_mm),
                "--sector-deg", repr(inp.sector_deg), "--eps-r", repr(inp.eps_r),
                "--fmax-ghz", repr(inp.fmax_ghz), "--m-max", str(self.M_MAX),
                "--n-max", str(self.N_MAX), "--p-max", str(self.P_MAX),
                "--output", self._csv_path]
        rc = t.call("cli.main", cli.main, argv)
        return {"geom": geom, "modes": modes, "mode": mode, "target": target,
                "radius": radius, "rows": rows, "rc": rc}

    def check(self, sd, inp, out) -> None:
        if out["rc"] != 0:
            raise CheckFailed(f"cli modes exited {out['rc']}")
        freqs = [f for _, f in out["modes"]]
        if any(b < a for a, b in zip(freqs, freqs[1:])):
            raise CheckFailed("mode list is not ascending")
        geom = out["geom"]
        at = sd.SectorGeometry(a=out["radius"], h=geom.h, phi0=geom.phi0,
                               eps_r=geom.eps_r)
        f = sd.resonant_frequency(at, out["mode"])
        if not abs(f - out["target"]) <= 1e-9 * out["target"]:
            raise CheckFailed(f"f(solved radius) = {f!r} Hz, target "
                              f"{out['target']!r} Hz")
        if len(out["rows"]) != self.SWEEP_STEPS or not all(
                r.f_hz > 0.0 and math.isfinite(r.f_hz) for r in out["rows"]):
            raise CheckFailed("sweep rows are missing or not finite")
        with open(self._csv_path, encoding="utf-8") as fh:
            cli_rows = fh.read().splitlines()[1:]
        lib_rows = [f"{m.family.value},{m.v!r},{m.n},{m.p},{f / 1e9!r}"
                    for m, f in out["modes"]]
        if cli_rows != lib_rows:
            raise CheckFailed("cli modes output differs from enumerate_modes")

    def candidates(self, sd, phi0: float) -> tuple[list[float], list[float]]:
        derived = [sd.azimuthal_order(m, phi0) for m in range(self.M_MAX + 1)]
        explicit = [float(v) for v in range(1, self.M_MAX + 1)
                    if all(abs(v - d) > 1e-9 for d in derived)]
        return derived, explicit

    def zero_pairs(self, sd, inp, out):
        derived, explicit = self.candidates(sd, out["geom"].phi0)
        pairs = {(v, n) for v in derived + explicit
                 for n in range(1, self.N_MAX + 1)}
        pairs |= {(row.mode.v, row.mode.n) for row in out["rows"]}
        return pairs

    def stats(self, sd, inp, out):
        derived, explicit = self.candidates(sd, out["geom"].phi0)
        per_order = self.N_MAX * (self.P_MAX + 1)
        return {"kept": len(out["modes"]),
                "candidates": (len(derived) + len(explicit)) * per_order}


# -------------------------------------------------------------- field-export

@dataclass(frozen=True)
class FieldInput:
    radius_mm: float
    height_mm: float
    eps_r: float
    m: int
    n: int
    p: int


_GRID_ARRAYS = ("r", "phi", "z", "E_r", "E_phi", "E_z", "H_r", "H_phi", "H_z")


class FieldExport(Workload):
    """One mode sampled at 33^3, exported twice, reloaded, wall-checked.

    Caches: modal._zero is warm after the first ops (quarter sector,
    m, n <= 3); bessel_j is uncached and runs at every radial node.
    """

    name = "field-export"
    NODES = 33

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self._point = r_sequence(3, f"{self.name}:{seed}")
        self._first_mode = random.Random(f"{self.name}:{seed}").randrange(27)

    def op_input(self, i: int) -> FieldInput:
        x = self._point(i)
        # the modes m 1-3, n 1-3, p 0-1 in a fixed 27-op cycle in which
        # every third op has p = 1. A p = 1 step costs about 20% more (its
        # CSV rows carry more digits), so every run must hold the same share
        # of them. At half and half, the median of the step's time would
        # fall in the gap between the two cost clusters and jump with each
        # op; at one in three it falls inside the p = 0 cluster.
        k = (self._first_mode + i) % 27
        return FieldInput(radius_mm=_lerp(5.0, 20.0, x[0]),
                          height_mm=_lerp(1.0, 10.0, x[1]),
                          eps_r=_lerp(6.0, 40.0, x[2]),
                          m=1 + k // 3 % 3, n=1 + k // 9, p=int(k % 3 == 2))

    def run(self, sd, inp: FieldInput, t):
        geom = sd.SectorGeometry.quarter(inp.radius_mm / 1000.0,
                                         inp.height_mm / 1000.0, inp.eps_r)
        mode = sd.ModeSpec.derived(sd.ModeFamily.TE, inp.m, inp.n, inp.p,
                                   geom.phi0)
        k = self.NODES
        grid = t.call("fields.sample_grid", sd.sample_grid, geom, mode, k, k, k)
        csv_doc = t.call("fields.export_grid.csv", sd.export_grid, grid, "csv")
        json_doc = t.call("fields.export_grid.json", sd.export_grid, grid, "json")
        back = t.call("fields.load_grid_json", sd.load_grid_json, json_doc)
        res = t.call("fields.boundary_residuals", sd.boundary_residuals, geom,
                     mode, resolution=k)
        return {"geom": geom, "mode": mode, "grid": grid, "csv": csv_doc,
                "json": json_doc, "back": back, "res": res}

    def check(self, sd, inp, out) -> None:
        import numpy as np

        grid, back = out["grid"], out["back"]
        if out["csv"].count("\n") != self.NODES ** 3 + 1:
            raise CheckFailed("CSV export has the wrong row count")
        # exact value equality, as tests/test_fields.py asks of the round
        # trip: the loader rebuilds re + 1j * im, which turns a -0.0 real
        # part into +0.0, so a byte comparison would fail on every op
        for name in _GRID_ARRAYS:
            a, b = getattr(grid, name), getattr(back, name)
            if a.dtype != b.dtype or not np.array_equal(a, b):
                raise CheckFailed(f"JSON round trip changed {name}")
        if (back.geometry, back.mode, back.amplitude) != \
                (grid.geometry, grid.mode, grid.amplitude):
            raise CheckFailed("JSON round trip changed the grid metadata")
        peak = float(np.max(np.abs(grid.H_z)))
        if not abs(peak - grid.amplitude) <= 1e-14 * grid.amplitude:
            raise CheckFailed(f"max |H_z| = {peak!r}, amplitude {grid.amplitude}")
        res = out["res"]
        worst = max(res.face_e_tangential, res.arc_h_phi, res.cap_dhz_dz)
        if not worst < 1e-9:
            raise CheckFailed(f"boundary residual {worst:.3e} >= 1e-9")

    def zero_pairs(self, sd, inp, out):
        return {(out["mode"].v, out["mode"].n)}

    def replay(self, sd, inp, out, cold, t):
        super().replay(sd, inp, out, cold, t)
        mode = out["mode"]
        k_r = sd.wavenumbers(out["geom"], mode).k_r
        nodes = [k_r * float(r) for r in out["grid"].r]
        with t.span("specfun.bessel_j", calls=len(nodes)):
            for x in nodes:
                sd.bessel_j(mode.v, x)

    def stats(self, sd, inp, out):
        return {"bytes": len(out["csv"]) + len(out["json"])}


# ---------------------------------------------------------------- sar-budget

_PUBLISHED_ROWS = (("ieee", "1g", "average"), ("ieee", "10g", "average"),
                   ("ieee", "1g", "peak"), ("ecc", "1g", "average"),
                   ("ecc", "10g", "average"))


def tissue_document(seed: str, shape: tuple[int, int, int],
                    voxel_m: float) -> str:
    """A seeded tissue-grid JSON document: muscle-like sigma and rho and a
    field decaying with depth along x, with multiplicative noise."""
    rng = random.Random(seed)
    nx, ny, nz = shape
    n = nx * ny * nz
    sigma = [_lerp(0.7, 1.0, rng.random()) for _ in range(n)]
    rho = [_lerp(1000.0, 1100.0, rng.random()) for _ in range(n)]
    e_mag = [40.0 * math.exp(-(k // (ny * nz)) / 8.0) * _lerp(0.5, 1.5, rng.random())
             for k in range(n)]
    return json.dumps({"shape": list(shape), "voxel_m": voxel_m,
                       "p_in_w": _lerp(0.5, 2.0, rng.random()),
                       "sigma": sigma, "rho": rho, "e_mag": e_mag})


class SarBudget(Workload):
    """Parse a 24^3 tissue document, average at 1 g and 10 g, budget power.

    Caches: none on this path; every op parses and averages afresh.
    """

    name = "sar-budget"
    SHAPE = (24, 24, 24)
    VOXEL_M = 2e-3
    DOCUMENTS = 8

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self._docs: dict[int, str] = {}

    def prepare(self):
        for i in range(self.DOCUMENTS):
            self.op_input(i)

    def op_input(self, i: int) -> str:
        k = i % self.DOCUMENTS
        if k not in self._docs:
            self._docs[k] = tissue_document(f"{self.name}:{self.seed}:{k}",
                                            self.SHAPE, self.VOXEL_M)
        return self._docs[k]

    def run(self, sd, text: str, t):
        grid = t.call("sar.tissue_grid_from_json", sd.tissue_grid_from_json, text)
        avg = {mass: t.call(f"sar.averaged_sar.{mass}", sd.averaged_sar, grid,
                            sd.AveragingMass(mass).kilograms)
               for mass in ("1g", "10g")}
        budget = []
        for standard, mass, kind in _PUBLISHED_ROWS:
            limit = t.call("sar.limit_lookup", sd.limit_lookup, standard, mass, kind)
            sar = avg[mass].peak_avg_w_per_kg
            p_max = t.call("sar.max_allowed_power", sd.max_allowed_power,
                           grid.p_in_w, sar, limit)
            budget.append((limit, sar, p_max))
        return {"grid": grid, "avg": avg, "budget": budget}

    def check(self, sd, inp, out) -> None:
        grid = out["grid"]
        if grid.shape != self.SHAPE:
            raise CheckFailed(f"parsed shape {grid.shape}, expected {self.SHAPE}")
        psar = grid.sigma * grid.e_mag ** 2 / grid.rho
        lo, hi = float(psar.min()), float(psar.max())
        nx, ny, nz = self.SHAPE
        for mass, res in out["avg"].items():
            if not lo <= res.peak_avg_w_per_kg <= hi:
                raise CheckFailed(f"{mass} peak {res.peak_avg_w_per_kg!r} outside "
                                  f"point SAR [{lo!r}, {hi!r}]")
            ix, iy, iz = res.center
            if not (0 <= res.center_index < psar.size
                    and res.center_index == (ix * ny + iy) * nz + iz):
                raise CheckFailed(f"{mass} centre index {res.center_index} is "
                                  "out of bounds or disagrees with its centre")
        for limit, sar, p_max in out["budget"]:
            if p_max != grid.p_in_w * (limit.value / sar) or not p_max > 0.0:
                raise CheckFailed(f"power budget {p_max!r} W is wrong")

    def run_checks(self, sd, oracles) -> list[str]:
        """A small grid agrees bitwise with the brute-force test oracle."""
        shape = (7, 6, 5)
        grid = sd.tissue_grid_from_json(
            tissue_document(f"{self.name}:{self.seed}:oracle", shape, 4e-3))
        problems = []
        for mass in ("1g", "10g"):
            kg = sd.AveragingMass(mass).kilograms
            got = sd.averaged_sar(grid, kg)
            best, idx = oracles.averaged_sar_brute(grid.sigma, grid.rho,
                                                   grid.e_mag, grid.voxel_m, kg)
            if not (got.peak_avg_w_per_kg == best and got.center_index == idx):
                problems.append(f"averaged_sar {mass} on {shape} gave "
                                f"({got.peak_avg_w_per_kg!r}, {got.center_index}),"
                                f" brute oracle ({best!r}, {idx})")
        return problems

    def stats(self, sd, inp, out):
        return {"voxels": 2 * out["grid"].sigma.size}


# ------------------------------------------------------------- fd-crosscheck

@dataclass(frozen=True)
class FDInput:
    radius_mm: float
    height_mm: float
    eps_r: float


class FDCrosscheck(Workload):
    """compare_modes(count=3) on one grid each side of the dense/sparse switch.

    Caches: modal._zero is warm (fixed quarter angle); oracle._solve never
    hits, because every radius is new.
    """

    name = "fd-crosscheck"
    COUNT = 3
    # oracle._solve goes dense up to 4096 unknowns: 40^2 below, 72^2 above.
    # On a 2-vCPU Xeon VM the step takes 1.1-1.3 s. The tolerances sit about
    # 3x above the errors the grids reach (1.03e-3 and 3.2e-4; the error does
    # not depend on the radius).
    GRIDS = (("dense", 40, 3e-3), ("sparse", 72, 1e-3))

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self._point = r_sequence(3, f"{self.name}:{seed}")
        self._problems: set = set()

    def op_input(self, i: int) -> FDInput:
        x = self._point(i)
        return FDInput(radius_mm=_lerp(5.0, 20.0, x[0]),
                       height_mm=_lerp(1.0, 10.0, x[1]),
                       eps_r=_lerp(6.0, 40.0, x[2]))

    def run(self, sd, inp: FDInput, t):
        geom = sd.SectorGeometry.quarter(inp.radius_mm / 1000.0,
                                         inp.height_mm / 1000.0, inp.eps_r)
        rows = {path: t.call(f"oracle.compare_modes.{path}", sd.compare_modes,
                             geom, self.COUNT, grid)
                for path, grid, _ in self.GRIDS}
        return {"geom": geom, "rows": rows}

    def check(self, sd, inp, out) -> None:
        geom = out["geom"]
        for path, grid, tol in self.GRIDS:
            problem = sd.FDProblem(a=geom.a, phi0=geom.phi0, n_r=grid, n_phi=grid)
            if problem in self._problems:
                raise CheckFailed(f"FDProblem repeated: {problem}")
            self._problems.add(problem)
            rows = out["rows"][path]
            if len(rows) != self.COUNT or not all(
                    r.rel_error < tol for r in rows):
                raise CheckFailed(f"{grid}^2 relative errors "
                                  f"{[r.rel_error for r in rows]} exceed {tol}")

    def zero_pairs(self, sd, inp, out):
        # compare_modes ranks m, n = 1..count + 4 on the analytic side
        span = range(1, self.COUNT + 5)
        phi0 = out["geom"].phi0
        return {(sd.azimuthal_order(m, phi0), n) for m in span for n in span}

    def stats(self, sd, inp, out):
        return {"unknowns": sum(g * g for _, g, _ in self.GRIDS),
                "max_rel_err": max(r.rel_error for rows in out["rows"].values()
                                   for r in rows)}


# -------------------------------------------------------------- mode-signoff

class ModeSignoff(Workload):
    """A designer signs off a mode: field export, FD cross-check, SAR budget.

    One op runs the three steps above in turn, each on its own seeded input,
    so the fields, oracle and sar layers all work in every op. specfun works
    only through bessel_j and warm zero-cache lookups; design and cli do not
    work. One op takes 3.4-4.7 s on a 2-vCPU Xeon VM. Caches: as in each
    step; FD problems never repeat, because every radius is new.
    """

    name = "mode-signoff"
    min_ops = 4
    STEPS = (FieldExport, FDCrosscheck, SarBudget)

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.steps = [step(seed, tmpdir) for step in self.STEPS]

    def prepare(self):
        for step in self.steps:
            step.prepare()

    def op_input(self, i: int) -> tuple:
        return tuple(step.op_input(i) for step in self.steps)

    def run(self, sd, inp: tuple, t):
        return tuple(step.run(sd, x, t) for step, x in zip(self.steps, inp))

    def check(self, sd, inp, out) -> None:
        for step, x, o in zip(self.steps, inp, out):
            step.check(sd, x, o)

    def run_checks(self, sd, oracles) -> list[str]:
        return [problem for step in self.steps
                for problem in step.run_checks(sd, oracles)]

    def zero_pairs(self, sd, inp, out):
        return set().union(*(step.zero_pairs(sd, x, o)
                             for step, x, o in zip(self.steps, inp, out)))

    def replay(self, sd, inp, out, cold, t):
        # the field-export step's replay covers the op's new zeros as well
        self.steps[0].replay(sd, inp[0], out[0], cold, t)

    def stats(self, sd, inp, out):
        merged = {}
        for step, x, o in zip(self.steps, inp, out):
            merged.update(step.stats(sd, x, o))
        return merged


WORKLOADS = {w.name: w for w in (DesignSession, ModeSignoff)}

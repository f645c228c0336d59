"""Command-line front door for the library.

Eight subcommands map one-to-one onto library operations: freq, modes,
field, oracle, sar, power, sweep, design. Units at this boundary are
millimeters, degrees, and GHz; they are converted to SI once at parse time
and everything downstream runs in meters, radians, Hz.

Data goes to stdout (or --output), diagnostics to stderr. Exit status is 0
on success, 2 for usage errors, 1 when a computation rejects its input.
CSV and JSON renderings of a subcommand carry the same rows; SVG (field and
sweep only) is a convenience plot from a small built-in writer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .design import SweepParameter, SweepSpec, solve_radius, sweep
from .errors import ConvergenceError, json_object
from .fields import export_grid, sample_grid
from .modal import (
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    enumerate_modes,
    geometry_from_json,
    mm_to_m,
    resonant_frequency,
    to_si,
)
from .oracle import compare_modes
from .sar import (
    AveragingMass,
    averaged_sar,
    limit_lookup,
    max_allowed_power,
    tissue_grid_from_csv,
    tissue_grid_from_json,
)

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flag combination detected after argparse; exits with status 2."""


# ---------------------------------------------------------------- geometry

def _add_geometry_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--radius-mm", type=float, default=None,
                     help="sector radius a in millimeters")
    sub.add_argument("--height-mm", type=float, default=None,
                     help="height h in millimeters")
    sub.add_argument("--sector-deg", type=float, default=None,
                     help="sector angle in degrees (default 90)")
    sub.add_argument("--eps-r", type=float, default=None,
                     help="relative permittivity")
    sub.add_argument("--geometry", metavar="PATH", default=None,
                     help="geometry JSON file (radius_mm, height_mm, "
                          "sector_deg, eps_r); conflicts with inline flags")


def _build_geometry(args, *, need_radius=True, need_height=True,
                    need_eps=True) -> SectorGeometry:
    inline = [name for name, val in (("--radius-mm", args.radius_mm),
                                     ("--height-mm", args.height_mm),
                                     ("--sector-deg", args.sector_deg),
                                     ("--eps-r", args.eps_r)) if val is not None]
    if args.geometry is not None:
        if inline:
            raise _UsageError(
                f"--geometry conflicts with inline flags: {', '.join(inline)}")
        with open(args.geometry, "r", encoding="utf-8") as fh:
            return geometry_from_json(json_object(fh.read(), "geometry document"))
    if need_radius and args.radius_mm is None:
        raise _UsageError("--radius-mm is required (or use --geometry)")
    if need_height and args.height_mm is None:
        raise _UsageError("--height-mm is required (or use --geometry)")
    if need_eps and args.eps_r is None:
        raise _UsageError("--eps-r is required (or use --geometry)")
    return SectorGeometry(
        a=to_si(args.radius_mm if args.radius_mm is not None else 1000.0,
                "--radius-mm", mm_to_m),
        h=to_si(args.height_mm if args.height_mm is not None else 1000.0,
                "--height-mm", mm_to_m),
        phi0=to_si(args.sector_deg if args.sector_deg is not None else 90.0,
                   "--sector-deg", math.radians, top=360.0),
        eps_r=args.eps_r if args.eps_r is not None else 1.0,
    )


def _hz(ghz: float, flag: str) -> float:
    """A GHz flag in Hz; one that overflows on the way is named as typed."""
    hz = ghz * 1e9
    if math.isfinite(ghz) and not math.isfinite(hz):
        raise ValueError(f"{flag} {ghz!r} is out of floating-point range in Hz")
    return hz


def _height_given(args) -> bool:
    return args.geometry is not None or args.height_mm is not None


def _require_height_for(args, modes) -> None:
    # k_z = p pi / h: height only matters once some requested p is nonzero
    if not _height_given(args) and any(mode.p != 0 for mode in modes):
        raise _UsageError("--height-mm is required for p > 0 modes")


def _parse_mode(text: str, phi0: float) -> ModeSpec:
    """Mode from FAMILY:v=...|m=...,n=...,p=... text, v winning over m."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise _UsageError(
            f"--mode {text!r}: expected FAMILY:v=...|m=...,n=...,p=...")
    try:
        family = ModeFamily(head.strip().upper())
    except ValueError:
        raise _UsageError(f"--mode {text!r}: family must be TE or EH") from None
    kv = {}
    for part in rest.split(","):
        key, eq, val = part.partition("=")
        key = key.strip()
        if not eq or key not in ("v", "m", "n", "p"):
            raise _UsageError(f"--mode {text!r}: bad index {part.strip()!r}")
        kv[key] = val.strip()
    try:
        n = int(kv["n"])
        p = int(kv["p"])
    except KeyError as exc:
        raise _UsageError(f"--mode {text!r}: missing index {exc}") from None
    except ValueError:
        raise _UsageError(f"--mode {text!r}: n and p must be integers") from None
    try:
        if "v" in kv:
            return ModeSpec.explicit(family, float(kv["v"]), n, p)
        if "m" in kv:
            return ModeSpec.derived(family, int(kv["m"]), n, p, phi0)
    except ValueError as exc:
        raise _UsageError(f"--mode {text!r}: {exc}") from None
    raise _UsageError(f"--mode {text!r}: needs v= or m=")


# ------------------------------------------------------------------ output

def _rows_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    return buf.getvalue()


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def _rows_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2) + "\n"


def _emit(doc: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(doc)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValueError(f"cannot write {output!r}: {exc}") from exc


def _render(columns: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _rows_json(rows)
    return _rows_csv(columns, rows)


# --------------------------------------------------------------- svg plots

_RAMP = ((13, 8, 135), (203, 71, 119), (240, 249, 33))


def _ramp(t: float) -> str:
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        a, b, u = _RAMP[0], _RAMP[1], t * 2.0
    else:
        a, b, u = _RAMP[1], _RAMP[2], t * 2.0 - 1.0
    rgb = [round(x + (y - x) * u) for x, y in zip(a, b)]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _svg_field(grid) -> str:
    """Heatmap of |H_z| over the (r, phi) plane at the first z slice."""
    mag = np.abs(grid.H_z[:, :, 0])
    lo, hi = float(mag.min()), float(mag.max())
    span = (hi - lo) or 1.0
    nr, nphi = mag.shape
    cw = max(3, 480 // nr)
    ch = max(3, 360 // nphi)
    ox, oy = 60, 30
    w, h = ox + nr * cw + 20, oy + nphi * ch + 50
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{ox}" y="20" font-family="sans-serif" font-size="13">'
             f'|H_z|, {grid.mode.family.value} v={grid.mode.v:.4g} '
             f'n={grid.mode.n} p={grid.mode.p}</text>']
    for i in range(nr):
        for j in range(nphi):
            t = (mag[i, j] - lo) / span
            x = ox + i * cw
            y = oy + (nphi - 1 - j) * ch
            parts.append(f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                         f'fill="{_ramp(t)}"/>')
    parts.append(f'<text x="{ox + nr * cw // 2}" y="{h - 14}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle">r index</text>')
    parts.append(f'<text x="18" y="{oy + nphi * ch // 2}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {oy + nphi * ch // 2})" '
                 f'text-anchor="middle">phi index</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_sweep(rows) -> str:
    """Line plot of frequency (GHz) against the swept parameter."""
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        label = (f"{row.mode.family.value} v={row.mode.v:.4g} "
                 f"n={row.mode.n} p={row.mode.p}")
        series.setdefault(label, []).append((row.value, row.f_hz / 1e9))
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    w, h, ml, mr, mt, mb = 640, 400, 70, 24, 24, 48
    pw, ph = w - ml - mr, h - mt - mb

    def px(x):
        return ml + (x - x0) / xspan * pw

    def py(y):
        return mt + (1.0 - (y - y0) / yspan) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
             f'stroke="#444"/>']
    for k, (label, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 15 * k
        parts.append(f'<line x1="{ml + pw - 150}" y1="{ly - 4}" '
                     f'x2="{ml + pw - 128}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw - 122}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    param = rows[0].parameter.value
    for x, anchor in ((x0, "start"), (x1, "end")):
        parts.append(f'<text x="{px(x):.1f}" y="{h - mb + 16}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="{anchor}">{x:.6g}</text>')
    for y in (y0, y1):
        parts.append(f'<text x="{ml - 6}" y="{py(y):.1f}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">{y:.6g}</text>')
    parts.append(f'<text x="{ml + pw // 2}" y="{h - 12}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle">{param}</text>')
    parts.append(f'<text x="16" y="{mt + ph // 2}" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 16 {mt + ph // 2})" '
                 f'text-anchor="middle">f (GHz)</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


# ------------------------------------------------------------- subcommands

def _cmd_freq(args) -> None:
    geom = _build_geometry(args, need_height=False)
    mode = _parse_mode(args.mode, geom.phi0)
    _require_height_for(args, [mode])
    f = resonant_frequency(geom, mode)
    rows = [{"f_ghz": f / 1e9}]
    _emit(_render(["f_ghz"], rows, args.format), args.output)


def _cmd_modes(args) -> None:
    geom = _build_geometry(args, need_height=args.p_max > 0)
    found = enumerate_modes(geom, _hz(args.fmax_ghz, "--fmax-ghz"), args.m_max,
                            args.n_max, args.p_max)
    rows = [{"family": mode.family.value, "v": mode.v, "n": mode.n,
             "p": mode.p, "f_ghz": f / 1e9} for mode, f in found]
    _emit(_render(["family", "v", "n", "p", "f_ghz"], rows, args.format),
          args.output)


def _cmd_field(args) -> None:
    geom = _build_geometry(args)
    mode = _parse_mode(args.mode, geom.phi0)
    grid = sample_grid(geom, mode, args.n_r, args.n_phi, args.n_z,
                       amplitude=args.amplitude)
    if args.format == "svg":
        _emit(_svg_field(grid), args.output)
    else:
        _emit(export_grid(grid, args.format), args.output)


def _cmd_oracle(args) -> None:
    geom = _build_geometry(args, need_height=False, need_eps=False)
    rows = [{"m": row.m, "n": row.n, "analytic_k_r": row.analytic_k_r,
             "fd_k_t": row.fd_k_t, "rel_error": row.rel_error}
            for row in compare_modes(geom, args.count, args.grid)]
    _emit(_render(["m", "n", "analytic_k_r", "fd_k_t", "rel_error"], rows,
                  args.format), args.output)


def _load_tissue(args):
    if args.tissue is not None and args.tissue_csv is not None:
        raise _UsageError("--tissue conflicts with --tissue-csv")
    if args.tissue is not None:
        with open(args.tissue, "r", encoding="utf-8") as fh:
            return tissue_grid_from_json(fh.read())
    if args.tissue_csv is None:
        raise _UsageError("one of --tissue or --tissue-csv is required")
    if args.sidecar is None:
        raise _UsageError("--tissue-csv needs --sidecar for shape and voxel size")
    with open(args.tissue_csv, "r", encoding="utf-8") as fh:
        body = fh.read()
    with open(args.sidecar, "r", encoding="utf-8") as fh:
        meta = fh.read()
    return tissue_grid_from_csv(body, meta)


def _cmd_sar(args) -> None:
    grid = _load_tissue(args)
    mass = AveragingMass(args.mass)
    result = averaged_sar(grid, mass.kilograms)
    rows = [{"peak_avg_w_per_kg": result.peak_avg_w_per_kg,
             "center_index": result.center_index,
             "center_x": result.center[0], "center_y": result.center[1],
             "center_z": result.center[2]}]
    _emit(_render(["peak_avg_w_per_kg", "center_index", "center_x",
                   "center_y", "center_z"], rows, args.format), args.output)


def _cmd_power(args) -> None:
    limit = limit_lookup(args.standard, args.mass, args.kind)
    p_max = max_allowed_power(args.pin_w, args.sar, limit)
    rows = [{"p_max_w": p_max}]
    _emit(_render(["p_max_w"], rows, args.format), args.output)


# the SI conversion and the largest typed value of a swept length or angle,
# as the geometry flags take them; eps_r is swept as typed
_SWEEP_UNITS = {SweepParameter.RADIUS: (mm_to_m, math.inf),
                SweepParameter.HEIGHT: (mm_to_m, math.inf),
                SweepParameter.SECTOR_ANGLE: (math.radians, 360.0)}


def _cmd_sweep(args) -> None:
    geom = _build_geometry(args, need_height=False)
    parameter = SweepParameter(args.param)
    modes = tuple(_parse_mode(text, geom.phi0) for text in args.mode)
    if parameter is not SweepParameter.HEIGHT:
        _require_height_for(args, modes)
    start, stop = args.start, args.stop
    if parameter in _SWEEP_UNITS:
        convert, top = _SWEEP_UNITS[parameter]
        start = to_si(start, "--start", convert, top)
        stop = to_si(stop, "--stop", convert, top)
    spec = SweepSpec(parameter=parameter, start=start, stop=stop,
                     steps=args.steps, modes=modes)
    rows = sweep(geom, spec)
    if args.format == "svg":
        _emit(_svg_sweep(rows), args.output)
        return
    docs = [{"param_name": r.parameter.value, "param_value": r.value,
             "family": r.mode.family.value, "v": r.mode.v, "n": r.mode.n,
             "p": r.mode.p, "f_hz": r.f_hz} for r in rows]
    _emit(_render(["param_name", "param_value", "family", "v", "n", "p", "f_hz"],
                  docs, args.format), args.output)


def _cmd_design(args) -> None:
    geom = _build_geometry(args, need_radius=False, need_height=False)
    mode = _parse_mode(args.mode, geom.phi0)
    _require_height_for(args, [mode])
    a = solve_radius(geom, mode, _hz(args.target_ghz, "--target-ghz"),
                     to_si(args.a_min_mm, "--a-min-mm", mm_to_m),
                     to_si(args.a_max_mm, "--a-max-mm", mm_to_m))
    rows = [{"radius_mm": a * 1000.0}]
    _emit(_render(["radius_mm"], rows, args.format), args.output)


# ------------------------------------------------------------------ parser

def _add_output_args(sub: argparse.ArgumentParser,
                     formats=("csv", "json")) -> None:
    sub.add_argument("--format", choices=formats, default="csv")
    sub.add_argument("--output", metavar="PATH", default=None,
                     help="write here instead of stdout")


def _freq_args(p: argparse.ArgumentParser) -> None:
    _add_geometry_args(p)
    p.add_argument("--mode", required=True,
                   help="FAMILY:v=...|m=...,n=...,p=... (v wins over m)")
    _add_output_args(p)


def _modes_args(p: argparse.ArgumentParser) -> None:
    _add_geometry_args(p)
    p.add_argument("--fmax-ghz", type=float, required=True)
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--p-max", type=int, default=2)
    _add_output_args(p)


def _field_args(p: argparse.ArgumentParser) -> None:
    _add_geometry_args(p)
    p.add_argument("--mode", required=True)
    p.add_argument("--n-r", type=int, default=33)
    p.add_argument("--n-phi", type=int, default=33)
    p.add_argument("--n-z", type=int, default=33)
    p.add_argument("--amplitude", type=float, default=1.0)
    _add_output_args(p, formats=("csv", "json", "svg"))


def _oracle_args(p: argparse.ArgumentParser) -> None:
    _add_geometry_args(p)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--grid", type=int, default=64,
                   help="nodes per side of the polar grid")
    _add_output_args(p)


def _sar_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tissue", metavar="PATH", default=None,
                   help="tissue grid JSON file")
    p.add_argument("--tissue-csv", metavar="PATH", default=None,
                   help="tissue grid CSV file (needs --sidecar)")
    p.add_argument("--sidecar", metavar="PATH", default=None,
                   help="JSON sidecar with shape, voxel_m, p_in_w")
    p.add_argument("--mass", choices=["1g", "10g"], required=True)
    _add_output_args(p)


def _power_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pin-w", type=float, required=True,
                   help="input power the SAR figure was computed at")
    p.add_argument("--sar", type=float, required=True,
                   help="achieved SAR in W/kg at --pin-w")
    p.add_argument("--standard", choices=["ieee", "ecc"], required=True)
    p.add_argument("--mass", choices=["1g", "10g"], required=True)
    p.add_argument("--kind", choices=["average", "peak"], default="average")
    _add_output_args(p)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_geometry_args(p)
    p.add_argument("--param",
                   choices=[e.value for e in SweepParameter], required=True)
    p.add_argument("--start", type=float, required=True,
                   help="range start (mm, degrees, or plain eps_r)")
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", action="append", required=True,
                   help="repeatable: FAMILY:v=...|m=...,n=...,p=...")
    _add_output_args(p, formats=("csv", "json", "svg"))


def _design_args(p: argparse.ArgumentParser) -> None:
    _add_geometry_args(p)
    p.add_argument("--mode", required=True)
    p.add_argument("--target-ghz", type=float, required=True)
    p.add_argument("--a-min-mm", type=float, required=True)
    p.add_argument("--a-max-mm", type=float, required=True)
    _add_output_args(p)


# (name, help, argument adder, handler) of each subcommand
_SUBCOMMANDS = (
    ("freq", "resonant frequency of one mode", _freq_args, _cmd_freq),
    ("modes", "enumerate modes below a frequency", _modes_args, _cmd_modes),
    ("field", "sample a mode's fields on a grid", _field_args, _cmd_field),
    ("oracle", "finite-difference cross-check of k_r values", _oracle_args,
     _cmd_oracle),
    ("sar", "peak mass-averaged SAR of a tissue grid", _sar_args, _cmd_sar),
    ("power", "maximum input power under a SAR limit", _power_args,
     _cmd_power),
    ("sweep", "frequency table over one parameter", _sweep_args, _cmd_sweep),
    ("design", "radius that hits a target frequency", _design_args,
     _cmd_design),
)


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments the first time it
    parses. The subparsers action hands it the rest of the command line
    through `parse_known_args`, so one call adds the arguments of the one
    subcommand named, and its help and usage errors see them all."""

    def __init__(self, *, add_arguments, **kwargs):
        super().__init__(**kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            self._add_arguments(self)
            self._add_arguments = None
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectordra",
        description="Modal analysis and power budgeting for sectoral "
                    "cylindrical dielectric resonators.")
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_SubcommandParser)
    for name, help_text, add_arguments, run in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text, add_arguments=add_arguments)
        sub.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0

import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sectordra
from sectordra import (
    ModeFamily,
    ModeSpec,
    SectorGeometry,
    SweepParameter,
    SweepSpec,
    export_grid,
    sample_grid,
    sweep,
)
from sectordra.cli import main

G = ["--radius-mm", "12", "--height-mm", "2.54", "--eps-r", "12.85"]
TE210 = "TE:v=2,n=1,p=0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_freq_anchor(capsys):
    code, out, err = run(capsys, "freq", "--radius-mm", "12", "--eps-r",
                         "12.85", "--mode", TE210)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "f_ghz"
    assert float(lines[1]) == pytest.approx(6.12, rel=0.005)


def test_freq_formats_agree(capsys):
    code, out_csv, _ = run(capsys, "freq", *G, "--mode", TE210)
    code2, out_json, _ = run(capsys, "freq", *G, "--mode", TE210,
                             "--format", "json")
    assert code == code2 == 0
    rows = json.loads(out_json)
    assert rows == [{"f_ghz": float(out_csv.splitlines()[1])}]


def test_freq_usage_errors(capsys):
    code, _, err = run(capsys, "freq", "--radius-mm", "12", "--mode", TE210)
    assert code == 2 and "--eps-r" in err
    code, _, err = run(capsys, "freq", "--radius-mm", "12", "--eps-r",
                       "12.85", "--mode", "TE:v=2,n=1,p=1")
    assert code == 2 and "--height-mm" in err
    code, _, err = run(capsys, "freq", *G, "--mode", "XX:v=2,n=1,p=0")
    assert code == 2 and "--mode" in err
    code, _, err = run(capsys, "freq", *G, "--mode", "TE:v=2")
    assert code == 2
    code, _, err = run(capsys, "freq", *G, "--mode", "TE:n=1,p=0")
    assert code == 2
    code, _, err = run(capsys, "freq", *G, "--mode", "TE v=2,n=1,p=0")
    assert code == 2 and "expected FAMILY:v=...|m=...,n=...,p=..." in err
    code, _, err = run(capsys, "freq", *G, "--mode", "TE:v=2,n=1,p=0,q=1")
    assert code == 2 and "bad index 'q=1'" in err
    # an index too large for a float is a usage error, not an OverflowError
    code, out, err = run(capsys, "freq", *G, "--mode",
                         "TE:v=2,n=1" + "0" * 400 + ",p=0")
    assert code == 2 and out == "" and "radial index" in err


def test_computation_error_verbatim(capsys):
    code, _, err = run(capsys, "freq", "--radius-mm", "12", "--eps-r", "0.5",
                       "--mode", TE210)
    assert code == 1
    assert err.strip() == "relative permittivity must be >= 1, got 0.5"


def test_geometry_file_and_conflict(capsys, tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"radius_mm": 12.0, "height_mm": 2.54,
                                "sector_deg": 90.0, "eps_r": 12.85}))
    code, out, _ = run(capsys, "freq", "--geometry", str(path),
                       "--mode", "EH:v=1,n=1,p=0")
    assert code == 0
    assert float(out.splitlines()[1]) == pytest.approx(4.39, rel=0.005)
    code, _, err = run(capsys, "freq", "--geometry", str(path),
                       "--radius-mm", "10", "--mode", TE210)
    assert code == 2 and "--radius-mm" in err
    # a length that underflows in meters is named as typed, as a flag is
    tiny = {"radius_mm": 1e-322, "height_mm": 2.54, "sector_deg": 90.0,
            "eps_r": 12.85}
    for text, message in (("[" * 100_000 + "]" * 100_000,
                           "geometry document nests too deeply"),
                          ("[1]", "geometry document must be a JSON object"),
                          (json.dumps(tiny), "radius_mm 1e-322 is out of "
                                             "floating-point range in SI units")):
        path.write_text(text)
        code, out, err = run(capsys, "freq", "--geometry", str(path),
                             "--mode", TE210)
        assert code == 1 and out == ""
        assert err.strip() == message


def test_power_anchor(capsys):
    code, out, _ = run(capsys, "power", "--pin-w", "1", "--sar", "53.3",
                       "--standard", "ieee", "--mass", "10g")
    assert code == 0
    assert out.splitlines()[0] == "p_max_w"
    assert float(out.splitlines()[1]) == pytest.approx(0.0375, rel=0.002)


def test_power_unknown_limit(capsys):
    code, _, err = run(capsys, "power", "--pin-w", "1", "--sar", "10",
                       "--standard", "ecc", "--mass", "10g", "--kind", "peak")
    assert code == 1 and "no published limit" in err


def test_modes_empty_table(capsys):
    code, out, _ = run(capsys, "modes", "--radius-mm", "12", "--eps-r",
                       "12.85", "--fmax-ghz", "0.001", "--p-max", "0")
    assert code == 0
    assert out == "family,v,n,p,f_ghz\n"


def test_modes_table(capsys):
    code, out, _ = run(capsys, "modes", *G, "--fmax-ghz", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    families = [line.split(",")[0] for line in lines[1:]]
    assert families == ["TE", "EH", "TE", "TE"]
    freqs = [float(line.split(",")[4]) for line in lines[1:]]
    assert freqs == sorted(freqs)


def test_field_is_thin_adapter(capsys, table1):
    args = ["field", *G, "--mode", TE210, "--n-r", "5", "--n-phi", "5",
            "--n-z", "3"]
    mode = ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0)
    grid = sample_grid(table1, mode, 5, 5, 3)
    code, out, _ = run(capsys, *args)
    assert code == 0 and out == export_grid(grid, "csv")
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0 and out == export_grid(grid, "json")


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("p", (0, 1))
def test_field_output_is_written_as_it_is_made(tmp_path, table1, fmt, p):
    # the file takes the export's texts one at a time, so the traced peak of
    # the command, sampling included, stays near the grid's texts: joining
    # the document before writing it peaked at 2.7-3.3 times the document
    path = tmp_path / f"field.{fmt}"
    mode = f"TE:m=1,n=1,p={p}"
    tracemalloc.start()
    try:
        code = main(["field", *G, "--mode", mode, "--n-r", "33", "--n-phi", "33",
                     "--n-z", "33", "--format", fmt, "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    doc = path.read_text(encoding="utf-8")
    grid = sample_grid(table1, ModeSpec.derived(ModeFamily.TE, 1, 1, p, table1.phi0),
                       33, 33, 33)
    assert doc == export_grid(grid, fmt)
    assert peak <= 1.75 * len(doc)


def test_field_svg(capsys):
    code, out, _ = run(capsys, "field", *G, "--mode", TE210, "--n-r", "9",
                       "--n-phi", "9", "--n-z", "1", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<rect") >= 81
    assert out.rstrip().endswith("</svg>")


def test_oracle_table(capsys):
    code, out, _ = run(capsys, "oracle", "--radius-mm", "1000",
                       "--count", "2", "--grid", "32")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,n,analytic_k_r,fd_k_t,rel_error"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[4]) < 0.02


def test_oracle_rejects_oversized_grid(capsys):
    code, out, err = run(capsys, "oracle", "--radius-mm", "12", "--grid", "513")
    assert code == 1 and out == ""
    assert err.strip() == "n_r must be at most 512, got 513"


def test_oracle_refuses_modes_the_grid_cannot_hold(capsys):
    # on the full disk the 50 smallest modes reach m = 21; 16 cosines hold
    # m < 16
    code, out, err = run(capsys, "oracle", "--radius-mm", "12", "--sector-deg",
                         "360", "--count", "50", "--grid", "16")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "FD grid holds m < 16, n <= 16" in err


def test_caps_exit_1(capsys):
    # each cap rejects before any work; none of these runs to its size
    for argv, message in (
            (["oracle", "--radius-mm", "12", "--count", "1000"],
             "count must be at most 50, got 1000"),
            (["field", *G, "--mode", TE210, "--n-r", "100000", "--n-phi",
              "100000", "--n-z", "100000"], "exceeds the cap of 262144"),
            (["modes", *G, "--fmax-ghz", "1e9", "--m-max", "1", "--n-max",
              "1", "--p-max", "2000000"], "more than 1000 modes")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err


def test_out_of_range_inputs_exit_1(capsys):
    # each of these used to end in a traceback or print inf, NaN or 0.0
    te = ["--mode", TE210]
    for argv, message in (
            (["field", "--radius-mm", "1e300", "--height-mm", "2.54",
              "--eps-r", "12.85", *te, "--n-z", "1"],
             "out of floating-point range"),
            (["field", *G, *te, "--n-r", "3", "--n-phi", "3", "--n-z", "1",
              "--amplitude", "1e308"], "overflow at amplitude"),
            (["oracle", "--radius-mm", "1e-300", "--grid", "16"],
             "out of floating-point range"),
            (["freq", "--radius-mm", "1e-320", "--eps-r", "12.85", *te],
             "out of floating-point range"),
            (["sweep", *G, "--param", "radius", "--start", "1e-300", "--stop",
              "1e300", "--steps", "3", *te], "out of floating-point range"),
            (["power", "--pin-w", "1e308", "--sar", "1e-308", "--standard",
              "ieee", "--mass", "1g"], "out of floating-point range"),
            (["modes", *G, "--fmax-ghz", "1e300"],
             "--fmax-ghz 1e+300 is out of floating-point range"),
            (["design", "--height-mm", "2.54", "--eps-r", "12.85", *te,
              "--target-ghz", "1e300", "--a-min-mm", "6", "--a-max-mm", "24"],
             "--target-ghz 1e+300 is out of floating-point range")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err


def _tissue_files(tmp_path):
    rng = np.random.default_rng(3)
    shape = (4, 4, 4)
    sigma = rng.uniform(0.2, 2.0, shape)
    rho = rng.uniform(900.0, 1100.0, shape)
    e_mag = rng.uniform(0.0, 50.0, shape)
    jpath = tmp_path / "tissue.json"
    jpath.write_text(json.dumps({
        "shape": list(shape), "voxel_m": 0.005, "p_in_w": 1.0,
        "sigma": sigma.ravel().tolist(), "rho": rho.ravel().tolist(),
        "e_mag": e_mag.ravel().tolist()}))
    cpath = tmp_path / "tissue.csv"
    lines = ["index,sigma,rho,e_mag"]
    for k, (s, r, e) in enumerate(zip(sigma.ravel(), rho.ravel(),
                                      e_mag.ravel())):
        lines.append(f"{k},{float(s)!r},{float(r)!r},{float(e)!r}")
    cpath.write_text("\n".join(lines) + "\n")
    spath = tmp_path / "tissue.meta.json"
    spath.write_text(json.dumps({"shape": list(shape), "voxel_m": 0.005,
                                 "p_in_w": 1.0}))
    return jpath, cpath, spath


def test_sar_file_forms_agree(capsys, tmp_path):
    jpath, cpath, spath = _tissue_files(tmp_path)
    code, out_json, _ = run(capsys, "sar", "--tissue", str(jpath),
                            "--mass", "1g")
    code2, out_csv, _ = run(capsys, "sar", "--tissue-csv", str(cpath),
                            "--sidecar", str(spath), "--mass", "1g")
    assert code == code2 == 0
    assert out_json == out_csv
    header, row = out_json.splitlines()
    assert header.startswith("peak_avg_w_per_kg,center_index")
    assert float(row.split(",")[0]) > 0


def test_sar_usage_and_io_errors(capsys, tmp_path):
    jpath, cpath, _ = _tissue_files(tmp_path)
    code, _, err = run(capsys, "sar", "--mass", "1g")
    assert code == 2 and "--tissue" in err
    code, _, err = run(capsys, "sar", "--tissue", str(jpath), "--tissue-csv",
                       str(cpath), "--mass", "1g")
    assert code == 2
    code, _, err = run(capsys, "sar", "--tissue-csv", str(cpath),
                       "--mass", "1g")
    assert code == 2 and "--sidecar" in err
    code, _, err = run(capsys, "sar", "--tissue",
                       str(tmp_path / "missing.json"), "--mass", "1g")
    assert code == 1 and "missing.json" in err


def test_sar_rejects_bad_tissue(capsys, tmp_path):
    jpath, cpath, spath = _tissue_files(tmp_path)
    doc = json.loads(jpath.read_text())
    doc["e_mag"][5] = float("nan")
    jpath.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sar", "--tissue", str(jpath), "--mass", "1g")
    assert code == 1 and out == ""
    assert err.strip() == "field magnitude must be >= 0, got nan"
    jpath.write_text("[1, 2]")
    code, out, err = run(capsys, "sar", "--tissue", str(jpath), "--mass", "1g")
    assert code == 1 and out == ""
    assert err.strip() == "tissue grid document must be a JSON object"
    spath.write_text("null")
    code, out, err = run(capsys, "sar", "--tissue-csv", str(cpath),
                         "--sidecar", str(spath), "--mass", "1g")
    assert code == 1 and out == ""
    assert err.strip() == "tissue grid sidecar must be a JSON object"


def test_sweep_is_thin_adapter(capsys, table1):
    # millimetres convert as --radius-mm does: 5.2 * 1e-3 is not 5.2 / 1000
    for start, stop in (("8", "16"), ("5.2", "6")):
        code, out, _ = run(capsys, "sweep", *G, "--param", "radius",
                           "--start", start, "--stop", stop, "--steps", "5",
                           "--mode", TE210, "--mode", "EH:v=1,n=1,p=0")
        assert code == 0
        spec = SweepSpec(SweepParameter.RADIUS, float(start) / 1000.0,
                         float(stop) / 1000.0, 5,
                         (ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0),
                          ModeSpec.explicit(ModeFamily.EH, 1.0, 1, 0)))
        assert out == "param_name,param_value,family,v,n,p,f_hz\n" + "".join(
            f"{r.parameter.value},{r.value!r},{r.mode.family.value},{r.mode.v!r},"
            f"{r.mode.n},{r.mode.p},{r.f_hz!r}\n" for r in sweep(table1, spec))


def test_sweep_csv_layout(capsys, table1):
    code, out, _ = run(capsys, "sweep", *G, "--param", "radius", "--start", "8",
                       "--stop", "16", "--steps", "2", "--mode", TE210)
    assert code == 0
    rows = sweep(table1, SweepSpec(SweepParameter.RADIUS, 0.008, 0.016, 2,
                                   (ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0),)))
    lines = out.splitlines()
    assert lines[0] == "param_name,param_value,family,v,n,p,f_hz"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "radius"
    assert float(cells[1]) == 0.008
    assert cells[2] == "TE"
    assert float(cells[3]) == 2.0
    assert int(cells[4]) == 1 and int(cells[5]) == 0
    assert float(cells[6]) == rows[0].f_hz


def test_sweep_json_matches_csv(capsys):
    argv = ["sweep", *G, "--param", "radius", "--start", "8", "--stop", "16",
            "--steps", "3", "--mode", TE210]
    code, out_csv, _ = run(capsys, *argv)
    code2, out_json, _ = run(capsys, *argv, "--format", "json")
    assert code == code2 == 0
    csv_rows = [line.split(",") for line in out_csv.splitlines()[1:]]
    json_rows = json.loads(out_json)
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert c[0] == j["param_name"]
        assert float(c[1]) == j["param_value"]
        assert c[2] == j["family"]
        assert float(c[3]) == j["v"]
        assert int(c[4]) == j["n"] and int(c[5]) == j["p"]
        assert float(c[6]) == j["f_hz"]


def test_sweep_svg(capsys):
    code, out, _ = run(capsys, "sweep", *G, "--param", "radius", "--start",
                       "8", "--stop", "16", "--steps", "9", "--mode", TE210,
                       "--mode", "EH:v=1,n=1,p=0", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<polyline") == 2


def test_design_subcommand(capsys):
    code, out, _ = run(capsys, "design", "--height-mm", "2.54", "--eps-r",
                       "12.85", "--mode", TE210, "--target-ghz", "6.117",
                       "--a-min-mm", "6", "--a-max-mm", "24")
    assert code == 0
    assert out.splitlines()[0] == "radius_mm"
    assert float(out.splitlines()[1]) == pytest.approx(12.0, rel=1e-3)


def test_design_bad_bracket(capsys):
    code, _, err = run(capsys, "design", "--height-mm", "2.54", "--eps-r",
                       "12.85", "--mode", TE210, "--target-ghz", "1.0",
                       "--a-min-mm", "10", "--a-max-mm", "12")
    assert code == 1 and "outside" in err


def test_design_huge_bracket(capsys):
    # the bracket is checked on the closed-form radius, so a far end whose
    # frequency would leave the float range does not matter
    code, out, _ = run(capsys, "design", "--height-mm", "2.54", "--eps-r",
                       "12.85", "--mode", TE210, "--target-ghz", "6.117",
                       "--a-min-mm", "6", "--a-max-mm", "1e300")
    assert code == 0
    assert float(out.splitlines()[1]) == pytest.approx(12.0, rel=1e-3)


_DESIGN = ["design", "--height-mm", "2.54", "--eps-r", "12.85", "--mode",
           TE210, "--target-ghz", "6.117"]
_SWEEP = ["sweep", "--radius-mm", "12", "--height-mm", "2.54", "--eps-r",
          "12.85", "--steps", "2", "--mode", TE210, "--param"]


@pytest.mark.parametrize("argv, message", [
    (["freq", "--radius-mm", "5e-324", "--eps-r", "12.85", "--mode", TE210],
     "--radius-mm 5e-324 is out of floating-point range"),
    (["freq", "--radius-mm", "12", "--height-mm", "5e-324", "--eps-r",
      "12.85", "--mode", TE210],
     "--height-mm 5e-324 is out of floating-point range"),
    (["freq", "--radius-mm", "12", "--sector-deg", "1e308", "--eps-r",
      "12.85", "--mode", TE210],
     "--sector-deg must be in (0, 360], got 1e+308"),
    ([*_DESIGN, "--a-min-mm", "5e-324", "--a-max-mm", "24"],
     "--a-min-mm 5e-324 is out of floating-point range"),
    ([*_DESIGN, "--a-min-mm", "6", "--a-max-mm", "inf"],
     "--a-max-mm must be positive and finite, got inf"),
    ([*_SWEEP, "radius", "--start", "5e-324", "--stop", "10"],
     "--start 5e-324 is out of floating-point range"),
    ([*_SWEEP, "sector_angle", "--start", "10", "--stop", "1e308"],
     "--stop must be in (0, 360], got 1e+308")],
    ids=["radius", "height", "sector", "a-min", "a-max", "sweep-start",
         "sweep-stop"])
def test_unit_flags_name_the_typed_value(capsys, argv, message):
    # not the meters or radians the library would see: 5e-324 mm is 0.0 m
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(message)


def test_design_rejects_nan_target(capsys):
    code, out, err = run(capsys, "design", "--height-mm", "2.54", "--eps-r",
                         "12.85", "--mode", TE210, "--target-ghz", "nan",
                         "--a-min-mm", "6", "--a-max-mm", "24")
    assert code == 1 and out == ""
    assert "target frequency must be positive and finite" in err


def test_freq_huge_order(capsys):
    # v = 1e6 is solved; v = 1e9 would need a longer zero scan than allowed
    code, out, err = run(capsys, "freq", "--radius-mm", "12", "--eps-r",
                         "12.85", "--mode", "TE:v=1e6,n=1,p=0")
    assert code == 0 and err == ""
    v = 1e6
    x_v1 = v + 1.8557570814 * v ** (1.0 / 3.0) + 1.03315 * v ** (-1.0 / 3.0)
    f = 299_792_458.0 / (2.0 * math.pi * math.sqrt(12.85)) \
        * math.hypot(x_v1, v) / 0.012
    assert float(out.splitlines()[1]) == pytest.approx(f / 1e9, rel=1e-10)
    code, out, err = run(capsys, "freq", "--radius-mm", "12", "--eps-r",
                         "12.85", "--mode", "TE:v=1e9,n=1,p=0")
    assert code == 1 and out == "" and "scan points" in err


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "freq", *G, "--mode", TE210,
                       "--output", str(path))
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == "f_ghz"
    assert float(lines[1]) == pytest.approx(6.113, rel=1e-3)


@pytest.mark.parametrize("cmd", ("freq", "field"))
@pytest.mark.parametrize("where", ("directory", "missing-parent", "empty",
                                   "nul-byte"))
def test_output_failures_exit_1(capsys, tmp_path, cmd, where):
    path = {"directory": str(tmp_path),
            "missing-parent": str(tmp_path / "missing" / "out.csv"),
            "empty": "",
            "nul-byte": str(tmp_path / "out\0.csv")}[where]
    extra = ["--n-r", "3", "--n-phi", "3", "--n-z", "1"] if cmd == "field" else []
    code, out, err = run(capsys, cmd, *G, "--mode", TE210, *extra,
                         "--output", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"cannot write {path!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# file names of any characters but "/" (so a path stays in its directory)
# and NUL: lone surrogates, which the file system encoding refuses ("\ud800")
# or writes as a byte ("\udcff"), the names of directories and names longer
# than a file system takes among them
_FILE_NAMES = st.one_of(
    st.text(st.characters(exclude_characters="/\0", exclude_categories=()),
            min_size=1, max_size=12),
    st.sampled_from(("\ud800", "a\udcff", ".", "..", "dir")),
    st.text(min_size=200, max_size=300))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("name", "nul-byte", "directory", "missing-parent")),
       _FILE_NAMES, st.integers(0, 12),
       st.sampled_from(("", "/", "/.", "/..")))
def test_fuzzed_output_paths_exit_cleanly(tmp_path, table1, where, name, cut,
                                          suffix):
    (tmp_path / "dir").mkdir(exist_ok=True)
    path = {"name": f"{tmp_path}/{name}",
            "nul-byte": f"{tmp_path}/{name[:cut]}\0{name[cut:]}",
            "directory": f"{tmp_path}/dir{suffix}",
            "missing-parent": f"{tmp_path}/missing/{name}"}[where]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["field", *G, "--mode", TE210, "--n-r", "3", "--n-phi", "3",
                     "--n-z", "1", "--output", path])
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""
    if code == 0:
        assert where == "name"
        grid = sample_grid(table1, ModeSpec.explicit(ModeFamily.TE, 2.0, 1, 0),
                           3, 3, 1)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == export_grid(grid, "csv")
    else:
        assert code == 1
        assert err.getvalue().startswith(f"cannot write {path!r}: ")
    assert not (tmp_path / "missing").is_dir()


def test_module_entry_point():
    # the package this suite imports, also where PYTHONPATH is unset
    src = str(Path(sectordra.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "sectordra", "freq", *G, "--mode", TE210],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0
    assert float(result.stdout.splitlines()[1]) == pytest.approx(6.113,
                                                                 rel=1e-3)


def test_unknown_subcommand_exits_2(capsys):
    assert main(["definitely-not-a-subcommand"]) == 2
    capsys.readouterr()


_GEOMETRY_FLAGS = ("--radius-mm", "--height-mm", "--sector-deg", "--eps-r",
                   "--geometry")
_OUTPUT_FLAGS = ("--format", "--output")
_SUBCOMMAND_FLAGS = {
    "freq": (*_GEOMETRY_FLAGS, "--mode", *_OUTPUT_FLAGS),
    "modes": (*_GEOMETRY_FLAGS, "--fmax-ghz", "--m-max", "--n-max", "--p-max",
              *_OUTPUT_FLAGS),
    "field": (*_GEOMETRY_FLAGS, "--mode", "--n-r", "--n-phi", "--n-z",
              "--amplitude", *_OUTPUT_FLAGS),
    "oracle": (*_GEOMETRY_FLAGS, "--count", "--grid", *_OUTPUT_FLAGS),
    "sar": ("--tissue", "--tissue-csv", "--sidecar", "--mass", *_OUTPUT_FLAGS),
    "power": ("--pin-w", "--sar", "--standard", "--mass", "--kind",
              *_OUTPUT_FLAGS),
    "sweep": (*_GEOMETRY_FLAGS, "--param", "--start", "--stop", "--steps",
              "--mode", *_OUTPUT_FLAGS),
    "design": (*_GEOMETRY_FLAGS, "--mode", "--target-ghz", "--a-min-mm",
               "--a-max-mm", *_OUTPUT_FLAGS),
}


def test_every_subcommand_gets_its_flags(capsys, monkeypatch):
    # each subcommand's arguments are added only when it is dispatched to,
    # so each help text must still list every flag of its own
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    for name in _SUBCOMMAND_FLAGS:
        assert re.search(rf"^    {name}(?: |$)", out, re.MULTILINE), name
    for name, flags in _SUBCOMMAND_FLAGS.items():
        code, out, err = run(capsys, name, "--help")
        assert code == 0 and err == "", name
        assert out.startswith(f"usage: sectordra {name} [-h]"), name
        listed = set(re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE))
        assert listed == set(flags), name
    # the console script calls main() with no argv, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["sectordra", "power", "--pin-w", "1",
                                      "--sar", "53.3", "--standard", "ieee",
                                      "--mass", "10g"])
    assert main() == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "p_max_w"


def _readme_cli_examples():
    # (command line, output) of each "$ sectordra ..." example in the
    # README's "Quick start (CLI)" block, a trailing "\" joining the next line
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start (CLI)")[1]
    block = section.split("```text\n")[1].split("```")[0]
    examples = []
    for chunk in block.strip("\n").split("\n\n"):
        lines = chunk.split("\n")
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        examples.append((shlex.split(command), "".join(f"{line}\n" for line in lines)))
    return examples


_README_EXAMPLES = _readme_cli_examples()
_README_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


@pytest.mark.parametrize("argv, expected", _README_EXAMPLES,
                         ids=[argv[2] for argv, _ in _README_EXAMPLES])
def test_readme_cli_examples(capsys, argv, expected):
    # numbers to 1e-12 relative, every other byte exactly
    assert argv[:2] == ["$", "sectordra"]
    code, out, err = run(capsys, *argv[2:])
    assert code == 0 and err == ""
    got, want = _README_NUMBER.split(out), _README_NUMBER.split(expected)
    assert got[::2] == want[::2]
    for number, written in zip(got[1::2], want[1::2]):
        assert float(number) == pytest.approx(float(written), rel=1e-12, abs=0.0)


# ------------------------------------------------------------------ fuzzing

def _mostly(plausible, odd):
    """One of `plausible` nine times in ten, else one of `odd`."""
    return st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(plausible if k else odd))


# plausible values and magnitudes of 1e+-300, which get past parsing and
# the range checks into the arithmetic, with some that do not
_NUMBER = st.sampled_from(
    ("12", "2.54", "12.85", "90", "7", "1", "0.5", "360") * 2
    + ("1e300", "-1e300", "1e-300", "1e-320", "1e308") * 2
    + ("0", "-1", "nan", "inf", "-inf", "x"))
_INDEX = _mostly(("0", "1", "2"), ("-1", "1e300", "2.5", "x"))

_GEOMETRY_DOCS = (
    '{"radius_mm": 12, "height_mm": 2.54, "sector_deg": 90, "eps_r": 12.85}',
    '{"radius_mm": 1e300, "height_mm": 2.54, "sector_deg": 90, "eps_r": 12.85}',
    '{"radius_mm": 1e-320, "height_mm": 1e-320, "sector_deg": 1e-300, '
    '"eps_r": 1e300}',
    '{"radius_mm": "12", "height_mm": 2.54, "sector_deg": 90, "eps_r": 12.85}',
    '{"radius_mm": 12}', "{}", "[1]", "null", "", "{", "[" * 5000)


def _tissue_doc(shape=(2, 2, 2), voxel="0.005", p_in="1.0", value="1.0"):
    n = 8
    arrays = ", ".join(f'"{key}": [{", ".join([value] * n)}]'
                       for key in ("sigma", "rho", "e_mag"))
    return (f'{{"shape": {list(shape)}, "voxel_m": {voxel}, '
            f'"p_in_w": {p_in}, {arrays}}}')


_TISSUE_DOCS = (
    _tissue_doc(value="1000.0"), _tissue_doc(value="NaN"),
    _tissue_doc(value="1e400"), _tissue_doc(value="-1"),
    _tissue_doc(shape=(1e300, 1, 1)), _tissue_doc(shape=(2, 2, -2)),
    _tissue_doc(voxel="1e300"), _tissue_doc(voxel="1e-320"),
    _tissue_doc(p_in="0"), '{"shape": "abc"}', '{"shape": [2, 2, 2]}',
    "{}", "[1]", "null", "", "{", "[" * 5000)
_SIDECARS = ('{"shape": [2, 2, 2], "voxel_m": 0.005, "p_in_w": 1.0}',
             '{"shape": [2, 2, 2], "voxel_m": 1e300, "p_in_w": 1e-320}',
             '{"shape": [1e300, 1, 1], "voxel_m": 0.005, "p_in_w": 1.0}',
             '{"shape": [2, 2]}', "[]", "", "{")


def _tissue_csv(rows):
    return "index,sigma,rho,e_mag\n" + "".join(
        f"{k},{row}\n" for k, row in enumerate(rows))


_TISSUE_CSVS = (_tissue_csv(["1.0,1000.0,5.0"] * 8),
                _tissue_csv(["1.0,1000.0,inf"] * 8),
                _tissue_csv(["1e400,1000.0,5.0"] * 8),
                _tissue_csv(["nan,1e-320,5.0"] * 8),
                _tissue_csv(["1.0,1000.0"] * 8),
                _tissue_csv(["x,y,z"] * 8),
                "1.7,1.0,1000.0,5.0\n", "inf,1.0,1000.0,5.0\n", "", "\n,,,\n")


@st.composite
def _argv(draw):
    """One sectordra command line, with the files it reads; values mix
    plausible and extreme magnitudes, and every size stays small except a
    drawn cap, which must be rejected. Returns (argv, files, capped)."""
    cmd = draw(st.sampled_from(("freq", "modes", "field", "oracle", "sar",
                                "power", "sweep", "design")))
    argv, files, capped = [cmd], {}, False

    def flag(name, values, required=True):
        # name=value, so that argparse reads -1e300 as a value
        if required or draw(st.integers(0, 15)):
            argv.append(f"{name}={draw(values)}")

    def mode():
        family = draw(_mostly(("TE", "EH"), ("XX",)))
        order = draw(st.sampled_from(("v", "m")))
        value = draw(_mostly(("0", "1", "2", "2.5"), ("-1", "1e300", "nan"))
                     if order == "v" else _INDEX)
        n = draw(_mostly(("1", "2", "3"), ("0", "1e300", "2.5", "x")))
        return f"{family}:{order}={value},n={n},p={draw(_INDEX)}"

    if cmd not in ("sar", "power"):
        if not draw(st.integers(0, 3)):
            files["geom.json"] = draw(_mostly(_GEOMETRY_DOCS[:1],
                                              _GEOMETRY_DOCS[1:]))
            argv.extend(("--geometry", "geom.json"))
        else:
            for name in ("--radius-mm", "--height-mm", "--sector-deg",
                         "--eps-r"):
                flag(name, _NUMBER, required=False)
    if cmd in ("freq", "field", "design"):
        argv.append(f"--mode={mode()}")
    if cmd == "modes":
        flag("--fmax-ghz", _NUMBER)
        for name in ("--m-max", "--n-max", "--p-max"):
            flag(name, _INDEX)
    elif cmd == "field":
        for name in ("--n-r", "--n-phi", "--n-z"):
            size = draw(_mostly(("2", "3", "4"), ("0", "1", "100000")))
            capped |= size == "100000"
            argv.append(f"{name}={size}")
        flag("--amplitude", _NUMBER)
    elif cmd == "oracle":
        grid = draw(st.sampled_from(("15", "16", "20", "513")))
        count = draw(st.sampled_from(("0", "1", "2", "3", "51")))
        capped = grid == "513" or count == "51"
        argv.extend((f"--grid={grid}", f"--count={count}"))
    elif cmd == "sar":
        argv.extend(("--mass", draw(st.sampled_from(("1g", "10g")))))
        if draw(st.booleans()):
            files["tissue.json"] = draw(_mostly(_TISSUE_DOCS[:1],
                                                _TISSUE_DOCS[1:]))
            argv.extend(("--tissue", "tissue.json"))
        else:
            files["tissue.csv"] = draw(_mostly(_TISSUE_CSVS[:1],
                                               _TISSUE_CSVS[1:]))
            files["sidecar.json"] = draw(_mostly(_SIDECARS[:1],
                                                 _SIDECARS[1:]))
            argv.extend(("--tissue-csv", "tissue.csv",
                         "--sidecar", "sidecar.json"))
    elif cmd == "power":
        flag("--pin-w", _NUMBER)
        flag("--sar", _NUMBER)
        argv.extend(("--standard", draw(st.sampled_from(("ieee", "ecc"))),
                     "--mass", draw(st.sampled_from(("1g", "10g"))),
                     "--kind", draw(st.sampled_from(("average", "peak")))))
    elif cmd == "sweep":
        steps = draw(_mostly(("2", "3"), ("0", "1", "10001")))
        capped = steps == "10001"
        param = draw(st.sampled_from(("radius", "height", "eps_r",
                                      "sector_angle")))
        argv.extend(("--param", param, f"--steps={steps}"))
        flag("--start", _NUMBER)
        flag("--stop", _NUMBER)
        for _ in range(draw(st.integers(1, 2))):
            argv.append(f"--mode={mode()}")
    elif cmd == "design":
        for name in ("--target-ghz", "--a-min-mm", "--a-max-mm"):
            flag(name, _NUMBER)
    formats = ("csv", "json", "svg") if cmd in ("field", "sweep") else \
        ("csv", "json")
    argv.extend(("--format", draw(st.sampled_from(formats))))
    return argv, files, capped


_NON_FINITE = re.compile(r"\b(?:inf|nan|infinity)\b", re.IGNORECASE)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_fuzzed_command_lines_exit_cleanly(tmp_path, case):
    argv, files, capped = case
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 10.0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if capped:
        assert code != 0
    if argv[0] in ("freq", "modes", "sweep", "design", "power"):
        assert not _NON_FINITE.search(out.getvalue())

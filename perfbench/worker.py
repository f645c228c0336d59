"""One benchmark process: a cold start, or one closed-loop client.

    worker.py cold --workload W --seed N [--import-only]
    worker.py client --workload W --seed N [--trace]

A cold start prints one JSON object. A client stays up and runs its timed
ops in batches on run.py's commands (see `serve`). run.py starts both with
PYTHONPATH pointing at the checkout's src/ and BLAS threads pinned to 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def _import_package():
    import sectordra

    src = (ROOT / "src").resolve()
    if src not in Path(sectordra.__file__).resolve().parents:
        raise SystemExit(f"sectordra was imported from {sectordra.__file__}, "
                         f"not from {src}")
    return sectordra


def calibrate() -> float:
    """Host-drift indicator: median ms of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cold(args, wl) -> dict:
    inp = wl.op_input(0)  # input synthesis stays outside the timed region
    t0 = time.perf_counter()
    sd = _import_package()
    t1 = time.perf_counter()
    if args.import_only:
        return {"import_s": t1 - t0}
    error = None
    try:
        out = wl.run(sd, inp, NullTracer())
        t2 = time.perf_counter()
        wl.check(sd, inp, out)
    except Exception as exc:  # the run reports a failed op, not a crash
        t2 = time.perf_counter()
        error = f"{type(exc).__name__}: {exc}"
    return {"import_s": t1 - t0, "first_op_s": t2 - t1, "error": error}


class Client:
    """The closed loop: runs op i, checks it, tracks cache state."""

    def __init__(self, wl, sd, tracer) -> None:
        self.wl, self.sd, self.t = wl, sd, tracer
        self.seen_zeros: set = set()
        self.latencies_ms: list[float] = []
        self.rows: list[dict] = []  # traced run: per-op stats
        self.attempted = 0
        self.errors: list[str] = []

    def op(self, i: int, timed: bool) -> None:
        wl, sd, t = self.wl, self.sd, self.t
        self.attempted += 1
        inp = wl.op_input(i)
        t.op_id = i
        try:
            t0 = time.perf_counter()
            with t.span("op"):
                out = wl.run(sd, inp, t)
            latency = time.perf_counter() - t0
            with t.span("check"):
                wl.check(sd, inp, out)
                cold_zeros = wl.zero_pairs(sd, inp, out) - self.seen_zeros
                self.seen_zeros |= cold_zeros
                if wl.needs_cold_zero and not cold_zeros:
                    raise CheckFailed("op computed no new Bessel zero")
            if t.enabled:
                with t.span("replay"):
                    wl.replay(sd, inp, out, cold_zeros, t)
                if timed:
                    self.rows.append({"op": i, "cold_zeros": len(cold_zeros),
                                      **wl.stats(sd, inp, out)})
        except Exception as exc:  # the run reports a failed op, not a crash
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        if timed:
            self.latencies_ms.append(latency * 1e3)


def _med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, rows: list[dict]) -> dict:
    """Per-layer metrics from the spans of the timed ops.

    A layer's time in an op is the self time of the spans under that op's
    root span; specfun's figures come from the replay spans. A layer this
    workload never calls reports 0.
    """
    own = tracer.self_times()
    timed = {r["op"] for r in rows}
    per_op = {i: {} for i in timed}
    replay_s: dict[str, float] = {}
    replay_calls: dict[str, int] = {}
    for k, span in enumerate(tracer.spans):
        if span["op"] not in timed or span["parent"] is None:
            continue
        root = tracer.root(k)["name"]
        name = span["name"]
        if root == "op":
            per_op[span["op"]][name] = per_op[span["op"]].get(name, 0.0) + own[k]
        elif root == "replay":
            replay_s[name] = replay_s.get(name, 0.0) + own[k]
            replay_calls[name] = replay_calls.get(name, 0) + span.get("calls", 1)

    def ms(name):
        return _med(1e3 * ops[name] for ops in per_op.values() if name in ops)

    def ratio_med(num, *names):
        return _med(r[num] / sum(per_op[r["op"]][n] for n in names)
                    for r in rows if num in r)

    def per_call(name, scale):
        calls = replay_calls.get(name, 0)
        return scale * replay_s[name] / calls if calls else 0.0

    kept = sum(r.get("kept", 0) for r in rows)
    candidates = sum(r.get("candidates", 0) for r in rows)
    return {
        "specfun.cold_zeros_per_op": _med(r["cold_zeros"] for r in rows),
        "specfun.zero_ms": per_call("specfun.bessel_zero", 1e3),
        "specfun.j_us": per_call("specfun.bessel_j", 1e6),
        "modal.enumerate_modes_ms": ms("modal.enumerate_modes"),
        "modal.kept_ratio": kept / candidates if candidates else 0.0,
        "design.solve_radius_ms": ms("design.solve_radius"),
        "design.sweep_ms": ms("design.sweep"),
        "cli.main_ms": ms("cli.main"),
        "fields.sample_grid_ms": ms("fields.sample_grid"),
        "fields.export_csv_ms": ms("fields.export_grid.csv"),
        "fields.export_json_ms": ms("fields.export_grid.json"),
        "fields.export_mb_per_s": ratio_med("bytes", "fields.export_grid.csv",
                                            "fields.export_grid.json") / 1e6,
        "fields.load_grid_json_ms": ms("fields.load_grid_json"),
        "fields.boundary_residuals_ms": ms("fields.boundary_residuals"),
        "oracle.dense_ms": ms("oracle.compare_modes.dense"),
        "oracle.sparse_ms": ms("oracle.compare_modes.sparse"),
        "oracle.unknowns_per_s": ratio_med("unknowns", "oracle.compare_modes.dense",
                                           "oracle.compare_modes.sparse"),
        "oracle.max_rel_err": max((r["max_rel_err"] for r in rows
                                   if "max_rel_err" in r), default=0.0),
        "sar.parse_ms": ms("sar.tissue_grid_from_json"),
        "sar.avg_1g_ms": ms("sar.averaged_sar.1g"),
        "sar.avg_10g_ms": ms("sar.averaged_sar.10g"),
        "sar.voxels_per_s": ratio_med("voxels", "sar.averaged_sar.1g",
                                      "sar.averaged_sar.10g"),
    }


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles",
                                                  ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def serve(args, wl) -> None:
    """The client process: set up, then answer run.py's commands.

    Commands, one per stdin line, each answered by one JSON line:
      calibrate          time the drift-indicator loop
      run SECONDS K      one of K batches: run timed ops for SECONDS and
                         for at least a K-th of the workload's min_ops
      ops N              run exactly N timed ops
      finish             report every latency, count and layer metric
    Nothing else may reach stdout, so the package's own output goes to stderr.
    """
    import mpmath
    import numpy
    import resource
    import scipy

    proto, sys.stdout = sys.stdout, sys.stderr

    def reply(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    wl.prepare()
    sd = _import_package()
    tracer = Tracer() if args.trace else NullTracer()
    run_problems = wl.run_checks(sd, _load_oracles())
    client = Client(wl, sd, tracer)
    client.op(0, timed=False)  # warm-up: first-op costs belong to setup_s
    reply({"ready": True})
    i, elapsed = 1, 0.0
    while True:
        cmd, *rest = sys.stdin.readline().split() or ["finish"]
        if cmd == "calibrate":
            reply({"calib_ms": calibrate()})
        elif cmd in ("run", "ops"):
            first = i
            t0 = time.perf_counter()
            while True:
                if cmd == "ops":
                    if i - first >= int(rest[0]):
                        break
                elif (time.perf_counter() - t0 >= float(rest[0])
                      and (i - first) * int(rest[1]) >= wl.min_ops):
                    break
                client.op(i, timed=True)
                i += 1
            batch = time.perf_counter() - t0
            elapsed += batch
            reply({"ops": i - first, "elapsed_s": batch})
        elif cmd == "finish":
            break
        else:
            raise SystemExit(f"unknown command {cmd!r}")
    result = {
        "timed_ops": i - 1,
        "elapsed_s": elapsed,
        "latencies_ms": client.latencies_ms,
        "attempted": client.attempted,
        "failed": len(client.errors),
        "errors": client.errors[:5] + run_problems,
        "run_checks_ok": not run_problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, client.rows)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.json"
        path.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(path.relative_to(ROOT))
    reply(result)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cold", "client"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    tmpdir = OUT_DIR / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, str(tmpdir))
        if args.mode == "cold":
            print(json.dumps(cold(args, wl)))
        else:
            serve(args, wl)
    finally:
        for leftover in tmpdir.iterdir():
            leftover.unlink()
        tmpdir.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

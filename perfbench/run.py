"""Benchmark entry point: run one workload, or all of them, and report.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

With --trace 0 every workload reports the end-to-end metrics of
BENCHMARK.json: setup_s from several cold starts, and the op metrics from
one closed-loop client process whose timed ops run in batches between the
cold starts. With --trace 1 it reports the per-layer metrics instead, from
an untraced client and a traced client that replays the same ops batch by
batch. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and sample count, the environment and the host-drift indicator.
Full run records go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"
COLD_STARTS = 3
# the cold starts split the timed ops into this many batches
BATCHES = COLD_STARTS + 1
# a workload run must end within this many seconds
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed: int) -> dict:
    """What the figures depend on besides the code: host and versions."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sectordra").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit,
            "source_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "threads": {name: "1" for name in THREAD_VARS}}


class Runner:
    """Starts one workload's processes, all within one deadline."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def argv(self, mode: str, *extra: str) -> list[str]:
        return [sys.executable, str(WORKER), mode, "--workload", self.workload,
                "--seed", str(self.seed), *extra]

    def left(self, what: str) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"{self.workload}: out of time {what}")
        return left

    def cold(self, *extra: str) -> dict:
        try:
            proc = subprocess.run(self.argv("cold", *extra), env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=self.left("before a cold start"))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload}: cold start timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: cold start exited "
                             f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


class ClientProcess:
    """A running client process and its one-line-per-command protocol."""

    def __init__(self, runner: Runner, *extra: str) -> None:
        self.runner = runner
        self.log = tempfile.TemporaryFile(dir=OUT_DIR)
        self.proc = subprocess.Popen(runner.argv("client", *extra), env=runner.env,
                                     cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True)
        self.request(None)  # wait for set-up and the warm-up op

    def request(self, command: str | None) -> dict:
        name = command or "set-up"
        line = ""
        try:
            if command is not None:
                self.proc.stdin.write(command + "\n")
                self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        self.runner.left(f"waiting for {name}"))
            if ready:
                line = self.proc.stdout.readline()
        except BrokenPipeError:
            pass  # the client died; its log says why
        if not line:
            self.log.seek(0)
            tail = self.log.read().decode(errors="replace").strip()[-2000:]
            raise BenchError(f"{self.runner.workload}: client gave no answer to "
                             f"{name}: {tail}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.log):
            stream.close()


def interleaved(runner: Runner, clients: list[ClientProcess],
                cold_args: tuple) -> tuple:
    """Cold starts alternate with batches of timed ops, so every metric
    samples the host over the whole run rather than one stretch of it.

    The measuring phase lasts --seconds, cold starts included: batch k ends
    at the k-th of BATCHES evenly spaced marks. The first client runs for
    its share of the time left to the mark; any other client then replays
    exactly the ops the first one ran in that batch.
    """
    calib_before = clients[0].request("calibrate")["calib_ms"]
    colds = []
    start = time.monotonic()
    for k in range(1, BATCHES + 1):
        if k > 1:
            colds.append(runner.cold(*cold_args))
        left = start + runner.seconds * k / BATCHES - time.monotonic()
        batch = clients[0].request(f"run {max(left, 0.0) / len(clients)} "
                                   f"{BATCHES}")
        for other in clients[1:]:
            other.request(f"ops {batch['ops']}")
    calib_after = clients[0].request("calibrate")["calib_ms"]
    results = [c.request("finish") for c in clients]
    for result in results:
        result.update(calib_before_ms=calib_before, calib_after_ms=calib_after)
    return colds, results


def end_to_end(runner: Runner, clients: list[ClientProcess]) -> tuple[dict, dict]:
    colds, (loop,) = interleaved(runner, clients, ())
    lat = loop["latencies_ms"]
    if len(lat) < 2:
        raise BenchError(f"{runner.workload}: {len(lat)} ops succeeded, too "
                         f"few to report latency; errors: {loop['errors']}")
    cold_errors = [c["error"] for c in colds if c["error"]]
    metrics = {
        "setup_s": statistics.median(c["import_s"] + c["first_op_s"] for c in colds),
        "ops_per_s": loop["timed_ops"] / loop["elapsed_s"],
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    record = {"cold_starts": colds, "loop": loop,
              "attempted": len(colds) + loop["attempted"],
              "failed": len(cold_errors) + loop["failed"],
              "errors": cold_errors + loop["errors"],
              "correct": not cold_errors and loop["failed"] == 0
              and loop["run_checks_ok"],
              "samples": {"setup_s": len(colds), "op_p50_ms": len(lat),
                          "op_p90_ms": len(lat)}}
    return metrics, record


def per_layer(runner: Runner, clients: list[ClientProcess]) -> tuple[dict, dict]:
    imports, (base, traced) = interleaved(runner, clients, ("--import-only",))
    if not base["latencies_ms"] or not traced["latencies_ms"]:
        raise BenchError(f"{runner.workload}: no op succeeded; errors: "
                         f"{base['errors'] + traced['errors']}")
    p50 = statistics.median(base["latencies_ms"])
    p50_traced = statistics.median(traced["latencies_ms"])
    metrics = dict(traced["layers"])
    metrics["cli.import_ms"] = 1e3 * statistics.median(c["import_s"] for c in imports)
    metrics["trace.overhead_pct"] = 100.0 * (p50_traced - p50) / p50
    record = {"imports": imports, "loop": base, "traced": traced,
              "attempted": base["attempted"] + traced["attempted"],
              "failed": base["failed"] + traced["failed"],
              "errors": base["errors"] + traced["errors"],
              "correct": base["failed"] == 0 and traced["failed"] == 0
              and base["run_checks_ok"] and traced["run_checks_ok"],
              "samples": {"cli.import_ms": len(imports),
                          "timed_ops": len(traced["latencies_ms"])}}
    return metrics, record


def run_workload(spec: dict, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    runner = Runner(workload, seed, seconds)
    OUT_DIR.mkdir(exist_ok=True)
    clients: list[ClientProcess] = []
    try:
        clients.append(ClientProcess(runner))
        if trace:
            clients.append(ClientProcess(runner, "--trace"))
        metrics, record = (per_layer if trace else end_to_end)(runner, clients)
    finally:
        for client in clients:
            client.close()
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} are "
                         "computed or declared but not both")
    loop = record["loop"]
    print(f"# {workload}: seed {seed}, {loop['timed_ops']} timed ops in "
          f"{loop['elapsed_s']:.2f} s; host drift: calibration loop "
          f"{loop['calib_before_ms']:.2f} ms before, "
          f"{loop['calib_after_ms']:.2f} ms after")
    for name, unit in declared.items():
        n = record["samples"].get(name)
        note = f"  (n={n})" if n else ""
        print(f"{workload}  {name} = {metrics[name]:.6g} {unit}{note}")
    print(f"{workload}  attempted = {record['attempted']}, failed = "
          f"{record['failed']}, correct = {record['correct']}")
    for error in record["errors"]:
        print(f"# {workload} error: {error}")
    record["metrics"] = metrics
    record["environment"] = {**environment(seed), "versions": loop["versions"]}
    (OUT_DIR / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in declared.items()}}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "sectordra" / "__init__.py"
    oracles = ROOT / "tests" / "oracles.py"
    missing = [str(p.relative_to(ROOT)) for p in (spec_path, package, oracles)
               if not p.is_file()]
    if missing:
        print(f"error: not a sectordra checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    print("# environment: " + json.dumps(environment(args.seed)))
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(spec, w, args.seed, args.seconds,
                                   bool(args.trace)) for w in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[chosen[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The proflim benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: audit, flow, limits (in-process, one worker process) and
cold_start (one fresh interpreter per op).  Each is a closed loop: a single
client, one op at a time, at most one child process at a time.  Every op's
output is checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run (see README.md).  The full record,
with machine and library metadata, goes to benchmarks/results/.

The program under test is the proflim package in src/ of the checkout this
file sits in; nothing is installed or built.  Without it the benchmark exits
with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import coldstart  # noqa: E402  (stdlib only)
import speed  # noqa: E402  (stdlib only)
import tracing  # noqa: E402  (stdlib only)

WORKLOADS = ("audit", "flow", "limits", "cold_start")
# set-up-only workers per in-process run: setup_s and import_s are medians
# over them; cold_start's set-up is as many fresh `import proflim` processes
SETUPS = 5
CHILD_TIMEOUT = 120.0      # seconds any one child process may take
TAIL_BEYOND = 10           # samples that must lie beyond the tail percentile
# whole op cycles of the traced run: same count traced and untraced
TRACE_CYCLES = {"audit": 2, "flow": 4, "limits": 10, "cold_start": 1}
IMPORTTIME_SAMPLES = 3
# Seeds 0-9 tune and prove the benchmark; claims are re-checked on this one.
HELD_OUT_SEED = 7919
PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    return env


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    libs = {}
    for lib in ("numpy", "scipy", "sympy"):
        try:
            libs[lib] = importlib.metadata.version(lib)
        except importlib.metadata.PackageNotFoundError:
            libs[lib] = None
    return {"python": platform.python_version(), **libs, "cpu": cpu,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "thread_pins": PINS, "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# child processes


def run_process(argv: list) -> tuple:
    """Run one interpreter to completion: (wall seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{argv[:4]} took over {CHILD_TIMEOUT} s") from err
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def run_worker(args: list) -> tuple:
    """Run worker.py: ({"IMPORTED": s, "READY": s} since spawn, final JSON)."""
    t0 = time.perf_counter()
    deadline = t0 + CHILD_TIMEOUT
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    marks, doc, buf, err = {}, None, b"", b""
    try:
        streams = {proc.stdout.fileno(): "out", proc.stderr.fileno(): "err"}
        while streams:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"worker {args} took over {CHILD_TIMEOUT} s")
            readable, _, _ = select.select(list(streams), [], [], left)
            seen = time.perf_counter()
            for fd in readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    del streams[fd]
                elif streams[fd] == "err":
                    err += chunk
                else:
                    buf += chunk
                    while b"\n" in buf:
                        line, buf = buf.split(b"\n", 1)
                        text = line.decode()
                        if text in ("IMPORTED", "READY"):
                            marks[text] = seen - t0
                        elif text.startswith("{"):
                            doc = json.loads(text)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if code != 0 or "READY" not in marks:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"worker {args} exited with {code}: {' / '.join(tail)}")
    return marks, doc


def prewarm() -> None:
    """One untimed import: compiles bytecode and warms the file cache."""
    _, code, _, err = run_process(["-c", "import proflim"])
    if code != 0:
        raise BenchError(f"import proflim failed: {err.strip()[-300:]}")


def import_times() -> dict:
    """Cumulative import seconds of proflim.expr and proflim.symplectic,
    medians over fresh interpreters under -X importtime."""
    samples = {"expr.import_s": [], "symplectic.import_s": []}
    for _ in range(IMPORTTIME_SAMPLES):
        _, code, _, err = run_process(["-X", "importtime", "-c", "import proflim"])
        if code != 0:
            raise BenchError("import proflim failed under -X importtime")
        cumulative = {}
        for line in err.splitlines():
            parts = line.partition(":")[2].split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        samples["expr.import_s"].append(cumulative.get("proflim.expr", 0.0))
        samples["symplectic.import_s"].append(cumulative.get("proflim.symplectic", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# statistics


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples beyond it; the median when there are too few."""
    xs = sorted(latencies)
    i = len(xs) - 1 - TAIL_BEYOND
    if i < len(xs) // 2:
        return statistics.median(xs), 50.0
    return xs[i], 100.0 * (i + 1) / len(xs)


def per_kind(kinds: list, latencies: list) -> dict:
    out: dict = {}
    for kind, lat in zip(kinds, latencies):
        out.setdefault(kind, []).append(lat)
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(out.items())}


def ops_per_s(latencies: list) -> float:
    """Ops per second of op time."""
    return len(latencies) / sum(latencies)


def end_to_end(setups, imports, latencies, failed, rss_mb) -> tuple:
    """(metrics, tail percentile); ops_per_s counts ops per second of op time."""
    value, pct = tail(latencies)
    return {"setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (ops_per_s(latencies), "ops/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * value, "ms"),
            "ok_frac": (1.0 - failed / len(latencies), "fraction"),
            "peak_rss_mb": (rss_mb, "MB"),
            "import_s": (statistics.median(imports), "s")}, pct


def peak_child_rss_mb() -> float:
    # Linux reports kilobytes: the largest child this process waited for
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def reference_process() -> float:
    wall, code, _, err = run_process(speed.REF_PROCESS)
    if code != 0:
        raise BenchError(f"reference process failed: {err.strip()[-300:]}")
    return wall


# ---------------------------------------------------------------------------
# the four workloads, untraced and traced


def timed_result(setups, imports, latencies, scaled, kinds, failed, failures) -> dict:
    """End-to-end metrics at reference speed, raw wall-clock ones beside them.
    setups and imports are (raw, scaled) pairs; scaled are the latencies at
    reference speed."""
    rss = peak_child_rss_mb()
    metrics, pct = end_to_end([x for _, x in setups], [x for _, x in imports], scaled,
                              failed, rss)
    raw, _ = end_to_end([r for r, _ in setups], [r for r, _ in imports], latencies,
                        failed, rss)
    return {"metrics": metrics, "raw_metrics": {k: v for k, (v, _) in raw.items()},
            "attempted": len(latencies), "failed": failed, "failures": failures[:5],
            "tail_pct": pct, "samples": len(latencies), "per_kind": per_kind(kinds, scaled),
            "setups_s": setups, "imports_s": imports}


def fresh_imports(n: int) -> list:
    """(raw, scaled) seconds of n fresh `python -c "import proflim"`."""
    walls, refs = [], [reference_process()]
    for _ in range(n):
        wall, code, _, err = run_process(["-c", "import proflim"])
        if code != 0:
            raise BenchError(f"import proflim failed: {err.strip()[-300:]}")
        walls.append(wall)
        refs.append(reference_process())
    return list(zip(walls, speed.scale_processes(walls, refs)))


def in_process(workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    walls, imports, refs = [], [], [reference_process()]
    for _ in range(1 if tiny else SETUPS):
        marks, _ = run_worker(base + ["--setup-only"])
        walls.append(marks["READY"])
        imports.append(marks["IMPORTED"])
        refs.append(reference_process())
    setups = list(zip(walls, speed.scale_processes(walls, refs)))
    imports = list(zip(imports, speed.scale_processes(imports, refs)))
    _, doc = run_worker(base + ["--seconds", repr(seconds)])
    return timed_result(setups, imports, doc["latencies"],
                        speed.scale_ops(doc["latencies"], doc["refs"]), doc["kinds"],
                        doc["failed"], doc["failures"])


def cold_start(seed: int, seconds: float, tiny: bool) -> dict:
    rng = random.Random(seed)
    setups = fresh_imports(1 if tiny else SETUPS)
    latencies, refs, kinds, failures, failed = [], [reference_process()], [], [], 0
    start = time.perf_counter()
    ops: list = coldstart.cycle(rng, tiny)
    cycle_len = len(ops)
    # ops take about a second each: after one whole cycle, stop at the
    # first op past the deadline
    while len(latencies) < cycle_len or time.perf_counter() - start < seconds:
        ops = ops or coldstart.cycle(rng, tiny)
        kind, argv = ops.pop(0)
        wall, code, out, _ = run_process(argv)
        refs.append(reference_process())
        latencies.append(wall)
        kinds.append(kind)
        msg = coldstart.check(kind, argv, code, out)
        if msg is not None:
            failed += 1
            failures.append(msg)
    scaled = speed.scale_processes(latencies, refs)
    return timed_result(setups, setups, latencies, scaled, kinds, failed, failures)


def traced_result(metrics: dict, untraced: float, traced: float, attempted: int,
                  failed: int, failures: list, missing: list) -> dict:
    """Attach the tracing overhead and list the layers the workload missed."""
    metrics["trace.untraced_ops_per_s"] = (untraced, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced, "ops/s")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures[:5], "missing_spans": missing,
            "measured_indirectly": tracing.INDIRECT,
            "not_reached": sorted(k for k, (v, _) in metrics.items() if v == 0)}


def in_process_traced(workload: str, seed: int, tiny: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--cycles",
            str(1 if tiny else TRACE_CYCLES[workload])] + (["--tiny"] if tiny else [])
    prewarm()
    _, plain = run_worker(base)
    _, doc = run_worker(base + ["--trace"])
    trace = doc["trace"]
    metrics = tracing.layer_metrics(trace["ops"], tracing.merge([trace["setup"], trace["ops"]]),
                                    doc["attempted"], doc["steps"])
    metrics.update({k: (v, "s") for k, v in import_times().items()})
    metrics.update({m: (0.0, "ms") for m in coldstart.CLI_METRIC.values()})
    return traced_result(metrics, ops_per_s(speed.scale_ops(plain["latencies"], plain["refs"])),
                         ops_per_s(speed.scale_ops(doc["latencies"], doc["refs"])),
                         plain["attempted"] + doc["attempted"],
                         plain["failed"] + doc["failed"],
                         plain["failures"] + doc["failures"], trace["missing"])


def cold_start_traced(seed: int, tiny: bool) -> dict:
    """One pass of plain processes, then the same ops with every CLI process
    under the tracer (worker.py --cli-trace)."""
    rng = random.Random(seed)
    ops = [op for _ in range(1 if tiny else TRACE_CYCLES["cold_start"])
           for op in coldstart.cycle(rng, tiny)]
    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / f"cold_start-{seed}-spans.json"
    prewarm()
    failures, snapshots, missing, passes = [], [], [], []
    for traced in (False, True):
        walls, refs = [], [reference_process()]
        for kind, argv in ops:
            if traced and argv[:2] == coldstart.CLI:
                argv = [str(HERE / "worker.py"), "--cli-trace", str(spans_file),
                        "--"] + argv[2:]
            wall, code, out, _ = run_process(argv)
            walls.append(wall)
            refs.append(reference_process())
            msg = coldstart.check(kind, argv, code, out)
            if msg is not None:
                failures.append(msg)
            if spans_file.exists():
                with open(spans_file) as fh:
                    snap = json.load(fh)
                spans_file.unlink()
                missing = snap.pop("missing")
                snapshots.append(snap)
        passes.append(speed.scale_processes(walls, refs))
    spans = tracing.merge(snapshots)
    metrics = tracing.layer_metrics(spans, spans, len(ops), {})
    metrics.update({k: (v, "s") for k, v in import_times().items()})
    by_metric: dict = {}
    for (kind, _), wall in zip(ops, passes[0]):
        by_metric.setdefault(coldstart.CLI_METRIC.get(kind), []).append(wall)
    metrics.update({m: (1e3 * statistics.mean(by_metric[m]), "ms")
                    for m in coldstart.CLI_METRIC.values()})
    return traced_result(metrics, ops_per_s(passes[0]), ops_per_s(passes[1]),
                         2 * len(ops), len(failures), failures, missing)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and one set-up, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "proflim" / "__init__.py").is_file():
        print(f"error: no proflim package under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result = (cold_start_traced(args.seed, args.tiny)
                      if args.workload == "cold_start" else
                      in_process_traced(args.workload, args.seed, args.tiny))
        elif args.workload == "cold_start":
            result = cold_start(args.seed, args.seconds, args.tiny)
        else:
            result = in_process(args.workload, args.seed, args.seconds, args.tiny)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "held_out_seed": HELD_OUT_SEED,
              "machine": machine(), **result,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in result["metrics"].items()}}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    attempted, failed = result["attempted"], result["failed"]
    note = "" if args.trace else \
        f", tail = p{result['tail_pct']:.1f} of {result['samples']} ops"
    print(f"{args.workload} seed {args.seed}: failed_frac = {failed / attempted:.4g} "
          f"({failed}/{attempted}){note}; record in {path.relative_to(ROOT)}")
    for msg in result["failures"]:
        print(f"  FAIL {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

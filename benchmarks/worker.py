"""Child process of the benchmark: one workload process, or one traced CLI run.

Workload process (audit, flow, limits):

    worker.py --workload NAME --seed N [--tiny] [--trace]
              (--setup-only | --seconds S | --cycles C)

It prints ``IMPORTED`` once ``import proflim`` returned and ``READY`` once
set-up (gallery builds, expression compiles, one checked warm-up op) is
done; the parent times both lines from the moment it started the process.
Then it runs ops in whole seeded cycles, one at a
time, either until S seconds have passed or for C cycles.  It prints one JSON line with the per-op latencies, a
reference-loop sample taken before each op, the failures and, with --trace,
the aggregated spans.

Traced CLI run (cold_start with --trace):

    worker.py --cli-trace OUT.json -- <proflim arguments>

runs ``proflim.cli.main`` under the tracer and writes the spans to OUT.json.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (stdlib only)
from tracing import Tracer  # noqa: E402  (stdlib only)


def import_proflim():
    import proflim
    src = (ROOT / "src").resolve()
    if src not in Path(proflim.__file__).resolve().parents:
        raise SystemExit(f"proflim was imported from {proflim.__file__}, not {src}")
    return proflim


def run_ops(wl, ops, failures: list) -> tuple:
    """Time each op; check its output outside the timed region."""
    lat, refs, kinds, failed, steps = [], [], [], 0, Counter()
    for op in ops:
        refs.append(speed.reference())
        t0 = time.perf_counter()
        try:
            out, msg = wl.run(op), None
        except Exception as err:  # an op that raises is a failed op
            out, msg = None, f"{op[0]}: {type(err).__name__}: {err}"
        lat.append(time.perf_counter() - t0)
        if msg is None:
            msg = wl.check(op, out)
        kinds.append(op[0])
        steps.update(wl.steps(op))
        if msg is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(msg)
    return lat, refs, kinds, failed, steps


def workload_main(args) -> int:
    tracer = Tracer() if args.trace else None
    import_proflim()
    print("IMPORTED", flush=True)
    if tracer is not None:
        tracer.install()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, args.tiny, tracer)
    failures: list = []
    warm_failed = run_ops(wl, wl.cycle()[:1], failures)[3]
    if warm_failed:
        print(f"warm-up op failed: {failures[0]}", file=sys.stderr)
        return 1
    setup = tracer.snapshot() if tracer is not None else None
    if tracer is not None:
        tracer.reset()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    # set-up objects (sympy, galleries) move out of the collector's sight,
    # so full collections in the timed phase scan only what the ops made
    gc.freeze()

    lat, refs, kinds, failed, steps = [], [], [], 0, Counter()
    deadline = time.perf_counter() + (args.seconds or 0.0)
    done = 0
    while True:
        batch = run_ops(wl, wl.cycle(), failures)
        lat += batch[0]
        refs += batch[1]
        kinds += batch[2]
        failed += batch[3]
        steps += batch[4]
        done += 1
        if done >= args.cycles if args.cycles else time.perf_counter() >= deadline:
            break
    out = {"latencies": lat, "refs": refs, "kinds": kinds, "attempted": len(lat),
           "failed": failed, "failures": failures, "steps": steps}
    if tracer is not None:
        ops = tracer.snapshot()
        out["trace"] = {"setup": setup, "ops": ops, "missing": tracer.missing}
    print(json.dumps(out), flush=True)
    return 0


def cli_trace_main(out_path: str, argv: list) -> int:
    tracer = Tracer()
    import_proflim()
    tracer.install()
    from proflim import cli
    try:
        return cli.main(argv)
    finally:
        snap = tracer.snapshot()
        snap["missing"] = tracer.missing
        with open(out_path, "w") as fh:
            json.dump(snap, fh)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--cli-trace"]:
        if len(argv) < 3 or argv[2] != "--":
            print("usage: worker.py --cli-trace OUT.json -- ARGS...", file=sys.stderr)
            return 2
        return cli_trace_main(argv[1], argv[3:])
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("audit", "flow", "limits"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--cycles", type=int)
    return workload_main(ap.parse_args(argv))


if __name__ == "__main__":
    # thread pins must be in place before numpy loads; the parent sets them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())

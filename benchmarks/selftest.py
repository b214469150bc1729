#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 benchmarks/selftest.py

Checks, for each workload:
  * the untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and no op fails (failed == 0, ok_frac == 1);
  * the traced run prints every per-layer metric with its unit, no op
    fails, and two traced runs with one seed give the same per-op counts;
and that run.py exits non-zero without a result where src/ is missing.
Takes about three minutes on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
# trace metrics that are counts of work, so repeat exactly under one seed
EXACT_UNITS = ("count", "ratio")


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple:
    # cold_start always runs one whole cycle of its eight processes
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                           "--tiny"], capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def result(workload: str, trace: int) -> dict:
    code, last, err = run(workload, trace)
    assert code == 0, f"{workload} trace={trace} exited {code}: {err[-500:]}"
    doc = json.loads(last)
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"], sorted(doc)
    assert doc["attempted"] >= 1 and doc["failed"] == 0 and doc["correct"] is True, doc
    return doc


def units(doc: dict) -> dict:
    return {name: m["unit"] for name, m in doc["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        doc = result(name, 0)
        assert units(doc) == e2e, f"{name}: end-to-end metrics {units(doc)}"
        assert doc["metrics"]["ok_frac"]["value"] == 1.0
        first, second = result(name, 1), result(name, 1)
        assert units(first) == layers, f"{name}: per-layer metrics {units(first)}"
        for metric, unit in layers.items():
            if unit in EXACT_UNITS:
                a = first["metrics"][metric]["value"]
                b = second["metrics"][metric]["value"]
                assert a == b, f"{name}: {metric} is {a} then {b} under one seed"
        print(f"ok  {name}: {doc['attempted']} ops, {len(e2e)} end-to-end and "
              f"{len(layers)} per-layer metrics, counts repeat under seed {SEED}")

    # a directory with only the benchmark: no program, so no result
    bare = HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, last, _ = run("audit", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not last.startswith("{"), (code, last)
    print("ok  without src/ the benchmark exits", code, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden record of seeded outputs.

``tests/golden/`` holds what fixed seeds make proflim return and print:

- ``audit.json``: two cycles of the benchmark's ``audit`` workload on seeds
  0, 3 and 7919; every check as name, residual (float hex), tolerance,
  verdict and detail, and the symplectic structure and rank profiles;
- ``limits.json``: two cycles of the ``limits`` workload on the same seeds,
  every distance, history and value as float hex;
- ``flow.json``: two cycles of the ``flow`` workload on the same seeds, a
  sha256 digest of the states and one of the energies of each trajectory;
- ``cli.json``: exit code, stdout and stderr of ``cli.main(argv)`` for
  ``verify`` on every gallery family, ``distance``, ``wiener``,
  ``symplectic``, ``gallery list|describe|export`` and the three flow kinds,
  at ``--seed 3`` where the command takes one.

The test recomputes the record and compares it exactly.  Protocol:

- a change that means to move a value regenerates the record with
  ``PYTHONPATH=src python tests/test_golden.py`` and names the moved
  entries, and why, in CHANGES.md;
- a numpy or BLAS upgrade that moves bits is the same kind of event;
- never regenerate to make an unexplained difference pass.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import proflim.cli as cli
from proflim import gallery_names

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SEEDS = (0, 3, 7919)
CYCLES = 2
CLI_SEED = "3"


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exact(obj):
    """obj as JSON with every float in hex, so equality is bit equality."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, np.ndarray):
        return _exact(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    if isinstance(obj, dict):
        return {repr(k): _exact(v) for k, v in obj.items()}
    return obj


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


def _cycles(workload, record_op) -> dict:
    out = {}
    for seed in SEEDS:
        wl = workload(seed)
        out[str(seed)] = [record_op(op, wl.run(op))
                          for _ in range(CYCLES) for op in wl.cycle()]
    return out


def audit_record(wl) -> dict:
    def record(op, out):
        reports, ranks = out
        checks = [[rep.title, c.name, c.max_residual, c.tol, c.passed, c.detail]
                  for rep in reports for c in rep.checks]
        if ranks is not None:
            structure, profile = ranks
            ranks = [structure.closedness_residual, structure.rank_profile,
                     structure.is_symplectic, profile]
        return _exact([op[0], checks, ranks])
    return _cycles(wl.Audit, record)


def limits_record(wl) -> dict:
    return _cycles(wl.Limits, lambda op, out: _exact([op[0], out]))


def flow_record(wl) -> dict:
    return _cycles(wl.Flow, lambda op, traj: [op[0], _digest(traj.states),
                                              _digest(traj.energies)])


def _cli_argvs(wl) -> list:
    families = gallery_names()
    origin, three_four = ('{"kind": "named", "name": "origin"}',
                          '{"kind": "named", "name": "three_four"}')
    argvs = [["verify", "--family", name, "--seed", CLI_SEED] for name in families]
    argvs += [["distance", "--family", "euclid", "--max-level", "10",
               "--x", origin, "--y", three_four],
              ["wiener", "--samples", "30000", "--seed", CLI_SEED],
              ["symplectic", "--seed", CLI_SEED],
              ["gallery", "list"]]
    argvs += [["gallery", action, name] for action in ("describe", "export")
              for name in families]
    hamiltonians = {"oscillator": "oscillator", "separable": wl.SEPARABLE_H,
                    "implicit": wl.NONSEPARABLE_H}
    for kind, (level, scheme, dt, steps) in sorted(wl.FLOW_KINDS.items()):
        argvs.append(["flow", "--family", "symplectic", "--level", str(level),
                      "--H", hamiltonians[kind], "--scheme", scheme, "--dt", repr(dt),
                      "--steps", str(steps), "--format", "json"])
    return argvs


def run_cli(argv: list) -> list:
    """[argv, exit code, stdout, stderr] of one in-process CLI call; a
    warning is recorded on stderr as 'Category: message'."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return [argv, code, out.getvalue(), err.getvalue() + shown]


def cli_record(wl) -> dict:
    return {" ".join(argv): run_cli(argv) for argv in _cli_argvs(wl)}


RECORDS = {"audit": audit_record, "limits": limits_record, "flow": flow_record,
           "cli": cli_record}


def _write(name: str, record: dict) -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_seeded_outputs_match_the_golden_record(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(json.dumps(RECORDS[name](_workloads())))
    moved = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not moved, f"{name}: entries moved from the golden record: {moved}"


if __name__ == "__main__":
    workloads = _workloads()
    for record_name in sys.argv[1:] or sorted(RECORDS):
        _write(record_name, RECORDS[record_name](workloads))

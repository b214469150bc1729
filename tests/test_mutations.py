"""Seeded single-field mutations of exported family descriptors, each run
through `proflim verify --family FILE`, of section-point thread
documents, each run through `proflim distance --x`, of measure CSV
rows, each run through `proflim distance --measure FILE`, and
one-character mutations of the benchmark's expressions, each compiled and
run through `proflim flow --H`.

A run may exit 0, exit 1 with a failed check, or exit 2 with an `error:`
line that names a field of the document; no exception may escape `main`.
The sample is fixed by its seed and sized to keep the suite fast.
"""
import copy
import importlib.util
import json
import random
import re
from pathlib import Path

import pytest

import proflim.cli as cli
from proflim.expr import ExpressionError, compile_scalar

_spec = importlib.util.spec_from_file_location(
    "benchmark_workloads", Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# each mutation replaces one value by one of these, or deletes it: wrong
# types, edge numbers, empty and nested containers, and an encoded set
REPLACEMENTS = [None, -1, 0, 2, 1.5, True, "x", [], {}, [[1.0]], {"set": [1]}]
DELETE = object()
SAMPLES = 200  # mutations per document at most, about 3 ms each
SEED = 0
# a field path such as `levels[2].dim` or `poset.leq[1][0]`, first in the message
FIELD = re.compile(r"^error: ([a-z_]+)(\[\d+\]|\.[a-z_]+)*[:,\s]")


def _paths(doc, path=()):
    """The path of every value below the root, as keys and list indices."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _label(path, value) -> str:
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return f"{where} = {'<deleted>' if value is DELETE else json.dumps(value)}"


def _sweep(doc, run, capsys, contract, replacements=REPLACEMENTS) -> set:
    """Run `run(mutated)` on a seeded sample of single-field mutations of
    doc; assert that each exit is one `contract(code, err_text)` allows,
    and return the exit codes seen.  Standard output is dropped."""
    cases = [(p, v) for p in _paths(doc) for v in replacements + [DELETE]]
    broken, seen = [], set()
    for where, value in random.Random(SEED).sample(cases, min(SAMPLES, len(cases))):
        try:
            code, escaped = run(_mutated(doc, where, value)), ""
        except Exception as err:  # anything escaping main breaks the contract
            code, escaped = None, f"{type(err).__name__}: {err}"
        err_text = capsys.readouterr().err + escaped
        seen.add(code)
        if not contract(code, err_text):
            broken.append(f"{_label(where, value)}: exit {code}, {err_text.strip()[:200]}")
    assert not broken, "\n".join(broken)
    return seen


@pytest.mark.parametrize("name", ["cross", "euclid", "matrix"])
def test_mutated_descriptors_exit_by_the_contract(name, tmp_path, capsys):
    assert cli.main(["gallery", "export", name]) == 0
    doc = json.loads(capsys.readouterr().out)
    path = tmp_path / "family.json"

    def run(mutated):
        path.write_text(json.dumps(mutated))
        return cli.main(["verify", "--family", str(path)])

    def contract(code, err_text):
        return (code == 0 or (code == 1 and re.search(r"^FAIL", err_text, re.M))
                or (code == 2 and (m := FIELD.match(err_text)) and m[1] in doc))

    assert _sweep(doc, run, capsys, contract) == {0, 1, 2}  # the sample reaches every outcome


# a valid section-point thread document per family: one member of euclid, the
# top level of the Wiener family (its 8 knots), and cross's middle pair, which
# agree only at zero
WIENER_TOP = [k / 8 for k in range(1, 9)]
SECTION_POINTS = {
    "euclid": {"kind": "section-point", "section": [5],
               "values": [[5, [0.5, -1.0, 2.0, 0.0, 3.5]]]},
    "cross": {"kind": "section-point", "section": ["J", "K"],
              "values": [["J", [0.0]], ["K", [0.0]]]},
    "wiener": {"kind": "section-point", "section": [{"set": WIENER_TOP}],
               "values": [[{"set": WIENER_TOP}, [0.5, -0.25, 1.0, 2.0, 0.0, 1.5, -1.0, 0.25]]]},
}


@pytest.mark.parametrize("name", sorted(SECTION_POINTS))
def test_mutated_section_point_threads_exit_by_the_contract(name, capsys):
    """`distance --x` on a mutated section point exits 0, or 2 with an
    `error: thread` line; the distance itself never fails a check."""
    doc = SECTION_POINTS[name]
    y = json.dumps(doc)

    def run(mutated):
        return cli.main(["distance", "--family", name, "--x", json.dumps(mutated), "--y", y])

    def contract(code, err_text):
        return code == 0 or (code == 2 and (m := FIELD.match(err_text)) and m[1] == "thread")

    assert _sweep(doc, run, capsys, contract) == {0, 2}


# a valid `--form` document per family: an expressions 1-form on euclid that
# declares every level (with fewer, check_tame meets an undeclared level and
# every mutation exits 2), and the symplectic gallery's own omega
FORMS = {
    "euclid": {"kind": "expressions", "degree": 1,
               "levels": [{"index": n, "comps": [f"x{i}*x{i}" for i in range(n)]}
                          for n in range(7)]},
    "symplectic": {"kind": "named-gallery", "family": "symplectic", "extra": "omega"},
}


@pytest.mark.parametrize("name", sorted(FORMS))
def test_mutated_forms_exit_by_the_contract(name, capsys):
    """`verify --form` on a mutated form document exits 0, 1 with a `FAIL`
    line, or 2 with an `error:` line."""
    def run(mutated):
        return cli.main(["verify", "--family", name, "--samples", "10",
                         "--form", json.dumps(mutated)])

    def contract(code, err_text):
        return (code == 0 or (code == 1 and re.search(r"^FAIL", err_text, re.M))
                or (code == 2 and err_text.startswith("error: ")))

    assert _sweep(FORMS[name], run, capsys, contract) == {"euclid": {0, 1, 2},
                                                          "symplectic": {0, 2}}[name]


# a valid measure for euclid as CSV rows, each a list of fields, and the
# tokens a mutation puts in place of a field or a whole row: repeats of an
# index or of the tail, integers spelled otherwise, edge numbers, quotes,
# comments and rows of the wrong width
MEASURE = [["index", "weight"], ["# weights"], ["1", "0.5"], ["2", "0.25"], ["tail", "0.125"]]
CSV_TOKENS = ["", " ", "1", "01", "-1", "+1", "1_0", "\u0661", "1.0", "99", "tail", "index",
              "J", "#", "0", "-0.5", "nan", "inf", "1e999", "0x1", '"', '"1,2"', "1,0.5,3",
              "\u00e9,1"]


def test_mutated_measure_rows_exit_by_the_contract(tmp_path, capsys):
    """`distance --measure` on a mutated CSV exits 0, or 2 with an `error:`
    line; no row, repeated or malformed, lets an exception escape."""
    path = tmp_path / "mu.csv"

    def run(mutated):
        path.write_text("".join((row if isinstance(row, str) else ",".join(row)) + "\n"
                                for row in mutated), encoding="utf-8")
        return cli.main(["distance", "--family", "euclid", "--x", '{"kind": "named", "name": '
                         '"origin"}', "--y", '{"kind": "named", "name": "three_four"}',
                         "--measure", str(path)])

    def contract(code, err_text):
        return (code == 0 or (code == 2 and err_text.startswith("error: ")
                              and "Traceback" not in err_text))

    assert _sweep(MEASURE, run, capsys, contract, CSV_TOKENS) == {0, 2}


# the benchmark's expressions, each at the symplectic level whose dimension
# it reads, and the characters a mutation inserts: digits, operators,
# brackets, the coordinate letter and the letters of the grammar's names
EXPRESSIONS = [(3, workloads.SEPARABLE_H), (2, workloads.NONSEPARABLE_H), (1, workloads.CYL_EXPR)]
GRAMMAR_CHARS = "0123456789+-*/(). ,xsinco" "tanexplgqrhbp"
EXPRESSION_SAMPLES = 100  # mutations per expression, about 2 ms each


def _mutated_expressions():
    """(level, text) for seeded one-character insertions, deletions and
    swaps of adjacent characters in each benchmark expression."""
    rng = random.Random(SEED)
    for level, text in EXPRESSIONS:
        for _ in range(EXPRESSION_SAMPLES):
            i = rng.randrange(len(text) - 1)
            yield level, rng.choice([text[:i] + rng.choice(GRAMMAR_CHARS) + text[i:],
                                     text[:i] + text[i + 1:],
                                     text[:i] + text[i + 1] + text[i] + text[i + 2:]])


def test_mutated_expressions_compile_or_refuse_and_flow_by_the_contract(capsys):
    """A mutated expression compiles or raises ExpressionError, and
    `flow --H` on it exits 0, 1 with a `FAIL` line, or 2 with an `error:`
    line; nothing escapes `main`."""
    broken, seen = [], set()
    for level, text in _mutated_expressions():
        try:
            compile_scalar(2 * level, text)
        except ExpressionError:
            pass
        except Exception as err:
            broken.append(f"compile {text!r}: {type(err).__name__}: {err}")
        try:
            code, escaped = cli.main(["flow", "--family", "symplectic", "--level", str(level),
                                      "--H", text, "--steps", "3"]), ""
        except Exception as err:
            code, escaped = None, f"{type(err).__name__}: {err}"
        err_text = capsys.readouterr().err + escaped
        seen.add(code)
        if not (code == 0 or (code == 1 and re.search(r"^FAIL", err_text, re.M))
                or (code == 2 and err_text.startswith("error: "))):
            broken.append(f"flow --H {text!r}: exit {code}, {err_text.strip()[:200]}")
    assert not broken, "\n".join(broken)
    assert {0, 2} <= seen

"""Seeded single-field mutations of exported family descriptors, each run
through `proflim verify --family FILE`.

A run may exit 0, exit 1 with a failed check, or exit 2 with an `error:`
line that names a field of the descriptor; no exception may escape `main`.
The sample is fixed by its seed and sized to keep the suite fast.
"""
import copy
import json
import random
import re

import pytest

import proflim.cli as cli

# each mutation replaces one value by one of these, or deletes it: wrong
# types, edge numbers, empty and nested containers, and an encoded set
REPLACEMENTS = [None, -1, 0, 2, 1.5, True, "x", [], {}, [[1.0]], {"set": [1]}]
DELETE = object()
SAMPLES = 200  # mutations per descriptor, about 3 ms each
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


@pytest.mark.parametrize("name", ["cross", "euclid"])
def test_mutated_descriptors_exit_by_the_contract(name, tmp_path, capsys):
    assert cli.main(["gallery", "export", name]) == 0
    doc = json.loads(capsys.readouterr().out)
    cases = [(p, v) for p in _paths(doc) for v in REPLACEMENTS + [DELETE]]
    path = tmp_path / "family.json"
    broken, seen = [], set()
    for where, value in random.Random(SEED).sample(cases, SAMPLES):
        path.write_text(json.dumps(_mutated(doc, where, value)))
        try:
            code, escaped = cli.main(["verify", "--family", str(path)]), ""
        except Exception as err:  # anything escaping main breaks the contract
            code, escaped = None, f"{type(err).__name__}: {err}"
        err_text = capsys.readouterr().err + escaped
        seen.add(code)
        ok = (code == 0 or (code == 1 and re.search(r"^FAIL", err_text, re.M))
              or (code == 2 and (m := FIELD.match(err_text)) and m[1] in doc))
        if not ok:
            broken.append(f"{_label(where, value)}: exit {code}, {err_text.strip()[:200]}")
    assert not broken, "\n".join(broken)
    assert seen == {0, 1, 2}  # the sample reaches every outcome

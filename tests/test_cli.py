import argparse
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import proflim as pl
import proflim.cli as cli
from conftest import FIXTURE_DIR


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_gallery_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "--family", "euclid_tower",
                         "--max-level", "6", "--samples", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["schema_version"] == 1
    assert err == ""


def test_verify_cross_and_symplectic(capsys):
    assert run(capsys, "verify", "--family", "cross_family", "--samples", "5")[0] == 0
    code, out, _ = run(capsys, "verify", "--family", "symplectic_even_tower",
                       "--max-level", "3", "--samples", "10")
    assert code == 0
    titles = [r["title"] for r in json.loads(out)["reports"]]
    assert any("tame form" in t for t in titles)  # omega audited alongside axioms


def test_verify_unknown_family_exit_two(capsys):
    code, out, err = run(capsys, "verify", "--family", "klein_bottle")
    assert code == 2
    assert "euclid" in err  # usage error lists the gallery


def test_verify_missing_descriptor_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--family", "not/there.json")
    assert code == 2
    assert "no such descriptor" in err


def test_corrupted_descriptor_fails_naming_retraction(capsys):
    fixture = os.path.join(FIXTURE_DIR, "corrupted_family.json")
    code, out, err = run(capsys, "verify", "--family", fixture, "--samples", "10")
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert "retraction" in err
    assert "e-03" in err  # the planted defect sits around 1e-3


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["distance", "--x", '{"kind": "sequence", "values": [1.0]}',
     "--y", '{"kind": "sequence", "values": [2.0]}'],
], ids=["verify", "distance"])
def test_an_empty_poset_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema_version": pl.SCHEMA_VERSION, "levels": [],
                                "poset": {"kind": "chain", "elements": []}}))
    code, out, err = run(capsys, argv[0], "--family", str(path), *argv[1:])
    assert code == 2 and out == ""
    assert f"{argv[0]} needs a nonempty poset" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "verify")[0] == 2                      # missing --family
    assert run(capsys, "frobnicate")[0] == 2                  # unknown subcommand
    assert run(capsys, "gallery", "describe")[0] == 2         # missing name
    assert run(capsys, "verify", "--family", "cross_family",
               "--max-level", "3")[0] == 2                    # cross has no size knob


def test_reports_byte_identical_under_seed(capsys):
    args = ("symplectic", "--pairs", "2", "--samples", "20", "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    wa = ("wiener", "--samples", "30000", "--seed", "5")
    _, w1, _ = run(capsys, *wa)
    _, w2, _ = run(capsys, *wa)
    assert w1 == w2
    _, w3, _ = run(capsys, "wiener", "--samples", "30000", "--seed", "6")
    assert w1 != w3  # sampled residuals move with the seed


def test_distance_five_sixths(capsys):
    code, out, _ = run(capsys, "distance", "--family", "euclid_tower",
                       "--max-level", "10",
                       "--x", '{"kind": "named", "name": "origin"}',
                       "--y", '{"kind": "named", "name": "three_four"}')
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["d_inf"] - 5.0 / 6.0) <= 1e-12
    assert doc["converged"] is True
    assert doc["history"] == sorted(doc["history"])


def test_distance_with_measure(capsys, tmp_path):
    weights = tmp_path / "mu.csv"
    weights.write_text("index,weight\n1,0.5\n2,0.25\ntail,0.125\n")
    code, out, _ = run(capsys, "distance", "--family", "euclid_tower",
                       "--max-level", "4",
                       "--x", '{"kind": "named", "name": "origin"}',
                       "--y", '{"kind": "named", "name": "three_four"}',
                       "--measure", str(weights))
    assert code == 0
    doc = json.loads(out)
    want = 0.5 * (3.0 / 4.0) + 0.25 * (5.0 / 6.0)
    assert abs(doc["d_mu"] - want) <= 1e-12
    assert doc["d_mu_tail_bound"] == 0.125


def test_distance_inline_sequence_threads(capsys):
    code, out, _ = run(capsys, "distance", "--family", "euclid_tower",
                       "--max-level", "3", "--metric", "discrete",
                       "--x", '{"kind": "sequence", "values": [1, 0, 0]}',
                       "--y", '{"kind": "sequence", "values": [1, 0, 0]}')
    assert code == 0
    assert json.loads(out)["d_inf"] == 0.0


def test_flow_csv_contract(capsys):
    code, out, _ = run(capsys, "flow", "--family", "symplectic_even_tower",
                       "--level", "2", "--H", "oscillator",
                       "--dt", "1e-3", "--steps", "200")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,t,x0,x1,x2,x3,H"
    assert len(lines) == 202
    energies = np.array([float(l.split(",")[-1]) for l in lines[1:]])
    assert np.max(np.abs(energies - energies[0])) < 1e-6


def test_flow_json_summary(capsys):
    code, out, _ = run(capsys, "flow", "--family", "symplectic_even_tower",
                       "--level", "1", "--steps", "100", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["energy_drift"] < 1e-6
    assert len(doc["final_state"]) == 2


def test_flow_expression_hamiltonian(capsys):
    code, out, _ = run(capsys, "flow", "--family", "symplectic_even_tower",
                       "--level", "1", "--H", "(sqr(x0) + sqr(x1))/2",
                       "--steps", "50", "--format", "json")
    assert code == 0
    assert json.loads(out)["energy_drift"] < 1e-6


def test_flow_bad_inputs_exit_two(capsys):
    assert run(capsys, "flow", "--family", "symplectic_even_tower",
               "--level", "2", "--x0", "1,0")[0] == 2      # wrong dimension
    assert run(capsys, "flow", "--family", "symplectic_even_tower",
               "--level", "1", "--x0", "a,b")[0] == 2      # not numbers
    assert run(capsys, "flow", "--family", "euclid_tower",
               "--level", "2")[0] == 2                     # no symplectic form


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_flow_with_a_singular_newton_matrix_fails_in_one_line(capsys, fmt):
    # I - dt/2 Omega^-T Hess H is exactly singular for this H at dt = 1
    code, out, err = run(capsys, "flow", "--family", "symplectic_even_tower", "--level", "1",
                         "--H", "sqr(x0)/2 - 2*sqr(x1)", "--x0", "1,0.5", "--dt", "1",
                         "--steps", "1", "--scheme", "implicit-midpoint", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "FAIL: implicit midpoint: Newton matrix singular at step 0\n"


def test_flow_leapfrog_on_coupled_hamiltonian_exits_two(capsys):
    code, _, err = run(capsys, "flow", "--family", "symplectic_even_tower",
                       "--level", "1", "--H", "(sqr(x0) + sqr(x1))/2 + x0*x1",
                       "--steps", "10")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, flag", [
    (["--dt", "nan", "--steps", "5"], "--dt"),
    (["--x0", "nan,0,0,1"], "--x0"),
    (["--scheme", "implicit-midpoint", "--x0", "nan,0,0,1"], "--x0"),
])
def test_flow_refuses_non_finite_inputs(capsys, argv, flag):
    code, out, err = run(capsys, "flow", "--family", "symplectic", "--level", "2", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be finite, got ")


def test_flow_says_when_the_separability_probe_is_not_finite(capsys):
    with np.errstate(divide="ignore", invalid="ignore"):
        code, _, err = run(capsys, "flow", "--family", "symplectic", "--level", "1",
                           "--H", "1/x0 + sqr(x1)", "--x0", "0,1")
    assert code == 2
    assert "the Hessian there is not finite" in err and "couples" not in err


def test_wiener_audit_passes(capsys):
    code, out, err = run(capsys, "wiener", "--samples", "30000", "--seed", "0")
    assert code == 0, err
    doc = json.loads(out)
    names = [c["name"] for r in doc["reports"] for c in r["checks"]]
    assert "pl-injection cocycle and retraction" in names
    assert "marginal variance matches t" in names


def test_wiener_custom_times(capsys):
    code, out, _ = run(capsys, "wiener", "--times", "0.5,1.0,2.0",
                       "--samples", "30000")
    assert code == 0
    assert json.loads(out)["pool"] == [0.5, 1.0, 2.0]


def test_symplectic_audit_passes(capsys):
    code, out, _ = run(capsys, "symplectic", "--pairs", "3", "--samples", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank_profile"]["3"]["rank"] == 6
    titles = [r["title"] for r in doc["reports"]]
    assert "momentum map" in titles


def test_symplectic_reports_an_action_that_breaks_the_form_as_fail(capsys, monkeypatch):
    def breaking(*args, **kwargs):
        raise pl.NonSymplecticAction("action does not preserve the form: residual 1.000e+00")
    monkeypatch.setattr(cli, "momentum_verify", breaking)
    code, out, err = run(capsys, "symplectic", "--pairs", "2", "--samples", "10")
    assert (code, out) == (1, "")
    assert err == "FAIL: action does not preserve the form: residual 1.000e+00\n"


def test_gallery_list_describe_export(capsys):
    code, out, _ = run(capsys, "gallery", "list")
    assert code == 0
    assert set(out.split()) == {"cross", "euclid", "jet", "matrix", "odd-symplectic",
                                "poly", "symplectic", "wiener"}

    code, out, _ = run(capsys, "gallery", "describe", "euclid")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"][3] == {"index": 3, "dim": 3}
    assert "metrics" in doc["extras"]

    code, out, _ = run(capsys, "gallery", "export", "matrix")
    assert code == 0
    desc = json.loads(out)
    fam = __import__("proflim").family_from_descriptor(desc)
    assert fam.dim(4) == 16

    code, out, _ = run(capsys, "gallery", "export", "wiener")
    assert code == 0
    assert json.loads(out)["projections"][0]["kind"] == "named-gallery"


def test_verify_with_form_descriptor(capsys, tmp_path):
    levels = [{"index": n, "comps": ["1"] * n} for n in range(0, 7)]
    form = tmp_path / "ones.json"
    form.write_text(json.dumps({"kind": "expressions", "degree": 1,
                                "levels": levels}))
    code, out, _ = run(capsys, "verify", "--family", "euclid_tower",
                       "--max-level", "6", "--samples", "5",
                       "--form", str(form))
    assert code == 0
    titles = [r["title"] for r in json.loads(out)["reports"]]
    assert any("tame form" in t for t in titles)


@pytest.mark.parametrize("poset", [
    {"kind": "chain", "elements": [1, 2, 2]},
    {"kind": "finite", "elements": [1, 2, 2], "leq": [[1, 1, 1], [0, 1, 1], [0, 1, 1]]},
], ids=["chain", "finite"])
def test_verify_refuses_a_repeated_poset_element(capsys, tmp_path, poset):
    doc = json.loads(run(capsys, "gallery", "export", "euclid")[1])
    doc["poset"] = poset
    family = tmp_path / "repeat.json"
    family.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--family", str(family))
    assert code == 2 and out == ""
    assert err == "error: poset.elements[2]: 2 is listed twice\n"


@pytest.mark.parametrize("elements, bad", [
    ([1, float("inf")], "poset.elements[1]: inf is not an integer"),
    ([1.5, 3], "poset.elements[0]: 1.5 is not an integer"),
    ([1, True], "poset.elements[1]: True is not an integer"),
], ids=["infinity", "fraction", "bool"])
def test_verify_refuses_a_chain_element_that_is_not_an_integer(capsys, tmp_path,
                                                                elements, bad):
    doc = json.loads(run(capsys, "gallery", "export", "euclid")[1])
    doc["poset"] = {"kind": "chain", "elements": elements}
    family = tmp_path / "chain.json"
    family.write_text(json.dumps(doc).replace("Infinity", "1e999"))  # strict JSON: 1e999 is inf
    code, out, err = run(capsys, "verify", "--family", str(family))
    assert code == 2 and out == ""
    assert err == f"error: {bad}\n"


def test_verify_refuses_a_form_of_another_gallery(capsys, tmp_path):
    form = tmp_path / "omega.json"
    form.write_text(json.dumps({"kind": "named-gallery", "family": "symplectic",
                                "extra": "omega"}))
    code, out, err = run(capsys, "verify", "--family", "euclid", "--form", str(form))
    assert code == 2 and out == ""
    assert "another family" in err


def test_verify_refuses_a_form_of_another_descriptor_family(capsys, tmp_path):
    code, exported, _ = run(capsys, "gallery", "export", "euclid")
    assert code == 0
    family = tmp_path / "euc.json"
    family.write_text(exported)
    form = tmp_path / "f.json"
    form.write_text(json.dumps({"kind": "named-gallery", "family": "symplectic",
                                "extra": "omega"}))
    code, out, err = run(capsys, "verify", "--family", str(family), "--form", str(form))
    assert code == 2 and out == ""
    assert "--form names a form of another family" in err
    # the same form over its own family, loaded from a descriptor, is audited
    code, exported, _ = run(capsys, "gallery", "export", "symplectic")
    family.write_text(exported)
    code, out, _ = run(capsys, "verify", "--family", str(family), "--form", str(form))
    assert code == 0
    assert any("tame form" in r["title"] for r in json.loads(out)["reports"])


def test_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PROFLIM_OUT_DIR", str(tmp_path / "runs"))
    code, out, _ = run(capsys, "gallery", "describe", "cross",
                       "--out", "cross.json")
    assert code == 0
    assert out == ""  # routed to the file
    target = tmp_path / "runs" / "cross.json"
    assert json.loads(target.read_text())["name"] == "cross"
    # absolute paths are left alone
    abs_target = tmp_path / "abs.json"
    run(capsys, "gallery", "describe", "cross", "--out", str(abs_target))
    assert abs_target.exists()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "proflim.cli", "gallery", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "euclid" in proc.stdout
    proc2 = subprocess.run([sys.executable, "-m", "proflim.cli", "nope"],
                           capture_output=True, text=True)
    assert proc2.returncode == 2


def test_symplectic_runs_without_scipy(tmp_path):
    code = ("import sys, proflim, proflim.cli; "
            f"rc = proflim.cli.main(['symplectic', '--out', {str(tmp_path / 's.json')!r}]); "
            "assert 'scipy' not in sys.modules, 'scipy imported'; sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


NUMPY_ONLY_COMMANDS = [
    ["gallery", "list"],
    ["verify", "--family", "euclid"],
    ["verify", "--family", "wiener"],
    ["distance", "--family", "euclid_tower", "--x", '{"kind": "named", "name": "origin"}',
     "--y", '{"kind": "named", "name": "three_four"}'],
    ["symplectic"],
    ["flow", "--family", "symplectic", "--level", "2"],
]


def _run_fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sympy_loads_only_when_an_expression_is_compiled(tmp_path):
    out = str(tmp_path / "report")
    _run_fresh("import sys, proflim, proflim.cli\n"
               "assert 'sympy' not in sys.modules, 'import proflim'\n"
               f"for argv in {NUMPY_ONLY_COMMANDS!r}:\n"
               f"    assert proflim.cli.main(argv + ['--out', {out!r}]) == 0, argv\n"
               "    assert 'sympy' not in sys.modules, argv\n"
               "argv = ['wiener', '--samples', '30000', '--seed', '3', '--out', "
               f"{out!r}]\n"
               "assert proflim.cli.main(argv) == 0\n"
               "assert 'sympy' in sys.modules, 'wiener'\n")
    _run_fresh("import sys, proflim.cli\n"
               "argv = ['flow', '--family', 'symplectic', '--level', '2', "
               f"'--H', '0.5*x0**2 + 0.5*x1**2', '--out', {out!r}]\n"
               "assert proflim.cli.main(argv) == 0\n"
               "assert 'sympy' in sys.modules, 'flow --H'\n")


def test_malformed_expression_raises_expression_error_in_a_fresh_interpreter():
    _run_fresh("from proflim.expr import ExpressionError, compile_scalar\n"
               "for text in ['x0 +* 2', 'mystery(x0)', 'x5 + 1', '__class__']:\n"
               "    try:\n"
               "        compile_scalar(1, text)\n"
               "    except ExpressionError:\n"
               "        continue\n"
               "    raise AssertionError(f'{text!r} compiled')\n")


def test_size_flag_tables_follow_the_registry():
    for key, builder in pl.gallery.GALLERY_BUILDERS.items():
        sized = any(isinstance(p.default, int)
                    for p in inspect.signature(builder).parameters.values())
        for name in (key, builder.__name__):
            if sized:
                assert cli.resolve_family(name, 3)[1].poset.elements
            else:
                with pytest.raises(cli.UsageError):
                    cli.resolve_family(name, 3)


@pytest.mark.parametrize("argv", [
    ["flow", "--family", "symplectic", "--level", "0"],
    ["flow", "--family", "symplectic", "--level", "7"],
    ["flow", "--family", "symplectic", "--level", "1", "--steps", "-1"],
    ["symplectic", "--pairs", "0"],
    ["symplectic", "--level", "9"],
    ["verify", "--family", "euclid", "--samples", "0"],
], ids=["flow-level-0", "flow-level-7", "flow-steps-negative", "symplectic-pairs-0",
        "symplectic-level-9", "verify-samples-0"])
def test_bad_counts_and_levels_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


PAIR = {"schema_version": 1, "name": "pair", "poset": {"kind": "chain", "elements": [1, 2]},
        "levels": [{"index": 1, "dim": 1}, {"index": 2, "dim": 2}],
        "projections": [{"from": 2, "to": 1, "kind": "matrix",
                         "payload": {"rows": [[1.0, 0.0]]}}],
        "injections": [{"from": 1, "to": 2, "kind": "matrix",
                        "payload": {"rows": [[1.0], [0.0]]}}]}
# a chain 1 <= 2 <= 3 whose stored maps reach 1 from 2 and from 3, but never 3 from 2
GAPPED_CHAIN = {
    "poset": {"kind": "chain", "elements": [1, 2, 3]},
    "levels": [{"index": n, "dim": n} for n in (1, 2, 3)],
    "projections": [{"from": n, "to": 1, "kind": "truncation", "payload": {"indices": [0]}}
                    for n in (2, 3)],
    "injections": [{"from": 1, "to": n, "kind": "truncation", "payload": {"indices": [0]}}
                   for n in (2, 3)]}
ORIGIN = '{"kind": "named", "name": "origin"}'
# cross: J alone misses K; J and K both reach L, where (1, 0) != (0, 0)
UNCOVERED = '{"kind": "section-point", "section": ["J"], "values": [["J", [1.0]]]}'
DISAGREEING = ('{"kind": "section-point", "section": ["J", "K"], '
               '"values": [["J", [1.0]], ["K", [0.0]]]}')
NAN_POINT = '{"kind": "section-point", "section": ["L"], "values": [["L", [NaN, 1]]]}'
ZERO_POINT = '{"kind": "section-point", "section": ["L"], "values": [["L", [0, 1]]]}'


def _without(path):
    """PAIR with the field at path (a tuple of keys and list positions) removed."""
    doc = json.loads(json.dumps(PAIR))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    del parent[last]
    return doc


def _renamed(low, high):
    """PAIR with its levels 1 <= 2 renamed low <= high in a finite poset."""
    doc = json.loads(json.dumps(PAIR))
    doc["poset"] = {"kind": "finite", "elements": [low, high], "leq": [[1, 1], [0, 1]]}
    doc["levels"][0]["index"], doc["levels"][1]["index"] = low, high
    doc["projections"][0].update({"from": high, "to": low})
    doc["injections"][0].update({"from": low, "to": high})
    return doc


def _with_rows(rows):
    doc = json.loads(json.dumps(PAIR))
    doc["projections"][0]["payload"]["rows"] = rows
    return doc


@pytest.mark.parametrize("case, message", [
    ("no-levels", "levels: missing field"),
    ("no-level-dim", r"levels\[0\].dim: missing field"),
    ("map-shape", r"projections\[0\]: declared 2->1, map has 3->1"),
    ("gapped-chain", "stored pairs do not connect 2 to 3"),
    ("measure-row", "weight 'abc' is not a number"),
    ("measure-no-level", "--measure: index 99 is not a level of euclid"),
    ("measure-word", "--measure: index 'foo' is not a level of euclid"),
    ("finite-mixed-elements",
     r"poset\.elements: \['a', 1\] have no common order: numbers, strings"),
    ("finite-mixed-set", r"poset\.elements\[1\]: bad index .*: a set mixes numbers and strings"),
    ("wiener-one-knot", "--times: the refinement check needs at least two knots, got 1"),
    ("wiener-times", "knot times must be distinct and positive"),
    ("wiener-nan-time", "--times: nan is not a finite time"),
    ("wiener-infinite-time", "--times: inf is not a finite time"),
    ("distance-levels", "argument --levels: expected a positive integer"),
    ("out-directory", "cannot write --out"),
    ("inline-json", "argument --x: cannot read JSON"),
    ("section-uncovered", "thread.section: .*no member reaches level 'K'"),
    ("section-disagreeing", "thread.values: member values disagree at 'L'"),
    ("section-comparable", r"thread\.section: not a section: members 1 and 2 are comparable"),
    ("x-nan", "argument --x: cannot read JSON from .*: NaN is not a JSON number"),
    ("y-infinity", "argument --y: cannot read JSON from .*: Infinity is not a JSON number"),
    ("form-nan", "argument --form: cannot read JSON from .*: NaN is not a JSON number"),
    ("family-nan-token", "cannot read JSON from .*: NaN is not a JSON number"),
    ("family-infinity-comment", "cannot read JSON from .*: Infinity is not a JSON number"),
    ("family-minus-infinity", "cannot read JSON from .*: -Infinity is not a JSON number"),
    ("family-infinite-dim", r"levels\[0\].dim: inf is not an integer"),
    ("measure-nan", "line 1: weight 'nan' is not a finite number >= 0"),
    ("measure-tail-inf", "line 2: weight 'inf' is not a finite number >= 0"),
    ("section-inf-entry", r"thread\.section\[0\]: inf is not a finite number"),
    ("section-true-member", r"thread\.section: True is not a level of euclid"),
    ("section-float-member", r"thread\.section: 1\.0 is not a level of euclid"),
    ("flow-infinite-constant", r"non-finite constants in '1/0 \+ sqr\(x1\)': \['zoo'\]"),
    # the gradient of abs of a power holds sign(x0**1.5), whose derivative stays unevaluated
    ("flow-uncompilable-hessian",
     r"^error: --H: Hessian of 'abs\(x0\*\*1\.5\) \+ sqr\(x1\)': cannot compile .*Derivative"),
    ("section-value-no-level", r"thread\.values\[1\]: 99 is not a level of euclid"),
    ("section-value-true-key", r"thread\.values\[0\]: True is not a level of euclid"),
    ("family-pl-zero-knot",
     r"injections\[0\]\.payload\.knots: knot times must be distinct and positive"),
])
def test_input_errors_exit_two_naming_the_input(capsys, tmp_path, case, message):
    def family_text(text):
        path = tmp_path / "family.json"
        path.write_text(text)
        return ["verify", "--family", str(path), "--samples", "5"]

    def family(doc):  # json writes a non-finite float as NaN, Infinity or -Infinity
        return family_text(json.dumps(doc))

    distance = ["distance", "--family", "euclid", "--x", ORIGIN, "--y", ORIGIN]
    named_distance = ["distance", "--family", "euclid", "--x", ORIGIN,
                      "--y", '{"kind": "named", "name": "three_four"}']
    measure = tmp_path / "mu.csv"
    measure.write_text("1,abc\n")
    no_level, word = tmp_path / "no-level.csv", tmp_path / "word.csv"
    no_level.write_text("99,0.25\n")
    word.write_text("foo,0.5\n")
    nan_measure, inf_tail = tmp_path / "nan.csv", tmp_path / "tail.csv"
    nan_measure.write_text("1,nan\n")
    inf_tail.write_text("1,0.5\ntail,inf\n")
    argv = {
        "no-levels": lambda: family(_without(("levels",))),
        "no-level-dim": lambda: family(_without(("levels", 0, "dim"))),
        "map-shape": lambda: family(_with_rows([[1.0, 0.0, 0.0]])),
        "gapped-chain": lambda: family(GAPPED_CHAIN),
        "measure-row": lambda: distance + ["--measure", str(measure)],
        "measure-no-level": lambda: named_distance + ["--measure", str(no_level)],
        "measure-word": lambda: named_distance + ["--measure", str(word)],
        "finite-mixed-elements": lambda: family(_renamed("a", 1)),
        "finite-mixed-set": lambda: family(_renamed("a", {"set": [1, "a"]})),
        "wiener-one-knot": lambda: ["wiener", "--times", "0.5"],
        "wiener-times": lambda: ["wiener", "--times", "0.5,0.5"],
        "wiener-nan-time": lambda: ["wiener", "--times", "nan,0.5"],
        "wiener-infinite-time": lambda: ["wiener", "--times", "inf,0.5"],
        "distance-levels": lambda: distance + ["--levels", "0"],
        "out-directory": lambda: ["gallery", "list", "--out",
                                  str(tmp_path / "missing" / "list.txt")],
        "inline-json": lambda: ["distance", "--family", "euclid", "--x", '{"kind": ',
                                "--y", ORIGIN],
        "section-uncovered": lambda: ["distance", "--family", "cross",
                                      "--x", UNCOVERED, "--y", UNCOVERED],
        "section-disagreeing": lambda: ["distance", "--family", "cross",
                                        "--x", DISAGREEING, "--y", DISAGREEING],
        "section-comparable": lambda: ["distance", "--family", "euclid", "--y", ORIGIN, "--x",
                                       '{"kind": "section-point", "section": [1, 2], '
                                       '"values": [[1, [0.0]], [2, [0.0, 0.0]]]}'],
        "x-nan": lambda: ["distance", "--family", "cross", "--x", NAN_POINT, "--y", ZERO_POINT],
        "y-infinity": lambda: ["distance", "--family", "cross", "--x", ZERO_POINT,
                               "--y", ZERO_POINT.replace("0, 1", "Infinity, 1")],
        "form-nan": lambda: ["verify", "--family", "symplectic", "--samples", "5",
                             "--form", '{"kind": "named-gallery", "extra": NaN}'],
        "family-nan-token": lambda: family(_with_rows([[float("nan"), 0.0]])),
        "family-infinity-comment": lambda: family({**PAIR, "comment": float("inf")}),
        "family-minus-infinity": lambda: family(_with_rows([[-float("inf"), 0.0]])),
        # strict JSON reads 1e999 as inf, which the family loader refuses by field
        "family-infinite-dim": lambda: family_text(json.dumps({**PAIR, "levels": [
            {"index": 1, "dim": float("inf")}, {"index": 2, "dim": 2}]}).replace(
                "Infinity", "1e999")),
        "measure-nan": lambda: distance + ["--measure", str(nan_measure)],
        "measure-tail-inf": lambda: distance + ["--measure", str(inf_tail)],
        # strict JSON reads 1e999 as inf
        "section-inf-entry": lambda: ["distance", "--family", "euclid", "--y", ORIGIN, "--x",
                                      '{"kind": "section-point", "section": [1e999], '
                                      '"values": [[1e999, [0.0]]]}'],
        # a member that only compares equal to level 1, under a value key that matches it
        "section-true-member": lambda: ["distance", "--family", "euclid", "--y", ORIGIN, "--x",
                                        '{"kind": "section-point", "section": [true], '
                                        '"values": [[true, [1.0]]]}'],
        "section-float-member": lambda: ["distance", "--family", "euclid", "--y", ORIGIN, "--x",
                                         '{"kind": "section-point", "section": [1.0], '
                                         '"values": [[1.0, [1.0]]]}'],
        "flow-infinite-constant": lambda: ["flow", "--family", "symplectic", "--level", "1",
                                           "--H", "1/0 + sqr(x1)", "--x0", "0,1"],
        "flow-uncompilable-hessian": lambda: ["flow", "--family", "symplectic", "--level", "1",
                                              "--H", "abs(x0**1.5) + sqr(x1)", "--x0", "0.5,1",
                                              "--scheme", "implicit-midpoint", "--steps", "3"],
        "section-value-no-level": lambda: ["distance", "--family", "euclid", "--y", ORIGIN, "--x",
                                           '{"kind": "section-point", "section": [1], '
                                           '"values": [[1, [1.0]], [99, [2.0]]]}'],
        "section-value-true-key": lambda: ["distance", "--family", "euclid", "--y", ORIGIN, "--x",
                                           '{"kind": "section-point", "section": [1], '
                                           '"values": [[true, [1.0]]]}'],
        # a knot at time 0 would divide by the zero gap to the (0, 0) anchor
        "family-pl-zero-knot": lambda: family({**PAIR, "injections": [
            {"from": 1, "to": 2, "kind": "pl-interpolation",
             "payload": {"knots": [0.0], "targets": [-0.1]}}]}),
    }[case]()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")
    assert re.search(message, err), err


def test_a_bug_is_a_traceback_not_a_usage_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "verify_family", broken)
    with pytest.raises(KeyError):
        cli.main(["verify", "--family", "euclid"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_diverging_flow_fails_in_either_format(capsys, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code, out, err = run(capsys, "flow", "--family", "symplectic", "--level", "1",
                             "--H", "sqr(sqr(x0)) + sqr(x1)", "--dt", "10", "--steps", "20",
                             "--format", fmt)
    assert code == 1 and out == ""
    assert err == "FAIL: flow diverged: the state or its energy at step 4 is not finite\n"


def test_dynamics_failures_exit_one(capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise pl.SingularForm("degenerate")

    monkeypatch.setattr(cli, "flow", singular)
    code, out, err = run(capsys, "flow", "--family", "symplectic", "--level", "1")
    assert code == 1 and out == ""
    assert err.startswith("FAIL: degenerate")


SUBCOMMAND_OPTIONS = {
    "verify": {"--family", "--max-level", "--form", "--tame-tol",
               "--seed", "--samples", "--tol", "--out"},
    "distance": {"--family", "--max-level", "--x", "--y", "--metric", "--levels",
                 "--measure", "--tol", "--out"},
    "flow": {"--family", "--max-level", "--level", "--H", "--dt", "--steps", "--scheme",
             "--x0", "--format", "--out"},
    "wiener": {"--times", "--triples", "--var-tol", "--cocycle-tol",
               "--seed", "--samples", "--out"},
    "symplectic": {"--pairs", "--level", "--ham-tol", "--momentum-tol",
                   "--seed", "--samples", "--tol", "--out"},
    "gallery": {"--out"},
}


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_offers_only_the_options_it_reads():
    subparsers = _subparsers()
    assert set(subparsers) == set(SUBCOMMAND_OPTIONS)
    for name, sp in subparsers.items():
        flags = {f for a in sp._actions for f in a.option_strings} - {"-h", "--help"}
        assert flags == SUBCOMMAND_OPTIONS[name], name
    shared = {"--seed", "--samples", "--tol", "--format", "--out"}
    assert sum(len(opts & shared) for opts in SUBCOMMAND_OPTIONS.values()) == 16


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "euclid", "--format", "csv"],
    ["gallery", "list", "--seed", "5"],
    ["gallery", "list", "--tol", "3"],
    ["distance", "--family", "euclid", "--x", ORIGIN, "--y", ORIGIN, "--seed", "3"],
    ["flow", "--family", "symplectic", "--level", "1", "--samples", "5"],
])
def test_options_a_subcommand_ignores_are_refused(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "unrecognized arguments" in err


def test_flow_and_distance_reports_have_no_seed(capsys):
    code, out, _ = run(capsys, "flow", "--family", "symplectic", "--level", "1",
                       "--steps", "10", "--format", "json")
    assert code == 0 and "seed" not in json.loads(out)
    code, out, _ = run(capsys, "distance", "--family", "euclid", "--x", ORIGIN, "--y", ORIGIN)
    assert code == 0 and "seed" not in json.loads(out)


def _readme_commands():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for heading in ("## CLI", "## Scripts"):
        section = text.split(heading + "\n", 1)[1].split("\n## ", 1)[0]
        for block in re.findall(r"```\n(.*?)```", section, re.S):
            for line in block.replace("\\\n", " ").splitlines():
                if line.startswith("proflim "):
                    commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        ns = parser.parse_args(argv)
        assert callable(ns.run), argv


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} in a report")
    return json.loads(text, parse_constant=refuse)


def test_distance_of_huge_values_is_one_without_warnings(capsys):
    far = ZERO_POINT.replace("0, 1", "1e308, -1e308")
    near = ZERO_POINT.replace("0, 1", "-1e308, 1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "distance", "--family", "cross", "--x", far, "--y", near)
    assert (code, err) == (0, "")
    doc = _strict_json(out)
    assert doc["d_inf"] == 1.0 and doc["converged"] is True


@pytest.mark.parametrize("argv, message", [
    (["--H", "log(x0) + sqr(x1)", "--x0=-1,1", "--format", "json"],
     "H=nan, gradient=[-1.0, 2.0]"),
    (["--H", "1/x0 + sqr(x1)", "--x0", "0,1", "--scheme", "implicit-midpoint"],
     "H=inf, gradient=[-inf, 2.0]"),
], ids=["log", "reciprocal"])
def test_flow_refuses_an_h_that_is_not_finite_at_x0(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "flow", "--family", "symplectic", "--level", "1",
                             "--steps", "3", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: flow needs H and its gradient finite at x0, got {message}\n"


def test_reports_are_strict_json(capsys):
    with pytest.raises(ValueError):
        cli.report_json({"value": float("nan")})
    for argv in (["verify", "--family", "cross", "--samples", "5"],
                 ["distance", "--family", "euclid", "--x", ORIGIN, "--y", ORIGIN],
                 ["flow", "--family", "symplectic", "--level", "1", "--steps", "5",
                  "--format", "json"],
                 ["symplectic", "--pairs", "2", "--samples", "10"],
                 ["gallery", "describe", "cross"], ["gallery", "export", "euclid"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and _strict_json(out)["schema_version"] == 1


def test_distance_metrics_are_the_metric_table():
    from proflim.profmetric import METRICS
    (metric,) = [a for a in _subparsers()["distance"]._actions if "--metric" in a.option_strings]
    assert list(metric.choices) == list(METRICS) == ["euclidean", "discrete"]


@pytest.mark.parametrize("content", [None, b"\xff\xfe1,0.5\n"], ids=["missing", "not-utf8"])
def test_distance_exits_two_on_an_unreadable_measure(capsys, tmp_path, content):
    path = tmp_path / "mu.csv"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "distance", "--family", "euclid", "--x", ORIGIN, "--y", ORIGIN,
                         "--measure", str(path))
    assert (code, out) == (2, "") and "cannot read --measure" in err


def test_the_wiener_pairing_check_fails_on_a_path_off_its_knots(capsys, monkeypatch):
    """The pairing through the PL path is compared with the sampled values at
    the knots, so a path that misses its knots fails the check."""
    real = pl.gallery.pl_path
    monkeypatch.setattr(pl.gallery, "pl_path",
                        lambda times, values: (lambda t, _g=real(times, values): _g(t) + 0.25))
    code, out, _ = run(capsys, "wiener", "--samples", "200", "--seed", "0")
    checks = {c["name"]: c for r in json.loads(out)["reports"] for c in r["checks"]}
    assert code == 1 and checks["pairing equals direct summation"]["passed"] is False

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import proflim as pl
import proflim.cli as cli
from towers import cover_family, pair_family


def test_index_round_trip():
    assert pl.decode_index(pl.encode_index(frozenset({0.5, 0.25}))) == frozenset({0.25, 0.5})
    assert pl.encode_index(3) == 3
    assert pl.encode_index("L") == "L"
    with pytest.raises(pl.DescriptorError):
        pl.encode_index((1, 2))
    with pytest.raises(pl.DescriptorError):
        pl.decode_index({"set": [1], "junk": 2})


def test_decoded_indices_key_memos_and_maps_by_value():
    """Threads hold a value by the index's position, found by value, and the
    map cache by the index itself: one frozenset in two spellings is one
    entry, an int and a string are two, and no lookup asks poset.key."""
    fam = pl.wiener_family([0.25, 0.5, 0.75]).family
    key_calls = []
    canonical = fam.poset.key
    object.__setattr__(fam.poset, "key", lambda J: key_calls.append(J) or canonical(J))
    a, b = pl.decode_index({"set": [0.5, 0.25]}), pl.decode_index({"set": [0.25, 0.5]})
    top = pl.decode_index({"set": [0.75, 0.25, 0.5]})
    calls = []
    t = pl.Thread(fam, lambda J: calls.append(J) or np.zeros(len(J)))
    assert t(a).tobytes() == t(b).tobytes() and calls == [a]
    assert fam.proj(a, top) is fam.proj(b, top) and fam.inj(top, a) is fam.inj(top, b)
    assert fam.proj(a, a) is fam.inj(b, b) and len(fam._cache) == 3
    assert key_calls == []

    one, word, two = (pl.decode_index(i) for i in (1, "1", 2))
    rank = {one: 0, word: 1, two: 2}
    dims = {one: 1, word: 2, two: 3}
    chain = pair_family(
        pl.finite_poset([one, word, two], lambda x, y: rank[x] <= rank[y]), dims.get,
        lambda J, K: pl.selection_map(dims[K], range(dims[J])),
        lambda K, J: pl.scatter_map(dims[K], range(dims[J])))
    calls = []
    t = pl.Thread(chain, lambda J: calls.append(J) or np.ones(dims[J]))
    for _ in range(2):
        assert [t(J).size for J in (one, word, two)] == [1, 2, 3]
    assert calls == [one, word, two]
    assert chain.proj(one, two).codomain_dim == 1 and chain.proj(word, two).codomain_dim == 2
    assert len(chain._cache) == 2

    # a loaded family keys its dimensions, stored maps and form by the index too
    doc = {"poset": {"kind": "subsets", "pool": [0.5, 1.0]},
           "levels": [{"index": {"set": s}, "dim": len(s)}
                      for s in ([], [0.5], [1.0], [1.0, 0.5])],
           "projections": [{"from": {"set": [1.0, 0.5]}, "to": {"set": [0.5]},
                            "kind": "truncation", "payload": {"indices": [0]}}],
           "injections": [{"from": {"set": [0.5]}, "to": {"set": [0.5, 1.0]},
                           "kind": "truncation", "payload": {"indices": [0]}}]}
    loaded = pl.family_from_descriptor(doc)
    form = pl.form_from_descriptor(loaded, {"kind": "expressions", "degree": 1, "levels": [
        {"index": {"set": [1.0, 0.5]}, "comps": ["x0", "x1"]}]})
    canonical = loaded.poset.key
    object.__setattr__(loaded.poset, "key",
                       lambda J: key_calls.append(J) or canonical(J))
    top, also_top = (pl.decode_index({"set": s}) for s in ([0.5, 1.0], [1.0, 0.5]))
    half = pl.decode_index({"set": [0.5]})
    assert loaded.dim(top) == loaded.dim(also_top) == 2
    assert loaded.proj(half, top) is loaded.proj(half, also_top)
    assert np.array_equal(loaded.inj(also_top, half)(np.array([3.0])), [3.0, 0.0])
    calls = []
    t = pl.Thread(loaded, lambda J: calls.append(J) or np.ones(len(J)))
    assert t(top).tobytes() == t(also_top).tobytes() and calls == [top]
    assert np.array_equal(form.comps(also_top, np.array([2.0, 3.0])), [2.0, 3.0])
    with pytest.raises(pl.DescriptorError, match="no declared dimension"):
        loaded.dim((0.5, 1.0))  # a tuple is not the level {0.5, 1.0}
    assert key_calls == []


def test_poset_round_trips(euclid, cross, wiener):
    for poset in (euclid.family.poset, cross.family.poset, wiener.family.poset):
        doc = pl.poset_to_descriptor(poset)
        back = pl.poset_from_descriptor(json.loads(json.dumps(doc)))
        els = list(poset.elements)
        assert sorted(map(poset.key, back.elements)) == sorted(map(poset.key, els))
        for a in els:
            for b in els:
                assert back.leq(a, b) == poset.leq(a, b)


def test_poset_descriptor_kinds(euclid, cross, wiener):
    assert pl.poset_to_descriptor(euclid.family.poset)["kind"] == "chain"
    assert pl.poset_to_descriptor(cross.family.poset)["kind"] == "finite"
    assert pl.poset_to_descriptor(wiener.family.poset)["kind"] == "subsets"
    with pytest.raises(pl.DescriptorError):
        pl.poset_from_descriptor({"kind": "mystery"})


@pytest.mark.parametrize("leq, message", [
    ([[1, 1], [0, 0]], r"poset\.leq\[1\]\[1\]: 'b' <= 'b' must hold"),
    ([[1, 1], [1, 1]], r"poset\.leq\[0\]\[1\]: 'a' <= 'b' and back"),
    ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], r"poset\.leq\[0\]\[2\]: 'a' <= 'b' <= 'c' needs"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], r"poset\.leq\[0\], poset\.leq\[1\]: 'a' and 'b' "
                                        "have no common upper bound"),
], ids=["reflexive", "antisymmetric", "transitive", "directed"])
def test_finite_poset_descriptor_must_be_a_directed_order(leq, message):
    doc = {"kind": "finite", "elements": ["a", "b", "c"][:len(leq)], "leq": leq}
    with pytest.raises(pl.DescriptorError, match=message):
        pl.poset_from_descriptor(doc)
    with pytest.raises(pl.DescriptorError, match=message):
        pl.family_from_descriptor({
            "poset": doc, "levels": [{"index": e, "dim": 0} for e in doc["elements"]],
            "projections": [], "injections": []})


@pytest.mark.parametrize("cell", ["x", 1.5, {"a": 1}, None, "", {}, 2, -1, 1.0, [1]],
                         ids=["string", "fraction", "object", "null", "empty-string",
                              "empty-object", "two", "minus-one", "float-one", "list"])
def test_finite_poset_descriptor_leq_cells_are_booleans_or_bits(cell):
    doc = {"kind": "finite", "elements": ["a", "b"], "leq": [[True, cell], [0, 1]]}
    with pytest.raises(pl.DescriptorError,
                       match=rf"^poset\.leq\[0\]\[1\]: .* is not true, false, 0 or 1$"):
        pl.poset_from_descriptor(doc)


@pytest.mark.parametrize("yes, no", [(True, False), (1, 0)], ids=["booleans", "bits"])
def test_finite_poset_descriptor_reads_booleans_and_bits_alike(yes, no):
    poset = pl.poset_from_descriptor({"kind": "finite", "elements": ["a", "b"],
                                      "leq": [[yes, yes], [no, yes]]})
    assert (poset.leq("a", "b"), poset.leq("b", "a")) == (True, False)


def test_verify_refuses_a_leq_cell_that_is_not_a_boolean(tmp_path, capsys):
    doc = pl.family_to_descriptor(pl.cross_family().family)
    doc["poset"]["leq"][0][1] = "x"
    path = tmp_path / "cross.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--family", str(path)]) == 2
    assert "poset.leq[0][1]: 'x' is not true, false, 0 or 1" in capsys.readouterr().err


def test_verify_and_distance_refuse_a_level_with_no_declared_dimension(tmp_path, capsys):
    assert cli.main(["gallery", "export", "euclid"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for field in ("levels", "projections", "injections"):
        doc[field] = [e for e in doc[field]
                      if 4 not in (e.get("index"), e.get("from"), e.get("to"))]
    path = tmp_path / "euclid.json"
    path.write_text(json.dumps(doc))
    for argv in (["verify", "--family", str(path)],
                 ["distance", "--family", str(path), "--levels", "3",
                  "--x", '{"kind": "sequence", "values": [1, 2, 3, 4, 5, 6]}',
                  "--y", '{"kind": "sequence", "values": [0, 0, 0, 0, 0, 0]}']):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: levels: no entry declares the dimension of level 4\n")


def test_finite_poset_descriptor_lists_each_element_once():
    # a valid order on two slots, but both name 'a'
    doc = {"kind": "finite", "elements": ["a", "a"], "leq": [[1, 1], [0, 1]]}
    with pytest.raises(pl.DescriptorError, match=r"poset\.elements\[1\]: 'a' is listed twice"):
        pl.poset_from_descriptor(doc)


def test_family_round_trip_verifies(tmp_path, euclid, rng):
    path = tmp_path / "euclid.json"
    pl.dump_family(euclid.family, path)
    fam = pl.load_family(path)
    assert fam.dim(7) == 7
    report = pl.verify_family(fam, points_per_chain=4, rng=rng)
    assert report.passed
    x = rng.standard_normal(3)
    assert np.allclose(fam.inj(9, 3)(x), euclid.family.inj(9, 3)(x))


def test_family_round_trip_cross(tmp_path, cross, rng):
    path = tmp_path / "cross.json"
    pl.dump_family(cross.family, path)
    fam = pl.load_family(path)
    assert pl.verify_family(fam, points_per_chain=4, rng=rng).passed
    assert np.array_equal(fam.proj("J", "L")(np.array([1.0, 2.0])), [1.0])
    assert np.array_equal(fam.proj("K", "L")(np.array([1.0, 2.0])), [2.0])


@pytest.mark.parametrize("name", ["euclid", "poly", "matrix", "cross"])
def test_dump_load_dump_is_byte_identical(tmp_path, name):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    pl.dump_family(pl.build_gallery(name).family, first)
    pl.dump_family(pl.load_family(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_a_stored_non_cover_pair_exports_as_the_covers():
    """The export writes the poset's covers for every family: a loaded
    family that also stored the pair (1, 3) exports only (1, 2) and (2, 3),
    and its reload composes (1, 3) from them."""
    doc = pl.family_to_descriptor(pl.euclid_tower(3).family)
    doc["projections"].append({"from": 3, "to": 1, "kind": "truncation",
                               "payload": {"indices": [0]}})
    doc["injections"].append({"from": 1, "to": 3, "kind": "truncation",
                              "payload": {"indices": [0]}})
    again = pl.family_to_descriptor(pl.family_from_descriptor(doc))
    assert [(e["from"], e["to"]) for e in again["projections"]] == [(1, 0), (2, 1), (3, 2)]
    assert np.array_equal(pl.family_from_descriptor(again).proj(1, 3).matrix,
                          [[1.0, 0.0, 0.0]])


def test_descriptor_is_sorted_and_versioned(tmp_path, euclid):
    path = tmp_path / "euclid.json"
    pl.dump_family(euclid.family, path)
    text = path.read_text()
    doc = json.loads(text)
    assert doc["schema_version"] == pl.SCHEMA_VERSION
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert [lv["dim"] for lv in doc["levels"]] == list(range(11))


def test_truncation_map_kind():
    doc = {
        "schema_version": 1,
        "name": "trunc",
        "poset": {"kind": "chain", "elements": [1, 2]},
        "levels": [{"index": 1, "dim": 1}, {"index": 2, "dim": 3}],
        "projections": [{"from": 2, "to": 1, "kind": "truncation",
                         "payload": {"indices": [2]}}],
        "injections": [{"from": 1, "to": 2, "kind": "truncation",
                        "payload": {"indices": [2]}}],
    }
    fam = pl.family_from_descriptor(doc)
    assert np.array_equal(fam.proj(1, 2)(np.array([5.0, 6.0, 7.0])), [7.0])
    assert np.array_equal(fam.inj(2, 1)(np.array([4.0])), [0.0, 0.0, 4.0])
    assert pl.verify_family(fam, points_per_chain=3).passed


def test_pl_interpolation_map_kind():
    doc = {
        "schema_version": 1,
        "name": "pl",
        "poset": {"kind": "subsets", "pool": [0.5, 1.0]},
        "levels": [{"index": {"set": []}, "dim": 0},
                   {"index": {"set": [0.5]}, "dim": 1},
                   {"index": {"set": [1.0]}, "dim": 1},
                   {"index": {"set": [0.5, 1.0]}, "dim": 2}],
        "projections": [{"from": {"set": [0.5, 1.0]}, "to": {"set": [0.5]},
                         "kind": "truncation", "payload": {"indices": [0]}}],
        "injections": [{"from": {"set": [0.5]}, "to": {"set": [0.5, 1.0]},
                        "kind": "pl-interpolation",
                        "payload": {"targets": [0.5, 1.0], "knots": [0.5]}}],
    }
    fam = pl.family_from_descriptor(doc)
    lifted = fam.inj(frozenset({0.5, 1.0}), frozenset({0.5}))(np.array([2.0]))
    assert np.array_equal(lifted, [2.0, 2.0])  # constant past the last knot


def test_named_gallery_descriptor_round_trip(tmp_path, rng):
    doc = pl.gallery_reference_descriptor("symplectic", {"max_pairs": 2})
    path = tmp_path / "symp.json"
    path.write_text(json.dumps(doc))
    fam = pl.load_family(path)
    assert fam.dim(2) == 4
    assert pl.verify_family(fam, points_per_chain=3, rng=rng).passed


EUCLID_REF = {"kind": "named-gallery", "payload": {"family": "euclid"}}


@pytest.mark.parametrize("doc, message", [
    # a stray matrix beside the reference used to be dropped, and euclid audited
    ({"name": "x", "poset": {"kind": "chain", "elements": [1, 2]},
      "levels": [{"index": 1, "dim": 5}],
      "projections": [EUCLID_REF, {"kind": "matrix", "from": 2, "to": 1,
                                   "payload": {"rows": [[1, 0]]}}]},
     r"^projections\[1\]: not the family's one named-gallery reference$"),
    ({"projections": [EUCLID_REF], "injections": [{"kind": "named-gallery",
                                                   "payload": {"family": "poly"}}]},
     r"^injections\[0\]: not the family's one named-gallery reference$"),
    ({"projections": [EUCLID_REF, "euclid"]}, r"^projections\[1\]: expected a JSON object"),
    ({"projections": [EUCLID_REF], "poset": {"kind": "chain", "elements": [1, 2]}},
     r"^poset: does not describe gallery 'euclid'$"),
    ({"projections": [EUCLID_REF], "levels": [{"index": 1, "dim": 5}]},
     r"^levels: does not describe gallery 'euclid'$"),
    # JSON's true is not the level 1 it compares equal to in Python
    ({"projections": [EUCLID_REF],
      "levels": [{"index": True if n == 1 else n, "dim": n} for n in range(7)]},
     r"^levels: does not describe gallery 'euclid'$"),
], ids=["stray-matrix", "two-galleries", "non-object-entry", "other-poset", "other-levels",
        "level-true"])
def test_named_gallery_documents_hold_nothing_else(doc, message, capsys, tmp_path):
    with pytest.raises(pl.DescriptorError, match=message):
        pl.family_from_descriptor(doc)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--family", str(path), "--samples", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name", ["euclid", "wiener", "symplectic", "odd-symplectic"])
def test_named_gallery_references_load_as_their_gallery(name):
    want = pl.build_gallery(name).family
    full = json.loads(json.dumps(pl.gallery_reference_descriptor(name)))
    bare = {"projections": full["projections"][:1]}  # the README's projections-only form
    for doc in (full, bare):
        fam = pl.family_from_descriptor(doc)
        assert list(fam.poset.elements) == list(want.poset.elements)
        assert [fam.dim(J) for J in fam.poset.elements] == [want.dim(J) for J in
                                                            want.poset.elements]


def test_family_descriptor_errors(euclid):
    with pytest.raises(pl.DescriptorError):
        pl.family_from_descriptor({"schema_version": 99, "poset": {}, "levels": []})
    with pytest.raises(pl.DescriptorError):
        pl.family_from_descriptor({
            "poset": {"kind": "chain", "elements": [1, 2]},
            "levels": [{"index": 1, "dim": 1}, {"index": 2, "dim": 2}],
            "projections": [{"from": 2, "to": 1, "kind": "warp", "payload": {}}],
            "injections": []})
    # a level with no declared dimension is refused at load
    with pytest.raises(pl.DescriptorError,
                       match=r"^levels: no entry declares the dimension of level 2$"):
        pl.family_from_descriptor({
            "poset": {"kind": "chain", "elements": [1, 2]},
            "levels": [{"index": 1, "dim": 1}],
            "projections": [], "injections": []})
    with pytest.raises(pl.DescriptorError,
                       match=r"^map: named-gallery maps resolve at the family level$"):
        pl.map_from_entry({"kind": "named-gallery", "payload": {"family": "euclid"}},
                          "proj", lambda J: J)
    bent = pair_family(
        pl.chain_poset([1, 2]), lambda J: J, lambda J, K: pl.selection_map(K, range(J)),
        lambda K, J: pl.DifferentiableMap(J, K, lambda x: np.append(x, np.sin(x[0]))))
    with pytest.raises(pl.DescriptorError,
                       match=r"^pair \(1, 2\) is not linear; export needs explicit matrices$"):
        pl.family_to_descriptor(bent)


def test_thread_descriptors(euclid, rng):
    t = pl.thread_from_descriptor(euclid, {"kind": "named", "name": "three_four"})
    assert np.array_equal(t(2), [3.0, 4.0])

    s = pl.thread_from_descriptor(euclid, {"kind": "sequence",
                                           "values": [1.0, 2.0, 3.0]})
    assert np.array_equal(s(3), [1.0, 2.0, 3.0])
    with pytest.raises(pl.DescriptorError):
        s(4)

    sp = pl.thread_from_descriptor(euclid, {
        "kind": "section-point", "section": [2],
        "values": [[2, [7.0, 8.0]]]})
    assert np.array_equal(sp(2), [7.0, 8.0])
    assert np.array_equal(sp(4), [7.0, 8.0, 0.0, 0.0])

    with pytest.raises(pl.DescriptorError):
        pl.thread_from_descriptor(euclid, {"kind": "named", "name": "metrics"})
    with pytest.raises(pl.DescriptorError):
        pl.thread_from_descriptor(euclid, {"kind": "interpretive-dance"})
    with pytest.raises(pl.DescriptorError):
        pl.thread_from_descriptor(euclid.family, {"kind": "named", "name": "origin"})


def test_form_descriptors(euclid, symplectic, rng):
    omega = pl.form_from_descriptor(symplectic, {"kind": "named-gallery"})
    assert omega is symplectic["omega"]
    built = pl.form_from_descriptor(None, {"kind": "named-gallery",
                                           "family": "odd-symplectic",
                                           "kwargs": {"max_dim": 3},
                                           "extra": "omega"})
    assert built.degree == 2

    doc = {"kind": "expressions", "degree": 1,
           "levels": [{"index": 2, "comps": ["x1*x1", "sin(x0)"]}]}
    form = pl.form_from_descriptor(euclid.family, doc)
    x = np.array([0.3, 2.0])
    assert np.allclose(form.comps(2, x), [4.0, np.sin(0.3)])
    with pytest.raises(pl.ExpressionError):
        form.comps(3, np.zeros(3))  # no components declared there

    with pytest.raises(pl.DescriptorError):
        pl.form_from_descriptor(euclid.family, {"kind": "expressions", "degree": 1,
                                                "levels": [{"index": 2,
                                                            "comps": ["x0"]}]})
    with pytest.raises(pl.DescriptorError):
        pl.form_from_descriptor(symplectic, {"kind": "named-gallery",
                                             "extra": "hamiltonian"})
    with pytest.raises(pl.DescriptorError):
        pl.form_from_descriptor(euclid.family, {"kind": "what"})


def test_a_loaded_expression_form_is_symbolic_with_exact_partials(euclid):
    form = pl.form_from_descriptor(euclid.family, {
        "kind": "expressions", "degree": 1,
        "levels": [{"index": 2, "comps": ["x0*x1", "sin(x0)"]}]})
    assert form.kind == "symbolic" and pl.exterior_derivative(form).kind == "symbolic"
    x = np.array([0.1, 1.0 / 3.0])
    P = form.partials(2, x)  # P[j, i] = d comps_i / dx_j
    assert P[0, 0] == x[1] and P[1, 0] == x[0] and P[1, 1] == 0.0
    assert P[0, 1] == np.cos(x[0])
    assert not pl.exterior_derivative(pl.exterior_derivative(form)).comps(2, x).any()


def test_the_partials_of_abs_of_a_power_are_the_smooth_part(euclid):
    form = pl.form_from_descriptor(euclid.family, {
        "kind": "expressions", "degree": 0,
        "levels": [{"index": 2, "comps": "abs(x0**1.5) + sqr(x1)"}]})
    d = pl.exterior_derivative(form)
    x = np.array([0.5, 1.0])
    assert d.comps(2, x)[1] == 2.0
    fd = pl.TameForm(euclid.family, 1, d.comps)
    assert np.max(np.abs(d.partials(2, x) - fd.partials(2, x))) < 1e-5


def test_named_gallery_form_builds_the_gallery_it_names(euclid, symplectic):
    doc = {"kind": "named-gallery", "family": "symplectic", "extra": "omega"}
    built = pl.form_from_descriptor(euclid, doc)
    assert built.degree == 2 and built.family is not euclid.family
    assert built.family.dim(2) == 4
    for name in ("symplectic", "symplectic_even_tower"):  # builder names alias keys
        assert pl.form_from_descriptor(symplectic, dict(doc, family=name)) is symplectic["omega"]
    with pytest.raises(pl.DescriptorError):
        pl.form_from_descriptor(euclid.family, {"kind": "named-gallery"})


def test_measure_csv(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("index,weight\n# comment line\n1,0.5\n2,0.25\ntail,0.125\n")
    mu = pl.load_measure_csv(path)
    assert mu.weights == {1: 0.5, 2: 0.25}
    assert mu.tail_mass == 0.125
    assert mu.total_mass == 0.875

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n")
    with pytest.raises(pl.DescriptorError):
        pl.load_measure_csv(bad)

    stringy = tmp_path / "set.csv"
    stringy.write_text("J,1.0\n")
    mu2 = pl.load_measure_csv(stringy)
    assert mu2.weights == {"J": 1.0}


def _readme_descriptor_examples():
    import pathlib
    import re
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Descriptors", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w+)\n(.*?)```", section, re.S)
    inline = re.findall(r"(?<!`)`(\{[^`]*\})`(?!`)", re.sub(r"```.*?```", "", section, flags=re.S))
    return blocks + [("json", doc) for doc in inline]


POSET_KINDS = ("chain", "finite", "subsets")
THREAD_KINDS = ("named", "sequence", "section-point")


def test_readme_descriptor_examples_load_as_written(tmp_path):
    examples = _readme_descriptor_examples()
    euclid = pl.euclid_tower(4)
    loaded = set()
    for lang, text in examples:
        if lang == "csv":
            path = tmp_path / "measure.csv"
            path.write_text(text)
            assert pl.load_measure_csv(path).weights
            loaded.add("measure")
            continue
        doc = json.loads(text)
        if "projections" in doc:
            fam = pl.family_from_descriptor(doc)
            assert pl.verify_family(fam, points_per_chain=2).passed
            loaded.add("family")
        elif doc["kind"] in POSET_KINDS:
            pl.poset_from_descriptor(doc)
            loaded.add("poset")
        elif doc["kind"] in THREAD_KINDS:
            thread = pl.thread_from_descriptor(euclid, doc)
            assert thread(2).shape == (2,)
            loaded.add("thread")
        else:
            form = pl.form_from_descriptor(euclid.family, doc)
            assert isinstance(form, pl.TameForm)
            loaded.add("form")
    assert loaded == {"family", "poset", "thread", "form", "measure"}
    assert len(examples) == 11


# five labels in the poset's key order, so the export lists the covers in the
# order the family stores them and both compose a non-cover pair along one chain
FINITE_LABELS = {
    "string": st.just([f"e{i}" for i in range(5)]),
    "float": st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=5,
                      max_size=5, unique=True).map(sorted),
    "set": st.lists(st.frozensets(st.integers(-3, 3), max_size=3), min_size=5, max_size=5,
                    unique=True).map(lambda sets: sorted(sets, key=sorted)),
}


@st.composite
def linear_families(draw):
    """A chain or a finite directed poset of up to five levels, with random
    matrices stored on the covering pairs and composed along them elsewhere;
    a finite poset's indices are strings, floats or sets of integers."""
    n = draw(st.integers(1, 5))
    labels = draw(st.sampled_from(["chain", *FINITE_LABELS]))
    if labels == "chain":
        els = sorted(draw(st.sets(st.integers(-5, 20), min_size=n, max_size=n)))
        poset = pl.chain_poset(els)
    else:
        els = draw(FINITE_LABELS[labels])[:n]
        leq = np.eye(n, dtype=bool)
        leq[:, -1] = True  # a top element makes the order directed
        for i in range(n):
            for j in range(i + 1, n - 1):
                leq[i, j] = draw(st.booleans())
        for _ in range(n):
            leq |= (leq.astype(int) @ leq.astype(int)) > 0
        pos = {e: i for i, e in enumerate(els)}
        poset = pl.finite_poset(els, lambda a, b: bool(leq[pos[a], pos[b]]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = {J: int(rng.integers(0, 4)) for J in els}
    covers = [(a, b) for a in els for b in els if poset.lt(a, b)
              and not any(poset.lt(a, c) and poset.lt(c, b) for c in els)]
    maps = {(J, K): (pl.matrix_map(rng.standard_normal((dims[J], dims[K]))),
                     pl.matrix_map(rng.standard_normal((dims[K], dims[J]))))
            for J, K in covers}
    return cover_family(poset, dims.__getitem__, maps, name="random")


@given(linear_families())
def test_family_descriptor_round_trip(family):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        pl.dump_family(family, first)
        pl.dump_family(pl.load_family(first), second)
        assert second.read_bytes() == first.read_bytes()
    doc = json.loads(json.dumps(pl.family_to_descriptor(family)))
    back = pl.family_from_descriptor(doc)
    els = list(family.poset.elements)
    assert list(back.poset.elements) == els
    assert [back.dim(J) for J in els] == [family.dim(J) for J in els]
    for J in els:
        for K in els:
            assert back.poset.leq(J, K) == family.poset.leq(J, K)
            if family.poset.leq(J, K):
                assert np.array_equal(back.proj(J, K).matrix, family.proj(J, K).matrix)
                assert np.array_equal(back.inj(K, J).matrix, family.inj(K, J).matrix)


PAIR = {"poset": {"kind": "chain", "elements": [1, 2]},
        "levels": [{"index": 1, "dim": 1}, {"index": 2, "dim": 2}],
        "projections": [{"from": 2, "to": 1, "kind": "matrix",
                         "payload": {"rows": [[1.0, 0.0]]}}],
        "injections": [{"from": 1, "to": 2, "kind": "matrix",
                        "payload": {"rows": [[1.0], [0.0]]}}]}


def _edited(**changes):
    """PAIR with each dotted path in changes set to its value (None deletes)."""
    doc = json.loads(json.dumps(PAIR))
    for path, value in changes.items():
        *head, last = [int(k) if k.isdigit() else k for k in path.split("__")]
        parent = doc
        for key in head:
            parent = parent[key]
        if value is None:
            del parent[last]
        else:
            parent[last] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    ([1, 2], r"descriptor: expected a JSON object"),
    (_edited(poset=None), r"^poset: missing field"),
    (_edited(poset__elements=["a"]), r"^poset\.elements\[0\]: 'a' is not an integer$"),
    (_edited(poset__elements=[2, 1, 1]), r"^poset\.elements\[2\]: 1 is listed twice$"),
    (_edited(poset__elements=[1.5, 3]), r"^poset\.elements\[0\]: 1\.5 is not an integer$"),
    (_edited(poset__elements=[1, 1.5]), r"^poset\.elements\[1\]: 1\.5 is not an integer$"),
    (_edited(poset__elements=[1, float("inf")]), r"^poset\.elements\[1\]: inf is not an integer$"),
    (_edited(poset__elements=[True, 2]), r"^poset\.elements\[0\]: True is not an integer$"),
    (_edited(poset__elements=[1, 2.0]), r"^poset\.elements\[1\]: 2\.0 is not an integer$"),
    (_edited(levels="all"), r"^levels: expected a list"),
    (_edited(levels__0__index=7), r"levels\[0\]\.index: 7 is not an element"),
    (_edited(levels__1__dim=-2), r"levels\[1\]\.dim: a dimension cannot be negative"),
    (_edited(levels__1__dim=2.5), r"^levels\[1\]\.dim: 2\.5 is not an integer$"),
    (_edited(levels__1__dim=2.0), r"^levels\[1\]\.dim: 2\.0 is not an integer$"),
    (_edited(levels__1__dim="2"), r"^levels\[1\]\.dim: '2' is not an integer$"),
    (_edited(levels__0__dim=True), r"^levels\[0\]\.dim: True is not an integer$"),
    (_edited(levels=[{"index": 2, "dim": 2}]),
     r"^levels: no entry declares the dimension of level 1$"),
    (_edited(projections__0__to={"set": [[1]]}), r"projections\[0\]\.to: bad index"),
    (_edited(projections__0__payload__rows=[[1.0, "x"]]), r"projections\[0\]\.payload\.rows"),
    (_edited(projections__0__payload__rows=[[[1.0, 0.0]]]), r"rows: expected a list of rows"),
    (_edited(injections__0__payload__rows=[[1.0, 0.0]]),
     r"injections\[0\]: declared 1->2, map has 2->1"),
    (_edited(projections__0__from=1, projections__0__to=2,
             projections__0__payload__rows=[[1.0], [0.0]]),
     r"projections\[0\]: 1 -> 2 runs against the order"),
    (_edited(projections__0__kind="truncation", projections__0__payload={"indices": [2]}),
     r"projections\[0\]\.payload\.indices: \[2\] are not coordinates of R\^2"),
    (_edited(projections__0__kind="truncation", projections__0__payload={"indices": [0.7]}),
     r"^projections\[0\]\.payload\.indices\[0\]: 0\.7 is not an integer$"),
    (_edited(projections__0__kind="truncation", projections__0__payload={"indices": ["1"]}),
     r"^projections\[0\]\.payload\.indices\[0\]: '1' is not an integer$"),
    (_edited(injections__0__kind="truncation", injections__0__payload={"indices": [0, True]}),
     r"^injections\[0\]\.payload\.indices\[1\]: True is not an integer$"),
    (_edited(projections__0__kind="truncation", projections__0__payload={"indices": 0}),
     r"^projections\[0\]\.payload\.indices: expected a list, got 0$"),
    (_edited(injections=[]), r"injections: none from 1 to 2, where a projection is stored"),
    ({"projections": [{"kind": "named-gallery", "payload": {"family": "klein"}}]},
     r"payload: no gallery family named 'klein'"),
    ({"projections": [{"kind": "named-gallery",
                       "payload": {"family": "euclid", "kwargs": {"size": 3}}}]},
     r"payload: .*unexpected keyword"),
    # strict JSON has no NaN, but a document built in Python can
    (_edited(projections__0__payload__rows=[[float("nan"), 0.0]]),
     r"^projections\[0\]\.payload\.rows: nan is not a finite number$"),
    (_edited(poset={"kind": "finite", "elements": [float("nan")], "leq": [[True]]}),
     r"^poset\.elements\[0\]: nan is not a finite number$"),
    (_edited(levels__0__index=float("nan")), r"^levels\[0\]\.index: nan is not a finite number$"),
    (_edited(poset={"kind": "subsets", "pool": [0.5, float("nan")]}),
     r"^poset\.pool\[1\]: nan is not a finite number$"),
    (_edited(poset={"kind": "finite", "elements": [1, 2], "leq": [[True]]}),
     r"^poset\.leq: shape \(1, 1\) does not match 2 elements$"),
    (_edited(injections__0__kind="pl-interpolation",
             injections__0__payload={"knots": [0.0], "targets": [0.5, 1.0]}),
     r"^injections\[0\]\.payload\.knots: knot times must be distinct and positive$"),
    (_edited(injections__0__kind="pl-interpolation",
             injections__0__payload={"knots": [0.5, 0.5], "targets": [0.5, 1.0]}),
     r"^injections\[0\]\.payload\.knots: knot times must be distinct and positive$"),
    (_edited(injections__0__kind="pl-interpolation",
             injections__0__payload={"knots": [0.5], "targets": [-0.25, 0.5]}),
     r"^injections\[0\]\.payload\.targets: -0\.25 is a negative time$"),
], ids=["not-an-object", "no-poset", "chain-element", "chain-repeat", "chain-fraction",
        "chain-truncated-repeat", "chain-infinity", "chain-bool", "chain-float", "levels-type",
        "level-index", "negative-dim", "fraction-dim", "float-dim", "string-dim", "bool-dim",
        "undeclared-level", "bad-index", "non-numeric-row",
        "three-dim-rows", "injection-shape", "projection-upward", "truncation-range",
        "truncation-fraction", "truncation-string", "truncation-bool", "truncation-not-a-list",
        "missing-injection", "unknown-gallery", "gallery-kwargs", "nan-row", "nan-element",
        "nan-level-index", "nan-pool-entry", "leq-shape", "pl-zero-knot", "pl-repeated-knot",
        "pl-negative-target"])
def test_malformed_family_descriptors_name_the_field(doc, message):
    with pytest.raises(pl.DescriptorError, match=message):
        pl.family_from_descriptor(doc)


@pytest.mark.parametrize("field, value", [("dim", 2.5), ("dim", "2"), ("degree", True),
                                          ("degree", 1.0)])
def test_verify_exits_two_on_a_dimension_or_degree_that_is_not_an_integer(
        tmp_path, capsys, field, value):
    family, form = tmp_path / "family.json", {"kind": "expressions", "degree": 1,
                                              "levels": [{"index": 1, "comps": ["x0"]}]}
    family.write_text(json.dumps(_edited(levels__1__dim=value) if field == "dim" else PAIR))
    if field == "degree":
        form["degree"] = value
    code = cli.main(["verify", "--family", str(family), "--form", json.dumps(form)])
    where = "levels[1].dim" if field == "dim" else "form.degree"
    assert (code, capsys.readouterr().err) == (
        2, f"error: {where}: {value!r} is not an integer\n")


@pytest.mark.parametrize("value, token", [(float("nan"), "NaN"), (float("inf"), "Infinity"),
                                          (-float("inf"), "-Infinity")],
                         ids=["nan", "infinity", "minus-infinity"])
def test_load_family_refuses_non_finite_json_tokens(tmp_path, value, token):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**PAIR, "comment": value}))  # json writes the token
    with pytest.raises(ValueError, match=f"^{token} is not a JSON number$"):
        pl.load_family(path)


def test_load_family_reads_an_overflowing_number_as_inf_and_names_its_field(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(_edited(poset__elements=[1, 2.5])).replace("2.5", "1e999"))
    with pytest.raises(pl.DescriptorError, match=r"^poset\.elements\[1\]: inf is not an integer$"):
        pl.load_family(path)


def test_unconnected_levels_are_a_descriptor_error_on_use():
    doc = _edited(poset__elements=[1, 2, 3],
                  levels=[{"index": n, "dim": d} for n, d in ((1, 1), (2, 2), (3, 1))])
    fam = pl.family_from_descriptor(doc)
    assert np.array_equal(fam.proj(1, 2).matrix, [[1.0, 0.0]])
    with pytest.raises(pl.DescriptorError, match="stored pairs do not connect 1 to 3"):
        fam.proj(1, 3)


@pytest.mark.parametrize("doc, message", [
    ({"kind": "section-point", "section": [2], "values": [[2, [1.0]]]},
     r"thread: value at 2 has dim 1, expected 2"),
    ({"kind": "section-point", "section": [2], "values": []}, r"missing value for member 2"),
    ({"kind": "section-point", "section": ["a"], "values": []},
     r"thread\.section: 'a' is not a level of euclid"),
    # a member that only compares equal to level 1, under a value key that matches it
    ({"kind": "section-point", "section": [True], "values": [[True, [1.0]]]},
     r"^thread\.section: True is not a level of euclid$"),
    ({"kind": "section-point", "section": [1.0], "values": [[1.0, [1.0]]]},
     r"^thread\.section: 1\.0 is not a level of euclid$"),
    ({"kind": "section-point", "section": [2], "values": [[2]]}, r"thread\.values"),
    ({"kind": "sequence", "values": [[1.0]]}, r"thread\.values"),
    ({"kind": "named"}, r"thread\.name: missing field"),
    ({"kind": "section-point", "section": [1, 2], "values": [[1, [1.0]], [2, [1.0, 0.0]]]},
     r"thread\.section: not a section: members 1 and 2 are comparable"),
    # every value key is a member, read as the section's members are, and given once
    ({"kind": "section-point", "section": [1], "values": [[1, [1.0]], [99, [2.0]]]},
     r"^thread\.values\[1\]: 99 is not a level of euclid$"),
    ({"kind": "section-point", "section": [1], "values": [[True, [1.0]]]},
     r"^thread\.values\[0\]: True is not a level of euclid$"),
    ({"kind": "section-point", "section": [1], "values": [[1.0, [1.0]]]},
     r"^thread\.values\[0\]: 1\.0 is not a level of euclid$"),
    ({"kind": "section-point", "section": [2], "values": [[1, [1.0]], [2, [1.0, 0.0]]]},
     r"^thread\.values\[0\]: 1 is not a member of thread\.section$"),
    ({"kind": "section-point", "section": [1], "values": [[1, [1.0]], [1, [2.0]]]},
     r"^thread\.values\[1\]: a second value for member 1$"),
], ids=["dimension", "missing-value", "not-a-level", "true-member", "float-member",
        "value-pair", "nested-values", "no-name", "comparable-members",
        "value-not-a-level", "value-true-key", "value-float-key", "value-not-a-member",
        "value-twice"])
def test_malformed_thread_descriptors_name_the_field(doc, message):
    with pytest.raises(pl.DescriptorError, match=message):
        pl.thread_from_descriptor(pl.euclid_tower(4), doc)


def test_a_whole_knot_time_may_be_written_as_an_integer_but_not_as_true():
    wiener = pl.build_gallery("wiener")
    top = [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875]

    def section_point(last):
        member = {"set": top + [last]}
        return {"kind": "section-point", "section": [member], "values": [[member, [1.0] * 8]]}

    by_int = pl.thread_from_descriptor(wiener, section_point(1))
    by_float = pl.thread_from_descriptor(wiener, section_point(1.0))
    assert by_int.value(frozenset({1.0})).tobytes() == by_float.value(frozenset({1.0})).tobytes()
    with pytest.raises(pl.DescriptorError, match=r"^thread\.section: frozenset\(.*\) is not a level"):
        pl.thread_from_descriptor(wiener, section_point(True))


def test_malformed_form_descriptors_name_the_field():
    euclid = pl.euclid_tower(4)
    for index in ("a", 1.0):
        with pytest.raises(pl.DescriptorError,
                           match=rf"form\.levels\[0\]\.index: {index!r} is not a level"):
            pl.form_from_descriptor(euclid, {"kind": "expressions", "degree": 1,
                                             "levels": [{"index": index, "comps": ["x0"]}]})
    with pytest.raises(pl.DescriptorError, match=r"form\.degree: missing field"):
        pl.form_from_descriptor(euclid, {"kind": "expressions", "levels": []})
    # a degree is a JSON integer: 1.5, "1" or true is refused, not read as 1
    for degree in (1.5, 1.0, "1", True):
        with pytest.raises(pl.DescriptorError,
                           match=rf"^form\.degree: {re.escape(repr(degree))} is not an integer$"):
            pl.form_from_descriptor(euclid, {"kind": "expressions", "degree": degree,
                                             "levels": [{"index": 1, "comps": ["x0"]}]})
    with pytest.raises(pl.DescriptorError, match=r"form: no gallery family named"):
        pl.form_from_descriptor(euclid, {"kind": "named-gallery", "family": "klein"})


def test_measure_csv_names_the_bad_line(tmp_path):
    path = tmp_path / "mu.csv"
    path.write_text("index,weight\n1,0.5\n2,abc\n")
    with pytest.raises(pl.DescriptorError, match=r"line 3: weight 'abc' is not a number"):
        pl.load_measure_csv(path)


SET_CHAIN = [frozenset({1}), frozenset({1, 2})]


def test_a_poset_of_sets_other_than_all_subsets_round_trips_as_finite(tmp_path):
    poset = pl.finite_poset(SET_CHAIN, leq=lambda a, b: a <= b)
    doc = json.loads(json.dumps(pl.poset_to_descriptor(poset)))
    assert doc["kind"] == "finite"
    back = pl.poset_from_descriptor(doc)
    assert back.elements == poset.elements
    assert [[back.leq(a, b) for b in SET_CHAIN] for a in SET_CHAIN] == [[True, True],
                                                                     [False, True]]
    lo, hi = SET_CHAIN
    fam = cover_family(poset, {lo: 1, hi: 2}.__getitem__,
                       {(lo, hi): (pl.matrix_map([[1.0, 0.0]]), pl.matrix_map([[1.0], [0.0]]))},
                       name="sets")
    path = tmp_path / "sets.json"
    pl.dump_family(fam, path)
    loaded = pl.load_family(path)
    assert loaded.poset.elements == poset.elements
    assert [loaded.dim(J) for J in SET_CHAIN] == [1, 2]
    assert np.array_equal(loaded.proj(lo, hi).matrix, [[1.0, 0.0]])
    assert np.array_equal(loaded.inj(hi, lo).matrix, [[1.0], [0.0]])


def test_only_a_subset_poset_in_its_own_order_exports_as_subsets():
    subsets = pl.subset_poset([2, 1])
    assert pl.poset_to_descriptor(subsets) == {"kind": "subsets", "pool": [1, 2]}
    # the same elements in another order, and the same order under another leq
    reordered = pl.finite_poset(subsets.elements[::-1], leq=subsets.leq)
    flat = pl.finite_poset(subsets.elements, leq=lambda a, b: a == b or len(b) == 2)
    # a pool that does not sort: 1 and "a" have no common order
    unsorted = pl.finite_poset([frozenset({1}), frozenset({"a"})], leq=lambda a, b: a == b)
    for poset in (reordered, flat, unsorted):
        assert pl.poset_to_descriptor(poset)["kind"] == "finite"
    back = pl.poset_from_descriptor(json.loads(json.dumps(pl.poset_to_descriptor(flat))))
    assert not back.leq(frozenset({1}), frozenset({2}))
    assert back.leq(frozenset(), frozenset({1, 2}))


def test_an_index_whose_members_do_not_sort_is_a_descriptor_error():
    """No order sorts 1 and "a", and decode_index refuses a set that mixes
    numbers and strings, so export names the index instead of a TypeError."""
    mixed = [frozenset({1}), frozenset({"a"}), frozenset({1, "a"})]
    poset = pl.finite_poset(mixed, leq=lambda a, b: a <= b)
    fam = pl.ProfiniteFamily(poset, lambda J: 1,
                             lambda src, levels: pl.fanout_map([pl.identity_map(1)] * len(levels)))
    for export in (lambda: pl.poset_to_descriptor(poset), lambda: pl.family_to_descriptor(fam)):
        with pytest.raises(pl.DescriptorError, match=r"^index frozenset\(.*\): its members do not sort"):
            export()


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("role", ["proj", "inj"])
def test_export_refuses_a_non_finite_matrix_entry_and_dump_writes_no_file(tmp_path, role, entry):
    """Strict JSON has no NaN or infinity, and load_family refuses the tokens,
    so the export names the pair and dump_family leaves no file behind."""
    bad = pl.matrix_map([[entry]])
    maps = {(1, 2): (bad, pl.identity_map(1)) if role == "proj" else (pl.identity_map(1), bad)}
    fam = cover_family(pl.chain_poset([1, 2]), lambda J: 1, maps, name="bad")
    with pytest.raises(pl.DescriptorError, match=r"^pair \(1, 2\) has a non-finite matrix entry"):
        pl.family_to_descriptor(fam)
    path = tmp_path / "bad.json"
    with pytest.raises(pl.DescriptorError):
        pl.dump_family(fam, path)
    assert not path.exists()


def test_write_json_is_the_one_strict_writer(tmp_path, euclid):
    from proflim.descriptors import write_json
    assert write_json({"b": [1.5], "a": {"d": 1, "c": None}}) == (
        '{\n  "a": {\n    "c": null,\n    "d": 1\n  },\n  "b": [\n    1.5\n  ]\n}\n')
    with pytest.raises(ValueError):
        write_json({"x": float("nan")})
    path = tmp_path / "euclid.json"
    pl.dump_family(euclid.family, path)
    assert path.read_text() == write_json(pl.family_to_descriptor(euclid.family))
    assert cli.report_json({"a": 1}) == write_json({"schema_version": pl.SCHEMA_VERSION, "a": 1})


@pytest.mark.parametrize("rows, line, again", [
    ("index,weight\n1,0.5\n1,0.25\n", 3, "1"),
    ("1,0.5\n01,0.25\n", 2, "1"),
    ("1,0.5\n-2,0.1\n-02,0.1\n", 3, "-2"),
    ("J,0.5\n2,0.25\nJ,0.5\n", 3, "'J'"),
    ("1,0.5\ntail,0.1\n2,0.25\ntail,0.2\n", 4, "'tail'"),
])
def test_measure_csv_refuses_a_second_row_for_one_index(tmp_path, rows, line, again):
    path = tmp_path / "mu.csv"
    path.write_text(rows)
    with pytest.raises(pl.DescriptorError, match=rf"line {line}: a second row for {again}$"):
        pl.load_measure_csv(path)


def test_measure_csv_reads_an_integer_index_only_in_ascii_digits(tmp_path):
    path = tmp_path / "mu.csv"
    path.write_text("1_0,0.5\n\u0661,0.25\n+1,0.125\n-3,0.0625\n", encoding="utf-8")
    assert pl.load_measure_csv(path).weights == {"1_0": 0.5, "\u0661": 0.25, "+1": 0.125, -3: 0.0625}


def test_distance_exits_two_on_a_repeated_measure_row(tmp_path, capsys):
    path = tmp_path / "mu.csv"
    path.write_text("index,weight\n1,0.5\n1,0.25\ntail,0.1\ntail,0.2\n")
    code = cli.main(["distance", "--family", "euclid", "--x", '{"kind": "named", "name": "origin"}',
                     "--y", '{"kind": "named", "name": "three_four"}', "--measure", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ") and "line 3: a second row for 1" in err

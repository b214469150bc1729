import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import proflim as pl
from proflim.poset import ComparableMembers, section_defect
from oracles import powerset_sections


def diamond():
    order = {"I": 0, "J": 1, "K": 1, "L": 2}
    return pl.finite_poset(
        ["I", "J", "K", "L"],
        leq=lambda a, b: a == b or (order[a] < order[b]
                                    and not (order[a] == 1 and order[b] == 1)))


def test_chain_basics():
    p = pl.chain_poset(range(5))
    assert p.leq(0, 4) and not p.leq(3, 1)
    assert p.join(2, 3) == 3
    assert p.lt(1, 2) and not p.lt(2, 2)
    assert p.comparable(0, 4)
    assert pl.is_directed(p, p.elements)


def test_sections_on_chains_are_singletons():
    for n in (1, 3, 7, 12):
        p = pl.chain_poset(range(n))
        secs = pl.enumerate_sections(p)
        assert [set(s.members) for s in secs] == [{k} for k in range(n)]


def test_sections_match_powerset_oracle_diamond():
    p = diamond()
    got = {frozenset(s.members) for s in pl.enumerate_sections(p)}
    want = set(powerset_sections(p.elements, p.leq))
    assert got == want
    assert got == {frozenset({"I"}), frozenset({"L"}), frozenset({"J", "K"})}


def test_sections_match_powerset_oracle_subsets():
    p = pl.subset_poset([0.25, 0.5, 1.0])
    got = {frozenset(s.members) for s in pl.enumerate_sections(p)}
    want = set(powerset_sections(p.elements, p.leq))
    assert got == want


@st.composite
def dag_orders(draw, max_n=12):
    """(n, leq) of a random DAG order on range(n): i <= j iff i == j or
    (i < j and edge picked), closed transitively."""
    n = draw(st.integers(2, max_n))
    edges = {}
    for i, j in combinations(range(n), 2):
        edges[(i, j)] = draw(st.booleans())
    # transitive closure
    closure = {(i, i) for i in range(n)}
    closure |= {e for e, on in edges.items() if on}
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return n, lambda a, b: (a, b) in closure


@given(dag_orders())
def test_sections_match_powerset_oracle_random(order):
    n, leq = order
    p = pl.finite_poset(range(n), leq)
    got = {frozenset(s.members) for s in pl.enumerate_sections(p)}
    want = set(powerset_sections(range(n), leq))
    assert got == want


def test_section_canonical_sorting_and_errors():
    p = diamond()
    s = pl.Section.of(p, ["K", "J"])
    assert s.members == ("J", "K")
    assert "J" in s and len(s) == 2
    with pytest.raises(pl.EmptySection):
        pl.Section.of(p, [])
    assert pl.Section.of(p, s) is s


@pytest.mark.parametrize("poset, members, pair", [
    (pl.euclid_tower(4).family.poset, [3, 2], "2 and 3"),
    (diamond(), ["J", "L", "K"], "'J' and 'L'"),
], ids=["chain", "diamond"])
def test_a_section_refuses_comparable_members(poset, members, pair):
    with pytest.raises(ComparableMembers, match=f"^members {pair} are comparable$") as err:
        pl.Section.of(poset, members)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == section_defect(poset, sorted(members, key=poset.key))


def test_is_section_probe_semantics():
    assert not pl.is_section(pl.chain_poset(range(4)), [1, 2])


def test_finitely_cylindrical_witness():
    p = diamond()
    assert pl.is_section(p, pl.Section.of(p, ["J", "K"]))
    assert not pl.is_section(p, ["J"])


def test_join_failure_surfaces():
    # two incomparable elements with no upper bound
    p = pl.finite_poset(["a", "b"], leq=lambda x, y: x == y)
    with pytest.raises(pl.JoinFailure):
        pl.is_directed(p, ["a", "b"])
    with pytest.raises(pl.JoinFailure):
        p.require_join("a", "b")


def test_enumerate_sections_ordering_is_deterministic():
    p = diamond()
    secs = pl.enumerate_sections(p)
    assert [s.members for s in secs] == [("I",), ("L",), ("J", "K")]


@st.composite
def finite_posets(draw):
    """A chain (repeats allowed), the subsets of 0-6 knots, the diamond, or a
    random DAG order, whose down- and up-sets finite_poset tabulates."""
    kind = draw(st.sampled_from(["chain", "subsets", "diamond", "dag"]))
    if kind == "chain":
        return pl.chain_poset(draw(st.lists(st.integers(-5, 20), min_size=1, max_size=8)))
    if kind == "subsets":
        k = draw(st.integers(0, 6))
        return pl.subset_poset([(i + 1) / k for i in range(k)])
    if kind == "diamond":
        return pl.cross_family().family.poset
    n, leq = draw(dag_orders(8))
    return pl.finite_poset(range(n), leq)


@given(finite_posets(), st.integers(0, 2 ** 32 - 1), st.integers(1, 20))
def test_sampled_pairs_are_comparable(p, seed, count):
    pairs = pl.sample_chains(p, np.random.default_rng(seed), count, 2)
    assert len(pairs) == count
    assert all(J in p.elements and p.leq(J, K) for J, K in pairs)


@given(finite_posets(), st.data())
def test_enumerators_match_brute_force_filters(p, data):
    els = p.elements
    for i, I in enumerate(els):
        assert p.down(i).tolist() == [j for j, J in enumerate(els) if p.leq(J, I)]
        assert p.up(i).tolist() == [j for j, J in enumerate(els) if p.leq(I, J)]
    members = data.draw(st.lists(st.sampled_from(els), min_size=1, max_size=3))
    # each position once, ascending
    assert p.reach(members).tolist() == [
        j for j, J in enumerate(els) if any(p.comparable(J, m) for m in members)]


def test_repeated_elements_still_cover():
    """A chain listed with a repeat covers as its distinct elements do."""
    p = pl.chain_poset([2, 1, 1])
    assert p.elements == (1, 1, 2) and p.reach([1]).tolist() == [0, 1, 2]
    assert [s.members for s in pl.enumerate_sections(p)] == [(1,), (1,), (2,)]
    assert section_defect(p, [2]) is None and section_defect(p, [1, 1]) is not None


def test_subset_enumerators_ask_no_order_oracle():
    calls = []
    base = pl.subset_poset([1, 2, 3, 4])
    p = pl.IndexPoset(leq=lambda a, b: calls.append((a, b)) or base.leq(a, b),
                      join=base.join, elements=base.elements, down=base.down, up=base.up)
    S = frozenset({2, 4})
    at = p.elements.__getitem__
    assert [at(i) for i in p.down(p.position[S])] == [frozenset(), frozenset({2}),
                                                      frozenset({4}), S]
    assert [at(i) for i in p.up(p.position[S])] == [S, frozenset({1, 2, 4}),
                                                    frozenset({2, 3, 4}), frozenset({1, 2, 3, 4})]
    missed = set(p.elements) - {at(i) for i in p.reach([S, frozenset({1})])}
    assert missed == {frozenset({3}), frozenset({2, 3}), frozenset({3, 4})}
    assert calls == []


def test_finite_posets_tabulate_their_down_and_up_sets():
    """leq is asked at construction only; down, up and reach read the table."""
    calls, base = [], diamond()
    p = pl.finite_poset(base.elements, lambda a, b: calls.append((a, b)) or base.leq(a, b))
    built = len(calls)
    assert p.elements == ("I", "J", "K", "L")
    assert p.down(3).tolist() == [0, 1, 2, 3] and p.up(1).tolist() == [1, 3]
    assert p.reach(["J"]).tolist() == [0, 1, 3]
    assert len(calls) == built
    assert [f.name for f in dataclasses.fields(pl.IndexPoset)] == [
        "leq", "join", "elements", "down", "up"]


@given(st.integers(0, 10), st.data())
def test_subset_reach_is_the_leq_scan(k, data):
    """On 0-10 knots: random members, and each layer of equal-size subsets,
    a section of several members once 0 < size < k."""
    p = pl.subset_poset([(i + 1) / 8 for i in range(k)])
    members = data.draw(st.lists(st.sampled_from(p.elements), min_size=1, max_size=3))
    size = data.draw(st.integers(0, k))
    layer = [S for S in p.elements if len(S) == size]
    assert section_defect(p, layer) is None
    for mem in (members, layer):
        assert p.reach(mem).tolist() == [
            j for j, J in enumerate(p.elements) if any(p.comparable(J, m) for m in mem)]


def test_a_join_oracle_below_its_pair_is_not_directed():
    p = diamond()
    # joins J and K to I, which lies below both
    low = dataclasses.replace(p, join=lambda a, b: "I" if {a, b} == {"J", "K"} else p.join(a, b))
    assert pl.is_directed(p, ["J", "K"])
    assert not pl.is_directed(low, ["J", "K"])
    assert pl.is_directed(low, ["I", "J", "L"])


def test_no_members_are_no_section():
    with pytest.raises(pl.EmptySection, match="at least one member"):
        section_defect(diamond(), [])

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import proflim as pl
from proflim.poset import ComparableMembers
from oracles import section_disagreement, section_thread_levels
from towers import pair_family


def test_thread_memoizes_and_checks_dims(euclid):
    calls = []

    def fn(n):
        calls.append(n)
        return np.zeros(n)

    t = pl.Thread(euclid.family, fn)
    t(4)
    t(4)
    assert calls == [4]
    bad = pl.Thread(euclid.family, lambda n: np.zeros(n + 1))
    with pytest.raises(pl.DimensionMismatch):
        bad(2)


def test_values_reads_the_memo_and_fills_the_misses(euclid):
    calls = []
    t = pl.Thread(euclid.family, lambda n: calls.append(n) or np.full(n, float(n)))
    first = t(3)
    got, sizes = t.flat([3, 1, 3, 2])
    assert calls == [3, 1, 2] and t(3).tobytes() == first.tobytes()
    assert got.tolist() == [3.0] * 3 + [1.0] + [3.0] * 3 + [2.0] * 2
    assert sizes.tolist() == [3, 1, 3, 2]
    assert [t(n).tolist() for n in (1, 2)] == [[1.0], [2.0, 2.0]] and len(calls) == 3
    assert t.flat([2, 1])[0].tolist() == [2.0, 2.0, 1.0] and len(calls) == 3


def test_thread_values_read_only(euclid):
    t = euclid["three_four"]
    with pytest.raises(ValueError):
        t(3)[0] = 99.0


@given(st.floats(-3, 3), st.integers(1, 8))
def test_thread_axpy_matches_pointwise(s, n):
    g = pl.euclid_tower(8)
    x = g["sequence_thread"](np.arange(1.0, 9.0))
    v = g["sequence_thread"](np.ones(8))
    z = pl.thread_axpy(x, s, v)
    assert np.allclose(z(n), x(n) + s * v(n))


def test_extension_rule_projects_below_injects_above(euclid):
    fam = euclid.family
    t = pl.thread_from_section(pl.SectionPoint.of(fam, [3], {3: [1.0, 2.0, 3.0]}))
    assert np.array_equal(t(2), [1.0, 2.0])
    assert np.array_equal(t(5), [1.0, 2.0, 3.0, 0.0, 0.0])
    assert np.array_equal(t(3), [1.0, 2.0, 3.0])


def test_extension_conflicts_detected_on_diamond(cross):
    fam = cross.family
    x = pl.SectionPoint.of(fam, ["J", "K"], {"J": [1.0], "K": [0.0]})
    with pytest.raises(pl.IllDefinedSection):
        pl.thread_from_section(x)
    y = pl.SectionPoint.of(fam, ["J", "K"], {"J": [0.0], "K": [2.0]})
    with pytest.raises(pl.IllDefinedSection):
        pl.thread_from_section(y)
    ok = pl.SectionPoint.of(fam, ["J", "K"], {"J": [0.0], "K": [0.0]})
    assert np.array_equal(pl.thread_from_section(ok)("L"), [0.0, 0.0])


def test_thread_from_section_round_trip_is_exact(euclid):
    fam = euclid.family
    vals = np.array([0.1 + 0.2, np.pi, np.e])  # deliberately non-representable
    sp = pl.SectionPoint.of(fam, [3], {3: vals})
    t = pl.thread_from_section(sp)
    back = pl.restrict_thread(t, sp.section)
    assert np.array_equal(back.values[3], vals)  # bitwise, not approx


@pytest.fixture
def euclid6():
    g = pl.euclid_tower(6)
    return g["metrics"], g["origin"]


NOT_A_LEVEL = "^index 99 is not a level of euclid$"


def test_a_thread_refuses_an_index_that_is_no_level(euclid6):
    _, origin = euclid6
    with pytest.raises(pl.Incomparable, match=NOT_A_LEVEL):
        origin(99)
    sec = pl.thread_from_section(pl.SectionPoint.of(origin.family, [2], {2: [1.0, 2.0]}))
    with pytest.raises(pl.Incomparable, match=NOT_A_LEVEL):
        sec(99)


def test_d_mu_refuses_a_measure_on_an_index_that_is_no_level(euclid6):
    metrics, origin = euclid6
    with pytest.raises(pl.Incomparable, match=NOT_A_LEVEL):
        pl.d_mu(metrics, pl.IndexMeasure({99: 1.0}), origin, origin)


def test_d_inf_refuses_a_stage_with_an_index_that_is_no_level(euclid6):
    metrics, origin = euclid6
    with pytest.raises(pl.Incomparable, match=NOT_A_LEVEL):
        pl.d_inf(metrics, origin, origin, [[99]])
    sp = pl.SectionPoint.of(origin.family, [2], {2: [1.0, 2.0]})
    with pytest.raises(pl.Incomparable, match=NOT_A_LEVEL):
        pl.d_inf(metrics, sp, origin, [[1], [99]])


def test_incomparable_extension_raises():
    # two incomparable levels: a section point on one cannot extend to the other
    p = pl.finite_poset(["a", "b"], leq=lambda x, y: x == y)
    fam = pair_family(p, lambda _: 1, None, None)
    t = pl.thread_from_section(pl.SectionPoint.of(fam, ["a"], {"a": [1.0]}))
    with pytest.raises(pl.Incomparable):
        t("b")


@st.composite
def section_points(draw):
    """A one- or two-member antichain of cross or of the Wiener family on
    1-5 knots, with member values that may or may not agree."""
    if draw(st.booleans()):
        fam = pl.cross_family().family
    else:
        k = draw(st.integers(1, 5))
        fam = pl.wiener_family([(i + 1) / k for i in range(k)]).family
    poset = fam.poset
    members = [draw(st.sampled_from(poset.elements))]
    others = [J for J in poset.elements if not poset.comparable(J, members[0])]
    if others and draw(st.booleans()):
        members.append(draw(st.sampled_from(others)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    values = {}
    for m in members:
        # a linear path agrees with its interpolations up to the last knot
        ts = np.array(sorted(m), float) if isinstance(m, frozenset) else np.ones(fam.dim(m))
        scale = draw(st.sampled_from([0.0, 1.0, -2.5]))
        values[m] = rng.standard_normal(fam.dim(m)) if draw(st.booleans()) else scale * ts
    return fam, values


@given(section_points())
def test_section_thread_matches_brute_force_oracle(case):
    fam, values = case
    sp = pl.SectionPoint.of(fam, list(values), values)
    want = section_thread_levels(fam, values)
    if not all(agree for _, agree in want.values()):
        with pytest.raises(pl.IllDefinedSection):
            pl.thread_from_section(sp)
        return
    t = pl.thread_from_section(sp)
    for J in fam.poset.elements:
        if J in want:
            assert t(J).tobytes() == want[J][0].tobytes()
        else:
            with pytest.raises(pl.Incomparable):
                t(J)


def _held(t) -> dict:
    """level -> value, at every level a section thread answers at; any other
    level raises Incomparable."""
    held = {}
    for J in t.family.poset.elements:
        try:
            held[J] = t(J)
        except pl.Incomparable:
            pass
    return held


def _levels(fam, positions) -> list:
    return [fam.poset.elements[i] for i in positions]


def _count_work(monkeypatch, fam) -> list:
    """The (src, levels) of each call to fam's map rule from here on."""
    calls, rule = [], fam._maps
    monkeypatch.setattr(fam, "_maps",
                        lambda src, levels: calls.append((src, levels)) or rule(src, levels))
    return calls


@pytest.mark.parametrize("case", ["wiener", "cross", "euclid"])
def test_extension_rule_runs_once_per_reachable_level(monkeypatch, case):
    if case == "wiener":
        fam = pl.wiener_family([0.25, 0.5, 0.75, 1.0]).family
        S = frozenset({0.25, 0.75})
        values = {S: [1.0, -1.0]}
    elif case == "cross":
        fam = pl.cross_family().family
        values = {"J": [0.0], "K": [0.0]}  # two members meeting at L
    else:
        fam = pl.euclid_tower(6).family
        values = {3: [1.0, 2.0, 3.0]}
    calls = _count_work(monkeypatch, fam)
    sp = pl.SectionPoint.of(fam, list(values), values)
    reachable = [J for J in fam.poset.elements
                 if any(fam.poset.comparable(J, m) for m in values)]
    x = pl.thread_from_section(sp)
    # the family's rule is asked once per member, for every level the
    # member reaches, and for no single pair
    assert calls == [(m, _levels(fam, fam.poset.reach([m]))) for m in sp.section]
    assert set(_held(x)) == set(reachable) and len(_held(x)) == len(reachable)
    calls.clear()
    pl.thread_from_section(sp)
    y = pl.Thread(fam, lambda J: np.zeros(fam.dim(J)))
    metrics = pl.euclidean_metrics(fam)
    mu = pl.IndexMeasure({J: 1.0 / len(reachable) for J in reachable})
    pl.d_inf(metrics, x, y, [[J] for J in reachable])
    pl.d_mu(metrics, mu, x, y)
    # a second thread reads the cached spreads, and the distances the threads
    assert not calls


@given(section_points())
def test_check_memoizes_exactly_the_reachable_levels(case):
    fam, values = case
    want = section_thread_levels(fam, values)
    sp = pl.SectionPoint.of(fam, list(values), values)
    if not all(agree for _, agree in want.values()):
        with pytest.raises(pl.IllDefinedSection):
            pl.thread_from_section(sp)
        return
    memo = _held(pl.thread_from_section(sp))
    assert len(memo) == len(want) and set(memo) == set(want)
    for val in memo.values():
        assert not val.flags.writeable
        if val.size:
            with pytest.raises(ValueError):
                val[0] = 99.0


@given(section_points())
def test_disagreeing_members_raise_the_per_level_message(case):
    fam, values = case
    sp = pl.SectionPoint.of(fam, list(values), values)
    want = section_disagreement(sp)
    if want is None:
        return
    with pytest.raises(pl.IllDefinedSection) as got:
        pl.thread_from_section(sp)
    assert str(got.value) == want


@pytest.mark.parametrize("values, message", [
    ({"J": [1.0], "K": [0.0]}, "member values disagree at 'L': [1. 0.] vs [0. 0.]"),
    ({"J": [0.0], "K": [2.0]}, "member values disagree at 'L': [0. 0.] vs [0. 2.]"),
])
def test_cross_disagreement_is_named_at_the_join(values, message):
    sp = pl.SectionPoint.of(pl.cross_family().family, list(values), values)
    with pytest.raises(pl.IllDefinedSection) as err:
        pl.thread_from_section(sp)
    assert str(err.value) == message


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_probe_work_is_bounded_by_the_reachable_levels(monkeypatch, k):
    """On the 1024 levels of a 10-knot Wiener family, a one-member section
    of k knots reaches 2^k levels below it and 2^(10-k) above, its own level
    counted in both.  With the family's maps not yet built, the probe asks
    the family's map rule once, for exactly those levels, asks no leq, and
    caches only the member's spread; once it is built, the probe asks
    nothing."""
    knots = [(i + 1) / 10 for i in range(10)]
    fam = pl.wiener_family(knots).family
    leq_calls = []
    order = fam.poset.leq
    fam.poset = dataclasses.replace(
        fam.poset, leq=lambda a, b: leq_calls.append(1) or order(a, b))
    calls = _count_work(monkeypatch, fam)
    S = frozenset(knots[:k])
    reachable = 2 ** k + 2 ** (10 - k) - 1
    for cold in (True, False):  # a fresh family, then the spread the first probe built
        leq_calls.clear()
        calls.clear()
        before = set(fam._cache)
        sp = pl.SectionPoint.of(fam, [S], {S: np.arange(float(k))})
        memo = _held(pl.thread_from_section(sp))
        cached = set(fam._cache) - before
        assert len(memo) == reachable
        assert not leq_calls
        if cold:
            assert cached == {("spread", S)}
            assert calls == [(S, _levels(fam, fam.poset.reach([S])))]
            assert len(calls[0][1]) == reachable
        else:
            assert not cached and not calls


def _loaded_diamond() -> pl.ProfiniteFamily:
    """A descriptor-loaded diamond that stores only its covers, with dense
    maps, so its pairs across the diamond compose."""
    rng = np.random.default_rng(5)
    dims = {"I": 1, "J": 2, "K": 2, "L": 3}
    covers = [("I", "J"), ("I", "K"), ("J", "L"), ("K", "L")]
    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    return pl.family_from_descriptor({
        "poset": {"kind": "finite", "elements": list(dims), "leq": leq},
        "levels": [{"index": J, "dim": d} for J, d in dims.items()],
        "projections": [{"from": K, "to": J, "kind": "matrix", "payload": {
            "rows": rng.standard_normal((dims[J], dims[K])).tolist()}} for J, K in covers],
        "injections": [{"from": J, "to": K, "kind": "matrix", "payload": {
            "rows": rng.standard_normal((dims[K], dims[J])).tolist()}} for J, K in covers]})


def _assert_spreads_stack_their_transports(fam):
    for S in fam.poset.elements:
        positions, slots, spread = fam.spread(S)
        levels = _levels(fam, positions)
        want = np.vstack([fam.transport(S, I).matrix for I in levels])
        assert spread.matrix.shape == want.shape
        assert spread.matrix.tobytes() == want.tobytes()
        # each level's rows land in its block of the layout, in position order
        off = fam.offsets
        assert np.diff(off).tolist() == [fam.dim(I) for I in fam.poset.elements]
        assert slots.tolist() == [k for i in positions.tolist() for k in range(off[i], off[i + 1])]
        assert not (positions.flags.writeable or slots.flags.writeable)
        fam._cache.clear()  # keep the per-pair maps of one member at a time


def test_wiener_spread_is_the_stack_of_its_transports_bit_for_bit():
    """Every row of a Wiener transport depends only on its target time and
    the member's knots, so each member's one rule answer is the per-pair
    matrices stacked, byte for byte, on every member of 10 knots."""
    _assert_spreads_stack_their_transports(
        pl.wiener_family([(i + 1) / 10 for i in range(10)]).family)


SPREAD_FAMILIES = {
    **{name: lambda name=name: pl.build_gallery(name).family for name in pl.gallery_names()},
    "tangent-euclid": lambda: pl.tangent_family(pl.euclid_tower().family),
    "loaded-diamond": _loaded_diamond,
}


@pytest.mark.parametrize("name", sorted(SPREAD_FAMILIES))
def test_every_spread_is_the_stack_of_its_transports_bit_for_bit(name):
    """The same on every gallery family, on a tangent family, and on a
    loaded family whose rule composes its stored maps."""
    _assert_spreads_stack_their_transports(SPREAD_FAMILIES[name]())


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_fanout_of_the_wrong_shape_names_the_member(extra):
    """A rule whose answer has `extra` rows too many is refused, naming its
    source level, by proj, inj and spread alike, and nothing is cached."""
    fam = pl.euclid_tower(4).family

    def rule(src, levels):
        return pl.matrix_map(np.zeros((sum(fam.dim(I) for I in levels) + extra, src)))

    bad = pl.ProfiniteFamily(fam.poset, fam.dim, rule)
    for call, src, rows in [(lambda: bad.proj(1, 3), 3, 1), (lambda: bad.inj(3, 1), 1, 3),
                            (lambda: bad.spread(2), 2, 10)]:
        with pytest.raises(pl.DimensionMismatch,
                           match=rf"^maps\({src}\): declared {src}->{rows}, "
                                 rf"map has {src}->{rows + extra}$"):
            call()
    with pytest.raises(pl.DimensionMismatch, match=r"^maps\(2\): "):
        pl.thread_from_section(pl.SectionPoint.of(bad, [2], {2: [1.0, 2.0]}))
    assert not bad._cache


@pytest.mark.parametrize("seed", range(4))
def test_the_fanout_path_fills_the_memo_of_the_oracle(seed):
    """thread_from_section through the Wiener fanout holds, level for
    level and byte for byte, what the per-pair oracle induces."""
    rng = np.random.default_rng(seed)
    fam = pl.wiener_family([(i + 1) / 10 for i in range(10)]).family
    S = frozenset(rng.choice(np.arange(1, 11) / 10, size=rng.integers(1, 11),
                             replace=False).tolist())
    values = {S: rng.standard_normal(len(S))}
    memo = _held(pl.thread_from_section(pl.SectionPoint.of(fam, [S], values)))
    want = section_thread_levels(fam, values)
    assert set(memo) == set(want)
    for J, (val, agree) in want.items():
        assert agree and memo[J].tobytes() == val.tobytes()


def _sine_chain(n: int = 6):
    """Levels 1..n of R^J whose injections are not linear: projections
    truncate, and inj(K, J)(x) appends sin(i * x[0]) for i = J..K-1, so
    inj(L, K) inj(K, J) = inj(L, J) and proj(J, K) inj(K, J) = id."""
    def inj(K, J):
        i = np.arange(J, K)

        def jac(x):
            d = np.eye(K, J)
            d[J:, 0] = i * np.cos(i * x[0])
            return d

        return pl.DifferentiableMap(J, K, lambda x: np.concatenate([x, np.sin(i * x[0])]),
                                    jac=jac)

    return pair_family(pl.chain_poset(range(1, n + 1)), lambda J: J,
                       lambda J, K: pl.selection_map(K, range(J)), inj)


def _sine_vee():
    """Levels J and K of R^1 below their join L = R^2, both injected by
    x -> (x, sin x) and projected to the first coordinate."""
    def inj(L, J):
        return pl.DifferentiableMap(1, 2, lambda x: np.array([x[0], np.sin(x[0])]),
                                    jac=lambda x: np.array([[1.0], [np.cos(x[0])]]))

    return pair_family(pl.finite_poset(["J", "K", "L"], lambda a, b: a == b or b == "L"),
                       {"J": 1, "K": 1, "L": 2}.get, lambda J, L: pl.selection_map(2, [0]), inj)


def test_a_non_linear_family_runs_through_the_section_check():
    fam = _sine_chain()
    x = np.array([0.3, -1.2, 0.5])
    t = pl.thread_from_section(pl.SectionPoint.of(fam, [3], {3: x}))
    want = section_thread_levels(fam, {3: x})
    assert set(_held(t)) == set(want)
    for J, (val, _) in want.items():
        assert t(J).tobytes() == val.tobytes()
    # the member's spread is one non-linear fanout of its transports
    positions, _, spread = fam.spread(3)
    levels = _levels(fam, positions)
    assert not spread.is_linear
    assert np.array_equal(spread.jacobian(x),
                          np.vstack([fam.transport(3, J).jacobian(x) for J in levels]))
    # two levels of a chain are comparable, so they are no section
    with pytest.raises(ComparableMembers, match="^members 3 and 5 are comparable$"):
        pl.SectionPoint.of(fam, [3, 5], {3: x, 5: fam.inj(5, 3)(x)})
    # an antichain whose members meet at their join through non-linear injections
    vee = _sine_vee()
    pl.thread_from_section(pl.SectionPoint.of(vee, ["J", "K"], {"J": [0.7], "K": [0.7]}))
    with pytest.raises(pl.IllDefinedSection, match="disagree at 'L':"):
        pl.thread_from_section(pl.SectionPoint.of(vee, ["J", "K"],
                                                  {"J": [0.7], "K": [0.7 + 1e-3]}))


def _dense_chain(n: int = 8, seed: int = 0):
    """Levels 1..n of R^J with dense transports: injections Q[:K, :J] of a
    seeded orthogonal Q, their pseudo-inverses as projections."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return pair_family(pl.chain_poset(range(1, n + 1)), lambda J: J,
                       lambda J, K: pl.matrix_map(np.linalg.pinv(Q[:K, :J])),
                       lambda K, J: pl.matrix_map(Q[:K, :J]))


def test_d_inf_of_a_section_point_is_d_inf_of_its_thread():
    """One value per level: a section point handed to d_inf reads the same
    bits as the thread it induces, on transports whose stacked product may
    round differently from each level's own."""
    fam = _dense_chain()
    m = pl.euclidean_metrics(fam)
    origin = pl.Thread(fam, lambda J: np.zeros(J))
    stages = [[J] for J in fam.poset.elements]
    rng = np.random.default_rng(0)
    for member in fam.poset.elements:
        for _ in range(20):
            sp = pl.SectionPoint.of(fam, [member], {member: rng.standard_normal(member)})
            assert (pl.d_inf(m, sp, origin, stages)
                    == pl.d_inf(m, pl.thread_from_section(sp), origin, stages))


def test_check_thread_catches_inconsistency(euclid):
    fam = euclid.family
    t = pl.Thread(fam, lambda n: np.arange(float(n)) if n != 3 else np.ones(3))
    rep = pl.check_thread(t, [(2, 3), (3, 4)])
    assert not rep.passed


def test_is_inductive_finds_the_section(euclid):
    fam = euclid.family
    sp = pl.SectionPoint.of(fam, [2], {2: [5.0, -1.0]})
    t = pl.thread_from_section(sp)
    cands = [pl.Section.of(fam.poset, [k]) for k in (1, 2)]
    found = pl.is_inductive(t, cands)
    assert found is not None
    # the thread is NOT inductive at level 1 (padding zeros do not recover -1)
    assert list(found.section) == [2]


def test_is_inductive_rejects_non_cylindrical(euclid):
    fam = euclid.family
    t = euclid["sequence_thread"](np.arange(1.0, 11.0), "strictly-growing")
    assert pl.is_inductive(t, [pl.Section.of(fam.poset, [k]) for k in (1, 2, 3)]) is None


def test_is_inductive_skips_a_candidate_that_misses_a_level(cross):
    fam = cross.family
    t = pl.thread_from_section(pl.SectionPoint.of(fam, ["L"], {"L": [1.0, 0.0]}))
    # {J} agrees with t wherever it reaches, but never reaches K
    found = pl.is_inductive(t, [["J"], ["L"]])
    assert found is not None and list(found.section) == ["L"]


def test_is_inductive_skips_a_candidate_with_comparable_members(cross):
    fam = cross.family
    t = pl.thread_from_section(pl.SectionPoint.of(fam, ["L"], {"L": [0.0, 0.0]}))
    found = pl.is_inductive(t, [["J", "L"], ["J", "K"]])
    assert found is not None and list(found.section) == ["J", "K"]


def test_lift_binary_poly_truncated_convolution(poly, rng):
    exp = poly["exp_series"]
    prod = pl.lift_binary(poly["mul"], exp, exp, rng=rng)
    assert np.allclose(prod(3), [1.0, 2.0, 2.0, 4.0 / 3.0])  # 2^k/k!


def test_lift_binary_detects_morphism_violation(matrix, rng):
    ones = matrix["matrix_thread"](lambda n: np.ones((n, n)), "ones")
    with pytest.raises(pl.MorphismViolation):
        pl.lift_binary(matrix["mul"], ones, ones, rng=rng)


def test_lift_binary_diagonal_matrices_commute_with_corner(matrix, rng):
    lap = matrix["laplacian_exp"]
    prod = pl.lift_binary(matrix["mul"], lap, lap, rng=rng)
    lvl2 = prod(2).reshape(2, 2)
    assert np.allclose(lvl2, np.diag([np.e ** 2, np.e ** 8]))


def test_lift_inverse_and_neutral(matrix, rng):
    lap = matrix["laplacian_exp"]
    inv = pl.lift_inverse(matrix["mul"], lap, pairs=[(1, 2), (2, 3)], rng=rng)
    assert np.allclose(inv(2).reshape(2, 2), np.diag([np.e ** -1, np.e ** -4]))


def test_lift_inverse_singular_raises(matrix, rng):
    zero = matrix["matrix_thread"](lambda n: np.zeros((n, n)), "zero")
    with pytest.raises(pl.NotInvertible):
        pl.lift_inverse(matrix["mul"], zero, pairs=[(1, 2)], rng=rng)


def test_lift_scalar_action(poly, rng):
    exp = poly["exp_series"]
    r = poly["scalar_thread"](2.5)
    scaled = pl.lift_scalar_action(poly["scale"], r, exp, rng=rng)
    assert np.allclose(scaled(2), [2.5, 2.5, 1.25])


def test_lift_checks_name_no_pairs(matrix, poly, rng, monkeypatch):
    # the morphism checks raise with the indices themselves, so they build no
    # (key(J), key(K)) witness
    for g in (matrix, poly):
        monkeypatch.setitem(vars(g.family.poset), "key", lambda J: pytest.fail("key called"))
    lap = matrix["laplacian_exp"]
    pl.lift_inverse(matrix["mul"], lap, pairs=[(1, 2), (2, 3), (2, 2)], rng=rng)
    pl.lift_scalar_action(poly["scale"], poly["scalar_thread"](2.5), poly["exp_series"],
                          pairs=[(1, 3), (3, 3)], rng=rng)


def test_lift_binary_wrong_family_rejected(poly, euclid):
    with pytest.raises(pl.Incomparable):
        pl.lift_binary(poly["add"], euclid["origin"], euclid["origin"])


@pytest.mark.parametrize("missing", ["inverse", "neutral"])
def test_lift_inverse_needs_both_oracles(matrix, missing):
    structure = dataclasses.replace(matrix["mul"], **{missing: None})
    with pytest.raises(pl.NotInvertible, match="structure has no inverse/neutral oracles"):
        pl.lift_inverse(structure, matrix["laplacian_exp"], pairs=[(1, 2)])


def test_lift_scalar_action_wrong_family_rejected(poly, euclid):
    exp, r = poly["exp_series"], poly["scalar_thread"](2.5)
    for ring_thread, module_thread in ((exp, exp), (r, euclid["origin"])):
        with pytest.raises(pl.Incomparable, match="ring/module families"):
            pl.lift_scalar_action(poly["scale"], ring_thread, module_thread)

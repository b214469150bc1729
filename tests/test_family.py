import math

import numpy as np
import pytest

import proflim as pl
from oracles import commuting_squares_pointwise, family_axioms_pointwise
from towers import cover_family, pair_family

ORACLE_SEED = 7


def test_gallery_axioms_all_exact(euclid, poly, matrix, cross, wiener,
                                  symplectic, rng):
    for g in (euclid, poly, matrix, cross, wiener, symplectic):
        rep = pl.verify_family(g.family, points_per_chain=30, rng=rng)
        assert rep.passed, rep.summary()
        assert rep.worst().max_residual <= 1e-9


def test_identity_check_reads_the_rules_own_block(rng):
    """A rule whose block at its own level 2 is 2 I fails the identity
    check, which names that level."""
    base = pl.euclid_tower(4).family

    def maps(src, levels):
        return pl.fanout_map([pl.matrix_map(2.0 * np.eye(2)) if I == src == 2
                              else base.transport(src, I) for I in levels])

    fam = pl.ProfiniteFamily(base.poset, base.dim, maps, name="doubled")
    assert np.array_equal(fam.proj(2, 2).matrix, 2.0 * np.eye(2))
    assert fam.inj(2, 2) is fam.proj(2, 2)
    checks = {c.name: c for c in pl.verify_family(fam, points_per_chain=20, rng=rng).checks}
    assert not checks["identity"].passed and checks["identity"].max_residual > 0.0
    assert checks["identity"].detail.startswith("worst level 2 ")
    assert all(c.passed for name, c in checks.items() if name != "identity")


def test_proj_inj_guards(euclid):
    fam = euclid.family
    with pytest.raises(pl.FamilyMismatch):
        fam.proj(3, 1)  # wrong direction
    with pytest.raises(pl.DimensionMismatch):
        fam.proj(1, 3)(np.zeros(5))
    assert fam.proj(2, 2).matrix.shape == (2, 2)


def test_warm_cache_still_refuses_non_comparable_pairs():
    fam = pl.cross_family().family
    for J, K in [("J", "L"), ("K", "L"), ("I", "J"), ("J", "J")]:
        fam.proj(J, K)
        fam.inj(K, J)
    for J, K in [("J", "K"), ("K", "J"), ("L", "J"), ("J", "I")]:
        with pytest.raises(pl.FamilyMismatch):
            fam.proj(J, K)
        with pytest.raises(pl.FamilyMismatch):
            fam.inj(K, J)


def test_proj_composition_through_stored_pairs(cross, monkeypatch):
    fam = cross.family
    # the cross rule answers every comparable pair, ("I", "L") too,
    # so nothing composes here
    mp = fam.proj("I", "L")
    assert mp.domain_dim == 2 and mp.codomain_dim == 0
    ij = fam.inj("L", "I")
    assert ij(np.zeros(0)).shape == (2,)

    # a descriptor stores only the adjacent pairs of euclid_tower(4), so the
    # loaded family's rule composes (0, 4) along 4 > 3 > 2 > 1 > 0
    gallery = pl.euclid_tower(4).family
    loaded = pl.family_from_descriptor(pl.family_to_descriptor(gallery))
    rule, calls = loaded._maps, []
    monkeypatch.setattr(loaded, "_maps",
                        lambda src, levels: calls.append((src, levels)) or rule(src, levels))
    assert np.array_equal(loaded.proj(0, 4).matrix, gallery.proj(0, 4).matrix)
    assert np.array_equal(loaded.inj(4, 0).matrix, gallery.inj(4, 0).matrix)
    assert calls == [(4, [0]), (0, [4])]


def _adjacent_chain(bad=None, drop=None) -> dict:
    """The descriptor of chain 1..4 of R^n storing only adjacent pairs as
    truncations; the stored map `bad` (role, lower level) gets one extra
    coordinate on the side of the upper level, and the map `drop` is left out."""
    doc = {"name": "adjacent", "poset": {"kind": "chain", "elements": [1, 2, 3, 4]},
           "levels": [{"index": n, "dim": n} for n in range(1, 5)],
           "projections": [], "injections": []}
    for role, key in (("proj", "projections"), ("inj", "injections")):
        for lo in (1, 2, 3):
            ends = {"from": lo + 1, "to": lo} if role == "proj" else {"from": lo, "to": lo + 1}
            if (role, lo) == bad:
                rows = np.eye(lo + 2, lo) if role == "inj" else np.eye(lo, lo + 2)
                doc[key].append({**ends, "kind": "matrix", "payload": {"rows": rows.tolist()}})
            elif (role, lo) != drop:
                doc[key].append({**ends, "kind": "truncation",
                                 "payload": {"indices": list(range(lo))}})
    return doc


@pytest.mark.parametrize("bad, drop, text", [
    (("proj", 2), None, r"^projections\[1\]: declared 3->2, map has 4->2$"),
    (("proj", 3), None, r"^projections\[2\]: declared 4->3, map has 5->3$"),
    (("inj", 2), None, r"^injections\[1\]: declared 2->3, map has 2->4$"),
    (None, ("inj", 2), r"^injections: none from 2 to 3, where a projection is stored$"),
], ids=["projection-shape", "top-projection-shape", "injection-shape", "missing-injection"])
def test_composed_maps_name_the_bad_stored_step(bad, drop, text):
    """A stored step of the wrong shape, at the foot of the chain or at its
    top, or a projection stored without its injection, is refused when the
    document loads, naming the entry."""
    with pytest.raises(pl.DescriptorError, match=text):
        pl.family_from_descriptor(_adjacent_chain(bad, drop))


def test_a_gapped_stored_chain_names_the_pair_it_cannot_connect():
    """Without the stored projection (2, 3) the chain 4 > 3 > 2 > 1 has a
    gap: the document loads, and a pair across the gap is refused on use,
    projection and injection alike, while the pairs beside it compose."""
    fam = pl.family_from_descriptor(_adjacent_chain(drop=("proj", 2)))
    assert np.array_equal(fam.proj(1, 2).matrix, [[1.0, 0.0]])
    assert fam.inj(4, 3).codomain_dim == 4
    for call in (lambda: fam.proj(1, 4), lambda: fam.inj(4, 1), lambda: fam.spread(3)):
        with pytest.raises(pl.DescriptorError,
                           match=r"^projections: stored pairs do not connect (1|2) to (3|4) "
                                 r"in adjacent$"):
            call()


def test_adjacent_chain_composes_both_ways():
    fam = pl.family_from_descriptor(_adjacent_chain())
    assert np.array_equal(fam.proj(1, 4).matrix, [[1.0, 0.0, 0.0, 0.0]])
    assert np.array_equal(fam.inj(4, 1).matrix, [[1.0], [0.0], [0.0], [0.0]])
    assert fam.transport(4, 1) is fam.proj(1, 4) and fam.transport(1, 4) is fam.inj(4, 1)


def test_transport_is_none_between_incomparable_levels(cross):
    assert cross.family.transport("J", "K") is None


def test_retraction_on_every_comparable_pair(matrix, rng):
    fam = matrix.family
    for J in range(1, 9):
        for K in range(J, 9):
            x = rng.standard_normal(fam.dim(J))
            back = fam.proj(J, K)(fam.inj(K, J)(x))
            assert np.array_equal(back, x)


def test_profinite_map_swap_and_diffeomorphism(cross, rng):
    fam = cross.family
    swap = cross["swap"]
    pairs = [("I", "J"), ("I", "K"), ("J", "L"), ("K", "L"), ("I", "L")]
    rep = pl.check_profinite_map(swap, pairs, rng=rng)
    assert rep.passed, rep.summary()
    assert pl.is_profinite_diffeomorphism(swap, swap, fam.poset.elements, rng=rng)
    ident = pl.compose_profinite_maps(swap, swap)
    x = rng.standard_normal(2)
    assert np.allclose(ident.level_map("L")(x), x)


def test_profinite_map_order_violation_detected(euclid, poly, rng):
    bad = pl.ProfiniteMap(
        source=euclid.family, target=euclid.family,
        index_map=lambda n: 10 - n,  # reverses the order
        level_map=lambda n: pl.identity_map(euclid.family.dim(n)))
    rep = pl.check_profinite_map(bad, [(1, 2)], rng=rng)
    assert not rep.passed


def test_compose_mismatched_families_raises(euclid, poly):
    f = pl.ProfiniteMap(euclid.family, euclid.family, lambda n: n,
                        lambda n: pl.identity_map(n))
    g = pl.ProfiniteMap(poly.family, poly.family, lambda n: n,
                        lambda n: pl.identity_map(n + 1))
    with pytest.raises(pl.FamilyMismatch):
        pl.compose_profinite_maps(f, g)


def test_tangent_family_doubles_dims_and_verifies(euclid, rng):
    tf = pl.tangent_family(euclid.family)
    assert tf.dim(3) == 6
    rep = pl.verify_family(tf, points_per_chain=20, rng=rng)
    assert rep.passed, rep.summary()
    # tangent projection acts blockwise: (x, v) -> (proj x, Dproj v)
    pt = rng.standard_normal(6)
    out = tf.proj(2, 3)(pt)
    base = euclid.family.proj(2, 3)
    assert np.allclose(out[:2], base(pt[:3]))
    assert np.allclose(out[2:], base.matrix @ pt[3:])


def test_cotangent_push_up_oracle(euclid):
    # covector (2, -1) at level 2 pushes up along dproj^T to (2, -1, 0)
    push_up, push_down = pl.cotangent_maps(euclid.family, 2, 3, np.zeros(3))
    assert np.array_equal(push_up(np.array([2.0, -1.0])), np.array([2.0, -1.0, 0.0]))
    # and the reverse transpose drops the padding coordinate
    assert np.array_equal(push_down(np.array([2.0, -1.0, 7.0])), np.array([2.0, -1.0]))


def test_fibration_tangent_bundle(euclid, rng):
    tf = pl.tangent_family(euclid.family)
    data = pl.FibrationData(
        total=tf, base=euclid.family,
        bundle_proj=lambda J: pl.selection_map(2 * euclid.family.dim(J),
                                               range(euclid.family.dim(J))),
        name="tangent bundle")
    rep = pl.verify_fibration(data, [(1, 2), (2, 4), (0, 3)], rng=rng)
    assert rep.passed, rep.summary()


def test_sample_chains_increasing(euclid, rng):
    poset = euclid.family.poset
    for chain in pl.sample_chains(poset, rng, count=10, length=3):
        for a, b in zip(chain, chain[1:]):
            assert poset.leq(a, b)
    assert all(poset.leq(a, b) for a, b in pl.sample_chains(poset, rng, 20, 2))


def _padded_family() -> pl.ProfiniteFamily:
    """Chain 1..4, dim n; projections truncate (matrix maps), injections pad
    with tanh(y_0) (no matrix, so batches go through the row-wise path)."""
    def inj(K, J):
        def fn(y):
            return np.concatenate([y, np.full(K - J, np.tanh(y[0]))])

        def jac(y):
            pad = np.zeros((K - J, J))
            pad[:, 0] = 1.0 / np.cosh(y[0]) ** 2
            return np.vstack([np.eye(J), pad])

        return pl.DifferentiableMap(J, K, fn, jac=jac, name=f"pad{J}->{K}")

    return pair_family(pl.chain_poset(range(1, 5)), lambda n: n,
                       lambda J, K: pl.selection_map(K, range(J)), inj, name="padded")


def _bundle_map(family) -> pl.ProfiniteMap:
    """T(family) -> family, (x, v) -> x: a linear map that commutes."""
    return pl.ProfiniteMap(pl.tangent_family(family), family, lambda J: J,
                           lambda J: pl.selection_map(2 * family.dim(J),
                                                      range(family.dim(J))),
                           name="bundle")


def _assert_matches_pointwise(family, points=20):
    rng, ref = np.random.default_rng(ORACLE_SEED), np.random.default_rng(ORACLE_SEED)
    rep = pl.verify_family(family, points_per_chain=points, rng=rng)
    expected = family_axioms_pointwise(family, pl.sample_chains(family.poset, ref),
                                       points, ref)
    assert [c.max_residual for c in rep.checks] == expected
    assert rep.passed, rep.summary()
    assert rng.standard_normal() == ref.standard_normal()  # same stream consumed


def _assert_squares_match_pointwise(f, samples=5):
    pairs = pl.sample_chains(f.source.poset, np.random.default_rng(ORACLE_SEED), 12, 2)
    rng, ref = np.random.default_rng(ORACLE_SEED), np.random.default_rng(ORACLE_SEED)
    rep = pl.check_profinite_map(f, pairs, samples=samples, rng=rng)
    assert rep.checks[1].max_residual == commuting_squares_pointwise(f, pairs, samples, ref)
    assert rep.passed, rep.summary()
    assert rng.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("name", pl.gallery_names())
def test_batched_audits_match_pointwise_oracle(name):
    g = pl.build_gallery(name)
    _assert_matches_pointwise(g.family)
    maps = [obj for _, obj in sorted(g.extras.items()) if isinstance(obj, pl.ProfiniteMap)]
    for f in maps + [_bundle_map(g.family)]:
        _assert_squares_match_pointwise(f)


def test_row_wise_maps_match_pointwise_oracle():
    fam = _padded_family()
    assert not fam.inj(3, 1).is_linear and not pl.tangent_family(fam).inj(3, 1).is_linear
    for f in (fam, pl.tangent_family(fam)):
        _assert_matches_pointwise(f)
    _assert_squares_match_pointwise(_bundle_map(fam))


def test_rows_shapes_dim_zero_and_mismatch(cross):
    up = cross.family.inj("L", "I")                        # matrix map, 0 -> 2
    assert np.array_equal(up.rows(np.zeros((3, 0))), np.zeros((3, 2)))
    assert cross.family.proj("I", "L").rows(np.ones((3, 2))).shape == (3, 0)
    smooth = pl.DifferentiableMap(0, 2, lambda x: np.ones(2))
    assert np.array_equal(smooth.rows(np.zeros((3, 0))), np.ones((3, 2)))
    for mp in (up, smooth):
        for bad in (np.zeros(0), np.zeros((3, 1)), np.zeros((1, 3, 0))):
            with pytest.raises(pl.DimensionMismatch):
                mp.rows(bad)
    # the row-wise path keeps __call__'s value-dimension check
    short = pl.DifferentiableMap(2, 2, lambda x: x[:1])
    with pytest.raises(pl.DimensionMismatch):
        short.rows(np.ones((3, 2)))


def _nan_projections(family) -> pl.ProfiniteFamily:
    """The same family with every non-identity projection returning NaN."""
    def proj(J, K):
        mp = family.proj(J, K)
        return pl.DifferentiableMap(mp.domain_dim, mp.codomain_dim,
                                    lambda x, _m=mp: _m(x) * np.nan)

    return pair_family(family.poset, family.dim, proj, family.inj, name="nan")


def test_nan_residual_fails_the_audits(rng):
    base = pl.euclid_tower(4).family
    fam = _nan_projections(base)
    rep = pl.verify_family(fam, points_per_chain=5, rng=rng)
    checks = {c.name: c for c in rep.checks}
    assert not rep.passed
    assert math.isnan(checks["retraction"].max_residual)
    assert math.isnan(checks["consistency"].max_residual)
    assert checks["identity"].passed and checks["cocycle"].passed
    assert "max residual nan" in rep.summary()
    ident = pl.ProfiniteMap(fam, fam, lambda n: n, lambda n: pl.identity_map(fam.dim(n)))
    squares = pl.check_profinite_map(ident, [(1, 3), (2, 4)], rng=rng)
    assert not squares.passed and math.isnan(squares.checks[1].max_residual)
    data = pl.FibrationData(total=fam, base=base, bundle_proj=lambda J: pl.identity_map(J))
    fib = pl.verify_fibration(data, [(1, 3), (2, 4)], rng=rng)
    assert not fib.passed and math.isnan(fib.checks[0].max_residual)


def test_audits_name_their_worst_witness(euclid, rng):
    rep = pl.verify_family(euclid.family, points_per_chain=5, rng=rng)
    details = {c.name: c.detail for c in rep.checks}
    assert details["identity"].startswith("worst level ")
    assert details["retraction"].startswith("worst pair (")
    assert details["cocycle"].startswith("worst triple (")
    check = pl.VerificationReport("t").add_worst(
        "gap", [((1, 2), 0.5), ((2, 3), math.nan), ((3, 4), 1.0)], 1e-9)
    assert math.isnan(check.max_residual) and not check.passed
    assert check.detail == "worst pair (2, 3) of 3 pairs"


def test_profinite_map_checks_skip_pairs_out_of_order(cross, rng):
    swap = cross["swap"]
    # J and K are incomparable, and L is above I: neither pair is audited
    rep = pl.check_profinite_map(swap, [("J", "K"), ("L", "I"), ("I", "L")], rng=rng)
    assert rep.passed
    assert [c.detail for c in rep.checks] == ["worst pair ('I', 'L') of 1 pairs"] * 2


def test_a_map_whose_inverse_misses_an_index_is_no_diffeomorphism(cross, rng):
    swap, fam = cross["swap"], cross.family
    # swap's level maps on the identity of indices, which sends swap("J") = "K" to "K"
    g = pl.ProfiniteMap(fam, fam, lambda J: J, swap.level_map)
    assert not pl.is_profinite_diffeomorphism(swap, g, ["J"], rng=rng)
    assert pl.is_profinite_diffeomorphism(swap, g, ["I", "L"], rng=rng)


def test_a_set_index_mixing_member_types_sorts_and_names_its_witnesses():
    # 1 and "a" do not compare: members, then indices, order by (type name, value)
    one, word, both = frozenset({1}), frozenset({"a"}), frozenset({1, "a"})
    poset = pl.finite_poset([both, word, one], leq=lambda a, b: a <= b)
    assert poset.sort(poset.elements) == [one, both, word]
    assert poset.key(both) == (1, "a")
    fam = cover_family(poset, {one: 1, word: 1, both: 2}.__getitem__,
                       {(one, both): (pl.matrix_map([[1.0, 0.0]]), pl.matrix_map([[1.0], [0.0]])),
                        (word, both): (pl.matrix_map([[0.0, 1.0]]), pl.matrix_map([[0.0], [1.0]]))})
    assert pl.verify_family(fam).passed
    report = pl.injection_isometry_check(pl.euclidean_metrics(fam), [(one, both), (word, both)])
    assert report.passed
    assert report.checks[0].detail in ("worst pair ((1,), (1, 'a')) of 2 pairs",
                                       "worst pair (('a',), (1, 'a')) of 2 pairs")

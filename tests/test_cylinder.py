import numpy as np
import pytest

import proflim as pl


def quadratic_on(family, level, name="q"):
    dim = family.dim(level)
    sec = pl.Section.of(family.poset, [level])
    base = pl.DifferentiableMap(
        dim, 1,
        fn=lambda x: np.array([float(x @ x) + x[0]]),
        jac=lambda x: (2 * x + np.eye(dim)[0]).reshape(1, dim),
        name=name)
    return pl.CylindricalFunction(family, sec, base, name=name)


def test_eval_equals_representative_exactly(euclid, rng):
    fam = euclid.family
    for _ in range(100):
        level = int(rng.integers(1, 10))
        f = quadratic_on(fam, level)
        t = euclid["sequence_thread"](rng.standard_normal(10))
        direct = f(t)
        via = pl.eval_representative(f, pl.representative(f, t))
        assert direct == via  # float-exact, not approx


def test_coordinate_function_and_separation(euclid, rng):
    fam = euclid.family
    for _ in range(100):
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        x = euclid["sequence_thread"](a)
        y = euclid["sequence_thread"](b)
        f = pl.separate(x, y, witness_levels=range(11))
        assert f is not None
        assert f(x) != f(y)


def test_separate_returns_none_for_equal_threads(euclid):
    x = euclid["origin"]
    y = euclid["sequence_thread"](np.zeros(10))
    assert pl.separate(x, y, witness_levels=range(5)) is None


def test_separate_refuses_a_nan_gap_naming_the_level():
    g = pl.euclid_tower(4)
    x = g["sequence_thread"](np.full(4, np.nan))
    with pytest.raises(ValueError, match="^level 1: the gap is nan"):
        pl.separate(x, g["origin"], witness_levels=range(5))
    # a NaN after a level that tells the threads apart is never read
    y = g["sequence_thread"](np.array([1.0, np.nan, np.nan, np.nan]))
    f = pl.separate(y, g["origin"], witness_levels=range(5))
    assert f.section.members == (1,)


def test_level_function_below_uses_projection(euclid, rng):
    fam = euclid.family
    f = quadratic_on(fam, 3)
    lf5 = pl.level_function(f, 5)  # above the section: pulls back via proj
    x5 = rng.standard_normal(5)
    assert np.isclose(lf5(x5)[0], float(x5[:3] @ x5[:3]) + x5[0])
    lf2 = pl.level_function(f, 2)  # below: extends via injection (zero pad)
    x2 = rng.standard_normal(2)
    assert np.isclose(lf2(x2)[0], float(x2 @ x2) + x2[0])


def test_level_function_incomparable_raises(cross):
    fam = cross.family
    f = pl.coordinate_function(fam, "J", 0)
    with pytest.raises(pl.Incomparable):
        pl.level_function(f, "K")


def test_reexpress_preserves_values(euclid, rng):
    fam = euclid.family
    f = quadratic_on(fam, 2)
    g = pl.reexpress(f, pl.Section.of(fam.poset, [7]))
    for _ in range(20):
        t = euclid["sequence_thread"](rng.standard_normal(10))
        assert np.isclose(f(t), g(t))
    with pytest.raises(pl.JoinFailure):
        pl.reexpress(f, pl.Section.of(fam.poset, [1]))  # no host member


def test_refine_sections_merges_comparable(euclid):
    poset = euclid.family.poset
    sec = pl.refine_sections(poset, [2, 5, 3])
    assert sec.members == (5,)


def test_refine_sections_diamond(cross):
    poset = cross.family.poset
    sec = pl.refine_sections(poset, ["J", "K"])
    assert sec.members == ("J", "K")  # already an antichain
    sec2 = pl.refine_sections(poset, ["J", "L"])
    assert sec2.members == ("L",)


def test_refined_section_and_linear_combination(euclid, rng):
    fam = euclid.family
    f = quadratic_on(fam, 2)
    g = quadratic_on(fam, 4)
    combo = pl.linear_combination([f, g], [2.0, -0.5])
    assert set(combo.section) == {4}
    for _ in range(10):
        t = euclid["sequence_thread"](rng.standard_normal(10))
        assert np.isclose(combo(t), 2.0 * f(t) - 0.5 * g(t))


def test_linear_combination_across_diamond(cross, rng):
    fam = cross.family
    fj = pl.coordinate_function(fam, "J", 0)
    fk = pl.coordinate_function(fam, "K", 0)
    combo = pl.linear_combination([fj, fk], [1.0, 1.0])
    assert set(combo.section) == {"J", "K"}  # incomparables stay an antichain
    t = pl.Thread(fam, lambda n: {"I": np.zeros(0), "J": np.array([2.0]),
                                  "K": np.array([3.0]),
                                  "L": np.array([2.0, 3.0])}[n])
    assert np.isclose(combo(t), 5.0)


def test_differential_and_pairing(euclid, rng):
    fam = euclid.family
    f = quadratic_on(fam, 3)
    t = euclid["sequence_thread"](np.array([1.0, 2.0, 3.0, 0, 0, 0, 0, 0, 0, 0]))
    cov = pl.differential(f, t)
    assert np.allclose(cov, [2 * 1 + 1, 2 * 2, 2 * 3])
    v = euclid["sequence_thread"](np.ones(10))
    assert np.isclose(pl.pair_with_direction(f, cov, v), cov.sum())


def test_cyl_polynomials_evaluate_like_composition(euclid, rng):
    fam = euclid.family
    f = pl.coordinate_function(fam, 2, 0)
    g = pl.coordinate_function(fam, 3, 2)
    s = pl.linear_combination([pl.product([f, g]), f], [1.0, 3.0])
    t = euclid["sequence_thread"](np.array([2.0, 0, 5.0, 0, 0, 0, 0, 0, 0, 0]))
    assert np.isclose(s(t), 2.0 * 5.0 + 3.0 * 2.0)
    # univariate composition p(f) = f^2 - 1
    assert np.isclose(pl.product([f, f])(t) - 1.0, 3.0)


def test_product_jacobian(euclid, rng):
    fam = euclid.family
    f = pl.coordinate_function(fam, 2, 0)
    g = pl.coordinate_function(fam, 2, 1)
    h = pl.product([f, g])
    t = euclid["sequence_thread"](np.array([3.0, 4.0] + [0.0] * 8))
    assert np.isclose(h(t), 12.0)
    grad = pl.differential(h, t)
    assert np.allclose(grad, [4.0, 3.0])


def test_cylindrical_functions_check_their_base_and_families(euclid, poly):
    fam = euclid.family
    sec = pl.Section.of(fam.poset, [2])
    for base in (pl.identity_map(2), pl.matrix_map(np.ones((1, 3)))):
        with pytest.raises(pl.FamilyMismatch, match="base must map R\\^2 -> R"):
            pl.CylindricalFunction(fam, sec, base)
    f = quadratic_on(fam, 2)
    with pytest.raises(pl.FamilyMismatch, match="thread lives over a different family"):
        f(poly["exp_series"])
    with pytest.raises(pl.FamilyMismatch, match="threads live over different families"):
        pl.separate(euclid["origin"], poly["exp_series"], [1])

"""A linear map is its matrix: constructors, application and the towers; a
ScalarMap's rows are one batch evaluation that matches its point values."""
import itertools

import numpy as np
import pytest

import proflim as pl


def test_map_takes_exactly_one_of_fn_and_matrix():
    with pytest.raises(ValueError):
        pl.DifferentiableMap(2, 2)
    with pytest.raises(ValueError):
        pl.DifferentiableMap(2, 2, lambda x: x, matrix=np.eye(2))


@pytest.mark.parametrize("dim", range(5))
def test_selection_and_scatter_match_fancy_indexing(dim):
    rng = np.random.default_rng(dim)
    x = rng.standard_normal(dim)
    index_lists = [list(c) for r in range(min(dim, 3) + 1)
                   for c in itertools.permutations(range(dim), r)]
    assert [] in index_lists
    for idx in index_lists:
        sel = pl.selection_map(dim, idx)
        sct = pl.scatter_map(dim, idx)
        assert sel.fn is None and sct.fn is None
        assert np.array_equal(sel.matrix, np.eye(dim)[idx])
        assert np.array_equal(sct.matrix, np.eye(dim)[:, idx])
        assert np.array_equal(sel(x), x[idx])
        padded = np.zeros(dim)
        padded[idx] = x[:len(idx)]
        assert np.array_equal(sct(x[:len(idx)]), padded)
        X = rng.standard_normal((3, dim))
        assert np.array_equal(sel.rows(X), X[:, idx])


def test_selection_and_scatter_build_only_their_rows_or_columns():
    n = 10 ** 6  # an n x n identity would be 7.28 TiB
    sel = pl.selection_map(n, [3, 0])
    sct = pl.scatter_map(n, [3, 0])
    assert sel.matrix.shape == (2, n) and sct.matrix.shape == (n, 2)
    x = np.arange(float(n))
    assert np.array_equal(sel(x), [3.0, 0.0])
    y = sct(np.array([5.0, 7.0]))
    assert y[3] == 5.0 and y[0] == 7.0 and np.count_nonzero(y) == 2


def test_linear_call_checks_dimension_and_propagates_nan():
    sel = pl.selection_map(3, [0])
    with pytest.raises(pl.DimensionMismatch):
        sel(np.zeros(2))
    # an unselected NaN reaches the value, as it does through rows()
    assert np.isnan(sel(np.array([1.0, np.nan, 0.0]))[0])
    assert np.isnan(sel.rows(np.array([[1.0, np.nan, 0.0]]))[0, 0])


def test_fd_jacobian_differentiates_either_kind():
    lin = pl.matrix_map(np.array([[1.0, 2.0], [0.0, -3.0]]))
    assert np.allclose(lin.fd_jacobian(np.array([0.3, -1.2])), lin.matrix, atol=1e-9)
    sq = pl.DifferentiableMap(2, 1, lambda x: np.array([x @ x]))
    assert np.allclose(sq.fd_jacobian(np.array([1.0, 2.0])), [[2.0, 4.0]], atol=1e-8)


def _towers():
    for name in pl.gallery_names():
        yield name, pl.build_gallery(name).family
    g = pl.poly_tower()
    yield "poly constants", g["constants"]
    yield "descriptor", pl.family_from_descriptor({
        "poset": {"kind": "chain", "elements": [1, 2, 3]},
        "levels": [{"index": 1, "dim": 1}, {"index": 2, "dim": 3},
                   {"index": 3, "dim": 4}],
        "projections": [{"from": 2, "to": 1, "kind": "truncation",
                         "payload": {"indices": [2]}},
                        {"from": 3, "to": 2, "kind": "truncation",
                         "payload": {"indices": [3, 0, 1]}}],
        "injections": [{"from": 1, "to": 2, "kind": "truncation",
                        "payload": {"indices": [2]}},
                       {"from": 2, "to": 3, "kind": "truncation",
                        "payload": {"indices": [3, 0, 1]}}]})


TOWERS = dict(_towers())


@pytest.mark.parametrize("name", TOWERS)
def test_every_tower_map_is_a_bare_matrix(name):
    fam = TOWERS[name]
    els = fam.poset.elements
    pairs = [(J, K) for J in els for K in els if fam.poset.leq(J, K)]
    assert pairs
    for J, K in pairs:
        for mp in (fam.proj(J, K), fam.inj(K, J)):
            assert mp.is_linear and mp.fn is None, (name, J, K)


SYMPLECTIC = pl.symplectic_even_tower(3)
# every function of the expression language; each term is positive or
# bounded, so the sums have no cancellation and the relative gap is the rounding
EXPRESSIONS = [
    (2, "sin(x0)*exp(x1/3) + tanh(x1) + 3"),
    (4, "sqrt(abs(x0) + 1)*log(sqr(x1) + 2) + cos(x2) + pi"),
    (6, "(sqr(x1) + sqr(x3) + sqr(x5))/2 + (sqr(x0) + sqr(x2) + sqr(x4))/2"
        " + (sqr(sqr(x0)) + sqr(sqr(x2)) + sqr(sqr(x4)))/8"),
    (4, "exp(-sqr(x0 - x3)) + sqrt(sqr(x1) + sqr(x2) + 1) + abs(tan(x0/2))"),
]


def _expression_base(dim: int, text: str) -> pl.ScalarMap:
    return pl.cylindrical_from_expression(SYMPLECTIC.family, [dim // 2], text).base


def _point_rows(base, X) -> np.ndarray:
    return np.array([base.fn(x) for x in X]).reshape(-1, 1)


@pytest.mark.parametrize("dim, text", EXPRESSIONS, ids=["sin-exp-tanh", "sqrt-abs-log-cos-pi",
                                                        "separable-quartic", "exp-sqrt-abs-tan"])
def test_expression_rows_match_the_point_values(dim, text):
    base = _expression_base(dim, text)
    assert base.batch is not None
    X = np.random.default_rng(dim).uniform(-2.0, 2.0, (2000, dim))
    got, want = base.rows(X), _point_rows(base, X)
    assert got.shape == (2000, 1)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_oscillator_rows_match_the_point_values_bit_for_bit(level):
    base = SYMPLECTIC["hamiltonian_at"](level).base
    assert base.batch is not None
    rng = np.random.default_rng(level)
    X = rng.standard_normal((2000, 2 * level)) * 10.0 ** rng.integers(-3, 4, (2000, 1))
    assert base.rows(X).tobytes() == _point_rows(base, X).tobytes()


@pytest.mark.parametrize("base", [
    _expression_base(*EXPRESSIONS[0]), SYMPLECTIC["hamiltonian_at"](1).base],
    ids=["expression", "oscillator"])
def test_a_nan_row_stays_nan_at_its_own_row_and_zero_rows_give_none(base):
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 2))
    X[3, 1] = np.nan
    got = base.rows(X)
    assert np.isnan(got[3, 0]) and np.isfinite(np.delete(got, 3)).all()
    assert np.array_equal(np.delete(got, 3), np.delete(_point_rows(base, X), 3))
    assert base.rows(np.zeros((0, 2))).shape == (0, 1)


def test_a_constant_expression_gives_one_value_per_row_at_any_dim():
    cross = pl.cross_family().family
    for level, dim in (("I", 0), ("L", 2)):
        base = pl.cylindrical_from_expression(cross, [level], "2 + pi").base
        for n in (0, 1, 4):
            got = base.rows(np.zeros((n, dim)))
            assert got.shape == (n, 1) and np.all(got == base.fn(np.zeros(dim)))
            assert got.flags.writeable


def test_a_batch_of_the_wrong_length_is_a_dimension_mismatch():
    grad = pl.DifferentiableMap(2, 2, fn=lambda x: x.copy())
    short = pl.ScalarMap(grad, lambda x: np.array([0.5 * float(x @ x)]), name="short",
                         batch=lambda X: 0.5 * np.vecdot(X, X)[1:])
    with pytest.raises(pl.DimensionMismatch, match="short: batch gave 2 values for 3 rows"):
        short.rows(np.ones((3, 2)))
    with pytest.raises(pl.DimensionMismatch, match="batch has shape"):
        short.rows(np.ones((3, 3)))
    loop = pl.ScalarMap(grad, short.fn)
    assert loop.batch is None
    assert np.array_equal(loop.rows(np.ones((3, 2))), np.ones((3, 1)))


def _square(dim: int) -> pl.DifferentiableMap:
    """x -> x * x entrywise, with its analytic Jacobian."""
    return pl.DifferentiableMap(dim, dim, fn=lambda x: x * x, jac=lambda x: np.diag(2.0 * x),
                                name="square")


def test_a_linear_combination_is_the_coefficient_matrix_after_the_fanout():
    rng = np.random.default_rng(3)
    A, B = rng.standard_normal((2, 3, 4))
    coeffs = [2.0, -0.5]
    lin = pl.linear_combination_map([pl.matrix_map(A), pl.matrix_map(B)], coeffs, name="ab")
    assert lin.is_linear and lin.name == "ab"
    # one matrix product, so within an ulp of the scaled sum
    assert np.allclose(lin.matrix, 2.0 * A - 0.5 * B, rtol=4e-16, atol=4e-16)
    assert np.array_equal(lin.matrix, np.hstack([2.0 * np.eye(3), -0.5 * np.eye(3)])
                          @ np.vstack([A, B]))
    sq, sel = _square(4), pl.selection_map(4, [3, 0, 1, 1])
    mixed = pl.linear_combination_map([sq, sel], [3.0, 1.0], name="mixed")
    x = rng.standard_normal(4)
    assert not mixed.is_linear and mixed.name == "mixed"
    assert np.allclose(mixed(x), 3.0 * x * x + x[[3, 0, 1, 1]], rtol=1e-15, atol=1e-15)
    assert np.allclose(mixed.jacobian(x), 3.0 * np.diag(2.0 * x) + sel.matrix,
                       rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("maps, coeffs", [
    ([pl.identity_map(2)], [1.0, 2.0]),
    ([pl.identity_map(2), pl.identity_map(2)], [1.0]),
    ([pl.identity_map(2)], []),
    ([], []),
    ([pl.identity_map(2), pl.matrix_map(np.ones((1, 2)))], [1.0, 1.0]),
    # codomains 2, 1, 3 sum to three times the first one
    ([pl.matrix_map(np.ones((n, 2))) for n in (2, 1, 3)], [1.0, 1.0, 1.0]),
], ids=["more-coefficients", "fewer-coefficients", "no-coefficients", "no-maps",
        "two-codomains", "codomains-summing-to-k-times-the-first"])
def test_a_linear_combination_needs_one_coefficient_per_map_and_one_codomain(maps, coeffs):
    with pytest.raises(pl.DimensionMismatch, match="coefficients for maps of codomains"):
        pl.linear_combination_map(maps, coeffs)


def test_a_linear_outer_jacobian_is_its_matrix_without_evaluating_the_inner_map():
    calls = []
    sq = _square(3)
    inner = pl.DifferentiableMap(3, 3, fn=lambda x: calls.append(1) or sq.fn(x),
                                 jac=sq.jacobian)
    outer = pl.matrix_map(np.arange(6.0).reshape(2, 3))
    x = np.array([0.5, -1.0, 2.0])
    jac = pl.compose(outer, inner).jacobian(x)
    assert calls == []
    assert np.array_equal(jac, outer.jacobian(inner(x)) @ inner.jacobian(x))
    # a smooth outer map is differentiated at inner(x)
    smooth = pl.compose(_square(3), inner)
    calls.clear()
    assert np.array_equal(smooth.jacobian(x), np.diag(2.0 * sq(x)) @ sq.jacobian(x))
    assert calls == [1]


def test_map_constructors_check_their_shapes():
    assert np.array_equal(pl.as_point(2.5), [2.5])
    assert pl.as_point(np.float64(-1.0)).shape == (1,)
    with pytest.raises(pl.DimensionMismatch, match=r"matrix shape \(3, 3\) vs declared \(2, 2\)"):
        pl.DifferentiableMap(2, 2, matrix=np.eye(3))
    with pytest.raises(pl.DimensionMismatch, match="cannot compose"):
        pl.compose(pl.identity_map(2), pl.identity_map(3))
    with pytest.raises(pl.DimensionMismatch, match="fanout of no maps"):
        pl.fanout_map([])
    with pytest.raises(pl.DimensionMismatch, match="fanout maps must share a domain"):
        pl.fanout_map([pl.identity_map(2), pl.identity_map(3)])

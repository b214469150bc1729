"""A linear map is its matrix: constructors, application and the towers."""
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

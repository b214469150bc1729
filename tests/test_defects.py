"""Planted defects: a pairwise audit fed one defect well above its tol fails
and names a pair through the defect, and the pairs that miss it pass;
momentum_verify fed a defect at one level raises there and passes elsewhere."""
import ast
import math

import numpy as np
import pytest

import proflim as pl

EUCLID = pl.euclid_tower(4)  # levels 0..4, dim n, projections truncate
E = EUCLID.family
PAIRS = [(J, K) for J in E.poset.elements for K in E.poset.elements if J < K]
PLANTED, EPS = 3, 1e-3


def _named(check):
    """The pair a pairwise check names as its worst."""
    head = "worst pair "
    assert check.detail.startswith(head), check.detail
    return ast.literal_eval(check.detail[len(head):check.detail.index(" of ")])


def _split(pairs):
    """(the pairs through PLANTED, the others)."""
    return ([p for p in pairs if PLANTED in p], [p for p in pairs if PLANTED not in p])


def test_a_thread_off_at_one_level_fails_check_thread_there():
    def value(J):
        x = np.arange(1.0, J + 1.0)
        return x + EPS * (np.arange(J) == 0) if J == PLANTED else x

    t = pl.Thread(E, value, name="planted")
    rep = pl.check_thread(t, PAIRS)
    (check,) = rep.checks
    assert not rep.passed and math.isclose(check.max_residual, EPS)
    through, others = _split(PAIRS)
    assert _named(check) in through
    assert pl.check_thread(t, others).passed


def test_a_level_map_off_at_one_level_fails_the_commuting_squares():
    def level_map(J):
        m = np.eye(J)
        if J == PLANTED:
            m[0, 0] += EPS
        return pl.matrix_map(m)

    f = pl.ProfiniteMap(E, E, lambda J: J, level_map, name="planted")
    rep = pl.check_profinite_map(f, PAIRS, rng=np.random.default_rng(0))
    order, squares = rep.checks
    assert order.passed and not squares.passed
    assert EPS / 100 < squares.max_residual < EPS * 10
    through, others = _split(PAIRS)
    assert _named(squares) in through
    assert pl.check_profinite_map(f, others, rng=np.random.default_rng(0)).passed


def test_an_index_map_out_of_order_fails_both_checks_at_its_pair():
    # 2 and 3 trade places: only the pair (2, 3) has images out of order
    swap = {2: 3, 3: 2}.get
    f = pl.ProfiniteMap(E, E, lambda J: swap(J, J),
                        lambda J: pl.matrix_map(np.eye(swap(J, J), J)), name="swapped")
    pairs = [(1, 2), (2, 3), (3, 4)]
    rep = pl.check_profinite_map(f, pairs, rng=np.random.default_rng(0))
    order, squares = rep.checks
    assert order.max_residual == 1.0 and not order.passed
    assert math.isnan(squares.max_residual) and not squares.passed
    assert _named(order) == _named(squares) == (2, 3)
    assert pl.check_profinite_map(f, [(1, 2), (3, 4)], rng=np.random.default_rng(0)).passed


# a 2-form on the tower whose level-J components are the top-left J x J block
# of one antisymmetric matrix, scaled by 1 + x0^2: injections pad with zeros,
# so every pair is compatible until one level is planted
OMEGA4 = np.triu(np.arange(1.0, 17.0).reshape(4, 4), 1)
OMEGA4 = OMEGA4 - OMEGA4.T


def test_a_form_off_at_one_level_fails_check_tame_there():
    def comps(J, x):
        out = OMEGA4[:J, :J] * (1.0 + x[0] ** 2 if J else 1.0)
        if J == PLANTED:
            out[0, 1] += EPS
            out[1, 0] -= EPS
        return out

    form = pl.TameForm(E, 2, comps, name="planted")
    rep = pl.check_tame(form, PAIRS, samples=5, rng=np.random.default_rng(0))
    (check,) = rep.checks
    assert not rep.passed and EPS <= check.max_residual < EPS * 100
    through, others = _split(PAIRS)
    assert _named(check) in through
    assert pl.check_tame(form, others, samples=5, rng=np.random.default_rng(0)).passed


def test_a_restriction_off_at_one_level_fails_check_action_compat_there():
    def restrict(J, K, g):
        out = g[:J, :J].copy()
        if J == PLANTED:
            out[0, 0] += EPS
        return out

    # diagonal generators: exp stays diagonal, so truncation intertwines it
    action = pl.ProfiniteGroupAction(E, generators=lambda J: [np.diag(np.arange(J) / 4.0)],
                                     act=lambda J, g, x: g @ x, restrict=restrict,
                                     name="planted")
    rep = pl.check_action_compat(action, PAIRS, rng=np.random.default_rng(0))
    (check,) = rep.checks
    assert not rep.passed and EPS / 100 < check.max_residual < EPS * 100
    through, others = _split(PAIRS)
    assert _named(check) in through
    assert pl.check_action_compat(action, others, rng=np.random.default_rng(0)).passed


def test_a_generator_off_at_one_level_fails_momentum_verify_there():
    g = pl.symplectic_even_tower(4)
    action, mu, omega = g.extras["action"], g.extras["momentum"], g.extras["omega"]

    def generators(m):  # at level PLANTED the first rotation also dilates q0
        gens = [xi.copy() for xi in action.generators(m)]
        if m == PLANTED:
            gens[0][0, 0] += EPS
        return gens

    planted = pl.ProfiniteGroupAction(g.family, generators, action.act, action.restrict,
                                      name="planted")
    coeffs = [1.0, -0.5, 0.25, 2.0]
    with pytest.raises(pl.NonSymplecticAction, match="does not preserve the form"):
        pl.momentum_verify(omega, planted, mu, coeffs, PLANTED, rng=np.random.default_rng(0))
    for m in g.family.poset.elements:
        if m != PLANTED:
            assert pl.momentum_verify(omega, planted, mu, coeffs, m,
                                      rng=np.random.default_rng(0)).passed

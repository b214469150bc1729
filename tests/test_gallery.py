import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import proflim as pl
from proflim.gallery import DYADIC_POOL
from oracles import pl_interp_anchor, pl_weights_branching, pl_weights_scan


def test_registry_names_and_errors():
    names = pl.gallery_names()
    assert names == sorted(names)
    assert set(names) == {"euclid", "poly", "jet", "matrix", "cross", "wiener",
                          "symplectic", "odd-symplectic"}
    with pytest.raises(KeyError) as err:
        pl.build_gallery("banana")
    assert "euclid" in str(err.value)  # the choices are listed


def test_build_gallery_forwards_kwargs():
    g = pl.build_gallery("euclid", max_level=4)
    assert g.family.dim(4) == 4
    assert 5 not in list(g.family.poset.elements)


def test_jet_alias():
    g = pl.build_gallery("jet", max_order=3)
    assert g.name == "jet"
    assert g.family.dim(3) == 4  # coefficients of degree <= 3


def test_euclid_threads(euclid):
    assert np.array_equal(euclid["origin"](4), np.zeros(4))
    assert np.array_equal(euclid["three_four"](3), [3.0, 4.0, 0.0])
    t = euclid["sequence_thread"]([1.0, 2.0])
    assert np.array_equal(t(2), [1.0, 2.0])
    with pytest.raises(pl.DimensionMismatch):
        t(3)  # the sequence is too short for level 3


def test_exp_series_values(poly):
    assert np.allclose(poly["exp_series"](3), [1.0, 1.0, 0.5, 1.0 / 6.0],
                       rtol=0, atol=0)
    assert poly["eval_at"](poly["exp_series"], 10, 1.0) == pytest.approx(math.e, rel=1e-7)


def test_poly_eval_at_is_polyval(poly):
    t = poly["poly_thread"]([2.0, 0.0, -1.0])  # 2 - x^2
    assert poly["eval_at"](t, 4, 3.0) == pytest.approx(-7.0)


def test_matrix_tower_corner_exactness(matrix):
    t = matrix["laplacian_exp"]
    lvl2 = matrix["as_block"](2, t(2))
    want = np.diag([math.e, math.e ** 4])
    assert np.max(np.abs(lvl2 - want)) / np.max(np.abs(want)) < 1e-12
    eye3 = matrix["as_block"](3, matrix["identity"](3))
    assert np.array_equal(eye3, np.eye(3))


def test_matrix_mul_and_inverse(matrix, rng):
    mul = matrix["mul"]
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    got = mul.op(3, a.ravel(), b.ravel())
    assert np.allclose(got, (a @ b).ravel())
    inv = mul.inverse(3, a.ravel() + 4.0 * np.eye(3).ravel())
    assert np.allclose(matrix["as_block"](3, inv) @ (a + 4.0 * np.eye(3)), np.eye(3))


def test_cross_middle_section(cross):
    sec = cross["middle_section"]
    assert set(sec) == {"J", "K"}
    assert cross.family.dim("I") == 0 and cross.family.dim("L") == 2


def test_pl_weights_against_oracle(rng):
    knots = [0.25, 0.5, 0.75]
    values = np.array([1.0, 2.0, -1.0])
    targets = [0.1, 0.25, 0.3, 0.6, 0.75, 0.9, 2.0]
    W = pl.pl_weights(targets, knots)
    got = W @ values
    for t, g in zip(targets, got):
        want = pl_interp_anchor(knots, values, min(t, knots[-1]))
        assert abs(g - want) < 1e-12


def test_pl_path_quarter_point():
    gamma = pl.pl_path([0.5], np.array([2.0]))
    assert gamma(0.25) == pytest.approx(1.0)  # halfway up from the (0,0) anchor
    assert gamma(0.5) == 2.0                  # exact at the knot
    assert gamma(9.0) == 2.0                  # constant extension
    empty = pl.pl_path([], np.zeros(0))
    assert empty(0.7) == 0.0


def test_negative_times_are_refused_and_zero_is_the_anchor(wiener):
    with pytest.raises(ValueError, match=r"^-0\.25 is a negative time$"):
        pl.pl_weights([-0.25], [0.5])
    with pytest.raises(ValueError, match="negative time"):
        pl.pl_weights([0.5, -1e-300], [])
    with pytest.raises(ValueError, match=r"^-1\.0 is a negative time$"):
        pl.pl_weights([0.5], [-1.0, 1.0])
    for gamma in (pl.pl_path([0.5], [2.0]), pl.pl_path([], np.zeros(0)),
                  wiener["pl_path"](frozenset({0.5}), [2.0])):
        with pytest.raises(ValueError, match="negative time"):
            gamma(-0.25)
        assert gamma(0.0) == 0.0
    assert pl.pl_weights([0.0], [0.5]).tolist() == [[0.0]]


def test_pl_path_pairs_each_value_with_its_own_time():
    gamma = pl.pl_path([1.0, 0.5], [10.0, 5.0])
    assert gamma(0.5) == 5.0 and gamma(1.0) == 10.0 and gamma(0.75) == 7.5
    assert gamma(0.25) == 2.5
    for values in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(pl.DimensionMismatch, match=f"^{len(values)} values for 2 times$"):
            pl.pl_path([1.0, 0.5], values)


@pytest.mark.parametrize("times", [[0.5, 0.5], [1.0, 0.5, 1.0], [0.0, -0.0]],
                         ids=["pair", "apart", "signed-zero"])
def test_pl_path_refuses_a_repeated_time(times):
    """Two values at one time would make the path jump there; knot_pool
    refuses a repeated knot the same way."""
    with pytest.raises(ValueError, match=r"^path times must be distinct, got \["):
        pl.pl_path(times, [float(v) for v in range(len(times))])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_refused(bad):
    """A NaN or an infinity is refused as a target, with knots or without,
    and as a knot, in any position; the Wiener knot pool refuses one too."""
    text = rf"^{bad} is not a finite time$"
    for targets, knots in [([bad], [0.5]), ([0.25, bad], [0.5, 1.0]), ([bad], []),
                           ([0.5], [bad]), ([0.5], [0.25, bad, 1.0])]:
        with pytest.raises(ValueError, match=text):
            pl.pl_weights(targets, knots)
    for gamma in (pl.pl_path([], []), pl.pl_path([0.5], [2.0])):
        with pytest.raises(ValueError, match=text):
            gamma(bad)
    with pytest.raises(ValueError, match=text):
        pl.wiener_family(times=[0.5, bad])


TEN_KNOTS = tuple((i + 1) / 10 for i in range(10))


@st.composite
def knots_and_targets(draw):
    """0-10 knots of DYADIC_POOL or of the 10-knot pool, and targets at 0,
    at the pool's knots, between them and past the last knot."""
    pool = draw(st.sampled_from([DYADIC_POOL, TEN_KNOTS]))
    knots = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    grid = (0.0, *pool)
    target = st.one_of(
        st.just(0.0),
        st.sampled_from(pool),
        st.sampled_from([(a + b) / 2 for a, b in zip(grid, grid[1:])]),
        st.floats(0.0, pool[-1]),
        st.floats(pool[-1], 4.0, exclude_min=True))
    return draw(st.lists(target, max_size=12)), knots


@given(knots_and_targets())
def test_pl_weights_matches_the_scanning_oracle_bit_for_bit(case):
    targets, knots = case
    W, want = pl.pl_weights(targets, knots), pl_weights_scan(targets, knots)
    assert W.shape == want.shape and W.tobytes() == want.tobytes()


def _weights_or_error(fn, targets, knots):
    try:
        return fn(targets, knots).tobytes()
    except ValueError as err:
        return f"ValueError: {err}"


def test_pl_weights_checks_every_time_once_bit_for_bit():
    """pl_weights against its old form, which checked each time in the branch
    that met it: random knot sets (empty, with a knot at 0.0, with a repeated
    knot), targets at 0, on, between and past the knots, and the error text of
    bad times in every position."""
    rng = np.random.default_rng(32)
    for _ in range(1500):
        knots = rng.choice(TEN_KNOTS, size=rng.integers(0, 6), replace=False).tolist()
        knots += [0.0] * (rng.random() < 0.2) + knots[:1] * (rng.random() < 0.1)
        grid = sorted({0.0, *knots})
        targets = [0.0, *knots, *((a + b) / 2 for a, b in zip(grid, grid[1:])),
                   *rng.uniform(0.0, 1.5, 5).tolist()]
        rng.shuffle(targets)
        assert (_weights_or_error(pl.pl_weights, targets, knots)
                == _weights_or_error(pl_weights_branching, targets, knots))
    nan, inf = math.nan, math.inf
    for targets, knots in [([-0.25], [0.5]), ([0.5, -1e-300], []), ([0.5], [-1.0, 1.0]),
                           ([nan], [0.5]), ([inf], []), ([-inf], []), ([2.0, inf], [0.5]),
                           ([0.25, -inf], [0.5]), ([0.5], [0.25, nan, 1.0]),
                           ([-1.0, nan], [0.5, -2.0]), ([inf, -1.0], [0.5]), ([nan], [])]:
        got = _weights_or_error(pl.pl_weights, targets, knots)
        assert got.startswith("ValueError: ")
        assert got == _weights_or_error(pl_weights_branching, targets, knots)


@given(st.floats(min_value=0.01, max_value=0.99), st.floats(-3, 3))
def test_pl_exact_on_linear_paths(t, slope):
    # a through-origin linear path is reproduced exactly inside the knot span
    knots = [0.25, 0.5, 0.75, 1.0]
    values = slope * np.asarray(knots)
    W = pl.pl_weights([t], knots)
    assert abs(float((W @ values)[0]) - slope * t) < 1e-12


def test_pl_weights_rows_are_convex_inside():
    knots = [0.25, 0.5, 1.0]
    W = pl.pl_weights([0.1, 0.3, 0.8], knots)
    assert np.all(W >= 0)
    assert np.all(W.sum(axis=1) <= 1.0 + 1e-15)  # anchor at (0,0) absorbs the rest


def test_pairing_is_finite_sum(wiener):
    gamma = pl.pl_path([0.5, 1.0], np.array([2.0, -2.0]))
    alpha = [(0.5, 3.0), (1.0, 0.5)]
    assert wiener["pairing"](alpha, gamma) == pytest.approx(3.0 * 2.0 + 0.5 * (-2.0))


def test_brownian_sampler_determinism(wiener):
    S = wiener["full_index"]
    a = wiener["sample_path"](S, np.random.default_rng(7))
    b = wiener["sample_path"](S, np.random.default_rng(7))
    c = wiener["sample_path"](S, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (8,)


def test_brownian_increment_scaling():
    # over a grid with gaps 1 and 4, increments have sd 1 and 2
    rng = np.random.default_rng(123)
    draws = np.array([pl.brownian_sample([1.0, 5.0], rng) for _ in range(20000)])
    inc = np.diff(np.concatenate([np.zeros((draws.shape[0], 1)), draws], axis=1))
    assert np.std(inc[:, 0]) == pytest.approx(1.0, rel=0.05)
    assert np.std(inc[:, 1]) == pytest.approx(2.0, rel=0.05)


def test_wiener_times_validation():
    with pytest.raises(ValueError):
        pl.wiener_family(times=[0.5, 0.5])
    with pytest.raises(ValueError):
        pl.wiener_family(times=[-1.0, 0.5])


def test_wiener_projection_of_interpolation_is_identity(wiener, rng):
    fam = wiener.family
    coarse = frozenset({0.25, 0.75})
    fine = wiener["full_index"]
    x = rng.standard_normal(2)
    lifted = fam.inj(fine, coarse)(x)
    assert np.allclose(fam.proj(coarse, fine)(lifted), x, atol=1e-14)


def test_gallery_getitem_missing_key(euclid):
    with pytest.raises(KeyError):
        euclid["nonexistent_extra"]


def test_wiener_projection_rows_are_identity_rows():
    # a projection is the interpolation at the coarse level's own knots, so
    # its rows are rows of the identity, exactly
    pool = np.random.default_rng(2024).uniform(0.01, 2.0, 7).tolist()
    for r in range(len(pool) + 1):
        for S in itertools.combinations(pool, r):
            knots = sorted(S)
            for mask in itertools.product([False, True], repeat=r):
                T = [t for t, keep in zip(S, mask) if keep]
                idx = np.array([knots.index(t) for t in sorted(T)], dtype=int)
                W, want = pl.pl_weights(sorted(T), knots), np.eye(r)[idx]
                assert W.shape == want.shape and W.tobytes() == want.tobytes()


def test_pair_momentum_values_and_jacobians():
    mu = pl.symplectic_even_tower(3)["momentum"]
    rng = np.random.default_rng(5)
    for i, f in enumerate(mu.functions):
        assert f.section.members == (i + 1,)
        for x in rng.standard_normal((4, 2 * (i + 1))):
            assert f.base(x)[0] == -(x[2 * i] ** 2 + x[2 * i + 1] ** 2) / 2
            assert np.allclose(f.base.jacobian(x), pl.fd_jacobian(f.base, x, 1),
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("times", [None, (0.3, 1.7, 0.05, 2.0, 0.9)], ids=["dyadic", "custom"])
def test_wiener_fanout_is_the_scan_oracle_at_the_concatenated_targets(times):
    """The rule's stack for a source and a list of levels is, byte for byte,
    the scan oracle at every level's sorted knots in turn: for the empty
    level, each singleton, the full pool and a few random sources, asked
    for themselves, the empty level, the full pool, their comparable
    singletons and everything they reach."""
    fam = pl.wiener_family(times).family
    els = fam.poset.elements
    empty, full = els[0], els[-1]
    singles = [S for S in els if len(S) == 1]
    rng = np.random.default_rng(3)
    picks = [els[i] for i in rng.choice(len(els), size=4, replace=False)]
    for src in [empty, *singles, full, *picks]:
        near = [S for S in singles if S <= src or src <= S]
        for levels in ([src], [empty], [full], near, [els[i] for i in fam.poset.reach([src])]):
            if not levels:
                continue
            want = pl_weights_scan([t for I in levels for t in sorted(I)], sorted(src))
            got = fam._maps(src, levels).matrix
            assert got.shape == want.shape and np.array_equal(got, want)

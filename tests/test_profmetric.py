import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import proflim as pl
from oracles import d_inf_history_loop, d_mu_loop


@given(st.floats(min_value=0.0, max_value=1e12))
def test_squash_range_and_monotone(d):
    v = pl.squash(d)
    assert 0.0 <= v < 1.0
    # strictness drowns in rounding once d ~ 1/eps, so only ask for it below
    if d < 1e6:
        assert pl.squash(d + 1.0) > v
    else:
        assert pl.squash(d + 1.0) >= v


def test_squash_edge_cases():
    assert pl.squash(0.0) == 0.0
    assert pl.squash(float("inf")) == 1.0
    with pytest.raises(ValueError):
        pl.squash(-0.5)


entries = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.lists(entries, min_size=n, max_size=n),
                                                      st.lists(entries, min_size=n, max_size=n))))
def test_euclidean_metric_is_one_level_of_the_batch_kernel(pair):
    x, y = (np.array(v, dtype=float) for v in pair)
    m = pl.euclidean_metrics(pl.euclid_tower(2).family)
    empty = np.zeros(0)
    with np.errstate(invalid="ignore", over="ignore"):
        got, norm = m.dist("J", x, y), float(np.linalg.norm(x - y))
        # the pair sits between a nonempty and two empty levels of one batch
        batch = m.distances(["a", "e", "J", "f"], [np.array([1.0, -2.0]), empty, x, empty],
                            [np.zeros(2), empty, y, empty])
    assert type(got) is float
    # bit for bit, but a NaN's sign bit depends on numpy's loop
    assert (math.isnan(got) and math.isnan(batch[2])) or \
        np.float64(got).tobytes() == batch[2].tobytes()
    assert batch[1] == batch[3] == 0.0 and batch[0] == math.sqrt(5.0)
    # the sum of at most 12 squares in another order: a few ulps apart, or
    # the square root of a few subnormals when the squares underflow
    assert (math.isnan(got) and math.isnan(norm)) or math.isclose(
        got, norm, rel_tol=4e-15, abs_tol=1e-160)


@pytest.mark.parametrize("d", [0.0, math.inf, math.nan, np.float64(0.0), np.float64(math.inf),
                               np.float64(math.nan), 1e308])
def test_squash_matches_the_numpy_test_on_edge_values(d):
    before = 1.0 if np.isinf(d) else d / (1.0 + d)
    assert np.float64(pl.squash(d)).tobytes() == np.float64(before).tobytes()


def test_d_inf_euclid_example(euclid):
    # x = 0, y = (3,4,0,...): level sup of phi(norm) is phi(5) = 5/6,
    # reached at level 2 and flat afterwards
    m = euclid["metrics"]
    x, y = euclid["origin"], euclid["three_four"]
    stages = [[1], [2], [3, 4], [5, 6, 7, 8, 9, 10]]
    value, converged, history = pl.d_inf(m, x, y, stages)
    assert abs(value - 5.0 / 6.0) <= 1e-12
    assert converged
    assert history == sorted(history)  # monotone by construction
    assert all(0.0 <= h <= 1.0 for h in history)
    assert abs(history[0] - pl.squash(3.0)) <= 1e-15  # level 1 sees only x0


def test_d_inf_no_levels_raises(euclid):
    """No stages, or stages that name no level, are refused, never a
    converged 0."""
    for stages in ([], [[]], [[], []]):
        with pytest.raises(ValueError, match="^no levels supplied$"):
            pl.d_inf(euclid["metrics"], euclid["origin"], euclid["three_four"], stages)


def test_distances_refuse_threads_over_another_poset():
    """A thread of a six-level tower answers at level 5, which is no level of
    the four-level tower the metric measures: its family is refused, not read."""
    six, m = pl.euclid_tower(6), pl.euclid_tower(4)["metrics"]
    x, y = six["origin"], six["three_four"]
    message = "^thread origin does not live over the poset of euclid$"
    with pytest.raises(pl.FamilyMismatch, match=message):
        pl.d_inf(m, x, y, [[1], [2], [5]])
    with pytest.raises(pl.FamilyMismatch, match=message):
        pl.d_mu(m, pl.IndexMeasure({1: 0.5, 2: 0.5}), x, y)
    sp = pl.SectionPoint.of(six.family, [2], {2: [3.0, 4.0]})
    with pytest.raises(pl.FamilyMismatch, match=r"^thread sec\[2\] does not live over the poset"):
        pl.d_inf(m, sp, pl.euclid_tower(4)["origin"], [[1], [2]])


def test_a_thread_of_another_family_over_the_poset_is_read_as_a_callable(euclid):
    """A thread of a second family over the metric's poset is read through
    its values, each checked against the metric family's dimension."""
    fam, m = euclid.family, euclid["metrics"]
    twin = pl.ProfiniteFamily(fam.poset, fam.dim, fam._maps)
    x = pl.Thread(twin, lambda n: np.arange(float(n)))
    want = pl.d_inf(m, pl.Thread(fam, lambda n: np.arange(float(n))), euclid["origin"], [[2], [3]])
    assert pl.d_inf(m, x, euclid["origin"], [[2], [3]]) == want
    doubled = pl.Thread(pl.tangent_family(fam), lambda n: np.zeros(2 * n), name="tangent")
    with pytest.raises(pl.DimensionMismatch, match="^thread anonymous: value at 2 has dim 4, "):
        pl.d_inf(m, doubled, euclid["origin"], [[2]])


def test_d_inf_accepts_section_points_and_callables(euclid):
    m = euclid["metrics"]
    fam = euclid.family
    sp = pl.SectionPoint.of(fam, [3], {3: np.array([3.0, 4.0, 0.0])})
    value, _, _ = pl.d_inf(m, euclid["origin"], sp, [[1, 2], [3]])
    assert abs(value - 5.0 / 6.0) <= 1e-12
    as_fn = lambda J: np.zeros(J)
    value2, _, _ = pl.d_inf(m, as_fn, euclid["three_four"], [[1], [2]])
    assert abs(value2 - 5.0 / 6.0) <= 1e-12


def test_index_measure_validation():
    with pytest.raises(ValueError):
        pl.IndexMeasure({1: -0.1})
    with pytest.raises(ValueError):
        pl.IndexMeasure({1: 0.1}, tail_mass=-1.0)
    mu = pl.IndexMeasure({1: 0.25, 2: 0.5}, tail_mass=0.125)
    assert abs(mu.total_mass - 0.875) <= 1e-15


@pytest.mark.parametrize("weights, tail", [
    ({1: float("nan")}, 0.0), ({1: math.inf}, 0.0),
    ({1: 0.5}, float("nan")), ({1: 0.5}, math.inf),
], ids=["nan-weight", "inf-weight", "nan-tail", "inf-tail"])
def test_index_measure_refuses_non_finite_mass(weights, tail):
    with pytest.raises(ValueError, match="is not a finite number >= 0"):
        pl.IndexMeasure(weights, tail_mass=tail)


def test_distances_refuse_a_nan_level_distance(cross):
    # max(0.0, nan) is 0.0, so a sup that skipped the check would drop the NaN
    m = pl.euclidean_metrics(cross.family)
    x = pl.SectionPoint.of(cross.family, ["L"], {"L": [float("nan"), 1.0]})
    y = pl.SectionPoint.of(cross.family, ["L"], {"L": [0.0, 1.0]})
    with pytest.raises(ValueError, match="^level 'J': the distance is nan"):
        pl.d_inf(m, x, y, [["I"], ["J"], ["K"], ["L"]])
    with pytest.raises(ValueError, match="^level 'L': the distance is nan"):
        pl.d_mu(m, pl.IndexMeasure({"I": 0.5, "L": 0.5}), x, y)


def test_an_infinite_level_distance_squashes_to_one(euclid):
    far = pl.SectionPoint.of(euclid.family, [2], {2: [1e308, -1e308]})
    near = pl.SectionPoint.of(euclid.family, [2], {2: [-1e308, 1e308]})
    with np.errstate(over="ignore"):
        value, _, history = pl.d_inf(euclid["metrics"], far, near, [[1], [2]])
    assert value == 1.0 and history[-1] == 1.0


def test_level_values_that_differ_in_size_are_refused(euclid):
    # a broadcast would read (0) - (1, 1) as two differences of one
    fam, m = euclid.family, euclid["metrics"]
    # a plain callable is read as a thread of the metric's family
    with pytest.raises(pl.DimensionMismatch,
                       match="^thread anonymous: value at 2 has dim 1, expected 2$"):
        pl.d_inf(m, lambda J: np.zeros(1), lambda J: np.ones(fam.dim(J)), [[1], [2], [3]])
    with pytest.raises(pl.DimensionMismatch, match="^level 3: values of sizes 2 and 3"):
        m(3, np.zeros(2), np.zeros(3))


WIENER_KNOTS = tuple(k / 10 for k in range(1, 11))


@pytest.fixture(scope="module")
def wiener_query():
    """Two Brownian section threads on 5 of 10 knots, the levels comparable
    to their member (the empty level first), and those levels by size."""
    fam = pl.wiener_family(WIENER_KNOTS).family
    rng = np.random.default_rng(11)
    S = frozenset(WIENER_KNOTS[1::2])
    x, y = (pl.thread_from_section(pl.SectionPoint.of(fam, [S], {S: rng.standard_normal(5)}))
            for _ in range(2))
    levels = sorted((J for J in fam.poset.elements if J <= S or S <= J), key=len)
    stages = [[J for J in levels if len(J) == n] for n in range(11)]
    return fam, levels, stages, x, y


def test_euclidean_batch_matches_a_per_level_loop(wiener_query):
    fam, levels, _, x, y = wiener_query
    m = pl.euclidean_metrics(fam)
    assert levels[0] == frozenset() and len(levels) == 63
    batch = m.distances(levels, [x(J) for J in levels], [y(J) for J in levels])
    loop = [math.sqrt(sum((a - b) ** 2 for a, b in zip(x(J), y(J)))) for J in levels]
    assert batch[0] == 0.0 and (batch[1:] > 0).all()
    np.testing.assert_allclose(batch, loop, rtol=1e-15, atol=0.0)
    # one number per level, whichever API asks for it
    assert all(np.float64(m(J, x(J), y(J))).tobytes() == d.tobytes()
               for J, d in zip(levels, batch))


def test_batched_distances_name_a_nan_and_squash_an_infinity(wiener_query):
    fam, levels, stages, x, y = wiener_query
    m = pl.euclidean_metrics(fam)
    value, converged, history = pl.d_inf(m, x, y, stages)
    assert history == sorted(history) and history[0] == 0.0 and value == history[-1] < 1.0
    mu = pl.IndexMeasure({J: 1.0 / len(levels) for J in levels})
    assert 0.0 < pl.d_mu(m, mu, x, y)[0] < value
    # max(0.0, nan) is 0.0: a NaN late in the batch must still be named, the first one
    first, second = stages[7][0], stages[9][0]

    def nan_at(J):
        return np.full(fam.dim(J), np.nan) if J in (first, second) else x(J)

    with pytest.raises(ValueError, match=f"^level {re.escape(repr(first))}: the distance is nan"):
        pl.d_inf(m, nan_at, y, stages)
    with pytest.raises(ValueError, match=f"^level {re.escape(repr(first))}: the distance is nan"):
        pl.d_mu(m, mu, nan_at, y)
    with np.errstate(over="ignore"):
        value, converged, history = pl.d_inf(m, lambda J: np.full(fam.dim(J), 1e300), y, stages)
        total, _ = pl.d_mu(m, mu, lambda J: np.full(fam.dim(J), 1e300), y)
    assert history == [0.0] + [1.0] * 10 and value == 1.0 and converged
    assert math.isclose(total, 62 / 63, rel_tol=1e-14)


@pytest.fixture(scope="module")
def wiener8_pairs():
    """Pairs of points on the 8-knot Wiener family, by kind, each with the
    levels both points answer at: two threads of one section, threads of
    two sections, a two-member section thread, and a plain callable."""
    g = pl.wiener_family()
    fam, pool, rng = g.family, g["pool"], np.random.default_rng(5)

    def thread(members, values):
        return pl.thread_from_section(pl.SectionPoint.of(fam, members, values))

    S, T = frozenset(pool[1::2]), frozenset(pool[3::4])  # T < S
    x, y = (thread([S], {S: g["sample_path"](S, rng)}) for _ in range(2))
    z = thread([T], {T: g["sample_path"](T, rng)})
    # both members sample one path on C, so they agree wherever both reach
    C, A, B = frozenset(pool[3:4]), frozenset(pool[1:4:2]), frozenset(pool[3:6:2])
    coarse = thread([C], {C: g["sample_path"](C, rng)})
    two = thread([A, B], {A: coarse(A), B: coarse(B)})

    def plain(J):
        return np.cos(np.asarray(sorted(J)))

    def common(*members):
        hit = np.arange(len(fam.poset.elements))
        for m in members:
            hit = np.intersect1d(hit, fam.poset.reach(m))
        return [fam.poset.elements[i] for i in hit.tolist()]

    return fam, {"one-section": (x, y, common([S])),
                 "two-sections": (x, z, common([S], [T])),
                 "two-members": (two, x, common([A, B], [S])),
                 "callable": (x, plain, common([S]))}


@pytest.mark.parametrize("metric", [pl.euclidean_metrics, pl.discrete_metrics])
@pytest.mark.parametrize("kind", ["one-section", "two-sections", "two-members", "callable"])
def test_distances_are_the_per_level_loop_bit_for_bit(wiener8_pairs, kind, metric):
    fam, pairs = wiener8_pairs
    x, y, levels = pairs[kind]
    m = metric(fam)
    assert len(levels) >= 20
    stages = [[J for J in levels if len(J) == n] for n in range(9)] + [levels[::-1]]
    value, converged, history = pl.d_inf(m, x, y, stages)
    loop = d_inf_history_loop(m, x, y, stages)
    assert [h.hex() for h in history] == [h.hex() for h in loop]
    assert value == history[-1] > 0.0 and converged
    weights = {J: 0.0 if i % 3 == 1 else 0.5 ** len(J) for i, J in enumerate(levels)}
    mu = pl.IndexMeasure(weights, tail_mass=0.125)
    total, tail = pl.d_mu(m, mu, x, y)
    assert total.hex() == d_mu_loop(m, mu, x, y).hex() and total > 0.0 and tail == 0.125
    zeros = pl.IndexMeasure(dict.fromkeys(levels, 0.0), tail_mass=0.25)
    assert pl.d_mu(m, zeros, x, y) == (0.0, 0.25)


@pytest.mark.parametrize("kind", ["one-section", "two-sections", "two-members", "callable"])
def test_distances_refuse_an_index_that_is_no_level_of_the_wiener_family(wiener8_pairs, kind):
    fam, pairs = wiener8_pairs
    x, y, levels = pairs[kind]
    m, bad = pl.euclidean_metrics(fam), frozenset({0.3})
    message = f"^index {re.escape(repr(bad))} is not a level of wiener$"
    with pytest.raises(pl.Incomparable, match=message):
        pl.d_inf(m, x, y, [levels[:3], [levels[3], bad]])
    with pytest.raises(pl.Incomparable, match=message):
        pl.d_mu(m, pl.IndexMeasure({levels[0]: 0.5, bad: 0.5}), x, y)


def test_ultrametric_value_on_euclid_chain(euclid):
    # discrete level metrics + inverse-square weights: x = 0 and
    # y = (0,1,1,...) differ exactly from level 2 on, so
    # d_mu = sum_{n>=2} n^-2 * 1/2 = (pi^2/6 - 1)/2 up to the tail
    m = pl.discrete_metrics(euclid.family)
    mu = euclid["inverse_square_measure"]
    x = euclid["origin"]
    y = euclid["sequence_thread"](np.array([0.0] + [1.0] * 9))
    value, err = pl.d_mu(m, mu, x, y)
    exact = (math.pi ** 2 / 6.0 - 1.0) / 2.0
    assert abs(value + mu.tail_mass / 2.0 - exact) <= 1e-12
    assert err == mu.tail_mass
    assert value <= exact <= value + err


def test_d_mu_ultrametric_audit_on_chain(euclid, rng):
    # difference sets on a chain are up-sets, which makes the discrete
    # weighted sum an ultrametric
    m = pl.discrete_metrics(euclid.family)
    mu = euclid["inverse_square_measure"]
    threads = [euclid["sequence_thread"](np.round(rng.standard_normal(10)))
               for _ in range(8)]
    report = pl.pseudo_metric_audit(
        lambda a, b: pl.d_mu(m, mu, a, b)[0], threads,
        tol=1e-12, check_ultrametric=True)
    assert report.passed
    assert len(report.checks) == 4


def test_d_inf_triangle_audit(euclid, rng):
    m = euclid["metrics"]
    stages = [list(range(1, 11))]
    threads = [euclid["sequence_thread"](rng.standard_normal(10))
               for _ in range(8)]  # 56 triples
    report = pl.pseudo_metric_audit(
        lambda a, b: pl.d_inf(m, a, b, stages)[0], threads,
        tol=1e-12, check_positive=True)
    assert report.passed


def test_pseudo_metric_audit_catches_asymmetry():
    pts = [0.0, 1.0, 3.0]
    report = pl.pseudo_metric_audit(lambda a, b: max(b - a, 0.0), pts)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["symmetric"].passed


def test_pseudo_metric_audit_flags_pseudo_only():
    # d(x,y) = |x0 - y0| on pairs: vanishes on distinct points with equal x0
    pts = [(0.0, 0.0), (0.0, 1.0), (2.0, 5.0)]
    report = pl.pseudo_metric_audit(lambda a, b: abs(a[0] - b[0]), pts,
                                    check_positive=True)
    by_name = {c.name: c for c in report.checks}
    assert by_name["triangle inequality"].passed
    assert not by_name["positive on distinct points"].passed


def test_pseudo_metric_audit_fails_a_nan_distance_as_negative():
    report = pl.pseudo_metric_audit(
        lambda a, b: math.nan if {a, b} == {0, 1} else float(a != b), [0, 1, 2])
    nonnegative = next(c for c in report.checks if c.name == "nonnegative")
    assert math.isnan(nonnegative.max_residual) and not nonnegative.passed
    report = pl.pseudo_metric_audit(lambda a, b: abs(a - b), [0.0, 1.0, 3.0])
    nonnegative = next(c for c in report.checks if c.name == "nonnegative")
    assert np.float64(nonnegative.max_residual).tobytes() == np.float64(0.0).tobytes()


def test_injection_isometry(euclid, wiener, rng):
    pairs = [(n, n + 1) for n in range(1, 10)]
    for m in (euclid["metrics"], pl.discrete_metrics(euclid.family)):
        report = pl.injection_isometry_check(m, pairs, samples=5, rng=rng)
        assert report.passed and report.worst().max_residual <= 1e-9
    # wiener injections interpolate, they are not isometries of the
    # euclidean level metrics
    wm = pl.euclidean_metrics(wiener.family)
    wpairs = [(frozenset({wiener["pool"][0]}), wiener["full_index"])]
    report = pl.injection_isometry_check(wm, wpairs, samples=10, rng=rng)
    assert not report.passed


def test_metric_kind_is_read_from_dist(euclid):
    fam = euclid.family
    assert pl.euclidean_metrics(fam).kind == "euclidean"
    assert pl.discrete_metrics(fam).kind == "discrete"
    assert pl.LevelMetricFamily(fam, lambda J, x, y: 0.0).kind == "custom"
    assert [f.name for f in dataclasses.fields(pl.LevelMetricFamily)] == ["family", "dist"]

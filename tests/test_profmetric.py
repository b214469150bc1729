import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import proflim as pl


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
def test_euclidean_metric_is_the_norm_bit_for_bit(pair):
    x, y = (np.array(v, dtype=float) for v in pair)
    m = pl.euclidean_metrics(pl.euclid_tower(2).family)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = m.dist(0, x, y), float(np.linalg.norm(x - y))
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
    with pytest.raises(ValueError):
        pl.d_inf(euclid["metrics"], euclid["origin"], euclid["three_four"], [])


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


def test_metric_kind_guard(euclid):
    with pytest.raises(ValueError):
        pl.LevelMetricFamily(euclid.family, lambda J, x, y: 0.0, kind="banana")

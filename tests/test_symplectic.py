import io
import warnings

import numpy as np
import pytest

import proflim as pl
import proflim.maps as maps_module
import proflim.symplectic as symplectic_module
from oracles import implicit_midpoint_arrays, leapfrog_three_gradients, oscillator_exact

SEPARABLE_QUARTIC = ("(sqr(x1) + sqr(x3) + sqr(x5))/2 + (sqr(x0) + sqr(x2) + sqr(x4))/2"
                     " + (sqr(sqr(x0)) + sqr(sqr(x2)) + sqr(sqr(x4)))/8")
COUPLED_QUARTIC = ("(sqr(x0) + sqr(x1) + sqr(x2) + sqr(x3))/2 + x0*x1/2 + x2*x3/2"
                   " + sqr(x0)*sqr(x2)/8")


def levels(g):
    return list(g.family.poset.elements)


def adjacent_pairs(g):
    els = levels(g)
    return list(zip(els, els[1:]))


def test_canonical_omega_layout():
    w4 = pl.canonical_omega(4)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(w4[:2, :2], block)
    assert np.array_equal(w4[2:, 2:], block)
    assert np.array_equal(w4[:2, 2:], np.zeros((2, 2)))
    w5 = pl.canonical_omega(5)
    assert np.array_equal(w5, -w5.T)
    assert np.array_equal(w5[4], np.zeros(5))  # unpaired direction
    assert pl.canonical_omega(0).shape == (0, 0)


def test_build_even_tower_is_symplectic(symplectic, rng):
    s = pl.SymplecticStructure.build(symplectic["omega"], levels(symplectic),
                                     samples=5, rng=rng)
    assert s.is_symplectic
    assert s.closedness_residual == 0.0
    for m, info in s.rank_profile.items():
        assert info["rank"] == info["dim"] == 2 * m
        assert info["constant"]


def test_build_guards(euclid, rng):
    one_form = pl.constant_form(euclid.family, 1, lambda J: np.zeros(euclid.family.dim(J)))
    with pytest.raises(ValueError):
        pl.SymplecticStructure.build(one_form, [2], rng=rng)
    lopsided = pl.constant_form(euclid.family, 2,
                                lambda J: np.ones((euclid.family.dim(J),) * 2))
    with pytest.raises(pl.SingularForm):
        pl.SymplecticStructure.build(lopsided, [2], rng=rng)


def test_projective_nondegeneracy_even_vs_odd(symplectic, odd_tower, rng):
    ok, profile = pl.is_projectively_nondegenerate(symplectic["omega"],
                                                   levels(symplectic), samples=4, rng=rng)
    assert ok and all(info["full"] for info in profile.values())

    bad, profile = pl.is_projectively_nondegenerate(odd_tower["omega"],
                                                    levels(odd_tower), samples=4, rng=rng)
    assert not bad
    assert {d: info["rank"] for d, info in profile.items()} == {1: 0, 2: 2, 3: 2, 4: 4, 5: 4}


def test_weak_nondegeneracy_witness_on_odd_tower(odd_tower):
    omega = odd_tower["omega"]
    hit, witness = pl.is_weakly_nondegenerate(omega, np.array([1.0]), 1, levels(odd_tower))
    assert hit and witness == (2, 1, 1.0)  # e1 at level 1 pairs with e2 one level up
    hit, witness = pl.is_weakly_nondegenerate(omega, np.array([0.0, 0.0, 1.0]), 3,
                                              levels(odd_tower))
    assert hit and witness == (4, 3, 1.0)  # the unpaired direction pairs upstairs


def test_weak_nondegeneracy_budget_and_guards(odd_tower):
    omega = odd_tower["omega"]
    hit, witness = pl.is_weakly_nondegenerate(omega, np.array([1.0]), 1, [1])
    assert not hit and witness is None  # unwitnessed within the budget, not disproved
    with pytest.raises(pl.ZeroVector):
        pl.is_weakly_nondegenerate(omega, np.zeros(2), 2, levels(odd_tower))


def test_hamiltonian_field_oscillator_oracle(symplectic, rng):
    omega = symplectic["omega"]
    H = symplectic["hamiltonian_at"](3)
    X = pl.hamiltonian_field(omega, H, 3, np.array([1.0, 0.0, 0, 0, 0, 0]))
    assert np.allclose(X, [0.0, -1.0, 0, 0, 0, 0], atol=1e-14)
    for _ in range(10):
        x = rng.standard_normal(6)
        X = pl.hamiltonian_field(omega, H, 3, x)
        want = np.empty(6)
        want[0::2] = x[1::2]   # dq/dt = p
        want[1::2] = -x[0::2]  # dp/dt = -q
        assert np.max(np.abs(X - want)) < 1e-12


def test_hamiltonian_identity_residual(symplectic, rng):
    omega = symplectic["omega"]
    for m in levels(symplectic):
        H = symplectic["hamiltonian_at"](m)
        for _ in range(5):
            x = rng.standard_normal(2 * m)
            assert pl.hamiltonian_identity_residual(omega, H, m, x) <= 1e-10


def test_hamiltonian_field_degenerate_raises(odd_tower):
    H = pl.coordinate_function(odd_tower.family, 1, 0)
    with pytest.raises(pl.SingularForm):
        pl.hamiltonian_field(odd_tower["omega"], H, 1, np.array([1.0]))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_solve_is_numpys_solve_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(1000):
        a = rng.standard_normal((n, n))
        for b in (rng.standard_normal(n), rng.standard_normal((n, n))):
            got, want = symplectic_module._solve(a, b), np.linalg.solve(a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("quiet", [False, True], ids=["errstate-warn", "errstate-ignore"])
@pytest.mark.parametrize("rhs", [(2,), (2, 2)], ids=["vector", "matrix"])
def test_solve_raises_on_a_singular_matrix_rather_than_warn(quiet, rhs):
    """np.linalg.solve's LinAlgError, not a RuntimeWarning, whatever error
    state the caller set, and the caller's error state is left as it was."""
    with warnings.catch_warnings(), np.errstate(all="ignore" if quiet else "warn"):
        warnings.simplefilter("error")
        before = np.geterr()
        for a in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]])):
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                symplectic_module._solve(a, np.ones(rhs))
        assert np.geterr() == before


def test_a_singular_newton_matrix_is_a_nonconvergent_solve():
    """I - dt/2 Omega^-T Hess H is singular for this H at dt = 1: the flow
    fails as a Newton solve that cannot go on, not as a LinAlgError."""
    g = pl.symplectic_even_tower(3)
    H = pl.cylindrical_from_expression(g.family, [1], "sqr(x0)/2 - 2*sqr(x1)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pl.NonconvergentSolve,
                           match=r"^implicit midpoint: Newton matrix singular at step 0$"):
            pl.flow(g["omega"], H, 1, [1.0, 0.5], dt=1.0, steps=1, scheme="implicit-midpoint")


def test_level_rank_of_a_zero_matrix_is_zero():
    for shape in ((0, 0), (1, 1), (3, 3), (2, 4)):
        assert pl.level_rank(np.zeros(shape)) == 0
    assert pl.level_rank(np.diag([1.0, 0.0, 1e-12])) == 1  # below RANK_RTOL of the largest


@pytest.mark.parametrize("constant", [True, False])
def test_fields_and_flows_at_a_dim_zero_level(euclid, constant):
    """Level 0 of euclid has dimension 0: the general solve answers there."""
    fam = euclid.family
    omega = (pl.constant_form(fam, 2, lambda J: pl.canonical_omega(fam.dim(J))) if constant
             else pl.TameForm(fam, 2, lambda J, x: pl.canonical_omega(fam.dim(J))))
    H = pl.cylindrical_from_expression(fam, [0], "2.5")
    field = pl.hamiltonian_field(omega, H, 0, np.zeros(0))
    assert field.shape == (0,)
    assert pl.hamiltonian_identity_residual(omega, H, 0, []) == 0.0
    traj = pl.flow(omega, H, 0, [], dt=0.1, steps=3, scheme="implicit-midpoint")
    assert traj.states.shape == (4, 0)
    assert traj.energies.tolist() == [2.5] * 4 and traj.energy_drift() == 0.0


def test_hamiltonian_compat_across_levels(symplectic, rng):
    omega = symplectic["omega"]
    H = symplectic["hamiltonian"]  # lives at level 1, readable from every level
    report = pl.hamiltonian_compat_check(omega, H, adjacent_pairs(symplectic),
                                         samples=5, rng=rng)
    assert report.passed
    assert report.worst().max_residual <= 1e-10


def test_leapfrog_against_closed_form(symplectic):
    H = symplectic["hamiltonian_at"](2)
    x0 = np.array([1.0, 0.0, 0.0, 1.0])
    traj = pl.flow(symplectic["omega"], H, 2, x0, dt=1e-3, steps=1000)
    assert np.max(np.abs(traj.states[-1] - oscillator_exact(x0, 1.0))) < 1e-6
    assert traj.energy_drift() < 1e-6
    radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(radii - 1.0)) < 1e-3


def test_implicit_midpoint_agrees(symplectic):
    H = symplectic["hamiltonian_at"](1)
    x0 = np.array([1.0, 0.0])
    lf = pl.flow(symplectic["omega"], H, 1, x0, dt=1e-2, steps=100)
    im = pl.flow(symplectic["omega"], H, 1, x0, dt=1e-2, steps=100,
                 scheme="implicit-midpoint")
    exact = oscillator_exact(x0, 1.0)
    assert np.max(np.abs(lf.states[-1] - exact)) < 1e-4
    assert np.max(np.abs(im.states[-1] - exact)) < 1e-4


def test_implicit_midpoint_nonconvergence_is_loud(symplectic):
    fam = symplectic.family
    sec = pl.Section.of(fam.poset, [1])
    quartic = pl.CylindricalFunction(fam, sec, pl.DifferentiableMap(
        2, 1,
        fn=lambda x: np.array([0.25 * float(x @ x) ** 2]),
        jac=lambda x: (float(x @ x) * x).reshape(1, 2),
        name="quartic"))
    with pytest.raises(pl.NonconvergentSolve):
        pl.flow(symplectic["omega"], quartic, 1, np.array([2.0, 0.0]),
                dt=0.5, steps=5, scheme="implicit-midpoint", newton_iters=1)


@pytest.mark.parametrize("scheme", ["leapfrog", "implicit-midpoint"])
@pytest.mark.parametrize("dt, x0", [(np.nan, [1.0, 0.0]), (np.inf, [1.0, 0.0]),
                                    (1e-2, [np.nan, 0.0]), (1e-2, [1.0, -np.inf])])
def test_flow_refuses_non_finite_dt_and_x0(symplectic, scheme, dt, x0):
    with pytest.raises(ValueError, match="finite dt and x0"):
        pl.flow(symplectic["omega"], symplectic["hamiltonian_at"](1), 1, np.array(x0),
                dt=dt, steps=3, scheme=scheme)


@pytest.mark.parametrize("scheme", ["leapfrog", "implicit-midpoint"])
@pytest.mark.parametrize("steps", [-1, -3])
def test_flow_refuses_negative_steps(symplectic, scheme, steps):
    with pytest.raises(ValueError, match=rf"^flow needs steps >= 0, got {steps}$"):
        pl.flow(symplectic["omega"], symplectic["hamiltonian_at"](1), 1, np.array([1.0, 0.0]),
                dt=1e-2, steps=steps, scheme=scheme)


@pytest.mark.parametrize("expr, x0, dt, step", [
    ("sqr(sqr(x0)) + sqr(x1)", [1.0, 0.0], 10.0, 4),   # the state overflows
    # exp(700) is finite, but the first kick gives a momentum whose square is not
    ("exp(x0) + sqr(x1)/2", [700.0, 0.0], 1e-3, 1),
])
def test_flow_refuses_a_run_that_leaves_the_finite_numbers(symplectic, expr, x0, dt, step):
    H = pl.cylindrical_from_expression(symplectic.family, [1], expr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pl.NonconvergentSolve, match=f"at step {step} is not finite"):
            pl.flow(symplectic["omega"], H, 1, np.array(x0), dt=dt, steps=20)


def _flows(symplectic):
    """(H, level, scheme, batched) for a flow of each kind: the member is the
    level, so energies come from the base's batch, or strictly below it, so
    they come from the composed level function row by row."""
    fam = symplectic.family
    return [(symplectic["hamiltonian_at"](2), 2, "leapfrog", True),
            (pl.cylindrical_from_expression(fam, [3], SEPARABLE_QUARTIC), 3, "leapfrog", True),
            (pl.cylindrical_from_expression(fam, [2], COUPLED_QUARTIC), 2,
             "implicit-midpoint", True),
            (symplectic["hamiltonian_at"](1), 3, "leapfrog", False),
            (pl.cylindrical_from_expression(fam, [2], COUPLED_QUARTIC), 3,
             "implicit-midpoint", False)]


def test_flow_energies_are_the_level_function_at_every_state(symplectic):
    rng = np.random.default_rng(5)
    for H, level, scheme, batched in _flows(symplectic):
        lf = pl.level_function(H, level)
        assert (getattr(lf, "batch", None) is not None) == batched
        x0 = rng.uniform(-1.0, 1.0, symplectic.family.dim(level))
        traj = pl.flow(symplectic["omega"], H, level, x0, dt=1e-2, steps=200, scheme=scheme)
        want = np.array([lf(s)[0] for s in traj.states])
        if batched and H.name != "oscillator":  # array and scalar powers may round apart
            assert np.all(np.abs(traj.energies - want) <= 1e-15 * np.abs(want))
        else:
            assert traj.energies.tobytes() == want.tobytes()


# at dt = 10 the state grows about a hundredfold a step, and its energy
# overflows about half-way to the step where the state itself would
@pytest.mark.parametrize("kind, step", [("oscillator", 78), ("expression", 67)])
def test_a_diverging_flow_stops_where_its_row_by_row_energies_do(symplectic, kind, step):
    H = {"oscillator": symplectic["hamiltonian_at"](1),
         "expression": pl.cylindrical_from_expression(symplectic.family, [1],
                                                      "sqr(x0) + sqr(x1)/2")}[kind]

    def failure():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(pl.NonconvergentSolve) as err:
                pl.flow(symplectic["omega"], H, 1, np.array([1.0, 0.0]), dt=10.0, steps=400)
        return str(err.value)

    assert failure() == f"flow diverged: the state or its energy at step {step} is not finite"
    H.base.batch = None
    assert failure() == f"flow diverged: the state or its energy at step {step} is not finite"


def test_flow_guards(symplectic, odd_tower, euclid):
    H1 = symplectic["hamiltonian_at"](1)
    with pytest.raises(ValueError):
        pl.flow(symplectic["omega"], H1, 1, np.array([1.0, 0.0]),
                dt=0.1, steps=1, scheme="rk4")
    # leapfrog refuses a non-canonical (though invertible) layout
    scaled = pl.constant_form(symplectic.family, 2,
                              lambda m: 2.0 * pl.canonical_omega(2 * m))
    with pytest.raises(ValueError):
        pl.flow(scaled, H1, 1, np.array([1.0, 0.0]), dt=0.1, steps=1)
    # no flow on a degenerate level
    H_odd = pl.coordinate_function(odd_tower.family, 1, 0)
    with pytest.raises(pl.SingularForm):
        pl.flow(odd_tower["omega"], H_odd, 1, np.array([1.0]), dt=0.1, steps=1)


def test_trajectory_csv_round_trip(symplectic):
    H = symplectic["hamiltonian_at"](1)
    traj = pl.flow(symplectic["omega"], H, 1, np.array([1.0, 0.0]), dt=0.25, steps=4)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,t,x0,x1,H"
    assert len(lines) == 6
    row = lines[4].split(",")
    assert int(row[0]) == 3
    assert float(row[1]) == traj.times[3]  # repr round-trips exactly
    assert float(row[4]) == traj.energies[3]


def test_action_compatibility(symplectic, rng):
    report = pl.check_action_compat(symplectic["action"], adjacent_pairs(symplectic),
                                    samples=5, rng=rng)
    assert report.passed and report.worst().max_residual <= 1e-9


def test_algebra_element_guard(symplectic):
    with pytest.raises(ValueError):
        symplectic["action"].algebra_element(2, [1.0])  # 5 generators, 1 coefficient


def test_momentum_map_verifies(symplectic, rng):
    omega, action, mu = symplectic["omega"], symplectic["action"], symplectic["momentum"]
    coeffs = [1.0, 0.0, 0.0, 0.0, 0.0]
    report = pl.momentum_verify(omega, action, mu, coeffs, 2, samples=10, rng=rng)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["action preserves the form"].max_residual <= 1e-8
    assert by_name["momentum field matches the action generator"].max_residual <= 1e-6
    mixed = pl.momentum_verify(omega, action, mu, [0.5, -2.0, 0.0, 0.0, 0.0], 3,
                               samples=10, rng=rng)
    assert mixed.passed


def test_momentum_sign_flip_is_caught(symplectic, rng):
    omega, action, mu = symplectic["omega"], symplectic["action"], symplectic["momentum"]
    flipped = pl.MomentumMap(action, [pl.linear_combination([f], [-1.0])
                                      for f in mu.functions])
    report = pl.momentum_verify(omega, action, flipped, [1.0, 0, 0, 0, 0], 2,
                                samples=5, rng=rng)
    assert not report.passed


def test_non_symplectic_action_raises(symplectic, rng):
    fam = symplectic.family
    dilation = pl.ProfiniteGroupAction(
        family=fam,
        generators=lambda m: [np.eye(2 * m)],
        act=lambda m, g, x: g @ x,
        restrict=lambda J, K, g: g[:2 * J, :2 * J],
        name="dilation")
    mu = pl.MomentumMap(dilation, [symplectic["hamiltonian"]])
    with pytest.raises(pl.NonSymplecticAction):
        pl.momentum_verify(symplectic["omega"], dilation, mu, [1.0], 2,
                           samples=3, rng=rng)


def test_exp_of_pair_rotation_generator_is_cos_sin(symplectic):
    action = symplectic["action"]
    for pair, xi in enumerate(action.generators(3)[:3]):  # pairs of level 3
        for theta in (0.3, 2.0, -7.5):
            expected = np.eye(6)
            c, s = np.cos(theta), np.sin(theta)
            expected[2 * pair:2 * pair + 2, 2 * pair:2 * pair + 2] = [[c, -s], [s, c]]
            assert np.allclose(action.exp(theta * xi), expected, rtol=0, atol=1e-14)


def test_exp_nilpotent_is_exact_and_dim_zero(symplectic):
    action = symplectic["action"]
    assert np.array_equal(action.exp(np.array([[0.0, 1.0], [0.0, 0.0]])),
                          np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert action.exp(np.zeros((0, 0))).shape == (0, 0)
    assert np.array_equal(action.exp(np.zeros((3, 3))), np.eye(3))


@pytest.mark.parametrize("norm", [0.1, 1.0, 5.0, 20.0, 50.0])
def test_exp_inverse_and_symmetric_closed_form(symplectic, norm):
    action = symplectic["action"]
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 8):
        A = rng.standard_normal((n, n))
        skew = A - A.T if n > 1 else A     # a 1x1 skew matrix is zero
        skew = skew * (norm / np.abs(skew).sum(axis=0).max())
        assert np.allclose(action.exp(skew) @ action.exp(-skew), np.eye(n),
                           rtol=0, atol=1e-12)
        sym = (A + A.T) * (norm / np.abs(A + A.T).sum(axis=0).max())
        w, V = np.linalg.eigh(sym)
        closed = (V * np.exp(w)) @ V.T
        assert np.max(np.abs(action.exp(sym) - closed)) <= 1e-12 * np.max(np.abs(closed))


def test_leapfrog_refuses_coupled_hamiltonian(symplectic):
    H = pl.cylindrical_from_expression(symplectic.family, [1],
                                       "(sqr(x0) + sqr(x1))/2 + x0*x1")
    x0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="implicit-midpoint"):
        pl.flow(symplectic["omega"], H, 1, x0, dt=1e-2, steps=10)
    traj = pl.flow(symplectic["omega"], H, 1, x0, dt=1e-2, steps=10,
                   scheme="implicit-midpoint")
    assert traj.energy_drift() < 1e-10


def _array_oscillator(family, level):
    """The oscillator at a level, its gradient a plain array map with no list
    evaluator, so the leapfrog evaluates it on an array and reads it back."""
    dim = family.dim(level)
    grad = pl.DifferentiableMap(dim, dim, fn=lambda x: x.copy(), name="array gradient")
    base = pl.ScalarMap(grad, lambda x: np.array([0.5 * float(x @ x)]), name="H")
    return pl.CylindricalFunction(family, pl.Section.of(family.poset, [level]), base)


def _leapfrog_hamiltonians(symplectic):
    return [(2, symplectic["hamiltonian_at"](2)),
            (3, pl.cylindrical_from_expression(symplectic.family, [3], SEPARABLE_QUARTIC)),
            (1, _array_oscillator(symplectic.family, 1))]


def test_leapfrog_reuses_the_closing_gradient_bit_for_bit(symplectic):
    rng = np.random.default_rng(11)
    # one block of Python-float states, then three with a partial last one
    for steps in (300, 2 * symplectic_module._LEAPFROG_BLOCK + 1):
        for level, H in _leapfrog_hamiltonians(symplectic):
            x0 = rng.uniform(-1.0, 1.0, symplectic.family.dim(level))
            traj = pl.flow(symplectic["omega"], H, level, x0, dt=1e-2, steps=steps)
            want = leapfrog_three_gradients(lambda x: H.base.jacobian(x).ravel(), x0, 1e-2,
                                            steps)
            assert traj.states.tobytes() == want.tobytes()
            # flow evaluates its energies in one batch, as rows does
            assert traj.energies.tobytes() == H.base.rows(want)[:, 0].tobytes()


@pytest.mark.parametrize("steps", [0, 1, 40])
def test_leapfrog_takes_two_gradients_per_step(symplectic, monkeypatch, steps):
    calls, inside = [], []
    real_leapfrog = symplectic_module._leapfrog

    def counted(*args, **kwargs):
        before = len(calls)
        out = real_leapfrog(*args, **kwargs)
        inside.append(calls[before:])
        return out

    monkeypatch.setattr(symplectic_module, "_leapfrog", counted)
    used = []
    for level, H in _leapfrog_hamiltonians(symplectic):
        calls.clear()
        inside.clear()
        # a gradient evaluates through its array fn or its list evaluator, and
        # the leapfrog calls the list evaluator when there is one
        gradient = H.base.gradient
        used.append("on_floats" if gradient.on_floats is not None else "fn")
        for attr in ("fn", "on_floats"):
            real = getattr(gradient, attr)
            if real is not None:
                monkeypatch.setattr(gradient, attr,
                                    lambda x, _g=real, _a=attr: calls.append(_a) or _g(x))
        dim = symplectic.family.dim(level)
        pl.flow(symplectic["omega"], H, level, np.linspace(-0.5, 0.5, dim),
                dt=1e-2, steps=steps)
        assert inside == [[used[-1]] * (2 * steps + 1)]
        # the separability probe's FD Hessian and the finite check at x0 come on top
        assert len(calls) == 2 * steps + 1 + 2 * dim + 1
    # the gallery oscillator and the expression H take the list; the array
    # oscillator keeps the leapfrog's array fallback counted
    assert used == ["on_floats", "on_floats", "fn"]


def test_hessian_is_lambdified_on_the_first_implicit_flow_only(symplectic, monkeypatch):
    import sympy
    calls = []
    real_lambdify = sympy.lambdify
    monkeypatch.setattr(sympy, "lambdify",
                        lambda *a, **k: calls.append(1) or real_lambdify(*a, **k))
    omega, fam = symplectic["omega"], symplectic.family
    separable = pl.cylindrical_from_expression(fam, [3], SEPARABLE_QUARTIC)
    assert len(calls) == 2                                  # value and gradient
    pl.flow(omega, separable, 3, np.linspace(-0.5, 0.5, 6), dt=1e-2, steps=5)
    assert len(calls) == 2
    coupled = pl.cylindrical_from_expression(fam, [2], COUPLED_QUARTIC)
    for _ in range(2):
        pl.flow(omega, coupled, 2, np.linspace(-0.5, 0.5, 4), dt=1e-2, steps=5,
                scheme="implicit-midpoint")
        assert len(calls) == 5                              # one Hessian, once


@pytest.mark.parametrize("kind", ["expression", "gallery"])
def test_newton_iterates_take_fd_gradients_only_without_an_analytic_hessian(
        symplectic, monkeypatch, kind):
    H = (pl.cylindrical_from_expression(symplectic.family, [2], COUPLED_QUARTIC)
         if kind == "expression" else symplectic["hamiltonian_at"](2))
    counts = {"grad": 0, "fd": 0, "fd_grad": 0}
    real_gradient, real_fd = H.base.gradient.fn, maps_module.fd_jacobian

    def gradient(x):
        counts["grad"] += 1
        return real_gradient(x)

    def fd(fn, x, codomain_dim):
        before = counts["grad"]
        out = real_fd(fn, x, codomain_dim)
        counts["fd"] += 1
        counts["fd_grad"] += counts["grad"] - before
        return out

    monkeypatch.setattr(H.base.gradient, "fn", gradient)
    monkeypatch.setattr(maps_module, "fd_jacobian", fd)
    steps, dim = 20, 4
    pl.flow(symplectic["omega"], H, 2, np.linspace(-0.5, 0.5, dim), dt=1e-2,
            steps=steps, scheme="implicit-midpoint")
    # a step takes a predictor gradient, one per Newton iterate and a final
    # converged check, and flow checks the gradient at x0 once, which is the
    # first step's predictor, so the iterates are what the remaining gradients leave
    iterates = counts["grad"] - counts["fd_grad"] - 2 * steps
    assert iterates >= steps
    if kind == "expression":
        assert counts["fd"] == 0
    else:
        assert counts["fd"] == iterates
        assert counts["fd_grad"] == 2 * dim * iterates


def test_a_gradient_is_a_fresh_array(symplectic):
    # ScalarMap's contract: a gradient value is a fresh array, never a view of
    # x, and a list evaluator's value a fresh list, since the leapfrog kicks
    # its state list in place after it reads the gradient
    for level, H in _leapfrog_hamiltonians(symplectic):
        x = np.linspace(-0.5, 0.5, symplectic.family.dim(level))
        assert not np.shares_memory(H.base.gradient.fn(x), x)
        if H.base.gradient.on_floats is not None:
            xs = x.tolist()
            assert H.base.gradient.on_floats(xs) is not xs


def test_level_function_of_its_own_level_is_the_base(symplectic):
    H = symplectic["hamiltonian_at"](2)
    assert pl.level_function(H, 2) is H.base


def _stretched_omega(family):
    """The canonical form with dx0 ^ dx1 scaled by 1 + x0^2: closed, since
    the one varying coefficient multiplies dx0 ^ dx1 and reads x0 alone, and
    nondegenerate everywhere."""
    import sympy

    def exprs(J):
        dim = family.dim(J)
        syms = sympy.symbols(f"x0:{dim}")
        comps = np.array(pl.canonical_omega(dim), dtype=object)
        comps[0, 1] = 1 + syms[0] ** 2
        comps[1, 0] = -(1 + syms[0] ** 2)
        return syms, comps

    return pl.symbolic_form(family, 2, exprs, name="stretched")


def test_implicit_midpoint_reads_an_x_dependent_form_at_every_midpoint(symplectic):
    omega = _stretched_omega(symplectic.family)
    assert omega.kind != "constant"
    H = symplectic["hamiltonian_at"](1)
    x0 = np.array([0.8, -0.3])
    traj = pl.flow(omega, H, 1, x0, dt=1e-2, steps=60, scheme="implicit-midpoint")

    def gradient(x):
        return H.base.jacobian(x).ravel()

    def solve_with(form_at):
        def solve(x):
            mat, g = form_at(x), gradient(x)
            return mat, g, np.linalg.solve(mat.T, g)
        return solve

    def hessian(x):
        return maps_module.fd_jacobian(gradient, x, 2)

    solve = solve_with(lambda x: omega.matrix(1, x))
    want = symplectic_module._implicit_midpoint(solve, hessian, x0, solve(x0)[2], 1e-2, 60)
    assert traj.states.tobytes() == want.tobytes()
    # the frozen form at x0 gives another trajectory, so the gate is seen
    frozen = omega.matrix(1, x0)
    frozen_solve = solve_with(lambda x: frozen)
    stale = symplectic_module._implicit_midpoint(frozen_solve, hessian, x0,
                                                 frozen_solve(x0)[2], 1e-2, 60)
    assert traj.states.tobytes() != stale.tobytes()


@pytest.mark.parametrize("scheme", ["leapfrog", "implicit-midpoint"])
def test_constant_form_is_read_a_fixed_number_of_times(symplectic, monkeypatch, scheme):
    omega = symplectic["omega"]
    assert omega.kind == "constant"
    H = symplectic["hamiltonian_at"](1)
    calls, counts = [], []
    real_comps = omega.comps
    monkeypatch.setattr(omega, "comps", lambda J, x: calls.append(1) or real_comps(J, x))
    for steps in (3, 30):
        calls.clear()
        pl.flow(omega, H, 1, np.array([1.0, 0.0]), dt=1e-2, steps=steps, scheme=scheme)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_identity_residual_reads_the_form_and_gradient_once(monkeypatch):
    g = pl.symplectic_even_tower(3)
    omega, H = g["omega"], g["hamiltonian_at"](2)
    comps, lfs = [], []
    real_comps, real_lf = omega.comps, symplectic_module.level_function
    monkeypatch.setattr(omega, "comps", lambda J, x: comps.append(J) or real_comps(J, x))
    monkeypatch.setattr(symplectic_module, "level_function",
                        lambda f, J: lfs.append(J) or real_lf(f, J))
    pl.hamiltonian_identity_residual(omega, H, 2, np.array([0.3, -1.0, 2.0, 0.5]))
    assert comps == [2] and lfs == [2]


def test_identity_residual_is_bit_identical_to_reading_twice():
    g = pl.symplectic_even_tower(3)
    omega, H = g["omega"], g["hamiltonian_at"](2)
    structure = pl.SymplecticStructure.build(omega, [1, 2, 3])
    for x in np.random.default_rng(3).standard_normal((20, 4)) * 3.0:
        # the form and the gradient read again after the solve, as before
        X = pl.hamiltonian_field(structure.omega, H, 2, x)
        want = pl.maps.residual(omega.matrix(2, x).T @ X,
                                pl.level_function(H, 2).jacobian(x).ravel())
        got = pl.hamiltonian_identity_residual(structure.omega, H, 2, x)
        assert got.hex() == want.hex()


# ---------------------------------------------------------------------------
# constant forms are read once per level; a generic twin of the same matrices
# is read at every sample and must give the same reports bit for bit


def _generic_twin(form):
    return pl.TameForm(form.family, 2, comps=lambda J, x: form.payload(J), name=form.name)


def _checks(report):
    return [(c.name, c.max_residual.hex(), c.tol, c.passed, c.detail) for c in report.checks]


def _twin_audits(g, H, ham_pairs):
    """Every constant-form audit on g's form and on its generic twin, from
    equal seeds; the stream position after each audit is recorded too."""
    omega = g["omega"]
    els = levels(g)
    pairs = [(a, b) for a in els for b in els if a <= b]
    outs = []
    for form in (omega, _generic_twin(omega)):
        assert form.is_constant == (form is omega)
        rng = np.random.default_rng(11)
        structure = pl.SymplecticStructure.build(form, els, samples=4, rng=rng)
        out = [_checks(pl.check_tame(form, pairs, samples=4, rng=rng)), rng.random(),
               structure.closedness_residual.hex(), structure.rank_profile, rng.random(),
               pl.is_projectively_nondegenerate(form, els, samples=4, rng=rng), rng.random(),
               _checks(pl.hamiltonian_compat_check(structure.omega, H, ham_pairs, samples=4,
                                                   rng=rng)), rng.random()]
        if "action" in g.extras:
            top = els[-1]
            coeffs = list(np.linspace(-1.0, 1.0, len(g["momentum"].functions)))
            out += [_checks(pl.momentum_verify(form, g["action"], g["momentum"], coeffs, top,
                                               samples=4, rng=rng)), rng.random()]
        outs.append(out)
    return outs


def test_constant_form_audits_match_their_generic_twin():
    g = pl.symplectic_even_tower(3)
    const, generic = _twin_audits(g, g["hamiltonian_at"](1), adjacent_pairs(g))
    assert const == generic


def test_odd_tower_audits_match_their_generic_twin():
    g = pl.odd_symplectic_tower(5)
    H = pl.cylindrical_from_expression(g.family, [2], "x0*x0 + x1*x1")
    const, generic = _twin_audits(g, H, [(2, 4)])
    assert const == generic
    assert const[5][1][3] == {"dim": 3, "rank": 2, "full": False}


def test_degenerate_level_raises_the_same_message_from_the_twin():
    g = pl.odd_symplectic_tower(5)
    H = pl.cylindrical_from_expression(g.family, [2], "x0*x0 + x1*x1")
    messages = []
    for form in (g["omega"], _generic_twin(g["omega"])):
        for call in (lambda: pl.hamiltonian_compat_check(form, H, [(2, 4), (4, 5)], samples=3),
                     lambda: pl.hamiltonian_field(form, H, 3, np.ones(3))):
            with pytest.raises(pl.SingularForm) as err:
                call()
            messages.append(str(err.value))
    assert messages[:2] == messages[2:] == ["form is degenerate at level 5 (rank 4 < 5)",
                                            "form is degenerate at level 3 (rank 2 < 3)"]


def _count(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or real(*a))
    return calls


def test_constant_form_ranks_once_per_level(symplectic, monkeypatch):
    ranks = _count(monkeypatch, symplectic_module, "level_rank")
    els = levels(symplectic)
    pl.SymplecticStructure.build(symplectic["omega"], els, samples=10)
    assert len(ranks) == len(els)
    ranks.clear()
    pl.is_projectively_nondegenerate(symplectic["omega"], els, samples=10)
    assert len(ranks) == len(els)
    ranks.clear()
    # the generic twin is ranked at every sample, so the count above is a gate
    pl.is_projectively_nondegenerate(_generic_twin(symplectic["omega"]), els, samples=10)
    assert len(ranks) == 10 * len(els)


def test_hamiltonian_checks_solve_with_one_solver_per_level(symplectic, monkeypatch):
    ranks = _count(monkeypatch, symplectic_module, "level_rank")
    builds = _count(monkeypatch, symplectic_module, "level_function")
    pairs = adjacent_pairs(symplectic)
    pl.hamiltonian_compat_check(symplectic["omega"], symplectic["hamiltonian"], pairs,
                                samples=10)
    assert len(ranks) <= 2 * len(pairs)
    assert sorted(J for _, J in builds) == levels(symplectic)
    ranks.clear()
    builds.clear()
    pl.momentum_verify(symplectic["omega"], symplectic["action"], symplectic["momentum"],
                       [1.0, 0.0, 0.0, 0.0, 0.0], 3, samples=10)
    assert len(ranks) == 1 and [J for _, J in builds] == [3]


def test_check_tame_reads_a_constant_form_twice_per_pair(symplectic, monkeypatch):
    omega = symplectic["omega"]
    els = levels(symplectic)
    pairs = [(a, b) for a in els for b in els if a <= b]
    strict = sum(a < b for a, b in pairs)
    twin = _generic_twin(omega)
    comps = _count(monkeypatch, omega, "comps")
    assert pl.check_tame(omega, pairs, samples=10).passed
    assert 0 < len(comps) <= 2 * strict
    twin_comps = _count(monkeypatch, twin, "comps")
    pl.check_tame(twin, pairs, samples=10)
    assert len(twin_comps) == 2 * 10 * strict


def test_momentum_verify_reads_a_constant_form_once_for_every_element(symplectic, monkeypatch):
    omega, action, mu = symplectic["omega"], symplectic["action"], symplectic["momentum"]
    twin = _generic_twin(omega)
    comps = _count(monkeypatch, omega, "comps")
    pl.momentum_verify(omega, action, mu, [1.0, 0.0, 0.0, 0.0, 0.0], 3, samples=10)
    # one read for the preservation check, one for the field solver
    assert len(comps) == 2
    twin_comps = _count(monkeypatch, twin, "comps")
    pl.momentum_verify(twin, action, mu, [1.0, 0.0, 0.0, 0.0, 0.0], 3, samples=10)
    assert len(twin_comps) == 2 * symplectic_module.GROUP_ELEMENTS + 10


@pytest.mark.parametrize("seed", range(5))
def test_implicit_midpoint_matches_the_array_oracle_bit_for_bit(symplectic, seed):
    omega = symplectic["omega"]
    H = pl.cylindrical_from_expression(symplectic.family, [2], COUPLED_QUARTIC)
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
    traj = pl.flow(omega, H, 2, x0, dt=1e-2, steps=300, scheme="implicit-midpoint")
    solve = symplectic_module.hamiltonian_solver(omega, H, 2)
    want = implicit_midpoint_arrays(solve, symplectic_module.level_gradient(H, 2).jacobian, x0,
                                    solve(x0)[2], 1e-2, 300)
    assert traj.states.tobytes() == want.tobytes()


def test_implicit_midpoint_on_a_stretched_form_matches_the_array_oracle(symplectic):
    omega = _stretched_omega(symplectic.family)
    H = symplectic["hamiltonian_at"](1)
    x0 = np.array([0.8, -0.3])
    traj = pl.flow(omega, H, 1, x0, dt=1e-2, steps=60, scheme="implicit-midpoint")
    solve = symplectic_module.hamiltonian_solver(omega, H, 1)
    want = implicit_midpoint_arrays(solve, symplectic_module.level_gradient(H, 1).jacobian, x0,
                                    solve(x0)[2], 1e-2, 60)
    assert traj.states.tobytes() == want.tobytes()


def test_implicit_midpoint_stalls_at_the_oracles_step(symplectic):
    H = pl.cylindrical_from_expression(symplectic.family, [1], "exp(x0) + sqr(x1)/2")
    solve = symplectic_module.hamiltonian_solver(symplectic["omega"], H, 1)
    x0 = np.array([-1.0, 1.0])
    args = (solve, symplectic_module.level_gradient(H, 1).jacobian, x0, solve(x0)[2], 0.3, 100, 3)
    with pytest.raises(pl.NonconvergentSolve) as want:
        implicit_midpoint_arrays(*args)
    with pytest.raises(pl.NonconvergentSolve) as got:
        symplectic_module._implicit_midpoint(*args)
    assert str(got.value) == str(want.value) == "implicit midpoint stalled at step 4"


def _lopsided_oscillator(family, length):
    """The oscillator at level 2 whose gradient has `length` entries once
    x0 passes 0.5, and the right four before."""
    def gradient(x):
        return np.resize(x, length) if x[0] > 0.5 else x.copy()

    grad = pl.DifferentiableMap(4, 4, fn=gradient, name="lopsided")
    base = pl.ScalarMap(grad, lambda x: np.array([0.5 * float(x @ x)]), name="H")
    return pl.CylindricalFunction(family, pl.Section.of(family.poset, [2]), base)


@pytest.mark.parametrize("length", [3, 5], ids=["short", "long"])
@pytest.mark.parametrize("start, frame", [(0.9, "solve"), (0.0, "_leapfrog")],
                         ids=["at-x0", "in-the-loop"])
def test_leapfrog_refuses_a_gradient_of_the_wrong_length(symplectic, length, start, frame):
    H = _lopsided_oscillator(symplectic.family, length)
    x0 = np.array([start, 1.0, 0.0, 1.0])
    with pytest.raises(pl.DimensionMismatch,
                       match=rf"^lopsided: value has dim {length}, expected 4$") as err:
        pl.flow(symplectic["omega"], H, 2, x0, dt=1e-2, steps=100)
    assert err.traceback[-1].name == frame


@pytest.mark.parametrize("length", [3, 5], ids=["short", "long"])
@pytest.mark.parametrize("start", [0.9, 0.0], ids=["at-x0", "in-the-loop"])
def test_implicit_midpoint_refuses_a_gradient_of_the_wrong_length(symplectic, length, start):
    H = _lopsided_oscillator(symplectic.family, length)
    x0 = np.array([start, 1.0, 0.0, 1.0])
    with pytest.raises(pl.DimensionMismatch,
                       match=rf"^lopsided: value has dim {length}, expected 4$"):
        pl.flow(symplectic["omega"], H, 2, x0, dt=1e-2, steps=100,
                scheme="implicit-midpoint")


@pytest.mark.parametrize("bad_call", [1, 2], ids=["at-x0", "after-the-first-half-kick"])
def test_leapfrog_refuses_a_list_gradient_of_the_wrong_length(bad_call):
    """The list evaluator's length is checked after every call: the one at
    x0 and the one after the first half kick included."""
    calls = []

    def on_floats(xs):
        calls.append(1)
        return list(xs) if len(calls) < bad_call else list(xs[:1])

    grad = pl.DifferentiableMap(2, 2, fn=lambda x: x.copy(), name="listy")
    grad.on_floats = on_floats
    with pytest.raises(pl.DimensionMismatch, match=r"^listy: value has dim 1, expected 2$"):
        symplectic_module._leapfrog(grad, np.array([1.0, 1.0]), 1e-2, 10)
    assert len(calls) == bad_call

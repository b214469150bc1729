"""End-to-end acceptance gate.

Each test implements one numbered criterion at its stated tolerance and is
tagged with the ``criterion`` marker so the run prints one PASS/FAIL banner
line per criterion.  Tolerances here are contractual: do not loosen them to
make a red test green.
"""
import json
import math
import os

import numpy as np
import pytest

import proflim as pl
import proflim.cli as cli
from conftest import FIXTURE_DIR
from oracles import oscillator_exact, powerset_sections


def quadratic_on(family, level):
    dim = family.dim(level)
    sec = pl.Section.of(family.poset, [level])
    base = pl.DifferentiableMap(
        dim, 1,
        fn=lambda x: np.array([float(x @ x) + x[0]]),
        jac=lambda x: (2 * x + np.eye(dim)[0]).reshape(1, dim))
    return pl.CylindricalFunction(family, sec, base)


def corner_thread(family, master):
    """Thread over a corner-truncation tower from one master vector/matrix."""
    flat = np.asarray(master, float).ravel()
    if np.asarray(master).ndim == 2:
        return pl.Thread(family, lambda n: np.asarray(master)[:n, :n].ravel())
    return pl.Thread(family, lambda J: flat[:family.dim(J)])


@pytest.mark.criterion(1, "structural axioms hold on every gallery family")
def test_criterion_01_structural_axioms(euclid, poly, matrix, cross, wiener,
                                        symplectic, odd_tower):
    for g in (euclid, poly, matrix, cross, wiener, symplectic, odd_tower):
        rep = pl.verify_family(g.family, points_per_chain=100, tol=1e-9,
                               rng=np.random.default_rng(11))
        assert rep.passed, f"{g.name}: {rep.worst().line()}"
        assert rep.worst().max_residual <= 1e-9


@pytest.mark.criterion(2, "section enumeration matches the power-set oracle")
def test_criterion_02_sections_match_bruteforce(cross):
    # chains of every length up to 12 give exactly the singletons
    for n in (1, 4, 8, 12):
        p = pl.chain_poset(range(n))
        secs = pl.enumerate_sections(p)
        assert [set(s.members) for s in secs] == [{k} for k in range(n)]
    # non-chain posets with |A| <= 12 against brute force
    probes = [cross.family.poset,
              pl.subset_poset([0.25, 0.5, 1.0]),       # 7 elements
              pl.finite_poset(range(6), lambda a, b: a == b or b == a + 2)]
    for p in probes:
        assert len(list(p.elements)) <= 12
        got = {frozenset(s.members) for s in pl.enumerate_sections(p)}
        want = set(powerset_sections(p.elements, p.leq))
        assert got == want


@pytest.mark.criterion(3, "cylindrical evaluation is exact and separates points")
def test_criterion_03_eval_and_separation(euclid):
    fam = euclid.family
    rng = np.random.default_rng(3)
    for _ in range(100):
        level = int(rng.integers(1, 10))
        f = quadratic_on(fam, level)
        t = euclid["sequence_thread"](rng.standard_normal(10))
        assert f(t) == pl.eval_representative(f, pl.representative(f, t))
    for _ in range(100):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        if np.array_equal(a, b):
            continue
        x = euclid["sequence_thread"](a)
        y = euclid["sequence_thread"](b)
        f = pl.separate(x, y, witness_levels=range(11))
        assert f is not None and f(x) != f(y)


@pytest.mark.criterion(4, "pseudo-distances: bounds, triangle, frozen values")
def test_criterion_04_pseudo_distances(euclid):
    fam = euclid.family
    m = euclid["metrics"]
    rng = np.random.default_rng(4)

    # frozen example: d_inf(0, (3,4,0,...)) = phi(5) = 5/6, flat from level 2
    stages = [[1], [2], [3, 4], [5, 6, 7, 8, 9, 10]]
    value, converged, history = pl.d_inf(m, euclid["origin"],
                                         euclid["three_four"], stages)
    assert abs(value - 5.0 / 6.0) <= 1e-12
    assert converged and history == sorted(history)
    assert all(0.0 <= h <= 1.0 for h in history)

    # bounds and monotone enlargement on random pairs
    for _ in range(10):
        x = euclid["sequence_thread"](rng.standard_normal(10))
        y = euclid["sequence_thread"](rng.standard_normal(10))
        v, _, hist = pl.d_inf(m, x, y, [[k] for k in range(1, 11)])
        assert 0.0 <= v <= 1.0 and hist == sorted(hist)

    # triangle inequality at 1e-12 over C(8,3) = 56 >= 50 triples
    threads = [euclid["sequence_thread"](rng.standard_normal(10))
               for _ in range(8)]
    audit = pl.pseudo_metric_audit(
        lambda a, b: pl.d_inf(m, a, b, [list(range(1, 11))])[0],
        threads, tol=1e-12, check_positive=True)
    assert audit.passed

    # weighted ultrametric on the chain: frozen value and ultrametric law
    dm = pl.discrete_metrics(fam)
    mu = euclid["inverse_square_measure"]
    x = euclid["origin"]
    y = euclid["sequence_thread"](np.array([0.0] + [1.0] * 9))
    got, err = pl.d_mu(dm, mu, x, y)
    exact = (math.pi ** 2 / 6.0 - 1.0) / 2.0
    assert abs(got + mu.tail_mass / 2.0 - exact) <= 1e-12
    assert got <= exact <= got + err
    rounded = [euclid["sequence_thread"](np.round(rng.standard_normal(10)))
               for _ in range(8)]
    ultra = pl.pseudo_metric_audit(
        lambda a, b: pl.d_mu(dm, mu, a, b)[0], rounded,
        tol=1e-12, check_ultrametric=True)
    assert ultra.passed


@pytest.mark.criterion(5, "cylindrical calculus: retraction, d^2 = 0, pullback, tameness")
def test_criterion_05_calculus(euclid, symplectic, odd_tower):
    from oracles import exterior_derivative_fd
    fam = euclid.family
    rng = np.random.default_rng(5)

    def comps(J, x):
        out = np.zeros(fam.dim(J))
        out[0] = x[1] ** 2
        out[1] = x[0] * x[2]
        out[2] = x[2] ** 2
        return out

    form = pl.TameForm(fam, 1, comps, name="a")

    # i* o pi* = id on linear towers, 1e-12
    for J, K in [(3, 5), (4, 9), (3, 10)]:
        inj = fam.inj(K, J)
        for _ in range(10):
            x = rng.standard_normal(J)
            pushed = pl.pushforward_proj(form, J, K, inj(x))
            back = pl.pull_components(pushed, inj.jacobian(x))
            assert np.max(np.abs(back - form.comps(J, x))) <= 1e-12

    # d^2 = 0: finite differences at 1e-5 on a genuinely non-closed form
    d = pl.exterior_derivative(form)
    probe = np.array([1.0, 2.0, 3.0])
    assert np.max(np.abs(d.comps(3, probe))) > 0.5  # the form is not closed
    for _ in range(5):
        x = rng.standard_normal(4)
        dd_fd = exterior_derivative_fd(lambda y: d.comps(4, y), x, 4, 2)
        assert np.max(np.abs(dd_fd)) <= 1e-5

    # d^2 = 0 exactly on polynomial (symbolic) components
    import sympy

    def exprs(J):
        dim = fam.dim(J)
        syms = sympy.symbols(f"x0:{dim}")
        row = [sympy.Integer(0)] * dim
        row[0], row[1], row[2] = syms[1] ** 2, syms[0] * syms[2], syms[2] ** 2
        return syms, np.array(row, dtype=object)

    sym_form = pl.symbolic_form(fam, 1, exprs)
    dd = pl.exterior_derivative(pl.exterior_derivative(sym_form))
    assert np.max(np.abs(dd.comps(4, rng.standard_normal(4)))) == 0.0

    # pullback commutes with d at 1e-5
    I, K = 3, 6
    pulled = pl.pulled_level_field(form, I, K)
    for _ in range(5):
        x = rng.standard_normal(I)
        d_of_pull = exterior_derivative_fd(pulled, x, I, 1)
        pull_of_d = pl.pullback_inj(d, I, K, x)
        assert np.max(np.abs(d_of_pull - pull_of_d)) <= 1e-5

    # tameness of the gallery forms at 1e-9 across all comparable pairs
    for g in (symplectic, odd_tower):
        pairs = [(J, K) for J in g.family.poset.elements
                 for K in g.family.poset.elements if g.family.poset.leq(J, K)]
        rep = pl.check_tame(g["omega"], pairs, samples=5,
                            rng=np.random.default_rng(55))
        assert rep.passed and rep.worst().max_residual <= 1e-9


@pytest.mark.criterion(6, "differential pairs with tangent threads like a derivative")
def test_criterion_06_tangent_duality(euclid, poly, matrix, symplectic):
    towers = [(euclid, 9), (poly, 9), (matrix, 6), (symplectic, 4)]
    rng = np.random.default_rng(6)
    for g, max_level in towers:
        fam = g.family
        masters = ((lambda: rng.standard_normal((8, 8)))
                   if g is matrix else
                   (lambda: rng.standard_normal(fam.dim(max_level) + 2)))
        for _ in range(20):
            level = int(rng.integers(1, max_level))
            f = quadratic_on(fam, level)
            for _ in range(20):
                base = corner_thread(fam, masters())
                direction = corner_thread(fam, masters())
                v = pl.TangentThread.from_threads(base, direction)
                assert pl.tangent_duality_check(f, v) < 1e-6

    # finitely-cylindrical certificate: the differential is carried by the
    # function's own finite section, so directions agreeing there pair equally
    f = quadratic_on(euclid.family, 4)
    assert set(f.section.members) == {4}
    t = euclid["sequence_thread"](rng.standard_normal(10))
    cov = pl.differential(f, t)
    assert cov.shape == (4,)
    head = rng.standard_normal(10)
    tail_a, tail_b = head.copy(), head.copy()
    tail_b[4:] = rng.standard_normal(6)  # differ strictly above the section
    va = euclid["sequence_thread"](tail_a)
    vb = euclid["sequence_thread"](tail_b)
    assert pl.pair_with_direction(f, cov, va) == pl.pair_with_direction(f, cov, vb)


@pytest.mark.criterion(7, "weak vs projective nondegeneracy on the odd tower")
def test_criterion_07_nondegeneracy(symplectic, odd_tower):
    rng = np.random.default_rng(7)
    levels = list(odd_tower.family.poset.elements)

    # the level-1 direction has no partner at its own level but is witnessed
    # one level up by the second basis vector
    hit, witness = pl.is_weakly_nondegenerate(odd_tower["omega"],
                                              np.array([1.0]), 1, levels)
    assert hit and witness == (2, 1, 1.0)

    ok, profile = pl.is_projectively_nondegenerate(
        symplectic["omega"], list(symplectic.family.poset.elements),
        samples=4, rng=rng)
    assert ok and all(info["full"] for info in profile.values())

    bad, profile = pl.is_projectively_nondegenerate(odd_tower["omega"], levels,
                                                    samples=4, rng=rng)
    assert not bad
    assert {d: info["rank"] for d, info in profile.items()} == \
        {1: 0, 2: 2, 3: 2, 4: 4, 5: 4}


@pytest.mark.criterion(8, "Hamiltonian mechanics: identity, compatibility, flow, momentum")
def test_criterion_08_hamiltonian_dynamics(symplectic):
    omega = symplectic["omega"]
    rng = np.random.default_rng(8)
    levels = list(symplectic.family.poset.elements)

    # defining identity omega(X_H, .) = dH at 1e-10 on every level
    for m in levels:
        H = symplectic["hamiltonian_at"](m)
        for _ in range(5):
            x = rng.standard_normal(2 * m)
            assert pl.hamiltonian_identity_residual(omega, H, m, x) <= 1e-10

    # projections intertwine the fields: Dpi . X_K = X_J at 1e-10
    rep = pl.hamiltonian_compat_check(omega, symplectic["hamiltonian"],
                                      list(zip(levels, levels[1:])),
                                      samples=5, tol=1e-10,
                                      rng=np.random.default_rng(88))
    assert rep.passed and rep.worst().max_residual <= 1e-10

    # leapfrog, dt = 1e-3 for 1e4 steps: drift 1e-6, radius error 1e-3
    H = symplectic["hamiltonian_at"](2)
    x0 = np.array([1.0, 0.0, 0.0, 1.0])
    traj = pl.flow(omega, H, 2, x0, dt=1e-3, steps=10_000)
    assert traj.energy_drift() <= 1e-6
    radii = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(radii - 1.0)) <= 1e-3
    assert np.max(np.abs(traj.states[-1] - oscillator_exact(x0, 10.0))) < 1e-4

    # rotation action: momentum map verified at 1e-6, sign flip caught
    action, mu = symplectic["action"], symplectic["momentum"]
    rep = pl.momentum_verify(omega, action, mu, [1.0, 0, 0, 0, 0], 2,
                             samples=10, tol=1e-6, rng=np.random.default_rng(89))
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["momentum field matches the action generator"].max_residual <= 1e-6
    flipped = pl.MomentumMap(action, [pl.linear_combination([f], [-1.0])
                                      for f in mu.functions])
    bad = pl.momentum_verify(omega, action, flipped, [1.0, 0, 0, 0, 0], 2,
                             samples=5, rng=np.random.default_rng(90))
    assert not bad.passed


@pytest.mark.criterion(9, "path-space family: pairing, cocycle, sampler, refinement")
def test_criterion_09_wiener(wiener):
    fam = wiener.family
    pool = list(wiener["pool"])
    rng = np.random.default_rng(9)

    # pairing formula equals direct summation, exactly
    S = frozenset(pool)
    values = wiener["sample_path"](S, rng)
    gamma = wiener["pl_path"](S, values)
    alpha = [(pool[int(rng.integers(len(pool)))], float(rng.standard_normal()))
             for _ in range(5)]
    direct = sum(c * values[pool.index(t)] for t, c in alpha)
    assert wiener["pairing"](alpha, gamma) == direct

    # injection cocycle and retraction on random inclusion triples, 1e-12
    worst = 0.0
    for _ in range(20):
        picks = [frozenset(t for t in pool if rng.random() < 0.5)
                 for _ in range(3)]
        T = min(picks, key=len)
        Smid = T | picks[1]
        U = Smid | picks[2]
        if not T or T == U:
            continue
        x = rng.standard_normal(len(T))
        via = fam.inj(U, Smid)(fam.inj(Smid, T)(x))
        direct = fam.inj(U, T)(x)
        worst = max(worst, float(np.max(np.abs(via - direct), initial=0.0)))
        worst = max(worst, float(np.max(np.abs(fam.proj(T, U)(direct) - x),
                                        initial=0.0)))
    assert worst <= 1e-12

    # sampler marginals: variance within 5 percent of t over 1e5 paths
    n = 100_000
    ts = np.asarray(pool, float)
    gaps = np.diff(np.concatenate([[0.0], ts]))
    increments = rng.standard_normal((n, ts.size)) * np.sqrt(gaps)
    paths = np.cumsum(increments, axis=1)
    rel = np.abs(paths.var(axis=0, ddof=1) - ts) / ts
    assert float(rel.max()) <= 0.05

    # cylindrical evaluation invariant under grid refinement, 1e-12
    master = {t: float(v) for t, v in zip(sorted(S), values)}
    thread = pl.Thread(fam, lambda Sx: np.array([master[t] for t in sorted(Sx)]))
    coarse = frozenset(pool[:2])
    f = pl.cylindrical_from_expression(fam, [coarse], "x0*x0 + sin(x1)")
    base_val = f(thread)
    for extra in range(2, len(pool) + 1):
        finer = pl.Section.of(fam.poset, [frozenset(pool[:extra])])
        assert abs(pl.reexpress(f, finer)(thread) - base_val) <= 1e-12


@pytest.mark.criterion(10, "heat-semigroup thread is exactly compatible on the matrix tower")
def test_criterion_10_matrix_thread(matrix):
    t = matrix["laplacian_exp"]
    pairs = [(J, K) for J in range(1, 9) for K in range(J, 9)]
    rep = pl.check_thread(t, pairs)
    assert rep.passed and rep.worst().max_residual == 0.0
    lvl2 = matrix["as_block"](2, t(2))
    want = np.diag([math.e, math.e ** 4])
    assert np.max(np.abs(lvl2 - want)) / np.max(np.abs(want)) <= 1e-12


@pytest.mark.criterion(11, "CLI: deterministic reports and the exit-code contract")
def test_criterion_11_cli(capsys):
    def run(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for args in (("symplectic", "--pairs", "2", "--samples", "20", "--seed", "7"),
                 ("wiener", "--samples", "20000", "--seed", "7"),
                 ("verify", "--family", "euclid_tower", "--max-level", "5",
                  "--samples", "10", "--seed", "7")):
        code1, out1, _ = run(*args)
        code2, out2, _ = run(*args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical under a fixed seed

    code, _, err = run("verify", "--family",
                       os.path.join(FIXTURE_DIR, "corrupted_family.json"))
    assert code == 1 and "retraction" in err

    assert run("verify", "--family", "moebius")[0] == 2
    assert run("distance", "--family", "euclid_tower")[0] == 2
    assert run("flow", "--family", "symplectic_even_tower",
               "--level", "1", "--x0", "oops")[0] == 2

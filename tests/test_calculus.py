import numpy as np
import pytest
import sympy

import proflim as pl
import proflim.calculus as calculus
from oracles import exterior_derivative_fd, pull_form


def nonclosed_comps(x):
    # 1-form a = x1^2 dx0 + x0*x2 dx1 + x2^2 dx2 on R^3: da != 0
    return np.array([x[1] ** 2, x[0] * x[2], x[2] ** 2])


def nonclosed_form(family):
    def comps(J, x):
        dim = family.dim(J)
        out = np.zeros(dim)
        out[:3] = nonclosed_comps(x[:3])
        return out
    return pl.TameForm(family, 1, comps, name="a")


def test_pull_components_matches_bruteforce_oracle(rng):
    """One point, and a stack of 5 sharing one Jacobian or taking one each:
    each stacked sample has the bits of its one-point call."""
    for degree in (0, 1, 2, 3):
        comps = rng.standard_normal((5,) + (4,) * degree)
        shared, each = rng.standard_normal((4, 6)), rng.standard_normal((5, 4, 6))
        for jac, jacs in ((shared, [shared] * 5), (each, each)):
            singles = [pl.pull_components(c, j) for c, j in zip(comps, jacs)]
            assert np.array_equal(pl.pull_components(comps, jac, degree), singles)
            assert np.allclose(singles, [pull_form(c, j) for c, j in zip(comps, jacs)],
                               atol=1e-12)


def test_alternating_sum_degree_one_by_hand(rng):
    partials = rng.standard_normal((5, 5))
    d = pl.alternating_sum(partials)
    assert np.allclose(d, partials - partials.T)


def test_exterior_derivative_fd_matches_oracle(euclid, rng):
    form = nonclosed_form(euclid.family)
    d = pl.exterior_derivative(form)
    for _ in range(10):
        x = rng.standard_normal(3)
        want = exterior_derivative_fd(nonclosed_comps, x, 3, 1)
        assert np.max(np.abs(d.comps(3, x) - want)) < 1e-5
    probe = exterior_derivative_fd(nonclosed_comps, np.array([1.0, 2.0, 3.0]), 3, 1)
    assert np.max(np.abs(probe)) > 0.5  # genuinely non-closed


def test_d_squared_zero_fd(euclid, rng):
    dd = pl.exterior_derivative(pl.exterior_derivative(nonclosed_form(euclid.family)))
    for _ in range(10):
        x = rng.standard_normal(3)
        assert np.max(np.abs(dd.comps(3, x))) < 1e-5


def test_d_squared_exactly_zero_symbolic(euclid, rng):
    fam = euclid.family

    def exprs(J):
        dim = fam.dim(J)
        syms = sympy.symbols(f"x0:{dim}")
        row = [sympy.Integer(0)] * dim
        row[0] = syms[1] ** 2
        row[1] = syms[0] * syms[2]
        row[2] = syms[2] ** 2
        return np.array(row, dtype=object)

    form = pl.symbolic_form(fam, 1, exprs, name="a")
    d = pl.exterior_derivative(form)
    dd = pl.exterior_derivative(d)
    x = rng.standard_normal(4)
    assert d.kind == "symbolic"
    assert np.max(np.abs(dd.comps(4, x))) == 0.0  # exact, not approx
    # sanity: symbolic d agrees with the FD oracle
    want = exterior_derivative_fd(nonclosed_comps, x[:3].copy(), 3, 1)
    assert np.max(np.abs(d.comps(3, x[:3]) - want)) < 1e-5


def test_d_of_constant_form_is_zero(symplectic, rng):
    omega = symplectic["omega"]
    assert omega.kind == "constant"
    d = pl.exterior_derivative(omega)
    x = rng.standard_normal(symplectic.family.dim(2))
    assert np.max(np.abs(d.comps(2, x))) == 0.0


def test_retraction_identity_on_forms(euclid, rng):
    # pulling a level-J form up through proj and back through inj is the
    # identity because proj o inj = id and the maps are linear
    fam = euclid.family
    form = nonclosed_form(fam)
    for J, K in [(3, 5), (4, 9), (3, 10)]:
        inj = fam.inj(K, J)
        for _ in range(10):
            x = rng.standard_normal(J)
            pushed = pl.pushforward_proj(form, J, K, inj(x))
            back = pl.pull_components(pushed, inj.jacobian(x))
            assert np.max(np.abs(back - form.comps(J, x))) < 1e-12


def test_pullback_commutes_with_d(euclid, rng):
    fam = euclid.family
    form = nonclosed_form(fam)
    d = pl.exterior_derivative(form)
    I, K = 3, 6
    pulled = pl.pulled_level_field(form, I, K)
    for _ in range(5):
        x = rng.standard_normal(I)
        d_of_pull = exterior_derivative_fd(pulled, x, I, 1)
        pull_of_d = pl.pullback_inj(d, I, K, x)
        assert np.max(np.abs(d_of_pull - pull_of_d)) < 1e-5


def test_check_tame_on_gallery_omegas(symplectic, odd_tower, rng):
    for g in (symplectic, odd_tower):
        pairs = [(J, K) for J in g.family.poset.elements
                 for K in g.family.poset.elements if g.family.poset.leq(J, K)]
        report = pl.check_tame(g["omega"], pairs, samples=5, rng=rng)
        assert report.passed
        assert report.worst().max_residual <= 1e-9


def test_check_tame_catches_incompatible_form(euclid, rng):
    fam = euclid.family
    bad = pl.constant_form(fam, 1, lambda J: np.full(fam.dim(J), float(fam.dim(J))))
    report = pl.check_tame(bad, [(2, 3)], samples=3, rng=rng)
    assert not report.passed


def test_form_shape_validation(euclid):
    form = pl.TameForm(euclid.family, 1, lambda J, x: np.zeros(3), name="bad")
    with pytest.raises(ValueError):
        form.comps(5, np.zeros(5))
    with pytest.raises(ValueError):
        form.matrix(3, np.zeros(3))  # degree 1 has no matrix


def test_metric_check_riemannian_identity(euclid, rng):
    g = pl.CompatibleMetric(euclid.family, "riemannian",
                            gram=lambda J, x: np.eye(euclid.family.dim(J)))
    pairs = [(n, n + 1) for n in range(1, 10)]
    report = pl.metric_check(g, pairs, samples=5, rng=rng)
    assert report.passed and report.worst().max_residual <= 1e-12


def test_metric_check_flags_indefinite_riemannian(euclid, rng):
    g = pl.CompatibleMetric(euclid.family, "riemannian",
                            gram=lambda J, x: -np.eye(euclid.family.dim(J)))
    report = pl.metric_check(g, [(2, 3)], samples=3, rng=rng)
    assert not report.passed


def test_metric_check_pseudo_signature(euclid, rng):
    def gram(J, x):
        d = euclid.family.dim(J)
        return np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    g = pl.CompatibleMetric(euclid.family, "pseudo-riemannian", gram=gram)
    assert pl.metric_check(g, [(4, 4)], samples=3, rng=rng).passed
    # levels of different dimension have different signatures; each is
    # constant in x, so the compatible tower passes
    assert pl.metric_check(g, [(2, 4)], samples=3, rng=rng).passed

    def flipping(J, x):  # level 4's last entry takes the sign of x0
        out = gram(J, x)
        if J == 4:
            out[3, 3] = np.sign(x[0])
        return out
    report = pl.metric_check(pl.CompatibleMetric(euclid.family, "pseudo-riemannian",
                                                 gram=flipping), [(2, 4)], samples=20, rng=rng)
    checks = {c.name: c for c in report.checks}
    assert checks["injection-pullback compatibility"].passed
    assert not report.passed and checks["constant signature"].detail == "worst level 4 of 2 levels"


def test_metric_check_hermitian(symplectic, rng):
    fam = symplectic.family

    def cs(J):
        d = fam.dim(J)
        blocks = [np.array([[0.0, -1.0], [1.0, 0.0]])] * (d // 2)
        out = np.zeros((d, d))
        for i, b in enumerate(blocks):
            out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = b
        return out

    g = pl.CompatibleMetric(fam, "hermitian",
                            gram=lambda J, x: np.eye(fam.dim(J)),
                            complex_structure=cs)
    pairs = [(m, m + 1) for m in range(1, 5)]
    report = pl.metric_check(g, pairs, samples=5, rng=rng)
    assert report.passed and report.worst().max_residual <= 1e-12
    names = [c.name for c in report.checks]
    assert "complex-structure invariance" in names


def test_metric_check_decomposes_each_gram_once(euclid, rng, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    fam = euclid.family
    for symmetry in ("riemannian", "pseudo-riemannian"):
        calls.clear()
        g = pl.CompatibleMetric(fam, symmetry, gram=lambda J, x: np.eye(fam.dim(J)))
        pl.metric_check(g, [(1, 2), (2, 4)], samples=5, rng=rng)
        assert sorted(calls) == [(d, d) for d in (1, 2, 4) for _ in range(5)]  # 5 Grams a level


def _general_injection_family(rng, low=10, high=20):
    """Two levels tied by a dense random injection and its pseudo-inverse."""
    inj = rng.standard_normal((high, low))
    return pl.family_from_descriptor({
        "poset": {"kind": "chain", "elements": [1, 2]},
        "levels": [{"index": 1, "dim": low}, {"index": 2, "dim": high}],
        "projections": [{"from": 2, "to": 1, "kind": "matrix",
                         "payload": {"rows": np.linalg.pinv(inj).tolist()}}],
        "injections": [{"from": 1, "to": 2, "kind": "matrix",
                        "payload": {"rows": inj.tolist()}}]})


def test_metric_compatibility_is_check_tame_on_the_gram_form():
    fam = _general_injection_family(np.random.default_rng(1))
    G = fam.inj(2, 1).matrix

    def top(y):
        s = np.sin(y)
        return np.diag(1.0 + y * y) + 0.3 * np.outer(s, s)

    def gram(J, x):  # compatible up to rounding: level 1 holds the pullback of level 2
        return top(x) if J == 2 else np.einsum("ai,ab,bj->ij", G, top(G @ x), G)

    metric = pl.CompatibleMetric(fam, "riemannian", gram, name="bumpy")
    for seed in range(3):
        compat = pl.metric_check(metric, [(1, 2), (2, 2)], samples=5,
                                 rng=np.random.default_rng(seed)).checks[0]
        tame = pl.check_tame(pl.TameForm(fam, 2, gram), [(1, 2), (2, 2)], samples=5,
                             rng=np.random.default_rng(seed)).checks[0]
        assert compat == tame and compat.max_residual < 1e-9


def test_metric_constructor_guards(euclid):
    with pytest.raises(ValueError):
        pl.CompatibleMetric(euclid.family, "riemann-ish", gram=lambda J, x: np.eye(2))
    with pytest.raises(ValueError):
        pl.CompatibleMetric(euclid.family, "hermitian", gram=lambda J, x: np.eye(2))
    g = pl.CompatibleMetric(euclid.family, "riemannian", gram=lambda J, x: np.eye(3))
    with pytest.raises(ValueError):
        g.matrix(5, np.zeros(5))


def test_tangent_thread_compatibility(euclid, rng):
    base = euclid["sequence_thread"](rng.standard_normal(10))
    direction = euclid["sequence_thread"](rng.standard_normal(10))
    v = pl.TangentThread.from_threads(base, direction)
    pairs = [(n, n + 1) for n in range(1, 10)] + [(2, 9)]
    report = pl.check_tangent_thread(v, pairs)
    assert report.passed and report.worst().max_residual == 0.0

    skew = pl.TangentThread(base=base, vec=lambda J: np.full(J, float(J)))
    assert not pl.check_tangent_thread(skew, pairs).passed


def test_tangent_duality_against_fd(euclid, rng):
    fam = euclid.family
    sec = pl.Section.of(fam.poset, [4])
    base = pl.DifferentiableMap(
        4, 1,
        fn=lambda x: np.array([np.sin(x[0]) * x[1] + np.exp(0.3 * x[2]) + x[3] ** 2]),
        name="mix")
    f = pl.CylindricalFunction(fam, sec, base)
    for _ in range(20):
        b = euclid["sequence_thread"](rng.standard_normal(10))
        d = euclid["sequence_thread"](rng.standard_normal(10))
        v = pl.TangentThread.from_threads(b, d)
        assert pl.tangent_duality_check(f, v) < 1e-6


def _quadratic_exprs(fam):
    def exprs(J):
        syms = sympy.symbols(f"x0:{fam.dim(J)}")
        comps = np.empty((fam.dim(J),) * 2, dtype=object)
        for i in range(fam.dim(J)):
            for j in range(fam.dim(J)):
                comps[i, j] = (syms[i] * syms[j] ** 2 - syms[j] * syms[i] ** 2
                               + sympy.sin(syms[i] - syms[j]))
        return comps
    return exprs


def test_symbolic_partials_match_fd(euclid, rng):
    fam = euclid.family
    sym = pl.symbolic_form(fam, 2, _quadratic_exprs(fam))
    fd = pl.TameForm(fam, 2, sym.comps)
    for J in (0, 1, 3, 4):
        x = rng.standard_normal(J)
        assert sym.partials(J, x).shape == (J,) * 3
        assert np.max(np.abs(sym.partials(J, x) - fd.partials(J, x)), initial=0.0) < 1e-6


def test_symbolic_partials_differentiate_once(euclid, rng, monkeypatch):
    form = pl.symbolic_form(euclid.family, 2, _quadratic_exprs(euclid.family))
    form.partials(3, rng.standard_normal(3))
    calls = []
    real_derivative = calculus.derivative
    monkeypatch.setattr(calculus, "derivative",
                        lambda *a: calls.append(a) or real_derivative(*a))
    form.partials(3, rng.standard_normal(3))
    assert calls == []


def test_symbolic_form_takes_numpys_nan_whatever_its_symbols_assume(euclid):
    # the caller's symbols may claim positive=True; at a negative point a
    # fractional power is still numpy's nan, not Python's complex
    fam = euclid.family

    def exprs(J):
        syms = sympy.symbols(f"x0:{fam.dim(J)}", positive=True)
        row = [sympy.Integer(0)] * fam.dim(J)
        row[0] = syms[0] ** sympy.Rational(3, 2)
        return np.array(row, dtype=object)

    form = pl.symbolic_form(fam, 1, exprs)
    x = -np.arange(1.0, fam.dim(3) + 1.0)
    with np.errstate(invalid="ignore"):
        assert np.isnan(form.comps(3, x)[0])
        assert np.isnan(form.partials(3, x)[0, 0])

"""Every audit and tolerance gate fails on NaN, and the batched audits
reproduce their per-point loops bit for bit."""
import math

import numpy as np
import pytest

import proflim as pl
from oracles import (action_compat_pointwise, diffeomorphism_pointwise,
                     fibration_pointwise, form_preservation_pointwise,
                     hamiltonian_compat_pointwise, isometry_pointwise, tame_pointwise)

ORACLE_SEED = 7
NAN = np.nan

EUCLID, POLY, SYMPL = pl.euclid_tower(4), pl.poly_tower(4), pl.symplectic_even_tower(3)
E, P, S = EUCLID.family, POLY.family, SYMPL.family
E_PAIRS, P_PAIRS, S_PAIRS = [(1, 3), (2, 4)], [(0, 2), (1, 4)], [(1, 2), (2, 3)]


def _nan_thread(fam):
    return pl.Thread(fam, lambda J: np.full(fam.dim(J), NAN), name="nan")


def _nan_gradient():
    base = pl.DifferentiableMap(2, 1, lambda x: np.zeros(1),
                                jac=lambda x: np.full((1, 2), NAN))
    return pl.CylindricalFunction(S, pl.Section.of(S.poset, [1]), base)


def _nan_action():
    action = SYMPL["action"]
    return pl.ProfiniteGroupAction(S, action.generators, lambda m, g, x: g @ x * NAN,
                                   action.restrict)


class _NanExp(pl.ProfiniteGroupAction):
    def exp(self, xi):
        return np.full_like(xi, NAN)


def _nan_exp_momentum():
    action = SYMPL["action"]
    nan_exp = _NanExp(S, action.generators, action.act, action.restrict)
    mu = pl.MomentumMap(nan_exp, SYMPL["momentum"].functions)
    return pl.momentum_verify(SYMPL["omega"], nan_exp, mu, [1.0, 0.0, 0.0], 3,
                              samples=3, rng=np.random.default_rng(0))


def _disagreeing_members():
    # cross's members J and K meet at their join L, where (nan, 0) meets (0, 0):
    # NaN is the only difference
    sp = pl.SectionPoint.of(pl.cross_family().family, ["J", "K"], {"J": [NAN], "K": [0.0]})
    return pl.thread_from_section(sp)


def _nan_level_maps():
    nan_maps = pl.ProfiniteMap(E, E, lambda n: n,
                               lambda n: pl.DifferentiableMap(n, n, lambda x: x * NAN))
    return pl.is_profinite_diffeomorphism(nan_maps, nan_maps, E.poset.elements)


# name -> (run, the exception it must raise, or None when it returns a failing
# report, False or None)
CASES = {
    "check_thread": (lambda: pl.check_thread(_nan_thread(E), E_PAIRS), None),
    "check_tame": (lambda: pl.check_tame(pl.constant_form(
        E, 2, lambda J: np.full((J, J), NAN if J == 4 else 0.0)), E_PAIRS, samples=3), None),
    "injection_isometry_check": (lambda: pl.injection_isometry_check(
        pl.LevelMetricFamily(E, lambda J, x, y: NAN), E_PAIRS, samples=3), None),
    "check_tangent_thread": (lambda: pl.check_tangent_thread(
        pl.TangentThread(EUCLID["origin"], lambda J: np.full(J, NAN)), E_PAIRS), None),
    "hamiltonian_compat_check": (lambda: pl.hamiltonian_compat_check(
        SYMPL["omega"], _nan_gradient(), S_PAIRS, samples=3), None),
    "check_action_compat": (lambda: pl.check_action_compat(
        _nan_action(), S_PAIRS, samples=3), None),
    "momentum_verify": (_nan_exp_momentum, pl.NonSymplecticAction),
    "thread_from_section": (_disagreeing_members, pl.IllDefinedSection),
    "is_inductive": (lambda: pl.is_inductive(_nan_thread(E), [[2], [4]]), None),
    "lift_binary": (lambda: pl.lift_binary(
        pl.AlgebraicStructure(P, op=lambda J, a, b: a * NAN),
        POLY["exp_series"], POLY["exp_series"], pairs=P_PAIRS), pl.MorphismViolation),
    "lift_scalar_action": (lambda: pl.lift_scalar_action(
        pl.ScalarAction(POLY["constants"], P, lambda J, c, a: float(c[0]) * a * NAN),
        POLY["scalar_thread"](2.0), POLY["exp_series"], pairs=P_PAIRS),
        pl.MorphismViolation),
    "lift_inverse": (lambda: pl.lift_inverse(
        pl.AlgebraicStructure(P, op=lambda J, a, b: a + b, neutral=_nan_thread(P),
                              inverse=lambda J, a: -a),
        POLY["exp_series"], pairs=P_PAIRS), pl.NotInvertible),
    "is_profinite_diffeomorphism": (_nan_level_maps, None),
    "metric_check": (lambda: pl.metric_check(pl.CompatibleMetric(
        S, "hermitian", lambda m, x: np.eye(2 * m),
        complex_structure=lambda m: np.full((2 * m, 2 * m), NAN)), S_PAIRS, samples=2),
        None),
    "build antisymmetry": (lambda: pl.SymplecticStructure.build(pl.constant_form(
        S, 2, lambda m: np.full((2 * m, 2 * m), NAN)), [1, 2], samples=2),
        pl.SingularForm),
    "build closedness": (lambda: pl.SymplecticStructure.build(pl.TameForm(
        S, 2, lambda m, x: pl.canonical_omega(2 * m),
        dcomps=lambda m, x: np.full((2 * m,) * 3, NAN)), [1, 2], samples=2), None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_fails_every_audit_and_gate(name):
    run, raises = CASES[name]
    if raises is not None:
        with pytest.raises(raises):
            run()
        return
    out = run()
    if isinstance(out, pl.VerificationReport):
        assert not out.passed, out.summary()
        assert any(math.isnan(c.max_residual) for c in out.checks)
    elif isinstance(out, pl.SymplecticStructure):
        assert math.isnan(out.closedness_residual) and not out.is_symplectic
    else:
        assert out is None or out is False


def _assert_matches_pointwise(audit, pointwise):
    """Same max residual as the per-point loop, and the same stream consumed."""
    rng, ref = np.random.default_rng(ORACLE_SEED), np.random.default_rng(ORACLE_SEED)
    report = audit(rng)
    assert report.checks[0].max_residual == pointwise(ref)
    assert rng.standard_normal() == ref.standard_normal()


def _pairs(fam):
    return pl.sample_chains(fam.poset, np.random.default_rng(ORACLE_SEED), 12, 2)


@pytest.mark.parametrize("name", pl.gallery_names())
def test_isometry_check_matches_pointwise_oracle(name):
    fam = pl.build_gallery(name).family
    metrics, pairs = pl.euclidean_metrics(fam), _pairs(fam)
    _assert_matches_pointwise(
        lambda rng: pl.injection_isometry_check(metrics, pairs, samples=5, rng=rng),
        lambda rng: isometry_pointwise(metrics, pairs, 5, rng))


@pytest.mark.parametrize("name", ["symplectic", "odd-symplectic"])
def test_check_tame_matches_pointwise_oracle(name):
    g = pl.build_gallery(name)
    form, pairs = g["omega"], _pairs(g.family)
    _assert_matches_pointwise(
        lambda rng: pl.check_tame(form, pairs, samples=5, rng=rng),
        lambda rng: tame_pointwise(form, pairs, 5, rng))


def test_symplectic_audits_match_pointwise_oracles():
    g = pl.symplectic_even_tower(4)
    omega, H, action, pairs = g["omega"], g["hamiltonian_at"](4), g["action"], _pairs(g.family)
    _assert_matches_pointwise(
        lambda rng: pl.hamiltonian_compat_check(omega, H, pairs, samples=5, rng=rng),
        lambda rng: hamiltonian_compat_pointwise(omega, H, pairs, 5, rng))
    _assert_matches_pointwise(
        lambda rng: pl.check_action_compat(action, pairs, samples=5, rng=rng),
        lambda rng: action_compat_pointwise(action, pairs, 5, rng))


def _seeded_pair():
    return np.random.default_rng(ORACLE_SEED), np.random.default_rng(ORACLE_SEED)


def test_fibration_matches_pointwise_oracle():
    # the bundle projection x + J v / 100 depends on the level, so neither
    # square commutes and both residuals are nonzero
    def bundle(J):
        return pl.DifferentiableMap(2 * J, J, lambda xv: xv[:J] + 0.01 * J * xv[J:])

    data = pl.FibrationData(pl.tangent_family(E), E, bundle, name="twisted")
    pairs, (rng, ref) = _pairs(E), _seeded_pair()
    report = pl.verify_fibration(data, pairs, samples=5, rng=rng)
    residuals = [c.max_residual for c in report.checks]
    assert residuals == fibration_pointwise(data, pairs, 5, ref)
    assert min(residuals) > 0.0 and not report.passed
    assert rng.standard_normal() == ref.standard_normal()


def test_diffeomorphism_matches_pointwise_oracle():
    swap = pl.cross_family()["swap"]
    rng, ref = _seeded_pair()
    indices = swap.source.poset.elements
    verdict = pl.is_profinite_diffeomorphism(swap, swap, indices, samples=5, rng=rng)
    assert verdict is diffeomorphism_pointwise(swap, swap, indices, 5, 1e-9, ref) is True
    assert rng.standard_normal() == ref.standard_normal()

    # g stops inverting f at level 3: its samples are drawn, level 4's are not
    f = pl.ProfiniteMap(E, E, lambda J: J, lambda J: pl.identity_map(J))
    g = pl.ProfiniteMap(E, E, lambda J: J,
                        lambda J: pl.matrix_map((2.0 if J >= 3 else 1.0) * np.eye(J)))
    rng, ref = _seeded_pair()
    verdict = pl.is_profinite_diffeomorphism(f, g, E.poset.elements, samples=5, rng=rng)
    assert verdict is diffeomorphism_pointwise(f, g, E.poset.elements, 5, 1e-9, ref) is False
    assert rng.standard_normal() == ref.standard_normal()


def test_momentum_form_check_matches_pointwise_oracle():
    omega, action, mu = SYMPL["omega"], SYMPL["action"], SYMPL["momentum"]
    rng, ref = _seeded_pair()
    report = pl.momentum_verify(omega, action, mu, [1.0, 0.0, 0.0], 3, samples=4, rng=rng)
    # 20 group elements, then the generator check's 4 points of E_3
    assert report.checks[0].max_residual == form_preservation_pointwise(
        omega, action, 3, 20, ref)
    ref.standard_normal((4, S.dim(3)))
    assert rng.standard_normal() == ref.standard_normal()


def test_audit_over_no_pairs_says_so():
    """The pairwise audits visit only the listed pairs with J < K: given equal
    and reversed pairs, every check audits nothing and no sample is drawn."""
    rep = pl.check_tame(SYMPL["omega"], [(1, 1), (2, 2)], samples=3)
    check = rep.checks[0]
    assert check.passed and check.max_residual == 0.0
    assert check.detail == "no pairs audited"
    e_pairs, s_pairs = [(1, 1), (3, 1), (4, 2)], [(1, 1), (2, 2), (3, 1), (2, 1)]
    fibration = pl.FibrationData(pl.tangent_family(E), E,
                                 lambda J: pl.DifferentiableMap(2 * J, J, lambda xv: xv[:J]))
    audits = {
        "check_tame": lambda rng: pl.check_tame(SYMPL["omega"], s_pairs, samples=3, rng=rng),
        "check_tangent_thread": lambda rng: pl.check_tangent_thread(
            pl.TangentThread(EUCLID["origin"], lambda J: np.zeros(J)), e_pairs),
        "injection_isometry_check": lambda rng: pl.injection_isometry_check(
            pl.euclidean_metrics(E), e_pairs, samples=3, rng=rng),
        "verify_fibration": lambda rng: pl.verify_fibration(fibration, e_pairs, samples=3,
                                                            rng=rng),
        "hamiltonian_compat_check": lambda rng: pl.hamiltonian_compat_check(
            SYMPL["omega"], SYMPL["hamiltonian_at"](3), s_pairs, samples=3, rng=rng),
        "check_action_compat": lambda rng: pl.check_action_compat(
            SYMPL["action"], s_pairs, samples=3, rng=rng),
    }
    for name, audit in audits.items():
        rng, ref = _seeded_pair()
        report = audit(rng)
        assert len(report.checks) == (2 if name == "verify_fibration" else 1), name
        for check in report.checks:
            assert check.passed and check.max_residual == 0.0, name
            assert check.detail == "no pairs audited", name
        assert rng.standard_normal() == ref.standard_normal(), name

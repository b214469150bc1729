"""Level-wise differential forms and metrics tied together by pullbacks.

A tame r-form stores one antisymmetric component array per level; the
arrays are compatible when each lower level's components equal the
injection pullback of any higher level's.  Exterior derivatives are taken
level by level: analytically for constant and symbolic payloads, by
central finite differences otherwise.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

import numpy as np

from .cylinder import CylindricalFunction, differential, pair_with_direction
from .expr import derivative, evaluator, node, parse_expressions
from .family import ProfiniteFamily, audit_pairs, sample_point
from .limits import Thread, thread_axpy
from .maps import FD_STEP, as_point, fd_jacobian, residual
from .report import VerificationReport


def pull_components(comps: np.ndarray, jac: np.ndarray, degree: Optional[int] = None) -> np.ndarray:
    """Contract every slot of an r-form component array with a Jacobian:
    (pullback)_{a1..ar} = comps_{b1..br} * prod_k jac[b_k, a_k].  Given a degree,
    the axes before the last `degree` stack samples, which share jac or take one
    each from a (n, dim_K, dim_I) stack.  Each slot is one matmul of a transposed
    view, as tensordot made it, so each sample gets the one-point call's bits."""
    out, jac = np.asarray(comps, dtype=float), np.asarray(jac, dtype=float)
    r = out.ndim if degree is None else degree
    stack, (b, a) = out.shape[:out.ndim - r], jac.shape[-2:]
    for k in range(r):  # columns: the next slot; rows: the b^(r-1-k) a^k entries of the others
        out = out.reshape(stack + (b, b ** (r - 1 - k) * a ** k)).swapaxes(-1, -2) @ jac
    return out.reshape(stack + (a,) * r)


def alternating_sum(partials: np.ndarray) -> np.ndarray:
    """Components of d(form) from the partials tensor P[j, i1..ir]."""
    return sum((-1) ** k * np.moveaxis(partials, 0, k) for k in range(partials.ndim))


class TameForm:
    """Per-level r-form components.

    comps(J, x) returns the dense antisymmetric component array, shape
    (dim,) * degree.  dcomps(J, x), when given, returns the partial tensor
    P[j, i1..ir] = d(comps_{i1..ir})/dx_j; otherwise finite differences are
    used for exterior derivatives.  kind="constant" promises components that
    do not depend on x, as `constant_form` builds them, so audits read such
    a form once per level instead of at every sample.
    """

    def __init__(self, family: ProfiniteFamily, degree: int,
                 comps: Callable[[Any, np.ndarray], np.ndarray],
                 dcomps: Optional[Callable[[Any, np.ndarray], np.ndarray]] = None,
                 kind: str = "generic", payload=None, name: str = ""):
        self.family = family
        self.degree = int(degree)
        self._comps = comps
        self._dcomps = dcomps
        self.kind = kind
        self.payload = payload
        self.name = name

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def comps(self, J, x) -> np.ndarray:
        arr = np.asarray(self._comps(J, as_point(x)), dtype=float)
        expected = (self.family.dim(J),) * self.degree
        if arr.shape != expected:
            raise ValueError(
                f"{self.name or 'form'}: components at {J!r} have shape "
                f"{arr.shape}, expected {expected}")
        return arr

    def matrix(self, J, x) -> np.ndarray:
        if self.degree != 2:
            raise ValueError("matrix() is only defined for 2-forms")
        return self.comps(J, x)

    def partials(self, J, x) -> np.ndarray:
        x = as_point(x)
        if self._dcomps is not None:
            return np.asarray(self._dcomps(J, x), dtype=float)
        dim = self.family.dim(J)
        jac = fd_jacobian(lambda y: self.comps(J, y).ravel(), x, dim ** self.degree)
        return jac.T.reshape((dim,) * (self.degree + 1))

    def __repr__(self):
        return f"TameForm({self.name or 'anonymous'}, degree={self.degree}, kind={self.kind})"


def constant_form(family: ProfiniteFamily, degree: int,
                  level_comps: Callable[[Any], np.ndarray], name: str = "") -> TameForm:
    """x-independent components per level; d is exactly zero."""
    return TameForm(family, degree,
                    comps=lambda J, x: level_comps(J),
                    dcomps=lambda J, x: np.zeros((family.dim(J),) + (family.dim(J),) * degree),
                    kind="constant", payload=level_comps, name=name)


def symbolic_form(family: ProfiniteFamily, degree: int,
                  level_comps: Callable[[Any], np.ndarray], name: str = "") -> TameForm:
    """Components given per level as expressions in the coordinates.

    level_comps(J) returns the component array.  Each entry is a tree from
    `expr.parse_expressions`, anything whose str() is in its grammar, or an
    integer combination {(tree, sorted multi-index): coefficient} of partial
    derivatives of trees, as the payload of d holds them: so d of a symbolic
    form is symbolic again, and d o d cancels to the empty combination,
    exactly 0.  Each level compiles once into one `expr.evaluator` for the
    components and once into one for the partial tensor P[j, i1..ir].
    """
    @functools.cache
    def combinations(J):
        def combination(e):
            if not isinstance(e, (tuple, dict)):
                e = parse_expressions(family.dim(J), [str(e)])[0]
            return e if isinstance(e, dict) else {(e, ()): 1}
        return np.vectorize(combination, otypes=[object])(np.asarray(level_comps(J), dtype=object))

    def tree(combination, extra):
        out = 0.0
        for (entry, index), c in combination.items():
            out = node("+", out, node("*", float(c), derivative(entry, index + extra)))
        return out

    @functools.cache
    def compiled(J, partials: bool):
        combos = combinations(J)
        extras = [(j,) for j in range(family.dim(J))] if partials else [()]
        fn = evaluator(family.dim(J), [tree(c, e) for e in extras for c in combos.flat])[1]
        return lambda x: np.asarray(fn(x), dtype=float).reshape((len(extras),) + combos.shape)

    def d_combinations(J):  # (dC)[a0..ar] = sum_k (-1)^k d_{a_k} C[a0..^a_k..ar]
        combos, out = combinations(J), np.empty((family.dim(J),) * (degree + 1), dtype=object)
        for idx in np.ndindex(out.shape):
            total = {}
            for k, j in enumerate(idx):
                for (entry, index), c in combos[idx[:k] + idx[k + 1:]].items():
                    key = (entry, tuple(sorted(index + (j,))))
                    total[key] = total.get(key, 0) + (-1) ** k * c
            out[idx] = {key: c for key, c in total.items() if c}
        return out

    return TameForm(family, degree, comps=lambda J, x: compiled(J, False)(x)[0],
                    dcomps=lambda J, x: compiled(J, True)(x),
                    kind="symbolic", payload=d_combinations, name=name)


def exterior_derivative(form: TameForm) -> TameForm:
    """Level-wise d; stays exact for constant and symbolic payloads."""
    fam, deg = form.family, form.degree
    if form.is_constant:
        return constant_form(fam, deg + 1,
                             lambda J: np.zeros((fam.dim(J),) * (deg + 1)),
                             name=f"d{form.name}")
    if form.kind == "symbolic":
        return symbolic_form(fam, deg + 1, form.payload, name=f"d{form.name}")
    return TameForm(fam, deg + 1,
                    comps=lambda J, x: alternating_sum(form.partials(J, x)),
                    kind="generic", name=f"d{form.name}")


def _pulled(form: TameForm, L, f, X: np.ndarray) -> np.ndarray:
    """The level-L field pulled back along the map f at each row of X, as one
    stack: one pull_components call, with one Jacobian when f is linear."""
    n, dims = len(X), (f.codomain_dim, f.domain_dim)
    comps = np.array([form.comps(L, f(x)) for x in X]).reshape((n,) + dims[:1] * form.degree)
    jac = f.matrix if f.is_linear else np.array([f.jacobian(x) for x in X]).reshape((n,) + dims)
    return pull_components(comps, jac, form.degree)


def pullback_inj(form: TameForm, I, K, point) -> np.ndarray:
    """Components at level I of the injection pullback of the level-K field,
    evaluated at a point of E_I."""
    return _pulled(form, K, form.family.inj(K, I), as_point(point)[None])[0]


def pushforward_proj(form: TameForm, I, K, point_at_K) -> np.ndarray:
    """Components at level K of the projection pullback of the level-I field
    (the canonical embedding of lower-level forms into higher levels)."""
    return _pulled(form, I, form.family.proj(I, K), as_point(point_at_K)[None])[0]


def pulled_level_field(form: TameForm, I, K) -> Callable[[np.ndarray], np.ndarray]:
    """The injection pullback of the level-K field as a function on E_I."""
    return functools.partial(pullback_inj, form, I, K)


def check_tame(form: TameForm, pairs: Iterable[tuple], samples: int = 20,
               tol: float = 1e-9, rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """Injection-pullback compatibility residual over sampled pairs."""
    fam, rng = form.family, rng or np.random.default_rng(0)

    def gaps(I, K):
        X = sample_point(fam.dim(I), rng, samples)
        # a constant form pulled back along a linear map is x-independent too
        if form.is_constant and fam.inj(K, I).is_linear:
            X = X[:1]
        return (residual(_pulled(form, K, fam.inj(K, I), X), [form.comps(I, x) for x in X]),)
    return audit_pairs(f"tame form: {form.name or 'anonymous'}", fam.poset, pairs, tol, gaps,
                       "injection-pullback compatibility")


# ---------------------------------------------------------------------------
# metrics


_SYMMETRIES = ("riemannian", "pseudo-riemannian", "hermitian", "pseudo-hermitian")


@dataclass
class CompatibleMetric:
    """Per-level Gram fields g(J, x), compatible under injection pullback.

    Hermitian kinds live on even-dimensional real levels and carry a fixed
    complex-structure matrix per level; the Gram field must be invariant
    under it.
    """

    family: ProfiniteFamily
    symmetry: str
    gram: Callable[[Any, np.ndarray], np.ndarray]
    complex_structure: Optional[Callable[[Any], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.symmetry not in _SYMMETRIES:
            raise ValueError(f"unknown symmetry type {self.symmetry!r}")
        if "hermitian" in self.symmetry and self.complex_structure is None:
            raise ValueError("hermitian kinds need a complex_structure oracle")
        # the Gram field read as a 2-form, whose compatibility is check_tame's
        self.form = TameForm(self.family, 2, self.gram, name=self.name or "gram")

    def matrix(self, J, x) -> np.ndarray:
        return self.form.comps(J, x)


def _signature(eig: np.ndarray) -> tuple:
    """(positive, negative, zero) counts of a Gram's eigenvalues."""
    cut = 1e-10 * max(residual(eig, 0.0), 1e-300)  # relative to the largest |eigenvalue|
    return (int(np.sum(eig > cut)), int(np.sum(eig < -cut)),
            int(np.sum(np.abs(eig) <= cut)))


def metric_check(metric: CompatibleMetric, pairs: Iterable[tuple], samples: int = 20,
                 tol: float = 1e-9, rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """Compatibility, symmetry, and the definiteness demanded by the kind.
    Compatibility is `check_tame`'s, on the Gram field read as a 2-form."""
    rng = rng or np.random.default_rng(0)
    fam, key = metric.family, metric.family.poset.key
    pairs = list(pairs)
    report = VerificationReport(f"metric: {metric.name or metric.symmetry}",
                                check_tame(metric.form, pairs, samples, tol, rng).checks)
    levels = fam.poset.sort({J for I, K in pairs if fam.poset.leq(I, K) for J in (I, K)})

    sym, cstr, eigs = [], [], []
    for J in levels:
        d = fam.dim(J)
        if d == 0:
            continue
        cs = metric.complex_structure(J) if metric.complex_structure else None
        grams = np.reshape([metric.matrix(J, x) for x in sample_point(d, rng, samples)], (-1, d, d))
        sym.append((key(J), residual(grams, grams.transpose(0, 2, 1))))
        eigs.append((key(J), [np.linalg.eigvalsh(g) for g in grams]))
        if cs is not None:
            # cs @ cs = -1 once per level, then cs^T g cs = g at every sample, as one stack
            cstr.append((key(J), residual([cs @ cs, *pull_components(grams, cs, 2)],
                                          [-np.eye(d), *grams])))

    report.add_worst("gram symmetry", sym, tol, what="level")
    if metric.symmetry in ("riemannian", "hermitian"):
        min_eig = min([np.inf] + [float(np.min(eig)) for _, level in eigs for eig in level])
        shortfall = 0.0 if (np.isinf(min_eig) or min_eig > 0) else abs(min_eig) + 1e-300
        report.add("positive-definite", shortfall, 0.0,
                   detail="" if np.isinf(min_eig) else f"smallest eigenvalue {min_eig:.3e}")
    else:  # the signature is constant in x at each level, not across levels
        report.add_worst("constant signature", [(J, float(len(set(map(_signature, level))) > 1))
                                                for J, level in eigs], 0.5, what="level")
    if "hermitian" in metric.symmetry:
        report.add_worst("complex-structure invariance", cstr, tol, what="level")
    return report


# ---------------------------------------------------------------------------
# tangent threads and the duality check


@dataclass
class TangentThread:
    """A base thread plus a direction assignment compatible with the pushed
    projections: vec(J) = Dproj(J,K)(base(K)) . vec(K)."""

    base: Thread
    vec: Callable[[Any], np.ndarray]

    @staticmethod
    def from_threads(base: Thread, direction: Thread) -> "TangentThread":
        return TangentThread(base=base, vec=direction.value)

    def direction(self, J) -> np.ndarray:
        return as_point(self.vec(J))


def check_tangent_thread(v: TangentThread, pairs: Iterable[tuple],
                         tol: float = 1e-9) -> VerificationReport:
    fam = v.base.family
    return audit_pairs(
        "tangent thread compatibility", fam.poset, pairs, tol,
        lambda J, K: (residual(v.direction(J),
                               fam.proj(J, K).jacobian(v.base(K)) @ v.direction(K)),),
        "pushed-projection compatibility")


def tangent_duality_check(f: CylindricalFunction, v: TangentThread) -> float:
    """Relative gap between the covector pairing <df, v> and the finite
    difference of f along v; the two coincide for tangent threads."""
    analytic = pair_with_direction(f, differential(f, v.base), v.vec)
    scale = 1.0 + float(np.linalg.norm(f.gather(v.base)))
    h = FD_STEP * scale
    plus = f(thread_axpy(v.base, h, v.vec))
    minus = f(thread_axpy(v.base, -h, v.vec))
    fd = (plus - minus) / (2.0 * h)
    return abs(analytic - fd) / (1.0 + abs(analytic))

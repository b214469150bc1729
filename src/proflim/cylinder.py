"""Functions on limit points that read only finitely many levels.

A cylindrical function is a finite antichain of member indices plus a
smooth base map on the concatenated member coordinates (canonical index
order).  Its value on a thread depends only on the thread's restriction to
the members, which is what makes the product-limit and inductive-limit
function calculi coincide operationally.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .family import FamilyMismatch, ProfiniteFamily
from .limits import (Incomparable, SectionPoint, Thread, restrict_thread,
                     thread_from_section)
from .maps import DifferentiableMap, as_point, compose, fanout_map, selection_map
from .poset import JoinFailure, Section


@dataclass(frozen=True)
class CylindricalFunction:
    """family, member antichain, and base: R^(sum of member dims) -> R."""

    family: ProfiniteFamily
    section: Section
    base: DifferentiableMap
    name: str = ""

    def __post_init__(self):
        total = sum(self.family.dim(m) for m in self.section)
        if self.base.domain_dim != total or self.base.codomain_dim != 1:
            raise FamilyMismatch(
                f"base must map R^{total} -> R, got "
                f"{self.base.domain_dim}->{self.base.codomain_dim}")

    def gather(self, t: Thread) -> np.ndarray:
        if t.family is not self.family:
            raise FamilyMismatch("thread lives over a different family")
        parts = [t(m) for m in self.section]
        return np.concatenate(parts) if parts else np.zeros(0)

    def __call__(self, t: Thread) -> float:
        return float(self.base(self.gather(t))[0])


def representative(f: CylindricalFunction, t: Thread) -> SectionPoint:
    """The restriction of the thread to the member antichain; evaluating
    through it reproduces f(t) exactly."""
    return restrict_thread(t, f.section)


def eval_representative(f: CylindricalFunction, sp: SectionPoint) -> float:
    return f(thread_from_section(sp, check=False))


def coordinate_function(family: ProfiniteFamily, J, coord: int,
                        name: str = "") -> CylindricalFunction:
    sec = Section.of(family.poset, [J])
    base = selection_map(family.dim(J), [coord], name=name or f"x[{J!r},{coord}]")
    return CylindricalFunction(family, sec, base, name=name or f"coord({J!r},{coord})")


def separate(x: Thread, y: Thread, witness_levels: Iterable,
             tol: float = 0.0) -> Optional[CylindricalFunction]:
    """A coordinate function telling x from y, scanning the witness levels.

    Returns None when every witnessed level agrees (the threads may still
    differ beyond the scan; separation is certified, non-separation is not).
    """
    if x.family is not y.family:
        raise FamilyMismatch("threads live over different families")
    for J in witness_levels:
        gap = np.abs(x(J) - y(J))
        if gap.size and float(np.max(gap)) > tol:
            coord = int(np.argmax(gap))
            return coordinate_function(x.family, J, coord)
    return None


def level_function(f: CylindricalFunction, J) -> DifferentiableMap:
    """The representative of f on level J: evaluate f on the thread through
    a single point of E_J (project up to members below J, inject to members
    above).  Raises Incomparable when some member cannot be reached.  When
    J is the only member, the thread's value there is the point itself and
    the representative is the base map."""
    if f.section.members == (J,):
        return f.base
    pieces = []
    for m in f.section:
        piece = f.family.transport(J, m)
        if piece is None:
            raise Incomparable(f"member {m!r} is not comparable to level {J!r}")
        pieces.append(piece)
    return compose(f.base, fanout_map(pieces), name=f"{f.name or 'f'}@{J!r}")


def reexpress(f: CylindricalFunction, new_section) -> CylindricalFunction:
    """Rewrite f over a finer antichain (every member must sit below a new
    member); evaluation is unchanged on threads."""
    sec = new_section if isinstance(new_section, Section) else Section.of(f.family.poset, new_section)
    fam, poset = f.family, f.family.poset
    offsets, offset = {}, 0
    for m in sec:
        offsets[m] = offset
        offset += fam.dim(m)
    total = offset
    pieces = []
    for old in f.section:
        host = next((m for m in sec if poset.leq(old, m)), None)
        if host is None:
            raise JoinFailure(old, tuple(sec))
        slab = selection_map(total, range(offsets[host], offsets[host] + fam.dim(host)))
        pieces.append(compose(fam.proj(old, host), slab))
    base = compose(f.base, fanout_map(pieces), name=f"{f.name or 'f'}|refined")
    return CylindricalFunction(fam, sec, base, name=f.name)


def differential(f: CylindricalFunction, t: Thread) -> np.ndarray:
    """The covector of f at t over the member coordinates (gradient of the
    base at the representative)."""
    return f.base.jacobian(f.gather(t)).ravel()


def pair_with_direction(f: CylindricalFunction, covector: np.ndarray, v) -> float:
    """Pair a member-coordinate covector with a direction's restriction."""
    vfn = v.value if isinstance(v, Thread) else v
    parts = [as_point(vfn(m)) for m in f.section]
    direction = np.concatenate(parts) if parts else np.zeros(0)
    return float(np.dot(covector, direction))


def refine_sections(poset, members: Iterable) -> Section:
    """A common antichain refinement: fold members together with joins until
    no two are comparable.  JoinFailure propagates from the join oracle."""
    work = list(dict.fromkeys(members))
    while True:
        hit = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                if poset.comparable(work[i], work[j]):
                    hit = (i, j)
                    break
            if hit:
                break
        if hit is None:
            return Section.of(poset, work)
        i, j = hit
        top = poset.require_join(work[i], work[j])
        work = [w for k, w in enumerate(work) if k not in (i, j)] + [top]


def common_section(functions: Sequence[CylindricalFunction]) -> Section:
    poset = functions[0].family.poset
    members = [m for f in functions for m in f.section]
    return refine_sections(poset, members)


def linear_combination(functions: Sequence[CylindricalFunction],
                       coeffs: Sequence[float], name: str = "") -> CylindricalFunction:
    """sum c_i f_i as a single cylindrical function over a common refinement."""
    functions = list(functions)
    fam = functions[0].family
    sec = common_section(functions)
    # enlarge each member to a member of sec when needed
    rewritten = [reexpress(f, sec) if f.section != sec else f for f in functions]
    bases = [f.base for f in rewritten]
    from .maps import linear_combination_map
    base = linear_combination_map(bases, coeffs, name=name or "lincomb")
    return CylindricalFunction(fam, sec, base, name=name or "lincomb")


# ---------------------------------------------------------------------------
# polynomial algebra


@dataclass
class CylPolynomial:
    """Finite sums of scalar multiples of products of cylindrical functions.

    Terms keep their factors unexpanded; `section` is the common antichain
    refinement of all factor sections, computed up front so that factor
    combinations that cannot be co-refined fail early with JoinFailure.
    """

    family: ProfiniteFamily
    terms: list = field(default_factory=list)  # [(coeff, (f1, f2, ...)), ...]
    constant: float = 0.0

    @property
    def section(self) -> Optional[Section]:
        funcs = [f for _, fs in self.terms for f in fs]
        if not funcs:
            return None
        return refine_sections(self.family.poset, [m for f in funcs for m in f.section])

    @staticmethod
    def from_function(f: CylindricalFunction) -> "CylPolynomial":
        return CylPolynomial(f.family, [(1.0, (f,))])

    def evaluate(self, t: Thread) -> float:
        total = self.constant
        for coeff, factors in self.terms:
            prod = coeff
            for f in factors:
                prod *= f(t)
            total += prod
        return float(total)


def poly_add(p: CylPolynomial, q: CylPolynomial) -> CylPolynomial:
    if p.family is not q.family:
        raise FamilyMismatch("polynomials over different families")
    return CylPolynomial(p.family, list(p.terms) + list(q.terms),
                         constant=p.constant + q.constant)


def poly_scale(p: CylPolynomial, c: float) -> CylPolynomial:
    return CylPolynomial(p.family, [(c * a, fs) for a, fs in p.terms],
                         constant=c * p.constant)


def poly_mul(p: CylPolynomial, q: CylPolynomial) -> CylPolynomial:
    """Product polynomial; factor sections are co-refined eagerly so that
    incompatible factors surface as JoinFailure here, not at evaluation."""
    if p.family is not q.family:
        raise FamilyMismatch("polynomials over different families")
    terms = []
    for a, fs in p.terms:
        for b, gs in q.terms:
            terms.append((a * b, fs + gs))
        if q.constant:
            terms.append((a * q.constant, fs))
    if p.constant:
        for b, gs in q.terms:
            terms.append((p.constant * b, gs))
    out = CylPolynomial(p.family, terms, constant=p.constant * q.constant)
    out.section  # forces the co-refinement check
    return out


def poly_univariate(coeffs: Sequence[float], f: CylindricalFunction) -> CylPolynomial:
    """P(f) for a one-variable polynomial P given by ascending coefficients."""
    poly = CylPolynomial(f.family, [], constant=float(coeffs[0]) if coeffs else 0.0)
    for k, c in enumerate(coeffs[1:], start=1):
        if c:
            poly.terms.append((float(c), (f,) * k))
    return poly


def poly_to_cylindrical(p: CylPolynomial, name: str = "") -> CylindricalFunction:
    """Flatten a polynomial into one cylindrical function over the common
    refinement of all factor sections."""
    sec = p.section
    if sec is None:
        raise FamilyMismatch("a constant polynomial has no section to flatten over")
    rewritten = [(c, tuple(reexpress(f, sec) if f.section != sec else f for f in fs))
                 for c, fs in p.terms]
    dim = sum(p.family.dim(m) for m in sec)

    def fn(x):
        total = p.constant
        for c, fs in rewritten:
            prod = c
            for f in fs:
                prod *= float(f.base(x)[0])
            total += prod
        return np.array([total])

    def jac(x):
        grad = np.zeros(dim)
        for c, fs in rewritten:
            vals = [float(f.base(x)[0]) for f in fs]
            for i, f in enumerate(fs):
                rest = c
                for j, v in enumerate(vals):
                    if j != i:
                        rest *= v
                grad += rest * f.base.jacobian(x).ravel()
        return grad.reshape(1, dim)

    base = DifferentiableMap(dim, 1, fn, jac=jac, name=name or "poly")
    return CylindricalFunction(p.family, sec, base, name=name or "poly")

"""Functions on limit points that read only finitely many levels.

A cylindrical function is a finite antichain of member indices plus a
smooth base map on the concatenated member coordinates (canonical index
order).  Its value on a thread depends only on the thread's restriction to
the members, which is what makes the product-limit and inductive-limit
function calculi coincide operationally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .family import FamilyMismatch, ProfiniteFamily
from .limits import (Incomparable, SectionPoint, Thread, restrict_thread,
                     thread_from_section)
from .maps import (DifferentiableMap, as_point, compose, fanout_map,
                   linear_combination_map, residual, selection_map)
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
    return f(thread_from_section(sp))


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
    A NaN gap is a ValueError naming the level, never agreement.
    """
    if x.family is not y.family:
        raise FamilyMismatch("threads live over different families")
    for J in witness_levels:
        a, b = x(J), y(J)
        gap = residual(a, b)
        if math.isnan(gap):
            raise ValueError(f"level {J!r}: the gap is nan, not a number")
        if gap > tol:
            return coordinate_function(x.family, J, int(np.argmax(np.abs(a - b))))
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
    sec = Section.of(f.family.poset, new_section)
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
    parts = [as_point(v(m)) for m in f.section]
    direction = np.concatenate(parts) if parts else np.zeros(0)
    return float(np.dot(covector, direction))


def refine_sections(poset, members: Iterable) -> Section:
    """A common antichain refinement: fold members together with joins until
    no two are comparable.  JoinFailure propagates from the join oracle."""
    work = list(dict.fromkeys(members))
    while hit := next((p for p in combinations(work, 2) if poset.comparable(*p)), None):
        work = [w for w in work if w not in hit] + [poset.require_join(*hit)]
    return Section.of(poset, work)


def _refined_bases(functions: Sequence[CylindricalFunction]):
    """(family, common antichain refinement, each base re-expressed over it)."""
    fam = functions[0].family
    sec = refine_sections(fam.poset, [m for f in functions for m in f.section])
    # enlarge each member to a member of sec when needed
    return fam, sec, [(reexpress(f, sec) if f.section != sec else f).base for f in functions]


def linear_combination(functions: Sequence[CylindricalFunction],
                       coeffs: Sequence[float], name: str = "") -> CylindricalFunction:
    """sum c_i f_i as a single cylindrical function over a common refinement."""
    fam, sec, bases = _refined_bases(list(functions))
    base = linear_combination_map(bases, coeffs, name=name or "lincomb")
    return CylindricalFunction(fam, sec, base, name=name or "lincomb")


def product(functions: Sequence[CylindricalFunction], name: str = "") -> CylindricalFunction:
    """prod f_i as a single cylindrical function over a common refinement,
    with the product-rule Jacobian sum_i (prod_{j != i} f_j) df_i."""
    fam, sec, bases = _refined_bases(list(functions))

    def values(x):
        return [float(b(x)[0]) for b in bases]

    def jac(x):
        vals = values(x)
        return sum(math.prod(vals[:i] + vals[i + 1:]) * b.jacobian(x)
                   for i, b in enumerate(bases))

    base = DifferentiableMap(bases[0].domain_dim, 1, lambda x: np.array([math.prod(values(x))]),
                             jac=jac, name=name or "product")
    return CylindricalFunction(fam, sec, base, name=name or "product")

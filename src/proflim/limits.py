"""Limit points of a family: threads, section points, and lifted algebra.

A thread assigns to every index a level point, consistently with the
projections.  A section point stores values only on the members of a
section; it induces a thread by projecting below members and injecting
above them.  When an index sees several members, all of them must agree,
otherwise the data does not describe a limit point at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .family import ProfiniteFamily, audit_pairs, sample_chains
from .maps import DimensionMismatch, as_point, residual
from .poset import ComparableMembers, Section
from .report import VerificationReport


class IllDefinedSection(Exception):
    """Member values disagree at a commonly visible index."""


class Incomparable(Exception):
    """An index is no level a thread has a value at: no element of the poset,
    or comparable to no member of the section."""


class MorphismViolation(Exception):
    """A per-level operation is not intertwined by the projections."""


class NotInvertible(Exception):
    """A level value has no inverse under the given structure."""

    def __init__(self, index, msg=""):
        super().__init__(msg or f"value not invertible at level {index!r}")
        self.index = index


class Thread:
    """An assignment level -> level point, held as one float vector in its
    family's layout: the value at the level at position i is the read-only
    block `family.offsets[i]:family.offsets[i + 1]`.  A level the vector does
    not hold yet is evaluated by `fn` once, dimension-checked and stored,
    the value stored first winning; an index that is no element of
    `family.poset` raises Incomparable.
    """

    def __init__(self, family: ProfiniteFamily, fn: Callable[[Any], np.ndarray],
                 name: str = ""):
        self.family = family
        self._fn = fn
        self.name = name
        self._vec = np.empty(family.offsets[-1])
        self._held = np.zeros(family.offsets.size - 1, bool)  # by position
        self._read = self._vec.view()  # the values handed out, read-only
        self._read.setflags(write=False)

    def _missing(self, J) -> Incomparable:
        return Incomparable(f"index {J!r} is not a level of {self.family.name or 'the family'}")

    def _positions(self, levels: Sequence) -> np.ndarray:
        try:
            return self.family.poset.positions(levels)
        except KeyError as err:
            raise self._missing(err.args[0]) from None

    def value(self, J) -> np.ndarray:
        try:
            i = self.family.poset.position[J]
        except KeyError:
            raise self._missing(J) from None
        if not self._held[i]:
            self._fill(i, J)
        off = self.family.offsets
        return self._read[off[i]:off[i + 1]]

    __call__ = value

    def flat(self, levels: Sequence) -> tuple:
        """(values, sizes): the values at the levels concatenated into one
        vector, read by one gather, and the size of each."""
        pos = self._positions(levels)
        index, sizes = self.family.gather(pos)
        return self._take(levels, pos, index), sizes

    def _take(self, levels: Sequence, pos: np.ndarray, index: np.ndarray) -> np.ndarray:
        """The layout at `index`, the slots of the levels at positions pos,
        once every one of them is held."""
        held = self._held.take(pos)
        if np.count_nonzero(held) < held.size:
            for k in np.flatnonzero(~held).tolist():
                if not self._held[pos[k]]:  # a level listed twice is filled once
                    self._fill(int(pos[k]), levels[k])
        return self._vec.take(index)

    def _fill(self, i: int, J) -> None:
        """Store fn(J) at position i, unless a value is stored there first."""
        val = np.asarray(self._fn(J), float).ravel()
        lo, hi = self.family.offsets[i:i + 2].tolist()
        if val.size != hi - lo:
            raise DimensionMismatch(
                f"thread {self.name or 'anonymous'}: value at {J!r} has dim "
                f"{val.size}, expected {hi - lo}")
        if not self._held[i]:
            self._vec[lo:hi] = val
            self._held[i] = True

    def __repr__(self):
        return f"Thread({self.name or 'anonymous'})"


def _flat_pair(levels: Sequence, x: Thread, y: Thread) -> tuple:
    """The (values, sizes) of threads x and y of one family at levels: one
    position lookup and one gather index for both."""
    pos = x._positions(levels)
    index, sizes = x.family.gather(pos)
    return (x._take(levels, pos, index), sizes), (y._take(levels, pos, index), sizes)


def thread_axpy(x: Thread, s: float, v) -> Thread:
    """The assignment J -> x(J) + s * v(J); a thread again when both are
    and the projections are linear."""
    return Thread(x.family, lambda J: x(J) + s * as_point(v(J)),
                  name=f"{x.name}+{s}*dir")


@dataclass(frozen=True)
class SectionPoint:
    """Values on the members of a section."""

    family: ProfiniteFamily
    section: Section
    values: Mapping[Any, np.ndarray]

    @staticmethod
    def of(family: ProfiniteFamily, section, values: Mapping) -> "SectionPoint":
        sec = Section.of(family.poset, section)
        vals = {}
        for member in sec:
            if member not in values:
                raise IllDefinedSection(f"missing value for member {member!r}")
            pt = as_point(values[member]).copy()
            if pt.size != family.dim(member):
                raise DimensionMismatch(
                    f"value at {member!r} has dim {pt.size}, expected {family.dim(member)}")
            pt.setflags(write=False)
            vals[member] = pt
        return SectionPoint(family, sec, vals)


def _agreed(I, cands: list, tol: float) -> np.ndarray:
    """The first candidate at I, once every other one is within tol of it."""
    for other in cands[1:]:
        if not residual(other, cands[0]) <= tol:
            raise IllDefinedSection(
                f"member values disagree at {I!r}: {cands[0]} vs {other}")
    return cands[0]


def thread_from_section(sp: SectionPoint, tol: float = 1e-9,
                        check: bool = True) -> Thread:
    """The thread induced by a section point; `check` is ignored.

    Each member's values at the levels it reaches are one product of its
    cached `family.spread`, written at the spread's slots, and its own
    block is the member's value verbatim, so restricting the thread back
    to the section is float-exact.  Several members are compared at every
    pairwise join, then at every element of `poset.reach(section)`, and
    IllDefinedSection names the first disagreement; a later member fills
    only the levels no earlier one reaches.  A level no member reaches
    raises Incomparable.
    """
    def unreached(I):
        raise Incomparable(f"index {I!r} is comparable to no member of {sp.section}")

    fam, poset = sp.family, sp.family.poset
    joins = [poset.require_join(a, b) for a, b in combinations(sp.section, 2)]
    label = ",".join(repr(m) for m in sp.section)
    parts = []
    for member in sp.section:
        t = Thread(fam, unreached, name=f"sec[{label}]")
        positions, slots, spread = fam.spread(member)
        t._vec[slots] = spread(sp.values[member])
        i = poset.position[member]
        t._vec[fam.offsets[i]:fam.offsets[i + 1]] = sp.values[member]
        t._held[positions] = True
        parts.append(t)
    t = parts[0]
    if len(parts) > 1:  # a level one member alone reaches has nothing to compare
        named: dict = {}  # position -> the index a message names, joins first
        for I in joins:
            named.setdefault(poset.position[I], I)
        for i in poset.reach(sp.section).tolist():
            named.setdefault(i, poset.elements[i])
        for i, I in named.items():
            _agreed(I, [p(I) for p in parts if p._held[i]], tol)
        for p in parts[1:]:
            index, _ = fam.gather(np.flatnonzero(p._held & ~t._held))
            t._vec[index] = p._vec[index]
            t._held |= p._held
    return t


def restrict_thread(t: Thread, section) -> SectionPoint:
    sec = Section.of(t.family.poset, section)
    return SectionPoint.of(t.family, sec, {m: t(m) for m in sec})


def check_thread(t: Thread, pairs: Iterable[tuple], tol: float = 1e-9) -> VerificationReport:
    """Consistency residual max |t(J) - proj(J, K)(t(K))| over the listed pairs."""
    fam = t.family
    return audit_pairs(f"thread consistency: {t.name or 'anonymous'}", fam.poset, pairs, tol,
                       lambda J, K: (residual(t(J), fam.proj(J, K)(t(K))),),
                       "projection consistency")


def is_inductive(t: Thread, candidate_sections: Iterable,
                 tol: float = 1e-9) -> Optional[SectionPoint]:
    """First candidate section whose induced thread matches t at every
    element; a candidate with comparable members, or whose members disagree,
    is skipped."""
    poset = t.family.poset
    for section in candidate_sections:
        try:
            sp = restrict_thread(t, section)
            induced = thread_from_section(sp, tol=tol)
            # an index no member reaches raises Incomparable before t is read
            if all(residual(induced(idx), t(idx)) <= tol for idx in poset.elements):
                return sp
        except (ComparableMembers, IllDefinedSection, Incomparable):
            continue
    return None


# ---------------------------------------------------------------------------
# lifted algebra


@dataclass
class AlgebraicStructure:
    """Per-level operation oracles whose projection-compatibility makes the
    limit inherit the structure."""

    family: ProfiniteFamily
    op: Callable[[Any, np.ndarray, np.ndarray], np.ndarray]
    neutral: Optional[Callable[[Any], np.ndarray]] = None
    inverse: Optional[Callable[[Any, np.ndarray], np.ndarray]] = None
    name: str = ""


@dataclass
class ScalarAction:
    """A ring family acting on a module family, level by level."""

    ring: ProfiniteFamily
    module: ProfiniteFamily
    act: Callable[[Any, np.ndarray, np.ndarray], np.ndarray]
    name: str = ""


def _lift(family: ProfiniteFamily, level_op: Callable[[Any], np.ndarray],
          pairs: Optional[Iterable[tuple]], tol: float, rng: Optional[np.random.Generator],
          what: str, name: str) -> Thread:
    """The thread J -> level_op(J) once proj(J, K) carries level_op(K) to level_op(J) on
    every comparable pair, sampled if none are given; else MorphismViolation (NaN too)."""
    if pairs is None:
        pairs = sample_chains(family.poset, rng or np.random.default_rng(0), 12, 2)
    for J, K in pairs:
        if family.poset.leq(J, K) and J != K:
            gap = residual(family.proj(J, K)(level_op(K)), level_op(J))
            if not gap <= tol:
                raise MorphismViolation(
                    f"{what} is not projection-compatible at pair ({J!r}, {K!r}): "
                    f"residual {gap:.3e}")
    return Thread(family, level_op, name=name)


def lift_binary(structure: AlgebraicStructure, x: Thread, y: Thread,
                pairs: Optional[Iterable[tuple]] = None, tol: float = 1e-9,
                rng: Optional[np.random.Generator] = None) -> Thread:
    """Lift a per-level binary operation to threads.

    The projection-morphism property is verified at the operand values on
    sampled comparable pairs before the lifted thread is returned; a
    violation means the limit carries no such operation along these
    operands and raises MorphismViolation.
    """
    if x.family is not structure.family or y.family is not structure.family:
        raise Incomparable("operands must live in the structure's family")
    return _lift(structure.family, lambda J: structure.op(J, x(J), y(J)), pairs, tol, rng,
                 structure.name or "op", f"({x.name}){structure.name or 'op'}({y.name})")


def lift_inverse(structure: AlgebraicStructure, x: Thread,
                 pairs: Optional[Iterable[tuple]] = None, tol: float = 1e-9,
                 rng: Optional[np.random.Generator] = None) -> Thread:
    """Level-wise inverses, verified against the neutral thread."""
    if structure.inverse is None or structure.neutral is None:
        raise NotInvertible(None, "structure has no inverse/neutral oracles")
    rng = rng or np.random.default_rng(0)
    pairs = sample_chains(structure.family.poset, rng, 12, 2) if pairs is None else list(pairs)

    def invert(J):
        try:
            return structure.inverse(J, x(J))
        except (np.linalg.LinAlgError, ZeroDivisionError, FloatingPointError) as err:
            raise NotInvertible(J, f"level {J!r}: {err}") from err

    inv = Thread(structure.family, invert, name=f"inv({x.name})")
    product = lift_binary(structure, x, inv, pairs=pairs, tol=tol, rng=rng)
    indices = {J for pair in pairs for J in pair}
    for J in indices:
        gap = residual(product(J), structure.neutral(J))
        if not gap <= tol:
            raise NotInvertible(J, f"inverse check failed at {J!r}: residual {gap:.3e}")
    return inv


def lift_scalar_action(action: ScalarAction, r: Thread, x: Thread,
                       pairs: Optional[Iterable[tuple]] = None, tol: float = 1e-9,
                       rng: Optional[np.random.Generator] = None) -> Thread:
    """Lift r . x level-wise, checking compatibility on both families."""
    if r.family is not action.ring or x.family is not action.module:
        raise Incomparable("operands must live in the ring/module families")
    return _lift(action.module, lambda J: action.act(J, r(J), x(J)), pairs, tol, rng,
                 action.name or "scalar action", f"({r.name}).({x.name})")

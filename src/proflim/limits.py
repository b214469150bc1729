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

from .family import ProfiniteFamily, sample_pairs
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
    """An assignment level -> level point, kept by the level's position in
    `family.poset.elements`; an index that is no element raises Incomparable.

    `table`, when given, is (flat, starts, stops): one read-only vector and,
    by position, where each level's value starts and stops in it, -1 at a
    level it does not hold.  A level it holds is read as a slice of it; any
    other level is evaluated by `fn` once and memoized.
    """

    def __init__(self, family: ProfiniteFamily, fn: Callable[[Any], np.ndarray],
                 name: str = "", table: Optional[tuple] = None):
        self.family = family
        self._fn = fn
        self.name = name
        self._memo: dict = {}  # position -> read-only value
        self._table = table

    def _missing(self, J) -> Incomparable:
        return Incomparable(f"index {J!r} is not a level of {self.family.name or 'the family'}")

    def value(self, J) -> np.ndarray:
        try:
            i = self.family.poset.position[J]
        except KeyError:
            raise self._missing(J) from None
        return self._at(i, J)

    def _at(self, i: int, J) -> np.ndarray:
        """The value at level J, at position i."""
        if self._table is not None:
            flat, starts, stops = self._table
            if starts[i] >= 0:
                return flat[starts[i]:stops[i]]
        val = self._memo.get(i)
        if val is None:
            val = self._store(i, J, self._fn(J))
        return val

    def flat(self, levels: Sequence) -> tuple:
        """(values, sizes): the values at the levels concatenated into one
        vector, and the size of each.  Levels the table holds are read by
        one gather, others level by level."""
        pos = self._positions(levels)
        return self._flat(levels, pos, self._gather(pos))

    def _positions(self, levels: Sequence) -> np.ndarray:
        try:
            return self.family.poset.positions(levels)
        except KeyError as err:
            raise self._missing(err.args[0]) from None

    def _gather(self, pos: np.ndarray) -> Optional[tuple]:
        """(index, sizes): where the values at positions pos lie in the
        table's vector, and their sizes; None when the table does not hold
        every one of them."""
        if self._table is None:
            return None
        _, starts, stops = self._table
        first = starts.take(pos)
        if np.minimum.reduce(first, initial=0) < 0:
            return None
        sizes = stops.take(pos) - first
        idx = np.repeat(first - sizes.cumsum() + sizes, sizes)
        idx += np.arange(idx.size)
        return idx, sizes

    def _flat(self, levels: Sequence, pos: np.ndarray, gather: Optional[tuple]) -> tuple:
        """flat(levels), given the levels' positions and, when the table
        holds them all, their gather from _gather."""
        if gather is not None:
            idx, sizes = gather
            return self._table[0].take(idx), sizes
        return _joined([self._at(i, J) for i, J in zip(pos.tolist(), levels)])

    def _store(self, i: int, J, val) -> np.ndarray:
        """Memoize val at position i as a read-only copy; the value stored
        first wins."""
        val = as_point(val)
        if val.size != self.family.dim(J):
            raise DimensionMismatch(
                f"thread {self.name or 'anonymous'}: value at {J!r} has dim "
                f"{val.size}, expected {self.family.dim(J)}")
        val = val.copy()
        val.setflags(write=False)
        return self._memo.setdefault(i, val)

    __call__ = value

    def __repr__(self):
        return f"Thread({self.name or 'anonymous'})"


_NONE = np.zeros(0)


def _joined(values: Sequence) -> tuple:
    """(values, sizes) of per-level arrays: one flat vector, and each size."""
    return (np.concatenate([*values, _NONE], axis=None),
            np.fromiter((np.size(a) for a in values), np.intp, len(values)))


def _flat_pair(levels: Sequence, x, y) -> tuple:
    """The (values, sizes) of points x and y at levels, each a thread or a
    plain index->array callable.  Two threads over one poset look the levels
    up once, and two threads read through one spread table (the same starts
    and stops arrays) gather by one index."""
    if isinstance(x, Thread) and isinstance(y, Thread) and x.family.poset is y.family.poset:
        pos = x._positions(levels)
        gather = x._gather(pos)
        shared = (gather is not None and y._table is not None
                  and y._table[1] is x._table[1] and y._table[2] is x._table[2])
        return (x._flat(levels, pos, gather),
                y._flat(levels, pos, gather if shared else y._gather(pos)))
    return tuple(p.flat(levels) if isinstance(p, Thread)
                 else _joined([np.asarray(p(J), float) for J in levels]) for p in (x, y))


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
    cached `family.spread`, whose own block is the member's value verbatim,
    so restricting the thread back to the section is float-exact.  The
    thread reads every level as a slice of one read-only flat vector: a
    single member's product with its spread's position-to-offset table, or
    several members' products concatenated, each level read from the first
    member that reaches it.  Several members are compared at every pairwise
    join, then at every element of `poset.reach(section)`, and
    IllDefinedSection names the first disagreement.  A level no member
    reaches raises Incomparable.
    """
    def unreached(I):
        raise Incomparable(f"index {I!r} is comparable to no member of {sp.section}")

    poset = sp.family.poset
    joins = [poset.require_join(a, b) for a, b in combinations(sp.section, 2)]
    parts = []
    for member in sp.section:
        _, (starts, stops), spread = sp.family.spread(member)
        flat = np.array(spread(sp.values[member]))  # a copy this thread owns
        i = poset.position[member]
        flat[starts[i]:stops[i]] = sp.values[member]
        parts.append((flat, starts, stops))
    flat, starts, stops = parts[0]
    if len(parts) > 1:  # a level one member alone reaches has nothing to compare
        named: dict = {}  # position -> the index a message names, joins first
        for I in joins:
            named.setdefault(poset.position[I], I)
        for i in poset.reach(sp.section).tolist():
            named.setdefault(i, poset.elements[i])
        for i, I in named.items():
            _agreed(I, [f[lo[i]:hi[i]] for f, lo, hi in parts if lo[i] >= 0], tol)
        flat = np.concatenate([f for f, _, _ in parts])
        starts, stops = np.full_like(starts, -1), np.full_like(stops, -1)
        bases = np.cumsum([0] + [f.size for f, _, _ in parts])
        for (_, lo, hi), base in reversed(list(zip(parts, bases))):
            have = lo >= 0
            starts[have], stops[have] = lo[have] + base, hi[have] + base
    flat.setflags(write=False)
    label = ",".join(repr(m) for m in sp.section)
    return Thread(sp.family, unreached, name=f"sec[{label}]", table=(flat, starts, stops))


def restrict_thread(t: Thread, section) -> SectionPoint:
    sec = Section.of(t.family.poset, section)
    return SectionPoint.of(t.family, sec, {m: t(m) for m in sec})


def check_thread(t: Thread, pairs: Iterable[tuple], tol: float = 1e-9) -> VerificationReport:
    """Consistency residual max |t(J) - proj(J, K)(t(K))| over the pairs."""
    fam, key = t.family, t.family.poset.key
    gaps = [((key(J), key(K)), residual(t(J), fam.proj(J, K)(t(K))))
            for J, K in pairs if fam.poset.leq(J, K)]
    report = VerificationReport(f"thread consistency: {t.name or 'anonymous'}")
    report.add_worst("projection consistency", gaps, tol)
    return report


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


def _check_morphism(family: ProfiniteFamily, pairs: Sequence[tuple],
                    level_op: Callable[[Any], np.ndarray], tol: float, what: str) -> None:
    """Raise MorphismViolation unless proj(J, K) carries level_op(K) to
    level_op(J) on every comparable pair; a NaN residual violates."""
    for J, K in pairs:
        if family.poset.leq(J, K) and J != K:
            gap = residual(family.proj(J, K)(level_op(K)), level_op(J))
            if not gap <= tol:
                raise MorphismViolation(
                    f"{what} is not projection-compatible at pair ({J!r}, {K!r}): "
                    f"residual {gap:.3e}")


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
    rng = rng or np.random.default_rng(0)
    pairs = list(pairs) if pairs is not None else sample_pairs(structure.family.poset, rng)
    _check_morphism(structure.family, pairs, lambda J: structure.op(J, x(J), y(J)),
                    tol, structure.name or "op")
    return Thread(structure.family, lambda J: structure.op(J, x(J), y(J)),
                  name=f"({x.name}){structure.name or 'op'}({y.name})")


def lift_inverse(structure: AlgebraicStructure, x: Thread,
                 pairs: Optional[Iterable[tuple]] = None, tol: float = 1e-9,
                 rng: Optional[np.random.Generator] = None) -> Thread:
    """Level-wise inverses, verified against the neutral thread."""
    if structure.inverse is None or structure.neutral is None:
        raise NotInvertible(None, "structure has no inverse/neutral oracles")
    rng = rng or np.random.default_rng(0)
    pairs = list(pairs) if pairs is not None else sample_pairs(structure.family.poset, rng)

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
    rng = rng or np.random.default_rng(0)
    pairs = list(pairs) if pairs is not None else sample_pairs(action.module.poset, rng)
    _check_morphism(action.module, pairs, lambda J: action.act(J, r(J), x(J)),
                    tol, action.name or "scalar action")
    return Thread(action.module, lambda J: action.act(J, r(J), x(J)),
                  name=f"({r.name}).({x.name})")

"""Directed index posets, sections, and the filter of section shadows.

A poset is a finite tuple of elements with a `leq` oracle and a `join`
oracle that produces an upper bound for any two indices (directedness).
An infinite index set such as the naturals appears as a finite truncation.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Any, Callable, Iterable, Optional, Sequence


class JoinFailure(Exception):
    """The join oracle could not produce an upper bound for a pair."""

    def __init__(self, a, b):
        super().__init__(f"no upper bound for {a!r} and {b!r}")
        self.pair = (a, b)


class EmptySection(Exception):
    """Sections are nonempty by definition."""


class ComparableMembers(ValueError):
    """Two members of a would-be section are comparable."""


def _default_key(x):
    # total order on index identifiers, independent of leq, for canonical
    # sorting and witness names
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    return x


@dataclass(frozen=True)
class IndexPoset:
    """leq/join oracles over a finite element tuple; `below(I)` and
    `above(I)` list the elements <= I and >= I, in `elements` order."""

    leq: Callable[[Any, Any], bool]
    join: Callable[[Any, Any], Optional[Any]]
    elements: tuple
    below: Callable[[Any], tuple] = field(repr=False, compare=False)
    above: Callable[[Any], tuple] = field(repr=False, compare=False)
    key = staticmethod(_default_key)

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a, b) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def sort(self, indices: Iterable) -> list:
        return sorted(indices, key=self.key)

    def reach(self, members: Iterable) -> tuple:
        """Every element comparable to some member, each once, in `elements`
        order."""
        found = {J for m in members for side in (self.below(m), self.above(m)) for J in side}
        return tuple(sorted(found, key=self._position.__getitem__))

    @cached_property
    def _position(self) -> dict:
        return {J: i for i, J in enumerate(self.elements)}

    def require_join(self, a, b):
        r = self.join(a, b)
        if r is None or not (self.leq(a, r) and self.leq(b, r)):
            raise JoinFailure(a, b)
        return r


@dataclass(frozen=True)
class Section:
    """A finite antichain; members are canonically sorted."""

    members: tuple

    @staticmethod
    def of(poset: IndexPoset, members: Iterable) -> "Section":
        """The antichain of the members, or `members` itself when it is a
        Section; ComparableMembers names the first comparable pair."""
        if isinstance(members, Section):
            return members
        mem = tuple(poset.sort(set(members)))
        if not mem:
            raise EmptySection("a section must have at least one member")
        defect = _comparable_pair(poset, mem)
        if defect is not None:
            raise ComparableMembers(defect)
        return Section(mem)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, item):
        return item in self.members


# ---------------------------------------------------------------------------
# constructors


def chain_poset(indices: Iterable[int]) -> IndexPoset:
    """Finite totally ordered poset over the given integers."""
    els = tuple(sorted(int(i) for i in indices))
    return IndexPoset(leq=lambda a, b: a <= b,
                      join=lambda a, b: max(a, b),
                      elements=els,
                      below=lambda i: els[:bisect_right(els, i)],
                      above=lambda i: els[bisect_left(els, i):])


def finite_poset(elements: Iterable, leq: Callable[[Any, Any], bool]) -> IndexPoset:
    """Finite poset from an explicit leq oracle; joins found by search.

    The join oracle returns the canonically smallest minimal upper bound,
    or None when the pair has no upper bound at all.  The down- and up-set
    of every element are tabulated from leq once, here.
    """
    els = tuple(elements)
    below = {I: tuple(J for J in els if leq(J, I)) for I in els}
    above = {I: tuple(J for J in els if leq(I, J)) for I in els}

    def join(a, b):
        uppers = [r for r in els if leq(a, r) and leq(b, r)]
        if not uppers:
            return None
        minimal = [u for u in uppers
                   if not any(leq(v, u) and v != u for v in uppers)]
        return sorted(minimal, key=_default_key)[0]

    return IndexPoset(leq=leq, join=join, elements=els,
                      below=below.__getitem__, above=above.__getitem__)


def subset_poset(pool: Iterable) -> IndexPoset:
    """The subsets of a finite pool ordered by inclusion.

    The elements are all subsets of the pool, the empty set included, by
    size, then by `combinations` over the sorted pool.  The down-set of S
    (the subsets of S) and its up-set (S joined with each subset of the
    rest) are generated the same way, so they list the element objects in
    element order.
    """
    def leq(a, b):
        return frozenset(a) <= frozenset(b)

    def join(a, b):
        return frozenset(a) | frozenset(b)

    items = sorted(set(pool))

    def subsets(among):
        return (frozenset(sub) for r in range(len(among) + 1)
                for sub in combinations(among, r))

    els = tuple(subsets(items))
    canon = {S: S for S in els}

    def below(S):
        return tuple(canon[T] for T in subsets([t for t in items if t in S]))

    def above(S):
        S = frozenset(S)
        rest = [t for t in items if t not in S]
        return tuple(canon[S | R] for R in subsets(rest)) if S in canon else ()

    return IndexPoset(leq=leq, join=join, elements=els, below=below, above=above)


# ---------------------------------------------------------------------------
# operations


def is_directed(poset: IndexPoset, sample: Iterable) -> bool:
    """True iff the join oracle produces a valid upper bound for every
    pair in the sample.  Raises JoinFailure when the oracle cannot."""
    sample = list(sample)
    for a, b in combinations(sample, 2):
        r = poset.join(a, b)
        if r is None:
            raise JoinFailure(a, b)
        if not (poset.leq(a, r) and poset.leq(b, r)):
            return False
    return True


def _comparable_pair(poset: IndexPoset, members: Sequence) -> Optional[str]:
    return next((f"members {a!r} and {b!r} are comparable"
                 for a, b in combinations(members, 2) if poset.comparable(a, b)), None)


def section_defect(poset: IndexPoset, members: Iterable) -> Optional[str]:
    """Why the members are not a section, or None when they are: the first
    comparable pair of members, else the first element no member reaches,
    read from `poset.reach`."""
    mem = list(members.members) if isinstance(members, Section) else list(members)
    if not mem:
        raise EmptySection("a section must have at least one member")
    defect = _comparable_pair(poset, mem)
    if defect is not None:
        return defect
    reached = set(poset.reach(mem))
    return next((f"no member reaches level {J!r}"
                 for J in poset.elements if J not in reached), None)


def is_section(poset: IndexPoset, members: Iterable) -> bool:
    """Antichain test plus coverage of every element; see section_defect."""
    return section_defect(poset, members) is None


def enumerate_sections(poset: IndexPoset) -> list[Section]:
    """All sections of a finite poset, by antichain search plus coverage.

    Kept deliberately different from the brute-force power-set oracle used
    in the tests: antichains are grown element by element with comparability
    pruning, then filtered by the coverage condition.
    """
    els = poset.sort(poset.elements)
    found = []

    def grow(prefix, rest):
        if prefix and len(poset.reach(prefix)) == len(poset._position):
            found.append(Section(tuple(prefix)))
        for i, cand in enumerate(rest):
            if all(not poset.comparable(cand, m) for m in prefix):
                grow(prefix + [cand], rest[i + 1:])

    grow([], els)
    found.sort(key=lambda s: (len(s.members), tuple(poset.key(m) for m in s.members)))
    return found

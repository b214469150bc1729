"""Directed index posets, sections, and the filter of section shadows.

A poset is a finite tuple of elements with a `leq` oracle and a `join`
oracle that produces an upper bound for any two indices (directedness).
An infinite index set such as the naturals appears as a finite truncation.
An element's number is its position in the tuple; down-sets, up-sets and
reach are arrays of such numbers.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np


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
    return tuple(_ordered(x)) if isinstance(x, frozenset) else x


def _ordered(items: Iterable, key: Callable = lambda x: x) -> list:
    """sorted(items, key=key); when the keys do not compare (1 and "a"), they
    order by (type name, value) instead, so that every index set sorts."""
    items = list(items)
    try:
        return sorted(items, key=key)
    except TypeError:
        return sorted(items, key=lambda x: _typed(key(x)))


def _typed(k):
    return type(k).__name__, tuple(map(_typed, k)) if isinstance(k, tuple) else k


@dataclass(frozen=True)
class IndexPoset:
    """leq/join oracles over a finite element tuple; `down(i)` and `up(i)`
    are the positions of the elements <= and >= the element at position i,
    ascending."""

    leq: Callable[[Any, Any], bool]
    join: Callable[[Any, Any], Optional[Any]]
    elements: tuple
    down: Callable[[int], np.ndarray] = field(repr=False, compare=False)
    up: Callable[[int], np.ndarray] = field(repr=False, compare=False)
    key = staticmethod(_default_key)

    def lt(self, a, b) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a, b) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def sort(self, indices: Iterable) -> list:
        return _ordered(indices, self.key)

    @cached_property
    def position(self) -> dict:
        """element -> its position in `elements` (the last one, for a repeat)."""
        return {J: i for i, J in enumerate(self.elements)}

    def positions(self, indices: Iterable) -> np.ndarray:
        """The positions of the indices, as one int array; a KeyError names
        the first index that is no element."""
        return np.fromiter(map(self.position.__getitem__, indices), np.intp)

    def reach(self, members: Iterable) -> np.ndarray:
        """The positions of the elements comparable to some member, ascending."""
        hit = np.zeros(len(self.elements), bool)
        for i in self.positions(members):
            hit[self.down(i)] = True
            hit[self.up(i)] = True
        return np.flatnonzero(hit)

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
                      down=lambda i: np.arange(bisect_right(els, els[i])),
                      up=lambda i: np.arange(bisect_left(els, els[i]), len(els)))


def finite_poset(elements: Iterable, leq: Callable[[Any, Any], bool]) -> IndexPoset:
    """Finite poset from an explicit leq oracle; joins found by search.

    The join oracle returns the canonically smallest minimal upper bound,
    or None when the pair has no upper bound at all.  The order is
    tabulated from leq once, here: order[j, i] is leq(elements[j],
    elements[i]), so a down-set is a column and an up-set a row.
    """
    els = tuple(elements)
    order = np.array([[leq(a, b) for b in els] for a in els], bool).reshape(len(els), len(els))

    def join(a, b):
        uppers = [r for r in els if leq(a, r) and leq(b, r)]
        if not uppers:
            return None
        minimal = [u for u in uppers
                   if not any(leq(v, u) and v != u for v in uppers)]
        return _ordered(minimal, _default_key)[0]

    return IndexPoset(leq=leq, join=join, elements=els,
                      down=lambda i: np.flatnonzero(order[:, i]),
                      up=lambda i: np.flatnonzero(order[i]))


@lru_cache(maxsize=None)
def subset_masks(k: int) -> np.ndarray:
    """The bitmask (bit i for item i) of every subset of k sorted items, in
    subset_poset's element order: by size, then by `combinations`."""
    masks = np.fromiter((sum(1 << i for i in c) for r in range(k + 1)
                         for c in combinations(range(k), r)), np.int64, 1 << k)
    masks.setflags(write=False)
    return masks


def subset_poset(pool: Iterable) -> IndexPoset:
    """The subsets of a finite pool ordered by inclusion.

    The elements are all subsets of the pool, the empty set included, by
    size, then by `combinations` over the sorted pool.  The down- and up-set
    of S are read from the elements' bitmasks: T <= S when T has no bit
    outside S, and S <= T when T has every bit of S.
    """
    def leq(a, b):
        return frozenset(a) <= frozenset(b)

    def join(a, b):
        return frozenset(a) | frozenset(b)

    items = sorted(set(pool))
    els = tuple(frozenset(sub) for r in range(len(items) + 1)
                for sub in combinations(items, r))
    masks = subset_masks(len(items))

    def down(i):
        return np.flatnonzero((masks & ~masks[i]) == 0)

    def up(i):
        return np.flatnonzero((masks & masks[i]) == masks[i])

    return IndexPoset(leq=leq, join=join, elements=els, down=down, up=up)


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
    missed = np.setdiff1d(np.arange(len(poset.elements)), poset.reach(mem))
    return f"no member reaches level {poset.elements[missed[0]]!r}" if missed.size else None


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
        if prefix and len(poset.reach(prefix)) == len(els):
            found.append(Section(tuple(prefix)))
        for i, cand in enumerate(rest):
            if all(not poset.comparable(cand, m) for m in prefix):
                grow(prefix + [cand], rest[i + 1:])

    grow([], els)
    return _ordered(found, lambda s: (len(s.members), tuple(map(poset.key, s.members))))

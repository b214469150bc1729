"""Towers of coordinate spaces tied by projections and injections.

A ProfiniteFamily assigns to every index J a level space R^dim(J), to every
comparable pair J <= K a surjective projection proj(J, K): E_K -> E_J and an
injective map inj(K, J): E_J -> E_K with proj(J, K) o inj(K, J) = id.  The
audited axioms are the projection consistency along chains, the retraction,
and the injection cocycle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .maps import (DifferentiableMap, DimensionMismatch, as_point, compose,
                   fanout_map, matrix_map, residual)
from .poset import IndexPoset
from .report import VerificationReport


class FamilyMismatch(Exception):
    """Two objects do not live over the same family (or compatible ones)."""


class ProfiniteFamily:
    """Level dimensions plus one map rule.

    `maps(src, levels)` returns the transports from level `src` to each
    listed level, stacked in order as one map; the listed levels are all
    comparable to `src`, and the block of `src` itself is the identity.
    `proj(J, K)` asks it for `maps(K, [J])`, `inj(K, J)` for `maps(J, [K])`,
    J == K included, and `spread(m)` for `maps(m, levels)` at the levels
    `poset.reach([m])` numbers; every answer is shape-checked.  Produced
    maps are memoized, the one stored first winning; the family is
    immutable.
    A point of the limit is one vector in the layout `offsets`: the level
    at position i holds the block `offsets[i]:offsets[i + 1]`.
    """

    def __init__(self, poset: IndexPoset, level_dim: Callable[[Any], int],
                 maps: Callable[[Any, Sequence], DifferentiableMap], name: str = ""):
        self.poset = poset
        self._level_dim = level_dim
        self._maps = maps
        self.name = name
        self._cache: dict = {}

    def dim(self, J) -> int:
        return int(self._level_dim(J))

    def _ask(self, src, levels: Sequence, rows: int) -> DifferentiableMap:
        """The rule's answer maps(src, levels), refused with DimensionMismatch
        unless it takes dim(src) to `rows`, the levels' total dimension."""
        mp = self._maps(src, levels)
        want = self.dim(src), rows
        if (mp.domain_dim, mp.codomain_dim) != want:
            raise DimensionMismatch(f"maps({src!r}): declared {want[0]}->{want[1]}, "
                                    f"map has {mp.domain_dim}->{mp.codomain_dim}")
        return mp

    def _cached(self, kind: str, J, K):
        """The map of `kind` ("proj" or "inj") for the pair J <= K, built once.

        The cache is keyed by the indices themselves and read before the
        order oracle: an entry exists only for a pair that passed leq when
        it was built.  J == K shares one entry between both kinds: the
        rule's own block maps(J, [J]).
        """
        key = ("id", J) if J == K else (kind, J, K)
        if key in self._cache:
            return self._cache[key]
        if not self.poset.leq(J, K):
            pair = (J, K) if kind == "proj" else (K, J)
            raise FamilyMismatch(f"{kind} asked for a non-comparable pair {pair!r}")
        src, dst = (K, J) if kind == "proj" else (J, K)
        return self._cache.setdefault(key, self._ask(src, [dst], self.dim(dst)))

    def proj(self, J, K) -> DifferentiableMap:
        """The projection E_K -> E_J for J <= K."""
        return self._cached("proj", J, K)

    def inj(self, K, J) -> DifferentiableMap:
        """The injection E_J -> E_K for J <= K."""
        return self._cached("inj", J, K)

    def transport(self, src, dst) -> Optional[DifferentiableMap]:
        """The map E_src -> E_dst between comparable levels: proj(dst, src)
        when dst <= src, else inj(dst, src); None when they are incomparable."""
        if self.poset.leq(dst, src):
            return self.proj(dst, src)
        if self.poset.leq(src, dst):
            return self.inj(dst, src)
        return None

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each level's block starts in the layout, by position, and
        the layout's size last; read-only, computed once."""
        els = self.poset.elements
        off = np.concatenate(([0], np.fromiter(map(self._level_dim, els), np.intp, len(els))))
        np.cumsum(off, out=off)
        off.setflags(write=False)
        return off

    def gather(self, positions: np.ndarray) -> tuple:
        """(index, sizes): the layout slots of the blocks of the levels at
        `positions`, concatenated in that order, and each block's size."""
        ends = self.offsets[1:].take(positions)
        sizes = ends - self.offsets.take(positions)
        index = np.repeat(ends - sizes.cumsum(), sizes)
        index += np.arange(index.size)
        return index, sizes

    def spread(self, member) -> tuple:
        """(positions, slots, map), built once and read-only: the positions
        `poset.reach([member])`, the rule's answer `maps(member, levels)` at
        the levels in position order, and the layout slot of each row of its
        output; only this triple is cached."""
        key = ("spread", member)
        if key in self._cache:
            return self._cache[key]
        positions = self.poset.reach([member])
        slots, _ = self.gather(positions)
        stack = self._ask(member, [self.poset.elements[i] for i in positions.tolist()],
                          slots.size)
        for arr in (positions, slots):
            arr.setflags(write=False)
        return self._cache.setdefault(key, (positions, slots, stack))

    def __repr__(self):
        return f"ProfiniteFamily({self.name or 'anonymous'})"


# ---------------------------------------------------------------------------
# sampling helpers


def sample_point(dim: int, rng: np.random.Generator,
                 count: Optional[int] = None) -> np.ndarray:
    """One standard normal point of R^dim, or a (count, dim) batch of them.

    A batch consumes the stream exactly as `count` single draws would.
    """
    return rng.standard_normal(dim if count is None else (count, dim))


def sample_joint(rng: np.random.Generator, count: int, *dims: int) -> list[np.ndarray]:
    """`count` points of each R^dim, as one (count, sum(dims)) draw split by
    columns.  The stream is consumed exactly as `count` rounds of alternating
    single draws, one point of each R^dim per round in the order given."""
    X = sample_point(sum(dims), rng, count)
    return [X[:, end - d:end] for d, end in zip(dims, accumulate(dims))]


def audit_pairs(title: str, poset: IndexPoset, pairs: Iterable[tuple], tol: float,
                gaps: Callable[[Any, Any], tuple], *names: str) -> VerificationReport:
    """The report `title` over the listed pairs with J < K, in order: `gaps(J, K)`
    runs once per pair and returns one residual per check name, and each name
    becomes one check naming its worst pair (key(J), key(K))."""
    rows = [((poset.key(J), poset.key(K)), gaps(J, K))
            for J, K in pairs if poset.leq(J, K) and J != K]
    report = VerificationReport(title)
    for i, name in enumerate(names):
        report.add_worst(name, [(pair, res[i]) for pair, res in rows], tol)
    return report


def sample_chains(poset: IndexPoset, rng: np.random.Generator,
                  count: int = 30, length: int = 3) -> list[tuple]:
    """Random weakly increasing chains from a finite poset."""
    els = poset.elements
    chains = []
    for _ in range(count):
        chain = [int(rng.integers(len(els)))]
        for _ in range(length - 1):
            lower = poset.down(chain[-1])
            chain.append(int(lower[rng.integers(len(lower))]))
        chains.append(tuple(els[i] for i in reversed(chain)))  # increasing
    return chains


# ---------------------------------------------------------------------------
# family audit


def verify_family(family: ProfiniteFamily, points_per_chain: int = 100, tol: float = 1e-9,
                  rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """Numerically audit the family axioms along sampled chains.

    Checks, each reported with its max residual over all samples and its
    worst level, pair or triple; a NaN residual fails its check:
      identity     proj(J, J) = id, the rule's own block maps(J, [J])
      consistency  proj(J, L) = proj(J, K) o proj(K, L)
      retraction   proj(J, K) o inj(K, J) = id on E_J
      cocycle      inj(K, J) o inj(J, I) = inj(K, I)
    Each level, pair or triple draws its sample points as one batch.
    """
    rng = rng or np.random.default_rng(0)
    key = family.poset.key  # canonical witness names, stable under hash seeds
    ident, retr, cons, cocy = [], [], [], []
    for chain in sample_chains(family.poset, rng):
        for J in chain:
            X = sample_point(family.dim(J), rng, max(1, points_per_chain // 10))
            ident.append((key(J), residual(family.proj(J, J).rows(X), X)))
        for J, K in zip(chain, chain[1:]):
            if J == K:
                continue
            Y = sample_point(family.dim(J), rng, points_per_chain)
            back = family.proj(J, K).rows(family.inj(K, J).rows(Y))
            retr.append(((key(J), key(K)), residual(back, Y)))
        for I, K, L in zip(chain, chain[1:], chain[2:]):
            triple = (key(I), key(K), key(L))
            if len(set(triple)) < 3:
                continue
            X, Z = sample_joint(rng, points_per_chain, family.dim(L), family.dim(I))
            via_K = family.proj(I, K).rows(family.proj(K, L).rows(X))
            cons.append((triple, residual(family.proj(I, L).rows(X), via_K)))
            via_K = family.inj(L, K).rows(family.inj(K, I).rows(Z))
            cocy.append((triple, residual(via_K, family.inj(L, I).rows(Z))))

    report = VerificationReport(f"family axioms: {family.name or 'anonymous'}")
    report.add_worst("identity", ident, tol, what="level")
    report.add_worst("consistency", cons, tol, what="triple")
    report.add_worst("retraction", retr, tol)
    report.add_worst("cocycle", cocy, tol, what="triple")
    return report


# ---------------------------------------------------------------------------
# maps between families


@dataclass
class ProfiniteMap:
    """An order-preserving index map plus one level map per index.

    The level map at J goes from source level J to target level
    index_map(J); it must commute with the projections on both sides.
    """

    source: ProfiniteFamily
    target: ProfiniteFamily
    index_map: Callable[[Any], Any]
    level_map: Callable[[Any], DifferentiableMap]
    name: str = ""

    def __call__(self, J) -> DifferentiableMap:
        return self.level_map(J)


def compose_profinite_maps(f: ProfiniteMap, g: ProfiniteMap) -> ProfiniteMap:
    """f after g; index maps compose in the same order."""
    if g.target is not f.source:
        raise FamilyMismatch("compose: g must land in the source family of f")
    return ProfiniteMap(
        source=g.source, target=f.target,
        index_map=lambda J: f.index_map(g.index_map(J)),
        level_map=lambda J: compose(f.level_map(g.index_map(J)), g.level_map(J)),
        name=f"{f.name or 'f'}o{g.name or 'g'}")


def check_profinite_map(f: ProfiniteMap, pairs: Iterable[tuple],
                        samples: int = 20, tol: float = 1e-9,
                        rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """Index-map order and commuting-square residuals over the listed pairs;
    a pair whose images are not comparable fails both, its square residual NaN."""
    rng = rng or np.random.default_rng(0)

    def gaps(J, K):
        fJK = f.index_map(J), f.index_map(K)
        if not f.target.poset.leq(*fJK):
            return 1.0, float("nan")
        X = sample_point(f.source.dim(K), rng, samples)
        lhs = f.target.proj(*fJK).rows(f.level_map(K).rows(X))
        return 0.0, residual(lhs, f.level_map(J).rows(f.source.proj(J, K).rows(X)))
    return audit_pairs(f"profinite map: {f.name or 'anonymous'}", f.source.poset, pairs, tol,
                       gaps, "index-map order-preserving", "commuting squares")


def is_profinite_diffeomorphism(f: ProfiniteMap, g: ProfiniteMap,
                                indices: Iterable, samples: int = 20,
                                tol: float = 1e-9,
                                rng: Optional[np.random.Generator] = None) -> bool:
    """Check that g inverts f level-wise and on indices, at sampled points."""
    rng = rng or np.random.default_rng(0)
    for J in indices:
        K = f.index_map(J)
        if g.index_map(K) != J:
            return False
        fJ, gK = f.level_map(J), g.level_map(K)
        X, Y = sample_joint(rng, samples, f.source.dim(J), f.target.dim(K))
        if not (residual(gK.rows(fJ.rows(X)), X) <= tol
                and residual(fJ.rows(gK.rows(Y)), Y) <= tol):
            return False
    return True


# ---------------------------------------------------------------------------
# tangent and cotangent structure


def _tangent_map(mp: DifferentiableMap) -> DifferentiableMap:
    """(x, v) -> (f(x), Df(x) v), with exact block Jacobian for linear f."""
    dom, cod = mp.domain_dim, mp.codomain_dim
    if mp.is_linear:
        block = np.zeros((2 * cod, 2 * dom))
        block[:cod, :dom] = mp.matrix
        block[cod:, dom:] = mp.matrix
        return matrix_map(block, name=f"T{mp.name}")

    def fn(xv):
        x, v = xv[:dom], xv[dom:]
        return np.concatenate([mp(x), mp.jacobian(x) @ v])

    return DifferentiableMap(2 * dom, 2 * cod, fn, name=f"T{mp.name}")


def tangent_family(family: ProfiniteFamily) -> ProfiniteFamily:
    """Levels double in dimension; the rule's block for each level is the
    tangent map (x, v) -> (f(x), Df(x) v) of the family's transport f."""
    return ProfiniteFamily(
        family.poset, lambda J: 2 * family.dim(J),
        lambda src, levels: fanout_map([_tangent_map(family.transport(src, I))
                                        for I in levels]),
        name=f"T({family.name or 'family'})")


def cotangent_maps(family: ProfiniteFamily, J, K, point_at_K):
    """Covector transport for the pair J <= K at a base point of E_K.

    Returns (push_up, push_down): push_up carries covectors at level J to
    level K through the transposed projection Jacobian, push_down carries
    them back through the transposed injection Jacobian taken at the
    projected base point.  push_down o push_up is the identity on covectors
    at level J (the dual of the retraction), exactly so for linear maps.
    """
    point_at_K = as_point(point_at_K)
    x_J = family.proj(J, K)(point_at_K)
    dproj = family.proj(J, K).jacobian(point_at_K)
    dinj = family.inj(K, J).jacobian(x_J)
    push_up = matrix_map(dproj.T, name=f"cotangent-up({J!r}->{K!r})")
    push_down = matrix_map(dinj.T, name=f"cotangent-down({K!r}->{J!r})")
    return push_up, push_down


# ---------------------------------------------------------------------------
# fibrations


@dataclass
class FibrationData:
    """A family of bundles: total and base families over one poset plus a
    bundle projection per level."""

    total: ProfiniteFamily
    base: ProfiniteFamily
    bundle_proj: Callable[[Any], DifferentiableMap]
    name: str = ""


def verify_fibration(data: FibrationData, pairs: Iterable[tuple],
                     samples: int = 20, tol: float = 1e-9,
                     rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """Bundle projections must intertwine both projections and injections."""
    total, base, rng = data.total, data.base, rng or np.random.default_rng(0)

    def gaps(J, K):
        pJ, pK = data.bundle_proj(J), data.bundle_proj(K)
        X, Y = sample_joint(rng, samples, total.dim(K), total.dim(J))
        return (residual(pJ.rows(total.proj(J, K).rows(X)), base.proj(J, K).rows(pK.rows(X))),
                residual(pK.rows(total.inj(K, J).rows(Y)), base.inj(K, J).rows(pJ.rows(Y))))
    return audit_pairs(f"fibration: {data.name or 'anonymous'}", total.poset, pairs, tol, gaps,
                       "bundle-projection vs projections", "bundle-projection vs injections")

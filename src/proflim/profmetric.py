"""Pseudo-distances on towers built from per-level metric families.

Level distances are squashed through phi(d) = d / (1 + d) so that sups and
weighted sums stay finite no matter how the level metrics grow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress, pairwise
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .family import FamilyMismatch, ProfiniteFamily, audit_pairs, sample_joint
from .limits import SectionPoint, Thread, _flat_pair, thread_from_section
from .maps import DimensionMismatch, residual
from .report import VerificationReport

def _phi(d: np.ndarray) -> np.ndarray:
    """d/(1+d) entrywise, with an infinite distance squashed to 1."""
    if (d < 0).any():
        raise ValueError("negative level distance")
    return np.divide(d, 1.0 + d, out=np.ones_like(d), where=~np.isinf(d))


def squash(d: float) -> float:
    """phi(d) = d/(1+d): monotone, bounded by 1, subadditive."""
    return float(_phi(np.array([d], float))[0])


@dataclass
class LevelMetricFamily:
    """dist(J, x, y) is a pseudo-metric on each level space."""

    family: ProfiniteFamily
    dist: Callable[[Any, np.ndarray, np.ndarray], float]

    @property
    def kind(self) -> str:
        """dist's name in METRICS, or "custom" for any other dist."""
        return next((k for k, d in METRICS.items() if d is self.dist), "custom")

    def __call__(self, J, x, y) -> float:
        return float(self.distances((J,), (np.asarray(x, float),),
                                    (np.asarray(y, float),))[0])

    def distances(self, levels: Sequence, xs: Sequence, ys: Sequence) -> np.ndarray:
        """dist(levels[i], xs[i], ys[i]) for every i, the values as arrays."""
        return self._flat(levels, _joined(xs), _joined(ys))

    def _flat(self, levels: Sequence, x: tuple, y: tuple) -> np.ndarray:
        """dist at each level between two points read flat, each as (values,
        sizes).  The euclidean metric runs them as one batch of its kernel, so
        a level's distance is the same number in every batch, __call__'s batch
        of one included; other metrics call dist once per level slice."""
        if self.dist is _euclidean:
            return _euclidean_batch(levels, x, y)
        xs, ys = ([v[a:b] for a, b in pairwise([0, *n.cumsum().tolist()])] for v, n in (x, y))
        return np.array([self.dist(J, a, b) for J, a, b in zip(levels, xs, ys)], dtype=float)


def _joined(values: Sequence) -> tuple:
    """(values, sizes) of per-level arrays: one flat vector, and each size."""
    return (np.concatenate([np.zeros(0), *values], axis=None),
            np.fromiter((np.size(a) for a in values), np.intp, len(values)))


def _euclidean_batch(levels: Sequence, x: tuple, y: tuple) -> np.ndarray:
    """The norms of the level differences of two points read flat, each as
    (values, sizes): one subtraction of the two vectors and one sum of
    squares per level at the level cuts.  Sizes that differ at a level are a
    DimensionMismatch; one sizes array read by both points is not compared."""
    (fx, nx), (fy, ny) = x, y
    if nx is not ny and (nx != ny).any():
        k = int((nx != ny).argmax())
        raise DimensionMismatch(f"level {levels[k]!r}: values of sizes {nx[k]} and {ny[k]}")
    # cut at each level's start and at a trailing zero, so the last level's
    # sum ends where its values do; an empty level's sum reads the next
    # level's first square, and is reset to 0
    d = np.zeros(fx.size + 1)
    np.subtract(fx, fy, out=d[:-1])
    d *= d
    cuts = np.zeros(nx.size + 1, np.intp)
    np.cumsum(nx, out=cuts[1:])
    sums = np.add.reduceat(d, cuts)[:-1]
    sums[nx == 0] = 0.0
    return np.sqrt(sums, out=sums)


def _euclidean(J, x, y) -> float:
    """The euclidean level distance, as a batch of one level."""
    return float(_euclidean_batch((J,), _joined((x,)), _joined((y,)))[0])


def _discrete(J, x, y) -> float:
    return 0.0 if np.array_equal(x, y) else 1.0


METRICS = {"euclidean": _euclidean, "discrete": _discrete}


def euclidean_metrics(family: ProfiniteFamily) -> LevelMetricFamily:
    return LevelMetricFamily(family, _euclidean)


def discrete_metrics(family: ProfiniteFamily) -> LevelMetricFamily:
    return LevelMetricFamily(family, _discrete)


def injection_isometry_check(m: LevelMetricFamily, pairs: Iterable[tuple],
                             samples: int = 20, tol: float = 1e-9,
                             rng: Optional[np.random.Generator] = None
                             ) -> VerificationReport:
    """Whether injections preserve level distances on sampled pairs."""
    fam, rng = m.family, rng or np.random.default_rng(0)

    def gaps(J, K):
        inj = fam.inj(K, J)
        X, Y = sample_joint(rng, samples, fam.dim(J), fam.dim(J))
        return (residual(m.distances([K] * samples, inj.rows(X), inj.rows(Y)),
                         m.distances([J] * samples, X, Y)),)
    return audit_pairs(f"injection isometry ({m.kind})", fam.poset, pairs, tol, gaps,
                       "dist(inj x, inj y) = dist(x, y)")


def _thread(m: LevelMetricFamily, p) -> Thread:
    """The point p as a thread of m's family: a section point its checked
    thread, a plain callable or a thread of another family over m's poset one
    that is dimension-checked; a thread over another poset is FamilyMismatch."""
    if isinstance(p, SectionPoint):
        p = thread_from_section(p)
    if isinstance(p, Thread) and p.family.poset is not m.family.poset:
        raise FamilyMismatch(f"thread {p.name or 'anonymous'} does not live over the "
                             f"poset of {m.family.name or 'the metric family'}")
    return p if isinstance(p, Thread) and p.family is m.family else Thread(m.family, p)


def _squashed(m: LevelMetricFamily, levels: list, x, y) -> np.ndarray:
    """phi of the distances between points x and y at levels, as one batch; a
    NaN distance is a ValueError naming the first such level.  Both points
    are read as threads of m's family, through one position lookup and one
    gather index."""
    d = m._flat(levels, *_flat_pair(levels, _thread(m, x), _thread(m, y)))
    nan = np.isnan(d)
    if nan.any():
        i = int(nan.argmax())
        raise ValueError(f"level {levels[i]!r}: the distance is {d[i]}, not a number")
    return _phi(d)


def d_inf(m: LevelMetricFamily, x, y, level_sets: Iterable[Iterable],
          tol: float = 1e-9):
    """sup_J phi(dist_J) approximated over a growing sequence of level sets.

    Returns (value, converged, history).  Each stage takes the sup over all
    levels seen so far, so history is monotone; converged means the last
    enlargement moved the sup by at most tol.  Never a proof: the sup
    covers only the levels in the given stages, and a level left out of
    them can raise it.  A NaN level
    distance is a ValueError naming the level; an infinite one squashes to 1.
    Every stage's new levels are measured in one batch.
    """
    seen: dict = {}  # every level once, in visit order
    ends = []
    for stage in level_sets:
        seen.update(dict.fromkeys(stage))
        ends.append(len(seen))
    if not seen:
        raise ValueError("no levels supplied")
    # running[k] is the sup over the first k levels, and 0 before any
    running = np.maximum.accumulate(np.concatenate(([0.0], _squashed(m, list(seen), x, y))))
    history = running[ends].tolist()
    converged = len(history) >= 2 and history[-1] - history[-2] <= tol
    return history[-1], converged, history


@dataclass
class IndexMeasure:
    """Finite nonnegative weights on finitely many indices, plus unseen tail mass."""

    weights: Mapping[Any, float]
    tail_mass: float = 0.0

    def __post_init__(self):
        for J, w in self.weights.items():
            if not 0.0 <= w < math.inf:
                raise ValueError(f"weight {w} at {J!r} is not a finite number >= 0")
        if not 0.0 <= self.tail_mass < math.inf:
            raise ValueError(f"tail mass {self.tail_mass} is not a finite number >= 0")

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights.values())) + self.tail_mass


def d_mu(m: LevelMetricFamily, mu: IndexMeasure, x, y):
    """sum_J mu(J) phi(dist_J) over the measure's support.

    Returns (value, error_bound): phi is bounded by 1, so indices outside
    the support contribute at most the tail mass.  A NaN level distance is
    a ValueError naming the level, as in d_inf.
    """
    w = np.fromiter(mu.weights.values(), float, len(mu.weights))
    keep = w != 0.0
    p = _squashed(m, list(compress(mu.weights, keep)), x, y)
    # cumsum adds left to right: the sum is the sequential one, in support order
    return (float(np.cumsum(w[keep] * p)[-1]) if p.size else 0.0), mu.tail_mass


def pseudo_metric_audit(dist_fn: Callable[[Any, Any], float], points: list,
                        tol: float = 1e-12, check_ultrametric: bool = False,
                        check_positive: bool = False) -> VerificationReport:
    """Symmetry, d(x,x)=0, nonnegativity, and the (strong) triangle inequality.

    check_positive additionally demands d(x,y) > 0 for the distinct sampled
    pairs, which pseudo-distances legitimately fail.
    """
    report = VerificationReport("pseudo-metric audit")
    n = len(points)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = dist_fn(points[i], points[j])

    report.add("d(x, x) = 0", residual(np.diag(d), 0.0), tol)
    report.add("nonnegative", residual(np.minimum(d, 0.0), 0.0), tol)
    report.add("symmetric", residual(d, d.T), tol)

    excess = [d[a, b] - (max(d[a, c], d[c, b]) if check_ultrametric else d[a, c] + d[c, b])
              for i, j, k in combinations(range(n), 3)
              for a, b, c in ((i, j, k), (j, k, i), (k, i, j))]
    report.add("ultrametric inequality" if check_ultrametric else "triangle inequality",
               float(np.max(excess, initial=0.0)), tol)

    if check_positive:
        off = [d[i, j] for i in range(n) for j in range(n) if i != j]
        least = min(off) if off else 1.0
        # shortfall below strict positivity; 0 residual only when all positive
        report.add("positive on distinct points", 0.0 if least > tol else 1.0, 0.5)
    return report

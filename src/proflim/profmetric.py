"""Pseudo-distances on towers built from per-level metric families.

Level distances are squashed through phi(d) = d / (1 + d) so that sups and
weighted sums stay finite no matter how the level metrics grow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Iterable, Mapping, Optional

import numpy as np

from .family import ProfiniteFamily, sample_joint, strict_pairs
from .limits import SectionPoint, Thread, extend_section_point
from .maps import residual
from .report import VerificationReport

METRIC_KINDS = ("euclidean", "discrete", "custom")


def squash(d: float) -> float:
    """phi(d) = d/(1+d): monotone, bounded by 1, subadditive."""
    if d < 0:
        raise ValueError("negative level distance")
    if math.isinf(d):
        return 1.0
    return d / (1.0 + d)


@dataclass
class LevelMetricFamily:
    """dist(J, x, y) is a pseudo-metric on each level space."""

    family: ProfiniteFamily
    dist: Callable[[Any, np.ndarray, np.ndarray], float]
    kind: str = "custom"

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")

    def __call__(self, J, x, y) -> float:
        return float(self.dist(J, np.asarray(x, float), np.asarray(y, float)))


def _euclidean(J, x, y) -> float:
    # float(np.linalg.norm(x - y)) bit for bit, without the wrapper's dispatch
    d = np.ravel(x - y)
    return math.sqrt(d.dot(d))


def euclidean_metrics(family: ProfiniteFamily) -> LevelMetricFamily:
    return LevelMetricFamily(family, _euclidean, kind="euclidean")


def discrete_metrics(family: ProfiniteFamily) -> LevelMetricFamily:
    return LevelMetricFamily(
        family, lambda J, x, y: 0.0 if np.array_equal(x, y) else 1.0,
        kind="discrete")


def injection_isometry_check(m: LevelMetricFamily, pairs: Iterable[tuple],
                             samples: int = 20, tol: float = 1e-9,
                             rng: Optional[np.random.Generator] = None
                             ) -> VerificationReport:
    """Whether injections preserve level distances on sampled pairs."""
    rng = rng or np.random.default_rng(0)
    fam = m.family
    gaps = []
    for pair, J, K in strict_pairs(fam.poset, pairs):
        inj = fam.inj(K, J)
        X, Y = sample_joint(rng, samples, fam.dim(J), fam.dim(J))
        gaps.append((pair,
                     residual([m(K, a, b) for a, b in zip(inj.rows(X), inj.rows(Y))],
                              [m(J, x, y) for x, y in zip(X, Y)])))
    report = VerificationReport(f"injection isometry ({m.kind})")
    report.add_worst("dist(inj x, inj y) = dist(x, y)", gaps, tol)
    return report


def _value_at(obj, J) -> np.ndarray:
    """Level value of a thread, section point, or plain index->array callable."""
    if isinstance(obj, Thread):
        return obj.value(J)
    if isinstance(obj, SectionPoint):
        return extend_section_point(obj, J)
    return np.asarray(obj(J), float)


def _squashed(m: LevelMetricFamily, J, x, y) -> float:
    """phi of the level-J distance; a NaN distance is a ValueError naming J."""
    d = m(J, _value_at(x, J), _value_at(y, J))
    if d != d:
        raise ValueError(f"level {J!r}: the distance is {d}, not a number")
    return squash(d)


def d_inf(m: LevelMetricFamily, x, y, level_sets: Iterable[Iterable],
          tol: float = 1e-9):
    """sup_J phi(dist_J) approximated over a growing sequence of level sets.

    Returns (value, converged, history).  Each stage takes the sup over all
    levels seen so far, so history is monotone; converged means the last
    enlargement moved the sup by at most tol.  Never a proof: the true sup
    over an infinite poset can exceed every finite stage.  A NaN level
    distance is a ValueError naming the level; an infinite one squashes to 1.
    """
    seen = set()
    history = []
    current = 0.0
    for stage in level_sets:
        for J in stage:
            if J in seen:
                continue
            seen.add(J)
            current = max(current, _squashed(m, J, x, y))
        history.append(current)
    if not history:
        raise ValueError("no levels supplied")
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
    total = 0.0
    for J, w in mu.weights.items():
        if w == 0.0:
            continue
        total += w * _squashed(m, J, x, y)
    return total, mu.tail_mass


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
    report.add("nonnegative", float(max(0.0, -d.min())) if n else 0.0, tol)
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

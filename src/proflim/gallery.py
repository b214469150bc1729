"""Worked tower families: concrete, small, and fully checkable.

Every projection and injection here is linear (selection, zero padding, or
interpolation weights), so the structural axioms hold to machine precision
and verification reports come back with residuals at rounding scale.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from .calculus import constant_form
from .cylinder import CylindricalFunction
from .family import ProfiniteFamily, ProfiniteMap
from .limits import AlgebraicStructure, ScalarAction, Thread
from .maps import (DifferentiableMap, DimensionMismatch, ScalarMap, fanout_map,
                   identity_map, matrix_map, scatter_map, selection_map)
from .poset import (IndexPoset, Section, chain_poset, finite_poset, subset_masks,
                    subset_poset)
from .profmetric import IndexMeasure, euclidean_metrics
from .symplectic import MomentumMap, ProfiniteGroupAction, canonical_omega


@dataclass
class GalleryFamily:
    """A named family bundled with the objects that make it interesting."""

    name: str
    family: ProfiniteFamily
    description: str
    extras: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key):
        return self.extras[key]


def _coordinate_family(poset: IndexPoset, level_dim: Callable[[Any], int], name: str,
                       coords: Optional[Callable[[Any, Any], Sequence[int]]] = None
                       ) -> ProfiniteFamily:
    """Family whose level J sits in level K as the coordinates coords(J, K),
    by default the first level_dim(J): projections select those
    coordinates and injections scatter them, zero elsewhere."""
    coords = coords or (lambda J, K: range(level_dim(J)))

    def block(src, dst):
        if dst == src:
            return identity_map(level_dim(src))
        if poset.leq(dst, src):
            return selection_map(level_dim(src), coords(dst, src))
        return scatter_map(level_dim(dst), coords(src, dst))

    return ProfiniteFamily(poset, level_dim,
                           lambda src, levels: fanout_map([block(src, I) for I in levels]),
                           name=name)


# ---------------------------------------------------------------------------
# nested Euclidean spaces R^0 c R^1 c ... under coordinate truncation


def sequence_thread(family: ProfiniteFamily, seq: Sequence[float],
                    name: str = "") -> Thread:
    """Thread on a truncation chain whose level-n value is the prefix seq[:n]."""
    arr = np.asarray(seq, dtype=float)

    def fn(n):
        if n > arr.size:
            raise DimensionMismatch(f"sequence of length {arr.size} has no level {n}")
        return arr[:n]

    return Thread(family, fn, name=name)


def euclid_tower(max_level: int = 6) -> GalleryFamily:
    fam = _coordinate_family(chain_poset(range(max_level + 1)), lambda n: n, "euclid")
    zeros = Thread(fam, lambda n: np.zeros(n), name="origin")
    # prefix distances grow to ||(3,4)|| = 5, so the squashed sup is 5/6
    seq = np.zeros(max_level + 1)
    seq[0], seq[1] = 3.0, 4.0
    three_four = sequence_thread(fam, seq, name="three-four")
    return GalleryFamily(
        "euclid", fam,
        "coordinate truncation chain on nested Euclidean levels",
        extras={
            "origin": zeros,
            "three_four": three_four,
            "sequence_thread": lambda s, name="": sequence_thread(fam, s, name),
            "metrics": euclidean_metrics(fam),
            "inverse_square_measure": inverse_square_measure(max_level),
        })


def inverse_square_measure(max_level: int) -> IndexMeasure:
    """Weights 1/n^2 on levels 1..max_level; the unlisted tail is bounded
    by the integral comparison sum_{n>N} 1/n^2 <= 1/N."""
    weights = {n: 1.0 / n ** 2 for n in range(1, max_level + 1)}
    exact_tail = float(np.pi ** 2 / 6 - sum(weights.values()))
    return IndexMeasure(weights, tail_mass=exact_tail)


# ---------------------------------------------------------------------------
# truncated polynomials: level n holds coefficients of degree <= n


def poly_thread(family: ProfiniteFamily, coeffs: Sequence[float],
                name: str = "") -> Thread:
    arr = np.asarray(coeffs, dtype=float)

    def fn(n):
        out = np.zeros(n + 1)
        take = min(arr.size, n + 1)
        out[:take] = arr[:take]
        return out

    return Thread(family, fn, name=name)


def _poly_mul_level(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    full = np.convolve(a, b)
    return full[:a.size]


def poly_tower(max_degree: int = 6) -> GalleryFamily:
    fam = _coordinate_family(chain_poset(range(max_degree + 1)), lambda n: n + 1, "poly")
    exp_series = Thread(
        fam,
        lambda n: 1.0 / np.array([math.factorial(k) for k in range(n + 1)],
                                 dtype=float),
        name="exp-series")
    add = AlgebraicStructure(
        fam, op=lambda J, a, b: a + b,
        neutral=Thread(fam, lambda n: np.zeros(n + 1), name="zero"),
        name="coefficientwise addition")
    # truncated convolution: degrees above the level are cut, which commutes
    # with further truncation
    mul = AlgebraicStructure(
        fam, op=lambda J, a, b: _poly_mul_level(a, b),
        neutral=Thread(fam, lambda n: np.eye(n + 1)[0], name="one"),
        name="truncated product")
    ring = _coordinate_family(chain_poset(range(max_degree + 1)), lambda n: 1, "constants")
    scal = ScalarAction(
        ring=ring, module=fam,
        act=lambda J, c, a: float(c[0]) * a,
        name="scalar rescaling")
    return GalleryFamily(
        "poly", fam,
        "polynomial coefficient truncation chain with exp-series thread",
        extras={
            "exp_series": exp_series,
            "poly_thread": lambda c, name="": poly_thread(fam, c, name),
            "add": add, "mul": mul, "scale": scal,
            "constants": ring,
            "scalar_thread": lambda c, name="": Thread(
                ring, lambda n, _c=float(c): np.array([_c]), name=name or f"const {c}"),
            "eval_at": lambda t, n, x: float(
                np.polyval(t(n)[::-1], float(x))),
        })


# jet towers share the truncation structure; keep the alias visible
def jet_tower(max_order: int = 6) -> GalleryFamily:
    g = poly_tower(max_order)
    g.name = "jet"
    g.description = "alias of the polynomial tower (Taylor coefficients)"
    return g


# ---------------------------------------------------------------------------
# square matrices under corner embedding


def _corner_indices(J: int, K: int) -> list:
    return [r * K + c for r in range(J) for c in range(J)]


def matrix_tower(max_n: int = 4) -> GalleryFamily:
    fam = _coordinate_family(chain_poset(range(1, max_n + 1)), lambda n: n * n, "matrix",
                             coords=_corner_indices)

    def as_block(J, x):
        n = int(round(np.sqrt(x.size)))
        return x.reshape(n, n)

    def laplacian_block(n: int) -> np.ndarray:
        # mode k has eigenvalue k^2; exponentials stay diagonal, so corner
        # truncation is exact on this thread
        return np.diag(np.exp(np.arange(1, n + 1, dtype=float) ** 2))

    laplacian_exp = Thread(fam, laplacian_block, name="laplacian-exp")
    identity = Thread(fam, np.eye, name="identity")
    mul = AlgebraicStructure(
        fam,
        op=lambda J, a, b: (as_block(J, a) @ as_block(J, b)).ravel(),
        neutral=identity,
        inverse=lambda J, a: np.linalg.inv(as_block(J, a)).ravel(),
        name="matrix product")
    return GalleryFamily(
        "matrix", fam,
        "square matrices under corner embedding, with the heat semigroup thread",
        extras={
            "laplacian_exp": laplacian_exp,
            "identity": identity,
            "mul": mul,
            "matrix_thread": lambda f, name="": Thread(fam, f, name),
            "as_block": as_block,
        })


# ---------------------------------------------------------------------------
# the four-element diamond: two incomparable middle levels


def cross_family() -> GalleryFamily:
    order = {"I": 0, "J": 1, "K": 1, "L": 2}
    poset = finite_poset(["I", "J", "K", "L"],
                         leq=lambda a, b: a == b or order[a] < order[b])
    dims = {"I": 0, "J": 1, "K": 1, "L": 2}
    fam = _coordinate_family(poset, dims.__getitem__, "cross",
                             coords=lambda J, K: {"J": [0], "K": [1]}.get(J, []))
    swap = ProfiniteMap(
        source=fam, target=fam,
        index_map=lambda n: {"J": "K", "K": "J"}.get(n, n),
        level_map=lambda n: (matrix_map(np.array([[0.0, 1.0], [1.0, 0.0]]))
                             if n == "L" else
                             matrix_map(np.eye(dims[n]))),
        name="swap")
    return GalleryFamily(
        "cross", fam,
        "four levels with an incomparable middle pair joined at the top",
        extras={"swap": swap,
                "middle_section": Section.of(poset, ["J", "K"])})


# ---------------------------------------------------------------------------
# piecewise-linear path spaces over finite knot sets


DYADIC_POOL = tuple(k / 8.0 for k in range(1, 9))


def _time_error(t: float) -> ValueError:
    return ValueError(f"{t} is a negative time" if math.isfinite(t) else f"{t} is not a finite time")


def pl_weights(targets: Sequence[float], knots: Sequence[float]) -> np.ndarray:
    """Interpolation matrix: rows evaluate the PL path through (0, 0) and
    the knot values at the target times; constant past the last knot.
    A target or knot before the anchor, a NaN or an infinity raises ValueError."""
    knots = sorted(knots)
    bad = next((t for t in (*knots, *targets) if not 0 <= t < math.inf), None)  # a NaN too
    if bad is not None:
        raise _time_error(bad)
    W = np.zeros((len(targets), len(knots)))
    for r, t in enumerate(targets if knots else ()):  # with no knots, every row is zero
        if t > knots[-1]:
            W[r, -1] = 1.0
            continue
        c = bisect_left(knots, t)  # the first knot at or after t
        if knots[c] == t:
            W[r, c] = 1.0
            continue
        lo = knots[c - 1] if c else 0.0  # before the first knot, the anchor
        frac = (t - lo) / (knots[c] - lo)
        W[r, c] = frac
        if c:
            W[r, c - 1] = 1.0 - frac
    return W


def pl_path(times: Sequence[float], values: np.ndarray) -> Callable[[float], float]:
    """The path itself: anchored at (0, 0), through (times[i], values[i]) in
    any order of the times, linear between knots, constant after the last
    one; a repeated time, or a negative or non-finite time or knot, raises
    ValueError."""
    values = np.asarray(values, float)
    if values.shape != (len(times),):
        raise DimensionMismatch(f"{values.size} values for {len(times)} times")
    order = np.argsort(times, kind="stable")
    knots = np.asarray(times, float)[order].tolist()
    if len(set(knots)) < len(knots):
        raise ValueError(f"path times must be distinct, got {knots}")
    values = values[order]

    def gamma(t: float) -> float:
        return float((pl_weights([float(t)], knots) @ values)[0])

    return gamma


def brownian_sample(times: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """Gaussian increments over the gaps from 0, accumulated."""
    ts = np.asarray(sorted(times), float)
    gaps = np.diff(np.concatenate([[0.0], ts]))
    return np.cumsum(rng.standard_normal(ts.size) * np.sqrt(gaps))


def pairing(alpha: Sequence[tuple], path: Callable[[float], float]) -> float:
    """Finite dual pairing: sum of coefficients times path values."""
    return float(sum(c * path(t) for t, c in alpha))


def knot_pool(times: Sequence[float]) -> tuple:
    """The knot times, sorted; a ValueError unless finite, distinct and positive."""
    for t in times:
        if not math.isfinite(t):
            raise _time_error(t)
    pool = tuple(sorted(times))
    if len(set(pool)) != len(pool) or any(t <= 0 for t in pool):
        raise ValueError("knot times must be distinct and positive")
    return pool


def wiener_family(times: Optional[Sequence[float]] = None) -> GalleryFamily:
    pool = knot_pool(times) if times is not None else DYADIC_POOL
    poset = subset_poset(pool)
    # has[i, c]: the level at position i holds pool time c
    has = ((subset_masks(len(pool))[:, None] >> np.arange(len(pool))) & 1).astype(bool)

    def fanout(src, levels):
        # a row depends only on its target time and the source knots, so the
        # stack of a member's transports is the source's interpolation matrix
        # at every pool time, its rows gathered at each level's sorted knots
        knots = np.nonzero(has.take(poset.positions(levels), axis=0))[1]
        return matrix_map(pl_weights(pool, sorted(src)).take(knots, axis=0))

    fam = ProfiniteFamily(poset, len, fanout, name="wiener")

    return GalleryFamily(
        "wiener", fam,
        "finite time-grid path spaces, injections by linear interpolation",
        extras={
            "pool": pool,
            "full_index": frozenset(pool),
            "sample_path": brownian_sample,
            "pl_path": lambda S, v: pl_path(sorted(S), v),
            "pairing": pairing,
        })


# ---------------------------------------------------------------------------
# canonical pair towers with rotation actions


def _pair_rotation_generator(pair: int, dim: int) -> np.ndarray:
    xi = np.zeros((dim, dim))
    if 2 * pair + 1 < dim:
        xi[2 * pair, 2 * pair + 1] = -1.0
        xi[2 * pair + 1, 2 * pair] = 1.0
    return xi


def oscillator_energy(family: ProfiniteFamily, level,
                      name: str = "oscillator") -> CylindricalFunction:
    """H = (1/2) sum (q_i^2 + p_i^2) on the given level, as a cylindrical
    function whose differential is available analytically."""
    dim = family.dim(level)
    sec = Section.of(family.poset, [level])
    base = ScalarMap(DifferentiableMap(dim, dim, fn=lambda x: x.copy(), name=f"grad {name}"),
                     lambda x: np.array([0.5 * float(x @ x)]), name=name,
                     batch=lambda X: 0.5 * np.vecdot(X, X))
    # the gradient is a copy of x, so on the leapfrog's float list it is a
    # fresh list: the leapfrog kicks x in place after it reads the gradient
    base.gradient.on_floats = list
    return CylindricalFunction(family, sec, base, name=name)


def pair_momentum(family: ProfiniteFamily, pair: int) -> CylindricalFunction:
    """mu_i = -(1/2)(q_i^2 + p_i^2) on the coarsest level containing pair i."""
    level = pair + 1
    dim = family.dim(level)
    sec = Section.of(family.poset, [level])
    q, p = 2 * pair, 2 * pair + 1

    def fn(x):
        return np.array([-0.5 * (x[q] ** 2 + x[p] ** 2)])

    def jac(x):
        row = np.zeros((1, dim))
        row[0, q], row[0, p] = -x[q], -x[p]
        return row

    base = DifferentiableMap(dim, 1, fn=fn, jac=jac, name=f"mu[{pair}]")
    return CylindricalFunction(family, sec, base, name=f"mu[{pair}]")


def symplectic_even_tower(max_pairs: int = 3) -> GalleryFamily:
    fam = _coordinate_family(chain_poset(range(1, max_pairs + 1)), lambda m: 2 * m, "pair-tower")
    omega = constant_form(fam, 2, lambda m: canonical_omega(2 * m), name="omega")

    action = ProfiniteGroupAction(
        family=fam,
        generators=lambda m: [_pair_rotation_generator(i, 2 * m)
                              for i in range(max_pairs)],
        act=lambda m, g, x: g @ x,
        restrict=lambda J, K, g: g[:2 * J, :2 * J],
        name="pairwise rotations")
    mu = MomentumMap(action, [pair_momentum(fam, i) for i in range(max_pairs)])

    return GalleryFamily(
        "symplectic", fam,
        "even-dimensional pair tower with the standard form and rotations",
        extras={
            "omega": omega,
            "hamiltonian": oscillator_energy(fam, 1),
            "hamiltonian_at": lambda m: oscillator_energy(fam, m),
            "action": action,
            "momentum": mu,
        })


def odd_symplectic_tower(max_dim: int = 5) -> GalleryFamily:
    """Every dimension appears, so odd levels carry a degenerate form; the
    unpaired direction only finds a partner one level up."""
    fam = _coordinate_family(chain_poset(range(1, max_dim + 1)), lambda d: d, "odd-tower")
    omega = constant_form(fam, 2, canonical_omega, name="omega-odd")
    return GalleryFamily(
        "odd-symplectic", fam,
        "all-dimensions tower: degenerate at odd levels, weakly nondegenerate",
        extras={"omega": omega})


# ---------------------------------------------------------------------------
# registry


GALLERY_BUILDERS: Dict[str, Callable[..., GalleryFamily]] = {
    "euclid": euclid_tower,
    "poly": poly_tower,
    "jet": jet_tower,
    "matrix": matrix_tower,
    "cross": cross_family,
    "wiener": wiener_family,
    "symplectic": symplectic_even_tower,
    "odd-symplectic": odd_symplectic_tower,
}


def gallery_names() -> list:
    return sorted(GALLERY_BUILDERS)


# builder function names resolve like their registry keys
_BUILDER_ALIASES = {b.__name__: key for key, b in GALLERY_BUILDERS.items()}


def gallery_key(name: str) -> str:
    """The registry key of a key or a builder's name; other names pass through."""
    return _BUILDER_ALIASES.get(name, name)


def build_gallery(name: str, **kwargs) -> GalleryFamily:
    try:
        builder = GALLERY_BUILDERS[gallery_key(name)]
    except KeyError:
        raise KeyError(f"no gallery family named {name!r}; "
                       f"choose from {', '.join(gallery_names())}") from None
    return builder(**kwargs)

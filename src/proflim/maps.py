"""Coordinate maps with Jacobian oracles.

Every level space is modeled as R^dim and every structural map between
levels (projection, injection, cylindrical base, bundle projection) is a
DifferentiableMap: either a matrix (a linear map) or an evaluator plus a
Jacobian, analytic when supplied and central finite differences otherwise.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

FD_STEP = 1e-5


class DimensionMismatch(ValueError):
    """A point or map does not have the declared dimension."""


def as_point(x) -> np.ndarray:
    """Coerce to a 1-d float array (dim-0 points are allowed)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def fd_jacobian(fn: Callable, x, codomain_dim: int) -> np.ndarray:
    """Central-difference Jacobian, step h_i = FD_STEP * (1 + |x_i|)."""
    x = as_point(x)
    jac = np.zeros((codomain_dim, x.size))
    for i in range(x.size):
        h = FD_STEP * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (as_point(fn(xp)) - as_point(fn(xm))) / (2.0 * h)
    return jac


class DifferentiableMap:
    """A map R^m -> R^n carrying its own Jacobian oracle.

    Give exactly one of `fn` and `matrix`: a linear map is its matrix and
    nothing else.  Compositions stay linear when both factors are, which
    keeps tower algebra exact.  `on_floats`, when set, is `fn` on a list of
    Python floats returning a list, for callers that keep their point as one.
    """

    on_floats: Optional[Callable[[list], list]] = None

    def __init__(self, domain_dim: int, codomain_dim: int,
                 fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 matrix: Optional[np.ndarray] = None,
                 name: str = ""):
        if (fn is None) == (matrix is None):
            raise ValueError("give exactly one of fn and matrix")
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self.fn = fn
        self._jac = jac
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=float)
        self.name = name
        if self.matrix is not None and self.matrix.shape != (self.codomain_dim, self.domain_dim):
            raise DimensionMismatch(
                f"matrix shape {self.matrix.shape} vs declared "
                f"({self.codomain_dim}, {self.domain_dim})")

    def __call__(self, x) -> np.ndarray:
        x = as_point(x)
        if x.size != self.domain_dim:
            raise DimensionMismatch(
                f"{self.name or 'map'}: point has dim {x.size}, expected {self.domain_dim}")
        if self.matrix is not None:
            return self.matrix @ x
        return self._value(x)

    def _value(self, x: np.ndarray) -> np.ndarray:
        y = as_point(self.fn(x))
        if y.size != self.codomain_dim:
            raise DimensionMismatch(
                f"{self.name or 'map'}: value has dim {y.size}, expected {self.codomain_dim}")
        return y

    def rows(self, X) -> np.ndarray:
        """Apply the map to every row of an (n, domain_dim) batch.

        A linear map is one matrix product, and a ScalarMap with a batch
        evaluator is one call of it; any other map runs `fn` row by row.
        The batch shape is checked once, then the size of each value or the
        number of values the batch evaluator returned.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.domain_dim:
            raise DimensionMismatch(
                f"{self.name or 'map'}: batch has shape {X.shape}, "
                f"expected (n, {self.domain_dim})")
        if self.matrix is not None:
            return X @ self.matrix.T
        return self._rows(X)

    def _rows(self, X: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0], self.codomain_dim))
        for i, x in enumerate(X):
            out[i] = self._value(x)
        return out

    def jacobian(self, x) -> np.ndarray:
        x = as_point(x)
        if self.matrix is not None:
            return self.matrix
        if self._jac is not None:
            jac = np.asarray(self._jac(x), dtype=float)
            return jac.reshape(self.codomain_dim, self.domain_dim)
        return self.fd_jacobian(x)

    def fd_jacobian(self, x) -> np.ndarray:
        return fd_jacobian(self, x, self.codomain_dim)

    @property
    def is_linear(self) -> bool:
        return self.matrix is not None

    def __repr__(self):
        tag = self.name or ("linear" if self.is_linear else "smooth")
        return f"DifferentiableMap({tag}: {self.domain_dim}->{self.codomain_dim})"


class ScalarMap(DifferentiableMap):
    """A map R^n -> R built on its gradient: an R^n -> R^n map whose `fn` returns
    a fresh array and whose Jacobian is the Hessian (FD when it has no `jac`).

    `batch`, when given, maps an (m, n) array to its m values in one call;
    `rows` uses it instead of calling `fn` once per row, and raises
    DimensionMismatch when it returns a different number of values.
    """

    def __init__(self, gradient: DifferentiableMap, fn: Callable, name: str = "",
                 batch: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        super().__init__(gradient.domain_dim, 1, fn=fn, jac=gradient.fn, name=name)
        self.gradient = gradient
        self.batch = batch

    def _rows(self, X: np.ndarray) -> np.ndarray:
        if self.batch is None:
            return super()._rows(X)
        y = np.asarray(self.batch(X), dtype=float)
        if y.size != X.shape[0]:
            raise DimensionMismatch(
                f"{self.name or 'map'}: batch gave {y.size} values for {X.shape[0]} rows")
        return y.reshape(-1, 1)


def max_abs(a):
    """max |a| over all entries in one reduction, 0.0 when empty; a NaN gives NaN."""
    return np.maximum.reduce(np.abs(a), axis=None, initial=0.0)


def residual(lhs, rhs) -> float:
    """max |lhs - rhs| over all entries, 0.0 when empty; a NaN gap gives NaN."""
    return float(max_abs(np.subtract(lhs, rhs)))


def matrix_map(matrix, name: str = "") -> DifferentiableMap:
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    return DifferentiableMap(mat.shape[1], mat.shape[0], matrix=mat, name=name)


def identity_map(dim: int) -> DifferentiableMap:
    return DifferentiableMap(dim, dim, matrix=np.eye(dim), name=f"id_{dim}")


def selection_map(domain_dim: int, indices: Sequence[int], name: str = "") -> DifferentiableMap:
    """Pick the listed coordinates, in order: rows `indices` of the identity."""
    idx = [int(i) for i in indices]
    mat = np.zeros((len(idx), domain_dim))
    mat[np.arange(len(idx)), np.asarray(idx, dtype=int)] = 1.0
    return DifferentiableMap(domain_dim, len(idx), matrix=mat,
                             name=name or f"select{tuple(idx)}")


def scatter_map(codomain_dim: int, indices: Sequence[int], name: str = "") -> DifferentiableMap:
    """Place the input coordinates at the listed positions, zero elsewhere:
    columns `indices` of the identity."""
    idx = [int(i) for i in indices]
    mat = np.zeros((codomain_dim, len(idx)))
    mat[np.asarray(idx, dtype=int), np.arange(len(idx))] = 1.0
    return DifferentiableMap(len(idx), codomain_dim, matrix=mat,
                             name=name or f"scatter{tuple(idx)}")


def compose(outer: DifferentiableMap, inner: DifferentiableMap,
            name: str = "") -> DifferentiableMap:
    """outer after inner, with chain-rule Jacobian (exact when both linear)."""
    if inner.codomain_dim != outer.domain_dim:
        raise DimensionMismatch(
            f"cannot compose {outer!r} after {inner!r}")
    if outer.is_linear and inner.is_linear:
        return matrix_map(outer.matrix @ inner.matrix, name=name)

    def jac(x):
        outer_jac = outer.matrix if outer.is_linear else outer.jacobian(inner(x))
        return outer_jac @ inner.jacobian(x)

    return DifferentiableMap(inner.domain_dim, outer.codomain_dim,
                             lambda x: outer(inner(x)), jac=jac, name=name)


def fanout_map(maps: Sequence[DifferentiableMap], name: str = "") -> DifferentiableMap:
    """x -> concat(m_i(x)) for maps sharing one domain."""
    maps = list(maps)
    if not maps:
        raise DimensionMismatch("fanout of no maps")
    dom = maps[0].domain_dim
    if any(m.domain_dim != dom for m in maps):
        raise DimensionMismatch("fanout maps must share a domain")
    cod = sum(m.codomain_dim for m in maps)
    if all(m.is_linear for m in maps):
        return matrix_map(np.vstack([m.matrix for m in maps]), name=name)

    def fn(x):
        return np.concatenate([m(x) for m in maps])

    def jac(x):
        return np.vstack([m.jacobian(x) for m in maps])

    return DifferentiableMap(dom, cod, fn, jac=jac, name=name)


def linear_combination_map(maps: Sequence[DifferentiableMap],
                           coeffs: Sequence[float], name: str = "") -> DifferentiableMap:
    """x -> sum_i c_i m_i(x) for maps sharing domain and codomain: the matrix
    [c_1 I ... c_k I] after the fanout of the maps."""
    maps = list(maps)
    cods = [m.codomain_dim for m in maps]
    if len(coeffs) != len(maps) or len(set(cods)) != 1:
        raise DimensionMismatch(f"{len(coeffs)} coefficients for maps of codomains {cods}")
    return compose(matrix_map(np.kron([coeffs], np.eye(cods[0]))), fanout_map(maps), name=name)

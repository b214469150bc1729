"""Presymplectic towers, Hamiltonian fields, flows, and momentum maps.

Component arrays contract first slot first, so the field of a Hamiltonian
H solves Omega^T X = grad H at each level (LU with partial pivoting).  The
solves call numpy's LAPACK gufunc under np.linalg.solve's error state, so
they give its bits and its LinAlgError without its per-call wrapper.  Rank
decisions use singular values relative to the largest one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .calculus import TameForm, exterior_derivative, pull_components
from .cylinder import CylindricalFunction, _refined_bases, level_function
from .family import ProfiniteFamily, audit_pairs, sample_joint, sample_point
from .maps import (FD_STEP, DifferentiableMap, DimensionMismatch, ScalarMap, as_point,
                   linear_combination_map, max_abs, residual)
from .report import VerificationReport

RANK_RTOL = 1e-10
# momentum_verify's form-preservation certificate: tolerance and group elements
SYMPLECTIC_TOL = 1e-8
GROUP_ELEMENTS = 20
SCHEMES = ("leapfrog", "implicit-midpoint")  # flow's integrators, the default first
# leapfrog steps kept as Python floats before they are copied into the state array
_LEAPFROG_BLOCK = 1024
# 1/k! for k = 0..15 in rows of four, for ProfiniteGroupAction.exp
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(16)]).reshape(4, 4)


class SingularForm(Exception):
    """The form matrix is rank deficient where full rank was required."""


class NonconvergentSolve(Exception):
    """An implicit integrator step did not converge."""


class SchemeMismatch(ValueError):
    """The integrator scheme does not fit the form or the Hamiltonian."""


class NonSymplecticAction(Exception):
    """The group action fails the form-preservation certificate."""


class ZeroVector(Exception):
    """A nondegeneracy probe needs a nonzero vector."""


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for float arrays, bit for bit and with its
    LinAlgError on a singular `a`, whatever error state the caller set."""
    gufunc = _umath_linalg.solve1 if np.ndim(b) == 1 else _umath_linalg.solve
    with np.errstate(call=_raise_singular, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        return gufunc(a, b, signature="dd->d")


def level_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv[0]))  # a zero matrix has none


@dataclass
class SymplecticStructure:
    """A degree-2 tame form with its closedness certificate and rank profile."""

    omega: TameForm
    closedness_residual: float
    rank_profile: dict
    tol: float

    @property
    def is_symplectic(self) -> bool:
        return (self.closedness_residual <= self.tol and
                all(info["rank"] == info["dim"] and info["constant"]
                    for info in self.rank_profile.values()))

    @staticmethod
    def build(omega: TameForm, levels: Iterable, samples: int = 10,
              tol: float = 1e-9, rng: Optional[np.random.Generator] = None
              ) -> "SymplecticStructure":
        if omega.degree != 2:
            raise ValueError("a symplectic candidate must be a 2-form")
        rng = rng or np.random.default_rng(0)
        d_omega = exterior_derivative(omega)
        closed, profile = [], {}
        for J, dim, X, mats in _level_reads(omega, levels, samples, rng):
            closed.append(residual([d_omega.comps(J, x) for x in X], 0.0))
            if not all(residual(mat, -mat.T) <= tol for mat in mats):
                raise SingularForm(f"components at {J!r} are not antisymmetric")
            ranks = {level_rank(mat) for mat in mats}
            profile[J] = {"dim": dim, "rank": max(ranks, default=0), "constant": len(ranks) <= 1}
        return SymplecticStructure(omega, residual(closed, 0.0), profile, tol)


def _level_reads(omega: TameForm, levels: Iterable, samples: int,
                 rng: np.random.Generator) -> Iterator[tuple]:
    """(J, dim, points, matrices) per level: `samples` points drawn per level;
    a constant form is read at the first alone, which stands for every sample."""
    for J in levels:
        dim = omega.family.dim(J)
        X = sample_point(dim, rng, samples)[:1 if omega.is_constant else None]
        yield J, dim, X, [omega.matrix(J, x) for x in X]


def is_projectively_nondegenerate(omega: TameForm, levels: Iterable, samples: int = 10,
                                  rng: Optional[np.random.Generator] = None):
    """Full rank at every listed level, with the per-level rank report."""
    rng = rng or np.random.default_rng(0)
    profile = {}
    for J, dim, _, mats in _level_reads(omega, levels, samples, rng):
        rank = min([dim] + [level_rank(mat) for mat in mats])
        profile[J] = {"dim": dim, "rank": rank, "full": rank == dim}
    return all(info["full"] for info in profile.values()), profile


def is_weakly_nondegenerate(omega: TameForm, u, I, search_levels: Iterable,
                            base_point=None):
    """Search the given levels for a pairing partner of the pushed vector.

    Returns (True, (J, basis_index, value)) on the first witness, else
    (False, None): a False is only "unwitnessed within the search budget",
    never a proof of degeneracy.
    """
    fam = omega.family
    u = as_point(u)
    if residual(u, 0.0) == 0.0:
        raise ZeroVector("weak nondegeneracy asks about a nonzero vector")
    base_point = np.zeros(fam.dim(I)) if base_point is None else as_point(base_point)
    for J in search_levels:
        if not fam.poset.leq(I, J):
            continue
        inj = fam.inj(J, I)
        pushed = inj.jacobian(base_point) @ u
        mat = omega.matrix(J, inj(base_point))
        pairings = mat.T @ pushed  # value against each basis vector
        scale = max(residual(mat, 0.0), 1.0)
        hits = np.where(np.abs(pairings) > RANK_RTOL * scale)[0]
        if hits.size:
            k = int(hits[np.argmax(np.abs(pairings[hits]))])
            return True, (J, k, float(pairings[k]))
    return False, None


# ---------------------------------------------------------------------------
# Hamiltonian fields and flows


def level_gradient(H: CylindricalFunction, J) -> DifferentiableMap:
    """H's gradient at level J as a map whose Jacobian is the Hessian: a
    ScalarMap's own gradient, else the level Jacobian's row (FD Hessian)."""
    lf = level_function(H, J)
    if isinstance(lf, ScalarMap):
        return lf.gradient
    return DifferentiableMap(lf.domain_dim, lf.domain_dim, fn=lambda x: lf.jacobian(x).ravel())


def _gradient_mismatch(grad: DifferentiableMap, size: int) -> DimensionMismatch:
    return DimensionMismatch(f"{grad.name or 'gradient'}: value has dim {size}, "
                             f"expected {grad.domain_dim}")


def hamiltonian_solver(omega: TameForm, H: CylindricalFunction, J) -> Callable:
    """point -> (Omega, grad H, X) with Omega^T X = grad H at level J; SingularForm
    when deficient.  The gradient is built once, and a constant form's matrix
    and rank are read once, at the first point; any other form is read and
    rank-checked at every point."""
    fixed, grad = None, None

    def solve(point):
        nonlocal fixed, grad
        point = as_point(point)
        mat = fixed
        if mat is None:
            mat = omega.matrix(J, point)
            rank = level_rank(mat)
            if rank < mat.shape[0]:
                raise SingularForm(f"form is degenerate at level {J!r} "
                                   f"(rank {rank} < {mat.shape[0]})")
            fixed = mat if omega.is_constant else None
        grad = grad or level_gradient(H, J)
        g = grad.fn(point)
        if len(g) != grad.domain_dim:
            raise _gradient_mismatch(grad, len(g))
        return mat, g, _solve(mat.T, g)
    return solve


def hamiltonian_field(omega: TameForm, H: CylindricalFunction, J, point) -> np.ndarray:
    """Solve Omega^T X = grad H at one level; SingularForm when deficient."""
    return hamiltonian_solver(omega, H, J)(point)[2]


def hamiltonian_identity_residual(omega: TameForm, H: CylindricalFunction, J, point) -> float:
    """max_k | omega(X_H, e_k) - dH(e_k) | at the point."""
    mat, grad, X = hamiltonian_solver(omega, H, J)(point)
    return residual(mat.T @ X, grad)


def hamiltonian_compat_check(omega: TameForm, H: CylindricalFunction, pairs: Iterable[tuple],
                             samples: int = 20, tol: float = 1e-10,
                             rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """Pushed fields agree: Dproj(J,K) X_K = X_J at projected points."""
    fam, rng = omega.family, rng or np.random.default_rng(0)
    solver = functools.cache(lambda L: hamiltonian_solver(omega, H, L))  # one per level

    def gaps(J, K):
        pr, solve_J, solve_K = fam.proj(J, K), solver(J), solver(K)
        X = sample_point(fam.dim(K), rng, samples)
        return (residual([pr.jacobian(x) @ solve_K(x)[2] for x in X],
                         [solve_J(pr(x))[2] for x in X]),)
    return audit_pairs("hamiltonian projection compatibility", fam.poset, pairs, tol, gaps,
                       "Dproj . X_K = X_J")


def canonical_omega(dim: int) -> np.ndarray:
    """Components of sum_i dx_{2i} ^ dx_{2i+1}; odd dims leave a null row."""
    out = np.zeros((dim, dim))
    for i in range(dim // 2):
        out[2 * i, 2 * i + 1] = 1.0
        out[2 * i + 1, 2 * i] = -1.0
    return out


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray

    def energy_drift(self) -> float:
        return residual(self.energies, self.energies[0])

    def write_csv(self, fh) -> None:
        dim = self.states.shape[1]
        header = "step,t," + ",".join(f"x{i}" for i in range(dim)) + ",H"
        fh.write(header + "\n")
        for k in range(self.states.shape[0]):
            coords = ",".join(repr(float(c)) for c in self.states[k])
            fh.write(f"{k},{float(self.times[k])!r},{coords},"
                     f"{float(self.energies[k])!r}\n")


def _leapfrog(grad: DifferentiableMap, x0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    # kick-drift-kick on interleaved (q, p) pairs; assumes separable H.  The
    # closing half kick moves p alone and dH/dq reads q alone, so its gradient
    # opens the next step (FSAL): two gradients per step, one before the loop.
    # The state is a list of Python floats, whose * and - round as numpy's do
    # and never raise, so each kick and drift is a loop over the pairs, and
    # a gradient with a list evaluator (an expression H) takes the list as it
    # is; any other gradient takes an array and is read back as a list.
    # States are copied into the array one block of steps at a time, so a
    # long run holds one block of Python floats (32 bytes each, against 8).
    fn, dim, half = grad.fn, x0.size, 0.5 * dt
    gradient = grad.on_floats or (lambda xs: fn(np.array(xs)).tolist())
    pairs = range(0, dim, 2)
    states = np.empty((steps + 1, dim))
    states[0] = x0
    x = x0.tolist()
    g = gradient(x)
    if len(g) != dim:
        raise _gradient_mismatch(grad, len(g))
    for start in range(1, steps + 1, _LEAPFROG_BLOCK):
        stop = min(start + _LEAPFROG_BLOCK, steps + 1)
        block = []
        for _ in range(start, stop):
            for i in pairs:
                x[i + 1] -= half * g[i]          # half kick: dp = -dH/dq
            g = gradient(x)
            if len(g) != dim:
                raise _gradient_mismatch(grad, len(g))
            for i in pairs:
                x[i] += dt * g[i + 1]            # drift: dq = +dH/dp
            g = gradient(x)
            if len(g) != dim:
                raise _gradient_mismatch(grad, len(g))
            for i in pairs:
                x[i + 1] -= half * g[i]          # half kick
            block += x
        states[start:stop] = np.array(block).reshape(stop - start, dim)
    return states


def _implicit_midpoint(solve: Callable, hessian: Callable, x0: np.ndarray, X0: np.ndarray,
                       dt: float, steps: int, newton_iters: int = 50) -> np.ndarray:
    # every field comes from solve, the first predictor's X0 = solve(x0)[2]
    # from the caller's own check at x0; Newton's matrix I - dt/2 Omega^-T
    # Hess H takes its Omega from the same solve, so the form is read once
    # per iterate
    dim, half, eye = x0.size, 0.5 * dt, np.eye(x0.size)
    states = np.empty((steps + 1, dim))
    states[0] = x0
    x = x0.copy()
    for k in range(steps):
        y = x + dt * (solve(x)[2] if k else X0)
        converged = False
        for _ in range(newton_iters):
            mid = 0.5 * (x + y)
            mat, _, X = solve(mid)
            G = y - x - dt * X
            if max_abs(G) <= 1e-12 * (1.0 + max_abs(y)):  # NaN never converges
                converged = True
                break
            JG = eye - half * _solve(mat.T, hessian(mid))
            try:
                y = y - _solve(JG, G)
            except LinAlgError:
                raise NonconvergentSolve(
                    f"implicit midpoint: Newton matrix singular at step {k}") from None
        if not converged:
            raise NonconvergentSolve(f"implicit midpoint stalled at step {k}")
        x = y
        states[k + 1] = x
    return states


def flow(omega: TameForm, H: CylindricalFunction, J, x0, dt: float, steps: int,
         scheme: str = "leapfrog", newton_iters: int = 50) -> Trajectory:
    """Integrate the Hamiltonian field at one level.

    leapfrog needs the canonical interleaved pair layout and a separable H,
    and raises SchemeMismatch otherwise; implicit-midpoint (Newton) solves
    through hamiltonian_solver, with an analytic Newton Hessian for an
    expression H and an FD one otherwise.  Separability is probed at x0 only:
    an H whose FD Hessian there is not finite or has a mixed q-p entry above
    1e-8 * max(1, max |Hessian|) is refused, which catches a coupled H but
    does not prove that H is separable.  A non-finite dt or x0, negative
    steps, or an H or gradient that is not finite at x0, is a ValueError; a
    gradient value of the wrong length, at x0 or later, is a
    DimensionMismatch; a degenerate form at x0 (or, for a non-constant form,
    at a midpoint) is a SingularForm; a singular Newton matrix, or a run that
    reaches a non-finite state or energy, is a NonconvergentSolve.
    """
    x0 = as_point(x0).copy()
    if not (math.isfinite(dt) and np.isfinite(x0).all()):
        raise ValueError(f"flow needs a finite dt and x0, got dt={dt!r}, x0={x0.tolist()}")
    if steps < 0:
        raise ValueError(f"flow needs steps >= 0, got {steps!r}")
    dim = x0.size
    solve = hamiltonian_solver(omega, H, J)
    lf = level_function(H, J)
    grad = level_gradient(H, J)
    with np.errstate(all="ignore"):  # an H undefined at x0 is refused below, not warned about
        mat0, g0, X0 = solve(x0)
        h0 = lf(x0)
        hess = grad.fd_jacobian(x0) if scheme == "leapfrog" else None

    if scheme == "leapfrog":
        if dim % 2 or not residual(mat0, canonical_omega(dim)) <= 1e-12:
            raise SchemeMismatch("leapfrog needs the canonical pair layout; "
                                 "use scheme='implicit-midpoint'")
        if not np.isfinite(hess).all():
            raise SchemeMismatch("leapfrog probes separability at x0, but the Hessian "
                                 "there is not finite")
        scale = 1e-8 * max(1.0, residual(hess, 0.0))
        if not (residual(hess[0::2, 1::2], 0.0) <= scale
                and residual(hess[1::2, 0::2], 0.0) <= scale):
            raise SchemeMismatch("leapfrog needs a separable H, but the Hessian couples "
                                 "q and p at x0; use scheme='implicit-midpoint'")
    elif scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (np.isfinite(h0).all() and np.isfinite(g0).all()):
        raise ValueError(f"flow needs H and its gradient finite at x0, got "
                         f"H={float(h0[0])!r}, gradient={g0.tolist()}")
    with np.errstate(all="ignore"):  # a diverging run is refused below, not warned about
        if scheme == "leapfrog":
            states = _leapfrog(grad, x0, dt, steps)
        else:
            states = _implicit_midpoint(solve, grad.jacobian, x0, X0, dt, steps,
                                        newton_iters)
        energies = lf.rows(states)[:, 0]
    finite = np.isfinite(states).all(axis=1) & np.isfinite(energies)
    if not finite.all():
        raise NonconvergentSolve(f"flow diverged: the state or its energy at step "
                                 f"{int(np.argmin(finite))} is not finite")
    return Trajectory(dt * np.arange(steps + 1), states, energies)


# ---------------------------------------------------------------------------
# group actions and momentum maps


@dataclass
class ProfiniteGroupAction:
    """A per-level linear-group action with its Lie algebra generators.

    generators(J) lists the algebra basis at level J; act(J, g, x) applies a
    group element; restrict(J, K, g) carries a level-K element down to level
    J so the compatibility with projections can be sampled.
    """

    family: ProfiniteFamily
    generators: Callable[[Any], Sequence[np.ndarray]]
    act: Callable[[Any, np.ndarray, np.ndarray], np.ndarray]
    restrict: Callable[[Any, Any, np.ndarray], np.ndarray]
    name: str = ""

    def exp(self, xi: np.ndarray) -> np.ndarray:
        """Matrix exponential by scaling and squaring, of one matrix or of a
        (..., d, d) stack, each element with its own scaling exponent s.

        a = xi / 2^s has 1-norm at most 1/2, where the Taylor polynomial of
        degree 15 truncates below 1e-17 relative; it is summed in powers of
        a^4 (Paterson-Stockmeyer) and squared s times: each element of a stack
        gets the bits of its own exponential."""
        xi = np.asarray(xi, dtype=float)
        s = np.maximum(0, np.frexp(np.abs(xi).sum(axis=-2).max(axis=-1, initial=0.0))[1] + 1)
        a = xi / np.ldexp(1.0, s)[..., None, None]
        a2, d = a @ a, xi.shape[-1]
        powers = np.stack([np.broadcast_to(np.eye(d), a.shape), a, a2, a2 @ a], axis=-3)
        # block i is sum_j a^j / (4i + j)!, so the polynomial is sum_i block_i a^(4i)
        blocks = (_TAYLOR @ powers.reshape(powers.shape[:-2] + (d * d,))).reshape(powers.shape)
        out, a4 = blocks[..., 3, :, :], a2 @ a2
        for i in (2, 1, 0):
            out = out @ a4 + blocks[..., i, :, :]
        for k in range(s.max(initial=0)):
            out[s > k] = out[s > k] @ out[s > k]
        return out

    def algebra_element(self, J, coeffs: Sequence[float]) -> np.ndarray:
        gens = list(self.generators(J))
        if len(coeffs) != len(gens):
            raise ValueError(f"{len(coeffs)} coefficients for {len(gens)} generators")
        return sum(c * g for c, g in zip(coeffs, gens))


def _sampled_elements(action: ProfiniteGroupAction, J, count: int, dim: int,
                      rng: np.random.Generator) -> tuple:
    """`count` elements exp(sum_i c_i g_i) of level J, drawn with `count` points of R^dim."""
    gens = list(action.generators(J))
    C, X = sample_joint(rng, count, len(gens), dim)
    return action.exp(sum(c[:, None, None] * g for c, g in zip(C.T, gens))), X


def check_action_compat(action: ProfiniteGroupAction, pairs: Iterable[tuple],
                        samples: int = 10, tol: float = 1e-9,
                        rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """proj(J,K) . act_K(g) = act_J(restrict(g)) . proj(J,K) on samples."""
    fam, rng = action.family, rng or np.random.default_rng(0)

    def gaps(J, K):
        pr = fam.proj(J, K)
        gs, X = _sampled_elements(action, K, samples, fam.dim(K), rng)
        return (residual([pr(action.act(K, g, x)) for g, x in zip(gs, X)],
                         [action.act(J, action.restrict(J, K, g), pr(x)) for g, x in zip(gs, X)]),)
    return audit_pairs(f"group action compatibility: {action.name or 'anonymous'}", fam.poset,
                       pairs, tol, gaps, "projections intertwine the action")


@dataclass
class MomentumMap:
    """One cylindrical function per generator; linear in the coefficients."""

    action: ProfiniteGroupAction
    functions: Sequence[CylindricalFunction]

    def __post_init__(self):  # one common refinement, shared by every `of`
        self._refined = _refined_bases(list(self.functions))

    def of(self, coeffs: Sequence[float]) -> CylindricalFunction:
        fam, sec, bases = self._refined
        base = linear_combination_map(bases, list(coeffs), name="momentum")
        return CylindricalFunction(fam, sec, base, name="momentum")


def momentum_verify(omega: TameForm, action: ProfiniteGroupAction, mu: MomentumMap,
                    coeffs: Sequence[float], J, samples: int = 10,
                    tol: float = 1e-6,
                    rng: Optional[np.random.Generator] = None) -> VerificationReport:
    """Certify the action preserves the form, then compare the finite
    difference generator of the action with the field of mu(coeffs).

    Raises NonSymplecticAction when the preservation certificate fails.
    """
    rng = rng or np.random.default_rng(0)
    dim = omega.family.dim(J)
    gs, X = _sampled_elements(action, J, GROUP_ELEMENTS, dim, rng)
    # linear action: Dphi_g = g; a constant form is read once, at the first point
    read = ((lambda P, mat=omega.matrix(J, X[0]): np.broadcast_to(mat, gs.shape))
            if omega.is_constant else (lambda P: np.array([omega.matrix(J, p) for p in P])))
    moved = read([action.act(J, g, x) for g, x in zip(gs, X)])
    preserve = list(enumerate(map(residual, pull_components(moved, gs, 2), read(X))))
    report = VerificationReport("momentum map")
    form_check = report.add_worst("action preserves the form", preserve, SYMPLECTIC_TOL,
                                  what="sample")
    if not form_check.passed:
        raise NonSymplecticAction(
            f"action does not preserve the form: residual {form_check.max_residual:.3e}")

    xi = action.algebra_element(J, coeffs)
    solve = hamiltonian_solver(omega, mu.of(coeffs), J)
    X = sample_point(dim, rng, samples)
    h = FD_STEP * (1.0 + np.array([residual(x, 0.0) for x in X]))
    forward, backward = np.split(action.exp(np.concatenate([h, -h])[:, None, None] * xi), 2)
    generator = [(i, residual((action.act(J, f, x) - action.act(J, b, x)) / (2 * hi), solve(x)[2]))
                 for i, (x, hi, f, b) in enumerate(zip(X, h, forward, backward))]
    report.add_worst("momentum field matches the action generator", generator, tol,
                     what="sample")
    return report

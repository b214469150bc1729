"""Independent brute-force oracles the structured implementations are
tested against.  Everything here favors obviousness over speed."""
import math
from bisect import bisect_left
from itertools import combinations

import numpy as np

from proflim import NonconvergentSolve, hamiltonian_field, pullback_inj, squash
from proflim.maps import residual


def powerset_sections(elements, leq):
    """All sections by filtering the full power set: nonempty subsets that
    are antichains and leave no element incomparable to every member."""
    els = list(elements)
    out = []
    for r in range(1, len(els) + 1):
        for cand in combinations(els, r):
            antichain = all(
                not (leq(a, b) or leq(b, a))
                for a, b in combinations(cand, 2))
            if not antichain:
                continue
            covers = all(
                any(leq(e, m) or leq(m, e) for m in cand) for e in els)
            if covers:
                out.append(frozenset(cand))
    return out


def exterior_derivative_fd(comps, x, dim, degree, h=1e-6):
    """(r+1)-form components by the textbook alternating-sum formula with
    plain central differences, written independently of the library."""
    partial = np.zeros((dim,) + (dim,) * degree)
    for j in range(dim):
        step = h * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        partial[j] = (comps(xp) - comps(xm)) / (2 * step)
    out = np.zeros((dim,) * (degree + 1))
    for idx in np.ndindex(out.shape):
        total = 0.0
        for k in range(degree + 1):
            rest = idx[:k] + idx[k + 1:]
            total += (-1) ** k * partial[(idx[k],) + rest]
        out[idx] = total
    return out


def pull_form(comps_arr, jac):
    """Pullback of an r-form component array along a linear map with the
    given Jacobian, via explicit index summation."""
    degree = comps_arr.ndim
    dom = jac.shape[1]
    out = np.zeros((dom,) * degree)
    for idx in np.ndindex(out.shape):
        total = 0.0
        for src in np.ndindex(comps_arr.shape):
            w = comps_arr[src]
            if w == 0.0:
                continue
            for k in range(degree):
                w *= jac[src[k], idx[k]]
            total += w
        out[idx] = total
    return out


def oscillator_exact(x0, t):
    """Closed-form harmonic oscillator trajectory for interleaved (q, p)
    pairs with H = |x|^2 / 2: each pair rotates clockwise."""
    x0 = np.asarray(x0, float)
    out = np.empty_like(x0)
    c, s = np.cos(t), np.sin(t)
    for i in range(x0.size // 2):
        q, p = x0[2 * i], x0[2 * i + 1]
        out[2 * i] = q * c + p * s
        out[2 * i + 1] = -q * s + p * c
    return out


def leapfrog_three_gradients(grad, x0, dt, steps):
    """Kick-drift-kick on interleaved (q, p) pairs that takes a fresh
    gradient before each kick and the drift: three per step, none reused."""
    q_idx = np.arange(0, x0.size, 2)
    p_idx = np.arange(1, x0.size, 2)
    states = np.empty((steps + 1, x0.size))
    states[0] = x0
    x = x0.copy()
    for k in range(steps):
        g = grad(x)
        x[p_idx] -= 0.5 * dt * g[q_idx]
        g = grad(x)
        x[q_idx] += dt * g[p_idx]
        g = grad(x)
        x[p_idx] -= 0.5 * dt * g[q_idx]
        states[k + 1] = x
    return states


def implicit_midpoint_arrays(solve, hessian, x0, X0, dt, steps, newton_iters=50):
    """Implicit midpoint as the library wrote it before its bookkeeping was
    hoisted: np.eye and 0.5 * dt rebuilt per iterate and each convergence
    maximum taken as residual(., 0.0)."""
    dim = x0.size
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
            if residual(G, 0.0) <= 1e-12 * (1.0 + residual(y, 0.0)):
                converged = True
                break
            JG = np.eye(dim) - 0.5 * dt * np.linalg.solve(mat.T, hessian(mid))
            y = y - np.linalg.solve(JG, G)
        if not converged:
            raise NonconvergentSolve(f"implicit midpoint stalled at step {k}")
        x = y
        states[k + 1] = x
    return states


def pl_interp_anchor(knots, values, t):
    """PL interpolation through (0,0) and the knots, constant after the
    last knot; written with np.interp for independence."""
    ts = np.concatenate([[0.0], np.asarray(knots, float)])
    vs = np.concatenate([[0.0], np.asarray(values, float)])
    return float(np.interp(t, ts, vs))


def pl_weights_scan(targets, knots):
    """The PL interpolation matrix through (0, 0) and the knots, constant
    after the last knot, found by scanning the sorted knots for each
    target's bracket (no bisection); nonnegative targets only."""
    knots = sorted(knots)
    W = np.zeros((len(targets), len(knots)))
    for r, t in enumerate(targets):
        if not knots:
            continue
        if t in knots:
            W[r, knots.index(t)] = 1.0
            continue
        if t > knots[-1]:
            W[r, -1] = 1.0
            continue
        # bracketing pair, with the fixed (0, 0) anchor on the left
        lo_time, lo_col = 0.0, None
        for c, u in enumerate(knots):
            if u < t:
                lo_time, lo_col = u, c
            else:
                frac = (t - lo_time) / (u - lo_time)
                W[r, c] = frac
                if lo_col is not None:
                    W[r, lo_col] = 1.0 - frac
                break
    return W


def _time_error(t):
    return ValueError(f"{t} is a negative time" if math.isfinite(t) else f"{t} is not a finite time")


def pl_weights_branching(targets, knots):
    """The interpolation matrix as gallery.pl_weights computed it when it
    checked each time where its row loop met it: the knots up front, then
    each target in its own branch (past the last knot, before the anchor,
    with no knots).  Kept verbatim to pin the up-front check bit for bit."""
    knots = sorted(knots)
    W = np.zeros((len(targets), len(knots)))
    bad = next((k for k in knots if not 0 <= k < math.inf), None)  # a NaN too
    if bad is not None:
        raise _time_error(bad)
    last = knots[-1] if knots else math.inf  # with no knots, a row is only checked
    for r, t in enumerate(targets):
        if t > last:
            if t == math.inf:
                raise _time_error(t)
            W[r, -1] = 1.0
            continue
        if not t >= 0:  # a NaN too
            raise _time_error(t)
        if not knots:
            if t == math.inf:
                raise _time_error(t)
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


def family_axioms_pointwise(family, chains, points_per_chain, rng):
    """Max residuals (identity, consistency, retraction, cocycle) of the
    family audit, one sample point and one map call at a time.  NaN
    propagates through np.max."""
    ident, cons, retr, cocy = [0.0], [0.0], [0.0], [0.0]
    for chain in chains:
        chain = list(chain)
        for J in chain:
            for _ in range(max(1, points_per_chain // 10)):
                x = rng.standard_normal(family.dim(J))
                ident.append(np.max(np.abs(family.proj(J, J)(x) - x), initial=0.0))
        for J, K in zip(chain, chain[1:]):
            if J == K:
                continue
            for _ in range(points_per_chain):
                y = rng.standard_normal(family.dim(J))
                back = family.proj(J, K)(family.inj(K, J)(y))
                retr.append(np.max(np.abs(back - y), initial=0.0))
        for I, K, L in zip(chain, chain[1:], chain[2:]):
            if len({family.poset.key(c) for c in (I, K, L)}) < 3:
                continue
            for _ in range(points_per_chain):
                x = rng.standard_normal(family.dim(L))
                gap = family.proj(I, L)(x) - family.proj(I, K)(family.proj(K, L)(x))
                cons.append(np.max(np.abs(gap), initial=0.0))
                z = rng.standard_normal(family.dim(I))
                gap = family.inj(L, K)(family.inj(K, I)(z)) - family.inj(L, I)(z)
                cocy.append(np.max(np.abs(gap), initial=0.0))
    return [float(np.max(r)) for r in (ident, cons, retr, cocy)]


def commuting_squares_pointwise(f, pairs, samples, rng):
    """Max commuting-square residual of a profinite map, one point at a time."""
    gaps = [0.0]
    for J, K in pairs:
        if not f.source.poset.leq(J, K):
            continue
        if not f.target.poset.leq(f.index_map(J), f.index_map(K)):
            continue
        p_tgt = f.target.proj(f.index_map(J), f.index_map(K))
        for _ in range(samples):
            x = rng.standard_normal(f.source.dim(K))
            gap = p_tgt(f.level_map(K)(x)) - f.level_map(J)(f.source.proj(J, K)(x))
            gaps.append(np.max(np.abs(gap), initial=0.0))
    return float(np.max(gaps))


def tame_pointwise(form, pairs, samples, rng):
    """Max injection-pullback residual of check_tame, one point at a time."""
    gaps = [0.0]
    for I, K in pairs:
        if not form.family.poset.leq(I, K) or I == K:
            continue
        for _ in range(samples):
            x = rng.standard_normal(form.family.dim(I))
            gap = pullback_inj(form, I, K, x) - form.comps(I, x)
            gaps.append(np.max(np.abs(gap), initial=0.0))
    return float(np.max(gaps))


def isometry_pointwise(m, pairs, samples, rng):
    """Max injection-isometry residual, one pair of points at a time."""
    fam = m.family
    gaps = [0.0]
    for J, K in pairs:
        if not fam.poset.leq(J, K) or J == K:
            continue
        inj = fam.inj(K, J)
        for _ in range(samples):
            x = rng.standard_normal(fam.dim(J))
            y = rng.standard_normal(fam.dim(J))
            gaps.append(abs(m(K, inj(x), inj(y)) - m(J, x, y)))
    return float(np.max(gaps))


def hamiltonian_compat_pointwise(form, H, pairs, samples, rng):
    """Max |Dproj X_K - X_J| of hamiltonian_compat_check, one point at a time."""
    fam = form.family
    gaps = [0.0]
    for J, K in pairs:
        if not fam.poset.leq(J, K) or J == K:
            continue
        pr = fam.proj(J, K)
        for _ in range(samples):
            x = rng.standard_normal(fam.dim(K))
            XK = hamiltonian_field(form, H, K, x)
            XJ = hamiltonian_field(form, H, J, pr(x))
            gaps.append(np.max(np.abs(pr.jacobian(x) @ XK - XJ), initial=0.0))
    return float(np.max(gaps))


def action_compat_pointwise(action, pairs, samples, rng):
    """Max intertwining residual of check_action_compat, one group element
    and one point at a time."""
    fam = action.family
    gaps = [0.0]
    for J, K in pairs:
        if not fam.poset.leq(J, K) or J == K:
            continue
        pr = fam.proj(J, K)
        n_gen = len(list(action.generators(K)))
        for _ in range(samples):
            g = action.exp(action.algebra_element(K, rng.standard_normal(n_gen)))
            x = rng.standard_normal(fam.dim(K))
            gap = pr(action.act(K, g, x)) - action.act(J, action.restrict(J, K, g), pr(x))
            gaps.append(np.max(np.abs(gap), initial=0.0))
    return float(np.max(gaps))


def section_thread_levels(family, values, tol=1e-9):
    """Every level of a finite poset that some section member reaches,
    mapped to (value, agree): the value induced by the first member in
    canonical order, and whether every other member induces the same value
    within tol.  The member's own value at its index, else the family's
    rule asked afresh for the one level, maps(m, [I]): no map cache, no
    spread, no thread memo."""
    poset = family.poset
    members = sorted(values, key=poset.key)
    out = {}
    for I in poset.elements:
        cands = []
        for m in members:
            x = np.asarray(values[m], float)
            if I == m:
                cands.append(x)
            elif poset.comparable(I, m):
                cands.append(family._maps(m, [I])(x))
        if cands:
            agree = all(np.max(np.abs(c - cands[0]), initial=0.0) <= tol
                        for c in cands[1:])
            out[I] = (cands[0], agree)
    return out


def section_disagreement(sp, tol=1e-9):
    """The IllDefinedSection message of a section point's first disagreement,
    or None: the pairwise joins first, then every element some member is
    comparable to, in element order, each level's candidates carried there
    one level at a time by family.transport, in member order."""
    family, poset = sp.family, sp.family.poset
    joins = [poset.require_join(a, b) for a, b in combinations(sp.section, 2)]
    reached = (J for J in poset.elements if any(poset.comparable(J, m) for m in sp.section))
    for I in dict.fromkeys((*joins, *reached)):
        cands = [sp.values[m] if m == I else family.transport(m, I)(sp.values[m])
                 for m in sp.section if poset.comparable(m, I)]
        for other in cands[1:]:
            if not np.abs(other - cands[0]).max(initial=0.0) <= tol:
                return f"member values disagree at {I!r}: {cands[0]} vs {other}"
    return None


def fibration_pointwise(data, pairs, samples, rng):
    """Max residuals (vs projections, vs injections) of verify_fibration,
    one point of E_K and one point of E_J at a time."""
    via_proj, via_inj = [0.0], [0.0]
    for J, K in pairs:
        if not data.total.poset.leq(J, K) or J == K:
            continue
        pJ, pK = data.bundle_proj(J), data.bundle_proj(K)
        for _ in range(samples):
            x = rng.standard_normal(data.total.dim(K))
            y = rng.standard_normal(data.total.dim(J))
            gap = pJ(data.total.proj(J, K)(x)) - data.base.proj(J, K)(pK(x))
            via_proj.append(np.max(np.abs(gap), initial=0.0))
            gap = pK(data.total.inj(K, J)(y)) - data.base.inj(K, J)(pJ(y))
            via_inj.append(np.max(np.abs(gap), initial=0.0))
    return [float(np.max(via_proj)), float(np.max(via_inj))]


def diffeomorphism_pointwise(f, g, indices, samples, tol, rng):
    """is_profinite_diffeomorphism, one point of E_J and one point of E_f(J)
    at a time; every sample of an index is drawn before its verdict."""
    for J in indices:
        K = f.index_map(J)
        if g.index_map(K) != J:
            return False
        fJ, gK = f.level_map(J), g.level_map(K)
        there, back = [0.0], [0.0]
        for _ in range(samples):
            x = rng.standard_normal(f.source.dim(J))
            y = rng.standard_normal(f.target.dim(K))
            there.append(np.max(np.abs(gK(fJ(x)) - x), initial=0.0))
            back.append(np.max(np.abs(fJ(gK(y)) - y), initial=0.0))
        if not (np.max(there) <= tol and np.max(back) <= tol):
            return False
    return True


def form_preservation_pointwise(omega, action, J, group_elements, rng):
    """Max |g^T omega(g x) g - omega(x)| of momentum_verify's first check,
    one group element and one point at a time."""
    n_gen = len(list(action.generators(J)))
    gaps = [0.0]
    for _ in range(group_elements):
        g = action.exp(action.algebra_element(J, rng.standard_normal(n_gen)))
        x = rng.standard_normal(omega.family.dim(J))
        gap = g.T @ omega.matrix(J, action.act(J, g, x)) @ g - omega.matrix(J, x)
        gaps.append(np.max(np.abs(gap), initial=0.0))
    return float(np.max(gaps))


def d_inf_history_loop(m, x, y, stages):
    """d_inf's history one level at a time: the running max of
    squash(m(J, x(J), y(J))) over each stage's levels not seen before."""
    seen, sup, history = set(), 0.0, []
    for stage in stages:
        for J in stage:
            if J not in seen:
                seen.add(J)
                sup = max(sup, squash(m(J, x(J), y(J))))
        history.append(sup)
    return history


def d_mu_loop(m, mu, x, y):
    """d_mu's value one level at a time: w * squash(m(J, x(J), y(J))) summed
    left to right over the nonzero weights, in the measure's order."""
    total = 0.0
    for J, w in mu.weights.items():
        if w != 0.0:
            total += w * squash(m(J, x(J), y(J)))
    return total

"""The in-process workloads: audit, flow and limits.

Each workload builds its inputs from the seed, hands them to proflim and
checks every output.  The interface the worker drives:

    wl = WORKLOADS[name](seed, tiny, tracer)  # set-up: builds, compiles
    for op in wl.cycle():             # one seeded cycle over every op kind
        out = wl.run(op)              # the timed call into proflim
        msg = wl.check(op, out)       # None, or why the output is wrong
    wl.steps(op)                      # {scheme: integrator steps} of the op

An op is a tuple whose first entry names its kind.  Every cycle holds each
kind equally often, in a seeded order, so the op mix and hence the latency
percentiles do not depend on the seed.
"""
from __future__ import annotations

import math

import numpy as np

import proflim as pl

# the sizes of scripts/verify_gallery.py
AUDIT_SIZES = {"euclid": {"max_level": 10}, "poly": {"max_degree": 10},
               "jet": {"max_order": 10}, "matrix": {"max_n": 8},
               "symplectic": {"max_pairs": 5}, "odd-symplectic": {"max_dim": 9}}
AUDIT_PAIRS = 12          # comparable pairs per audit, as `proflim verify`
AUDIT_TOL = 1e-9
HAM_TOL = 1e-10           # acceptance-gate tolerance for Hamiltonian fields


def _derive(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 32))


class Audit:
    """One op: the full audit of one gallery family."""

    def __init__(self, seed: int, tiny: bool = False, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.points = 10 if tiny else 100
        self.samples = 2 if tiny else 10
        self.galleries = {name: pl.build_gallery(name, **AUDIT_SIZES.get(name, {}))
                          for name in pl.gallery_names()}
        self.pairs, self.flat = {}, {}
        for name, g in self.galleries.items():
            poset = g.family.poset
            els = list(poset.elements)
            self.pairs[name] = [(a, b) for a in els for b in els if poset.leq(a, b)]
            # the Riemannian metric behind a euclidean level metric: the
            # gallery ships none, so metric_check gets this one
            if any(isinstance(m, pl.LevelMetricFamily) and m.kind == "euclidean"
                   for m in g.extras.values()):
                fam = g.family
                self.flat[name] = pl.CompatibleMetric(
                    fam, "riemannian", lambda J, x, _f=fam: np.eye(_f.dim(J)),
                    name="flat")

    def cycle(self) -> list:
        names = sorted(self.galleries)
        return [(names[i], _derive(self.rng))
                for i in self.rng.permutation(len(names))]

    def run(self, op):
        name, op_seed = op
        g = self.galleries[name]
        fam = g.family
        rng = np.random.default_rng(op_seed)
        pool = self.pairs[name]
        pairs = [pool[i] for i in rng.integers(len(pool), size=AUDIT_PAIRS)]
        levels = list(fam.poset.elements)
        samples = self.samples
        reports = [pl.verify_family(fam, points_per_chain=self.points,
                                    tol=AUDIT_TOL, rng=rng)]
        extras = sorted(g.extras.items())
        threads = [t for _, t in extras if isinstance(t, pl.Thread) and t.family is fam]
        omega = next((f for _, f in extras if isinstance(f, pl.TameForm)), None)
        ranks = None
        for _, obj in extras:
            if isinstance(obj, pl.Thread):
                reports.append(pl.check_thread(obj, pairs, tol=AUDIT_TOL))
            elif isinstance(obj, pl.LevelMetricFamily):
                reports.append(pl.injection_isometry_check(
                    obj, pairs, samples=samples, tol=AUDIT_TOL, rng=rng))
            elif isinstance(obj, pl.AlgebraicStructure) and threads:
                pl.lift_binary(obj, threads[0], threads[-1], pairs=pairs, tol=AUDIT_TOL)
                if obj.inverse is not None and obj.neutral is not None:
                    pl.lift_inverse(obj, threads[-1], pairs=pairs, tol=AUDIT_TOL)
            elif isinstance(obj, pl.ProfiniteMap):
                reports.append(pl.check_profinite_map(obj, pairs, samples=samples,
                                                      tol=AUDIT_TOL, rng=rng))
            elif isinstance(obj, pl.TameForm):
                reports.append(pl.check_tame(obj, pairs, samples=samples,
                                             tol=AUDIT_TOL, rng=rng))
                structure = pl.SymplecticStructure.build(obj, levels, samples=samples,
                                                         tol=AUDIT_TOL, rng=rng)
                _, profile = pl.is_projectively_nondegenerate(obj, levels,
                                                              samples=samples, rng=rng)
                ranks = (structure, profile)
            elif isinstance(obj, pl.CylindricalFunction) and omega is not None:
                reports.append(pl.hamiltonian_compat_check(
                    omega, obj, list(zip(levels, levels[1:])), samples=samples,
                    tol=HAM_TOL, rng=rng))
            elif isinstance(obj, pl.ProfiniteGroupAction):
                reports.append(pl.check_action_compat(obj, pairs, samples=samples,
                                                      tol=AUDIT_TOL, rng=rng))
            elif isinstance(obj, pl.MomentumMap) and omega is not None:
                top = levels[-1]
                coeffs = rng.standard_normal(len(obj.functions))
                reports.append(pl.momentum_verify(omega, obj.action, obj, coeffs, top,
                                                  samples=samples, rng=rng))
        if name in self.flat:
            reports.append(pl.metric_check(self.flat[name], pairs, samples=samples,
                                           tol=AUDIT_TOL, rng=rng))
        return reports, ranks

    def check(self, op, out):
        reports, ranks = out
        for rep in reports:
            if not rep.passed:
                return f"{op[0]}: {rep.title}: {rep.worst().line()}"
        if ranks is not None:
            structure, profile = ranks
            # canonical forms: rank is the even part of the level dimension
            for J, info in profile.items():
                if info["rank"] != info["dim"] - info["dim"] % 2:
                    return f"{op[0]}: rank {info['rank']} at level {J!r}"
            even = all(info["dim"] % 2 == 0 for info in profile.values())
            if structure.closedness_residual > AUDIT_TOL or structure.is_symplectic != even:
                return f"{op[0]}: symplectic structure verdict is wrong"
        return None

    def steps(self, op) -> dict:
        return {}


# ---------------------------------------------------------------------------
# flow


SEPARABLE_H = ("(sqr(x1) + sqr(x3) + sqr(x5))/2 + (sqr(x0) + sqr(x2) + sqr(x4))/2"
               " + (sqr(sqr(x0)) + sqr(sqr(x2)) + sqr(sqr(x4)))/8")
NONSEPARABLE_H = ("(sqr(x0) + sqr(x1) + sqr(x2) + sqr(x3))/2 + x0*x1/2 + x2*x3/2"
                  " + sqr(x0)*sqr(x2)/8")
# kind -> (level, scheme, dt, steps); each op is one trajectory from a seeded
# start point in [-1, 1]^dim.  Ops of ~0.1 s average over the host's
# sub-second slowdowns and keep the tail percentile (about p93 of ~150 ops
# per run) inside the distribution rather than at its noisiest extreme.
FLOW_KINDS = {
    "oscillator": (2, "leapfrog", 1e-3, 3000),
    "separable": (3, "leapfrog", 1e-3, 2500),
    "implicit": (2, "implicit-midpoint", 1e-2, 300),
}
# largest energy drift over 300 seeded starts per kind at the parent of the
# benchmark (2.4e-7, 4.4e-7, 6.3e-6), rounded up to one digit and doubled
DRIFT_BOUND = {"oscillator": 6e-7, "separable": 1e-6, "implicit": 1.4e-5}
# over the same starts the final state was within 1.6e-7 of the rotation
OSCILLATOR_STATE_TOL = 1e-6


def rotation(x0: np.ndarray, t: float) -> np.ndarray:
    """Exact oscillator flow on interleaved (q, p) pairs."""
    out = np.empty_like(x0)
    c, s = math.cos(t), math.sin(t)
    q, p = x0[0::2], x0[1::2]
    out[0::2] = c * q + s * p
    out[1::2] = -s * q + c * p
    return out


class Flow:
    """One op: one seeded trajectory of fixed length."""

    def __init__(self, seed: int, tiny: bool = False, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.scale = 10 if tiny else 1
        g = pl.symplectic_even_tower(3)
        self.omega = g["omega"]
        fam = g.family
        self.H = {"oscillator": g["hamiltonian_at"](2),
                  "separable": pl.cylindrical_from_expression(fam, [3], SEPARABLE_H),
                  "implicit": pl.cylindrical_from_expression(fam, [2], NONSEPARABLE_H)}
        self.dims = {k: fam.dim(level) for k, (level, *_rest) in FLOW_KINDS.items()}
        if tracer is not None:
            for H in self.H.values():
                tracer.wrap_instance_method(H.base, "jacobian", "flow.H.base.jacobian")

    def cycle(self) -> list:
        kinds = sorted(FLOW_KINDS)
        return [(kinds[i], self.rng.uniform(-1.0, 1.0, self.dims[kinds[i]]))
                for i in self.rng.permutation(len(kinds))]

    def steps(self, op) -> dict:
        _, scheme, _, steps = FLOW_KINDS[op[0]]
        return {scheme: max(1, steps // self.scale)}

    def run(self, op):
        kind, x0 = op
        level, scheme, dt, _ = FLOW_KINDS[kind]
        return pl.flow(self.omega, self.H[kind], level, x0, dt=dt,
                       steps=self.steps(op)[scheme], scheme=scheme)

    def check(self, op, traj):
        kind, x0 = op
        drift = traj.energy_drift()
        if not drift <= DRIFT_BOUND[kind]:
            return f"{kind}: energy drift {drift:.3e} > {DRIFT_BOUND[kind]:.0e}"
        if kind == "oscillator":
            err = float(np.max(np.abs(traj.states[-1] - rotation(x0, traj.times[-1]))))
            if not err <= OSCILLATOR_STATE_TOL:
                return f"oscillator: final state off the rotation by {err:.3e}"
        return None


# ---------------------------------------------------------------------------
# limits


POOL = tuple(k / 10 for k in range(1, 11))   # 10 knots: 1024 levels
TINY_POOL = POOL[::2]
CYL_EXPR = "x0*x0 + sin(x1)"
COARSE_MEMBERS = 3      # 2-knot members with a precompiled expression
GATE_TOL = 1e-12        # acceptance-gate tolerance of the frozen values
FROZEN_STAGES = [[1], [2], [3, 4], [5, 6, 7, 8, 9, 10]]


class Limits:
    """One op: one distance query on the 10-knot Wiener family, or one of
    the acceptance gate's frozen euclid queries.

    Every cycle queries a freshly built family, so its map cache grows from
    cold to about 1500 entries within the cycle, and the cost of an op does
    not depend on how many ops the run has done before it."""

    def __init__(self, seed: int, tiny: bool = False, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.pool = TINY_POOL if tiny else POOL
        self.cycles = 0
        self._new_family()
        picks = [self.rng.choice(len(self.pool), size=2, replace=False)
                 for _ in range(COARSE_MEMBERS)]
        self.coarse = [frozenset(self.pool[i] for i in p) for p in picks]
        self.bases = {T: pl.cylindrical_from_expression(self.fam, [T], CYL_EXPR).base
                      for T in self.coarse}
        e = pl.euclid_tower(10)
        self.euclid = (e["metrics"], pl.discrete_metrics(e.family),
                       e["inverse_square_measure"], e["origin"], e["three_four"],
                       e["sequence_thread"](np.array([0.0] + [1.0] * 9)))
        self.levels = [frozenset(s) for s in self.fam.poset.elements]
        self.kinds = ["euclid"] + [f"k{k}" for k in range(2, len(self.pool))]

    def _new_family(self) -> None:
        self.fam = pl.wiener_family(self.pool).family
        self.metrics = pl.euclidean_metrics(self.fam)

    def _expression(self, T) -> pl.CylindricalFunction:
        # the compiled base is family-independent; bind it to this cycle's family
        return pl.CylindricalFunction(self.fam, pl.Section.of(self.fam.poset, [T]),
                                      self.bases[T], name=CYL_EXPR)

    def _brownian(self, S) -> np.ndarray:
        ts = np.asarray(sorted(S))
        gaps = np.diff(np.concatenate([[0.0], ts]))
        return np.cumsum(self.rng.standard_normal(ts.size) * np.sqrt(gaps))

    def _query(self, kind: str):
        T = self.coarse[int(self.rng.integers(len(self.coarse)))]
        rest = [t for t in self.pool if t not in T]
        extra = self.rng.choice(len(rest), size=int(kind[1:]) - 2, replace=False)
        S = T | frozenset(rest[i] for i in extra)
        comparable = [J for J in self.levels if J <= S or S <= J]
        by_size: dict = {}
        for J in comparable:
            by_size.setdefault(len(J), []).append(J)
        stages = [by_size[n] for n in sorted(by_size)]
        weights = np.array([0.5 ** len(J) for J in comparable])
        mu = pl.IndexMeasure(dict(zip(comparable, weights / weights.sum())))
        return (kind, T, S, self._brownian(S), self._brownian(S), stages, mu)

    def cycle(self) -> list:
        if self.cycles:
            self._new_family()
        self.cycles += 1
        return [("euclid",) if self.kinds[i] == "euclid" else self._query(self.kinds[i])
                for i in self.rng.permutation(len(self.kinds))]

    def steps(self, op) -> dict:
        return {}

    def run(self, op):
        if op[0] == "euclid":
            metrics, discrete, mu, origin, three_four, ones = self.euclid
            return (pl.d_inf(metrics, origin, three_four, FROZEN_STAGES),
                    pl.d_mu(discrete, mu, origin, ones), mu.tail_mass)
        _, T, S, vx, vy, stages, mu = op
        x = pl.thread_from_section(pl.SectionPoint.of(self.fam, [S], {S: vx}), check=True)
        y = pl.thread_from_section(pl.SectionPoint.of(self.fam, [S], {S: vy}), check=True)
        f = self._expression(T)
        return (pl.d_inf(self.metrics, x, y, stages), pl.d_mu(self.metrics, mu, x, y),
                f(x), pl.reexpress(f, [S])(x))

    def check(self, op, out):
        if op[0] == "euclid":
            (value, converged, history), (got, err), tail = out
            exact = (math.pi ** 2 / 6.0 - 1.0) / 2.0
            if abs(value - 5.0 / 6.0) > GATE_TOL or not converged:
                return f"euclid: d_inf {value!r} is not 5/6"
            if abs(got + tail / 2.0 - exact) > GATE_TOL or not got <= exact <= got + err:
                return f"euclid: d_mu {got!r} misses (pi^2/6 - 1)/2"
            return None
        (value, _, history), (dmu, tail), coarse, fine = out
        if not 0.0 <= value <= 1.0 or history != sorted(history) or value != history[-1]:
            return f"{op[0]}: d_inf {value!r} with history {history}"
        if not 0.0 <= dmu <= 1.0 + GATE_TOL or tail != 0.0:
            return f"{op[0]}: d_mu {dmu!r} outside [0, 1]"
        if abs(coarse - fine) > GATE_TOL:
            return f"{op[0]}: reexpressed value moved by {abs(coarse - fine):.3e}"
        return None


WORKLOADS = {"audit": Audit, "flow": Flow, "limits": Limits}

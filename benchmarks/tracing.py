"""Outside-in span tracing of the proflim layers.

The tracer wraps public functions and methods of the ``proflim`` modules at
run time, from the benchmark's own files; nothing under ``src/`` changes.
Every wrapper records one span per call: its name, its duration and the
span that called it.  Spans stay in memory, aggregated by name (calls, total
seconds, self seconds) and by caller edge, and are written out when the run
ends.  Self time is a span's duration minus the time of its child spans.

This module imports only the standard library until ``install`` is called,
so the benchmark's parent process can use ``layer_metrics`` without
importing numpy or proflim.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter

# Spans installed per proflim module.  "Class.method" names wrap the class
# attribute (so every instance and every alias of the method is covered);
# plain names wrap the function in every proflim module that imported it.
SPANS = {
    "maps": ["DifferentiableMap.__call__", "DifferentiableMap.jacobian",
             "DifferentiableMap.fd_jacobian", "fd_jacobian", "compose",
             "fanout_map", "linear_combination_map", "matrix_map",
             "identity_map", "selection_map", "scatter_map"],
    "poset": ["IndexPoset.lt", "IndexPoset.comparable", "IndexPoset.sort",
              "IndexPoset.require_join", "Section.of"],
    "family": ["ProfiniteFamily.proj", "ProfiniteFamily.inj", "verify_family",
               "check_profinite_map", "sample_chains"],
    "limits": ["Thread.value", "SectionPoint.of", "extend_section_point",
               "validate_section_point", "thread_from_section",
               "restrict_thread", "check_thread", "lift_binary",
               "lift_inverse"],
    "cylinder": ["CylindricalFunction.__call__", "CylindricalFunction.gather",
                 "level_function", "reexpress", "differential"],
    "calculus": ["TameForm.comps", "TameForm.partials", "check_tame",
                 "metric_check", "exterior_derivative", "pullback_inj"],
    "symplectic": ["level_rank", "hamiltonian_field", "flow", "_leapfrog",
                   "_implicit_midpoint", "SymplecticStructure.build",
                   "is_projectively_nondegenerate", "hamiltonian_compat_check",
                   "hamiltonian_identity_residual", "check_action_compat",
                   "momentum_verify"],
    "profmetric": ["LevelMetricFamily.__call__", "d_inf", "d_mu",
                   "injection_isometry_check"],
    "expr": ["compile_scalar", "cylindrical_from_expression"],
    "gallery": ["build_gallery", "euclid_tower", "poly_tower", "jet_tower",
                "matrix_tower", "cross_family", "wiener_family",
                "symplectic_even_tower", "odd_symplectic_tower"],
}

# IndexPoset stores its order oracles as per-instance fields; they are
# wrapped on every poset constructed after install().
POSET_ORACLES = ("leq", "join", "key")

# per-layer metrics that the spans can only approximate from outside
INDIRECT = {
    "family.map_builds": "first request of each (kind, J, K) key; the family "
                         "cache never evicts, so this is when it builds",
    "family.cache_hit_ratio": "from family.map_builds",
    "limits.thread_memo_hit_ratio": "repeat requests of a key per thread; the "
                                    "memo never evicts",
    "cli.*_ms": "wall time of the whole CLI process, import included",
}

INTEGRATORS = {"symplectic._leapfrog": "leapfrog",
               "symplectic._implicit_midpoint": "implicit-midpoint"}
FLOW_SPANS = ("symplectic.flow",) + tuple(INTEGRATORS)
SYMPLECTIC_AUDIT_SPANS = ("symplectic.SymplecticStructure.build",
                          "symplectic.is_projectively_nondegenerate",
                          "symplectic.hamiltonian_compat_check",
                          "symplectic.hamiltonian_identity_residual",
                          "symplectic.check_action_compat",
                          "symplectic.momentum_verify")


class Tracer:
    """Aggregated spans: name -> [calls, total_s, self_s], plus caller
    edges (caller, callee) -> calls and free-form counters."""

    def __init__(self):
        self.spans: dict = {}
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self.missing: list = []
        self._stack: list = []  # [name, child_seconds] per open span
        self._family_keys = weakref.WeakKeyDictionary()
        self._thread_keys = weakref.WeakKeyDictionary()

    def reset(self) -> None:
        # in place: the installed wrappers hold these containers
        self.spans.clear()
        self.edges.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
                "counters": dict(self.counters)}

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span; before(args) runs ahead of the call and its
        result is handed to after(args, token) once the call returned."""
        stack, edges, spans = self._stack, self.edges, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            token = before(args) if before is not None else None
            edges[(stack[-1][0] if stack else "", name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats = spans.get(name)
                if stats is None:
                    stats = spans[name] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, token)
            return out

        return span

    def wrap_instance_method(self, obj, attr: str, name: str) -> None:
        """Shadow one bound method of one object with a span that also
        counts its calls per enclosing integrator scheme."""
        def before(args):
            for frame_name, _ in reversed(self._stack):
                if frame_name in INTEGRATORS:
                    self.counters[f"{name}.{INTEGRATORS[frame_name]}"] += 1
                    break
        setattr(obj, attr, self.wrap(name, getattr(obj, attr), before))

    # -- hooks that turn calls into cache outcomes -------------------------

    def _map_key(self, args):
        fam, a, b = args[0], args[1], args[2]
        key = _unwrapped(fam.poset.key)
        seen = self._family_keys.setdefault(fam, set())
        # the family caches J == K under one identity key, whichever kind
        return seen, (("id", key(a)) if a == b else (key(a), key(b)))

    def _map_after(self, kind):
        def after(args, token):
            seen, key = token
            key = key if key[0] == "id" else (kind,) + key
            self.counters["family.requests"] += 1
            if key not in seen:
                seen.add(key)
                self.counters["family.map_builds"] += 1
        return after

    def _thread_before(self, args):
        t, J = args[0], args[1]
        seen = self._thread_keys.setdefault(t, set())
        return seen, _unwrapped(t.family.poset.key)(J)

    def _thread_after(self, args, token):
        seen, key = token
        if key in seen:
            self.counters["limits.memo_hits"] += 1
        else:
            seen.add(key)

    def _apply_before(self, args):
        shape = getattr(args[1], "shape", ())
        self.counters["maps.apply_points"] += shape[0] if len(shape) == 2 else 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every span in SPANS; absent targets are listed in missing."""
        import proflim
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "proflim" or n.startswith("proflim.")]
        hooks = {
            "maps.DifferentiableMap.__call__": (self._apply_before, None),
            "family.ProfiniteFamily.proj": (self._map_key, self._map_after("proj")),
            "family.ProfiniteFamily.inj": (self._map_key, self._map_after("inj")),
            "limits.Thread.value": (self._thread_before, self._thread_after),
        }
        for modname, targets in SPANS.items():
            mod = getattr(proflim, modname, None)
            for target in targets:
                name = f"{modname}.{target}"
                before, after = hooks.get(name, (None, None))
                if mod is None or not self._install_one(mod, target, name, modules,
                                                        before, after):
                    self.missing.append(name)
        self._install_poset_oracles(proflim.poset)

    def _install_one(self, mod, target, name, modules, before, after) -> bool:
        if "." in target:
            cls_name, attr = target.split(".", 1)
            cls = getattr(mod, cls_name, None)
            if cls is None or attr not in cls.__dict__:
                return False
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, before, after)))
                return True
            wrapped = self.wrap(name, raw, before, after)
            # aliases such as Thread.__call__ = value share the span
            for alias, val in list(cls.__dict__.items()):
                if val is raw:
                    setattr(cls, alias, wrapped)
            return True
        fn = mod.__dict__.get(target)
        if fn is None or not callable(fn):
            return False
        wrapped = self.wrap(name, fn, before, after)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, key, wrapped)
                elif isinstance(val, dict) and key.isupper():
                    # registries such as GALLERY_BUILDERS hold the functions
                    for k, v in list(val.items()):
                        if v is fn:
                            val[k] = wrapped
        return True

    def _install_poset_oracles(self, poset_mod) -> None:
        cls = poset_mod.IndexPoset
        init = cls.__init__
        tracer = self

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for field in POSET_ORACLES:
                object.__setattr__(obj, field,
                                   tracer.wrap(f"poset.{field}", getattr(obj, field)))

        cls.__init__ = traced_init


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


# ---------------------------------------------------------------------------
# per-layer metrics from aggregated spans


def merge(snapshots) -> dict:
    """Sum several snapshots (one per traced process)."""
    spans, edges, counters = {}, Counter(), Counter()
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for a, b, n in snap["edges"]:
            edges[(a, b)] += n
        counters.update(snap["counters"])
    return {"spans": spans, "edges": [[a, b, n] for (a, b), n in edges.items()],
            "counters": dict(counters)}


def layer_metrics(ops: dict, whole: dict, n_ops: int, steps: dict) -> dict:
    """name -> (value, unit).

    ops is the snapshot of the timed operations; counts and seconds from it
    are per op.  whole covers set-up and operations; the set-up layers
    (expression compiles, gallery builds) are reported from it per run.
    steps maps an integrator scheme to the steps the operations took with it.
    """
    spans = ops["spans"]
    edges = {(a, b): n for a, b, n in ops["edges"]}
    counters = ops["counters"]

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names) / n_ops

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names) / n_ops

    def layer_self(layer):
        return self_s(*[n for n in spans if n.split(".", 1)[0] == layer])

    def layer_calls(layer):
        return calls(*[n for n in spans if n.split(".", 1)[0] == layer])

    def whole_self(layer):
        return float(sum(v[2] for n, v in whole["spans"].items()
                         if n.split(".", 1)[0] == layer))

    def per_step(n, scheme):
        return n / steps[scheme] if steps.get(scheme) else 0.0

    requests = counters.get("family.requests", 0)
    builds = counters.get("family.map_builds", 0)
    thread_calls = spans.get("limits.Thread.value", (0, 0.0, 0.0))[0]
    apply_calls = spans.get("maps.DifferentiableMap.__call__", (0, 0.0, 0.0))[0]
    level_calls = sum(edges.get((d, "profmetric.LevelMetricFamily.__call__"), 0)
                      for d in ("profmetric.d_inf", "profmetric.d_mu"))
    hessians = edges.get(("symplectic._implicit_midpoint", "maps.fd_jacobian"), 0)
    whole_spans = whole["spans"]
    count, sec, ratio = "count", "s", "ratio"
    return {
        "maps.apply_calls": (calls("maps.DifferentiableMap.__call__"), count),
        "maps.apply_self_s": (self_s("maps.DifferentiableMap.__call__"), sec),
        "maps.points_per_apply": (
            counters.get("maps.apply_points", 0) / apply_calls if apply_calls else 0.0,
            count),
        "maps.compose_calls": (calls("maps.compose"), count),
        "maps.jacobian_calls": (calls("maps.DifferentiableMap.jacobian"), count),
        "maps.jacobian_self_s": (self_s("maps.DifferentiableMap.jacobian"), sec),
        "maps.fd_jacobian_calls": (calls("maps.fd_jacobian"), count),
        "symplectic.grad_evals_per_step": (
            per_step(counters.get("flow.H.base.jacobian.leapfrog", 0), "leapfrog"), count),
        "symplectic.hessian_evals_per_step": (per_step(hessians, "implicit-midpoint"),
                                              count),
        "symplectic.level_rank_calls": (calls("symplectic.level_rank"), count),
        "symplectic.hamiltonian_field_calls": (calls("symplectic.hamiltonian_field"),
                                               count),
        "symplectic.flow_self_s": (self_s(*FLOW_SPANS), sec),
        "symplectic.audit_self_s": (self_s(*SYMPLECTIC_AUDIT_SPANS), sec),
        "calculus.comps_calls": (calls("calculus.TameForm.comps"), count),
        "calculus.partials_calls": (calls("calculus.TameForm.partials"), count),
        "calculus.check_tame_self_s": (self_s("calculus.check_tame"), sec),
        "calculus.metric_check_self_s": (self_s("calculus.metric_check"), sec),
        "family.proj_inj_calls": (calls("family.ProfiniteFamily.proj",
                                        "family.ProfiniteFamily.inj"), count),
        "family.map_builds": (builds / n_ops, count),
        "family.cache_hit_ratio": (1.0 - builds / requests if requests else 0.0, ratio),
        "family.lookup_self_s": (self_s("family.ProfiniteFamily.proj",
                                        "family.ProfiniteFamily.inj"), sec),
        "family.verify_family_self_s": (self_s("family.verify_family"), sec),
        "limits.thread_value_calls": (calls("limits.Thread.value"), count),
        "limits.thread_memo_hit_ratio": (
            counters.get("limits.memo_hits", 0) / thread_calls if thread_calls else 0.0,
            ratio),
        "limits.extend_calls": (calls("limits.extend_section_point"), count),
        "limits.self_s": (layer_self("limits"), sec),
        "poset.calls": (layer_calls("poset"), count),
        "poset.self_s": (layer_self("poset"), sec),
        "profmetric.levels_touched": (level_calls / n_ops, count),
        "profmetric.dist_calls": (calls("profmetric.d_inf", "profmetric.d_mu"), count),
        "profmetric.d_inf_self_s": (self_s("profmetric.d_inf"), sec),
        "profmetric.d_mu_self_s": (self_s("profmetric.d_mu"), sec),
        "cylinder.eval_calls": (calls("cylinder.CylindricalFunction.__call__"), count),
        "cylinder.reexpress_calls": (calls("cylinder.reexpress"), count),
        "cylinder.level_function_calls": (calls("cylinder.level_function"), count),
        "cylinder.self_s": (layer_self("cylinder"), sec),
        "expr.compile_calls": (
            float(whole_spans.get("expr.compile_scalar", (0,))[0]), count),
        "expr.compile_self_s": (whole_self("expr"), sec),
        "gallery.build_self_s": (whole_self("gallery"), sec),
    }

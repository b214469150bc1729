"""Command line front end: verification suites, distances, flows, Wiener
experiments, and gallery export.

Exit codes: 0 all audits pass, 1 an audit failed, 2 malformed input.  A
fixed seed makes every report byte-identical across runs.  Reports are JSON
with sorted keys; trajectories are CSV with the fixed header
step,t,x0,...,H.  The PROFLIM_OUT_DIR environment variable supplies the
default directory for relative output paths.
"""
from __future__ import annotations

import argparse
import inspect
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .calculus import CompatibleMetric, TameForm, check_tame, metric_check
from .descriptors import (DescriptorError, SCHEMA_VERSION, family_from_descriptor,
                          family_to_descriptor, form_from_descriptor,
                          gallery_reference_descriptor, load_measure_csv,
                          thread_from_descriptor)
from .expr import ExpressionError, cylindrical_from_expression
from .family import FamilyMismatch, sample_pairs, sample_point, verify_family
from .gallery import (GALLERY_BUILDERS, build_gallery, gallery_key, gallery_names,
                      pairing)
from .maps import DimensionMismatch, residual
from .profmetric import d_inf, d_mu, discrete_metrics, euclidean_metrics
from .report import VerificationReport
from .symplectic import (NonconvergentSolve, NonSymplecticAction, SingularForm,
                         SymplecticStructure, flow, hamiltonian_compat_check,
                         hamiltonian_identity_residual, is_projectively_nondegenerate,
                         momentum_verify)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _size_kwarg(builder) -> Optional[str]:
    """The builder's int-defaulted size parameter, or None if it has none."""
    return next((p.name for p in inspect.signature(builder).parameters.values()
                 if isinstance(p.default, int)), None)


SIZE_KWARG = {key: _size_kwarg(b) for key, b in GALLERY_BUILDERS.items()}


class UsageError(ValueError):
    """Bad input surfaced with exit code 2."""


@dataclass
class RunConfig:
    """Everything a subcommand run depends on; the seed pins all sampling."""

    subcommand: str
    family: Optional[str] = None
    max_level: Optional[int] = None
    tol: float = 1e-9
    samples: int = 100
    seed: int = 0
    out: Optional[str] = None
    fmt: str = "json"
    options: Dict[str, Any] = field(default_factory=dict)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def resolve_out_path(out: Optional[str]) -> Optional[str]:
    if out is None:
        return None
    base = os.environ.get("PROFLIM_OUT_DIR")
    if base and not os.path.isabs(out):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, out)
    return out


def emit(text: str, out: Optional[str]) -> None:
    path = resolve_out_path(out)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def report_json(doc: dict) -> str:
    doc = dict(doc)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def resolve_family(name_or_path: str, max_level: Optional[int] = None):
    """-> (GalleryFamily or None, ProfiniteFamily).  JSON paths load
    descriptors; anything else must be a gallery name."""
    if name_or_path.endswith(".json") or os.path.sep in name_or_path:
        if not os.path.exists(name_or_path):
            raise UsageError(f"no such descriptor file: {name_or_path}")
        with open(name_or_path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise UsageError(f"bad JSON in {name_or_path}: {err}") from err
        return None, family_from_descriptor(doc)
    key = gallery_key(name_or_path)
    if key not in GALLERY_BUILDERS:
        raise UsageError(f"unknown family {name_or_path!r}; gallery: "
                         + ", ".join(gallery_names()))
    kwargs = {}
    size = SIZE_KWARG[key]
    if max_level is not None:
        if size is None:
            raise UsageError(f"{name_or_path!r} does not take --max-level")
        kwargs[size] = max_level
    g = build_gallery(key, **kwargs)
    return g, g.family


def failing_lines(reports: List[VerificationReport]) -> List[str]:
    lines = []
    for rep in reports:
        for chk in rep.checks:
            if not chk.passed:
                lines.append(f"FAIL {chk.name}: residual {chk.max_residual:.6e} "
                             f"> tol {chk.tol:.1e}")
    return lines


def finish_reports(cfg: RunConfig, doc: dict, reports: List[VerificationReport]) -> int:
    passed = all(r.passed for r in reports)
    doc["passed"] = passed
    doc["reports"] = [r.to_dict() for r in reports]
    emit(report_json(doc), cfg.out)
    for line in failing_lines(reports):
        print(line, file=sys.stderr)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommands


def _same_levels(a, b) -> bool:
    """Both families list the same levels with the same dimensions."""
    els = a.poset.elements
    return (els is not None and b.poset.elements is not None
            and list(els) == list(b.poset.elements)
            and all(a.dim(J) == b.dim(J) for J in els))


def cmd_verify(cfg: RunConfig) -> int:
    g, fam = resolve_family(cfg.family, cfg.max_level)
    rng = cfg.rng()
    reports = [verify_family(fam, points_per_chain=cfg.samples, tol=cfg.tol, rng=rng)]

    pairs = sample_pairs(fam.poset, rng)
    form_src = cfg.options.get("form")
    if form_src:
        with open(form_src) as fh:
            form = form_from_descriptor(g or fam, json.load(fh))
        if form.family is not fam and (g is not None or not _same_levels(form.family, fam)):
            raise UsageError(f"--form names a form of another family than {cfg.family!r}")
        reports.append(check_tame(form, pairs, samples=max(1, cfg.samples // 10),
                                  tol=cfg.options.get("tame_tol", cfg.tol), rng=rng))
    elif g is not None:
        for key, obj in sorted(g.extras.items()):
            if isinstance(obj, TameForm):
                reports.append(check_tame(obj, pairs, samples=max(1, cfg.samples // 10),
                                          tol=cfg.options.get("tame_tol", cfg.tol),
                                          rng=rng))
            elif isinstance(obj, CompatibleMetric):
                reports.append(metric_check(obj, pairs,
                                            samples=max(1, cfg.samples // 10),
                                            tol=cfg.tol, rng=rng))

    doc = {"command": "verify", "family": cfg.family, "seed": cfg.seed,
           "tolerance": cfg.tol}
    return finish_reports(cfg, doc, reports)


def _thread_argument(g, fam, text: str):
    if text.strip().startswith("{"):
        doc = json.loads(text)
    else:
        if not os.path.exists(text):
            raise UsageError(f"thread descriptor not found: {text}")
        with open(text) as fh:
            doc = json.load(fh)
    return thread_from_descriptor(g if g is not None else fam, doc)


def cmd_distance(cfg: RunConfig) -> int:
    g, fam = resolve_family(cfg.family, cfg.max_level)
    if fam.poset.elements is None:
        raise UsageError("distance needs a finite index poset")
    x = _thread_argument(g, fam, cfg.options["x"])
    y = _thread_argument(g, fam, cfg.options["y"])

    kind = cfg.options.get("metric", "euclidean")
    if kind == "euclidean":
        metrics = euclidean_metrics(fam)
    elif kind == "discrete":
        metrics = discrete_metrics(fam)
    else:
        raise UsageError(f"unknown metric kind {kind!r}")

    budget = cfg.options.get("levels")
    els = fam.poset.sort(fam.poset.elements)
    if budget is not None:
        els = els[:int(budget)]
    stages = [[J] for J in els]
    value, converged, history = d_inf(metrics, x, y, stages, tol=cfg.tol)

    doc = {"command": "distance", "family": cfg.family, "seed": cfg.seed,
           "metric": kind, "d_inf": value, "converged": converged,
           "history": history,
           "levels_used": [json.loads(json.dumps(sorted(J) if isinstance(J, frozenset) else J))
                           for J in els]}
    measure_path = cfg.options.get("measure")
    if measure_path:
        mu = load_measure_csv(measure_path)
        val, bound = d_mu(metrics, mu, x, y)
        doc["d_mu"] = val
        doc["d_mu_tail_bound"] = bound
    emit(report_json(doc), cfg.out)
    return EXIT_PASS


def cmd_flow(cfg: RunConfig) -> int:
    g, fam = resolve_family(cfg.family, cfg.max_level)
    level = cfg.options.get("level")
    if level is None:
        raise UsageError("flow needs --level")
    level = int(level)
    omega = None if g is None else g.extras.get("omega")
    if not isinstance(omega, TameForm):
        raise UsageError("flow needs a family with a symplectic form "
                         "(gallery: symplectic_even_tower)")

    h_text = cfg.options.get("hamiltonian", "oscillator")
    if h_text == "oscillator" and "hamiltonian_at" in (g.extras if g else {}):
        H = g.extras["hamiltonian_at"](level)
    else:
        H = cylindrical_from_expression(fam, [level], h_text)

    dim = fam.dim(level)
    x0_text = cfg.options.get("x0")
    if x0_text:
        x0 = np.array([float(v) for v in x0_text.split(",")], dtype=float)
        if x0.size != dim:
            raise UsageError(f"--x0 has {x0.size} coordinates, level {level} has {dim}")
    else:
        x0 = np.zeros(dim)
        x0[0] = 1.0

    traj = flow(omega, H, level, x0,
                dt=float(cfg.options.get("dt", 1e-3)),
                steps=int(cfg.options.get("steps", 1000)),
                scheme=cfg.options.get("scheme", "leapfrog"))

    if cfg.fmt == "csv":
        buf = io.StringIO()
        traj.write_csv(buf)
        emit(buf.getvalue(), cfg.out)
    else:
        doc = {"command": "flow", "family": cfg.family, "seed": cfg.seed,
               "level": level, "steps": int(cfg.options.get("steps", 1000)),
               "dt": float(cfg.options.get("dt", 1e-3)),
               "energy_initial": float(traj.energies[0]),
               "energy_final": float(traj.energies[-1]),
               "energy_drift": traj.energy_drift(),
               "final_state": [float(v) for v in traj.states[-1]]}
        emit(report_json(doc), cfg.out)
    return EXIT_PASS


def cmd_wiener(cfg: RunConfig) -> int:
    times = cfg.options.get("times")
    kwargs = {}
    if times:
        kwargs["times"] = [float(t) for t in times.split(",")]
    g = build_gallery("wiener", **kwargs)
    fam = g.family
    pool = list(g.extras["pool"])
    rng = cfg.rng()

    report = VerificationReport("wiener experiments")

    # structural: retraction and PL cocycle on random inclusion triples
    key = fam.poset.key
    triples = []
    for _ in range(int(cfg.options.get("triples", 20))):
        picks = [frozenset(t for t in pool if rng.random() < 0.5) for _ in range(3)]
        T = min(picks, key=len)
        S = T | picks[1]
        U = S | picks[2]
        if not T or T == U:
            continue
        x = rng.standard_normal(len(T))
        via = fam.inj(U, S)(fam.inj(S, T)(x))
        direct = fam.inj(U, T)(x)
        back = fam.proj(T, U)(direct)
        triples.append(((key(T), key(S), key(U)),
                        residual(np.concatenate([via, back]), np.concatenate([direct, x]))))
    report.add_worst("pl-injection cocycle and retraction", triples,
                     float(cfg.options.get("cocycle_tol", 1e-12)), what="triple")

    # pairing formula versus direct summation
    S = frozenset(pool)
    values = g.extras["sample_path"](S, rng)
    gamma = g.extras["pl_path"](S, values)
    alpha = [(pool[int(rng.integers(len(pool)))], float(rng.standard_normal()))
             for _ in range(5)]
    direct = sum(c * gamma(t) for t, c in alpha)
    res_pairing = abs(pairing(alpha, gamma) - direct)
    report.add("pairing equals direct summation", res_pairing, 0.0)

    # sampler marginal variance ~ t
    n = int(cfg.samples)
    ts = np.asarray(sorted(S), float)
    gaps = np.diff(np.concatenate([[0.0], ts]))
    increments = rng.standard_normal((n, ts.size)) * np.sqrt(gaps)
    paths = np.cumsum(increments, axis=1)
    rel = np.abs(paths.var(axis=0, ddof=1) - ts) / ts
    report.add("marginal variance matches t", float(rel.max()),
               float(cfg.options.get("var_tol", 0.05)),
               detail=f"{n} sample paths")

    # cylindrical evaluation invariant under grid refinement
    from .cylinder import reexpress
    from .limits import Thread
    from .poset import Section
    master = {t: float(v) for t, v in zip(ts, values)}
    thread = Thread(fam, lambda Sx: np.array([master[t] for t in sorted(Sx)]),
                    name="master-path")
    coarse = frozenset(pool[:2])
    f = cylindrical_from_expression(fam, [coarse], "x0*x0 + sin(x1)")
    base_val = f(thread)
    refined = []
    for extra in range(2, len(pool) + 1):
        finer = frozenset(pool[:extra])
        f2 = reexpress(f, Section.of(fam.poset, [finer]))
        refined.append((key(finer), residual(f2(thread), base_val)))
    report.add_worst("cylindrical evaluation refinement-invariant", refined,
                     float(cfg.options.get("cocycle_tol", 1e-12)), what="member")

    doc = {"command": "wiener", "seed": cfg.seed, "pool": [float(t) for t in pool],
           "samples": n}
    return finish_reports(cfg, doc, [report])


def cmd_symplectic(cfg: RunConfig) -> int:
    pairs_count = int(cfg.options.get("pairs", 3))
    g = build_gallery("symplectic", max_pairs=pairs_count)
    fam = g.family
    rng = cfg.rng()
    levels = list(fam.poset.elements)

    structure = SymplecticStructure.build(g.extras["omega"], levels,
                                          samples=max(1, cfg.samples // 10),
                                          tol=cfg.tol, rng=rng)
    report = VerificationReport("symplectic tower")
    report.add("closedness (constant form)", structure.closedness_residual, cfg.tol)
    nondeg, profile = is_projectively_nondegenerate(
        structure.omega, levels, samples=max(1, cfg.samples // 10), rng=rng)
    report.add("projective nondegeneracy", 0.0 if nondeg else 1.0, 0.5,
               detail=json.dumps({str(k): v for k, v in sorted(profile.items())},
                                 sort_keys=True))

    level = int(cfg.options.get("level", min(2, pairs_count)))
    H = g.extras["hamiltonian_at"](level)
    ham_tol = float(cfg.options.get("ham_tol", 1e-10))
    X = sample_point(fam.dim(level), rng, max(1, cfg.samples // 10))
    report.add_worst("hamiltonian defining identity",
                     [(i, hamiltonian_identity_residual(structure, H, level, x))
                      for i, x in enumerate(X)], ham_tol, what="sample")

    top = g.extras["hamiltonian_at"](pairs_count)
    adjacent = [(m, m + 1) for m in range(1, pairs_count)]
    compat = hamiltonian_compat_check(structure, top, adjacent,
                                      samples=max(1, cfg.samples // 10),
                                      tol=ham_tol, rng=rng)

    coeffs = [1.0] * pairs_count
    try:
        momentum = momentum_verify(structure, g.extras["action"],
                                   g.extras["momentum"], coeffs, pairs_count,
                                   samples=max(1, cfg.samples // 10),
                                   tol=float(cfg.options.get("momentum_tol", 1e-6)),
                                   rng=rng)
    except NonSymplecticAction as err:
        momentum = VerificationReport("momentum map")
        momentum.add("action preserves the form", 1.0, 0.0, detail=str(err))

    doc = {"command": "symplectic", "seed": cfg.seed, "pairs": pairs_count,
           "level": level,
           "rank_profile": {str(k): v for k, v in sorted(structure.rank_profile.items())}}
    return finish_reports(cfg, doc, [report, compat, momentum])


def cmd_gallery(cfg: RunConfig) -> int:
    action = cfg.options.get("action")
    name = cfg.options.get("name")
    if action == "list":
        emit("\n".join(gallery_names()) + "\n", cfg.out)
        return EXIT_PASS
    if name is None:
        raise UsageError(f"gallery {action} needs a family name")
    key = gallery_key(name)
    if key not in GALLERY_BUILDERS:
        raise UsageError(f"unknown gallery family {name!r}")
    g = build_gallery(key)
    if action == "describe":
        fam = g.family
        doc = {"command": "gallery describe", "name": g.name,
               "description": g.description,
               "levels": [{"index": json.loads(json.dumps(
                               sorted(J) if isinstance(J, frozenset) else J)),
                           "dim": fam.dim(J)}
                          for J in fam.poset.sort(fam.poset.elements)],
               "extras": sorted(g.extras)}
        emit(report_json(doc), cfg.out)
        return EXIT_PASS
    if action == "export":
        if key in ("wiener", "symplectic", "odd-symplectic"):
            doc = gallery_reference_descriptor(key)
        else:
            doc = family_to_descriptor(g.family, name=g.name)
        emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", cfg.out)
        return EXIT_PASS
    raise UsageError(f"unknown gallery action {action!r}")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="proflim",
                description="verification and experiments on profinite towers")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=100)
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--out", help="output path (PROFLIM_OUT_DIR resolves "
                                      "relative paths)")
        sp.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default="json")

    sp = sub.add_parser("verify", help="audit family and form axioms")
    sp.add_argument("--family", required=True)
    sp.add_argument("--max-level", type=int, dest="max_level")
    sp.add_argument("--form", help="form descriptor JSON path")
    sp.add_argument("--tame-tol", type=float, dest="tame_tol")
    common(sp)

    sp = sub.add_parser("distance", help="pseudo-distances between threads")
    sp.add_argument("--family", required=True)
    sp.add_argument("--max-level", type=int, dest="max_level")
    sp.add_argument("--x", required=True, help="thread descriptor (JSON or path)")
    sp.add_argument("--y", required=True, help="thread descriptor (JSON or path)")
    sp.add_argument("--metric", choices=("euclidean", "discrete"),
                    default="euclidean")
    sp.add_argument("--levels", type=int, help="level budget")
    sp.add_argument("--measure", help="weights CSV (index,weight)")
    common(sp)

    sp = sub.add_parser("flow", help="integrate a Hamiltonian field")
    sp.add_argument("--family", required=True)
    sp.add_argument("--max-level", type=int, dest="max_level")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--H", dest="hamiltonian", default="oscillator",
                    help="named Hamiltonian or expression")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--scheme", choices=("leapfrog", "implicit-midpoint"),
                    default="leapfrog")
    sp.add_argument("--x0", help="comma-separated start point")
    common(sp)
    sp.set_defaults(fmt="csv")

    sp = sub.add_parser("wiener", help="path-space sampling and refinement audits")
    sp.add_argument("--times", help="comma-separated knot pool")
    sp.add_argument("--triples", type=int, default=20)
    sp.add_argument("--var-tol", type=float, dest="var_tol", default=0.05)
    sp.add_argument("--cocycle-tol", type=float, dest="cocycle_tol", default=1e-12)
    common(sp)

    sp = sub.add_parser("symplectic", help="nondegeneracy, Hamiltonian, momentum")
    sp.add_argument("--pairs", type=int, default=3)
    sp.add_argument("--level", type=int)
    sp.add_argument("--ham-tol", type=float, dest="ham_tol", default=1e-10)
    sp.add_argument("--momentum-tol", type=float, dest="momentum_tol", default=1e-6)
    common(sp)

    sp = sub.add_parser("gallery", help="list, describe, or export families")
    sp.add_argument("action", choices=("list", "describe", "export"))
    sp.add_argument("name", nargs="?")
    common(sp)

    return p


HANDLERS = {
    "verify": cmd_verify,
    "distance": cmd_distance,
    "flow": cmd_flow,
    "wiener": cmd_wiener,
    "symplectic": cmd_symplectic,
    "gallery": cmd_gallery,
}


def config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    known = {"subcommand", "family", "max_level", "tol", "samples", "seed",
             "out", "fmt"}
    options = {k: v for k, v in vars(ns).items() if k not in known and v is not None}
    return RunConfig(
        subcommand=ns.subcommand,
        family=getattr(ns, "family", None),
        max_level=getattr(ns, "max_level", None),
        tol=getattr(ns, "tol", 1e-9),
        samples=getattr(ns, "samples", 100),
        seed=getattr(ns, "seed", 0),
        out=getattr(ns, "out", None),
        fmt=getattr(ns, "fmt", "json"),
        options=options)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = config_from_namespace(ns)
        return HANDLERS[cfg.subcommand](cfg)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DescriptorError, ExpressionError, DimensionMismatch,
            FamilyMismatch, json.JSONDecodeError, OSError, KeyError,
            ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularForm, NonconvergentSolve, NonSymplecticAction) as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return EXIT_FAIL


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()

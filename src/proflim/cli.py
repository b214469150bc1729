"""Command line front end: verification suites, distances, flows, Wiener
experiments, and gallery export.

Exit codes: 0 all audits pass; 1 an audit or the dynamics failed (`FAIL`
on stderr); 2 bad input (`error:` on stderr); any other exception is a bug
and surfaces as a traceback.  A fixed seed makes every report
byte-identical across runs.  Reports are JSON with sorted keys;
trajectories are CSV with the fixed header step,t,x0,...,H.
"""
from __future__ import annotations

import argparse
import inspect
import io
import json
import os
import sys
from typing import List, Optional

import numpy as np

from .calculus import TameForm, check_tame
from .cylinder import reexpress
from .descriptors import (DescriptorError, SCHEMA_VERSION, family_from_descriptor,
                          family_to_descriptor, form_from_descriptor,
                          gallery_reference_descriptor, load_measure_csv, read_json,
                          thread_from_descriptor, write_json)
from .expr import ExpressionError, cylindrical_from_expression
from .family import sample_chains, sample_point, verify_family
from .gallery import (GALLERY_BUILDERS, build_gallery, gallery_key, gallery_names,
                      pairing)
from .limits import Thread
from .maps import residual
from .poset import Section
from .profmetric import METRICS, LevelMetricFamily, d_inf, d_mu
from .report import VerificationReport
from .symplectic import (SCHEMES, NonconvergentSolve, NonSymplecticAction, SingularForm,
                         SymplecticStructure, flow, hamiltonian_compat_check,
                         hamiltonian_identity_residual, is_projectively_nondegenerate,
                         momentum_verify)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(argparse.ArgumentTypeError):
    """Bad command-line input (exit 2); argparse keeps its message in type=."""


# ---------------------------------------------------------------------------
# argument types: every command-line value is checked here or in a loader


def positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise UsageError(f"expected a positive integer, got {text!r}")
    return int(text)


def tolerance(text: str) -> float:
    """A finite number >= 0, -0 read as 0; nan compares false."""
    try:
        if 0 <= float(text) < np.inf:
            return abs(float(text))
    except ValueError:
        pass
    raise UsageError(f"expected a finite number >= 0, got {text!r}")


def float_list(text: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def json_doc(text: str):
    """Inline JSON (text starting with '{') or the path of a JSON file, read
    as strict JSON: NaN and Infinity are refused."""
    try:
        if text.lstrip().startswith("{"):
            return read_json(text)
        with open(text) as fh:
            return read_json(fh.read())
    except (OSError, ValueError) as err:  # ValueError: not strict JSON, or not text
        raise UsageError(f"cannot read JSON from {text!r}: {err}") from None


def emit(text: str, out: Optional[str]) -> None:
    """Write to stdout, or to --out (relative to PROFLIM_OUT_DIR when set)."""
    if out is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("PROFLIM_OUT_DIR")
    if base and not os.path.isabs(out):
        os.makedirs(base, exist_ok=True)
        out = os.path.join(base, out)
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"cannot write --out {out}: {err}") from None


def report_json(doc: dict) -> str:
    return write_json({"schema_version": SCHEMA_VERSION, **doc})


def resolve_gallery(name: str, max_level: Optional[int] = None):
    """The gallery family a registry key or builder name names, at --max-level."""
    key = gallery_key(name)
    if key not in GALLERY_BUILDERS:
        raise UsageError(f"unknown family {name!r}; gallery: " + ", ".join(gallery_names()))
    if max_level is None:
        return build_gallery(key)
    # the builder's size parameter is its one int-defaulted parameter
    size = next((p.name for p in inspect.signature(GALLERY_BUILDERS[key]).parameters.values()
                 if isinstance(p.default, int)), None)
    if size is None:
        raise UsageError(f"{name!r} does not take --max-level")
    return build_gallery(key, **{size: max_level})


def resolve_family(name_or_path: str, max_level: Optional[int] = None):
    """-> (GalleryFamily or None, ProfiniteFamily).  JSON paths load
    descriptors; anything else must be a gallery name."""
    if name_or_path.endswith(".json") or os.path.sep in name_or_path:
        if not os.path.exists(name_or_path):
            raise UsageError(f"no such descriptor file: {name_or_path}")
        return None, family_from_descriptor(json_doc(name_or_path))
    g = resolve_gallery(name_or_path, max_level)
    return g, g.family


def checked_level(fam, level):
    """--level, refused unless it is an element of the family's poset."""
    if level not in fam.poset.elements:
        raise UsageError(f"--level {level!r} is not a level of {fam.name or 'the family'} "
                         f"(levels: {', '.join(map(repr, fam.poset.sort(fam.poset.elements)))})")
    return level


def finish_reports(doc: dict, reports: List[VerificationReport], out: Optional[str]) -> int:
    passed = all(r.passed for r in reports)
    doc["passed"] = passed
    doc["reports"] = [r.to_dict() for r in reports]
    emit(report_json(doc), out)
    for chk in (c for rep in reports for c in rep.checks):
        if not chk.passed:
            print(f"FAIL {chk.name}: residual {chk.max_residual:.6e} > tol {chk.tol:.1e}",
                  file=sys.stderr)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed argparse namespace


def _same_levels(a, b) -> bool:
    """Both families list the same levels with the same dimensions."""
    return (list(a.poset.elements) == list(b.poset.elements)
            and all(a.dim(J) == b.dim(J) for J in b.poset.elements))


def cmd_verify(ns: argparse.Namespace) -> int:
    g, fam = resolve_family(ns.family, ns.max_level)
    if not fam.poset.elements:
        raise UsageError("verify needs a nonempty poset")
    rng = np.random.default_rng(ns.seed)
    reports = [verify_family(fam, points_per_chain=ns.samples, tol=ns.tol, rng=rng)]

    pairs = sample_chains(fam.poset, rng, 12, 2)
    if ns.form is not None:
        form = form_from_descriptor(g or fam, ns.form)
        if form.family is not fam and (g is not None or not _same_levels(form.family, fam)):
            raise UsageError(f"--form names a form of another family than {ns.family!r}")
        audited = [form]
    else:
        audited = [g.extras[k] for k in sorted(g.extras)] if g is not None else []
    few = max(1, ns.samples // 10)
    for obj in audited:
        if isinstance(obj, TameForm):
            reports.append(check_tame(obj, pairs, samples=few, rng=rng,
                                      tol=ns.tol if ns.tame_tol is None else ns.tame_tol))

    doc = {"command": "verify", "family": ns.family, "seed": ns.seed,
           "tolerance": ns.tol}
    return finish_reports(doc, reports, ns.out)


@np.errstate(over="ignore")  # a level distance may overflow to inf, which squashes to 1
def cmd_distance(ns: argparse.Namespace) -> int:
    g, fam = resolve_family(ns.family, ns.max_level)
    if not fam.poset.elements:
        raise UsageError("distance needs a nonempty poset")
    x = thread_from_descriptor(g or fam, ns.x)
    y = thread_from_descriptor(g or fam, ns.y)
    metrics = LevelMetricFamily(fam, METRICS[ns.metric])

    els = fam.poset.sort(fam.poset.elements)[:ns.levels]
    value, converged, history = d_inf(metrics, x, y, [[J] for J in els], tol=ns.tol)

    doc = {"command": "distance", "family": ns.family,
           "metric": ns.metric, "d_inf": value, "converged": converged,
           "history": history,
           "levels_used": [fam.poset.key(J) for J in els]}
    if ns.measure:
        try:
            mu = load_measure_csv(ns.measure)
        except (OSError, UnicodeDecodeError) as err:
            raise UsageError(f"cannot read --measure: {err}") from None
        stray = [J for J in mu.weights if J not in fam.poset.elements]
        if stray:
            raise UsageError(f"--measure: index {stray[0]!r} is not a level of "
                             f"{fam.name or 'the family'}")
        doc["d_mu"], doc["d_mu_tail_bound"] = d_mu(metrics, mu, x, y)
    emit(report_json(doc), ns.out)
    return EXIT_PASS


def cmd_flow(ns: argparse.Namespace) -> int:
    g, fam = resolve_family(ns.family, ns.max_level)
    omega = None if g is None else g.extras.get("omega")
    if not isinstance(omega, TameForm):
        raise UsageError("flow needs a family with a symplectic form "
                         "(gallery: symplectic_even_tower)")
    level = checked_level(fam, ns.level)
    dim = fam.dim(level)
    x0 = np.array(ns.x0 or ([1.0] + [0.0] * (dim - 1)), dtype=float)
    if x0.size != dim:
        raise UsageError(f"--x0 has {x0.size} coordinates, level {level} has {dim}")
    for flag, value in (("--dt", [ns.dt]), ("--x0", x0.tolist())):
        if not np.isfinite(value).all():
            raise UsageError(f"{flag} must be finite, got {','.join(map(str, value))}")

    try:
        if ns.hamiltonian == "oscillator" and "hamiltonian_at" in g.extras:
            H = g.extras["hamiltonian_at"](level)
        else:
            H = cylindrical_from_expression(fam, [level], ns.hamiltonian)
        traj = flow(omega, H, level, x0, dt=ns.dt, steps=ns.steps, scheme=ns.scheme)
    except np.linalg.LinAlgError:
        raise  # a solve failing along the path is not bad input
    except ExpressionError as err:  # H does not parse
        raise UsageError(f"--H: {err}") from None
    except ValueError as err:  # SchemeMismatch, or H not finite at x0
        raise UsageError(str(err)) from None

    if ns.format == "csv":
        buf = io.StringIO()
        traj.write_csv(buf)
        emit(buf.getvalue(), ns.out)
    else:
        doc = {"command": "flow", "family": ns.family,
               "level": level, "steps": ns.steps, "dt": ns.dt,
               "energy_initial": float(traj.energies[0]),
               "energy_final": float(traj.energies[-1]),
               "energy_drift": traj.energy_drift(),
               "final_state": [float(v) for v in traj.states[-1]]}
        emit(report_json(doc), ns.out)
    return EXIT_PASS


def cmd_wiener(ns: argparse.Namespace) -> int:
    try:
        g = build_gallery("wiener", times=ns.times)
    except ValueError as err:  # the knot check of wiener_family
        raise UsageError(f"--times: {err}") from None
    fam = g.family
    pool = list(g.extras["pool"])
    if len(pool) < 2:
        raise UsageError(f"--times: the refinement check needs at least two knots, "
                         f"got {len(pool)}")
    rng = np.random.default_rng(ns.seed)

    report = VerificationReport("wiener experiments")

    # structural: retraction and PL cocycle on sampled chains T <= S <= U
    key = fam.poset.key
    triples = []
    for T, S, U in sample_chains(fam.poset, rng, ns.triples, 3):
        if not T or T == U:
            continue
        x = rng.standard_normal(len(T))
        direct = fam.inj(U, T)(x)  # against inj(U, S) inj(S, T), and proj(T, U) back to x
        via = np.concatenate([fam.inj(U, S)(fam.inj(S, T)(x)), fam.proj(T, U)(direct)])
        triples.append(((key(T), key(S), key(U)), residual(via, np.concatenate([direct, x]))))
    report.add_worst("pl-injection cocycle and retraction", triples, ns.cocycle_tol,
                     what="triple")

    # the pairing through gamma versus a sum over the sampled values: each t
    # in alpha is a knot, so this certifies that gamma passes through its knots
    S = frozenset(pool)
    values = g.extras["sample_path"](S, rng)
    gamma = g.extras["pl_path"](S, values)
    alpha = [(pool[int(rng.integers(len(pool)))], float(rng.standard_normal()))
             for _ in range(5)]
    direct = sum(c * values[pool.index(t)] for t, c in alpha)
    report.add("pairing equals direct summation", abs(pairing(alpha, gamma) - direct), 0.0)

    # sampler marginal variance ~ t
    n = ns.samples
    ts = np.asarray(sorted(S), float)
    gaps = np.diff(np.concatenate([[0.0], ts]))
    increments = rng.standard_normal((n, ts.size)) * np.sqrt(gaps)
    paths = np.cumsum(increments, axis=1)
    rel = np.abs(paths.var(axis=0, ddof=1) - ts) / ts
    report.add("marginal variance matches t", float(rel.max()), ns.var_tol,
               detail=f"{n} sample paths")

    # cylindrical evaluation invariant under grid refinement
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
                     ns.cocycle_tol, what="member")

    doc = {"command": "wiener", "seed": ns.seed, "pool": [float(t) for t in pool],
           "samples": n}
    return finish_reports(doc, [report], ns.out)


def cmd_symplectic(ns: argparse.Namespace) -> int:
    g = build_gallery("symplectic", max_pairs=ns.pairs)
    fam = g.family
    rng = np.random.default_rng(ns.seed)
    levels = list(fam.poset.elements)
    level = checked_level(fam, min(2, ns.pairs) if ns.level is None else ns.level)
    few = max(1, ns.samples // 10)

    omega = g.extras["omega"]
    structure = SymplecticStructure.build(omega, levels, samples=few, tol=ns.tol, rng=rng)
    report = VerificationReport("symplectic tower")
    report.add("closedness (constant form)", structure.closedness_residual, ns.tol)
    nondeg, profile = is_projectively_nondegenerate(omega, levels, samples=few, rng=rng)
    report.add("projective nondegeneracy", 0.0 if nondeg else 1.0, 0.5,
               detail=json.dumps({str(k): v for k, v in sorted(profile.items())},
                                 sort_keys=True))

    H = g.extras["hamiltonian_at"](level)
    report.add_worst("hamiltonian defining identity",
                     [(i, hamiltonian_identity_residual(omega, H, level, x))
                      for i, x in enumerate(sample_point(fam.dim(level), rng, few))],
                     ns.ham_tol, what="sample")

    top = g.extras["hamiltonian_at"](ns.pairs)
    adjacent = [(m, m + 1) for m in range(1, ns.pairs)]
    compat = hamiltonian_compat_check(omega, top, adjacent, samples=few,
                                      tol=ns.ham_tol, rng=rng)

    momentum = momentum_verify(omega, g.extras["action"], g.extras["momentum"],
                               [1.0] * ns.pairs, ns.pairs, samples=few,
                               tol=ns.momentum_tol, rng=rng)

    doc = {"command": "symplectic", "seed": ns.seed, "pairs": ns.pairs,
           "level": level,
           "rank_profile": {str(k): v for k, v in sorted(structure.rank_profile.items())}}
    return finish_reports(doc, [report, compat, momentum], ns.out)


def cmd_gallery(ns: argparse.Namespace) -> int:
    if ns.action == "list":
        emit("\n".join(gallery_names()) + "\n", ns.out)
        return EXIT_PASS
    if ns.name is None:
        raise UsageError(f"gallery {ns.action} needs a family name")
    g = resolve_gallery(ns.name)
    fam = g.family
    if ns.action == "describe":
        doc = {"command": "gallery describe", "name": g.name,
               "description": g.description,
               "levels": [{"index": fam.poset.key(J), "dim": fam.dim(J)}
                          for J in fam.poset.sort(fam.poset.elements)],
               "extras": sorted(g.extras)}
    elif g.name in ("wiener", "symplectic", "odd-symplectic"):
        doc = gallery_reference_descriptor(g.name)
    else:
        doc = family_to_descriptor(fam, name=g.name)
    emit(report_json(doc), ns.out)  # exported descriptors carry their schema_version
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    def option(*flags, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    seed = option("--seed", type=int, default=0)
    samples = option("--samples", type=positive_int, default=100)
    tol = option("--tol", type=tolerance, default=1e-9)
    out = option("--out", help="output path (PROFLIM_OUT_DIR resolves relative paths)")
    family = option("--family", required=True, help="gallery name or descriptor JSON path")
    family.add_argument("--max-level", type=positive_int, help="tower size of a gallery family")

    p = _Parser(prog="proflim",
                description="verification and experiments on profinite towers")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def command(name, run, parents, help):
        sp = sub.add_parser(name, parents=parents, help=help)
        sp.set_defaults(run=run)
        return sp

    sp = command("verify", cmd_verify, [family, seed, samples, tol, out],
                 "audit family and form axioms")
    sp.add_argument("--form", type=json_doc, help="form descriptor JSON path")
    sp.add_argument("--tame-tol", type=tolerance, help="tame-form tolerance (default --tol)")

    sp = command("distance", cmd_distance, [family, tol, out],
                 "pseudo-distances between threads")
    sp.add_argument("--x", type=json_doc, required=True, help="thread descriptor (JSON or path)")
    sp.add_argument("--y", type=json_doc, required=True, help="thread descriptor (JSON or path)")
    sp.add_argument("--metric", choices=METRICS, default="euclidean")
    sp.add_argument("--levels", type=positive_int, help="level budget")
    sp.add_argument("--measure", help="weights CSV (index,weight)")

    sp = command("flow", cmd_flow, [family, out], "integrate a Hamiltonian field")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--H", dest="hamiltonian", default="oscillator",
                    help="named Hamiltonian or expression")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--steps", type=positive_int, default=1000)
    sp.add_argument("--scheme", choices=SCHEMES, default=SCHEMES[0])
    sp.add_argument("--x0", type=float_list, help="comma-separated start point")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")

    sp = command("wiener", cmd_wiener, [seed, samples, out],
                 "path-space sampling and refinement audits")
    sp.add_argument("--times", type=float_list, help="comma-separated knot pool")
    sp.add_argument("--triples", type=positive_int, default=20)
    sp.add_argument("--var-tol", type=tolerance, default=0.05)
    sp.add_argument("--cocycle-tol", type=tolerance, default=1e-12)

    sp = command("symplectic", cmd_symplectic, [seed, samples, tol, out],
                 "nondegeneracy, Hamiltonian, momentum")
    sp.add_argument("--pairs", type=positive_int, default=3)
    sp.add_argument("--level", type=int, help="Hamiltonian level (default min(2, pairs))")
    sp.add_argument("--ham-tol", type=tolerance, default=1e-10)
    sp.add_argument("--momentum-tol", type=tolerance, default=1e-6)

    sp = command("gallery", cmd_gallery, [out], "list, describe, or export families")
    sp.add_argument("action", choices=("list", "describe", "export"))
    sp.add_argument("name", nargs="?")

    return p


def main(argv: Optional[List[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.run(ns)
    except (UsageError, DescriptorError, ExpressionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularForm, NonconvergentSolve, NonSymplecticAction) as err:
        print(f"FAIL: {err}", file=sys.stderr)
        return EXIT_FAIL


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()

"""JSON descriptors for posets, families, threads, and forms, plus the
measure CSV reader.

A family descriptor is {"schema_version", "name", "poset", "levels":
[{"index", "dim"}], "projections": [{"from", "to", "kind", "payload"}],
"injections": [...]} with map kinds matrix, truncation, pl-interpolation,
and named-gallery.  Set-valued indices are encoded as {"set": [...]}.
"""
from __future__ import annotations

import csv
import json
from typing import Any, Callable, Dict, Iterable, Optional

import numpy as np

from .calculus import TameForm
from .expr import ExpressionError, compile_scalar, parse_index_token
from .family import ProfiniteFamily
from .limits import SectionPoint, Thread, thread_from_section
from .maps import matrix_map, scatter_map, selection_map
from .poset import IndexPoset, chain_poset, finite_poset, subset_poset
from .profmetric import IndexMeasure

SCHEMA_VERSION = 1

MAP_KINDS = ("matrix", "truncation", "pl-interpolation", "named-gallery")


class DescriptorError(ValueError):
    """Malformed descriptor content."""


def encode_index(J) -> Any:
    if isinstance(J, frozenset):
        return {"set": sorted(J)}
    if isinstance(J, (int, float, str)):
        return J
    raise DescriptorError(f"index {J!r} has no JSON encoding")


def decode_index(obj) -> Any:
    if isinstance(obj, dict):
        if set(obj) != {"set"}:
            raise DescriptorError(f"bad index object {obj!r}")
        return frozenset(obj["set"])
    return obj


# ---------------------------------------------------------------------------
# posets


def poset_to_descriptor(poset: IndexPoset) -> dict:
    if poset.elements is None:
        raise DescriptorError("oracle posets have no finite descriptor")
    els = list(poset.elements)
    if all(isinstance(e, frozenset) for e in els) and els:
        pool = sorted(set().union(*els))
        return {"kind": "subsets", "pool": pool}
    if all(isinstance(e, int) for e in els):
        chain = all(poset.leq(a, b) == (a <= b)
                    for a in els for b in els)
        if chain:
            return {"kind": "chain", "elements": sorted(els)}
    matrix = [[bool(poset.leq(a, b)) for b in els] for a in els]
    return {"kind": "finite", "elements": [encode_index(e) for e in els],
            "leq": matrix}


def poset_from_descriptor(doc: dict) -> IndexPoset:
    kind = doc.get("kind")
    if kind == "chain":
        return chain_poset(doc["elements"])
    if kind == "subsets":
        return subset_poset(doc["pool"])
    if kind == "finite":
        els = [decode_index(e) for e in doc["elements"]]
        matrix = doc["leq"]
        if len(matrix) != len(els) or any(len(r) != len(els) for r in matrix):
            raise DescriptorError("leq matrix shape does not match elements")
        twice = next((i for i, e in enumerate(els) if e in els[:i]), None)
        if twice is not None:
            raise DescriptorError(f"poset.elements[{twice}]: {els[twice]!r} is listed twice")
        _check_directed_order(els, np.array(matrix, dtype=bool).reshape(len(els), len(els)))
        pos = {e: i for i, e in enumerate(els)}
        return finite_poset(els, leq=lambda a, b: bool(matrix[pos[a]][pos[b]]))
    raise DescriptorError(f"unknown poset kind {kind!r}")


def _check_directed_order(els: list, leq: np.ndarray) -> None:
    """Reflexive, antisymmetric, transitive, and every pair has an upper bound."""
    step = leq.astype(int)
    bad = np.argwhere(~np.diag(leq))
    if bad.size:
        i = int(bad[0, 0])
        raise DescriptorError(f"poset.leq[{i}][{i}]: {els[i]!r} <= {els[i]!r} must hold")
    bad = np.argwhere(leq & leq.T & ~np.eye(len(els), dtype=bool))
    if bad.size:
        i, j = map(int, bad[0])
        raise DescriptorError(f"poset.leq[{i}][{j}]: {els[i]!r} <= {els[j]!r} and back, "
                              "but they are distinct elements")
    bad = np.argwhere((step @ step > 0) & ~leq)
    if bad.size:
        i, k = map(int, bad[0])
        j = int(np.argmax(leq[i] & leq[:, k]))
        raise DescriptorError(f"poset.leq[{i}][{k}]: {els[i]!r} <= {els[j]!r} <= "
                              f"{els[k]!r} needs {els[i]!r} <= {els[k]!r}")
    bad = np.argwhere(step @ step.T == 0)
    if bad.size:
        i, j = map(int, bad[0])
        raise DescriptorError(f"poset.leq[{i}], poset.leq[{j}]: {els[i]!r} and "
                              f"{els[j]!r} have no common upper bound")


# ---------------------------------------------------------------------------
# maps


def map_from_entry(entry: dict, role: str, dims: Dict[Any, int],
                   key: Callable) -> tuple:
    """-> (domain index, codomain index, DifferentiableMap)."""
    kind = entry.get("kind")
    if kind not in MAP_KINDS:
        raise DescriptorError(f"unknown map kind {kind!r}")
    src = decode_index(entry["from"])
    dst = decode_index(entry["to"])
    payload = entry.get("payload", {})
    if kind == "matrix":
        arr = np.asarray(payload["rows"], dtype=float)
        if arr.ndim != 2:
            # empty matrices round-trip through JSON as flat lists
            arr = arr.reshape(dims[key(dst)], dims[key(src)])
        mp = matrix_map(arr)
    elif kind == "truncation":
        indices = [int(i) for i in payload["indices"]]
        if role == "proj":
            mp = selection_map(dims[key(src)], indices)
        else:
            mp = scatter_map(dims[key(dst)], indices)
    elif kind == "pl-interpolation":
        from .gallery import pl_weights
        mp = matrix_map(pl_weights(payload["targets"], payload["knots"]))
    else:
        raise DescriptorError("named-gallery maps resolve at the family level")
    return src, dst, mp


def family_from_descriptor(doc: dict) -> ProfiniteFamily:
    """Build a family from a parsed descriptor dictionary."""
    if doc.get("schema_version") not in (None, SCHEMA_VERSION):
        raise DescriptorError(f"unsupported schema_version {doc.get('schema_version')!r}")

    entries = list(doc.get("projections", [])) + list(doc.get("injections", []))
    named = [e for e in entries if e.get("kind") == "named-gallery"]
    if named:
        from .gallery import build_gallery
        payload = named[0].get("payload", {})
        g = build_gallery(payload["family"], **payload.get("kwargs", {}))
        return g.family

    poset = poset_from_descriptor(doc["poset"])
    dims = {}
    for lv in doc["levels"]:
        dims[poset.key(decode_index(lv["index"]))] = int(lv["dim"])

    def level_dim(J):
        try:
            return dims[poset.key(J)]
        except KeyError:
            raise DescriptorError(f"no declared dimension for level {J!r}") from None

    proj_store, inj_store, stored_pairs = {}, {}, []
    for entry in doc.get("projections", []):
        src, dst, mp = map_from_entry(entry, "proj", dims, poset.key)
        # projection goes from the finer level down: src >= dst
        proj_store[(poset.key(dst), poset.key(src))] = mp
        stored_pairs.append((dst, src))
    for entry in doc.get("injections", []):
        src, dst, mp = map_from_entry(entry, "inj", dims, poset.key)
        inj_store[(poset.key(src), poset.key(dst))] = mp

    return ProfiniteFamily(
        poset, level_dim,
        proj_factory=lambda J, K: proj_store.get((poset.key(J), poset.key(K))),
        inj_factory=lambda K, J: inj_store.get((poset.key(J), poset.key(K))),
        stored_pairs=stored_pairs,
        name=doc.get("name", "descriptor"))


def family_to_descriptor(family: ProfiniteFamily,
                         pairs: Optional[Iterable[tuple]] = None,
                         name: Optional[str] = None) -> dict:
    """Export with explicit matrices on the given comparable pairs (defaults
    to the family's stored pairs, else all adjacent comparable pairs)."""
    poset = family.poset
    if poset.elements is None:
        raise DescriptorError("oracle-indexed families have no finite descriptor")
    if pairs is None:
        if family.stored_pairs is not None:
            pairs = family.stored_pairs
        else:
            els = poset.sort(poset.elements)
            pairs = [(a, b) for a in els for b in els
                     if poset.lt(a, b) and not any(
                         poset.lt(a, c) and poset.lt(c, b) for c in els)]
    projections, injections = [], []
    for J, K in pairs:
        pr, ij = family.proj(J, K), family.inj(K, J)
        if not (pr.is_linear and ij.is_linear):
            raise DescriptorError(f"pair ({J!r}, {K!r}) is not linear; "
                                  "export needs explicit matrices")
        projections.append({"from": encode_index(K), "to": encode_index(J),
                            "kind": "matrix", "payload": {"rows": pr.matrix.tolist()}})
        injections.append({"from": encode_index(J), "to": encode_index(K),
                           "kind": "matrix", "payload": {"rows": ij.matrix.tolist()}})
    levels = [{"index": encode_index(J), "dim": family.dim(J)}
              for J in poset.sort(poset.elements)]
    return {"schema_version": SCHEMA_VERSION,
            "name": name if name is not None else (family.name or "family"),
            "poset": poset_to_descriptor(poset),
            "levels": levels,
            "projections": projections,
            "injections": injections}


def gallery_reference_descriptor(name: str, kwargs: Optional[dict] = None) -> dict:
    """A descriptor that defers every map to a named gallery builder."""
    from .gallery import build_gallery
    g = build_gallery(name, **(kwargs or {}))
    fam = g.family
    levels = [{"index": encode_index(J), "dim": fam.dim(J)}
              for J in fam.poset.sort(fam.poset.elements)]
    ref = {"kind": "named-gallery", "from": None, "to": None,
           "payload": {"family": name, "kwargs": kwargs or {}}}
    return {"schema_version": SCHEMA_VERSION, "name": name,
            "poset": poset_to_descriptor(fam.poset), "levels": levels,
            "projections": [ref], "injections": [ref]}


def load_family(path) -> ProfiniteFamily:
    with open(path, "r") as fh:
        return family_from_descriptor(json.load(fh))


def dump_family(family: ProfiniteFamily, path,
                pairs: Optional[Iterable[tuple]] = None) -> None:
    doc = family_to_descriptor(family, pairs=pairs)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# threads and section points


def thread_from_descriptor(gallery_or_family, doc: dict) -> Thread:
    """Thread descriptors: {"kind": "sequence"|"named"|"section-point", ...}.

    sequence: prefix values on a truncation chain (works for any family
    whose level n holds the first dim(n) entries of a master sequence).
    named: a thread shipped in a gallery family's extras.
    section-point: {"section": [...], "values": [[index, [floats]], ...]},
    extended to a thread through the family's injections.
    """
    from .gallery import GalleryFamily

    g = gallery_or_family if isinstance(gallery_or_family, GalleryFamily) else None
    family = g.family if g is not None else gallery_or_family
    kind = doc.get("kind")
    if kind == "named":
        if g is None:
            raise DescriptorError("named threads need a gallery family")
        obj = g.extras.get(doc["name"])
        if not isinstance(obj, Thread):
            raise DescriptorError(f"{doc['name']!r} is not a thread of {g.name!r}")
        return obj
    if kind == "sequence":
        seq = np.asarray(doc["values"], dtype=float)

        def fn(n):
            d = family.dim(n)
            if d > seq.size:
                raise DescriptorError(
                    f"sequence of length {seq.size} too short for level {n!r}")
            return seq[:d]

        return Thread(family, fn, name=doc.get("name", "sequence"))
    if kind == "section-point":
        values = {decode_index(idx): np.asarray(v, dtype=float)
                  for idx, v in doc["values"]}
        sp = SectionPoint.of(family, [decode_index(i) for i in doc["section"]],
                             values)
        return thread_from_section(sp, check=False)
    raise DescriptorError(f"unknown thread kind {kind!r}")


# ---------------------------------------------------------------------------
# forms


def form_from_descriptor(family_or_gallery, doc: dict) -> TameForm:
    """{"kind": "named-gallery", "family": ..., "extra": ...} or
    {"kind": "expressions", "degree": r, "levels": [{"index", "comps"}]}
    with comps a nested list of mini-language expressions, shape (dim,)*r."""
    from .gallery import GalleryFamily, build_gallery, gallery_key

    kind = doc.get("kind")
    if kind == "named-gallery":
        g, name = family_or_gallery, doc.get("family")
        if not isinstance(g, GalleryFamily) or gallery_key(name or g.name) != g.name:
            if name is None:
                raise DescriptorError("a named-gallery form needs a 'family' or a gallery")
            g = build_gallery(name, **doc.get("kwargs", {}))
        obj = g.extras.get(doc.get("extra", "omega"))
        if not isinstance(obj, TameForm):
            raise DescriptorError(f"{doc.get('extra')!r} is not a form of {g.name!r}")
        return obj
    if kind != "expressions":
        raise DescriptorError(f"unknown form kind {kind!r}")

    family = (family_or_gallery.family
              if hasattr(family_or_gallery, "family") and
              not isinstance(family_or_gallery, ProfiniteFamily)
              else family_or_gallery)
    degree = int(doc["degree"])
    compiled: dict = {}
    for lv in doc["levels"]:
        J = decode_index(lv["index"])
        dim = family.dim(J)
        arr = np.asarray(lv["comps"], dtype=object)
        if arr.shape != (dim,) * degree:
            raise DescriptorError(
                f"components at {J!r} have shape {arr.shape}, "
                f"expected {(dim,) * degree}")
        fns = np.empty(arr.shape, dtype=object)
        for idx in np.ndindex(arr.shape):
            fns[idx] = compile_scalar(dim, str(arr[idx]))[0]
        compiled[family.poset.key(J)] = (dim, fns)

    def comps(J, x):
        try:
            dim, fns = compiled[family.poset.key(J)]
        except KeyError:
            raise ExpressionError(f"no components declared at level {J!r}") from None
        out = np.zeros(fns.shape)
        for idx in np.ndindex(fns.shape):
            out[idx] = fns[idx](x)
        return out

    return TameForm(family, degree, comps, name=doc.get("name", "expr-form"))


# ---------------------------------------------------------------------------
# measures


def load_measure_csv(path) -> IndexMeasure:
    """CSV rows `index,weight`; an optional `tail,<mass>` row bounds the
    mass of unlisted indices."""
    weights, tail = {}, 0.0
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 2:
                raise DescriptorError(f"measure rows are `index,weight`: {row!r}")
            head = row[0].strip()
            if head == "index":
                continue
            if head == "tail":
                tail = float(row[1])
                continue
            weights[parse_index_token(head)] = float(row[1])
    return IndexMeasure(weights, tail_mass=tail)

"""JSON descriptors for posets, families, threads, and forms, plus the
measure CSV reader.

A family descriptor is {"schema_version", "name", "poset", "levels":
[{"index", "dim"}], "projections": [{"from", "to", "kind", "payload"}],
"injections": [...]} with map kinds matrix, truncation, pl-interpolation,
and named-gallery.  Set-valued indices are encoded as {"set": [...]}.

The loaders raise DescriptorError for any malformed document, with the path
of the offending field (`levels[0].dim: missing field`); a malformed
expression raises ExpressionError.
"""
from __future__ import annotations

import csv
import json
import math
from typing import Any, Callable, Optional

import numpy as np

from .calculus import TameForm, symbolic_form
from .expr import ExpressionError, parse_expressions, parse_index_token
from .family import ProfiniteFamily
from .gallery import GalleryFamily, build_gallery, gallery_key, knot_pool, pl_weights
from .limits import IllDefinedSection, SectionPoint, Thread, thread_from_section
from .maps import (DimensionMismatch, compose, fanout_map, identity_map, matrix_map,
                   scatter_map, selection_map)
from .poset import (ComparableMembers, EmptySection, IndexPoset, chain_poset, finite_poset,
                    section_defect, subset_poset)
from .profmetric import IndexMeasure

SCHEMA_VERSION = 1

MAP_KINDS = ("matrix", "truncation", "pl-interpolation", "named-gallery")


class DescriptorError(ValueError):
    """Malformed descriptor content."""


def _field(obj, key: str, path: str, convert: Optional[Callable] = None,
           default: Any = ...):
    """obj[key] of a JSON object, passed through convert, or default when the
    key is absent.  A missing field without a default, or a value convert
    refuses with TypeError or ValueError, is a DescriptorError at path.key."""
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise DescriptorError(f"{path or 'descriptor'}: expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is ...:
            raise DescriptorError(f"{where}: missing field")
        return default
    try:
        return obj[key] if convert is None else convert(obj[key])
    except (TypeError, ValueError, OverflowError) as err:  # DescriptorError included
        msg = str(err)
        raise DescriptorError(msg if msg.startswith(where) else f"{where}: {msg}") from None


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _each(convert: Callable, value, path: str) -> list:
    """convert applied to every entry of a JSON list; a refusal names path[i]."""
    out = []
    for i, entry in enumerate(_list(value)):
        try:
            out.append(convert(entry))
        except (TypeError, ValueError) as err:
            raise DescriptorError(f"{path}[{i}]: {err}") from None
    return out


def _finite_atom(value):
    """A number or string of an index, refused when it is a NaN or an infinity."""
    if isinstance(value, float) and not math.isfinite(value):
        raise DescriptorError(f"{value!r} is not a finite number")
    return value


def _finite(values):
    """values (a list of floats or an array), refused unless every entry is finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{np.asarray(values)[~np.isfinite(values)][0]} is not a finite number")
    return values


def _floats(value) -> list:
    return _finite([float(v) for v in _list(value)])


def _dimension(value) -> int:
    """A dimension or a degree: a JSON integer, never truncated or parsed."""
    dim = _integer(value)
    if dim < 0:
        raise ValueError(f"a dimension cannot be negative, got {dim}")
    return dim


def encode_index(J) -> Any:
    if isinstance(J, frozenset):
        try:
            return {"set": sorted(J)}
        except TypeError:  # members that do not sort, which decode_index refuses too
            raise DescriptorError(f"index {J!r}: its members do not sort") from None
    if isinstance(J, (int, float, str)):
        return J
    raise DescriptorError(f"index {J!r} has no JSON encoding")


def decode_index(obj) -> Any:
    """A finite number or a string, or {"set": [...]} of them for a frozenset."""
    is_set = isinstance(obj, dict) and set(obj) == {"set"} and isinstance(obj["set"], list)
    members = obj["set"] if is_set else [obj]
    if not all(isinstance(m, (int, float, str)) for m in members):
        raise DescriptorError(f"bad index {obj!r}: expected a number, a string "
                              'or {"set": [...]} of them')
    if len({isinstance(m, str) for m in members}) > 1:
        raise DescriptorError(f"bad index {obj!r}: a set mixes numbers and strings")
    return frozenset(map(_finite_atom, members)) if is_set else _finite_atom(obj)


# ---------------------------------------------------------------------------
# posets


def poset_to_descriptor(poset: IndexPoset) -> dict:
    els = list(poset.elements)
    if els and all(isinstance(e, frozenset) for e in els) and _is_subset_poset(poset):
        return {"kind": "subsets", "pool": sorted(set().union(*els))}
    if all(isinstance(e, int) for e in els):
        chain = all(poset.leq(a, b) == (a <= b)
                    for a in els for b in els)
        if chain:
            return {"kind": "chain", "elements": sorted(els)}
    matrix = [[bool(poset.leq(a, b)) for b in els] for a in els]
    return {"kind": "finite", "elements": [encode_index(e) for e in els],
            "leq": matrix}


def _is_subset_poset(poset: IndexPoset) -> bool:
    """The poset is subset_poset of its elements' union: the same elements in
    the same order, each with the same down-set."""
    try:
        ref = subset_poset(frozenset().union(*poset.elements))
    except TypeError:  # a pool that does not sort
        return False
    return ref.elements == tuple(poset.elements) and all(
        np.array_equal(poset.down(i), ref.down(i)) for i in range(len(ref.elements)))


def poset_from_descriptor(doc: dict) -> IndexPoset:
    kind = _field(doc, "kind", "poset")
    if kind == "chain":
        return _field(doc, "elements", "poset",
                      lambda v: chain_poset(_distinct(_each(_integer, v, "poset.elements"))))
    if kind == "subsets":
        return _field(doc, "pool", "poset",
                      lambda v: subset_poset(_each(_finite_atom, v, "poset.pool")))
    if kind == "finite":
        els = _field(doc, "elements", "poset",
                     lambda v: _sortable(_each(decode_index, v, "poset.elements")))
        leq = _field(doc, "leq", "poset", _leq_table)
        if leq.shape != (len(els), len(els)):
            raise DescriptorError(f"poset.leq: shape {leq.shape} does not match "
                                  f"{len(els)} elements")
        _distinct(els)
        _check_directed_order(els, leq)
        pos = {e: i for i, e in enumerate(els)}
        return finite_poset(els, leq=lambda a, b: bool(leq[pos[a], pos[b]]))
    raise DescriptorError(f"poset.kind: unknown poset kind {kind!r}")


def _leq_table(value) -> np.ndarray:
    """poset.leq as a boolean array; each cell is true, false, 0 or 1."""
    return np.array([_each(_truth, row, f"poset.leq[{i}]")
                     for i, row in enumerate(_list(value))], dtype=bool)


def _truth(value) -> bool:
    """A leq cell: a JSON boolean, 0 or 1 ("x", 1.5 or null is not one)."""
    if type(value) is bool or (type(value) is int and value in (0, 1)):
        return bool(value)
    raise ValueError(f"{value!r} is not true, false, 0 or 1")


def _integer(value) -> int:
    """A chain element or a dimension: a JSON integer (a bool, 2.0 or "1" is not one)."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _sortable(els: list) -> list:
    """The elements, refused unless the canonical index order sorts them."""
    try:
        sorted(els, key=IndexPoset.key)
    except TypeError:
        raise ValueError(f"{els!r} have no common order: numbers, strings and "
                         "sets of either do not mix") from None
    return els


def _distinct(els: list) -> list:
    twice = next((i for i, e in enumerate(els) if e in els[:i]), None)
    if twice is not None:
        raise DescriptorError(f"poset.elements[{twice}]: {els[twice]!r} is listed twice")
    return els


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


def map_from_entry(entry: dict, role: str, level_dim: Callable[[Any], int],
                   path: str = "map") -> tuple:
    """-> (domain index, codomain index, DifferentiableMap); the map must
    take the declared dimension of its domain to that of its codomain."""
    kind = _field(entry, "kind", path)
    if kind not in MAP_KINDS:
        raise DescriptorError(f"{path}.kind: unknown map kind {kind!r}")
    if kind == "named-gallery":
        raise DescriptorError(f"{path}: named-gallery maps resolve at the family level")
    src = _field(entry, "from", path, decode_index)
    dst = _field(entry, "to", path, decode_index)
    try:
        n_src, n_dst = level_dim(src), level_dim(dst)
    except DescriptorError as err:
        raise DescriptorError(f"{path}: {err}") from None
    payload = _field(entry, "payload", path, default={})
    where = f"{path}.payload"
    if kind == "matrix":
        rows = _field(payload, "rows", where, lambda v: _finite(np.asarray(_list(v), dtype=float)))
        if rows.ndim == 1 and rows.size == n_dst * n_src:
            # empty matrices round-trip through JSON as flat lists
            rows = rows.reshape(n_dst, n_src)
        if rows.ndim != 2:
            raise DescriptorError(f"{where}.rows: expected a list of rows")
        mp = matrix_map(rows)
    elif kind == "truncation":
        full = n_src if role == "proj" else n_dst
        indices = _field(payload, "indices", where, lambda v: _each(_integer, v, f"{where}.indices"))
        if not all(0 <= i < full for i in indices):
            raise DescriptorError(f"{where}.indices: {indices} are not coordinates of R^{full}")
        mp = selection_map(full, indices) if role == "proj" else scatter_map(full, indices)
    else:
        knots = _field(payload, "knots", where, lambda v: knot_pool(_floats(v)))
        mp = matrix_map(_field(payload, "targets", where,
                               lambda v: pl_weights(_floats(v), knots)))
    if (mp.domain_dim, mp.codomain_dim) != (n_src, n_dst):
        raise DescriptorError(f"{path}: declared {n_src}->{n_dst}, map has "
                              f"{mp.domain_dim}->{mp.codomain_dim}")
    return src, dst, mp


def _named_gallery(doc: dict, path: str):
    """The gallery family that doc["family"] names, built with doc["kwargs"]."""
    name, kwargs = _field(doc, "family", path, str), _field(doc, "kwargs", path, default={})
    try:
        return build_gallery(name, **kwargs)
    except (KeyError, TypeError, ValueError) as err:  # an unknown name, bad kwargs
        raise DescriptorError(f"{path}: {err.args[0]}") from None


def family_from_descriptor(doc: dict) -> ProfiniteFamily:
    """Build a family from a parsed descriptor dictionary."""
    version = _field(doc, "schema_version", "", default=None)
    if version not in (None, SCHEMA_VERSION):
        raise DescriptorError(f"schema_version: unsupported {version!r}")
    entries = {"projections": _field(doc, "projections", "", _list, default=[]),
               "injections": _field(doc, "injections", "", _list, default=[])}
    refs = [(f"{name}[{i}]", e) for name, es in entries.items() for i, e in enumerate(es)]
    named = [e for _, e in refs if isinstance(e, dict) and e.get("kind") == "named-gallery"]
    if named:  # every map is that one reference; a declared poset or levels is the gallery's
        payload = named[0].get("payload", {})
        for path, e in refs:
            if (_field(e, "kind", path), _field(e, "payload", path, default={})) != (
                    "named-gallery", payload):
                raise DescriptorError(f"{path}: not the family's one named-gallery reference")
        fam = _named_gallery(payload, "named-gallery payload").family
        for key, own in (("poset", poset_to_descriptor(fam.poset)), ("levels", _levels(fam))):
            if json.dumps(doc.get(key, own), sort_keys=True) != json.dumps(own, sort_keys=True):
                raise DescriptorError(f"{key}: does not describe gallery {payload['family']!r}")
        return fam

    poset = poset_from_descriptor(_field(doc, "poset", ""))
    members = set(poset.elements)
    dims = {}
    for i, lv in enumerate(_field(doc, "levels", "", _list)):
        J = _field(lv, "index", f"levels[{i}]", decode_index)
        if J not in members:
            raise DescriptorError(f"levels[{i}].index: {J!r} is not an element of the poset")
        dims[J] = _field(lv, "dim", f"levels[{i}]", _dimension)
    undeclared = next((J for J in poset.elements if J not in dims), None)
    if undeclared is not None:  # the family's vector layout needs every dimension
        raise DescriptorError(f"levels: no entry declares the dimension of level {undeclared!r}")

    def level_dim(J):
        if J not in dims:
            raise DescriptorError(f"no declared dimension for level {J!r}")
        return dims[J]

    # maps keyed by (lower, upper); projections go down, injections up
    stores = {"projections": {}, "injections": {}}
    for role, name in (("proj", "projections"), ("inj", "injections")):
        for i, entry in enumerate(entries[name]):
            src, dst, mp = map_from_entry(entry, role, level_dim, f"{name}[{i}]")
            lo, hi = (dst, src) if role == "proj" else (src, dst)
            if not poset.leq(lo, hi):
                raise DescriptorError(f"{name}[{i}]: {src!r} -> {dst!r} runs against the order")
            stores[name][(lo, hi)] = mp
    links = list(stores["projections"])  # the pairs a chain may step along
    lonely = [pair for pair in links if pair not in stores["injections"]]
    if lonely:
        raise DescriptorError(f"injections: none from {lonely[0][0]!r} to {lonely[0][1]!r}, "
                              "where a projection is stored")
    family_name = doc.get("name", "descriptor")

    def chain_between(J, K) -> list:
        """K = c0 > c1 > ... > J through stored pairs, found breadth-first."""
        frontier, seen = [[K]], {K}
        while frontier:
            path = frontier.pop(0)
            for lo, hi in links:
                if hi == path[-1] and poset.leq(J, lo):
                    if lo == J:
                        return path + [lo]
                    if lo not in seen:
                        seen.add(lo)
                        frontier.append(path + [lo])
        raise DescriptorError(
            f"projections: stored pairs do not connect {J!r} to {K!r} "
            f"in {family_name or 'the family'}")

    def transport(src, dst):
        """The stored map from src to dst, else the stored maps composed
        along chain_between: projections from src down, injections up."""
        if src == dst:
            return identity_map(level_dim(src))
        down = poset.leq(dst, src)
        store = stores["projections" if down else "injections"]
        pair = (dst, src) if down else (src, dst)
        if pair in store:
            return store[pair]
        chain = chain_between(*pair)
        if not down:
            chain = chain[::-1]
        mp = identity_map(level_dim(src))
        for a, b in zip(chain[:-1], chain[1:]):
            mp = compose(store[(b, a) if down else (a, b)], mp)
        return mp

    return ProfiniteFamily(poset, level_dim,
                           lambda src, levels: fanout_map([transport(src, I) for I in levels]),
                           name=family_name)


def family_to_descriptor(family: ProfiniteFamily, name: Optional[str] = None) -> dict:
    """Export with explicit matrices on the poset's covers (J < K with no
    level strictly between), for every family: a loaded family that stored
    a non-cover pair exports only the covers, which its loader composes
    back."""
    poset = family.poset
    poset_doc = poset_to_descriptor(poset)  # first: it refuses an index with no encoding
    els = poset.sort(poset.elements)
    pairs = [(a, b) for a in els for b in els
             if poset.lt(a, b) and not any(poset.lt(a, c) and poset.lt(c, b) for c in els)]
    projections, injections = [], []
    for J, K in pairs:
        pr, ij = family.proj(J, K), family.inj(K, J)
        if not (pr.is_linear and ij.is_linear):
            raise DescriptorError(f"pair ({J!r}, {K!r}) is not linear; "
                                  "export needs explicit matrices")
        if not (np.isfinite(pr.matrix).all() and np.isfinite(ij.matrix).all()):
            raise DescriptorError(f"pair ({J!r}, {K!r}) has a non-finite matrix entry; "
                                  "export writes strict JSON")
        projections.append({"from": encode_index(K), "to": encode_index(J),
                            "kind": "matrix", "payload": {"rows": pr.matrix.tolist()}})
        injections.append({"from": encode_index(J), "to": encode_index(K),
                           "kind": "matrix", "payload": {"rows": ij.matrix.tolist()}})
    return {"schema_version": SCHEMA_VERSION,
            "name": name if name is not None else (family.name or "family"),
            "poset": poset_doc,
            "levels": _levels(family),
            "projections": projections,
            "injections": injections}


def gallery_reference_descriptor(name: str, kwargs: Optional[dict] = None) -> dict:
    """A descriptor that defers every map to a named gallery builder."""
    fam = build_gallery(name, **(kwargs or {})).family
    ref = {"kind": "named-gallery", "from": None, "to": None,
           "payload": {"family": name, "kwargs": kwargs or {}}}
    return {"schema_version": SCHEMA_VERSION, "name": name,
            "poset": poset_to_descriptor(fam.poset), "levels": _levels(fam),
            "projections": [ref], "injections": [ref]}


def _levels(family: ProfiniteFamily) -> list:
    """The descriptor's "levels" list: every level in the poset's order."""
    return [{"index": encode_index(J), "dim": family.dim(J)}
            for J in family.poset.sort(family.poset.elements)]


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def read_json(text: str):
    """Strict JSON: the NaN, Infinity and -Infinity tokens that Python's
    reader accepts raise a ValueError naming the token."""
    return json.loads(text, parse_constant=_refuse_constant)


def write_json(doc) -> str:
    """Strict JSON text with sorted keys, indented by 2 and ending in a
    newline; a NaN or an infinity is a ValueError."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def load_family(path) -> ProfiniteFamily:
    """The family of a descriptor file, read as strict JSON."""
    with open(path, "r") as fh:
        return family_from_descriptor(read_json(fh.read()))


def dump_family(family: ProfiniteFamily, path) -> None:
    """Write the family's descriptor; a family that does not export leaves no file."""
    text = write_json(family_to_descriptor(family))
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# threads and section points


def _level_of(family: ProfiniteFamily, J, path: str):
    """The poset's own element that J names.  J must equal it atom by atom,
    each atom of the element's own type, except that an integer may name a
    whole float (JSON may write 1.0 as 1): true or 1.0 does not name level 1."""
    poset = family.poset
    i = poset.position.get(J)
    own = None if i is None else poset.elements[i]
    if isinstance(own, frozenset):
        match = {e: e for e in own}
        pairs = [(a, match[a]) for a in J]
    else:
        pairs = [(J, own)]
    if own is None or not all(type(a) is type(e) or (type(a) is int and type(e) is float)
                              for a, e in pairs):
        raise DescriptorError(f"{path}: {J!r} is not a level of {family.name or 'the family'}")
    return own


def _member_values(family: ProfiniteFamily, section: list, value) -> dict:
    """thread.values as {member: value}: each key names a member of the
    section, as `_level_of` reads it, and no member twice."""
    out = {}
    for i, (index, x) in enumerate(_list(value)):
        where = f"thread.values[{i}]"
        J = _level_of(family, decode_index(index), where)
        if J not in section:
            raise DescriptorError(f"{where}: {J!r} is not a member of thread.section")
        if J in out:
            raise DescriptorError(f"{where}: a second value for member {J!r}")
        out[J] = np.asarray(_floats(x), dtype=float)
    return out


def thread_from_descriptor(gallery_or_family, doc: dict) -> Thread:
    """Thread descriptors: {"kind": "sequence"|"named"|"section-point", ...}.

    sequence: prefix values on a truncation chain (works for any family
    whose level n holds the first dim(n) entries of a master sequence).
    named: a thread shipped in a gallery family's extras.
    section-point: {"section": [...], "values": [[index, [floats]], ...]},
    extended to a thread through the family's projections and injections;
    the section must be a section (an antichain that reaches every level)
    and the members must agree wherever they meet.
    """
    g = gallery_or_family if isinstance(gallery_or_family, GalleryFamily) else None
    family = g.family if g is not None else gallery_or_family
    kind = _field(doc, "kind", "thread")
    if kind == "named":
        if g is None:
            raise DescriptorError("thread: named threads need a gallery family")
        name = _field(doc, "name", "thread", str)
        obj = g.extras.get(name)
        if not isinstance(obj, Thread):
            raise DescriptorError(f"thread.name: {name!r} is not a thread of {g.name!r}")
        return obj
    if kind == "sequence":
        seq = np.asarray(_field(doc, "values", "thread", _floats), dtype=float)

        def fn(n):
            d = family.dim(n)
            if d > seq.size:
                raise DescriptorError(
                    f"sequence of length {seq.size} too short for level {n!r}")
            return seq[:d]

        return Thread(family, fn, name=_field(doc, "name", "thread", str, default="sequence"))
    if kind == "section-point":
        section = _field(doc, "section", "thread", lambda v: [
            _level_of(family, J, "thread.section")
            for J in _each(decode_index, v, "thread.section")])
        values = _field(doc, "values", "thread", lambda v: _member_values(family, section, v))
        try:
            sp = SectionPoint.of(family, section, values)
        except ComparableMembers as err:
            raise DescriptorError(f"thread.section: not a section: {err}") from None
        except (EmptySection, IllDefinedSection, DimensionMismatch) as err:
            raise DescriptorError(f"thread: {err}") from None
        defect = section_defect(family.poset, sp.section)
        if defect is not None:
            raise DescriptorError(f"thread.section: not a section: {defect}")
        try:
            return thread_from_section(sp)
        except IllDefinedSection as err:
            raise DescriptorError(f"thread.values: {err}") from None
    raise DescriptorError(f"thread.kind: unknown thread kind {kind!r}")


# ---------------------------------------------------------------------------
# forms


def form_from_descriptor(family_or_gallery, doc: dict) -> TameForm:
    """{"kind": "named-gallery", "family": ..., "extra": ...} or
    {"kind": "expressions", "degree": r, "levels": [{"index", "comps"}]}
    with comps a nested list of mini-language expressions, shape (dim,)*r."""
    kind = _field(doc, "kind", "form")
    if kind == "named-gallery":
        g, name = family_or_gallery, _field(doc, "family", "form", str, default=None)
        if not isinstance(g, GalleryFamily) or gallery_key(name or g.name) != g.name:
            g = _named_gallery(doc, "form")  # without a family: "form.family: missing field"
        extra = _field(doc, "extra", "form", str, default="omega")
        obj = g.extras.get(extra)
        if not isinstance(obj, TameForm):
            raise DescriptorError(f"form.extra: {extra!r} is not a form of {g.name!r}")
        return obj
    if kind != "expressions":
        raise DescriptorError(f"form.kind: unknown form kind {kind!r}")

    family = getattr(family_or_gallery, "family", family_or_gallery)
    degree = _field(doc, "degree", "form", _dimension)
    parsed: dict = {}
    for i, lv in enumerate(_field(doc, "levels", "form", _list)):
        where = f"form.levels[{i}]"
        J = _level_of(family, _field(lv, "index", where, decode_index), f"{where}.index")
        dim = family.dim(J)
        arr = _field(lv, "comps", where, lambda v: np.asarray(v, dtype=object))
        if arr.shape != (dim,) * degree:
            raise DescriptorError(
                f"{where}.comps: components at {J!r} have shape {arr.shape}, "
                f"expected {(dim,) * degree}")
        trees = parse_expressions(dim, [str(e) for e in arr.flat])
        parsed[J] = np.fromiter(trees, dtype=object, count=arr.size).reshape(arr.shape)

    def level_comps(J):
        if J not in parsed:
            raise ExpressionError(f"no components declared at level {J!r}")
        return parsed[J]

    return symbolic_form(family, degree, level_comps,
                         name=_field(doc, "name", "form", str, default="expr-form"))


# ---------------------------------------------------------------------------
# measures


def load_measure_csv(path) -> IndexMeasure:
    """CSV rows `index,weight`; an optional `tail,<mass>` row bounds the
    mass of unlisted indices; a second row for an index or the tail is refused."""
    weights = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 2:
                raise DescriptorError(f"measure rows are `index,weight`: {row!r}")
            head = row[0].strip()
            if head == "index":
                continue
            try:
                value = float(row[1])
            except ValueError:
                raise DescriptorError(f"{path} line {reader.line_num}: weight {row[1]!r} "
                                      "is not a number") from None
            if not 0.0 <= value < np.inf:  # NaN included
                raise DescriptorError(f"{path} line {reader.line_num}: weight {row[1]!r} "
                                      "is not a finite number >= 0")
            J = parse_index_token(head)  # "tail" stays the string "tail"
            if J in weights:
                raise DescriptorError(f"{path} line {reader.line_num}: a second row for {J!r}")
            weights[J] = value
    tail = weights.pop("tail", 0.0)
    return IndexMeasure(weights, tail_mass=tail)

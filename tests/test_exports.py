"""Export hygiene: every name `proflim` exports has a user outside its own
module, or is listed below as deliberate API with the reason it stays."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "proflim"
MAX_EXPORTS = 155

# exported without a user in src/, benchmarks/, the README or the gate
DELIBERATE_API = {
    "is_directed": "checks that the join oracle bounds every sampled pair",
    "is_section": "the finitely-cylindrical certificate: an antichain covering the poset",
    "AxiomCheck": "the type of each check in a VerificationReport",
    "FibrationData": "the input type of verify_fibration",
    "compose_profinite_maps": "composition in the category of profinite maps",
    "cotangent_maps": "the dual tower of a family's tangent maps",
    "verify_fibration": "audits a fibration of towers (bundle projections)",
    "alternating_sum": "the coordinate formula of the exterior derivative",
    "check_tangent_thread": "audits a tangent thread against the pushforwards",
    "Trajectory": "the return type of flow",
    "ZeroVector": "raised by is_weakly_nondegenerate",
    "level_rank": "the rank of a form's matrix at one level",
    "brownian_sample": "draws Brownian values at given times",
    "pl_path": "the piecewise-linear path through values at knots, from (0, 0)",
    "sequence_thread": "the thread of a master sequence on a coordinate tower",
    "MAP_KINDS": "the map kinds a family descriptor accepts",
    "decode_index": "the JSON decoding of an index, inverse of encode_index",
    "encode_index": "the JSON encoding of an index, inverse of decode_index",
    "map_from_entry": "loads one map entry of a family descriptor",
    "poset_from_descriptor": "loads a poset descriptor, inverse of poset_to_descriptor",
    "poset_to_descriptor": "writes a poset descriptor, inverse of poset_from_descriptor",
}


def _exports():
    """(module, name) for each name __init__ imports from a submodule."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.asname or alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def _python_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _readme_names() -> set:
    """Identifiers inside the README's code blocks and inline code spans."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```", text, re.S) + re.findall(r"`[^`\n]+`", text)
    return set(re.findall(r"\w+", " ".join(code)))


def _users() -> dict:
    """Where each name is used: per src module, plus the outside users."""
    shared = set(_readme_names()) | _python_names(ROOT / "tests" / "test_acceptance.py")
    for path in (ROOT / "benchmarks").glob("*.py"):
        shared |= _python_names(path)
    per_module = {p.stem: _python_names(p) for p in SRC.glob("*.py")
                  if p.name != "__init__.py"}
    return shared, per_module


def test_every_export_has_a_user_or_a_reason():
    shared, per_module = _users()
    unused = sorted(name for module, name in _exports()
                    if name not in DELIBERATE_API and name not in shared
                    and not any(name in names for mod, names in per_module.items()
                                if mod != module))
    assert not unused, f"exported without a user or a DELIBERATE_API reason: {unused}"


def test_deliberate_api_lists_only_exports_without_users():
    shared, per_module = _users()
    home = {name: module for module, name in _exports()}
    used = sorted(name for name in DELIBERATE_API
                  if name not in home or name in shared
                  or any(name in names for mod, names in per_module.items()
                         if mod != home[name]))
    assert not used, f"DELIBERATE_API names that are not exports without users: {used}"


def test_export_count_within_budget():
    exports = _exports()
    # the submodules __init__ imports from are exported names too
    count = len({name for _, name in exports} | {module for module, _ in exports})
    assert count <= MAX_EXPORTS, f"proflim exports {count} names, budget {MAX_EXPORTS}"

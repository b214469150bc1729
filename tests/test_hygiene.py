"""Source hygiene: src/ stays within its line budget, every name a library
module imports is used there, no module is imported inside a function,
max |a - b| is computed by maps.residual alone, only limits.py touches a
thread's storage, only expr.py compiles or evaluates code, descriptors.py
compiles through symbolic_form, every pullback goes through
calculus.pull_components and takes an audit's samples as one stack, only
symplectic.py calls numpy's LAPACK solve gufunc, through its _solve, and the
pairwise audits report through family.audit_pairs."""
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "proflim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# `wc -l src/proflim/*.py`; a change that grows src/ raises it and says why
MAX_SRC_LINES = 4500


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        # a quoted annotation names its types inside a string
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_max_abs_gaps_go_through_residual():
    by_hand = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
               if path.name != "maps.py"  # residual itself
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if "np.max(np.abs(" in line]
    assert not by_hand, f"max |.| computed by hand at {by_hand}; use maps.residual"


def _modules(node):
    """The modules an import statement loads ("" for `from . import x`)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""]


def test_no_function_level_imports():
    """Every module is imported at the top of its module: numpy is the one
    runtime dependency, and nothing loads late."""
    late = [f"{path.name}:{node.lineno} {_modules(node)}" for path in MODULES
            for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not late, f"function-level imports at {late}"


THREAD_STORAGE = {"_vec", "_held", "_read"}  # a Thread's vector, held mask and read-only view


def test_only_limits_touches_a_threads_storage():
    """A thread's vector and held mask are read and written in limits.py
    alone; every other module reads a thread through its methods, so the
    layout stays behind the family and limits."""
    touches = [f"{path.name}:{node.lineno}" for path in MODULES if path.name != "limits.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in THREAD_STORAGE]
    assert not touches, f"a thread's storage is touched outside limits.py at {touches}"


def _naming(path, names):
    """path:line of each name, attribute or imported alias in `names`."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.alias) and node.name in names)]


def test_only_expr_names_compile_eval_or_exec():
    """Compiled code runs through expr.evaluator, which compiles the code it
    generates from parsed trees once and evaluates on Python floats with
    numpy's values; a compile, eval or exec anywhere else would run code by
    another rule, or run user text."""
    named = [at for path in MODULES if path.name != "expr.py"
             for at in _naming(path, {"compile", "eval", "exec"})]
    assert not named, f"compile, eval or exec is named outside expr.py at {named}"


def test_descriptors_compile_expressions_only_through_symbolic_form():
    """A loaded expression form is a calculus.symbolic_form: descriptors.py
    parses its entries and compiles nothing itself, so the form has one
    evaluator per level and exact partials."""
    named = _naming(SRC / "descriptors.py", {"compile_scalar", "evaluator",
                                             "cylindrical_from_expression"})
    assert not named, f"descriptors.py compiles an expression at {named}"


PULLBACKS = {"pull_components", "pullback_inj", "pushforward_proj"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _per_item_pullbacks(tree):
    """Pullback calls that run once per item of a loop: in a comprehension's
    element, or in a `for` body with the loop variable among their arguments
    (a loop over levels that pulls back each level's stack is not one)."""
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            bodies, items = [getattr(loop, "elt", loop)], None
        elif isinstance(loop, (ast.For, ast.AsyncFor)):
            bodies, items = loop.body, _names(loop.target)
        else:
            continue
        yield from (call for body in bodies for call in ast.walk(body)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", getattr(call.func, "attr", None)) in PULLBACKS
                    and (items is None or items & set().union(*map(_names, call.args))))


def test_pullbacks_go_through_pull_components():
    """A form's pullback along a Jacobian is calculus.pull_components; a
    `jac.T @ M @ jac` written out in calculus.py or symplectic.py would be a
    second implementation of it, rounding its own way.  Each audit pulls its
    samples back as one stack: a pullback run once per sample there, in a
    comprehension or a `for` over the samples, takes them one at a time."""
    by_hand, per_sample = [], []
    for name in ("calculus.py", "symplectic.py"):
        text = (SRC / name).read_text()
        by_hand += [f"{name}:{n}" for n, line in enumerate(text.splitlines(), 1)
                    if re.search(r"\.T\s*@.*@", line)]
        per_sample += sorted({f"{name}:{call.lineno}"
                              for call in _per_item_pullbacks(ast.parse(text))})
    assert not by_hand, f"a pullback is written out by hand at {by_hand}"
    assert not per_sample, f"a pullback runs once per sample at {per_sample}"


def test_only_symplectic_names_the_lapack_gufunc():
    """symplectic._solve calls numpy.linalg._umath_linalg under np.linalg.solve's
    error state; a second caller of the private module, or an np.linalg.solve
    left in symplectic.py, would be a second rule for the same solve."""
    named = [at for path in MODULES if path.name != "symplectic.py"
             for at in _naming(path, {"_umath_linalg"})]
    assert not named, f"_umath_linalg is named outside symplectic.py at {named}"
    tree = ast.parse((SRC / "symplectic.py").read_text())
    wrapped = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "solve"
               and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    assert not wrapped, f"symplectic.py calls np.linalg.solve at lines {wrapped}"


# the pairwise audits, by module: each keeps its draw and residual in a
# local `gaps` and hands them to family.audit_pairs
PAIR_AUDITS = {"calculus.py": {"check_tame", "check_tangent_thread"},
               "family.py": {"verify_fibration", "check_profinite_map"},
               "limits.py": {"check_thread"},
               "profmetric.py": {"injection_isometry_check"},
               "symplectic.py": {"hamiltonian_compat_check", "check_action_compat"}}


def _called(func):
    """The names and attributes that func's body calls."""
    return {getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(func) if isinstance(node, ast.Call)}


def test_pairwise_audits_report_only_through_audit_pairs():
    """The walk over pairs with J < K, the witness names and the report of
    each pairwise audit are family.audit_pairs'; an audit that builds its
    own VerificationReport or calls add_worst walks the pairs a second way."""
    found, by_hand = set(), []
    for name, audits in PAIR_AUDITS.items():
        for func in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(func, ast.FunctionDef) and func.name in audits:
                found.add(func.name)
                calls = _called(func)
                if "audit_pairs" not in calls or calls & {"VerificationReport", "add_worst"}:
                    by_hand.append(f"{name}:{func.name}")
    assert found == set().union(*PAIR_AUDITS.values())
    assert not by_hand, f"pairwise audits that report by hand: {by_hand}"


def test_src_line_budget():
    """src/ may shrink but not grow past its budget unnoticed."""
    count = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert count <= MAX_SRC_LINES, f"src/proflim has {count} lines, budget {MAX_SRC_LINES}"

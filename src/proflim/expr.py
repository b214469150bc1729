"""A small arithmetic expression language for functions on level coordinates.

Grammar: numbers, + - * / ** and parentheses, the functions sin, cos, tan,
exp, log, sqrt, tanh, abs and sqr, the constant pi, local coordinates x0,
x1, ..., and cross-level references
"level:<index>:<coord>" resolved against a member antichain.  With its
references resolved, a text is a Python expression that `ast` parses,
through a node whitelist, into a tree: a float, a name "x<k>", or a tuple
(op, *args).  `derivative` differentiates trees, and `evaluator` compiles
them into code over numpy's functions that gives numpy's values, on Python
floats where it can; no user text is evaluated.
"""
from __future__ import annotations

import ast
import functools
import math
import re
import sys
from typing import Sequence

import numpy as np

from .cylinder import CylindricalFunction
from .family import ProfiniteFamily
from .maps import DifferentiableMap, ScalarMap
from .poset import Section


class ExpressionError(ValueError):
    """Malformed or disallowed expression text."""


_REF = re.compile(r"level:([^:\s()+\-*/,]+):([0-9]+)")
_FUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
          "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.absolute, "sign": np.sign}
_GRAMMAR = set(_FUNCS) - {"sign"} | {"sqr"}  # sign is abs', not a grammar name
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
_AST_OP = {op: kind for kind, op in _BINARY.items()}
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "**": np.power,
        **_FUNCS}
# the deepest tree a text may parse to: a Hessian's tree nests up to four
# times deeper, and differentiating and compiling it recurse once per level
_MAX_DEPTH = 100


def parse_index_token(token: str):
    """An index token in a reference or a measure row: the integer it spells
    when it is ASCII decimal digits, `-?[0-9]+`, else the token itself."""
    return int(token) if re.fullmatch(r"-?[0-9]+", token) else token


def _integer(tree) -> bool:
    return isinstance(tree, float) and tree.is_integer()


def _factors(tree) -> list:
    """The factors of a product, in order; [tree] for anything else."""
    return (_factors(tree[1]) + _factors(tree[2]) if isinstance(tree, tuple) and tree[0] == "*"
            else [tree])


def node(op: str, *args):
    """The tree of `op` on `args`: constants fold in float64 as numpy computes
    them; 0/u, u+0, u-0, 0-u, u**0 and u**1 simplify; a product's constant
    factors fold into one in front (none for 1, 0 for 0) and the powers of
    each base add up, u*u being u**2; u/c is (1/c)*u."""
    if all(isinstance(a, float) for a in args):
        with np.errstate(all="ignore"):
            return float(_OPS[op](*args))
    a, b = args[0], args[-1]
    if op == "*":  # c * u1**p1 * u2**p2 * ..., left to right, each base u once
        c, powers = 1.0, {}
        for f in _factors(a) + _factors(b):
            if isinstance(f, float):
                c = node("*", c, f)
            else:
                u, p = (f[1], f[2]) if f[0] == "**" and isinstance(f[2], float) else (f, 1.0)
                powers[u] = node("+", powers.get(u, 0.0), p)
        factors = ([] if c == 1 else [c]) + [f for u, p in powers.items()
                                             if (f := node("**", u, p)) != 1.0]
        return 0.0 if c == 0 else functools.reduce(lambda u, v: ("*", u, v), factors or [1.0])
    if op == "/" and (isinstance(b, float) or a == 0):
        return 0.0 if a == 0 else node("*", node("/", 1.0, b), a)
    if op in ("+", "-") and (a == 0 or b == 0):
        return a if b == 0 else b if op == "+" else node("*", -1.0, b)
    if op == "**" and (b == 0 or b == 1):
        return 1.0 if b == 0 else a
    return (op, *args)


def _non_finite(tree) -> bool:
    return (not math.isfinite(tree) if isinstance(tree, float)
            else isinstance(tree, tuple) and any(map(_non_finite, tree[1:])))


def parse_expressions(dim: int, texts: Sequence[str]) -> list:
    """One tree per text over local coordinates x0..x{dim-1}; ExpressionError
    when a text does not parse, nests too deeply, leaves the grammar, names an
    unknown coordinate or function, folds to a non-finite constant (each such
    subexpression named as written) or holds a level reference."""
    return [_parse(dim, text) for text in texts]


def _parse(dim: int, text: str):
    if _REF.search(text):
        raise ExpressionError("level references need a member antichain; "
                              "use cylindrical_from_expression")
    source, bad, too_deep = text.strip(), [], f"cannot parse {text!r}: nested too deeply"

    def build(n, depth):
        if depth > _MAX_DEPTH:
            raise ExpressionError(too_deep)
        children = ([n.left, n.right] if isinstance(n, ast.BinOp) else [n.operand]
                    if isinstance(n, ast.UnaryOp) else n.args if isinstance(n, ast.Call) else [])
        args, kind = [build(c, depth + 1) for c in children], type(getattr(n, "op", n))
        if isinstance(n, ast.Constant) and type(n.value) in (int, float):
            tree = math.inf if abs(n.value) > sys.float_info.max else float(n.value)
        elif isinstance(n, ast.Constant):
            raise ExpressionError(f"complex constant in {text!r}: {n.value!r}"
                                  if type(n.value) is complex
                                  else f"{text!r} is not a numeric expression")
        elif isinstance(n, ast.Name):
            tree = math.pi if n.id == "pi" else n.id
        elif kind in _BINARY or kind in (ast.UAdd, ast.USub):
            tree = node(_BINARY[kind], *args) if kind in _BINARY else node(
                "*", 1.0 if kind is ast.UAdd else -1.0, *args)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and len(args) == 1 \
                and not n.keywords:
            tree = node("**", *args, 2.0) if n.func.id == "sqr" else node(n.func.id, *args)
        else:
            raise ExpressionError(f"{kind.__name__} is not in the grammar: "
                                  f"{ast.get_source_segment(source, n)!r} in {text!r}")
        if _non_finite(tree) and not any(map(_non_finite, args)):
            bad.append(ast.get_source_segment(source, n))
        return tree

    try:
        root = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError) as err:  # ValueError: a null character
        raise ExpressionError(f"cannot parse {text!r}: {getattr(err, 'msg', err)}") from None
    except (RecursionError, MemoryError):  # the parser's own nesting limits
        raise ExpressionError(too_deep) from None
    calls = [n.func for n in ast.walk(root) if isinstance(n, ast.Call)]
    names = {n.id for n in ast.walk(root) if isinstance(n, ast.Name) and n not in calls}
    for what, unknown in (("names", names - {"pi", *(f"x{k}" for k in range(dim))}),
                          ("functions", {f.id for f in calls if isinstance(f, ast.Name)}
                           - _GRAMMAR)):
        if unknown:
            raise ExpressionError(f"unknown {what} in {text!r}: {sorted(unknown)}")
    tree = build(root, 0)
    if bad:
        raise ExpressionError(f"non-finite constants in {text!r}: {sorted(set(bad))}")
    return tree


def derivative(tree, index: Sequence[int]):
    """The partial derivative of `tree` by the coordinates in `index`, taken
    in sorted order and memoised, so mixed partials taken in either order are
    one tree.  abs differentiates to sign and sign to 0, the smooth part."""
    index = tuple(sorted(index))
    return _partial(derivative(tree, index[:-1]), index[-1]) if index else tree


@functools.cache
def _partial(tree, i: int):
    if not isinstance(tree, tuple):
        return float(tree == f"x{i}")
    op, a, *b = tree
    da = _partial(a, i)
    if not b:  # f(a): f'(a) * da
        return node("*", {
            "sin": lambda: node("cos", a), "cos": lambda: node("*", -1.0, node("sin", a)),
            "tan": lambda: node("+", 1.0, node("**", tree, 2.0)), "exp": lambda: tree,
            "log": lambda: node("/", 1.0, a), "sqrt": lambda: node("/", 0.5, tree),
            "tanh": lambda: node("-", 1.0, node("**", tree, 2.0)),
            "abs": lambda: node("sign", a), "sign": lambda: 0.0}[op](), da)
    b, db = b[0], _partial(b[0], i)
    if op in ("+", "-"):
        return node(op, da, db)
    if op == "*":
        return node("+", node("*", da, b), node("*", a, db))
    if op == "/":
        return node("-", node("/", da, b), node("/", node("*", a, db), node("**", b, 2.0)))
    if op == "**" and isinstance(b, float):
        return node("*", node("*", b, node("**", a, b - 1.0)), da)
    return node("*", tree, node("+", node("*", db, node("log", a)),
                                node("/", node("*", b, da), a)))


def _walk(trees) -> tuple:
    """(shared, fractional): the ids of the nodes reached more than once, each
    walked once by identity, and whether some power's exponent is not an integer."""
    seen, shared, todo, fractional = set(), set(), list(trees), False
    while todo:
        tree = todo.pop()
        if id(tree) in seen:  # seen holds the ids of live tuples only
            shared.add(id(tree))
        elif isinstance(tree, tuple):
            seen.add(id(tree))
            fractional |= tree[0] == "**" and not _integer(tree[2])
            todo.extend(tree[1:])
    return shared, fractional


def _compile(dim: int, trees: list, shared: set):
    """`lambda x0, ..., x{dim-1}: [tree, ...]` over numpy's functions, compiled once
    from its syntax tree: each tree grouped as it is, so it rounds as it does, an integer
    exponent an int literal, a node in `shared` a local assigned where first evaluated."""
    named: dict = {}

    def python(tree) -> ast.expr:
        if id(tree) in named:
            return ast.Name(named[id(tree)], ast.Load())
        if not isinstance(tree, tuple):
            return ast.Name(tree, ast.Load()) if isinstance(tree, str) else ast.Constant(tree)
        op, args = tree[0], [ast.Constant(int(a)) if k and tree[0] == "**" and _integer(a)
                             else python(a) for k, a in enumerate(tree[1:])]
        expr = (ast.BinOp(args[0], _AST_OP[op](), args[1]) if args[1:]
                else ast.Call(ast.Name(op, ast.Load()), args, []))
        if id(tree) not in shared:
            return expr
        named[id(tree)] = f"_{len(named)}"
        return ast.NamedExpr(ast.Name(named[id(tree)], ast.Store()), expr)

    code = ast.parse(f"lambda {', '.join(f'x{k}' for k in range(dim))}: []", mode="eval")
    code.body.body.elts = [python(t) for t in trees]
    return eval(compile(ast.fix_missing_locations(code), "<expression>", "eval"), dict(_FUNCS))


def evaluator(dim: int, trees: list) -> tuple:
    """`trees`, in coordinates x0..x{dim-1}, compiled once into two functions
    to the list of their values, each bit for bit numpy's: `on_floats` takes
    the coordinates as a list of Python floats (or one float array per
    coordinate, for a batch), and `at` takes a point as an array or sequence.

    Python's float + - * / and ** round as numpy's float64 scalars do, at a
    fraction of the cost, but raise (ZeroDivisionError, OverflowError) where
    numpy returns inf or nan: such a call runs again on numpy scalars.
    Python's ** returns a complex where numpy returns nan (a negative base, a
    non-integer exponent), which abs could turn into a plausible real, so code
    with a power whose exponent is not an integer constant runs on numpy
    scalars throughout.
    """
    shared, fractional = _walk(trees)
    code = _compile(dim, trees, shared)
    if fractional:
        def on_numpy(xs):
            return code(*np.asarray(xs, dtype=float))
        return on_numpy, on_numpy

    def on_floats(xs):
        try:
            return code(*xs)
        except ArithmeticError:
            return code(*np.array(xs, dtype=float))
    return on_floats, lambda x: on_floats(np.asarray(x, dtype=float).tolist())


def compile_scalar(dim: int, text: str) -> tuple:
    """(fn, grad, batch) for an expression in local coordinates x0..x{dim-1}:
    fn is the value at one point, grad an R^dim -> R^dim map whose Jacobian,
    the Hessian, is compiled on its first request, and batch the n values at
    the rows of an (n, dim) array in one call.  The value, the gradient and
    the Hessian are each one `evaluator`, so they compute on Python floats
    where the rule allows and give numpy's values; `grad.on_floats` is the
    gradient's list evaluator, for callers that hold the point as a list of
    Python floats."""
    (tree,) = parse_expressions(dim, [text])
    value, value_at = evaluator(dim, [tree])
    gradient, gradient_at = evaluator(dim, [derivative(tree, [i]) for i in range(dim)])

    def fn(x: np.ndarray) -> float:
        return float(value_at(x)[0])

    def batch(X: np.ndarray) -> np.ndarray:  # a constant expression gives one scalar
        return np.full(X.shape[:1], value(X.T)[0], dtype=float)

    @functools.cache
    def hessian_at():
        return evaluator(dim, [derivative(tree, [i, j]) for i in range(dim) for j in range(dim)])[1]

    grad = DifferentiableMap(dim, dim, fn=lambda x: np.array(gradient_at(x), dtype=float),
                             jac=lambda x: hessian_at()(x), name=f"grad {text}")
    grad.on_floats = gradient
    return fn, grad, batch


def cylindrical_from_expression(family: ProfiniteFamily, members: Sequence,
                                text: str, name: str = "") -> CylindricalFunction:
    """Compile an expression over a member antichain into a cylindrical
    function with an analytic differential.

    Local names x0, x1, ... address the gathered member coordinates in
    order; "level:J:c" addresses coordinate c of member level J.
    """
    section = Section.of(family.poset, members)
    offsets, total = {}, 0
    for m in section:
        offsets[m] = total
        total += family.dim(m)

    def replace(match: re.Match) -> str:
        idx = parse_index_token(match.group(1))
        coord = int(match.group(2))
        for m in section:
            if m == idx:
                if coord >= family.dim(m):
                    raise ExpressionError(
                        f"coordinate {coord} out of range at level {m!r}")
                return f"x{offsets[m] + coord}"
        raise ExpressionError(f"level {idx!r} is not a member of the antichain")

    resolved = _REF.sub(replace, text)
    fn, grad, batch = compile_scalar(total, resolved)
    base = ScalarMap(grad, lambda x: np.array([fn(x)]), name=name or text, batch=batch)
    return CylindricalFunction(family, section, base, name=name or text)

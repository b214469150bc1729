"""A small arithmetic expression language for functions on level coordinates.

Grammar: numbers, + - * / ** and parentheses, the functions sin, cos, tan,
exp, log, sqrt, tanh, abs and sqr, the constant pi, local coordinates x0,
x1, ..., and cross-level references
"level:<index>:<coord>" resolved against a member antichain.  Expressions
compile through sympy, so gradients are analytic; sympy is imported on the
first compile, not with the package.  Compiled code runs on Python floats,
whose arithmetic rounds as numpy's float64 scalars do; where Python would
raise, numpy's inf or nan is taken instead, and code with a non-integer
power runs on numpy scalars throughout (see `evaluator`).
"""
from __future__ import annotations

import functools
import re
from typing import Sequence

import numpy as np

from .cylinder import CylindricalFunction
from .family import ProfiniteFamily
from .maps import DifferentiableMap, ScalarMap
from .poset import Section


class ExpressionError(ValueError):
    """Malformed or disallowed expression text."""


_REF = re.compile(r"level:([^:\s()+\-*/,]+):([0-9]+)")
_ALLOWED = re.compile(r"^[A-Za-z0-9_+\-*/().,:\s]*$")


def parse_index_token(token: str):
    """An index token in a reference or a measure row: the integer it spells
    when it is ASCII decimal digits, `-?[0-9]+`, else the token itself."""
    return int(token) if re.fullmatch(r"-?[0-9]+", token) else token


def _guard(text: str) -> None:
    if not _ALLOWED.match(text):
        raise ExpressionError(f"disallowed characters in {text!r}")
    if "__" in text:
        raise ExpressionError("double underscores are not allowed")


def evaluator(syms: Sequence, exprs: list) -> tuple:
    """`exprs`, sympy expressions in `syms`, compiled once into two functions
    to the list of their values, each bit for bit numpy's: `on_floats` takes
    the coordinates as a list of Python floats (or one float array per
    coordinate, for a batch), and `at` takes a point as an array or sequence.

    Python's float + - * / and ** round as numpy's float64 scalars do, at a
    fraction of the cost, but raise (ZeroDivisionError, OverflowError) where
    numpy returns inf or nan: such a call runs again on numpy scalars.
    Python's ** returns a complex where numpy returns nan (a negative base, a
    non-integer exponent), which abs could turn into a plausible real, so code
    with a power whose exponent is not an integer literal, or with an
    imaginary constant, runs on numpy scalars throughout.
    """
    import sympy
    try:
        code = sympy.lambdify(syms, exprs, modules=[np])
    except ValueError as err:  # the printer refuses, e.g. an unevaluated Derivative
        bad = next((e for e in exprs if e.has(sympy.Derivative)), exprs[0])
        raise ExpressionError(f"cannot compile {bad}: {err}") from None
    if any(e.has(sympy.I) or not all(p.exp.is_Integer for p in e.atoms(sympy.Pow))
           for e in exprs):
        def on_numpy(xs):
            return code(*np.asarray(xs, dtype=float))
        return on_numpy, on_numpy

    def on_floats(xs):
        try:
            return code(*xs)
        except ArithmeticError:
            return code(*np.array(xs, dtype=float))
    return on_floats, lambda x: on_floats(np.asarray(x, dtype=float).tolist())


def parse_expressions(dim: int, texts: Sequence[str]) -> tuple:
    """(symbols, expressions): each text over local coordinates x0..x{dim-1}
    as a sympy expression in real symbols; ExpressionError when a text is
    malformed, disallowed or holds a level reference."""
    import sympy
    from sympy.core.function import AppliedUndef
    # real symbols keep derivatives of abs/sqrt printable for lambdify
    syms = sympy.symbols(f"x0:{dim}", real=True)
    local = {
        "sin": sympy.sin, "cos": sympy.cos, "tan": sympy.tan,
        "exp": sympy.exp, "log": sympy.log, "sqrt": sympy.sqrt,
        "tanh": sympy.tanh, "abs": sympy.Abs,
        "sqr": lambda u: u ** 2,
        "pi": sympy.pi,
        **{str(s): s for s in syms},
    }
    exprs = []
    for text in texts:
        _guard(text)
        if _REF.search(text):
            raise ExpressionError("level references need a member antichain; "
                                  "use cylindrical_from_expression")
        try:
            expr = sympy.sympify(text, locals=local, convert_xor=False)
        except (sympy.SympifyError, SyntaxError, TypeError) as err:
            raise ExpressionError(f"cannot parse {text!r}: {err}") from err
        if not isinstance(expr, sympy.Expr):  # "None", "True": Python and logic constants
            raise ExpressionError(f"{text!r} is not a numeric expression")
        unknown = sorted(str(s) for s in expr.free_symbols - set(syms))
        if unknown:
            raise ExpressionError(f"unknown names in {text!r}: {unknown}")
        undef = {type(f).__name__ for f in expr.atoms(AppliedUndef)}
        if undef:
            raise ExpressionError(f"unknown functions in {text!r}: {sorted(undef)}")
        # 1/0 and log(0) parse to zoo, 0/0 to nan; none is a number to compute with
        non_finite = {str(a) for a in expr.atoms()
                      if a in (sympy.nan, sympy.zoo, sympy.oo, -sympy.oo)}
        if non_finite:
            raise ExpressionError(f"non-finite constants in {text!r}: {sorted(non_finite)}")
        exprs.append(expr)
    return syms, exprs


def compile_scalar(dim: int, text: str) -> tuple:
    """(fn, grad, batch) for an expression in local coordinates x0..x{dim-1}:
    fn is the value at one point, grad an R^dim -> R^dim map whose Jacobian,
    the Hessian, is compiled on its first request, and batch the n values at
    the rows of an (n, dim) array in one call.  The value, the gradient and
    the Hessian are each one `evaluator`, so they compute on Python floats
    where the rule allows and give numpy's values; `grad.on_floats` is the
    gradient's list evaluator, for callers that hold the point as a list of
    Python floats."""
    import sympy
    syms, (expr,) = parse_expressions(dim, [text])
    grads = [sympy.diff(expr, s) for s in syms]
    value, value_at = evaluator(syms, [expr])
    gradient, gradient_at = evaluator(syms, grads)

    def fn(x: np.ndarray) -> float:
        return float(value_at(x)[0])

    def batch(X: np.ndarray) -> np.ndarray:  # a constant expression gives one scalar
        return np.full(X.shape[:1], value(X.T)[0], dtype=float)

    @functools.cache
    def hessian_at():  # abs leaves a DiracDelta at its kink; keep the smooth part
        try:
            return evaluator(syms, [sympy.diff(d, s).replace(sympy.DiracDelta, lambda *_: 0)
                                    for d in grads for s in syms])[1]
        except ExpressionError as err:
            raise ExpressionError(f"Hessian of {text!r}: {err}") from None

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
    _guard(text)
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

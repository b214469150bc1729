import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

import proflim as pl
import proflim.expr as expr_module
from proflim.expr import compile_scalar, derivative, parse_expressions, parse_index_token


def fd_grad(fn, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (fn(xp) - fn(xm)) / (2 * h)
    return out


def test_arithmetic_and_value():
    fn, grad, _ = compile_scalar(2, "x0*x1 + 2")
    assert fn(np.array([3.0, 4.0])) == 14.0
    assert np.array_equal(grad(np.array([3.0, 4.0])), [4.0, 3.0])


def test_functions_and_constants():
    fn, _, _ = compile_scalar(1, "sqr(x0) + pi")
    assert fn(np.array([2.0])) == pytest.approx(4.0 + math.pi)
    fn2, _, _ = compile_scalar(1, "exp(log(x0))")
    assert fn2(np.array([5.0])) == pytest.approx(5.0)
    fn3, _, _ = compile_scalar(2, "tanh(x0) * sqrt(x1) - abs(x0)")
    x = np.array([0.4, 9.0])
    assert fn3(x) == pytest.approx(math.tanh(0.4) * 3.0 - 0.4)


def test_analytic_gradient_matches_fd(rng):
    fn, grad, _ = compile_scalar(3, "sin(x0)*x1 + exp(x2/3) - x0*x2")
    for _ in range(10):
        x = rng.standard_normal(3)
        assert np.max(np.abs(grad(x) - fd_grad(fn, x))) < 1e-6


@pytest.mark.parametrize("dim, text, signed", [
    (2, "x0*x1 + 2", True),
    (1, "sqr(x0) + pi", True),
    (1, "exp(log(x0))", False),
    (2, "tanh(x0) * sqrt(x1) - abs(x0)", True),
    (3, "sin(x0)*x1 + exp(x2/3) - x0*x2", True),
])
def test_analytic_hessian_matches_fd(rng, dim, text, signed):
    # signed: x0 may be negative (away from the kink of abs)
    _, grad, _ = compile_scalar(dim, text)
    for _ in range(10):
        x = rng.uniform(0.2, 2.0, dim)
        if signed:
            x[0] *= rng.choice([-1.0, 1.0])
        assert np.max(np.abs(grad.jacobian(x) - grad.fd_jacobian(x))) < 1e-5


def test_guard_rejections():
    with pytest.raises(pl.ExpressionError):
        compile_scalar(1, "__class__")
    with pytest.raises(pl.ExpressionError):
        compile_scalar(1, "x0 @ x0")
    with pytest.raises(pl.ExpressionError):
        compile_scalar(1, "mystery(x0)")
    with pytest.raises(pl.ExpressionError):
        compile_scalar(2, "x5 + 1")  # out of range for dim 2
    with pytest.raises(pl.ExpressionError):
        compile_scalar(1, "x0 +* 2")
    with pytest.raises(pl.ExpressionError):
        compile_scalar(2, "level:2:0 + x0")  # refs need an antichain


@pytest.mark.parametrize("text", ["None", "True"])
def test_non_numeric_expressions_are_expression_errors(text):
    with pytest.raises(pl.ExpressionError, match="not a numeric expression"):
        compile_scalar(1, text)


@pytest.mark.parametrize("text, constant", [
    ("1/0 + sqr(x0)", "1/0"), ("log(0)", "log(0)"), ("0*x0/0", "0*x0/0"),
    ("x0/0", "x0/0"), ("1e400 - x0", "1e400"), ("exp(10**3) + x0", "exp(10**3)"),
])
def test_non_finite_constants_are_expression_errors(text, constant):
    # each offending subexpression is named as written
    with pytest.raises(pl.ExpressionError,
                       match=rf"^non-finite constants in .*: \['{re.escape(constant)}'\]$"):
        compile_scalar(1, text)


OUTSIDE_THE_GRAMMAR = [
    ("nan", r"unknown names in 'nan': \['nan'\]"),
    ("oo", r"unknown names in 'oo': \['oo'\]"),
    ("x0 - oo", r"unknown names in 'x0 - oo': \['oo'\]"),
    ("sign(x0)", r"unknown functions in 'sign\(x0\)': \['sign'\]"),
    ("1j + x0", r"complex constant in '1j \+ x0': 1j"),
    ("x0 @ x0", r"MatMult is not in the grammar: 'x0 @ x0' in 'x0 @ x0'"),
    ("sin(x0, x0)", r"Call is not in the grammar: 'sin\(x0, x0\)'"),
]


@pytest.mark.parametrize("text, message", OUTSIDE_THE_GRAMMAR,
                         ids=[text for text, _ in OUTSIDE_THE_GRAMMAR])
def test_text_outside_the_grammar_is_an_expression_error_naming_it(text, message):
    # nan and oo are not grammar names; sign is the derivative of abs, not a grammar function
    with pytest.raises(pl.ExpressionError, match=f"^{message}"):
        compile_scalar(1, text)


def test_a_text_nested_too_deeply_or_holding_a_null_character_is_refused():
    # a tree deeper than 100 levels is refused before its Hessian, up to about
    # four times deeper, is differentiated and compiled; 100 levels compile
    for text in ["x0" + " + x0" * 101, "-" * 101 + "x0", "sin(" * 150 + "x0" + ")" * 150,
                 "-" * 20000 + "x0"]:
        with pytest.raises(pl.ExpressionError, match=r"^cannot parse .*: nested too deeply$"):
            compile_scalar(1, text)
    fn, grad, _ = compile_scalar(1, "x0" + " + x0" * 100)
    assert fn(np.array([1.0])) == grad(np.array([1.0]))[0] == 101.0
    with pytest.raises(pl.ExpressionError, match=r"^cannot parse 'x0\\x00': .*null"):
        compile_scalar(1, "x0\x00")


def test_parse_index_token():
    assert parse_index_token("3") == 3
    assert parse_index_token("J") == "J"


@pytest.mark.parametrize("token, index", [
    ("10", 10), ("-3", -3), ("007", 7), ("1_0", "1_0"), ("+1", "+1"), (" 1", " 1"),
    ("\u0661", "\u0661"), ("1.0", "1.0"), ("", ""),
])
def test_an_index_token_is_an_integer_only_in_ascii_decimal_digits(token, index):
    """`int` would read "1_0" as 10 and an Arabic-Indic one as 1."""
    got = parse_index_token(token)
    assert got == index and type(got) is type(index)


def test_a_level_reference_with_an_underscore_names_no_integer_level(euclid):
    with pytest.raises(pl.ExpressionError, match=r"level '1_0' is not a member"):
        pl.cylindrical_from_expression(euclid.family, [10], "level:1_0:0")


def test_cylindrical_from_expression(euclid, rng):
    f = pl.cylindrical_from_expression(
        euclid.family, [3], "level:3:1 + sin(level:3:2)")
    t = euclid["sequence_thread"](np.array([0.0, 2.0, 0.5, 0, 0, 0, 0, 0, 0, 0]))
    assert f(t) == pytest.approx(2.0 + math.sin(0.5))
    grad = pl.differential(f, t)
    assert np.allclose(grad, [0.0, 1.0, math.cos(0.5)])


def test_expression_across_antichain(cross):
    f = pl.cylindrical_from_expression(
        cross.family, ["J", "K"], "level:J:0 * level:K:0")
    t = pl.Thread(cross.family, lambda n: {"I": np.zeros(0),
                                           "J": np.array([2.0]),
                                           "K": np.array([3.0]),
                                           "L": np.array([2.0, 3.0])}[n])
    assert f(t) == pytest.approx(6.0)


def test_expression_local_names_address_gathered_coords(euclid):
    # x0.. address the gathered member coordinates directly
    f = pl.cylindrical_from_expression(euclid.family, [2], "x0 - x1")
    t = euclid["sequence_thread"](np.array([5.0, 1.5] + [0.0] * 8))
    assert f(t) == pytest.approx(3.5)


def test_expression_reference_errors(euclid):
    with pytest.raises(pl.ExpressionError):
        pl.cylindrical_from_expression(euclid.family, [3], "level:4:0")
    with pytest.raises(pl.ExpressionError):
        pl.cylindrical_from_expression(euclid.family, [3], "level:3:7")
    with pytest.raises(pl.ExpressionError):
        pl.cylindrical_from_expression(euclid.family, [3], "level:3:0; import os")


EVERY_FUNCTION = ("sin(x0)*cos(x1) + tan(x2) + exp(x0) + log(sqr(x1) + 1)"
                  " + sqrt(sqr(x2) + 1) + tanh(x0) + abs(x1) + pi")


def test_compiling_loads_no_optional_numpy_submodule():
    code = ("import sys\n"
            "import numpy as np\n"
            "from proflim.expr import compile_scalar\n"
            f"fn, grad, batch = compile_scalar(3, {EVERY_FUNCTION!r})\n"
            "x = np.array([0.3, -0.7, 1.1])\n"
            "fn(x), grad(x), grad.jacobian(x), batch(x[None, :])\n"
            "loaded = [m for m in ('numpy.f2py', 'numpy.testing') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# every grammar function, /, and ** with integer and fractional exponents
FALLBACK_CASES = [
    (3, EVERY_FUNCTION),
    (2, "1/x0 + x1/(x0 - 1)"),
    (2, "x0**-3 + x0**-2 + x0**-1 + x1**2 + x1**3 + x1**4 + x1**5"),
    (2, "x0**0.5 + x0**(1/3) + x1**1.5 + x1**2.5"),
    (2, "(sqr(x0) + 1)**0.5 + (sqr(x1) + 1)**(1/3) + (sqr(x0) + 2)**1.5 + exp(x1)**2.5"),
    (2, "exp(x0*x1) + x0**3 - sqrt(x1) * log(x1)"),
]
# where Python raises or goes complex and numpy gives inf or nan: 1/x0 and
# x0**-2 at 0, x0**3 at 1e200, x0**1.5 at -2; then the non-finite points
SPECIAL = [0.0, -0.0, 1e200, -1e200, -2.0, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("dim, text", FALLBACK_CASES,
                         ids=["every-function", "division", "integer-powers",
                              "fractional-powers", "fractional-powers-of-sums",
                              "overflow-and-roots"])
def test_float_evaluation_gives_numpy_scalar_values_bit_for_bit(monkeypatch, dim, text):
    # the value, gradient and Hessian run on Python floats where the rule
    # allows; each must equal its compiled code run on numpy float64 scalars,
    # inf and nan included
    real_compile, code = expr_module._compile, []
    monkeypatch.setattr(expr_module, "_compile",
                        lambda *a: code.append(real_compile(*a)) or code[-1])
    fn, grad, _ = compile_scalar(dim, text)
    grad.jacobian(np.full(dim, 0.5))                 # the Hessian compiles on request
    value, gradient, hessian = code
    rng = np.random.default_rng(17)
    points = [*rng.uniform(-3.0, 3.0, (50, dim))]
    for s in SPECIAL:
        points.append(np.full(dim, s))
        for i in range(dim):
            x = rng.uniform(-3.0, 3.0, dim)
            x[i] = s
            points.append(x)
    with np.errstate(all="ignore"):
        for x in points:
            def numpy_scalars(c):
                return np.asarray(c(*x), dtype=float).tobytes()

            assert np.float64(fn(x)).tobytes() == numpy_scalars(value), x
            assert grad.fn(x).tobytes() == numpy_scalars(gradient), x
            assert np.array(grad.on_floats(x.tolist()), dtype=float).tobytes() == \
                numpy_scalars(gradient), x
            assert grad.jacobian(x).tobytes() == numpy_scalars(hessian), x


def test_where_python_raises_or_goes_complex_the_value_is_numpys_inf_or_nan():
    with np.errstate(all="ignore"):
        assert compile_scalar(1, "1/x0")[0](np.zeros(1)) == math.inf
        assert compile_scalar(1, "x0**-2")[0](np.zeros(1)) == math.inf
        assert compile_scalar(1, "x0**3")[0](np.array([1e200])) == math.inf
        assert math.isnan(compile_scalar(1, "x0**1.5")[0](np.array([-2.0])))
        # Python's (-2.0)**1.5 is a complex, and abs of it a finite real
        fn, grad, _ = compile_scalar(1, "abs(x0**1.5)")
        assert math.isnan(fn(np.array([-2.0])))
        assert np.isnan(grad(np.array([-2.0]))).all()


def test_a_point_may_be_a_list_or_an_int_array():
    # the value, the gradient and the Hessian coerce their point to floats
    # once, as compiled code on Python ints would compute exactly and round
    # otherwise (or overflow in float() outside the fallback)
    for text in ("x0**700 + x0*x1/3", "sqrt(x1) + x0**700"):
        fn, grad, _ = compile_scalar(2, text)
        want = np.array([3.0, 2.0])
        with np.errstate(over="ignore"):
            for x in ([3, 2], (3, 2), np.array([3, 2])):
                assert fn(x) == fn(want) == math.inf
                assert grad.fn(x).tobytes() == grad.fn(want).tobytes()
                assert grad.jacobian(x).tobytes() == grad.jacobian(want).tobytes()


def test_the_hessian_of_abs_of_a_power_is_its_smooth_part():
    # the gradient of abs of a power holds sign(x0**1.5), whose derivative is 0
    fn, grad, _ = compile_scalar(2, "abs(x0**1.5) + sqr(x1)")
    x = np.array([0.5, 1.0])
    assert fn(x) == 0.5 ** 1.5 + 1.0 and grad(x)[1] == 2.0
    assert np.max(np.abs(grad.jacobian(x) - grad.fd_jacobian(x))) < 1e-5


def test_mixed_partials_are_one_tree():
    (tree,) = parse_expressions(3, ["sin(x0*x1) + x1*exp(x2)/x0"])
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert derivative(tree, [i, j]) is derivative(tree, [j, i])
    _, grad, _ = compile_scalar(3, "sin(x0*x1) + x1*exp(x2)/x0")
    H = grad.jacobian(np.array([0.3, -0.7, 1.1]))
    assert np.array_equal(H, H.T)


def test_a_shared_node_is_compiled_once_and_gives_the_same_bits():
    # the Hessian of sin nested n deep shares each inner sin between its
    # terms: written out in full its code grows as n**3; with each shared
    # node named once it grows as the tree's n**2 distinct nodes
    sizes = []
    for n in (10, 20):
        (tree,) = parse_expressions(1, ["sin(" * n + "x0" + ")" * n])
        trees = [derivative(tree, [0, 0])]
        shared, fractional = expr_module._walk(trees)
        assert shared and not fractional
        named, inline = expr_module._compile(1, trees, shared), expr_module._compile(1, trees, set())
        for x in np.linspace(-3.0, 3.0, 13):
            assert np.array(named(x)).tobytes() == np.array(inline(x)).tobytes()
        sizes.append(len(named.__code__.co_code))
    assert sizes[1] < 5 * sizes[0]


def test_benchmark_expressions_share_no_node_in_their_gradients():
    for dim, text in _benchmark_expressions():
        (tree,) = parse_expressions(dim, [text])
        assert expr_module._walk([derivative(tree, [i]) for i in range(dim)]) == (set(), False)


def _benchmark_expressions():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(6, module.SEPARABLE_H), (4, module.NONSEPARABLE_H), (2, module.CYL_EXPR)]


def _sympy_reference(dim, text):
    """Value, gradient and Hessian code of `text` by sympy: sympify in real
    symbols, diff, and lambdify on numpy, with abs'' taken as its smooth part."""
    syms = sympy.symbols(f"x0:{dim}", real=True)
    names = {f: getattr(sympy, f) for f in ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh")}
    expr = sympy.sympify(text, convert_xor=False, locals={
        **names, "abs": sympy.Abs, "sqr": lambda u: u ** 2, "pi": sympy.pi,
        **{str(s): s for s in syms}})
    grad = [sympy.diff(expr, s) for s in syms]
    hess = [sympy.diff(g, s).replace(sympy.DiracDelta, lambda *_: 0) for g in grad for s in syms]
    return [sympy.lambdify(syms, exprs, modules=[np]) for exprs in ([expr], grad, hess)]


@pytest.mark.parametrize("dim, text", FALLBACK_CASES + _benchmark_expressions(),
                         ids=["every-function", "division", "integer-powers",
                              "fractional-powers", "fractional-powers-of-sums",
                              "overflow-and-roots", "separable-h", "nonseparable-h", "cyl-expr"])
def test_values_gradients_and_hessians_match_sympy(dim, text):
    # sympy is the reference the compiler replaced: on seeded points each value
    # agrees to 1e-12 relative, and NaN and inf fall where sympy's fall
    X = np.random.default_rng(23).uniform(-3.0, 3.0, (2000, dim))
    fn, grad, _ = compile_scalar(dim, text)
    with np.errstate(all="ignore"):
        got = [np.array([[fn(x)] for x in X]), np.array([grad.fn(x) for x in X]),
               np.array([grad.jacobian(x).ravel() for x in X])]
        want = [np.stack([np.broadcast_to(np.asarray(v, dtype=float), len(X))
                          for v in code(*X.T)], axis=1)
                for code in _sympy_reference(dim, text)]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(np.isnan(g), np.isnan(w))
        assert np.array_equal(np.isinf(g), np.isinf(w))
        assert np.array_equal(g[np.isinf(w)], w[np.isinf(w)])
        finite = np.isfinite(w)
        assert np.all(np.abs(g[finite] - w[finite]) <= 1e-12 * (1.0 + np.abs(w[finite])))

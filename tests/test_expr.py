import dataclasses
import functools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from geocon.expr import (
    FUNCTIONS,
    _FUNCTIONS,
    Add,
    Const,
    Dual,
    ExprError,
    ExprSyntaxError,
    Mul,
    Pow,
    UnknownIdentifierError,
    Var,
    _ipow,
    add,
    call,
    compile_expression,
    differentiate,
    evaluate,
    free_variables,
    jacobian,
    jet_coefficient,
    jet_seed,
    mul,
    neg,
    parse_expression,
    pow_,
    render,
    sub,
    substitute,
    var,
)
from tests import expr_oracle


def test_parse_linear_combination():
    ast = parse_expression("x1 + 2*x2", variables=["x1", "x2"])
    assert ast == Add(Var("x1"), Mul(Const(2.0), Var("x2")))


def test_parse_power():
    assert parse_expression("x^2") == Pow(Var("x"), 2)


_E, _U = ExprSyntaxError, UnknownIdentifierError
_PARSE_ERRORS = [  # source, error type, message (after "syntax error at column c: "), column
    ("x@", _E, "unexpected character '@'", 2),
    ("1.2.3", _E, "bad number '1.2.3'", 1),
    ("1e400", _E, "number '1e400' overflows a double", 1),
    ("", _E, "expected operand, found 'end of input'", 1),
    ("x*", _E, "expected operand, found 'end of input'", 3),
    ("x1*", _E, "expected operand, found 'end of input'", 4),
    ("(x", _E, "expected ')', found 'end of input'", 3),
    ("(x))", _E, "unexpected ')'", 4),
    ("2 3", _E, "unexpected '3'", 3),
    ("x^2^3", _E, "unexpected '^'", 4),
    ("x^2.5", _E, "exponent must be a constant integer", 3),
    ("x^1e2", _E, "exponent must be a constant integer", 3),
    ("x^y", _E, "expected integer exponent, found 'y'", 3),
    ("x^-", _E, "expected integer exponent, found 'end of input'", 4),
    ("x^(-(2))", _E, "expected integer exponent, found '('", 5),
    ("x^(2", _E, "expected ')', found 'end of input'", 5),
    ("x^101", _E, "expression nested deeper than 100 levels", 2),
    ("tanh(x)", _E, "unknown function 'tanh'", 1),
    ("sin", _E, "function 'sin' needs an argument list", 1),
    ("sin + 1", _E, "function 'sin' needs an argument list", 1),
    ("x + y1", _U, "unknown identifier 'y1' at column 5", 5),
]


@pytest.mark.parametrize("src, kind, message, column", _PARSE_ERRORS, ids=[r[0] or "empty" for r in _PARSE_ERRORS])
def test_parse_error_message_and_column(src, kind, message, column):
    with pytest.raises(ExprError) as err:
        parse_expression(src, variables=["x", "x1"])
    assert type(err.value) is kind
    assert err.value.column == column
    if kind is _E:
        message = f"syntax error at column {column}: {message}"
    assert str(err.value) == message


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expression("x1 + y", variables=["x1"])
    assert err.value.name == "y"


def test_function_name_is_reserved():
    with pytest.raises(ExprSyntaxError):
        parse_expression("sin + 1")
    with pytest.raises(ExprSyntaxError):
        parse_expression("tanh(x)")


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("x^2.5")


def test_precedence():
    # pow binds tighter than unary minus
    ast = parse_expression("-x^2")
    assert evaluate(ast, {"x": 3.0}) == -9.0
    assert evaluate(parse_expression("2 - 3 - 4"), {}) == -5.0
    assert evaluate(parse_expression("12 / 3 / 2"), {}) == 2.0


def test_negative_exponent():
    ast = parse_expression("x^-2")
    assert evaluate(ast, {"x": 2.0}) == 0.25
    assert evaluate(parse_expression("x^(-2)"), {"x": 2.0}) == 0.25


def test_differentiate_power_rule():
    f = parse_expression("x^2")
    assert differentiate(f, "x") == Mul(Const(2.0), Var("x"))


def test_differentiate_independent_variable():
    assert differentiate(parse_expression("y"), "x") == Const(0.0)


def test_differentiate_product_rule_matches_finite_differences():
    f = parse_expression("x*sin(x)")
    df = differentiate(f, "x")
    from geocon.expr import Add, Call, Mul

    assert df == Add(Call("sin", Var("x")), Mul(Var("x"), Call("cos", Var("x"))))
    x0 = 0.7
    h = 1e-6
    fd = (evaluate(f, {"x": x0 + h}) - evaluate(f, {"x": x0 - h})) / (2 * h)
    assert abs(evaluate(df, {"x": x0}) - fd) <= 1e-8


def test_jacobian_differentiates_each_shared_node_once_per_variable(monkeypatch):
    # a level-2 ladder bracket shares subtrees across and within its
    # components; one memo per variable differentiates each distinct node once
    import numpy as np

    from geocon import expr
    from geocon.fields import lie_bracket
    from tests.conftest import random_control_affine

    system = random_control_affine(np.random.default_rng([0, 6]), m=6, k=2)
    bracket = lie_bracket(system.drift, lie_bracket(system.drift, system.inputs[0]))

    def children(e):
        return [getattr(e, f) for f in ("left", "right", "arg", "base") if hasattr(e, f)]

    distinct, stack, sizes = {}, list(bracket.components), {}
    while stack:
        e = stack.pop()
        if not isinstance(e, (Const, Var)) and id(e) not in distinct:
            distinct[id(e)] = e
            stack += children(e)

    def size(e):  # nodes counted with repetition, as a walk without a memo visits them
        if id(e) not in sizes:
            sizes[id(e)] = 1 + sum(map(size, children(e)))
        return sizes[id(e)]

    assert sum(map(size, bracket.components)) > 2 * len(distinct)  # the subtrees are shared

    counts = {}
    plain = expr._derivative

    def counted(e, name, memo):
        if not isinstance(e, (Const, Var)) and id(e) not in memo:
            counts[id(e), name] = counts.get((id(e), name), 0) + 1
        return plain(e, name, memo)

    monkeypatch.setattr(expr, "_derivative", counted)
    rows = jacobian(bracket.components, bracket.variables)
    assert set(counts.values()) == {1}
    assert set(counts) == {(k, v) for k in distinct for v in bracket.variables}
    monkeypatch.undo()
    assert rows == tuple(tuple(differentiate(c, v) for v in bracket.variables) for c in bracket.components)


def test_evaluate_basics():
    assert evaluate(parse_expression("x+y"), {"x": 1.0, "y": 2.0}) == 3.0


def test_evaluate_dual_first_order():
    ast = parse_expression("x^2")
    out = evaluate(ast, {"x": Dual(3.0, 1.0)})
    assert out.re == 9.0
    assert out.du == 6.0


# the derivative part of each function's Dual case, written as that case computes it
DUAL_RULES = {
    "sin": lambda re, du: math.cos(re) * du,
    "cos": lambda re, du: -math.sin(re) * du,
    "exp": lambda re, du: math.exp(re) * du,
    "log": lambda re, du: du / re,
    "sqrt": lambda re, du: du / (2.0 * math.sqrt(re)),
}


def test_the_function_names_are_the_dispatchers_keys():
    assert FUNCTIONS == tuple(_FUNCTIONS) == ("sin", "cos", "exp", "log", "sqrt")


@pytest.mark.parametrize("name", FUNCTIONS)
def test_one_dispatcher_per_function_serves_floats_and_duals(name):
    # a Dual carries no elementary functions of its own: its case lives in the dispatcher
    assert not hasattr(Dual, name)
    fn, exact = _FUNCTIONS[name], getattr(math, name)
    assert fn(0.7) == exact(0.7)
    out = fn(Dual(0.7, -1.5))
    assert (out.re, out.du) == (exact(0.7), DUAL_RULES[name](0.7, -1.5))
    nested = fn(Dual(Dual(0.7, 1.0), 0.0))  # the chain rule recurses through nested carriers
    assert (nested.re.re, nested.re.du) == (exact(0.7), DUAL_RULES[name](0.7, 1.0))


def test_evaluate_division_by_zero():
    ast = parse_expression("1/x")
    with pytest.raises(ZeroDivisionError):
        evaluate(ast, {"x": 0.0})


@pytest.mark.parametrize("src", ["1/x", "y + 2*(1 / x)", "x^-2", "y - (x)^(-3)", "(1/x)^1"])
def test_binary_and_power_faults_raise_zero_division(src):
    # a division by zero and zero raised to a negative power raise what the generated code raises
    with pytest.raises(ZeroDivisionError):
        evaluate(parse_expression(src), {"x": 0.0, "y": 1.0})


def test_evaluate_log_domain():
    with pytest.raises(ValueError):
        evaluate(parse_expression("log(x)"), {"x": -1.0})


def test_unbound_variable_reported():
    with pytest.raises(UnknownIdentifierError):
        evaluate(parse_expression("x + y"), {"x": 1.0})


def test_nested_dual_second_derivative_exact():
    # f(x) = x^3 has f''(x) = 6x
    f = parse_expression("x^3")
    for x0 in (0.5, 1.0, 2.0, -1.3):
        seed = jet_seed(x0, 2)
        out = evaluate(f, {"x": seed})
        assert abs(jet_coefficient(out, 2, 2) - 6.0 * x0) <= 1e-12
        assert abs(jet_coefficient(out, 1, 2) - 3.0 * x0 * x0) <= 1e-12


def test_jet_depth_four():
    f = parse_expression("exp(2*x)")
    out = evaluate(f, {"x": jet_seed(0.3, 4)})
    expect = 16.0 * math.exp(0.6)
    assert abs(jet_coefficient(out, 4, 4) - expect) <= 1e-10 * expect


def test_substitute_controls():
    f = parse_expression("u1*x + u2", variables=["x", "u1", "u2"])
    g = substitute(f, {"u1": 2.0, "u2": 0.0})
    assert g == Mul(Const(2.0), Var("x"))


def test_substitute_returns_untouched_subtrees_as_they_are():
    # a slice shares its drift and input trees with its system
    f = parse_expression("sin(x)*y + u1*x^2", variables=["x", "y", "u1"])
    g = substitute(f, {"u1": 2.0})
    assert g == parse_expression("sin(x)*y + 2*x^2")
    assert g.left is f.left and g.right.right is f.right.right
    assert substitute(f, {"u2": 2.0}) is f


def test_compiled_matches_recursive():
    f = parse_expression("sin(x)*y + x^3/2 - sqrt(y)")
    fn = compile_expression(f, ("x", "y"))
    env = {"x": 0.4, "y": 2.5}
    assert fn([0.4, 2.5]) == evaluate(f, env)


def test_compiled_supports_duals():
    f = parse_expression("x^2 + 2*x")
    fn = compile_expression(f, ("x",))
    out = fn([Dual(3.0, 1.0)])
    assert out.du == 8.0


# --- randomized structural properties -------------------------------------

_VARS = ("x", "y")


def _polynomials(max_depth=6):
    leaves = st.one_of(
        st.sampled_from([var(v) for v in _VARS]),
        st.integers(min_value=-3, max_value=3).map(lambda k: Const(float(k))),
    )

    def level(depth):
        if depth == 0:
            return leaves
        children = level(depth - 1)
        return st.one_of(
            leaves,
            st.tuples(children, children).map(lambda ab: add(*ab)),
            st.tuples(children, children).map(lambda ab: sub(*ab)),
            st.tuples(children, children).map(lambda ab: mul(*ab)),
            children.map(neg),
            st.tuples(children, st.integers(min_value=2, max_value=3)).map(
                lambda bn: pow_(*bn)
            ),
        )

    return level(max_depth)


@settings(max_examples=60, deadline=None)
@given(ast=_polynomials(), xv=st.floats(-1.2, 1.2), yv=st.floats(-1.2, 1.2))
def test_symbolic_derivative_matches_dual_derivative(ast, xv, yv):
    df = differentiate(ast, "x")
    sym = evaluate(df, {"x": xv, "y": yv})
    dual = evaluate(ast, {"x": Dual(xv, 1.0), "y": yv})
    dual_d = dual.du if isinstance(dual, Dual) else 0.0
    assume(math.isfinite(sym) and math.isfinite(dual_d))
    assume(max(abs(sym), abs(dual_d)) <= 1e8)
    scale = max(1.0, abs(sym), abs(dual_d))
    assert abs(sym - dual_d) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(ast=_polynomials())
def test_render_roundtrips(ast):
    assert parse_expression(render(ast)) == ast


@settings(max_examples=40, deadline=None)
@given(ast=_polynomials())
def test_free_variables_subset(ast):
    assert free_variables(ast) <= set(_VARS)


def test_render_roundtrip_with_functions():
    src = "sin(x)*cos(y) - exp(x/2) + sqrt(y)^3"
    ast = parse_expression(src)
    assert parse_expression(render(ast)) == ast


def test_render_non_finite_constants():
    # folding can leave a constant that is not finite; it renders as its
    # repr, which does not reparse (inf and nan read as identifiers)
    assert [render(Const(v)) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    assert render(mul(Const(1e200), Const(1e200))) == "inf"
    assert render(mul(Var("x"), neg(Const(math.inf)))) == "x*-inf"
    assert render(Const(1e200)) == "1e+200" and render(Const(-3.0)) == "-3"


def test_call_constant_folding_keeps_domain_errors():
    # log of a nonpositive constant must not fold away the error
    ast = call("log", Const(-1.0))
    with pytest.raises(ValueError):
        evaluate(ast, {})


def test_overflowing_literal_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("1e400")


def test_pow_fold_survives_overflow():
    ast = pow_(Const(10.0), 400)
    assert isinstance(ast, Pow)  # fold skipped, node kept
    assert evaluate(ast, {}) == math.inf  # runtime overflows to inf quietly


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-200, -3e-160, 1.1, -0.7]), st.integers(-7, 9))
def test_pow_folds_to_the_left_to_right_product(base, n):
    # a constant power folds to the value the generated code computes
    # (expr._ipow); a product that overflows or divides by zero keeps the node
    folded = pow_(Const(base), n)
    try:
        value = _ipow(base, n)
    except ZeroDivisionError:
        value = math.inf
    if math.isfinite(value):
        assert isinstance(folded, Const) and folded.value.hex() == float(value).hex()
    else:
        assert isinstance(folded, Pow) and folded.exponent == n


# -- the parser against the recursive-descent parser it replaced ------------


def _shape(e):
    """`e` as nested tuples of node type and field values."""
    fields = [getattr(e, f.name) for f in dataclasses.fields(e)]
    return (type(e).__name__, *(_shape(v) if dataclasses.is_dataclass(v) else repr(v) for v in fields))


def _outcome(parse, src, variables=None):
    try:
        return _shape(parse(src, variables))
    except ExprError as exc:
        return type(exc).__name__, str(exc), exc.column


def _matches_oracle(src, variables=None):
    """The parser's outcome is the oracle's: the same tree, or the same error
    type, message and column."""
    return _outcome(parse_expression, src, variables) == _outcome(expr_oracle.parse_expression, src, variables)


# one non-ASCII letter (θ) and one non-ASCII decimal digit (٣, Arabic-Indic three)
_ALPHABET = [*"+-*/^() .eE0123456789xyθ٣", "x_1", "x1", "sin", "sqrt", "1e5", "2.", "\t"]


@settings(max_examples=500, deadline=None)
@given(
    src=st.lists(st.sampled_from(_ALPHABET), max_size=24).map("".join) | _polynomials(4).map(render),
    variables=st.sampled_from([None, ("x", "y", "x1", "θ")]),
)
def test_parser_matches_the_recursive_descent_oracle(src, variables):
    # the same tree, or the same error type, message and column
    assert _matches_oracle(src, variables)


@pytest.mark.parametrize(
    "src",
    [
        "x1^2000",
        "(" * 600 + "x1" + ")" * 600,
        " + ".join(["x1"] * 1500),
        "2^10000000",
        "(" * 99 + "x1" + ")" * 99,
        "-" * 99 + "x1",
        "-" * 100 + "x1",
        "sin(" * 49 + "x1" + ")" * 49,
        "x1^99",
        "-x1^99",
        "x1" + "*x1" * 99,
        "x1" + "*x1" * 100,
    ],
    ids=lambda src: f"{src[:12]}..{len(src)}",
)
def test_deep_inputs_match_the_recursive_descent_oracle(src):
    assert _matches_oracle(src)


@pytest.mark.parametrize(
    "src, now, before",
    [
        ("²", Var("²"), (1, "bad number '²'")),
        ("1²", (2, "unexpected '²'"), (1, "bad number '1²'")),
        ("½ + x", Add(Var("½"), Var("x")), (1, "unexpected character '½'")),
        ("x²", Var("x²"), Var("x²")),
    ],
    ids=["digit", "after-a-number", "fraction", "inside-an-identifier"],
)
def test_numeric_characters_other_than_decimal_digits_start_identifiers(src, now, before):
    # the one difference from the recursive-descent parser: a character that
    # is alphanumeric but neither a letter nor a decimal digit (², ½, Ⅻ) now
    # starts an identifier; it used to start a number ("bad number") if it
    # was a digit, and was an unexpected character otherwise
    for parse, expected in ((parse_expression, now), (expr_oracle.parse_expression, before)):
        if isinstance(expected, tuple):
            column, message = expected
            expected = ("ExprSyntaxError", f"syntax error at column {column}: {message}", column)
        else:
            expected = _shape(expected)
        assert _outcome(parse, src) == expected


# -- free_variables walks a shared tree once per distinct node ---------------

_CHILD_READS = [0]


@functools.cache
def _counting_class(kind):
    """`kind` with every read of a node's name or first child counted: one
    read per visit of a Var, Call, Neg, Pow or binary node."""

    def __getattribute__(self, name):
        if name in ("name", "arg", "base", "left"):
            _CHILD_READS[0] += 1
        return object.__getattribute__(self, name)

    return type(f"Counting{kind.__name__}", (kind,), {"__getattribute__": __getattribute__})


def _counting_copy(e, memo):
    """`e` rebuilt from counting nodes, every shared node kept shared."""
    if id(e) not in memo:
        parts = {}
        for f in dataclasses.fields(e):
            v = getattr(e, f.name)
            parts[f.name] = _counting_copy(v, memo) if dataclasses.is_dataclass(v) else v
        memo[id(e)] = _counting_class(type(e))(**parts)
    return memo[id(e)]


def _paths(e, memo):
    """Nodes other than constants, counted once per path from the root."""
    if id(e) not in memo:
        children = [getattr(e, f.name) for f in dataclasses.fields(e)]
        memo[id(e)] = int(not isinstance(e, Const)) + sum(
            _paths(c, memo) for c in children if dataclasses.is_dataclass(c)
        )
    return memo[id(e)]


def _names(e):
    """The variable names of `e`, by a walk over every path."""
    if isinstance(e, Var):
        return {e.name}
    children = [getattr(e, f.name) for f in dataclasses.fields(e)]
    return set().union(*(_names(c) for c in children if dataclasses.is_dataclass(c)))


def test_free_variables_visits_each_distinct_node_of_a_bracket_tower_once():
    # [X1, [X1, ... [X1, X2]]] reuses the components and Jacobian entries of
    # each level in the next, so its paths outgrow its distinct nodes; the
    # visits must follow the distinct nodes
    from geocon.fields import lie_bracket, vector_field

    chart = ("x", "y", "z")
    x1 = vector_field(chart, ["sin(y)", "x*z", "x^2"])
    tower = vector_field(chart, ["z*y", "1", "x*y"])
    for _ in range(4):
        tower = lie_bracket(x1, tower)
        for comp in tower.components:
            memo = {}
            copy = _counting_copy(comp, memo)
            distinct = sum(not isinstance(node, Const) for node in memo.values())
            _CHILD_READS[0] = 0
            assert free_variables(copy) == _names(comp)
            assert _CHILD_READS[0] == distinct
    assert _paths(comp, {}) > 2 * distinct

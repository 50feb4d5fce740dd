"""Point values of plain fields walk their trees.

`VectorField.__call__` runs generated code only for a slice routed to a live
system; every other field is evaluated by `expr.evaluate(..., checked=False)`
with one identity memo shared across its components.  The reference is the
field's own generated right-hand side (`expr.compile_flow`): the walk must
give the same bits, zero signs included, and fail with the same exception
at the same first fault, also where trees share nodes (brackets do).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geocon import cone, expr, fields, ocp, pca, variations
from geocon.expr import Dual, compile_flow, div, evaluate, parse_expression
from geocon.fields import lie_bracket, negate_field, vector_field

from tests.conftest import random_control_affine
from tests.test_generated_rhs import draw_state
from tests.test_segment import bits

FAULTS = (ZeroDivisionError, ValueError, OverflowError)


def outcome(call):
    try:
        return [bits(v) for v in call()]
    except FAULTS as exc:
        return type(exc)


def assert_walk_matches_generated(vf, x):
    rhs = compile_flow(vf.components, vf.variables)
    assert outcome(lambda: vf(x)) == outcome(lambda: rhs(None, 0, 0, 0.0, x))


def derived_fields(a, b):
    """a, b, their bracket, a bracket of that, and negations: trees that share nodes."""
    ab = lie_bracket(a, b)
    return [a, b, ab, lie_bracket(a, ab), negate_field(ab), negate_field(b)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans())
def test_walk_matches_generated_code_on_random_systems(seed, m, dual):
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m, k=2)
    for vf in derived_fields(system.drift, system.inputs[0]) + [system.slice_field([0.0, -1.0])]:
        assert "_held" not in vf.__dict__
        assert_walk_matches_generated(vf, draw_state(rng, m, 0, 0, dual))


COORDINATE = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1.0, -2.5, 3.0]) | st.floats(-3.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(-7, 9), st.integers(-7, 9), st.lists(COORDINATE, min_size=3, max_size=3), st.booleans())
def test_walk_matches_generated_code_on_handwritten_fields(n, p, point, dual):
    chart = ("x", "y", "z")
    a = vector_field(chart, [f"sin(x)*cos(y)^{n} - exp(1/z)", f"log(x + 2)*sqrt(y + 2) + x^{p}",
                             f"x*y/(1 + z^2) - (x*y)^{n} + y^{p}/7"])
    b = vector_field(chart, [f"sqrt(x)^{p}", "exp(x*y)/(y - z)", f"log(z)^{n}"])
    if dual:
        point = [v + Dual(Dual(0.1, -0.2), Dual(0.3, 0.0)) for v in point]
    for vf in derived_fields(a, b):
        assert_walk_matches_generated(vf, point)


def test_a_shared_node_faults_where_it_is_first_computed():
    # one node object 1/y read by both components; the memo computes it once,
    # and the fault comes from the first component that needs it
    x, y = expr.var("x"), expr.var("y")
    shared = div(expr.const(1.0), y)
    for components, error in [
        ((expr.add(expr.call("log", x), expr.mul(shared, shared)), shared), ValueError),
        ((expr.add(expr.mul(shared, shared), expr.call("log", x)), shared), ZeroDivisionError),
        ((shared, expr.call("log", x)), ZeroDivisionError),
    ]:
        vf = fields.VectorField(("x", "y"), components)
        assert_walk_matches_generated(vf, [-1.0, 0.0])
        assert outcome(lambda: vf([-1.0, 0.0])) is error
        assert_walk_matches_generated(vf, [2.0, 0.5])


def test_memo_computes_each_shared_node_once(monkeypatch):
    calls = []
    real = expr._FUNCTIONS["exp"]
    monkeypatch.setitem(expr._FUNCTIONS, "exp", lambda v: calls.append(v) or real(v))
    e = expr.call("exp", expr.var("x"))
    vf = fields.VectorField(("x", "y"), (expr.mul(e, e), expr.add(e, expr.var("y"))))
    assert vf([0.5, 1.0]) == [real(0.5) * real(0.5), real(0.5) + 1.0]
    assert calls == [0.5]


def test_checked_walk_reports_the_left_operand_fault_first():
    # both operands of the division fault: the left one is computed first,
    # as in the generated code, and its column is reported
    e = parse_expression("log(x)/(y - y0)")
    with pytest.raises(expr.DomainEvalError, match="column 1"):
        evaluate(e, {"x": -1.0, "y": 0.0, "y0": 0.0})
    with pytest.raises(expr.DomainEvalError, match="division by zero"):
        evaluate(e, {"x": 1.0, "y": 0.0, "y0": 0.0})
    with pytest.raises(ValueError):
        evaluate(e, {"x": -1.0, "y": 0.0, "y0": 0.0}, checked=False)


def test_an_m6_sweep_analysis_compiles_no_form_on_a_bracket(monkeypatch):
    # one system of the benchmark's sweep panel (m = 6), every stage of its
    # analysis; brackets and negations are only ever evaluated at points, so
    # only systems compile a right-hand side and only flowing fields a segment
    owners = []
    real = fields._flow_code

    def recording(segment, owner, blocks):
        before = dict(owner.__dict__.get("_flow_forms", {}))
        code = real(segment, owner, blocks)
        if owner.__dict__["_flow_forms"] != before:
            owners.append((segment, owner))
        return code

    monkeypatch.setattr(fields, "_flow_code", recording)
    brackets, real_bracket = [], fields.lie_bracket

    def collecting(a, b):
        brackets.append(real_bracket(a, b))
        return brackets[-1]

    for module in (fields, pca, variations):  # each calls it by its own name
        monkeypatch.setattr(module, "lie_bracket", collecting)
    rng = np.random.default_rng([0, 6])
    system = random_control_affine(rng, m=6, k=2)
    values = np.round(rng.uniform(-1.0, 1.0, size=(2, 2)), 3).tolist()
    x0, lam0 = np.round(rng.uniform(-0.2, 0.2, size=6), 3), np.round(rng.uniform(-1.0, 1.0, size=6), 3)
    sched = ocp.piecewise_schedule([0.0, 0.4], values)
    ref = ocp.integrate_trajectory(system, x0, sched, (0.0, 1.0))
    ladder = pca.run_algorithm(system, ref)
    cone.find_supporting_covector(cone.assemble_cone(system, ref, 1.0, [0.25, 0.5, 0.75, 1.0], per_time_budget=16))
    ocp.integrate_biextremal(system, x0, lam0, sched, (0.0, 1.0), "reduced")
    extended = ocp.extend_system(system, "0.5*(u1^2 + u2^2)")
    ocp.search_normal_lift(extended, ref)

    fields_seen = [system.drift, *system.inputs, *system.__dict__["_slices"].values(), *brackets]
    negations = [n for vf in fields_seen for n in vf.__dict__.get("_negation", {}).values()]
    assert len(brackets) > 10 and negations and ladder.levels
    assert not [owner for _, owner in owners if any(owner is vf for vf in brackets)]
    assert not [owner for segment, owner in owners if not segment and any(owner is vf for vf in negations)]
    assert {type(owner).__name__ for segment, owner in owners if not segment} == {"ControlAffineSystem"}
    assert any(owner is extended for _, owner in owners)

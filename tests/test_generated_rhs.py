"""Differential tests of the generated flow right-hand side.

`fields.linearized_rhs` runs one generated function per right-hand side
(`expr.compile_flow`).  The reference below evaluates every component and
every Jacobian entry with the tree walker `expr.evaluate` and sums each
block element from 0.0 in index order, zero entries included; the
generated function must reproduce it exactly.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geocon import expr, fields
from geocon.expr import Dual, differentiate, evaluate
from geocon.fields import linearized_rhs, vector_field
from geocon.ocp import (
    build_control_affine,
    extend_system,
    hamilton_rhs,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
    transport_vector,
)

from tests.conftest import random_control_affine


def reference_rhs(owner, state, u, tangents, covectors):
    components, control_names = owner.flow_components()
    chart = owner.variables
    n = len(chart)
    env = dict(zip(chart, state[:n]))
    env.update(zip(control_names, u))
    out = [evaluate(e, env) for e in components]
    if not (tangents or covectors):
        return out
    J = [[evaluate(differentiate(e, v), env) for v in chart] for e in components]
    k = n
    for _ in range(tangents):
        delta = state[k : k + n]
        for i in range(n):
            acc = 0.0
            for j in range(n):
                acc = acc + J[i][j] * delta[j]
            out.append(acc)
        k += n
    for _ in range(covectors):
        lam = state[k : k + n]
        for j in range(n):
            acc = 0.0
            for i in range(n):
                acc = acc - J[i][j] * lam[i]
            out.append(acc)
        k += n
    return out


def flat(v, depth):
    """The 2^depth real parts of a nested Dual; a float is a Dual with zero
    derivative parts."""
    if depth == 0:
        return (float(v),)
    if isinstance(v, Dual):
        return flat(v.re, depth - 1) + flat(v.du, depth - 1)
    return flat(v, depth - 1) + (0.0,) * 2 ** (depth - 1)


def nested_dual(rng):
    a, b, c, d = (float(x) for x in rng.uniform(-0.2, 0.2, size=4))
    return Dual(Dual(a, b), Dual(c, d))


def draw_state(rng, n, tangents, covectors, dual, low=-1.0, high=1.0):
    x = [float(v) for v in rng.uniform(low, high, size=n)]
    block = [float(v) for v in rng.uniform(-1.0, 1.0, size=n * (tangents + covectors))]
    if dual:
        x = [v + nested_dual(rng) for v in x]
        block = [v + nested_dual(rng) for v in block]
    return x + block


def assert_generated_equals_reference(owner, state, u, tangents, covectors, dual):
    got = linearized_rhs(owner, tangents, covectors, lambda _t: list(u))(0.0, state)
    want = reference_rhs(owner, state, u, tangents, covectors)
    assert len(got) == len(want)
    if dual:
        assert [flat(v, 2) for v in got] == [flat(v, 2) for v in want]
    else:
        assert got == want
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.integers(1, 2),
    st.sampled_from([0, 1, 5]),
    st.sampled_from([0, 1]),
    st.booleans(),
)
def test_generated_rhs_matches_evaluate_on_random_systems(seed, m, k, tangents, covectors, dual):
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m, k=k)
    u = [float(v) for v in rng.uniform(-2.0, 2.0, size=k)]
    state = draw_state(rng, m, tangents, covectors, dual)
    assert_generated_equals_reference(system, state, u, tangents, covectors, dual)


HANDWRITTEN = (
    ("x", "y", "z"),
    ["sin(x)*cos(y) - exp(z/3)", "log(x + 2)*sqrt(y + 2) + x^-2", "x*y/(1 + z^2) - (x*y)^-1 + sin(x)*sin(x) + y^5/7"],
    [["1", "0", "-y/2"], ["cos(x)^3", "exp(-x*y)", "x/2"]],
)


@pytest.mark.parametrize("tangents", [0, 1, 5])
@pytest.mark.parametrize("covectors", [0, 1])
@pytest.mark.parametrize("dual", [False, True])
def test_generated_rhs_matches_evaluate_on_handwritten_fields(tangents, covectors, dual):
    rng = np.random.default_rng(7 + 3 * tangents + covectors)
    chart, drift, inputs = HANDWRITTEN
    system = build_control_affine(chart, drift, inputs, [(-2.0, 2.0)] * 2)
    extended = extend_system(system, "0.5*u1^2 + u2*sqrt(x) + 1/(y + 3) + log(z + 2)^-1")
    field = vector_field(chart, drift)
    for owner in (system, extended, field):
        n = len(owner.variables)
        state = draw_state(rng, n, tangents, covectors, dual, 0.3, 1.2)
        u = [0.7, -1.3] if owner is not field else []
        assert_generated_equals_reference(owner, state, u, tangents, covectors, dual)


def test_powers_are_left_to_right_products():
    # x^n is ((x*x)*x)*..., as expr._ipow computes it, also where the
    # Jacobian n*x^(n-1) shares the product's prefix
    xs = [float(x) for x in np.random.default_rng(11).uniform(-3.0, 3.0, size=200)]
    for n in [*range(-7, 0), *range(2, 10)]:
        vf = vector_field(("x",), [f"x^{n}"])
        for x in xs:
            assert_generated_equals_reference(vf, [x, 1.0], [], 1, 0, False)


def test_vector_field_call_matches_evaluate():
    chart, drift, _ = HANDWRITTEN
    vf = vector_field(chart, drift)
    x = [0.4, 0.9, -0.2]
    assert vf(x) == [evaluate(e, dict(zip(chart, x))) for e in vf.components]


def test_three_switch_schedule_compiles_its_rhs_once(monkeypatch):
    calls = []
    for name in ("compile_flow", "compile_segment"):
        real = getattr(fields, name)
        monkeypatch.setattr(fields, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    system = random_control_affine(np.random.default_rng(3), m=3, k=2)
    sched = piecewise_schedule([0.0, 0.25, 0.5, 0.75], [[0.5, -0.5], [1.0, 0.0], [-1.0, 0.3], [0.2, 0.2]])
    bx = integrate_biextremal(system, [0.1, 0.2, 0.3], [1.0, 0.0, 0.0], sched, (0.0, 1.0), step=1e-2)
    ref = integrate_trajectory(system, [0.1, 0.2, 0.3], sched, (0.0, 1.0), 1e-2)
    transport_vector(system, ref, 0.0, 1.0, [fields.TangentVector(ref.point_at(0.0), [1.0, 0.0, 0.0])], 1e-2)
    for u in ([0.5, -0.5], [1.0, 0.0]):
        hamilton_rhs([0.1, 0.2, 0.3], [1.0, 0.0, 0.0], u, system)
    assert len(bx.momentum_ts) > 4
    # the segment compiled with J for the biextremal serves every flow after it
    assert calls == ["compile_segment", "compile_flow"]


def test_generated_rhs_dies_with_its_owner():
    system = random_control_affine(np.random.default_rng(5), m=3, k=1)
    vf = vector_field(("x",), ["x^2"])
    sched = piecewise_schedule([0.0], [[0.5]])
    integrate_biextremal(system, [0.1, 0.2, 0.3], [1.0, 0.0, 0.0], sched, (0.0, 0.5), step=1e-2)
    fields.integrate_flow(fields.FlowSpec(vf, 0.5, 1e-2), fields.as_point([0.1]))
    vf([0.1])  # a point value walks the trees: only the segment is compiled
    assert set(system.__dict__["_flow_forms"]) == {True} and set(vf.__dict__["_flow_forms"]) == {True}
    refs = [weakref.ref(system), weakref.ref(vf)]
    del system, vf
    gc.collect()
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize(
    "components, point, error",
    [
        (["1/x", "y"], [0.0, 1.0], ZeroDivisionError),
        (["y", "log(x)"], [-1.0, 1.0], ValueError),
        (["x^-2", "y"], [0.0, 1.0], ZeroDivisionError),
        (["sqrt(x)", "y"], [-4.0, 1.0], ValueError),
        # the first fault in left-to-right order wins, even when a later
        # subexpression is shared and computed into a local of its own
        (["log(x) + (1/y)*(1/y)", "y"], [-1.0, 0.0], ValueError),
        (["(1/y)*(1/y) + log(x)", "y"], [-1.0, 0.0], ZeroDivisionError),
        (["y", "log(x)", "1/y"], [-1.0, 0.0], ValueError),
        (["exp(1/x)", "sqrt(y)"], [1e-300, -1.0], OverflowError),
    ],
)
def test_domain_faults_raise_the_plain_python_error(components, point, error):
    chart = ("x", "y", "z")[: len(components)]
    vf = vector_field(chart, components)
    x = (point + [0.0])[: len(chart)]
    with pytest.raises(error):
        vf(x)
    # one compiled expression per component, in order, raises the same
    with pytest.raises(error):
        [expr.compile_expression(e, chart)(x) for e in vf.components]


def test_jacobian_fault_needs_a_block():
    # d sqrt(x)/dx = 0.5/sqrt(x) divides by zero at 0; f alone does not
    sq = vector_field(("x",), ["sqrt(x)"])
    assert linearized_rhs(sq)(0.0, [0.0]) == [0.0]
    with pytest.raises(ZeroDivisionError):
        linearized_rhs(sq, tangents=1)(0.0, [0.0, 1.0])

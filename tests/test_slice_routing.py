"""Slices with every control nonzero run their system's generated code.

`ControlAffineSystem.slice_field(u)` records (system, u) when no u^c is
zero, and `fields.linearized_rhs` then runs the system's right-hand side
and segment with u held.  The slice's trees are the system's with u^c as a
constant, so the reference is the same slice built by `combine_fields`,
which records nothing and runs its own code: both must give the same
bits, record the same samples and fail the same way.  Slices of a
cost-extended system are routed the same way when the cost, with u
substituted, folds to a constant.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geocon import fields
from geocon.expr import jet_seed, substitute
from geocon.fields import VectorField, as_point, combine_fields, composite_flow, eval_vector_field, linearized_rhs
from geocon.ocp import build_control_affine, extend_system
from geocon.variations import needle_variation

from tests.conftest import random_control_affine
from tests.test_generated_rhs import draw_state
from tests.test_segment import bits, run

NONZERO = st.sampled_from([1.0, -1.0, 0.5, -1.5, 2.0]) | st.floats(-2.0, 2.0, allow_subnormal=False).filter(bool)


def routed_and_own(system, u):
    routed = system.slice_field(u)
    own = combine_fields(system.drift, system.inputs, u)
    assert routed == own  # the same trees
    assert linearized_rhs(routed).args[0] is system and linearized_rhs(own).args[0] is own
    return routed, own


def outcome(call):
    try:
        return [bits(v) for v in call()]
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)


def extended_routed_and_own(extended, u):
    routed = extended.slice_field(u)
    cost = substitute(extended.cost, dict(zip(extended.control_names, u)))
    base = combine_fields(extended.base.drift, extended.base.inputs, u)
    own = VectorField(extended.variables, (cost,) + base.components)
    assert routed == own
    assert linearized_rhs(routed).args[0] is extended and linearized_rhs(own).args[0] is own
    return routed, own


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 2),
    st.lists(NONZERO, min_size=2, max_size=2),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_a_routed_slice_is_bit_identical_to_its_own_code(seed, m, k, u, tangents, dual_state, dual_duration,
                                                          backward):
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m, k=k)
    routed, own = routed_and_own(system, u[:k])
    x = draw_state(rng, m, 0, 0, False)
    assert outcome(lambda: routed(x)) == outcome(lambda: own(x))
    point = as_point(x)
    assert eval_vector_field(routed, point).components.tobytes() == eval_vector_field(own, point).components.tobytes()
    state = draw_state(rng, m, tangents, 0, dual_state, -0.5, 0.5)
    length = float(rng.uniform(0.0, 0.06))
    duration = jet_seed(length, 2) if dual_duration else length
    if backward:
        duration = -duration
    t0 = float(rng.uniform(-1.0, 1.0))
    assert run(linearized_rhs(routed, tangents), state, t0, duration, 0.01) == run(
        linearized_rhs(own, tangents), state, t0, duration, 0.01)


@pytest.mark.parametrize(
    "drift, inputs, u, x0, tangents",
    [
        # x' = x^2 + u x^2 from x = 1 blows up at t = 1/(1 + u)
        (["x^2"], [["x^2"]], [1.0], [1.0], 0),
        (["x^2"], [["x^2"]], [1.0], [1.0], 2),
        (["x^2"], [["1"], ["x^2"]], [-1.0, 0.5], [1.0], 1),
    ],
)
def test_divergence_time_is_the_same(drift, inputs, u, x0, tangents):
    system = build_control_affine(("x",), drift, inputs, [(-2.0, 2.0)] * len(inputs))
    routed, own = routed_and_own(system, u)
    state = x0 + [1.0] * tangents
    got = run(linearized_rhs(routed, tangents), state, 0.0, 2.0, 1e-2)
    assert got == run(linearized_rhs(own, tangents), state, 0.0, 2.0, 1e-2)
    assert got[0][0] == "diverged"


@pytest.mark.parametrize(
    "input_field, tangents, error",
    [
        (["0", "sqrt(x)"], 0, ValueError),  # x < 0 in the second step
        (["0", "sqrt(x)"], 1, ZeroDivisionError),  # J = 0.5/sqrt(x) at x = 0, first step
        (["0", "1/x"], 0, ZeroDivisionError),  # x = 0 at the last stage of the first step
    ],
)
def test_domain_fault_raises_the_same_error(input_field, tangents, error):
    system = build_control_affine(("x", "y"), ["-1", "0"], [input_field], [(-2.0, 2.0)])
    routed, own = routed_and_own(system, [0.5])
    state = [0.01, 0.0] + [1.0, 0.0] * tangents
    got = run(linearized_rhs(routed, tangents), state, 0.0, 0.1, 0.01)
    assert got == run(linearized_rhs(own, tangents), state, 0.0, 0.1, 0.01)
    assert got[0] is error
    assert outcome(lambda: routed([0.0, 0.0])) == outcome(lambda: own([0.0, 0.0]))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_slice_with_a_zero_control_keeps_its_own_code(zero):
    # the slice folds 0*(1/x1) away and returns -x1 = -0.0 at x1 = 0, where
    # the system's 0.0 * (1/x1) divides by zero
    system = build_control_affine(("x1",), ["-x1"], [["1/x1"]], [(-2.0, 2.0)])
    vf = system.slice_field([zero])
    assert linearized_rhs(vf).args[0] is vf
    assert [bits(v) for v in vf([0.0])] == [bits(-0.0)]
    with pytest.raises(ZeroDivisionError):
        linearized_rhs(system, controls=lambda _t: [zero])(0.0, [0.0])
    # with input 1 the system's -0.0 + 0.0 * 1 is +0.0: another sign bit
    system = build_control_affine(("x1",), ["-x1"], [["1"]], [(-2.0, 2.0)])
    assert [bits(v) for v in system.slice_field([0.0])([0.0])] == [bits(-0.0)]
    assert [bits(v) for v in linearized_rhs(system, controls=lambda _t: [0.0])(0.0, [0.0])] == [bits(0.0)]
    mixed = build_control_affine(("x1",), ["-x1"], [["1"], ["x1"]], [(-2.0, 2.0)] * 2).slice_field([1.0, zero])
    assert linearized_rhs(mixed).args[0] is mixed


def test_a_needle_grid_compiles_only_its_system_code(monkeypatch):
    calls = []

    def counting(real):
        def compile_form(components, chart, controls=(), jacobian=None):
            calls.append((real.__name__, tuple(controls)))
            return real(components, chart, controls, jacobian)
        return compile_form

    monkeypatch.setattr(fields, "compile_flow", counting(fields.compile_flow))
    monkeypatch.setattr(fields, "compile_segment", counting(fields.compile_segment))
    system = random_control_affine(np.random.default_rng(3), m=3, k=2)
    x = as_point([0.1, -0.2, 0.05])
    grid = [u1 for u1 in itertools.product([-1.5, -0.5, 0.5, 1.5], repeat=2) if u1 != (0.5, -0.5)]
    for u1 in grid:
        needle_variation(system, [0.5, -0.5], u1, 1.0, x)
    slices = list(system.__dict__["_slices"].values())
    assert len(slices) == len(grid) + 1
    assert all("_held" in vf.__dict__ and "_flow_forms" not in vf.__dict__ for vf in slices)
    assert sorted(calls) == [("compile_flow", system.control_names), ("compile_segment", system.control_names)]


def test_a_routed_slice_dies_with_its_system():
    system = random_control_affine(np.random.default_rng(5), m=3, k=2)
    xi = system.slice_field([0.5, -1.0])
    assert math.isfinite(composite_flow([xi], [0.1], as_point([0.1, 0.2, 0.3]), 1e-2).coords[0])
    assert "_flow_forms" in system.__dict__ and "_flow_forms" not in xi.__dict__
    refs = [weakref.ref(system), weakref.ref(xi)]
    del system, xi
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_a_routed_slice_holds_its_system_weakly():
    # the system caches the slice and the slice refers back to the system
    # weakly, so dropping the system frees it without a cycle collection;
    # the slice then runs its own code, bit for bit
    system = random_control_affine(np.random.default_rng(5), m=3, k=2)
    xi = system.slice_field([0.5, -1.0])
    x = as_point([0.1, 0.2, 0.3])
    routed = composite_flow([xi], [0.1], x, 1e-2).coords.tobytes()
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert ref() is None
    finally:
        gc.enable()
    assert composite_flow([xi], [0.1], x, 1e-2).coords.tobytes() == routed
    assert "_flow_forms" in xi.__dict__


U_ONLY_COSTS = ["0.5*(u1^2 + u2^2)", "u1^3 - 2*u2^-2", "exp(u1)*u2^3 + u1^-2", "sin(u2)^-1 + sqrt(exp(u1))^3"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from(U_ONLY_COSTS),
    st.lists(st.sampled_from([1.0, -1.0]) | NONZERO, min_size=2, max_size=2),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
)
def test_a_routed_extended_slice_is_bit_identical_to_its_own_code(seed, m, cost, u, tangents, dual_state,
                                                                   dual_duration):
    # the cost reads only u, so with u substituted it folds to the constant
    # the extended system's code computes, u^n as the same left-to-right product
    rng = np.random.default_rng(seed)
    extended = extend_system(random_control_affine(rng, m=m, k=2), cost)
    routed, own = extended_routed_and_own(extended, u)
    x = draw_state(rng, m + 1, 0, 0, dual_state)
    assert outcome(lambda: routed(x)) == outcome(lambda: own(x))
    state = draw_state(rng, m + 1, tangents, 0, dual_state, -0.5, 0.5)
    length = float(rng.uniform(0.0, 0.06))
    duration = jet_seed(length, 2) if dual_duration else length
    assert run(linearized_rhs(routed, tangents), state, 0.0, duration, 0.01) == run(
        linearized_rhs(own, tangents), state, 0.0, duration, 0.01)


@pytest.mark.parametrize("u", [[1.0, 0.0], [-0.0, -1.0]])
def test_an_extended_slice_with_a_zero_control_keeps_its_own_code(u):
    extended = extend_system(random_control_affine(np.random.default_rng(2), m=3, k=2), U_ONLY_COSTS[1])
    vf = extended.slice_field(u)
    assert "_held" not in vf.__dict__ and linearized_rhs(vf).args[0] is vf


def test_an_extended_slice_whose_cost_reads_x_keeps_its_own_code():
    # the last cost has a zero derivative by x1, but with u1 = 1 substituted
    # the slice folds 0*e to +0.0 where the system computes 0.0 * -0.0 = -0.0
    system = build_control_affine(("x1",), ["-x1"], [["1"], ["x1"]], [(-2.0, 2.0)] * 2)
    for cost in ["0.5*(u1^2 + u2^2) + x1^2", "u1*x1 - u2", "(u1 - 1)*-((x1 + 1) - (1 + x1))"]:
        extended = extend_system(system, cost)
        vf = extended.slice_field([1.0, -1.0])
        assert "_held" not in vf.__dict__
    held = linearized_rhs(extended, controls=lambda _t: [1.0, -1.0])(0.0, [0.0, 0.5])
    assert bits(vf([0.0, 0.5])[0]) == bits(0.0) and bits(held[0]) == bits(-0.0)
    # 0*x1 folds away when parsed: this cost reads only u
    assert "_held" in extend_system(system, "0*x1 + u1").slice_field([1.0, -1.0]).__dict__


def test_an_extended_slice_whose_cost_derivative_stays_unfolded_keeps_its_own_code():
    # d(1/u1)/dx folds only to 0/u1^2, which the system's Jacobian computes:
    # at u1 = 1e-170, u1*u1 underflows and that entry divides by zero, where
    # the slice's constant cost has no Jacobian entry at all
    extended = extend_system(build_control_affine(("x",), ["-x"], [["1"]], [(-2.0, 2.0)]), "1/u1")
    vf = extended.slice_field([1e-170])
    assert linearized_rhs(vf).args[0] is vf
    state = [0.0, 0.5, 1.0, 1.0]
    assert isinstance(run(linearized_rhs(vf, 1), state, 0.0, 0.05, 0.01)[0], list)
    held = linearized_rhs(extended, 1, controls=lambda _t: [1e-170])
    assert run(held, state, 0.0, 0.05, 0.01)[0] is ZeroDivisionError

"""Slices with every control nonzero run their system's generated code.

`ControlAffineSystem.slice_field(u)` records (system, u) when no u^c is
zero, and `fields.linearized_rhs` then runs the system's right-hand side
and segment with u held.  The slice's trees are the system's with u^c as a
constant, so the reference is the same slice built by `combine_fields`,
which records nothing and compiles its own code: both must give the same
bits, record the same samples and fail the same way.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geocon import fields
from geocon.expr import jet_seed
from geocon.fields import FlowSpec, as_point, combine_fields, eval_vector_field, integrate_flow, linearized_rhs
from geocon.ocp import build_control_affine
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
    assert math.isfinite(integrate_flow(FlowSpec(xi, 0.1, 1e-2), as_point([0.1, 0.2, 0.3])).coords[0])
    assert "_flow_forms" in system.__dict__ and "_flow_forms" not in xi.__dict__
    refs = [weakref.ref(system), weakref.ref(xi)]
    del system, xi
    gc.collect()
    assert [r() for r in refs] == [None, None]

"""Derived fields, schedules and generated code are built once per owner.

Slice fields live on their system, negations on the field they come from,
and duration schedules are shared; each distinct right-hand side is
therefore compiled once per analysis and freed with its owner.  Brackets are
built per call and kept nowhere.  Reuse must not change a single result bit.
"""

import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from geocon import fields
from geocon.cli import load_scenario
from geocon.cone import assemble_cone, find_supporting_covector
from geocon.fields import is_zero_field, lie_bracket, negate_field
from geocon.mech import generator_families
from geocon.ocp import (
    audit_necessary_conditions,
    build_control_affine,
    extend_system,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
    search_normal_lift,
)
from geocon.pca import run_algorithm, sample_annihilators
from geocon.variations import JetFragilityError, _jets, estimate_jets, sample_perturbation_set
from tests.conftest import random_control_affine


def _fresh(system):
    """An equal system without any cached derived fields or code."""
    return build_control_affine(
        system.variables,
        list(system.drift.components),
        [list(vf.components) for vf in system.inputs],
        system.control_box,
    )


def test_slice_field_is_built_once_per_control_tuple():
    system = random_control_affine(np.random.default_rng(7), m=3, k=2)
    ext = extend_system(system, "0.5*(u1^2 + u2^2) + u1")
    for owner in (system, ext):
        xi = owner.slice_field([0.5, -1])
        assert owner.slice_field((0.5, -1.0)) is xi
        assert owner.slice_field(np.array([0.5, -1.0])) is xi
        assert owner.slice_field([0.5, 1.0]) is not xi
    xi = system.slice_field([0.5, -1.0])
    assert negate_field(xi) is negate_field(xi)


def test_negative_zero_controls_get_their_own_slice():
    # substituting u1 = -0.0 into the cost folds to the constant -0.0, so a
    # cache that merged -0.0 with 0.0 would hand back the other field
    system = build_control_affine(("x",), ["0"], [["1"]], [(-2.0, 2.0)])
    ext = extend_system(system, "u1")
    plus, minus = ext.slice_field([0.0]), ext.slice_field([-0.0])
    assert plus is not minus
    assert math.copysign(1.0, plus.components[0].value) == 1.0
    assert math.copysign(1.0, minus.components[0].value) == -1.0
    assert ext.slice_field([-0.0]) is minus


def test_sampling_compiles_each_right_hand_side_at_most_once(monkeypatch):
    calls = []
    real = fields.compile_flow

    def counting(components, chart, controls=(), jacobian=None):
        calls.append((tuple(components), tuple(chart), tuple(controls), jacobian is not None))
        return real(components, chart, controls, jacobian)

    monkeypatch.setattr(fields, "compile_flow", counting)
    system = random_control_affine(np.random.default_rng(11), m=4, k=2)
    sched = piecewise_schedule([0.0, 0.5], [[0.4, -0.3], [-0.2, 0.6]])
    ref = integrate_trajectory(system, [0.1, -0.2, 0.3, 0.05], sched, (0.0, 1.0), 1e-2)
    sampled = [sample_perturbation_set(system, ref, t) for t in (0.25, 0.75)]
    assert all(sampled)
    assert len(calls) == len(set(calls))


def test_filled_caches_die_with_their_system():
    system = random_control_affine(np.random.default_rng(5), m=3, k=2)
    sched = piecewise_schedule([0.0], [[0.5, -0.5]])
    ref = integrate_trajectory(system, [0.1, 0.2, 0.3], sched, (0.0, 0.5), 1e-2)
    assert sample_perturbation_set(system, ref, 0.25)
    xi0 = system.slice_field([0.5, -0.5])  # filled by the sampling above
    bracket = lie_bracket(xi0, system.inputs[0])
    assert system.slice_field([0.5, -0.5]) is xi0
    refs = [weakref.ref(system), weakref.ref(xi0), weakref.ref(bracket)]
    del system, xi0, bracket, ref, sched
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_brackets_form_no_reference_cycles():
    # a bracket keeps nothing on its fields, so self-brackets and brackets
    # taken in both orders leave nothing for the cycle collector: dropping a
    # system after its ladder frees its input fields at once
    system = build_control_affine(
        ("x1", "x2", "x3"), ["0", "0", "0"], [["1", "0", "0"], ["0", "1", "x1^2"]], [(-2.0, 2.0), (-2.0, 2.0)]
    )
    ref = integrate_trajectory(system, [0.0, 0.0, 0.0], piecewise_schedule([0.0], [[0.0, 1.0]]), (0.0, 1.0), 1e-2)
    a, b = system.inputs
    assert is_zero_field(lie_bracket(a, a)) and not is_zero_field(lie_bracket(b, a))
    ladder = run_algorithm(system, ref)
    refs = [weakref.ref(system), weakref.ref(a), weakref.ref(b)]
    gc.collect()
    gc.disable()
    try:
        del system, ref, ladder, a, b
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def _analysis_case(name):
    """(system, extended system, x0, schedule, interval, sample times, mechanics?) of a
    fixture, or of the benchmark's m = 6 sweep system for "sweep"."""
    if name == "sweep":
        rng = np.random.default_rng([0, 6])
        system = random_control_affine(rng, m=6, k=2)
        values = np.round(rng.uniform(-1.0, 1.0, size=(2, 2)), 3).tolist()
        x0 = np.round(rng.uniform(-0.2, 0.2, size=6), 3)
        sched = piecewise_schedule([0.0, 0.4], values)
        return system, extend_system(system, "0.5*(u1^2 + u2^2)"), x0, sched, (0.0, 1.0), [0.25, 0.5, 0.75, 1.0], False
    scenario = load_scenario(str(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"))
    return (scenario.system, scenario.extended, scenario.initial, scenario.schedule, scenario.interval,
            scenario.analysis["sample_times"], scenario.connection is not None)


@pytest.mark.parametrize("name", ["martinet", "heisenberg", "polar_connection", "sweep"])
def test_an_analysis_leaves_no_cyclic_garbage(name):
    # generated code keeps the shared code namespace as its globals and a
    # failed LP certificate keeps its reason as text, so every stage frees
    # what it made by reference counting alone, and so does `del system`
    system, extended, x0, sched, interval, times, mechanics = _analysis_case(name)
    gc.collect()
    gc.disable()
    try:
        ref = integrate_trajectory(system, x0, sched, interval)
        sample_annihilators(run_algorithm(system, ref))
        cone = assemble_cone(system, ref, interval[1], times, per_time_budget=16)
        find_supporting_covector(cone)
        bx = integrate_biextremal(system, x0, np.ones(system.m), sched, interval, "reduced")
        audit_necessary_conditions(bx, cone, system, hamiltonian_grid_check=True)
        if extended is not None:
            search_normal_lift(extended, ref)
        if mechanics:
            generator_families(system, ref, 0.5 * (interval[0] + interval[1]))
        assert gc.collect() == 0
        segment = weakref.ref(system.__dict__["_flow_forms"][True][0])
        del system, extended, ref, cone, bx
        assert segment() is None
    finally:
        gc.enable()


def test_cone_generators_do_not_depend_on_cache_state():
    system = random_control_affine(np.random.default_rng(13), m=3, k=2)
    sched = piecewise_schedule([0.0, 0.5], [[0.4, -0.3], [-0.2, 0.6]])

    def generators(s):
        ref = integrate_trajectory(s, [0.1, -0.2, 0.3], sched, (0.0, 1.0), 1e-2)
        cone = assemble_cone(s, ref, 1.0, [0.25, 0.75], per_time_budget=8, step=1e-2)
        return [g.components.tobytes() for g in cone.generators]

    first = generators(system)
    assert first
    assert generators(system) == first  # every cache already filled
    assert generators(_fresh(system)) == first


def _disagreeing_curve(s):
    """Slope 1 at float parameters, slope 2 at derivative-carrying ones."""
    return np.array([s if isinstance(s, float) else 2.0 * s])


def _one_sided_curve(s):
    """Slope 1 at float parameters, flat at derivative-carrying ones."""
    return np.array([s if isinstance(s, float) else 0.0 * s])


def test_estimate_jets_raises_when_the_estimators_disagree():
    with pytest.raises(JetFragilityError, match="disagree at order 1: finite differences"):
        estimate_jets(_disagreeing_curve, 1)


def test_order_detection_raises_when_the_estimators_disagree():
    # also when only one estimator clears the threshold
    for curve in (_disagreeing_curve, _one_sided_curve):
        with pytest.raises(JetFragilityError, match="disagree at order 1: finite differences"):
            _jets(curve, 2, fields.as_point([0.0]))

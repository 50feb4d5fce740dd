"""Differential tests of the generated RK4 segment.

`fields.rk4_path` runs a whole leg, the full steps and then the landing
step, as one call: of the generated segment (`expr.compile_segment`) for a
right-hand side from `fields.linearized_rhs`, of the step loop
`fields._rk4_steps` for any other callable.  Wrapping the same rhs in a
lambda forces the loop, which is the reference: both paths must give the
same bits, record the same samples and fail the same way.  `two_call_leg`
below is a second reference: the full steps, then the landing as a step of
its own.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from geocon import fields, ocp
from geocon.expr import Dual, add, all_finite, const, is_zero, jet_seed, mul, pow_, var
from geocon.fields import DivergenceError, TangentVector, linearized_rhs, rk4_path, vector_field

from tests.conftest import chained_form, random_control_affine
from tests.test_generated_rhs import draw_state


def bits(v):
    """Every float of a (nested Dual) scalar, signed zeros and NaN included."""
    return (bits(v.re), bits(v.du)) if isinstance(v, Dual) else float(v).hex()


def run(rhs, state, t0, duration, step, leg=rk4_path):
    """(outcome, recorded samples) of one rk4_path (or `leg`) call, in bits."""
    samples = []
    record = lambda t, x: samples.append((bits(t), [bits(v) for v in x]))  # noqa: E731
    try:
        outcome = [bits(v) for v in leg(rhs, state, t0, duration, step, record)]
    except DivergenceError as exc:
        outcome = ("diverged", bits(exc.time))
    except (ZeroDivisionError, ValueError) as exc:
        outcome = type(exc)
    return outcome, samples


def rk4_step(rhs, t, h, x):
    half, sixth = 0.5 * h, h * (1.0 / 6.0)
    k1 = rhs(t, x)
    k2 = rhs(t + half, [xi + half * ki for xi, ki in zip(x, k1)])
    k3 = rhs(t + half, [xi + half * ki for xi, ki in zip(x, k2)])
    k4 = rhs(t + h, [xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + sixth * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def two_call_leg(rhs, x0, t0, duration, step, record):
    """A leg of nonzero duration as the full steps, then the landing step as
    a step of its own from where they end, at the time t0 + duration."""
    total = fields.real_part(duration)
    n_full = int(abs(total) / step)
    h = step if total >= 0.0 else -step
    t, x = t0, list(x0)
    for i in range(1, n_full + 2):
        x = rk4_step(rhs, t, h if i <= n_full else duration - n_full * h, x)
        t = t0 + i * h if i <= n_full else t0 + total
        if not all_finite(x):
            raise DivergenceError(t)
        record(t, x)
    return x


def assert_segment_matches_loop(rhs, state, t0, duration, step):
    segment = run(rhs, state, t0, duration, step)
    loop = run(lambda t, x: rhs(t, x), state, t0, duration, step)
    assert segment == loop
    if fields.real_part(duration) != 0.0:
        assert segment == run(rhs, state, t0, duration, step, two_call_leg)
    return segment


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
    st.sampled_from(["float", "dual", "zero", "dual zero"]),
    st.booleans(),
    st.booleans(),
)
def test_segment_is_bit_identical_to_the_step_loop(seed, m, tangents, covectors, dual_state, duration_kind,
                                                   backward, held):
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m)
    u = [float(v) for v in rng.uniform(-2.0, 2.0, size=system.k)]
    controls = (lambda _t: u) if held else (lambda t: [c * (1.0 - t * t) + t for c in u])
    rhs = linearized_rhs(system, tangents, covectors, controls)
    state = draw_state(rng, m, tangents, covectors, dual_state, -0.5, 0.5)
    length = 0.0 if "zero" in duration_kind else float(rng.uniform(0.0, 0.06))
    duration = jet_seed(length, 2) if "dual" in duration_kind else length
    if backward:
        duration = -duration
    outcome, samples = assert_segment_matches_loop(rhs, state, float(rng.uniform(-1.0, 1.0)), duration, 0.01)
    assert len(samples) == int(length / 0.01) + 1


@pytest.mark.parametrize(
    "component, x0, tangents, covectors, duration, window",
    [
        # x' = x^2 from x = 1 blows up at t = 1; RK4 at h = 0.01 leaves the
        # floats a few steps later
        ("x^2", 1.0, 0, 0, 2.0, (1.0, 1.1)),
        ("x^2", 1.0, 1, 0, 2.0, (1.0, 1.1)),
        ("x^2", 1.0, 0, 2, 2.0, (1.0, 1.1)),
        # x = 0 stays put while its tangent (forward) or its covector
        # (backward) grows by a factor 644 per step
        ("1000*x", 0.0, 1, 0, 2.0, (1.0, 1.2)),
        ("1000*x", 0.0, 0, 1, -2.0, (-1.2, -1.0)),
    ],
)
def test_divergence_time_is_the_same(component, x0, tangents, covectors, duration, window):
    rhs = linearized_rhs(vector_field(("x",), [component]), tangents, covectors)
    outcome, samples = assert_segment_matches_loop(rhs, [x0] + [1.0] * (tangents + covectors), 0.0, duration, 1e-2)
    assert outcome[0] == "diverged" and window[0] < float.fromhex(outcome[1]) < window[1]
    assert samples


@pytest.mark.parametrize(
    "components, tangents, error",
    [
        (["-1", "sqrt(x)"], 0, ValueError),  # x < 0 in the second step
        (["-1", "sqrt(x)"], 1, ZeroDivisionError),  # J = 0.5/sqrt(x) at x = 0, first step
        (["-1", "1/x"], 0, ZeroDivisionError),  # x = 0 at the last stage of the first step
    ],
)
def test_domain_fault_raises_the_same_error(components, tangents, error):
    rhs = linearized_rhs(vector_field(("x", "y"), components), tangents)
    outcome, _ = assert_segment_matches_loop(rhs, [0.01, 0.0] + [1.0, 0.0] * tangents, 0.0, 0.1, 0.01)
    assert outcome is error


@pytest.mark.parametrize("duration", [0.0375, 0.04, -0.0375, 0.005, jet_seed(0.0375, 1)])
def test_a_plain_callable_is_called_four_times_per_step(duration):
    system = random_control_affine(np.random.default_rng(17), m=3, k=2)
    rhs = linearized_rhs(system, 1, 1, lambda _t: [0.3, -0.7])
    calls = []

    def counted(t, x):
        calls.append(t)
        return rhs(t, x)

    state = draw_state(np.random.default_rng(18), 3, 1, 1, False)
    n_full = int(abs(fields.real_part(duration)) / 0.01)
    out = rk4_path(counted, state, 0.0, duration, 0.01)
    assert len(calls) == 4 * (n_full + 1)
    assert [bits(v) for v in out] == [bits(v) for v in rk4_path(rhs, state, 0.0, duration, 0.01)]


def test_zero_duration_is_the_identity():
    # f faults at x = -1 (log of a negative number) and the state is not
    # finite: neither matters when no step is taken, and nothing compiles
    vf = vector_field(("x", "y"), ["log(x)", "y"])
    calls, samples = [], []
    state = [-1.0, float("inf")]
    for rhs in (linearized_rhs(vf), lambda t, x: calls.append(t)):
        out = rk4_path(rhs, state, 0.25, 0.0, 0.01, lambda t, x: samples.append((t, x)))
        assert out == state and out is not state
    assert calls == [] and "_flow_forms" not in vf.__dict__
    assert samples == [(0.25, state)] * 2
    assert fields.integrate_flow(fields.FlowSpec(vf, -0.0), fields.as_point([-1.0, 2.0])).coords.tolist() == [-1.0, 2.0]
    # a Dual duration with zero real part still carries its seed
    flowed = fields.integrate_flow(fields.FlowSpec(vector_field(("x",), ["1"]), jet_seed(0.0, 1)), fields.as_point([2.0]))
    assert bits(flowed.coords[0]) == bits(Dual(2.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(0, 2),
    st.integers(0, 2),
    st.booleans(),
    st.integers(1, 6),
    st.sampled_from(["whole steps", "partial step", "dual", "dual whole steps"]),
    st.booleans(),
)
def test_a_leg_with_held_controls_is_one_call_of_the_step_loop(seed, m, tangents, covectors, dual_state, steps,
                                                               duration_kind, backward):
    # held (a list) and callable controls of the same values give the same
    # bits, and both match the loop and the two-call leg, with and without
    # a partial landing step (0.125 * steps is a whole number of steps)
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m)
    u = [float(v) for v in rng.uniform(-2.0, 2.0, size=system.k)]
    state = draw_state(rng, m, tangents, covectors, dual_state, -0.5, 0.5)
    length = 0.125 * steps + (0.0 if "whole" in duration_kind else float(rng.uniform(0.0, 0.125)))
    duration = jet_seed(length, 2) if "dual" in duration_kind else length
    duration = -duration if backward else duration
    held = run(linearized_rhs(system, tangents, covectors, u), state, 0.5, duration, 0.125)
    assert held == assert_segment_matches_loop(linearized_rhs(system, tangents, covectors, lambda _t: list(u)),
                                               state, 0.5, duration, 0.125)
    assert held[0][0] == "diverged" or len(held[1]) == steps + 1


@pytest.mark.parametrize(
    "components, state, tangents, covectors, duration, recorded",
    [
        # x' = exp(y) with y' = 10 from y = 707.5: the RK4 sum overflows in
        # the step from y = 708, here the landing step, partial or of zero length
        (["exp(y)", "10"], [0.0, 707.5], 0, 0, 0.0575, 5),
        (["exp(y)", "10"], [0.0, 707.5], 0, 0, 0.05, 5),
        (["exp(-y)", "10"], [0.0, -707.5], 0, 0, -0.0575, 5),
        (["exp(y)", "10"], [0.0, 707.5, 1.0, 0.0, 0.0, 1.0], 1, 1, jet_seed(0.0575, 1), 5),
        # x = 0 stays put while its tangent or covector overflows first in
        # the step that starts at |t| = 1.08
        (["1000*x"], [0.0, 1.0], 1, 0, 1.085, 108),
        (["1000*x"], [0.0, 1.0], 0, 1, -1.085, 108),
    ],
)
def test_divergence_at_the_landing_step_is_at_the_landing_time(components, state, tangents, covectors, duration,
                                                               recorded):
    rhs = linearized_rhs(vector_field(("x", "y")[: len(components)], components), tangents, covectors)
    outcome, samples = assert_segment_matches_loop(rhs, state, 0.0, duration, 1e-2)
    assert outcome == ("diverged", bits(fields.real_part(duration))) and len(samples) == recorded


def sparsity_mask(rng, m, kind):
    """J's nonzero pattern: True where component i reads x_j."""
    mask = rng.random((m, m)) < 0.5
    if kind == "dense":
        mask[:] = True
    elif kind in ("all zero", "single"):
        mask[:] = False
        mask[rng.integers(m), rng.integers(m)] = kind == "single"
    elif kind in ("zero rows", "zero columns"):
        cut = rng.permutation(m)[: int(rng.integers(1, m + 1))]
        mask[cut] = False
        if kind == "zero columns":
            mask = mask.T
    return mask.tolist()


def masked_field(rng, m, mask):
    """A polynomial field sum_j c_ij x_j^p_ij (plus a constant) over the mask's
    entries; each c_ij is nonzero, so J's structural nonzeros are the mask."""
    chart = tuple(f"x{i + 1}" for i in range(m))
    comps = []
    for row in mask:
        e = const(round(float(rng.uniform(-0.4, 0.4)), 3))
        for j, read in enumerate(row):
            if read:
                c = float(rng.choice([-1.0, 1.0]) * round(float(rng.uniform(0.05, 0.5)), 3))
                e = add(e, mul(const(c), pow_(var(chart[j]), int(rng.integers(1, 4)))))
        comps.append(e)
    return vector_field(chart, comps)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.sampled_from(["dense", "zero rows", "zero columns", "all zero", "single", "random"]),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(0, 3),
    st.sampled_from([0.0, 5e-324, 1e-15, "partial"]),
    st.sampled_from([0, 1, 2]),
    st.booleans(),
)
def test_structural_zeros_of_j_leave_every_bit_as_the_step_loop(seed, m, kind, tangents, covectors, steps,
                                                                landing, depth, backward):
    # the segment carries a block vector only through J's nonzero entries; a
    # row (tangent) or column (covector) with none is d + h * 0.0 per step,
    # which must keep the sign of zero entries and of h, at float and Dual
    # durations, for a subnormal or tiny landing step as well as a whole one
    rng = np.random.default_rng(seed)
    mask = sparsity_mask(rng, m, kind)
    vf = masked_field(rng, m, mask)
    assert [[not is_zero(e) for e in row] for row in vf.jacobian()] == mask
    state = draw_state(rng, m, tangents, covectors, False, -0.5, 0.5)
    for k in range(m, len(state)):
        if rng.random() < 0.4:
            state[k] = float(rng.choice([-0.0, 0.0]))
    length = 0.01 * steps + (float(rng.uniform(0.0, 0.01)) if landing == "partial" else landing)
    assume(length != 0.0)
    duration = jet_seed(length, depth) if depth else length
    duration = -duration if backward else duration
    assert_segment_matches_loop(linearized_rhs(vf, tangents, covectors), state, 0.25, duration, 0.01)


@pytest.mark.parametrize("m", [8, 16])
def test_chained_form_batch_transport_matches_the_step_loop(m, monkeypatch):
    # the chained form's J has m - 2 nonzeros: rows 1 and 2 and columns 1 and
    # m are zero.  A batch moved across a switch by the generated segment, and
    # each vector moved alone, equal the step loop (a wrapped rhs) bit for bit
    system = chained_form(m)
    sched = ocp.piecewise_schedule([0.0, 0.45], [[1.0, 0.0], [-0.6, 0.8]])
    ref = ocp.integrate_trajectory(system, [0.0] * m, sched, (0.0, 1.0), 1e-2)
    rng = np.random.default_rng(m)
    base = ref.point_at(0.2)
    vectors = [TangentVector(base, rng.uniform(-1.0, 1.0, size=m)) for _ in range(3)]
    vectors.append(TangentVector(base, np.array([-0.0, 0.0] * (m // 2))))

    def moved(vs):
        return [[bits(c) for c in w.components.tolist()] for w in ocp.transport_vector(system, ref, 0.2, 1.0, vs)]

    batch = moved(vectors)
    assert batch == [w for v in vectors for w in moved([v])]
    state = draw_state(rng, m, 2, 2, False, -0.5, 0.5)
    state[m:m + 2] = [-0.0, 0.0]
    for u in ([1.0, 0.0], [-0.6, 0.8]):
        assert_segment_matches_loop(linearized_rhs(system, 2, 2, u), state, 0.0, -0.4, 0.01)
    def looped(*args):  # a plain callable runs in the step loop
        rhs = linearized_rhs(*args)
        return lambda t, x: rhs(t, x)

    monkeypatch.setattr(ocp, "linearized_rhs", looped)
    assert moved(vectors) == batch

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geocon.fields import TangentVector, as_point, eval_vector_field, linearized_rhs
from geocon.ocp import (
    Biextremal,
    DegenerateMomentumError,
    InvariantViolationError,
    NormalLiftSearch,
    OcpError,
    Trajectory,
    audit_necessary_conditions,
    build_control_affine,
    classify_extremal,
    expression_schedule,
    extend_system,
    hamiltonian,
    hamiltonian_control_gradient,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
    search_normal_lift,
    transport_vector,
)


def test_build_rejects_bad_dimension():
    with pytest.raises(OcpError):
        build_control_affine(("x", "y"), ["0", "0"], [["1"]], [(-1, 1)])


def test_build_uncontrolled_system():
    sys = build_control_affine(("x",), ["x"], [], [])
    assert sys.k == 0
    assert sys.slice_field(()).components[0].__class__.__name__ == "Var"


def test_extend_time_optimal(martinet):
    ext = extend_system(martinet, "1")
    vf = ext.slice_field((0.0, 1.0))
    out = eval_vector_field(vf, as_point([0.0, 0.0, 0.0, 0.0]))
    assert out[0] == 1.0


def test_extended_field_ignores_cost_coordinate(martinet_extended):
    vf = martinet_extended.slice_field((1.0, 1.0))
    a = eval_vector_field(vf, as_point([5.0, 0.1, 0.2, 0.3]))
    b = eval_vector_field(vf, as_point([0.0, 0.1, 0.2, 0.3]))
    assert np.array_equal(a, b)


def test_extend_rejects_reserved_name():
    sys = build_control_affine(("x0", "y"), ["0", "0"], [["1", "0"]], [(-1, 1)])
    with pytest.raises(OcpError):
        extend_system(sys, "1")


def test_build_rejects_repeated_control_names():
    # with both inputs named u the flow would read one control for both
    with pytest.raises(OcpError, match="control names must be distinct"):
        build_control_affine(("x", "y"), ["0", "0"], [["1", "0"], ["0", "1"]], [(-1, 1)] * 2, ("u", "u"))


@pytest.mark.parametrize("breaks, values, message", [
    ([0.0], [[math.nan]], "control values must be finite"),  # was a DivergenceError near t = 0.001
    ([0.0], [[math.inf]], "control values must be finite"),
    ([0.0, 0.5], [[0.0], [-math.inf]], "control values must be finite"),
    ([math.nan, 0.5], [[0.0], [1.0]], "breakpoints must increase strictly"),
    ([math.nan], [[0.0]], "breakpoints must increase strictly"),
])
def test_a_schedule_refuses_a_nan_break_and_non_finite_controls(breaks, values, message):
    with pytest.raises(OcpError, match=message):
        piecewise_schedule(breaks, values)


@pytest.mark.parametrize("exprs, shown", [
    (["1e308*(t+10)", "0"], r"\[inf, 0.0\]"),  # was a DivergenceError near t = 0.001
    (["t", "1e308*(t+10) - 1e308*(t+11)"], r"\[0.0, nan\]"),
])
def test_an_expression_schedule_refuses_non_finite_controls(exprs, shown):
    sys = build_control_affine(("x", "y"), ["0", "0"], [["1", "0"], ["0", "1"]], [(-1, 1)] * 2)
    with pytest.raises(OcpError, match=f"control expressions give non-finite values {shown} at t = 0$"):
        integrate_trajectory(sys, [0.0, 0.0], expression_schedule(exprs), (0.0, 1.0))


def test_piecewise_rows_must_match_each_other_and_the_system():
    sys = build_control_affine(("x", "y"), ["0", "0"], [["1", "0"], ["0", "1"]], [(-1, 1)] * 2)
    with pytest.raises(OcpError, match="same number of values"):
        piecewise_schedule([0.0, 0.5], [[1.0, 0.0], [1.0]])
    # every flow (trajectory, biextremal, transport) refuses a third control
    wide = piecewise_schedule([0.0], [[1.0, 0.0, 5.0]])
    with pytest.raises(OcpError, match="3 controls for 2 inputs"):
        integrate_trajectory(sys, [0.0, 0.0], wide, (0.0, 1.0))
    with pytest.raises(OcpError, match="3 controls for 2 inputs"):
        integrate_biextremal(sys, [0.0, 0.0], [1.0, 0.0], wide, (0.0, 1.0), "reduced")
    ref = integrate_trajectory(sys, [0.0, 0.0], piecewise_schedule([0.0], [[1.0, 0.0]]), (0.0, 1.0))
    narrow = Trajectory(ref.interval, ref.ts, ref.xs, expression_schedule(["1"]))
    with pytest.raises(OcpError, match="1 controls for 2 inputs"):
        transport_vector(sys, narrow, 0.5, 1.0, [TangentVector(ref.point_at(0.5), np.array([1.0, 0.0]))])


def test_hamiltonian_martinet_annihilator(martinet):
    H = hamiltonian([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], (0.0, 1.0), martinet)
    assert H == 0.0
    assert hamiltonian([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], (0.0, 1.0), martinet) == 0.0


def test_hamiltonian_extended_cost_term(martinet_extended):
    H = hamiltonian(
        [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], (1.0, 0.0), martinet_extended
    )
    assert abs(H - (-0.5)) <= 1e-15


@pytest.mark.parametrize("lam, x, u, message", [
    ([0, 0, 1], [0.1, 0.2, 0.3], [0.5, 1, 99], "3 control values for 2 inputs"),  # the third control was ignored
    ([0, 0, 1], [0.1, 0.2, 0.3], [0.5], "1 control values for 2 inputs"),  # a bare IndexError
    ([0, 0, 1], [0.1, 0.2, 0.3, 5, 6], [0.5, 1], "covector/state dimension"),
    ([0, 0, 1, 0], [0.1, 0.2, 0.3], [0.5, 1], "covector/state dimension"),
])
def test_the_hamiltonian_helpers_refuse_inputs_of_the_wrong_length(martinet, lam, x, u, message):
    for helper in (hamiltonian, hamiltonian_control_gradient):
        with pytest.raises(OcpError, match=message):
            helper(lam, x, u, martinet)


@pytest.mark.parametrize("x, u, message", [
    ([0, 0.1, 0.2, 0.3, 9.9], [0.5, 1, 3], "covector/state dimension"),  # 9.9 was read as u1
    ([0, 0.1, 0.2, 0.3], [0.5], "1 control values for 2 inputs"),  # unknown identifier 'u2'
])
def test_the_extended_hamiltonian_helpers_refuse_inputs_of_the_wrong_length(martinet_extended, x, u, message):
    for helper in (hamiltonian, hamiltonian_control_gradient):
        with pytest.raises(OcpError, match=message):
            helper([-1, 0, 0, 1], x, u, martinet_extended)
    with pytest.raises(OcpError, match="df/du takes 3 state and 2 control values"):
        martinet_extended.control_vectors(x[1:], u)


def test_hamilton_rhs_constant_drift():
    sys = build_control_affine(("x", "y"), ["1", "0"], [], [])
    out = linearized_rhs(sys, covectors=1, controls=[])(0.0, [0.0, 0.0, 0.4, -0.3])
    assert np.allclose(out[:2], [1.0, 0.0])
    assert np.allclose(out[2:], [0.0, 0.0])


def test_hamilton_rhs_linear_system():
    sys = build_control_affine(("x",), ["x"], [], [])
    dx, dlam = linearized_rhs(sys, covectors=1, controls=[])(0.0, [2.0, 0.5])
    assert dx == 2.0
    assert dlam == -0.5


def test_biextremal_linear_closed_form():
    sys = build_control_affine(("x",), ["x"], [], [])
    sched = piecewise_schedule([0.0], [[]])
    bx = integrate_biextremal(sys, [1.0], [1.0], sched, (0.0, 1.0), "reduced", 1e-3)
    assert abs(bx.momenta[-1][0] - math.exp(-1.0)) <= 1e-9
    assert abs(bx.trajectory.xs[-1][0] - math.e) <= 1e-9


def test_biextremal_martinet_constant_momentum(martinet):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], sched, (0.0, 1.0), "reduced", 1e-3
    )
    assert np.allclose(bx.trajectory.xs[-1], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.max(np.abs(bx.momenta - np.array([0.0, 0.0, 1.0]))) == 0.0


def test_biextremal_zero_duration(martinet):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], sched, (0.0, 0.0), "reduced"
    )
    assert len(bx.trajectory.ts) == 1
    assert np.allclose(bx.momenta[0], [0.0, 0.0, 1.0])


def test_biextremal_rejects_zero_momentum(martinet):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    with pytest.raises(DegenerateMomentumError):
        integrate_biextremal(
            martinet, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], sched, (0.0, 1.0), "reduced"
        )


def test_extended_cost_multiplier_structurally_constant(martinet_extended):
    sched = piecewise_schedule([0.0], [[0.3, 0.8]])
    bx = integrate_biextremal(
        martinet_extended,
        [0.0, 0.1, 0.0, 0.0],
        [-1.0, 0.2, 0.1, 0.4],
        sched,
        (0.0, 1.0),
        "extended",
        1e-3,
    )
    assert np.max(np.abs(bx.momenta[:, 0] + 1.0)) == 0.0
    assert bx.lambda0 == -1.0


def test_hamiltonian_conservation_fixed_control():
    sys = build_control_affine(("x", "y"), ["y", "-sin(x)"], [], [])
    sched = piecewise_schedule([0.0], [[]])
    bx = integrate_biextremal(sys, [0.4, -0.2], [0.3, 0.7], sched, (0.0, 1.0), "reduced", 1e-3)
    H = [
        hamiltonian(bx.momenta[i], bx.trajectory.xs[i], (), sys)
        for i in range(0, len(bx.trajectory.ts), 50)
    ]
    assert max(abs(h - H[0]) for h in H) <= 1e-8


def test_adjoint_pushforward_duality():
    rng = np.random.default_rng(5)
    from tests.conftest import random_control_affine

    sys = random_control_affine(rng, m=3, k=1)
    sched = piecewise_schedule([0.0], [[0.4]])
    ref = integrate_trajectory(sys, [0.1, -0.2, 0.15], sched, (0.0, 0.8), 1e-3)
    lam0 = rng.uniform(-1, 1, size=3)
    bx = integrate_biextremal(sys, ref.xs[0], lam0, sched, (0.0, 0.8), "reduced", 1e-3)
    w0 = TangentVector(as_point(ref.xs[0]), rng.uniform(-1, 1, size=3))
    pairings = []
    for t in (0.0, 0.2, 0.5, 0.8):
        (wt,) = transport_vector(sys, ref, 0.0, t, [w0], step=1e-3)
        lt = bx.covector_at(t)
        pairings.append(float(np.dot(lt.components, wt.components)))
    assert max(abs(p - pairings[0]) for p in pairings) <= 1e-7


def test_driftless_annihilating_momentum_gives_zero_hamiltonian(martinet):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], sched, (0.0, 1.0), "reduced"
    )
    H = [
        hamiltonian(bx.momenta[i], bx.trajectory.xs[i], bx.trajectory.control_at(t), martinet)
        for i, t in enumerate(bx.trajectory.ts[::100])
    ]
    assert max(abs(h) for h in H) <= 1e-9


def test_classify_normal():
    bx = _fake_extended_biextremal(lambda0=-1.0)
    assert classify_extremal(bx).kind == "normal"


def test_classify_abnormal_inconclusive(martinet_extended, martinet_reference):
    search = search_normal_lift(martinet_extended, martinet_reference, grid_per_axis=10)
    assert search.found is None
    assert search.candidates == 1000
    bx = _fake_extended_biextremal(lambda0=0.0)
    cls = classify_extremal(bx, search)
    assert cls.kind == "abnormal"
    assert "inconclusive" in cls.label


def test_classify_abnormal_with_a_normal_lift():
    # a lift that was found keeps the kind abnormal but withdraws strictness
    search = NormalLiftSearch(np.array([-1.0, 0.0]), 1, 1e-8, 0.0, "one candidate")
    cls = classify_extremal(_fake_extended_biextremal(lambda0=0.0), search)
    assert cls.kind == "abnormal"
    assert cls.label == "abnormal (a normal lift exists: not strictly abnormal)"


def test_classify_rejects_positive_multiplier():
    bx = _fake_extended_biextremal(lambda0=0.5)
    with pytest.raises(InvariantViolationError):
        classify_extremal(bx)


def _fake_extended_biextremal(lambda0):
    from geocon.ocp import Trajectory

    sched = piecewise_schedule([0.0], [[0.0]])
    ts = np.array([0.0, 1.0])
    xs = np.zeros((2, 2))
    momenta = np.array([[lambda0, 1.0], [lambda0, 1.0]])
    traj = Trajectory((0.0, 1.0), ts, xs, sched)
    return Biextremal(traj, momenta, "extended", lambda0)


def test_normal_lift_search_finds_one_when_grid_contains_it():
    # single integrator with energy cost: p = (0) fails, but a grid through
    # u_ref = 0 and p1 = 0 admits the normal lift
    sys = build_control_affine(("x",), ["0"], [["1"]], [(-2.0, 2.0)])
    ext = extend_system(sys, "0.5*u1^2")
    sched = piecewise_schedule([0.0], [[0.0]])
    ref = integrate_trajectory(sys, [0.0], sched, (0.0, 1.0), 1e-2)
    search = search_normal_lift(ext, ref, grid_per_axis=11, step=1e-2)
    assert search.found is not None  # p1 = 0 is on an odd grid


def test_normal_lift_search_follows_expression_controls():
    # x' = u1 x with u1 = t and cost 0.5 u1^2 + x: with p0 = -1,
    # dH/du1 = -t + p(t) x(t) = p(0) - t + int_0^t exp(s^2/2) ds, whose
    # largest size over the samples is smallest at the grid point p(0) = 0
    sys = build_control_affine(("x",), ["0"], [["x"]], [(-2.0, 2.0)])
    ext = extend_system(sys, "0.5*u1^2 + x")
    ref = integrate_trajectory(sys, [1.0], expression_schedule(["t"]), (0.0, 1.0), 1e-3)
    search = search_normal_lift(ext, ref, grid_per_axis=5)
    # int_0^1 exp(s^2/2) ds = sum_k 1 / (2^k k! (2k + 1))
    integral = sum(1.0 / (2**k * math.factorial(k) * (2 * k + 1)) for k in range(20))
    assert abs(search.best_residual - (integral - 1.0)) <= 1e-9
    assert abs(search.best_residual - 0.1949577) <= 1e-7


def test_audit_martinet_abnormal_all_pass(martinet, martinet_reference):
    from geocon.cone import assemble_cone

    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], sched, (0.0, 1.0), "reduced"
    )
    cone = assemble_cone(martinet, martinet_reference, 1.0, [0.25, 0.5, 0.75, 1.0])
    report = audit_necessary_conditions(bx, cone, martinet)
    assert report.passed
    H0 = next(c for c in report.conditions if c.id == "H-constant")
    assert abs(H0.detail["H_initial"]) <= 1e-9


def test_audit_flipped_covector_still_supports(martinet, martinet_reference):
    from geocon.cone import assemble_cone

    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [0.0, 0.0, -1.0], sched, (0.0, 1.0), "reduced"
    )
    cone = assemble_cone(martinet, martinet_reference, 1.0, [0.25, 0.5, 0.75, 1.0])
    report = audit_necessary_conditions(bx, cone, martinet)
    assert report.passed


def test_audit_random_covector_fails_stationarity(martinet, martinet_reference):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], sched, (0.0, 1.0), "reduced"
    )
    report = audit_necessary_conditions(bx, None, martinet)
    stat = next(c for c in report.conditions if c.id == "stationarity")
    assert not stat.passed


def test_expression_schedule_integration():
    sys = build_control_affine(("x",), ["0"], [["1"]], [(-2.0, 2.0)])
    sched = expression_schedule(["sin(t)"])
    traj = integrate_trajectory(sys, [0.0], sched, (0.0, 1.0), 1e-3)
    assert abs(traj.xs[-1][0] - (1.0 - math.cos(1.0))) <= 1e-9


def test_expression_schedule_biextremal():
    # constant input field: zero Jacobian, so the momentum stays put while
    # the state tracks the integral of the control law
    sys = build_control_affine(("x",), ["0"], [["1"]], [(-2.0, 2.0)])
    sched = expression_schedule(["cos(t)"])
    bx = integrate_biextremal(sys, [0.0], [0.7], sched, (0.0, 1.0), "reduced", 1e-3)
    assert abs(bx.trajectory.xs[-1][0] - math.sin(1.0)) <= 1e-9
    assert np.max(np.abs(bx.momenta - 0.7)) == 0.0


def test_biextremal_momentum_across_switches():
    # the adjoint flow is continuous through control switches
    sys = build_control_affine(
        ("x", "y"), ["0", "0"], [["y", "0"], ["0", "x"]], [(-2, 2), (-2, 2)]
    )
    sched = piecewise_schedule([0.0, 0.3, 0.6], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    bx = integrate_biextremal(sys, [0.4, 0.2], [1.0, -1.0], sched, (0.0, 1.0), "reduced", 1e-3)
    ts = bx.trajectory.ts
    assert np.all(np.diff(ts) > 0)
    assert any(abs(t - 0.3) < 1e-12 for t in ts)  # switches land on samples
    assert any(abs(t - 0.6) < 1e-12 for t in ts)
    dm = np.max(np.abs(np.diff(bx.momenta, axis=0)), axis=1)
    assert np.max(dm) <= 5e-3  # no jumps beyond one RK4 step's worth


def test_transport_across_switches():
    sys = build_control_affine(("x", "y"), ["0", "0"], [["1", "0"], ["0", "1"]], [(-2, 2), (-2, 2)])
    sched = piecewise_schedule([0.0, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    ref = integrate_trajectory(sys, [0.0, 0.0], sched, (0.0, 1.0), 1e-2)
    v = TangentVector(as_point([0.0, 0.0]), np.array([1.0, -1.0]))
    (out,) = transport_vector(sys, ref, 0.0, 1.0, [v], step=1e-2)
    # constant input fields have zero Jacobian: components unchanged
    assert np.allclose(out.components, [1.0, -1.0], atol=1e-12)
    assert np.allclose(out.base.coords, [0.5, 0.5], atol=1e-9)


def test_trajectory_times_strictly_increase_for_awkward_steps():
    # n*step can round a hair above the duration; the recorded landing
    # must still keep times strictly increasing
    sys = build_control_affine(("x",), ["x"], [], [])
    sched = piecewise_schedule([0.0], [[]])
    for dur, step in [(0.30000000000000004, 0.1), (0.7, 0.1), (0.6, 0.2), (0.51, 0.17)]:
        traj = integrate_trajectory(sys, [1.0], sched, (0.0, dur), step)
        assert np.all(np.diff(traj.ts) > 0)
        assert abs(traj.ts[-1] - dur) <= 1e-15
        assert abs(traj.xs[-1][0] - math.exp(dur)) <= 1e-4


def test_normal_lift_search_without_inputs_is_vacuous():
    sys = build_control_affine(("x",), ["x"], [], [])
    ext = extend_system(sys, "x^2")
    sched = piecewise_schedule([0.0], [[]])
    ref = integrate_trajectory(sys, [0.5], sched, (0.0, 0.5), 1e-2)
    search = search_normal_lift(ext, ref, grid_per_axis=3)
    assert search.found is not None
    assert search.best_residual == 0.0


def test_audit_optional_grid_maximum(martinet, martinet_reference):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], sched, (0.0, 1.0), "reduced"
    )
    report = audit_necessary_conditions(
        bx, None, martinet, hamiltonian_grid_check=True
    )
    grid = next(c for c in report.conditions if c.id == "grid-maximum")
    assert grid.passed


def test_box_grid_is_every_combination_of_the_axis_points():
    import itertools

    from geocon.ocp import _box_grid

    # interior points of each finite side, -1, 0, 1 on an unbounded one
    box = [(-2.0, 2.0), (-math.inf, 1.5), (0.1, 0.7)]
    axes = [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.1 + f * (0.7 - 0.1) for f in (0.25, 0.5, 0.75)]]
    assert [g.tolist() for g in _box_grid(box)] == [list(p) for p in itertools.product(*axes)]


def test_grid_maximum_finds_the_gain_at_a_box_vertex():
    # constant input fields keep the momentum at phi = dH/du = (10, -1); on
    # the box [-2, 2]^2 the reference u = (2, 2) loses to the vertex (2, -2)
    # by 4, although it beats every interior grid point
    sys = build_control_affine(("x", "y"), ["0", "0"], [["1", "0"], ["0", "1"]], [(-2.0, 2.0)] * 2)
    sched = piecewise_schedule([0.0], [[2.0, 2.0]])
    bx = integrate_biextremal(sys, [0.0, 0.0], [10.0, -1.0], sched, (0.0, 1.0), "reduced")
    report = audit_necessary_conditions(bx, None, sys, hamiltonian_grid_check=True)
    grid = next(c for c in report.conditions if c.id == "grid-maximum")
    assert not grid.passed
    assert grid.detail == {"max_excess": 4.0}
    # a zero slope times an infinite bound contributes nothing
    box = [(-2.0, 2.0), (-math.inf, math.inf)]
    unbounded = build_control_affine(("x", "y"), ["0", "0"], [["1", "0"], ["0", "1"]], box)
    bx = integrate_biextremal(unbounded, [0.0, 0.0], [1.0, 0.0], sched, (0.0, 1.0), "reduced")
    report = audit_necessary_conditions(bx, None, unbounded, hamiltonian_grid_check=True)
    grid = next(c for c in report.conditions if c.id == "grid-maximum")
    assert grid.passed and grid.detail == {"max_excess": 0.0}


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(1, 6),
    st.floats(0.0, 0.25),
    st.floats(0.7, 1.0),
    st.booleans(),
)
def test_batched_transport_equals_one_vector_calls(seed, m, count, t_lo, t_hi, backward):
    # one integration carrying N vectors must give each vector exactly what
    # moving it alone gives, across both switches and in both directions
    from tests.conftest import random_control_affine

    rng = np.random.default_rng(seed)
    sys = random_control_affine(rng, m=m)
    values = rng.uniform(-1.0, 1.0, size=(3, sys.k)).tolist()
    sched = piecewise_schedule([0.0, 0.3, 0.65], values)
    ref = integrate_trajectory(sys, rng.uniform(-0.3, 0.3, size=m), sched, (0.0, 1.0), 1e-2)
    t0, t1 = (t_hi, t_lo) if backward else (t_lo, t_hi)
    base = ref.point_at(t0)
    vectors = [TangentVector(base, rng.uniform(-1.0, 1.0, size=m)) for _ in range(count)]
    batch = transport_vector(sys, ref, t0, t1, vectors, step=1e-2)
    assert len(batch) == count
    for v, w in zip(vectors, batch):
        (alone,) = transport_vector(sys, ref, t0, t1, [v], step=1e-2)
        assert w.base.coords.tolist() == alone.base.coords.tolist()
        assert w.components.tolist() == alone.components.tolist()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 7),
    st.integers(1, 3),
    st.sampled_from([1e-3, 7e-3, 1e-2]),
    st.booleans(),
)
def test_a_biextremal_carries_the_reference_trajectory_bit_for_bit(seed, m, pieces, step, extended):
    # the state rows of the coupled flow are the reference flow's, step for
    # step, so `audit` builds its cone along bx.trajectory
    from tests.conftest import random_control_affine

    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m)
    breaks = [0.0, *sorted(rng.choice(np.arange(1, 20) / 20, size=pieces - 1, replace=False).tolist())]
    sched = piecewise_schedule(breaks, np.round(rng.uniform(-1.0, 1.0, size=(pieces, system.k)), 3).tolist())
    x0, lam0 = rng.uniform(-0.3, 0.3, size=m), rng.uniform(-1.0, 1.0, size=m)
    mode = "extended" if extended else "reduced"
    if extended:
        system = extend_system(system, "0.5*u1^2 + x1^2")
        x0, lam0 = np.concatenate([[0.0], x0]), np.concatenate([[-1.0], lam0])
    ref = integrate_trajectory(system, x0, sched, (0.0, 1.0), step)
    bx = integrate_biextremal(system, x0, lam0, sched, (0.0, 1.0), mode, step)
    assert bx.trajectory.ts.tobytes() == ref.ts.tobytes()
    assert bx.trajectory.xs.tobytes() == ref.xs.tobytes()


def test_transport_rejects_mixed_base_points():
    sys = build_control_affine(("x",), ["x"], [["1"]], [(-1.0, 1.0)])
    ref = integrate_trajectory(sys, [0.1], piecewise_schedule([0.0], [[0.0]]), (0.0, 1.0), 1e-2)
    vs = [TangentVector(as_point([0.1]), [1.0]), TangentVector(as_point([0.2]), [1.0])]
    with pytest.raises(OcpError):
        transport_vector(sys, ref, 0.0, 1.0, vs)
    assert transport_vector(sys, ref, 0.0, 1.0, []) == []


def _full_grid_scan(W, axis, m, tol):
    """The whole-grid normal-lift scan that the blocked scan replaces: every
    candidate column and the whole (rows x grid^m) product at once."""
    mesh = np.meshgrid(*([axis] * m), indexing="ij")
    P = np.stack([g.ravel() for g in mesh], axis=0)
    cand = np.vstack([-np.ones((1, P.shape[1])), P])
    residuals = np.max(np.abs(W @ cand), axis=0)
    best = int(np.argmin(residuals))
    found = cand[:, best].copy() if residuals[best] <= tol else None
    return residuals, best, found


def _full_grid_scan_as_running_minimum(W, axis, m, tol):
    """:func:`_full_grid_scan` in the shape `_scan_lift_grid` returns."""
    residuals, best, found = _full_grid_scan(W, axis, m, tol)
    return best, residuals[best], found


def _assert_same_scan(W, axis, m, tol):
    from geocon.ocp import _lift_residuals, _scan_lift_grid

    with np.errstate(invalid="ignore"):  # inf * 0 in the NaN cases
        residuals = np.concatenate([block.copy() for block in _lift_residuals(W, axis, m)])
        best, low, found = _scan_lift_grid(W, axis, m, tol)
        ref_residuals, ref_best, ref_found = _full_grid_scan(W, axis, m, tol)
    assert residuals.tobytes() == ref_residuals.tobytes()
    assert best == ref_best
    assert np.float64(low).tobytes() == ref_residuals[ref_best].tobytes()
    assert (found is None) == (ref_found is None)
    if found is not None:
        assert found.dtype == ref_found.dtype and found.tobytes() == ref_found.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    grid=st.sampled_from([1, 2, 3, 5, 7, 10, 11]),
    rows=st.integers(1, 24),
    kind=st.sampled_from(["found", "not found", "zero", "nan"]),
)
def test_blocked_lift_scan_equals_the_full_grid(seed, m, grid, rows, kind):
    if m == 6:
        grid = min(grid, 7)  # keep the reference product small
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(rows, m + 1)) * 10.0 ** rng.integers(-6, 7, size=(rows, m + 1))
    W[rng.random(rows) < 0.25] = 0.0
    if kind == "zero":
        W[:] = 0.0  # every candidate ties; the first one wins
    if kind == "nan":
        W[rng.integers(rows), rng.integers(m + 1)] = np.inf  # inf * 0 = NaN on some columns
    axis = np.linspace(-1.0, 1.0, grid)
    with np.errstate(invalid="ignore"):
        reference = _full_grid_scan(W, axis, m, -1.0)[0]
    tol = float(np.nanmin(reference)) if kind in ("found", "zero") and not np.isnan(reference).all() else -1.0
    _assert_same_scan(W, axis, m, tol)


def test_blocked_lift_scan_at_m6_with_ten_points_per_axis():
    rng = np.random.default_rng(6)
    W = rng.normal(size=(3, 7)) * 10.0 ** rng.integers(-4, 5, size=(3, 7))
    reference = _full_grid_scan(W, np.linspace(-1.0, 1.0, 10), 6, -1.0)[0]
    for tol in (-1.0, float(np.min(reference))):
        _assert_same_scan(W, np.linspace(-1.0, 1.0, 10), 6, tol)


def test_normal_lift_search_scans_blocks_like_the_full_grid(monkeypatch):
    import geocon.ocp as ocp_module
    from tests.conftest import random_control_affine

    system = random_control_affine(np.random.default_rng(21), m=5, k=2)
    ext = extend_system(system, "0.5*(u1^2 + u2^2)")
    sched = piecewise_schedule([0.0, 0.5], [[0.4, -0.3], [-0.2, 0.6]])
    ref = integrate_trajectory(system, [0.1, -0.2, 0.3, 0.05, 0.2], sched, (0.0, 1.0), 1e-2)
    for tol in (1e-6, 1.0):  # no lift, then a tolerance above the best residual
        blocked = search_normal_lift(ext, ref, tol=tol, step=1e-2)
        with monkeypatch.context() as patch:
            patch.setattr(ocp_module, "_scan_lift_grid", _full_grid_scan_as_running_minimum)
            full = search_normal_lift(ext, ref, tol=tol, step=1e-2)
        assert blocked.candidates == full.candidates == 10**5
        assert blocked.best_residual == full.best_residual
        assert (blocked.found is None) == (full.found is None)
        if full.found is not None:
            assert blocked.found.tobytes() == full.found.tobytes()


def _traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while `call()` runs (numpy arrays included)."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lift_scan_memory_does_not_grow_with_the_grid():
    # one float per candidate would be 8 MB at m = 6; the blocks take about 2.3 MB
    from geocon.ocp import _scan_lift_grid

    W = np.random.default_rng(6).normal(size=(22, 7))
    assert _traced_peak(lambda: _scan_lift_grid(W, np.linspace(-1.0, 1.0, 10), 6, 1e-6)) < 4e6


def test_normal_lift_search_at_m6_fits_in_three_megabytes():
    from tests.conftest import random_control_affine

    system = random_control_affine(np.random.default_rng([0, 6]), m=6, k=2)
    ext = extend_system(system, "0.5*(u1^2 + u2^2)")
    sched = piecewise_schedule([0.0, 0.4], [[0.4, -0.3], [-0.2, 0.6]])
    ref = integrate_trajectory(system, [0.1, -0.2, 0.15, 0.05, 0.2, -0.1], sched, (0.0, 1.0), 0.05)
    search = search_normal_lift(ext, ref, step=0.05)  # compiles the extended segment
    # few steps, since tracemalloc slows the flow about a hundredfold; the
    # next test bounds the states a long flow keeps
    assert _traced_peak(lambda: search_normal_lift(ext, ref, step=0.05)) < 3e6
    assert search.candidates == 10**6


def test_normal_lift_search_keeps_only_states_near_its_sample_times(martinet_extended, martinet_reference, monkeypatch):
    import geocon.ocp as ocp_module

    flows, recorded_flow = [], ocp_module._recorded_flow

    def capturing(*args, **kwargs):
        flows.append(recorded_flow(*args, **kwargs))
        return flows[-1]

    monkeypatch.setattr(ocp_module, "_recorded_flow", capturing)
    search_normal_lift(martinet_extended, martinet_reference, sample_count=11, step=1e-3)
    (ts, states), = flows
    kept = [t for t, state in zip(ts, states) if state is not None]
    assert len(ts) == 1001 and len(kept) <= 3 * 11
    assert all(min(abs(t - s) for s in np.linspace(0.0, 1.0, 11)) <= 1e-3 for t in kept)


@pytest.mark.parametrize(
    "bad",
    [
        {"grid_per_axis": 0},
        {"grid_per_axis": -2},
        {"sample_count": 0},
        {"momentum_bound": math.nan},
        {"momentum_bound": -1.0},
        {"momentum_bound": 0.0},
        {"momentum_bound": math.inf},
        {"tol": math.nan},
    ],
    ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
)
def test_normal_lift_search_rejects_bad_arguments(martinet_extended, martinet_reference, bad):
    with pytest.raises(OcpError):
        search_normal_lift(martinet_extended, martinet_reference, **bad)


def _rows_from_every_state(ext, reference, sample_count, step):
    """(W, landings): the stationarity rows `search_normal_lift` builds,
    taken from a flow that records every state, then the state nearest each
    sample time; `landings` counts the landing steps that replaced a state."""
    from geocon.ocp import _flow

    n = ext.base.m + 1
    a, b = reference.interval
    state = [0.0] + [float(v) for v in reference.xs[0]]
    state += [1.0 if i == c else 0.0 for c in range(n) for i in range(n)]
    ts, states, landings = [a], [list(state)], []

    def record(t, s):
        if t > ts[-1]:
            ts.append(t)
            states.append(list(s))
        elif t < ts[-1] or s != states[-1]:
            states[-1] = list(s)
            landings.append(t)

    _flow(ext, reference.schedule, a, b, state, step, covectors=n, record=record)
    rts = np.asarray(ts)
    rows = []
    for t in np.linspace(a, b, sample_count):
        i = int(np.argmin(np.abs(rts - t)))
        st = states[i]
        psi_t = np.asfortranarray(np.asarray(st[n:]).reshape(n, n))
        for v in ext.control_vectors(st[1:n], [float(u) for u in reference.schedule.value_at(float(rts[i]))]):
            rows.append(psi_t @ np.asarray(v, dtype=float))
    return np.asarray(rows), len(landings)


def _assert_lift_rows_as_from_every_state(seed, m, switch, step, sample_count) -> int:
    from unittest import mock

    import geocon.ocp as ocp_module
    from tests.conftest import random_control_affine

    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m)
    ext = extend_system(system, "0.5*u1^2 + x1^2")
    sched = piecewise_schedule([0.0, switch], np.round(rng.uniform(-1.0, 1.0, size=(2, system.k)), 3).tolist())
    ref = Trajectory((0.0, 1.0), [0.0], [rng.uniform(-0.3, 0.3, size=m)], sched)
    captured, scan = [], ocp_module._scan_lift_grid

    def capturing(W, axis, m, tol):
        captured.append(W.copy())
        return scan(W, axis, m, tol)

    with mock.patch.object(ocp_module, "_scan_lift_grid", capturing):
        search_normal_lift(ext, ref, grid_per_axis=2, sample_count=sample_count, step=step)
    expected, landings = _rows_from_every_state(ext, ref, sample_count, step)
    assert len(captured) == 1
    assert captured[0].shape == expected.shape and captured[0].tobytes() == expected.tobytes()
    return landings


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    switch=st.sampled_from([0.45, 0.7, 0.85]) | st.floats(0.05, 0.95),
    step=st.sampled_from([0.011, 0.03, 0.06, 0.07, 0.13, 0.3]),
    sample_count=st.integers(1, 13),
)
def test_lift_keeps_the_states_a_full_flow_would_pick(seed, m, switch, step, sample_count):
    # no step here divides the interval, and the switch splits it into two legs
    _assert_lift_rows_as_from_every_state(seed, m, switch, step, sample_count)


def test_lift_keeps_a_landing_that_replaces_a_state():
    # the leg (0.7, 1.0) takes ten steps of 0.03 to t = 1.0, then lands a
    # residue of about 6e-17 at the same time, which replaces the last state
    assert _assert_lift_rows_as_from_every_state(0, 3, 0.7, 0.03, 11) > 0


def interpolate_as_state_at_did(ts, xs, t):
    """The body `Trajectory.state_at` had before it shared one interpolation
    with `Biextremal.covector_at`."""
    if t <= ts[0]:
        return xs[0].copy()
    if t >= ts[-1]:
        return xs[-1].copy()
    i = int(np.searchsorted(ts, t, side="right")) - 1
    t0, t1 = ts[i], ts[i + 1]
    if t1 == t0:
        return xs[i].copy()
    w = (t - t0) / (t1 - t0)
    return (1.0 - w) * xs[i] + w * xs[i + 1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_one_interpolation_for_states_and_covectors(times, seed):
    # at, between and beyond the samples, repeated times included, states
    # and covectors interpolate exactly as state_at did
    rng = np.random.default_rng(seed)
    ts = np.asarray(sorted(times))
    xs = rng.normal(size=(len(ts), 3))
    lams = rng.normal(size=(len(ts), 3))
    traj = Trajectory((float(ts[0]), float(ts[-1])), ts, xs, piecewise_schedule([0.0], [[0.0]]))
    bx = Biextremal(traj, lams, "reduced", None)
    for t in [-1.0, *times, 0.05, 0.3, 0.6, 0.99, 2.0]:
        x = traj.state_at(t)
        assert x.tobytes() == interpolate_as_state_at_did(ts, xs, t).tobytes()
        assert bx.covector_at(t).components.tobytes() == interpolate_as_state_at_did(ts, lams, t).tobytes()
        x[:] = 7.0  # a copy, never a view of the samples
    assert not np.any(traj.xs == 7.0)

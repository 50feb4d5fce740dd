import math

import numpy as np
import pytest

from geocon.fields import (
    as_point,
    composite_flow,
    eval_vector_field,
    is_zero_field,
    lie_bracket,
    vector_field,
)
from geocon.mech import (
    MechError,
    build_acc_system,
    connection_spec,
    generator_families,
    spray_from_christoffel,
    vertical_lift,
)
from geocon.ocp import integrate_trajectory, piecewise_schedule


@pytest.fixture(scope="module")
def polar():
    # flat plane in polar-type coordinates: Gamma^1_22 = -x1, Gamma^2_12 = 1/x1
    zero, g122, g212 = "0", "-x1", "1/x1"
    gamma = [
        [[zero, zero], [zero, g122]],
        [[zero, g212], [g212, zero]],
    ]
    return connection_spec(("x1", "x2"), ("v1", "v2"), gamma)


def test_flat_spray():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    Z = spray_from_christoffel(conn)
    out = eval_vector_field(Z, as_point([0.3, -0.2, 1.5, 0.5]))
    assert np.allclose(out.components, [1.5, 0.5, 0.0, 0.0])


def test_one_dimensional_spray():
    conn = connection_spec(("x",), ("v",), [[["0"]]])
    Z = spray_from_christoffel(conn)
    out = eval_vector_field(Z, as_point([0.0, 3.0]))
    assert np.allclose(out.components, [3.0, 0.0])


def test_polar_spray_components(polar):
    Z = spray_from_christoffel(polar)
    out = eval_vector_field(Z, as_point([2.0, 0.0, 0.5, 0.3]))
    # (v1, v2, x1 v2^2, -2 v1 v2 / x1)
    assert np.allclose(out.components, [0.5, 0.3, 2.0 * 0.09, -2.0 * 0.5 * 0.3 / 2.0])


def test_polar_geodesics_are_straight_lines(polar):
    Z = spray_from_christoffel(polar)
    r, th, vr, vth = 1.0, 0.0, 0.3, 0.5
    end = composite_flow([Z], [1.0], as_point([r, th, vr, vth]), 1e-3)
    x = end.coords[0] * math.cos(end.coords[1])
    y = end.coords[0] * math.sin(end.coords[1])
    # cartesian straight line from (1, 0) with velocity (0.3, 0.5)
    assert abs(x - 1.3) <= 1e-6
    assert abs(y - 0.5) <= 1e-6


def test_polar_speed_conserved(polar):
    Z = spray_from_christoffel(polar)
    x0 = [1.0, 0.0, 0.3, 0.5]

    def speed(p):
        r, _, vr, vth = p
        return math.sqrt(vr * vr + r * r * vth * vth)

    end = composite_flow([Z], [1.0], as_point(x0), 1e-3)
    assert abs(speed(end.coords) - speed(x0)) <= 1e-6


def test_asymmetric_christoffel_rejected():
    gamma = [[["0", "1"], ["0", "0"]]]
    with pytest.raises(MechError):
        connection_spec(("x1", "x2"), ("v1", "v2"), gamma)  # wrong shape too

    bad = [
        [["0", "x1"], ["0", "0"]],
        [["0", "0"], ["0", "0"]],
    ]
    with pytest.raises(MechError):
        connection_spec(("x1", "x2"), ("v1", "v2"), bad)


def test_vertical_lift_basic():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    y = vector_field(("x1", "x2"), ["1", "0"])
    out = eval_vector_field(vertical_lift(y, conn), as_point([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.components, [0.0, 0.0, 1.0, 0.0])


def test_vertical_lift_carries_coefficients():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    y = vector_field(("x1", "x2"), ["x2", "0"])
    out = eval_vector_field(vertical_lift(y, conn), as_point([0.0, 2.5, 0.0, 0.0]))
    assert np.allclose(out.components, [0.0, 0.0, 2.5, 0.0])


def test_flat_drift_bracket_with_lift():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    Z = spray_from_christoffel(conn)
    lift = vertical_lift(vector_field(("x1", "x2"), ["1", "0"]), conn)
    br = lie_bracket(Z, lift)
    out = eval_vector_field(br, as_point([0.1, 0.2, 0.3, 0.4]))
    assert np.allclose(out.components, [-1.0, 0.0, 0.0, 0.0])


def test_vertical_lifts_commute_symbolically():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    a = vertical_lift(vector_field(("x1", "x2"), ["x2^2", "x1"]), conn)
    b = vertical_lift(vector_field(("x1", "x2"), ["1", "x1*x2"]), conn)
    assert is_zero_field(lie_bracket(a, b))


def test_build_acc_system_double_integrator():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    sys = build_acc_system(conn, [vector_field(("x1", "x2"), ["1", "0"])], [(-2.0, 2.0)])
    assert sys.m == 4 and sys.k == 1
    sched = piecewise_schedule([0.0], [[0.0]])
    traj = integrate_trajectory(sys, [0.0, 0.0, 1.0, 0.0], sched, (0.0, 1.0), 1e-3)
    assert np.allclose(traj.xs[-1], [1.0, 0.0, 1.0, 0.0], atol=1e-9)

    forced = integrate_trajectory(
        sys, [0.0, 0.0, 1.0, 0.0], piecewise_schedule([0.0], [[1.0]]), (0.0, 1.0), 1e-3
    )
    assert abs(forced.xs[-1][0] - 1.5) <= 1e-8  # t + t^2/2


def test_generator_families_flat_connection_identities():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    sys = build_acc_system(conn, [vector_field(("x1", "x2"), ["1", "0"])], [(-2.0, 2.0)])
    sched = piecewise_schedule([0.0], [[0.0]])
    ref = integrate_trajectory(sys, [0.0, 0.0, 1.0, 0.0], sched, (0.0, 1.0), 1e-2)
    report = generator_families(sys, ref)
    assert report.passed
    z0 = eval_vector_field(report.z0[0], ref.point_at(0.5)).components
    z1 = eval_vector_field(report.z1[0], ref.point_at(0.5)).components
    assert np.allclose(z0, [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(z1, [-1.0, 0.0, 0.0, 0.0])
    assert report.reduction_max_error <= 1e-9
    assert len(report.checks) == 4


def test_generator_families_polar_connection(polar):
    sys = build_acc_system(
        polar, [vector_field(("x1", "x2"), ["1", "0"])], [(-2.0, 2.0)]
    )
    sched = piecewise_schedule([0.0], [[0.2]])
    ref = integrate_trajectory(sys, [1.0, 0.0, 0.3, 0.5], sched, (0.0, 1.0), 1e-3)
    report = generator_families(sys, ref)
    assert report.passed
    assert report.reduction_max_error <= 1e-9


def test_annihilator_pairing_on_flat_families():
    conn = connection_spec(("x1", "x2"), ("v1", "v2"), [[["0", "0"], ["0", "0"]]] * 2)
    sys = build_acc_system(conn, [vector_field(("x1", "x2"), ["1", "0"])], [(-2.0, 2.0)])
    x = as_point([0.0, 0.0, 1.0, 0.0])
    lift_val = eval_vector_field(sys.inputs[0], x).components
    lam_good = np.array([0.0, 1.0, 0.0, 0.0])  # annihilates lift and bracket
    lam_bad = np.array([0.0, 0.0, 1.0, 0.0])  # pairs with the lift
    assert abs(np.dot(lam_good, lift_val)) == 0.0
    assert abs(np.dot(lam_bad, lift_val)) == 1.0

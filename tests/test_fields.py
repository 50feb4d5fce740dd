import math

import numpy as np
import pytest

from geocon.expr import Dual, real_part
from geocon.fields import (
    DEFAULT_STEP,
    Covector,
    DivergenceError,
    FieldError,
    Point,
    TangentVector,
    as_point,
    composite_flow,
    eval_vector_field,
    is_zero_field,
    lie_bracket,
    linearized_rhs,
    negate_field,
    rk4_path,
    vector_field,
)

XYZ = ("x1", "x2", "x3")

MARTINET_X1 = vector_field(XYZ, ["1", "0", "0"])
MARTINET_X2 = vector_field(XYZ, ["0", "1", "x1^2"])
HEIS_X1 = vector_field(XYZ, ["1", "0", "-x2/2"])
HEIS_X2 = vector_field(XYZ, ["0", "1", "x1/2"])


def bracket_fd_oracle(a, b, x, h=1e-6):
    """Finite-difference Jacobians: independent check of the symbolic bracket."""
    x = np.asarray(x, dtype=float)
    m = len(x)

    def jac(vf):
        J = np.zeros((m, m))
        for j in range(m):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fp = np.asarray(vf(list(xp)), dtype=float)
            fm = np.asarray(vf(list(xm)), dtype=float)
            J[:, j] = (fp - fm) / (2 * h)
        return J

    av = np.asarray(a(list(x)), dtype=float)
    bv = np.asarray(b(list(x)), dtype=float)
    return jac(b) @ av - jac(a) @ bv


def test_eval_constant_field():
    vf = vector_field(("x", "y"), ["1", "0"])
    out = eval_vector_field(vf, as_point([5.0, 5.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_eval_martinet_input():
    out = eval_vector_field(MARTINET_X2, as_point([2.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0, 4.0])


def test_eval_spray_chart():
    spray = vector_field(("x", "v"), ["v", "0"])
    out = eval_vector_field(spray, as_point([0.0, 3.0]))
    assert np.allclose(out, [3.0, 0.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(FieldError):
        eval_vector_field(MARTINET_X1, as_point([0.0, 0.0]))


def test_bracket_constant_fields_commute():
    dx = vector_field(("x", "y"), ["1", "0"])
    dy = vector_field(("x", "y"), ["0", "1"])
    assert is_zero_field(lie_bracket(dx, dy))


def test_bracket_martinet():
    br = lie_bracket(MARTINET_X1, MARTINET_X2)
    out = eval_vector_field(br, as_point([1.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0, 2.0])
    fd = bracket_fd_oracle(MARTINET_X1, MARTINET_X2, [1.0, 0.0, 0.0])
    assert np.max(np.abs(out - fd)) <= 1e-6


def test_bracket_heisenberg():
    br = lie_bracket(HEIS_X1, HEIS_X2)
    out = eval_vector_field(br, as_point([0.3, -0.7, 0.2]))
    assert np.allclose(out, [0.0, 0.0, 1.0])
    fd = bracket_fd_oracle(HEIS_X1, HEIS_X2, [0.3, -0.7, 0.2])
    assert np.max(np.abs(out - fd)) <= 1e-6


def test_bracket_antisymmetry_exact():
    rng = np.random.default_rng(7)
    pairs = [
        (MARTINET_X1, MARTINET_X2),
        (HEIS_X1, HEIS_X2),
        (
            vector_field(XYZ, ["x2*x3", "x1^2 - x3", "x1*x2*x3"]),
            vector_field(XYZ, ["x1 + x2", "x3^2", "x2"]),
        ),
    ]
    for a, b in pairs:
        ab = lie_bracket(a, b)
        ba = lie_bracket(b, a)
        for _ in range(20):
            x = list(rng.uniform(-1.0, 1.0, size=3))
            va = np.asarray(ab(x), dtype=float)
            vb = np.asarray(ba(x), dtype=float)
            assert np.array_equal(va, -vb)  # exact, including bit patterns
            assert np.max(np.abs(va + vb)) <= 1e-12


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(11)
    a = vector_field(XYZ, ["x2^2", "x3", "x1*x2"])
    b = vector_field(XYZ, ["x1", "x1*x3", "x2^3"])
    c = vector_field(XYZ, ["x3^2", "x1 + x2", "x2*x3"])
    s1 = lie_bracket(a, lie_bracket(b, c))
    s2 = lie_bracket(b, lie_bracket(c, a))
    s3 = lie_bracket(c, lie_bracket(a, b))
    for _ in range(20):
        x = list(rng.uniform(-0.8, 0.8, size=3))
        total = (
            np.asarray(s1(x), dtype=float)
            + np.asarray(s2(x), dtype=float)
            + np.asarray(s3(x), dtype=float)
        )
        assert np.max(np.abs(total)) <= 1e-9


def test_flow_constant_field():
    vf = vector_field(("x", "y"), ["1", "0"])
    out = composite_flow([vf], [1.0], as_point([0.0, 0.0]))
    assert np.allclose(out.coords, [1.0, 0.0], atol=1e-12)


def test_flow_linear_field_reaches_e():
    vf = vector_field(("x",), ["x"])
    out = composite_flow([vf], [1.0], as_point([1.0]), 1e-3)
    assert abs(out.coords[0] - math.e) <= 1e-9


def test_flow_backward():
    vf = vector_field(("x", "y"), ["1", "0"])
    out = composite_flow([vf], [-1.0], as_point([0.0, 0.0]))
    assert np.allclose(out.coords, [-1.0, 0.0], atol=1e-12)


def test_flow_divergence_detected():
    vf = vector_field(("x",), ["x^2"])
    with pytest.raises(DivergenceError):
        composite_flow([vf], [10.0], as_point([1.0]), 1e-3)


def test_flow_step_guard():
    vf = vector_field(("x",), ["1"])
    with pytest.raises(FieldError):
        composite_flow([vf], [1e9], as_point([0.0]), 1e-3)


def test_composite_commuting_translations():
    dx = vector_field(("x", "y"), ["1", "0"])
    dy = vector_field(("x", "y"), ["0", "1"])
    out = composite_flow([dx, dy], [1.0, 2.0], as_point([0.0, 0.0]))
    assert np.allclose(out.coords, [1.0, 2.0], atol=1e-12)


def test_composite_zero_time_is_identity():
    dx = vector_field(("x", "y"), ["1", "0"])
    out = composite_flow([dx], [0.0], as_point([5.0, 5.0]))
    assert np.allclose(out.coords, [5.0, 5.0], atol=0.0)


def test_composite_heisenberg_commutator_displacement():
    s = 0.1
    seq = [HEIS_X1, HEIS_X2, negate_field(HEIS_X1), negate_field(HEIS_X2)]
    out = composite_flow(seq, [s, s, s, s], as_point([0.0, 0.0, 0.0]))
    assert abs(out.coords[2] - s * s) <= 2e-4
    assert abs(out.coords[0]) <= 1e-9
    assert abs(out.coords[1]) <= 1e-9


def test_flow_composition_semigroup():
    vf = vector_field(("x", "y"), ["y", "-sin(x)"])
    x0 = as_point([0.4, -0.2])
    t, s = 0.37, 0.41
    one = composite_flow([vf], [t + s], x0, 1e-3)
    two = composite_flow([vf], [t], composite_flow([vf], [s], x0, 1e-3), 1e-3)
    assert np.max(np.abs(one.coords - two.coords)) <= 1e-8


def test_rk4_convergence_order():
    vf = vector_field(("x",), ["x"])

    def err(h):
        out = composite_flow([vf], [1.0], as_point([1.0]), h)
        return abs(out.coords[0] - math.e)

    exponent = math.log2(err(0.02) / err(0.01))
    assert exponent >= 3.7


def test_flow_accepts_dual_duration():
    vf = vector_field(("x",), ["x"])
    dt = Dual(0.0, 1.0)  # derivative of the flow map in its duration
    out = composite_flow([vf], [dt], as_point([2.0]), 1e-3)
    v = out.coords[0]
    assert real_part(v) == 2.0
    assert abs(v.du - 2.0) <= 1e-12  # d/dt e^t x0 at t=0


def test_pushforward_constant_field():
    vf = vector_field(("x", "y"), ["1", "0"])
    out = rk4_path(linearized_rhs(vf, tangents=1), [0.0, 0.0, 0.3, 0.7], 0.0, 2.0, DEFAULT_STEP)
    assert np.allclose(out[2:], [0.3, 0.7], atol=1e-12)
    assert np.allclose(out[:2], [2.0, 0.0], atol=1e-12)


def test_pushforward_linear_field():
    vf = vector_field(("x",), ["x"])
    out = rk4_path(linearized_rhs(vf, tangents=1), [1.0, 1.0], 0.0, 1.0, 1e-3)
    assert abs(out[1] - math.e) <= 1e-9


def test_pushforward_zero_duration():
    vf = vector_field(("x", "y"), ["y", "x^2"])
    out = rk4_path(linearized_rhs(vf, tangents=1), [0.5, -0.25, 1.0, 2.0], 0.0, 0.0, DEFAULT_STEP)
    assert np.array_equal(out[2:], [1.0, 2.0])


def test_pushforward_naturality_with_bracket():
    # The transported bracket agrees with the bracket of transported fields.
    chart = ("x1", "x2")
    a = vector_field(chart, ["x2", "x1^2"])
    b = vector_field(chart, ["x1*x2", "-x1"])
    xi = vector_field(chart, ["0.5*x2", "-0.3*x1"])
    dt = 0.1
    x0 = as_point([0.4, 0.2])
    push = linearized_rhs(xi, tangents=1)
    bracket = eval_vector_field(lie_bracket(a, b), x0)
    lhs = np.asarray(rk4_path(push, x0.coords.tolist() + bracket.tolist(), 0.0, dt, 1e-3)[2:])
    y0 = composite_flow([xi], [dt], x0, 1e-3).coords

    def pushed(vf, y):
        back = composite_flow([xi], [-dt], as_point(y), 1e-3)
        vec = eval_vector_field(vf, back)
        return np.asarray(rk4_path(push, back.coords.tolist() + vec.tolist(), 0.0, dt, 1e-3)[2:])

    m = 2
    delta = 1e-3
    A0, B0 = pushed(a, y0), pushed(b, y0)
    JA = np.zeros((m, m))
    JB = np.zeros((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = delta
        JA[:, j] = (pushed(a, y0 + e) - pushed(a, y0 - e)) / (2 * delta)
        JB[:, j] = (pushed(b, y0 + e) - pushed(b, y0 - e)) / (2 * delta)
    rhs = JB @ A0 - JA @ B0
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_point_rejects_non_finite():
    with pytest.raises(FieldError):
        Point(np.array([1.0, float("nan")]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", [TangentVector, Covector])
def test_vectors_and_covectors_reject_non_finite_components(kind, bad):
    # the rule of Point, for the components based at one
    with pytest.raises(FieldError, match="non-finite components"):
        kind(Point(np.array([0.0, 1.0])), [1.0, bad])

import pytest

from geocon.ocp import (
    build_control_affine,
    extend_system,
    integrate_trajectory,
    piecewise_schedule,
)

XYZ = ("x1", "x2", "x3")


@pytest.fixture(scope="session")
def martinet():
    return build_control_affine(
        XYZ,
        ["0", "0", "0"],
        [["1", "0", "0"], ["0", "1", "x1^2"]],
        [(-2.0, 2.0), (-2.0, 2.0)],
    )


@pytest.fixture(scope="session")
def martinet_extended(martinet):
    return extend_system(martinet, "0.5*(u1^2 + u2^2)")


@pytest.fixture(scope="session")
def martinet_reference(martinet):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    return integrate_trajectory(martinet, [0.0, 0.0, 0.0], sched, (0.0, 1.0), 1e-3)


@pytest.fixture(scope="session")
def heisenberg():
    return build_control_affine(
        XYZ,
        ["0", "0", "0"],
        [["1", "0", "-x2/2"], ["0", "1", "x1/2"]],
        [(-2.0, 2.0), (-2.0, 2.0)],
    )


@pytest.fixture(scope="session")
def heisenberg_reference(heisenberg):
    sched = piecewise_schedule([0.0], [[1.0, 0.0]])
    return integrate_trajectory(heisenberg, [0.0, 0.0, 0.0], sched, (0.0, 1.0), 1e-3)


def random_polynomial_field(rng, chart, degree=3, density=0.6, scale=0.4):
    """Sparse random polynomial components, tame enough for unit-time flows."""
    from geocon.expr import Const, add, const, mul, pow_, var

    m = len(chart)
    comps = []
    for _ in range(m):
        e = Const(0.0)
        for j in range(m):
            if rng.random() < density:
                coeff = const(round(float(rng.uniform(-scale, scale)), 3))
                p = int(rng.integers(1, degree + 1))
                e = add(e, mul(coeff, pow_(var(chart[j]), p)))
        if rng.random() < 0.5:
            e = add(e, const(round(float(rng.uniform(-scale, scale)), 3)))
        comps.append(e)
    from geocon.fields import VectorField

    return VectorField(tuple(chart), tuple(comps))


def random_control_affine(rng, m=None, k=None):
    m = m or int(rng.integers(2, 5))
    k = k or int(rng.integers(1, 3))
    chart = tuple(f"x{i + 1}" for i in range(m))
    drift = random_polynomial_field(rng, chart)
    inputs = [random_polynomial_field(rng, chart) for _ in range(k)]
    return build_control_affine(chart, drift, inputs, [(-2.0, 2.0)] * k)


def chained_form(m):
    """The chained form with m >= 3 states and two inputs (Murray & Sastry,
    IEEE TAC 38, 1993): x1' = u1, x2' = u2 and x_i' = x_{i-1} u1 for i >= 3,
    box [-2, 2]^2.  ad_{g1}^j g2 = +-e_{j+2}, so its ladder spans one more
    dimension per level; J = u1 on the subdiagonal below x2, m - 2 nonzeros."""
    chart = tuple(f"x{i + 1}" for i in range(m))
    g1 = ["1", "0", *chart[1 : m - 1]]
    g2 = ["0", "1", *["0"] * (m - 2)]
    return build_control_affine(chart, ["0"] * m, [g1, g2], [(-2.0, 2.0)] * 2)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geocon.fields import TangentVector, as_point, eval_vector_field
from geocon.ocp import (
    Biextremal,
    DegenerateMomentumError,
    InvariantViolationError,
    OcpError,
    Trajectory,
    audit_necessary_conditions,
    build_control_affine,
    classify_extremal,
    expression_schedule,
    extend_system,
    hamiltonian,
    hamilton_rhs,
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


def test_contains_zero(martinet):
    assert martinet.contains_zero
    shifted = build_control_affine(("x",), ["0"], [["1"]], [(0.5, 2.0)])
    assert not shifted.contains_zero


def test_extend_time_optimal(martinet):
    ext = extend_system(martinet, "1")
    vf = ext.slice_field((0.0, 1.0))
    out = eval_vector_field(vf, as_point([0.0, 0.0, 0.0, 0.0]))
    assert out.components[0] == 1.0


def test_extended_field_ignores_cost_coordinate(martinet_extended):
    vf = martinet_extended.slice_field((1.0, 1.0))
    a = eval_vector_field(vf, as_point([5.0, 0.1, 0.2, 0.3])).components
    b = eval_vector_field(vf, as_point([0.0, 0.1, 0.2, 0.3])).components
    assert np.array_equal(a, b)


def test_extend_rejects_reserved_name():
    sys = build_control_affine(("x0", "y"), ["0", "0"], [["1", "0"]], [(-1, 1)])
    with pytest.raises(OcpError):
        extend_system(sys, "1")


def test_hamiltonian_martinet_annihilator(martinet):
    H = hamiltonian([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], (0.0, 1.0), martinet, "reduced")
    assert H == 0.0
    assert hamiltonian([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], (0.0, 1.0), martinet) == 0.0


def test_hamiltonian_extended_cost_term(martinet_extended):
    H = hamiltonian(
        [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], (1.0, 0.0), martinet_extended, "extended"
    )
    assert abs(H - (-0.5)) <= 1e-15


def test_hamilton_rhs_constant_drift():
    sys = build_control_affine(("x", "y"), ["1", "0"], [], [])
    dx, dlam = hamilton_rhs([0.0, 0.0], [0.4, -0.3], (), sys)
    assert np.allclose(dx, [1.0, 0.0])
    assert np.allclose(dlam, [0.0, 0.0])


def test_hamilton_rhs_linear_system():
    sys = build_control_affine(("x",), ["x"], [], [])
    dx, dlam = hamilton_rhs([2.0], [0.5], (), sys)
    assert dx[0] == 2.0
    assert dlam[0] == -0.5


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
    assert len(bx.momentum_ts) == 1
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
        for i in range(0, len(bx.momentum_ts), 50)
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
        for i, t in enumerate(bx.momentum_ts[::100])
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
    return Biextremal(traj, ts, momenta, "extended", lambda0)


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
    report = audit_necessary_conditions(bx, cone, martinet, "reduced")
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
    report = audit_necessary_conditions(bx, cone, martinet, "reduced")
    assert report.passed


def test_audit_random_covector_fails_stationarity(martinet, martinet_reference):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], sched, (0.0, 1.0), "reduced"
    )
    report = audit_necessary_conditions(bx, None, martinet, "reduced")
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
    ts = bx.momentum_ts
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
        bx, None, martinet, "reduced", hamiltonian_grid_check=True
    )
    grid = next(c for c in report.conditions if c.id == "grid-maximum")
    assert grid.passed


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


def _assert_same_scan(W, axis, m, tol):
    from geocon.ocp import _scan_lift_grid

    with np.errstate(invalid="ignore"):  # inf * 0 in the NaN cases
        residuals, best, found = _scan_lift_grid(W, axis, m, tol)
        ref_residuals, ref_best, ref_found = _full_grid_scan(W, axis, m, tol)
    assert residuals.tobytes() == ref_residuals.tobytes()
    assert best == ref_best
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
            patch.setattr(ocp_module, "_scan_lift_grid", _full_grid_scan)
            full = search_normal_lift(ext, ref, tol=tol, step=1e-2)
        assert blocked.candidates == full.candidates == 10**5
        assert blocked.best_residual == full.best_residual
        assert (blocked.found is None) == (full.found is None)
        if full.found is not None:
            assert blocked.found.tobytes() == full.found.tobytes()


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
    bx = Biextremal(traj, ts, lams, "reduced", None)
    for t in [-1.0, *times, 0.05, 0.3, 0.6, 0.99, 2.0]:
        x = traj.state_at(t)
        assert x.tobytes() == interpolate_as_state_at_did(ts, xs, t).tobytes()
        assert bx.covector_at(t).components.tobytes() == interpolate_as_state_at_did(ts, lams, t).tobytes()
        x[:] = 7.0  # a copy, never a view of the samples
    assert not np.any(traj.xs == 7.0)

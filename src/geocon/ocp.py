"""Control-affine systems, their cost extensions and biextremal machinery.

A control-affine system is a drift field plus input fields with an open box
of admissible control values.  Fixing a control value slices out an ordinary
vector field; a cost function extends the state with a running-cost
coordinate x0 (kept first).  Momenta evolve by the cotangent lift (the
adjoint of the state linearization), and the audit checks the weak
first-order necessary conditions plus the supporting-hyperplane condition
against an externally assembled cone.  One builder gives the control vectors
df/du^c of a cost-extended system (`ExtendedSystem.control_vectors`) to both
the stationarity rows dH/du of the audit and those of the normal-lift search.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .expr import (
    Expr,
    add as expr_add,
    compile_expression,
    evaluate,
    free_variables,
    is_zero,
    jacobian,
    mul as expr_mul,
    parse_expression,
    substitute,
    var as expr_var,
)
from .fields import (
    DEFAULT_STEP,
    Covector,
    FieldError,
    Point,
    TangentVector,
    VectorField,
    as_point,
    cached_on,
    linearized_rhs,
    rk4_path,
    vector_field,
)

COST_COORDINATE = "x0"


class OcpError(Exception):
    pass


class DegenerateMomentumError(OcpError):
    def __init__(self, time: float, norm: float):
        super().__init__(f"momentum norm {norm:.3e} fell below 1e-12 at t = {time:.6g}")
        self.time = time


class InvariantViolationError(OcpError):
    pass


# ---------------------------------------------------------------------------
# Control schedules and trajectories.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ControlSchedule:
    """Piecewise-constant (`breaks`/`values`) or expression-in-t controls."""

    breaks: tuple[float, ...] | None = None
    values: tuple[tuple[float, ...], ...] | None = None
    exprs: tuple[Expr, ...] | None = None

    def __post_init__(self):
        if (self.breaks is None) == (self.exprs is None):
            raise OcpError("exactly one of piecewise breaks or expressions required")
        if self.breaks is not None:
            if len(self.breaks) != len(self.values) or not self.breaks:
                raise OcpError("breaks and values must align and be nonempty")
            if any(b >= a for a, b in zip(self.breaks[1:], self.breaks[:-1])) or any(map(math.isnan, self.breaks)):
                raise OcpError("breakpoints must increase strictly")
            if len(set(map(len, self.values))) != 1:
                raise OcpError("every control row must hold the same number of values")
            if not all(math.isfinite(v) for row in self.values for v in row):
                raise OcpError("control values must be finite")

    @property
    def k(self) -> int:
        if self.values is not None:
            return len(self.values[0])
        return len(self.exprs)

    def value_at(self, t: float) -> np.ndarray:
        if self.breaks is not None:
            i = int(np.searchsorted(self.breaks, t, side="right")) - 1
            i = max(i, 0)
            return np.asarray(self.values[i], dtype=float)
        fns = cached_on(self, "_compiled", lambda: tuple(compile_expression(e, ("t",)) for e in self.exprs))
        values = [fn([t]) for fn in fns]
        if not all(map(math.isfinite, values)):
            raise OcpError(f"control expressions give non-finite values {values} at t = {t:g}")
        return np.asarray(values, dtype=float)

    def interior_breakpoints(self, interval: tuple[float, float]) -> tuple[float, ...]:
        if self.breaks is None:
            return ()
        a, b = interval
        return tuple(t for t in self.breaks if a < t < b)

    def on_switch(self, t: float, interval: tuple[float, float]) -> bool:
        """Whether `t` lies within 1e-12 of a switch inside `interval`; no
        sample time of a scenario, cone or ladder may."""
        return any(abs(t - s) <= 1e-12 for s in self.interior_breakpoints(interval))

    def segments(self, interval: tuple[float, float]):
        """(t_start, t_end) pieces on which the control law has no switch."""
        a, b = interval
        cuts = [a, *self.interior_breakpoints((a, b)), b]
        return list(zip(cuts[:-1], cuts[1:]))

    def sample_times(self, interval: tuple[float, float]) -> list[float]:
        """The default analysis times: the quarters of the interval up to
        its end, each moved by 1e-3 of its length until it is off every
        control switch (`on_switch`), forward, or backward from the end once
        a step would pass it; rounded to 12 decimals, but never past b."""
        a, b = interval
        times = []
        for q in (0.25, 0.5, 0.75, 1.0):
            t, dt = a + q * (b - a), 1e-3 * (b - a)
            while self.on_switch(t, interval):
                if t + dt > b:
                    t, dt = b, -dt
                t += dt
            times.append(min(round(t, 12), b))
        return times


def piecewise_schedule(breaks: Sequence[float], values: Sequence[Sequence[float]]) -> ControlSchedule:
    return ControlSchedule(
        breaks=tuple(float(t) for t in breaks),
        values=tuple(tuple(float(u) for u in row) for row in values),
    )


def expression_schedule(exprs: Sequence, control_count: int | None = None) -> ControlSchedule:
    parsed = tuple(
        parse_expression(e, ("t",)) if isinstance(e, str) else e for e in exprs
    )
    if control_count is not None and len(parsed) != control_count:
        raise OcpError(f"{len(parsed)} control expressions for {control_count} inputs")
    return ControlSchedule(exprs=parsed)


@dataclass(frozen=True, eq=False)
class Trajectory:
    interval: tuple[float, float]
    ts: np.ndarray
    xs: np.ndarray  # row i is the state at ts[i]
    schedule: ControlSchedule

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        xs = np.asarray(self.xs, dtype=float)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "xs", xs)
        if len(ts) != len(xs) or len(ts) == 0:
            raise OcpError("trajectory samples are inconsistent")
        if np.any(np.diff(ts) < 0.0):
            raise OcpError("trajectory times must be nondecreasing")
        if not np.all(np.isfinite(xs)):
            raise OcpError("trajectory contains non-finite states")

    def point_at(self, t: float) -> Point:
        return as_point(self.state_at(t))

    def state_at(self, t: float) -> np.ndarray:
        return _interpolate(self.ts, self.xs, t)

    def control_at(self, t: float) -> np.ndarray:
        return self.schedule.value_at(t)


def _interpolate(ts: np.ndarray, rows: np.ndarray, t: float) -> np.ndarray:
    """A new array: row i at ts[i], linear in between, held past the ends."""
    if math.isnan(t):
        raise OcpError("cannot interpolate at t = nan")
    if t <= ts[0]:
        return rows[0].copy()
    if t >= ts[-1]:
        return rows[-1].copy()
    i = int(np.searchsorted(ts, t, side="right")) - 1  # ts[i] <= t < ts[i + 1]
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return (1.0 - w) * rows[i] + w * rows[i + 1]


# ---------------------------------------------------------------------------
# Systems.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ControlAffineSystem:
    variables: tuple[str, ...]
    drift: VectorField
    inputs: tuple[VectorField, ...]
    control_box: tuple[tuple[float, float], ...]
    control_names: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.variables)

    @property
    def k(self) -> int:
        return len(self.inputs)

    @property
    def base(self) -> ControlAffineSystem:
        """The system on the state chart: itself.  An ExtendedSystem's
        `base` is the system under its cost, so `system.base is system`
        tells the two kinds apart."""
        return self

    def slice_field(self, u: Sequence[float]) -> VectorField:
        """The ordinary field drift + sum_c u^c X_c (:func:`_held_slice`)."""
        return _held_slice(self, u, True)

    def flow_components(self):
        """f(x, u) over chart + controls for :func:`fields.linearized_rhs` and
        :func:`hamiltonian`: drift^i + sum_c u_c X_c^i per chart coordinate,
        folded left to right, built once and kept on the system."""
        def build():
            rows = zip(self.drift.components, *(vf.components for vf in self.inputs))
            controls = tuple(map(expr_var, self.control_names))
            return tuple(reduce(expr_add, map(expr_mul, controls, terms), e) for e, *terms in rows), self.control_names

        return cached_on(self, "_flow_components", build)


def _held_slice(system, u: Sequence[float], routable: bool) -> VectorField:
    """`system`'s flow form with the controls substituted by u, kept on
    `system` per control tuple (hex keys keep -0.0 apart from 0.0).  With
    every u^c nonzero, a routable slice (its trees are the system's with u^c
    constant) records (system, controls holding u) and runs the system's code
    bit for bit (:func:`fields.linearized_rhs`).  A zero u^c folds u^c X_c
    away where the system's 0.0 * X_c may divide by zero: it keeps its own."""
    u = tuple(float(v) for v in u)
    if len(u) != system.k:
        raise OcpError(f"{len(u)} control values for {system.k} inputs")

    def make():
        components, control_names = system.flow_components()
        held = dict(zip(control_names, u))
        vf = VectorField(system.variables, tuple(substitute(e, held) for e in components))
        if routable and all(u):  # -0.0 is false as well
            vf.__dict__["_held"] = (weakref.ref(system), list(u))
        return vf

    return cached_on(system, "_slices", make, tuple(map(float.hex, u)))


def build_control_affine(
    variables: Sequence[str],
    drift,
    inputs: Sequence,
    control_box: Sequence[Sequence[float]],
    control_names: Sequence[str] | None = None,
) -> ControlAffineSystem:
    """Validated system from component strings or expression trees."""
    chart = tuple(variables)
    if len(set(chart)) != len(chart):
        raise OcpError("chart variable names must be distinct")
    try:
        drift_vf = drift if isinstance(drift, VectorField) else vector_field(chart, drift)
        input_vfs = tuple(
            vf if isinstance(vf, VectorField) else vector_field(chart, vf) for vf in inputs
        )
    except FieldError as exc:
        raise OcpError(str(exc)) from exc
    if drift_vf.dim != len(chart):
        raise OcpError(f"drift has dimension {drift_vf.dim}, chart has {len(chart)}")
    for c, vf in enumerate(input_vfs):
        if vf.dim != len(chart) or vf.variables != chart:
            raise OcpError(f"input field {c + 1} does not live on the declared chart")
    # fields that read only the chart keep the system control-affine, and
    # so do all their brackets
    for c, vf in enumerate((drift_vf, *input_vfs)):
        outside = set().union(*map(free_variables, vf.components)) - set(chart)
        if outside:
            name = f"input field {c}" if c else "drift"
            raise OcpError(f"{name} reads names outside the chart: {sorted(outside)}")
    box = tuple((float(lo), float(hi)) for lo, hi in control_box)
    if len(box) != len(input_vfs):
        raise OcpError(f"{len(box)} control bounds for {len(input_vfs)} inputs")
    for lo, hi in box:
        if not lo < hi:
            raise OcpError(f"control bound ({lo}, {hi}) is not an interval")
    if control_names is None:
        control_names = tuple(f"u{c + 1}" for c in range(len(input_vfs)))
    else:
        control_names = tuple(control_names)
        if len(control_names) != len(input_vfs):
            raise OcpError("one control name per input field required")
        if len(set(control_names)) != len(control_names):
            raise OcpError("control names must be distinct")
    overlap = set(control_names) & set(chart)
    if overlap:
        raise OcpError(f"control names collide with chart variables: {sorted(overlap)}")
    return ControlAffineSystem(chart, drift_vf, input_vfs, box, control_names)


@dataclass(frozen=True, eq=False)
class ExtendedSystem:
    """State extended by the running-cost coordinate, kept first."""

    base: ControlAffineSystem
    cost: Expr

    @property
    def variables(self) -> tuple[str, ...]:
        return (COST_COORDINATE,) + self.base.variables

    @property
    def m(self) -> int:
        return self.base.m + 1

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def control_box(self):
        return self.base.control_box

    @property
    def control_names(self):
        return self.base.control_names

    def slice_field(self, u: Sequence[float]) -> VectorField:
        """The flow form with u substituted (:func:`_held_slice`).  Routable
        when the cost reads no chart variable and its derivatives by them fold
        to zero (``1/u`` leaves ``0/u^2``): it then folds to what the system's
        code computes.  A cost that reads x keeps its own code, since identity
        folds (``0*e``, ``e-e``) can change a zero's sign."""
        chart = self.base.variables
        routable = cached_on(self, "_routable", lambda: not free_variables(self.cost) & set(chart)
                             and all(map(is_zero, jacobian((self.cost,), chart)[0])))
        return _held_slice(self, u, routable)

    def flow_components(self):
        """As the base system's, with the running cost prepended."""
        comps, control_names = self.base.flow_components()
        return (self.cost, *comps), control_names

    def control_vectors(self, x, u) -> list[list[float]]:
        """df/du^c = [dL/du^c, *X_c(x)] per control at the base state x (a list)
        and control u, walked with the generated code's arithmetic."""
        if len(x) != self.base.m or len(u) != self.k:
            raise OcpError(f"df/du takes {self.base.m} state and {self.k} control values, got {len(x)} and {len(u)}")
        (grads,) = cached_on(self, "_dcost_du", lambda: jacobian((self.cost,), self.base.control_names))
        env = dict(zip(self.base.variables + self.base.control_names, [*x, *u]))
        dcost = [evaluate(g, env) for g in grads]
        return [[g, *vf(x)] for g, vf in zip(dcost, self.base.inputs)]


def extend_system(sys: ControlAffineSystem, cost) -> ExtendedSystem:
    if COST_COORDINATE in sys.variables:
        raise OcpError(f"chart name {COST_COORDINATE!r} is reserved for the cost coordinate")
    cost_expr = (
        parse_expression(cost, sys.variables + sys.control_names)
        if isinstance(cost, str)
        else cost
    )
    extra = free_variables(cost_expr) - set(sys.variables) - set(sys.control_names)
    if extra:
        raise OcpError(f"cost uses undeclared names: {sorted(extra)}")
    return ExtendedSystem(sys, cost_expr)


# ---------------------------------------------------------------------------
# Reference trajectories.
# ---------------------------------------------------------------------------


def _flow(
    system,
    schedule: ControlSchedule,
    t0: float,
    t1: float,
    state: list,
    step: float = DEFAULT_STEP,
    tangents: int = 0,
    covectors: int = 0,
    record=None,
) -> list:
    """Integrate `state` (x, then the block of :func:`linearized_rhs`) from
    t0 to t1 under the schedule's controls, in either direction.

    The integrator restarts at every control switch, so switches land
    exactly on steps; a piecewise control is held at its segment's value.
    """
    if schedule.k != system.k:
        raise OcpError(f"{schedule.k} controls for {system.k} inputs")
    pieces = schedule.segments((min(t0, t1), max(t0, t1)))
    if t1 < t0:
        pieces = [(b, a) for a, b in reversed(pieces)]
    timed = lambda t: [float(v) for v in schedule.value_at(t)]  # noqa: E731 - expression-in-t controls
    for a, b in pieces:  # a piecewise control is held on its piece: a list, loaded once per leg
        controls = timed if schedule.breaks is None else [float(v) for v in schedule.value_at(0.5 * (a + b))]
        state = rk4_path(linearized_rhs(system, tangents, covectors, controls), state, a, b - a, step, record=record)
    return state


def _recorded_flow(system, schedule, interval, state: list, step: float, covectors: int = 0, check=None, keep=None):
    """(ts, states): `state` at interval[0] and after every step of its
    :func:`_flow` to interval[1], each checked by `check(t, state)` when given.
    With `keep`, a later state is held only where `keep(t)`; None stands for the rest.

    The trailing partial step can land a rounding residue behind the last
    full step; the landing point is authoritative, so it replaces that one.
    """
    if not all(map(math.isfinite, state)):
        raise OcpError("the initial state must be finite")
    a, b = interval
    ts, states = [a], [list(state)]

    def record(t, s):
        if check is not None:
            check(t, s)
        if t > ts[-1]:
            ts.append(t)
            states.append(list(s) if keep is None or keep(t) else None)
        elif states[-1] is not None and (t < ts[-1] or s != states[-1]):
            states[-1] = list(s)

    _flow(system, schedule, a, b, state, step, covectors=covectors, record=record)
    return ts, states


def integrate_trajectory(
    system,
    x0,
    schedule: ControlSchedule,
    interval: tuple[float, float],
    step: float = DEFAULT_STEP,
) -> Trajectory:
    """Integrate the controlled state over the interval, restarting at
    control breakpoints so each switch lands exactly on a sample."""
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        raise OcpError("interval must run forward")
    ts, xs = _recorded_flow(system, schedule, (a, b), [float(v) for v in np.asarray(x0, dtype=float)], step)
    return Trajectory((a, b), np.asarray(ts), np.asarray(xs), schedule)


# ---------------------------------------------------------------------------
# The Hamiltonian and its control gradient.
# ---------------------------------------------------------------------------


def _phase_args(lam, x, u, system) -> tuple[list, list, list]:
    """(lambda, x, u) as float lists, refused unless lambda and x hold one
    value per chart variable of `system` and u one per input."""
    lam = np.asarray(lam.components if isinstance(lam, Covector) else lam, dtype=float).tolist()
    xv = np.asarray(x.coords if isinstance(x, Point) else x, dtype=float).tolist()
    if len(lam) != len(system.variables) or len(xv) != len(system.variables):
        raise OcpError("covector/state dimension does not match the system")
    u = [float(v) for v in u]
    if len(u) != system.k:
        raise OcpError(f"{len(u)} control values for {system.k} inputs")
    return lam, xv, u


def hamiltonian(lam, x, u, system) -> float:
    """<lambda, f(x, u)>, the flow form walked with one memo (the generated
    code's bits); the p0 * cost term participates for an ExtendedSystem."""
    lam, xv, u = _phase_args(lam, x, u, system)
    components, control_names = system.flow_components()
    env, memo = dict(zip(system.variables + control_names, xv + u)), {}
    return float(sum(li * evaluate(fi, env, memo) for li, fi in zip(lam, components)))


def hamiltonian_control_gradient(lam, x, u, system) -> np.ndarray:
    """dH/du per control: <lambda, X_c(x)>, or <(p0, p), df/du^c> for an
    ExtendedSystem (:meth:`ExtendedSystem.control_vectors`)."""
    lam, xv, u = _phase_args(lam, x, u, system)
    if system is system.base:
        return np.asarray([float(np.dot(lam, np.asarray(vf(xv), dtype=float))) for vf in system.inputs])
    p0, p = lam[0], lam[1:]
    vectors = system.control_vectors(xv[1:], u)
    return np.asarray([float(p0 * v[0] + np.dot(p, np.asarray(v[1:], dtype=float))) for v in vectors])


# ---------------------------------------------------------------------------
# Biextremals.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Biextremal:
    trajectory: Trajectory
    momenta: np.ndarray  # row i pairs with trajectory.ts[i]
    mode: str
    lambda0: float | None  # p0 in extended mode, None in reduced mode

    def covector_at(self, t: float) -> Covector:
        return Covector(self.trajectory.point_at(t), _interpolate(self.trajectory.ts, self.momenta, t))


def integrate_biextremal(
    sys,
    x0,
    lam0,
    schedule: ControlSchedule,
    interval: tuple[float, float],
    mode: str = "reduced",
    step: float = DEFAULT_STEP,
) -> Biextremal:
    """RK4 on the coupled state/momentum system along a control schedule.

    Piecewise-constant schedules restart the integrator on their switch
    times so those land exactly on samples.  A momentum norm below 1e-12
    anywhere raises :class:`DegenerateMomentumError`.
    """
    if mode not in ("reduced", "extended"):
        raise OcpError(f"mode must be 'reduced' or 'extended', got {mode!r}")
    if mode == "extended" and sys is sys.base:
        raise OcpError("extended mode needs an ExtendedSystem (attach a cost)")
    system = sys if mode == "extended" else sys.base
    n = len(system.variables)
    lam0 = np.asarray(lam0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if len(x0) != n or len(lam0) != n:
        raise OcpError(f"state/momentum must have dimension {n} in {mode} mode")
    if float(np.linalg.norm(lam0)) < 1e-12:
        raise DegenerateMomentumError(float(interval[0]), float(np.linalg.norm(lam0)))
    a, b = float(interval[0]), float(interval[1])

    def check(t, state):
        lam_norm = math.sqrt(sum(v * v for v in state[n:]))
        if lam_norm < 1e-12:
            raise DegenerateMomentumError(t, lam_norm)

    ts, states = _recorded_flow(system, schedule, (a, b), x0.tolist() + lam0.tolist(), step, covectors=1, check=check)
    arr = np.asarray(states)
    traj = Trajectory((a, b), np.asarray(ts), arr[:, :n], schedule)
    momenta = arr[:, n:]
    lambda0 = float(lam0[0]) if mode == "extended" else None
    if mode == "extended":
        drift0 = float(np.max(np.abs(momenta[:, 0] - lam0[0])))
        if drift0 > 1e-12:
            raise InvariantViolationError(
                f"cost multiplier drifted by {drift0:.3e}; it must stay constant"
            )
        if lambda0 > 1e-12:
            raise InvariantViolationError(f"cost multiplier must be <= 0, got {lambda0}")
    return Biextremal(traj, momenta, mode, lambda0)


# ---------------------------------------------------------------------------
# Vector transport along a reference (the linearized flow across switches).
# ---------------------------------------------------------------------------


def transport_vector(
    system,
    reference: Trajectory,
    t0: float,
    t1: float,
    vectors: Sequence[TangentVector],
    step: float = DEFAULT_STEP,
) -> list[TangentVector]:
    """Pushforwards of `vectors`, all based at gamma(t0), to gamma(t1) along
    the reference field, chaining the variational equation across control
    switches.  One integration moves the whole batch, and each vector comes
    out bit-identical to moving it alone."""
    n = len(system.variables)
    if not vectors:
        return []
    base = vectors[0].base
    state = [float(c) for c in base.coords]
    for v in vectors:
        if v.base.dim != n:
            raise OcpError("vector dimension does not match the system")
        if not np.array_equal(v.base.coords, base.coords):
            raise OcpError("transported vectors must share one base point")
        state += [float(c) for c in v.components]
    state = _flow(system, reference.schedule, t0, t1, state, step, tangents=len(vectors))
    moved = Point(np.asarray(state[:n], dtype=float))
    return [
        TangentVector(moved, np.asarray(state[k : k + n], dtype=float))
        for k in range(n, len(state), n)
    ]


# ---------------------------------------------------------------------------
# Extremal classification and the normal-lift grid search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalLiftSearch:
    found: np.ndarray | None
    candidates: int
    tol: float
    best_residual: float
    grid_description: str


@dataclass(frozen=True)
class Classification:
    kind: str  # "normal" | "abnormal"
    label: str
    lambda0: float


def classify_extremal(bx: Biextremal, normal_lift_search: NormalLiftSearch | None = None) -> Classification:
    """Normal for negative cost multiplier, abnormal for (numerically) zero.

    Strict abnormality is never asserted; with a failed lift search the
    label reads "normal lift not found (inconclusive)".
    """
    if bx.lambda0 is None:
        raise OcpError("classification needs an extended-mode biextremal")
    lam0 = bx.lambda0
    if lam0 > 1e-12:
        raise InvariantViolationError(f"cost multiplier {lam0} violates lambda0 <= 0")
    if lam0 < -1e-12:
        return Classification("normal", "normal", lam0)
    if normal_lift_search is None:
        return Classification("abnormal", "abnormal", lam0)
    if normal_lift_search.found is not None:
        return Classification(
            "abnormal",
            "abnormal (a normal lift exists: not strictly abnormal)",
            lam0,
        )
    return Classification(
        "abnormal",
        "abnormal; normal lift not found (inconclusive)",
        lam0,
    )


def search_normal_lift(
    ext: ExtendedSystem,
    reference: Trajectory,
    grid_per_axis: int = 10,
    momentum_bound: float = 1.0,
    sample_count: int = 11,
    tol: float = 1e-6,
    step: float = DEFAULT_STEP,
) -> NormalLiftSearch:
    """Grid search for a normal lift satisfying the stationarity constraints.

    Candidate initial momenta run over linspace(-bound, bound, grid_per_axis)
    per state coordinate with the cost multiplier pinned to -1.  Momenta
    evolve linearly, so one integration of the extended adjoint transition
    matrix along the reference covers the whole grid; a candidate passes
    when max_c |dH/du_c| stays within `tol` at the sampled times.  Only the
    reference's first state, schedule and interval are read.
    """
    if not (grid_per_axis >= 1 and sample_count >= 1 and 0.0 < momentum_bound < math.inf and not math.isnan(tol)):
        raise OcpError("normal-lift search needs grid_per_axis >= 1, sample_count >= 1, a finite momentum_bound > 0 "
                       f"and a tol that is not NaN; got {grid_per_axis}, {sample_count}, {momentum_bound}, {tol}")
    m = ext.base.m
    n = m + 1
    schedule = reference.schedule
    a, b = reference.interval
    times = np.linspace(a, b, sample_count).tolist()

    # state = extended coordinates (m+1) followed by the n columns of Psi,
    # each moved as a covector by the adjoint equation; recorded steps are at
    # most `step` apart, so only states within a step of a sample time are kept
    state = [0.0] + [float(v) for v in reference.xs[0]]
    state += [1.0 if i == c else 0.0 for c in range(n) for i in range(n)]
    ts, states = _recorded_flow(ext, schedule, (a, b), state, step, covectors=n,
                                keep=lambda t: min(abs(s - t) for s in times) <= step)

    rts = np.asarray(ts)
    rows = []
    for t in times:
        i = int(np.argmin(np.abs(rts - t)))
        st = states[i]
        # Psi^T: row c is column c of Psi, in Fortran order like a transposed Psi
        psi_t = np.asfortranarray(np.asarray(st[n:]).reshape(n, n))
        for v in ext.control_vectors(st[1:n], [float(u) for u in schedule.value_at(float(rts[i]))]):
            rows.append(psi_t @ np.asarray(v, dtype=float))
    axis = np.linspace(-momentum_bound, momentum_bound, grid_per_axis)
    description = (
        f"p0 = -1; p in linspace(-{momentum_bound}, {momentum_bound}, {grid_per_axis})^{m}"
    )
    if not rows:  # no inputs: the stationarity constraints are vacuous
        found, residual = np.concatenate([[-1.0], np.full(m, axis[0])]), 0.0
    else:
        _, residual, found = _scan_lift_grid(np.asarray(rows), axis, m, tol)  # rows: (times*k, n)
    return NormalLiftSearch(found, grid_per_axis**m, tol, float(residual), description)


def _lift_residuals(W: np.ndarray, axis: np.ndarray, m: int):
    """Yield max_c |W p| over p = (-1, q), q in axis^m in C order, block by
    block, each into the same buffer.  Blocks span the trailing coordinates;
    only the leading ones change between blocks."""
    g = len(axis)
    # trailing coordinates per block: at most 10^4 columns, but one row takes
    # the whole grid, since numpy hands a one-row product to a matrix-vector
    # kernel that rounds the last columns of each call unlike the others
    r = 1
    while r < m and (W.shape[0] == 1 or g ** (r + 1) <= 10_000):
        r += 1
    block = np.empty((m + 1, g**r))
    block[0] = -1.0  # p0 = -1 pinned
    block[m + 1 - r:] = [c.ravel() for c in np.meshgrid(*([axis] * r), indexing="ij")]
    prod = np.empty((W.shape[0], block.shape[1]))
    residuals = np.empty(block.shape[1])
    for i in range(g ** (m - r)):
        block[1:m + 1 - r] = axis[list(np.unravel_index(i, (g,) * (m - r)))][:, None]
        np.matmul(W, block, out=prod)
        np.abs(prod, out=prod)
        yield np.max(prod, axis=0, out=residuals)


def _scan_lift_grid(W: np.ndarray, axis: np.ndarray, m: int, tol: float):
    """(first index of the least residual, that residual, p there if within
    `tol`) over the blocks of :func:`_lift_residuals`, by np.argmin's rule
    on the whole grid: a smaller value wins, and the first NaN wins outright."""
    best, low = 0, None
    for i, residuals in enumerate(_lift_residuals(W, axis, m)):
        j = int(np.argmin(residuals))
        if low is None or (not np.isnan(low) and not residuals[j] >= low):  # smaller, or the first NaN
            best, low = i * residuals.size + j, residuals[j]
    if not low <= tol:  # a NaN residual never passes
        return best, low, None
    return best, low, np.concatenate([[-1.0], axis[list(np.unravel_index(best, (len(axis),) * m))]])


# ---------------------------------------------------------------------------
# Necessary-condition audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCondition:
    id: str
    description: str
    passed: bool
    detail: dict


@dataclass(frozen=True)
class AuditReport:
    conditions: tuple[AuditCondition, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def _decimate(ts: np.ndarray) -> np.ndarray:
    """Indices of `ts`: all of them up to 201, else every (len(ts) // 201)-th and the last."""
    if len(ts) <= 201:
        return np.arange(len(ts))
    stride = len(ts) // 201
    idx = np.arange(0, len(ts), stride)
    if idx[-1] != len(ts) - 1:
        idx = np.append(idx, len(ts) - 1)
    return idx


def audit_necessary_conditions(
    bx: Biextremal,
    cone,
    sys,
    stationarity_tol: float = 1e-8,
    hamiltonian_grid_check: bool = False,
) -> AuditReport:
    """Per-condition pass/fail for the weak necessary conditions.

    Checks Hamiltonian constancy, pointwise stationarity in the controls,
    the supporting-hyperplane condition against `cone` (skipped when no cone
    is supplied), momentum nonvanishing, and constancy/sign of the cost
    multiplier (extended mode).  `sys` is the reduced system or its
    ExtendedSystem; the audit runs on the one of the biextremal's mode.
    """
    from .cone import is_supporting  # local import keeps the module graph acyclic

    system = sys if bx.mode == "extended" else sys.base
    traj = bx.trajectory
    idx = _decimate(traj.ts)
    ts = traj.ts[idx]
    xs = traj.xs[idx]
    lams = bx.momenta[idx]
    us = [traj.control_at(float(t)) for t in ts]

    H_vals = np.asarray([hamiltonian(lam, x, u, system) for lam, x, u in zip(lams, xs, us)])
    tol_H = 1e-8 * (1.0 + abs(float(H_vals[0])))
    drift = float(np.max(np.abs(H_vals - H_vals[0])))
    conditions = [AuditCondition("H-constant", "Hamiltonian constant along the biextremal", drift <= tol_H,
                                 {"drift": drift, "tolerance": tol_H, "H_initial": float(H_vals[0])})]

    grads = [hamiltonian_control_gradient(lam, x, u, system) for lam, x, u in zip(lams, xs, us)]
    worst_stat = 0.0
    for g in grads:
        worst_stat = max(worst_stat, float(np.max(np.abs(g))) if len(g) else 0.0)
    conditions.append(AuditCondition("stationarity", "dH/du vanishes at sampled times", worst_stat <= stationarity_tol,
                                     {"max_abs_dHdu": worst_stat, "tolerance": stationarity_tol}))

    what = "momentum supports the perturbation cone"
    if cone is not None:
        check = is_supporting(bx.covector_at(cone.time), cone)
        conditions.append(AuditCondition("supporting", what, bool(check.supported), {
            "max_pairing": check.max_pairing, "cone_time": cone.time,
            "generators": len(cone.generators), "error": check.error}))
    else:
        conditions.append(AuditCondition("supporting", what, True,
                                         {"note": "no cone supplied; condition not exercised"}))

    min_norm = float(np.min(np.linalg.norm(bx.momenta, axis=1)))
    conditions.append(AuditCondition("momentum-nonzero", "momentum never vanishes", min_norm >= 1e-12,
                                     {"min_norm": min_norm}))

    what = "cost multiplier constant and nonpositive"
    if bx.mode == "extended":
        p0 = bx.momenta[:, 0]
        drift0 = float(np.max(np.abs(p0 - p0[0])))
        conditions.append(AuditCondition("lambda0", what, drift0 <= 1e-15 and p0[0] <= 1e-12,
                                         {"lambda0": float(p0[0]), "drift": drift0}))
    else:
        conditions.append(AuditCondition("lambda0", what, True,
                                         {"note": "reduced mode: multiplier identically zero by convention"}))

    if hamiltonian_grid_check and system.k > 0:
        worst = -math.inf
        if bx.mode == "reduced":
            # H is affine in u with slope phi = dH/du, so its excess over the
            # box is sum_c max(lo_c phi_c, hi_c phi_c) - u_c phi_c, exactly;
            # a zero slope adds nothing, whatever its bounds
            what = "reference control maximizes H over the control box"
            for u_ref, phi in zip(us, grads):
                terms = zip(system.control_box, u_ref, phi)
                worst = max(worst, float(sum(max(lo * p, hi * p) - u * p for (lo, hi), u, p in terms if p)))
        else:
            what = "reference control maximizes H over a control grid (a heuristic: interior points only)"
            grid = _box_grid(system.control_box)
            for i in range(0, len(ts), max(1, len(ts) // 20)):
                H_ref = float(H_vals[i])
                for w in grid:
                    Hw = hamiltonian(lams[i], xs[i], w, system)
                    worst = max(worst, Hw - H_ref)
        conditions.append(AuditCondition("grid-maximum", what, worst <= 1e-8, {"max_excess": worst}))

    return AuditReport(tuple(conditions))


def _box_grid(box):
    """1/4, 1/2 and 3/4 of each finite side of the box (-1, 0, 1 on an
    unbounded one), every combination, the last control varying fastest."""
    axes = [
        [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)] if math.isfinite(lo) and math.isfinite(hi) else [-1.0, 0.0, 1.0]
        for lo, hi in box
    ]
    return list(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box)))

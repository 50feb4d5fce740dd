"""Parameter-dependent variation curves of reference trajectories.

A variation curve composes a reference back-flow, a finite sequence of
admissible flows with parameter-dependent durations, and a reference
forward-flow.  Its first nonvanishing one-sided jet at parameter zero is the
perturbation vector the curve contributes.  Two template families are built
in: the classical needle (order 1, closed form l1*(xi1 - xi0)) and the
four-flow commutator recipe (order 2, parallel to the Lie bracket of the
two fields involved).

Jets are estimated twice and cross-checked: Richardson-extrapolated forward
differences on a dyadic grid, and derivative-carrying scalars pushed through
the integrator.  The second estimator evaluates each flow as a single RK4
step of dual-valued size around duration zero, whose Taylor coefficients up
to order four match the exact flow map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import (
    Expr,
    compile_flow,
    const,
    evaluate,
    jet_coefficient,
    jet_seed,
    mul,
    parse_expression,
    real_part,
    var,
)
from .fields import (
    Point,
    TangentVector,
    VectorField,
    cached_on,
    composite_flow,
    eval_vector_field,
    lie_bracket,
    negate_field,
)

MAX_ORDER = 4

# Ratio between the order-2 jet of the commutator recipe and the Lie bracket
# of its two fields.  Resolved empirically against the symbolic bracket (the
# jet is the second derivative of a curve whose leading term is s^2 times
# the bracket); the acceptance suite re-derives it on random field pairs.
KAPPA = 2.0

DEFAULT_S0 = 0.1  # coarsest finite-difference step of the jet estimator
JET_STEP = 1e-2  # integrator step of the templates' variation curves
RICHARDSON_LEVELS = 3
AGREEMENT_REL_TOL = 1e-3  # the jet cross-check, relative to the larger norm
PARALLEL_COS_TOL = 1e-12


class VariationError(Exception):
    pass


class JetFragilityError(VariationError):
    """The two jet estimators disagree beyond tolerance."""


class ConventionError(VariationError):
    """A template produced a vector that is not parallel to its oracle."""


@dataclass(frozen=True)
class EndTimeVariation:
    """Smooth duration schedule (q1, q2, tau_1..tau_r) with value 0 at s=0."""

    q1: Expr
    q2: Expr
    tau: tuple[Expr, ...]
    s_max: float = 0.5

    def __post_init__(self):
        for label, e in (("q1", self.q1), ("q2", self.q2)) + tuple(
            (f"tau[{i}]", t) for i, t in enumerate(self.tau)
        ):
            v0 = evaluate(e, {"s": 0.0})
            if abs(v0) > 1e-12:
                raise VariationError(f"{label}(0) = {v0!r}, must vanish")
        for i, t in enumerate(self.tau):
            for s in np.linspace(0.0, self.s_max, 11):
                if evaluate(t, {"s": float(s)}) < -1e-12:
                    raise VariationError(f"tau[{i}] is negative at s = {s}")

    @property
    def r(self) -> int:
        return len(self.tau)

    def durations(self, s):
        """(q1(s), tau_1(s)..tau_r(s), q2(s)) for a generic scalar s."""
        fn = cached_on(self, "_compiled", lambda: compile_flow((self.q1, self.q2) + self.tau, ("s",)))
        vals = fn(None, 0, 0, 0.0, [s])
        return vals[0], vals[2:], vals[1]


def end_time_variation(q1, q2, tau: Sequence, s_max: float = 0.5) -> EndTimeVariation:
    """Build a duration schedule from strings or expression trees in `s`."""

    def conv(e):
        return parse_expression(e, ("s",)) if isinstance(e, str) else e

    return EndTimeVariation(conv(q1), conv(q2), tuple(conv(t) for t in tau), s_max)


@dataclass(frozen=True, eq=False)
class PerturbationVector:
    base: Point
    time: float
    order: int
    vector: TangentVector
    recipe: tuple[str, EndTimeVariation]
    curve: Callable = field(repr=False, default=None)

    def __post_init__(self):
        if self.order < 1:
            raise VariationError("perturbation order must be >= 1")
        if self.vector.norm == 0.0:
            raise VariationError("perturbation vector must be nonzero")


def variation_curve(
    xi0: VectorField,
    seq: Sequence[VectorField],
    tau2: EndTimeVariation,
    x: Point,
    s,
    step: float = 1e-3,
) -> Point:
    """The composite-flow curve at parameter value `s` (may carry duals).

    Order of application: the q1-flow of `xi0` first, then the flows of
    `seq` (first entry first) for their tau durations, then the q2-flow.
    """
    if len(seq) != tau2.r:
        raise VariationError(f"{len(seq)} fields for {tau2.r} durations")
    if real_part(s) < 0.0:
        raise VariationError("variation parameter must be nonnegative")
    q1v, tauv, q2v = tau2.durations(s)
    return composite_flow([xi0, *seq, xi0], [q1v, *tauv, q2v], x, step)


# ---------------------------------------------------------------------------
# Jet estimation.
# ---------------------------------------------------------------------------


def _point_array(p) -> np.ndarray:
    if isinstance(p, Point):
        return p.coords
    return np.asarray(p)


def _fd_jets(curve, l_max: int, s0: float) -> tuple[list[np.ndarray], np.ndarray, list[float]]:
    """Forward-difference jets, Richardson-extrapolated on {s0 * 2^-j}, the
    curve at 0, and the norm of each jet's last Richardson correction."""
    cache: dict[float, np.ndarray] = {}

    def ev(s: float) -> np.ndarray:
        if s not in cache:
            cache[s] = np.asarray(_point_array(curve(s)), dtype=float)
        return cache[s]

    jets, corrections = [], []
    for l in range(1, l_max + 1):
        binom = [math.comb(l, i) * (-1.0) ** (l - i) for i in range(l + 1)]
        table = []
        for j in range(RICHARDSON_LEVELS + 1):
            h = s0 * 2.0 ** (-j)
            acc = binom[0] * ev(0.0)
            for i in range(1, l + 1):
                acc = acc + binom[i] * ev(i * h)
            table.append(acc / h**l)
        for k in range(1, len(table)):
            f = 2.0**k
            finest = table[-1]
            table = [
                (f * table[j + 1] - table[j]) / (f - 1.0) for j in range(len(table) - 1)
            ]
        jets.append(table[0])
        corrections.append(float(np.linalg.norm(table[0] - finest)))
    return jets, ev(0.0), corrections


def _taylor_jets(curve, l_max: int) -> list[np.ndarray] | None:
    """Jets from one evaluation at a dual-seeded parameter, or None."""
    try:
        out = _point_array(curve(jet_seed(0.0, l_max)))
    except (TypeError, AttributeError, ValueError):
        return None
    jets = []
    for l in range(1, l_max + 1):
        jets.append(
            np.array([jet_coefficient(c, l, l_max) for c in out], dtype=float)
        )
    return jets


def zero_threshold(x) -> float:
    """1e-6 (1 + |x|): a jet, or a vector at base point x, no larger than
    this is zero."""
    arr = _point_array(x)  # derivative carriers are stripped from an object array only
    return 1e-6 * (1.0 + float(np.linalg.norm(np.vectorize(real_part)(arr) if arr.dtype == object else arr)))


def estimate_jets(curve: Callable, l_max: int) -> list[np.ndarray]:
    """One-sided derivative estimates d^l curve / ds^l at 0 for l = 1..l_max.

    Runs both estimators whenever the curve accepts derivative-carrying
    scalars and cross-checks every jet either of them puts above the zero
    threshold of the curve's value at 0.
    """
    if l_max > MAX_ORDER:
        raise VariationError(f"jets supported up to order {MAX_ORDER}")
    (fd, x0, _), taylor = _fd_jets(curve, l_max, DEFAULT_S0), _taylor_jets(curve, l_max)
    if taylor is None:
        return fd
    floor = zero_threshold(x0)
    for l, (a, b) in enumerate(zip(fd, taylor), start=1):
        if max(float(np.linalg.norm(a)), float(np.linalg.norm(b))) > floor:
            _check_agreement(l, a, b)
    return taylor


def _check_agreement(l: int, a: np.ndarray, b: np.ndarray):
    """The cross-check: the order-l estimates may differ by at most
    AGREEMENT_REL_TOL times the larger norm, else :class:`JetFragilityError`."""
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    if float(np.linalg.norm(a - b)) > AGREEMENT_REL_TOL * scale:
        raise JetFragilityError(
            f"jet estimators disagree at order {l}: "
            f"finite differences {a.tolist()} vs derivative transport {b.tolist()}"
        )


def _detect_order(curve, x: Point, l_max: int) -> tuple[int, np.ndarray] | None:
    """(order, jet) of the first jet above the zero threshold at x, or None
    when the curve is flat up to `l_max`."""
    eps = zero_threshold(x)
    (fd, _, corrections), taylor = _fd_jets(curve, l_max, DEFAULT_S0), _taylor_jets(curve, l_max)
    for l in range(1, l_max + 1):
        a = fd[l - 1]
        b = taylor[l - 1] if taylor is not None else a
        # once either estimator clears the threshold the two must agree; the
        # finite differences clear it only by more than their last Richardson
        # correction, so a truncation residue on a flat curve is no jet
        if float(np.linalg.norm(b)) > eps or float(np.linalg.norm(a)) - corrections[l - 1] > eps:
            _check_agreement(l, a, b)
            return l, b
    return None


def order_and_vector(
    xi0: VectorField,
    seq: Sequence[VectorField],
    tau2: EndTimeVariation,
    x: Point,
    t0: float = 0.0,
    l_max: int = MAX_ORDER,
    descriptor: str = "custom",
) -> PerturbationVector | None:
    """Smallest order with a nonvanishing jet, packaged with its recipe.

    Returns None when every jet up to `l_max` stays below the threshold
    (order infinity: the curve is flat to the tested order).
    """

    def curve(s):
        return variation_curve(xi0, seq, tau2, x, s, JET_STEP)

    found = _detect_order(curve, x, l_max)
    if found is None:
        return None
    return PerturbationVector(
        base=x,
        time=t0,
        order=found[0],
        vector=TangentVector(x, found[1]),
        recipe=(descriptor, tau2),
        curve=curve,
    )


# ---------------------------------------------------------------------------
# Templates.
# ---------------------------------------------------------------------------


def needle_variation(
    system,
    u_ref: Sequence[float],
    u1: Sequence[float],
    l1: float,
    x: Point,
    t0: float = 0.0,
) -> PerturbationVector | None:
    """Pontryagin-style needle: flow back along the reference for l1*s, then
    along the u1-slice for l1*s.  Closed form l1 * (xi_u1 - xi_uref)(x); the
    numerically estimated first jet must agree within 1e-6 (relative to the
    closed form's norm, when that exceeds one).

    Returns None when u1 produces the reference slice (degenerate needle).
    """
    if not 0.0 < l1 < math.inf:
        raise VariationError(f"needle duration rate l1 must be positive and finite, got {l1}")
    for label, u in (("u_ref", u_ref), ("u1", u1)):
        for c, v in enumerate(u):
            lo, hi = system.control_box[c]
            if not lo < float(v) < hi:
                raise VariationError(
                    f"{label}[{c}] = {v} is outside the open control box ({lo}, {hi})"
                )
    xi0 = system.slice_field(u_ref)
    xi1 = system.slice_field(u1)
    v0 = np.asarray(eval_vector_field(xi0, x).components, dtype=float)
    v1 = np.asarray(eval_vector_field(xi1, x).components, dtype=float)
    closed = l1 * (v1 - v0)
    if float(np.linalg.norm(closed)) <= zero_threshold(x):
        return None
    tau2 = _needle_schedule(l1)

    def curve(sv):
        return variation_curve(xi0, [xi1], tau2, x, sv, JET_STEP)

    j1 = estimate_jets(curve, 1)[0]
    scale = max(1.0, float(np.linalg.norm(closed)))
    if float(np.linalg.norm(j1 - closed)) > 1e-6 * scale:
        raise ConventionError(
            f"needle first jet {j1.tolist()} does not match the closed form {closed.tolist()}"
        )
    return PerturbationVector(
        base=x,
        time=t0,
        order=1,
        vector=TangentVector(x, closed),
        recipe=(f"needle u1={list(map(float, u1))} l1={l1}", tau2),
        curve=curve,
    )


@functools.lru_cache(maxsize=64)
def _needle_schedule(l1: float) -> EndTimeVariation:
    """(-l1 s, 0, (l1 s,)), built and compiled once per rate."""
    s = var("s")
    return EndTimeVariation(mul(const(-l1), s), const(0.0), (mul(const(l1), s),))


@functools.cache
def commutator_schedule() -> EndTimeVariation:
    """(-s, 0, (s, s, s)); one shared immutable instance."""
    s = var("s")
    return EndTimeVariation(mul(const(-1.0), s), const(0.0), (s, s, s))


def bracket_variation(
    xi0: VectorField,
    zj: VectorField,
    x: Point,
    t0: float = 0.0,
    descriptor: str | None = None,
) -> PerturbationVector | None:
    """Order-2 commutator recipe whose jet is KAPPA * [xi0, zj](x), within
    1e-4 relative to the larger norm.

    The four flows run xi0 backward, zj backward, xi0 forward, zj forward,
    each for duration s.  Returns None when the bracket vanishes at x
    (the curve is flat to second order there).
    """
    bracket = lie_bracket(xi0, zj)
    b = np.asarray(eval_vector_field(bracket, x).components, dtype=float)
    if float(np.linalg.norm(b)) <= zero_threshold(x):
        return None
    tau2 = commutator_schedule()
    seq = [negate_field(zj), xi0, zj]
    pv = order_and_vector(xi0, seq, tau2, x, t0=t0, l_max=2, descriptor=descriptor or "commutator")
    if pv is None or pv.order != 2:
        got = "infinity" if pv is None else str(pv.order)
        raise ConventionError(
            f"commutator recipe produced order {got}, expected 2 "
            f"(bracket at base = {b.tolist()})"
        )
    v = pv.vector.components
    target = KAPPA * b
    scale = max(float(np.linalg.norm(v)), float(np.linalg.norm(target)))
    if float(np.linalg.norm(v - target)) > 1e-4 * scale:
        raise ConventionError(
            f"commutator jet {v.tolist()} is not KAPPA times the bracket {b.tolist()}"
        )
    return pv


def resolve_bracket_ratio(jet: np.ndarray, bracket: np.ndarray) -> float:
    """Least-squares ratio jet / bracket; the convention constant estimator."""
    denom = float(np.dot(bracket, bracket))
    if denom == 0.0:
        raise VariationError("cannot resolve a ratio against a zero bracket")
    return float(np.dot(jet, bracket)) / denom


# ---------------------------------------------------------------------------
# Sampling the perturbation-vector set along a reference trajectory.
# ---------------------------------------------------------------------------


def _control_grid(system, u_ref: np.ndarray) -> list[np.ndarray]:
    """Symmetric 3^k grid around the reference control: each control steps
    by half its room to the nearer bound of the box, or by 1 when both
    bounds are infinite."""
    k = len(u_ref)
    deltas = []
    for c in range(k):
        lo, hi = system.control_box[c]
        room = min(u_ref[c] - lo, hi - u_ref[c])
        deltas.append(max(0.0, 0.5 * room) if math.isfinite(room) else 1.0)
    grid = []
    for flat in range(3**k):
        g = np.array([(flat // 3**c) % 3 - 1 for c in range(k)], dtype=float)
        grid.append(u_ref + g * np.asarray(deltas))
    return grid


def keep_new_direction(kept: list, v: np.ndarray) -> bool:
    """Append (v, |v|) to `kept`, a list of such pairs, unless v is zero or
    points the way of a kept vector w: cosine within PARALLEL_COS_TOL of one,
    ``np.dot(w, v) / (|w| |v|)``.  Each norm is computed once.  The duplicate
    test for perturbation vectors and cone generators; True when v was kept."""
    nv = np.linalg.norm(v)
    if nv == 0.0 or any(float(np.dot(w, v) / (nw * nv)) >= 1.0 - PARALLEL_COS_TOL for w, nw in kept):
        return False
    kept.append((v, nv))
    return True


def sample_perturbation_set(
    system,
    reference,
    t0: float,
    budget: int = 16,
) -> list[PerturbationVector]:
    """A finite sample of perturbation vectors at gamma(t0).

    Order 1: needle vectors of rate 1 over a 3^k control grid around the
    reference control.  Order 2: commutator recipes of the reference slice
    against each input field (or against grid slices for extended
    systems).  A vector parallel to an earlier one is dropped
    (:func:`keep_new_direction`; needles and brackets at or below the zero
    threshold are never built, so no zero vector arrives), and at most
    `budget` vectors are returned.
    """
    a, b_end = reference.interval
    if not (a <= t0 <= b_end):
        raise VariationError(f"t0 = {t0} outside the reference interval [{a}, {b_end}]")
    x = reference.point_at(t0)
    u_ref = np.asarray(reference.control_at(t0), dtype=float)
    grid = _control_grid(system, u_ref)

    out: list[PerturbationVector] = []
    directions: list = []

    def push(pv):
        if pv is not None and keep_new_direction(directions, pv.vector.components):
            out.append(pv)

    for u1 in grid:
        if np.array_equal(u1, u_ref):
            continue
        push(needle_variation(system, u_ref, u1, 1.0, x, t0=t0))
        if len(out) >= budget:
            return out[:budget]

    xi0 = system.slice_field(u_ref)
    if system is not system.base:  # cost-extended
        partners = [
            (system.slice_field(u1), f"commutator slice u={u1.tolist()}")
            for u1 in grid
            if not np.array_equal(u1, u_ref)
        ]
    else:
        partners = [(vf, f"commutator input {c + 1}") for c, vf in enumerate(system.inputs)]
    for zj, descr in partners:
        push(bracket_variation(xi0, zj, x, t0=t0, descriptor=descr))
        if len(out) >= budget:
            break
    return out[:budget]


# ---------------------------------------------------------------------------
# Leading-order asymptotics check (residual slope of nu(s) - x - V s^l / l!).
# ---------------------------------------------------------------------------


def residual_slope(
    pv: PerturbationVector, svals: Sequence[float] = (0.1, 0.05, 0.025)
) -> float:
    """Log-log slope of the residual against s; infinite for exact curves."""
    x0 = np.vectorize(real_part)(pv.base.coords).astype(float)
    V = pv.vector.components
    l = pv.order
    fact = math.factorial(l)
    scale = 1.0 + float(np.linalg.norm(x0))
    rs = []
    for s in svals:
        nu = np.asarray(_point_array(pv.curve(float(s))), dtype=float)
        rs.append(float(np.linalg.norm(nu - x0 - V * s**l / fact)))
    if max(rs) <= 1e-13 * scale:
        return math.inf
    logs = np.log([max(r, 1e-16) for r in rs])
    logh = np.log(np.asarray(svals, dtype=float))
    slope, _ = np.polyfit(logh, logs, 1)
    return float(slope)

"""Parameter-dependent variation curves of reference trajectories.

A variation curve is a tuple of legs (field, rate): leg i flows its field
for the duration rate * s, and the first leg acts first.  Its first
nonvanishing one-sided jet at parameter zero is the perturbation vector the
curve contributes.  Two template families are built in: the classical
needle (legs (xi0, -l1), (xi1, l1); order 1, closed form l1*(xi1 - xi0))
and the four-leg commutator (order 2, parallel to the Lie bracket of the
two fields involved).

Jets are estimated twice and cross-checked: Richardson-extrapolated forward
differences on a dyadic grid, and derivative-carrying scalars pushed through
the integrator.  The second estimator evaluates each flow as a single RK4
step of dual-valued size around duration zero, whose Taylor coefficients up
to order four match the exact flow map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .expr import jet_coefficient, jet_seed, real_part
from .fields import (
    Point,
    TangentVector,
    VectorField,
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


@dataclass(frozen=True, eq=False)
class PerturbationVector:
    base: Point
    time: float
    order: int
    vector: TangentVector
    recipe: str
    curve: Callable = field(repr=False, default=None)

    def __post_init__(self):
        if self.order < 1:
            raise VariationError("perturbation order must be >= 1")
        if self.vector.norm == 0.0:
            raise VariationError("perturbation vector must be nonzero")


def variation_curve(legs: Sequence[tuple[VectorField, float]], x: Point, s, step: float = 1e-3) -> Point:
    """The curve at parameter value `s` (may carry duals): each leg
    (field, rate) flows its field for rate * s, the first leg first.

    Write no zero-rate leg: 0.0 times a Dual is a Dual, never equal to 0.0,
    so the leg would integrate a step instead of being skipped.
    """
    if real_part(s) < 0.0:
        raise VariationError("variation parameter must be nonnegative")
    return composite_flow([vf for vf, _ in legs], [rate * s for _, rate in legs], x, step)


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


def _taylor_jets(curve, l_max: int) -> list[np.ndarray]:
    """Jets from one evaluation at a dual-seeded parameter."""
    out = _point_array(curve(jet_seed(0.0, l_max)))
    return [np.array([jet_coefficient(c, l, l_max) for c in out], dtype=float) for l in range(1, l_max + 1)]


def zero_threshold(x) -> float:
    """1e-6 (1 + |x|): a jet, or a vector at base point x, no larger than
    this is zero.  The norm is taken without overflow, so the threshold is
    finite wherever |x| is."""
    return 1e-6 * (1.0 + math.hypot(*map(real_part, _point_array(x))))


def _jets(curve: Callable, l_max: int, x=None) -> tuple[list[np.ndarray], int | None]:
    """The jets d^l curve / ds^l at 0 for l = 1..l_max, by derivative
    transport, and the first order whose jet is nonzero at base point `x`
    (by default the curve at 0), or None when the curve is flat to `l_max`.

    Both estimators run on every jet.  An order is nonzero when the
    derivative transport clears the zero threshold, or the finite
    differences clear it by more than their last Richardson correction (so a
    truncation residue on a flat curve is no jet).  At every nonzero order
    the two estimates must agree within AGREEMENT_REL_TOL times the larger
    norm, else :class:`JetFragilityError`: a jet only one of them sees is a
    disagreement, not a zero.
    """
    if l_max > MAX_ORDER:
        raise VariationError(f"jets supported up to order {MAX_ORDER}")
    (fd, x0, corrections), taylor = _fd_jets(curve, l_max, DEFAULT_S0), _taylor_jets(curve, l_max)
    eps = zero_threshold(x0 if x is None else x)
    order = None
    for l, (a, b, c) in enumerate(zip(fd, taylor, corrections), start=1):
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        if nb > eps or na - c > eps:
            if float(np.linalg.norm(a - b)) > AGREEMENT_REL_TOL * max(na, nb):
                raise JetFragilityError(
                    f"jet estimators disagree at order {l}: "
                    f"finite differences {a.tolist()} vs derivative transport {b.tolist()}"
                )
            order = order or l
    return taylor, order


def estimate_jets(curve: Callable, l_max: int) -> list[np.ndarray]:
    """One-sided derivative estimates d^l curve / ds^l at 0 for l = 1..l_max,
    cross-checked as :func:`_jets` does.  The curve must accept
    derivative-carrying scalars."""
    return _jets(curve, l_max)[0]


def order_and_vector(
    legs: Sequence[tuple[VectorField, float]],
    x: Point,
    t0: float = 0.0,
    l_max: int = MAX_ORDER,
    descriptor: str = "custom",
) -> PerturbationVector | None:
    """Smallest order with a nonvanishing jet at x (:func:`_jets`) of the
    curve of `legs`, packaged with `descriptor` as its recipe.

    Returns None when every jet up to `l_max` stays below the threshold
    (order infinity: the curve is flat to the tested order).
    """

    def curve(s):
        return variation_curve(legs, x, s, JET_STEP)

    jets, order = _jets(curve, l_max, x)
    if order is None:
        return None
    return PerturbationVector(
        base=x,
        time=t0,
        order=order,
        vector=TangentVector(x, jets[order - 1]),
        recipe=descriptor,
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
    first jet, found by :func:`order_and_vector`, must agree within 1e-6
    (relative to the closed form's norm, when that exceeds one), and the
    closed form is returned.

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
    descriptor = f"needle u1={list(map(float, u1))} l1={l1}"
    pv = order_and_vector(((xi0, -l1), (xi1, l1)), x, t0, 1, descriptor)
    j1 = np.zeros_like(closed) if pv is None else pv.vector.components
    if float(np.linalg.norm(j1 - closed)) > 1e-6 * max(1.0, float(np.linalg.norm(closed))):
        raise ConventionError(
            f"needle first jet {j1.tolist()} does not match the closed form {closed.tolist()}"
        )
    return replace(pv, vector=TangentVector(x, closed))


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
    legs = ((xi0, -1.0), (negate_field(zj), 1.0), (xi0, 1.0), (zj, 1.0))
    pv = order_and_vector(legs, x, t0=t0, l_max=2, descriptor=descriptor or "commutator")
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

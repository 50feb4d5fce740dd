"""Affine-connection control systems on a tangent-bundle chart.

The chart stacks configuration coordinates with their velocities.  The
geodesic spray carries velocities forward and accelerates by the negated
Christoffel contraction; inputs act through vertical lifts.  The generator
families of the resulting constraint ladder are the lifts themselves and
their drift brackets, and the first/second-order jet identities tying them
to variation templates are verified numerically here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Expr, const, evaluate, expr_sum, free_variables, mul, neg, parse_expression, var
from .fields import VectorField, eval_vector_field, lie_bracket
from .ocp import ControlAffineSystem, Trajectory, build_control_affine
from .pca import _rank_of
from .variations import JET_STEP, KAPPA, estimate_jets, variation_curve


class MechError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class ConnectionSpec:
    coordinates: tuple[str, ...]
    velocities: tuple[str, ...]
    christoffel: tuple[tuple[tuple[Expr, ...], ...], ...]  # Gamma[i][j][k]

    def __post_init__(self):
        n = len(self.coordinates)
        if len(self.velocities) != n:
            raise MechError("one velocity name per configuration coordinate")
        if set(self.coordinates) & set(self.velocities):
            raise MechError("coordinate and velocity names must not overlap")
        if len(self.christoffel) != n or any(
            len(row) != n or any(len(cell) != n for cell in row) for row in self.christoffel
        ):
            raise MechError(f"christoffel symbols must form an {n}x{n}x{n} array")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    names = free_variables(self.christoffel[i][j][k])
                    if not names <= set(self.coordinates):
                        raise MechError(
                            f"Gamma[{i}][{j}][{k}] uses non-configuration names {sorted(names)}"
                        )
        self._check_symmetry()

    def _check_symmetry(self):
        n = len(self.coordinates)
        rng = np.random.default_rng(0)
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    a, b = self.christoffel[i][j][k], self.christoffel[i][k][j]
                    if a == b:
                        continue
                    for _ in range(10):
                        env = {
                            name: float(rng.uniform(0.5, 1.5))
                            for name in self.coordinates
                        }
                        if abs(evaluate(a, env) - evaluate(b, env)) > 1e-10:
                            raise MechError(
                                f"Gamma[{i}][{j}][{k}] is not symmetric in its lower indices"
                            )

    @property
    def n(self) -> int:
        return len(self.coordinates)

    @property
    def chart(self) -> tuple[str, ...]:
        return self.coordinates + self.velocities


def connection_spec(coordinates, velocities, christoffel) -> ConnectionSpec:
    """Build a spec from nested lists of strings or expression trees."""
    coords = tuple(coordinates)
    parsed = tuple(
        tuple(
            tuple(
                parse_expression(cell, coords) if isinstance(cell, str) else cell
                for cell in row2
            )
            for row2 in row
        )
        for row in christoffel
    )
    return ConnectionSpec(coords, tuple(velocities), parsed)


def spray_from_christoffel(conn: ConnectionSpec) -> VectorField:
    """Geodesic spray: x' = v, v^i' = -Gamma^i_{jk}(x) v^j v^k."""
    n = conn.n
    comps = [var(name) for name in conn.velocities]
    for i in range(n):
        terms = []
        for j in range(n):
            for k in range(n):
                g = conn.christoffel[i][j][k]
                terms.append(
                    neg(mul(g, mul(var(conn.velocities[j]), var(conn.velocities[k]))))
                )
        comps.append(expr_sum(terms))
    return VectorField(conn.chart, tuple(comps))


def vertical_lift(y: VectorField, conn: ConnectionSpec) -> VectorField:
    """Lift a configuration-space field into the velocity block."""
    if y.variables != conn.coordinates:
        raise MechError("field to lift must live on the configuration chart")
    zero = const(0.0)
    comps = tuple(zero for _ in range(conn.n)) + y.components
    return VectorField(conn.chart, comps)


def build_acc_system(
    conn: ConnectionSpec,
    inputs: Sequence[VectorField],
    control_box: Sequence[Sequence[float]] | None = None,
    control_names: Sequence[str] | None = None,
) -> ControlAffineSystem:
    """Control-affine system on the tangent-bundle chart: spray + lifts."""
    lifts = [vertical_lift(y, conn) for y in inputs]
    if control_box is None:
        control_box = [(-math.inf, math.inf)] * len(lifts)
    return build_control_affine(
        conn.chart, spray_from_christoffel(conn), lifts, control_box, control_names
    )


# ---------------------------------------------------------------------------
# Generator families and the jet identities that justify them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    input_index: int
    lhs: np.ndarray
    rhs: np.ndarray
    error: float
    passed: bool


@dataclass(frozen=True)
class GeneratorFamilyReport:
    z0: tuple[VectorField, ...]
    z1: tuple[VectorField, ...]
    checks: tuple[IdentityCheck, ...]
    reduction_max_error: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def generator_families(
    system: ControlAffineSystem,
    reference: Trajectory,
    sample_time: float | None = None,
) -> GeneratorFamilyReport:
    """Generator families of the acceleration system plus their identities.

    The first family is the vertical lifts (the input fields); the second
    is their brackets with the reference slice.  At the sample time the
    four jet identities are verified numerically, each within 1e-4 relative
    to its target's norm when that exceeds one: single-flow-pair curves
    produce +/- the lift at first order, and the four-flow curves produce
    +/- KAPPA times the bracket at second order.  The reduction identity
    (annihilators of the lifts cannot tell the reference slice from the
    bare spray inside the bracket) is checked to 1e-9 on the lift
    annihilator.
    """
    a, b = reference.interval
    t0 = sample_time if sample_time is not None else 0.5 * (a + b)
    x = reference.point_at(t0)
    u0 = reference.control_at(t0)
    xi0 = system.slice_field(u0)
    lifts = system.inputs

    z1 = tuple(lie_bracket(xi0, yv) for yv in lifts)
    y_vals, b_vals, checks = [], [], []
    for i, yv in enumerate(lifts):
        ei = np.zeros(system.k)
        ei[i] = 1.0
        plus = system.slice_field(np.asarray(u0) + ei)
        minus = system.slice_field(np.asarray(u0) - ei)
        y_val = np.asarray(eval_vector_field(yv, x).components, dtype=float)
        b_val = np.asarray(eval_vector_field(z1[i], x).components, dtype=float)
        y_vals.append(y_val)
        b_vals.append(b_val)
        # (name, legs of variations.variation_curve, jet order, target)
        for name, legs, order, target in (
            ("j1 forward slice", ((plus, 1.0), (xi0, -1.0)), 1, y_val),
            ("j1 backward slice", ((minus, 1.0), (xi0, -1.0)), 1, -y_val),
            ("j2 commutator", ((xi0, -1.0), (minus, 1.0), (plus, 1.0), (xi0, -1.0)), 2, KAPPA * b_val),
            ("j2 commutator swapped", ((xi0, -1.0), (plus, 1.0), (minus, 1.0), (xi0, -1.0)), 2, -KAPPA * b_val),
        ):

            def curve(s, legs=legs):
                return variation_curve(legs, x, s, JET_STEP)

            checks.append(_check(name, i, estimate_jets(curve, order)[order - 1], target))

    # annihilators of the lifts cannot see the control part of the bracket
    _, s, vt = np.linalg.svd(np.stack(y_vals))
    rank = _rank_of(s)
    reduction_err = 0.0
    if rank < len(vt):
        gaps = [
            b_val - np.asarray(eval_vector_field(lie_bracket(system.drift, yv), x).components, dtype=float)
            for yv, b_val in zip(lifts, b_vals)
        ]
        for lam in vt[rank:]:
            for gap in gaps:
                reduction_err = max(reduction_err, abs(float(np.dot(lam, gap))))
    if reduction_err > 1e-9:
        lhs = np.array([reduction_err])
        checks.append(IdentityCheck("reduction to the spray bracket", -1, lhs, np.array([0.0]), reduction_err, False))
    return GeneratorFamilyReport(tuple(lifts), z1, tuple(checks), reduction_err)


def _check(name, index, lhs, rhs) -> IdentityCheck:
    scale = max(1.0, float(np.linalg.norm(rhs)))
    err = float(np.linalg.norm(np.asarray(lhs) - np.asarray(rhs)))
    return IdentityCheck(name, index, np.asarray(lhs), np.asarray(rhs), err, err <= 1e-4 * scale)

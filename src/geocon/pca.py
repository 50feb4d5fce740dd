"""Constraint ladder for abnormal candidates of control-affine systems.

Starting from the input fields (the gradient-in-u of the Hamiltonian pairing
must vanish), each step differentiates the pairings along the dynamics,
which produces brackets of the drift and input fields with the current
generators.  Every nonzero coefficient field of the resulting control
polynomial is imposed as a new constraint; the ladder stabilizes when a
step stops adding directions at the sampled points of the reference
trajectory.  Covectors annihilating all adopted generators at a point are
the abnormal momentum candidates there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import free_variables, render
from .fields import Covector, VectorField, as_point, is_zero_field, lie_bracket
from .ocp import Biextremal, Trajectory

RANK_REL_TOL = 1e-9


class PcaError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorRecord:
    name: str
    level: int
    field: VectorField
    parent: str | None = None  # level-0 generators have no parent
    bracket_with: str | None = None

    def rendered(self) -> list[str]:
        return [render(c) for c in self.field.components]


@dataclass(frozen=True)
class ControlPolynomialConstraint:
    """d/dt <lambda, Z> as a degree <= 1 polynomial in the control values."""

    parent: str
    constant_part: VectorField  # coefficient of u^0: [X0, Z]
    linear_parts: tuple[VectorField, ...]  # coefficient of u^d: [X_d, Z]

    def __post_init__(self):
        for vf in (self.constant_part, *self.linear_parts):
            leaked = set()
            for comp in vf.components:
                leaked |= free_variables(comp) - set(vf.variables)
            if leaked:
                raise PcaError(
                    f"constraint coefficients may not depend on controls: {sorted(leaked)}"
                )

    @property
    def degree(self) -> int:
        return 1 if any(not is_zero_field(vf) for vf in self.linear_parts) else 0


@dataclass
class LadderLevel:
    index: int
    generators: list[GeneratorRecord]
    constraints: list[ControlPolynomialConstraint]
    span_dims: dict[float, int]
    branch_flag: bool  # some u-coefficient survived: controls could be determined


@dataclass
class ConstraintLadder:
    sample_times: tuple[float, ...]
    sample_points: tuple[np.ndarray, ...]
    levels: list[LadderLevel]
    stabilized_at: int | None = None

    def all_generators(self) -> list[GeneratorRecord]:
        return [g for lvl in self.levels for g in lvl.generators]

    @property
    def dimension(self) -> int:
        gens = self.all_generators()
        if gens:
            return gens[0].field.dim
        return len(self.sample_points[0]) if self.sample_points else 0


def _rank_of(s: np.ndarray) -> int:
    """Numerical rank from singular values in decreasing order."""
    if len(s) == 0 or not s[0] > 0.0:
        return 0
    return int(np.sum(s > RANK_REL_TOL * s[0]))


def _rank(rows: list[np.ndarray]) -> int:
    return _rank_of(np.linalg.svd(np.asarray(rows), compute_uv=False)) if rows else 0


def primary_constraints(system) -> ConstraintLadder:
    """Level 0: the input fields, whose pairings with the momentum vanish.

    The ladder works on the state space, so a cost-extended system
    contributes the input fields of its base system.
    """
    base = system.base
    gens = [
        GeneratorRecord(name=f"X{c + 1}", level=0, field=vf)
        for c, vf in enumerate(base.inputs)
    ]
    level0 = LadderLevel(0, gens, [], {}, False)
    ladder = ConstraintLadder((), (), [level0], None)
    if base.k == 0:
        ladder.stabilized_at = 0
    return ladder


def _attach_samples(ladder: ConstraintLadder, reference: Trajectory, sample_times):
    """Sample the reference at `sample_times`, by default at the schedule's
    default analysis times before the interval end."""
    if not sample_times:
        end = reference.interval[1]
        sample_times = [t for t in reference.schedule.sample_times(reference.interval) if t < end]
    times = tuple(float(t) for t in sample_times)
    if len(times) < 1:
        raise PcaError("at least one sample time required")
    switches = reference.schedule.interior_breakpoints(reference.interval)
    for t in times:
        if any(abs(t - s) <= 1e-12 for s in switches):
            raise PcaError(f"sample time {t} sits on a control switch")
    ladder.sample_times = times
    ladder.sample_points = tuple(reference.state_at(t) for t in times)
    for lvl in ladder.levels:
        _record_spans(ladder, lvl)


def _record_spans(ladder: ConstraintLadder, level: LadderLevel):
    upto = [g for l in ladder.levels[: level.index + 1] for g in l.generators]
    for t, p in zip(ladder.sample_times, ladder.sample_points):
        rows = [np.asarray(g.field(list(p)), dtype=float) for g in upto]
        level.span_dims[t] = _rank(rows)


def ladder_step(ladder: ConstraintLadder, system, reference: Trajectory) -> ConstraintLadder:
    """Append one constraint level built from brackets with the last one.

    For each current generator Z the derivative of <lambda, Z> along the
    dynamics is <lambda, [X0, Z]> + sum_d u^d <lambda, [X_d, Z]>; every
    coefficient field that is not symbolically zero and adds a direction at
    some sample point becomes a new generator.
    """
    if ladder.stabilized_at is not None:
        raise PcaError("ladder already stabilized")
    if not ladder.sample_times:
        _attach_samples(ladder, reference, None)
    base = system.base
    parents = ladder.levels[-1].generators
    level_index = len(ladder.levels)

    constraints = []
    for g in parents:
        constant = lie_bracket(base.drift, g.field)
        linear = tuple(lie_bracket(vf, g.field) for vf in base.inputs)
        constraints.append(
            ControlPolynomialConstraint(parent=g.name, constant_part=constant, linear_parts=linear)
        )
    branch = any(c.degree == 1 for c in constraints)

    existing_values = {
        t: [np.asarray(g.field(list(p)), dtype=float) for g in ladder.all_generators()]
        for t, p in zip(ladder.sample_times, ladder.sample_points)
    }
    base_ranks = {t: _rank(rows) for t, rows in existing_values.items()}

    adopted: list[GeneratorRecord] = []

    def consider(vf: VectorField, parent: str, partner: str):
        nonlocal existing_values, base_ranks
        if is_zero_field(vf):
            return
        expands = False
        values = {}
        for t, p in zip(ladder.sample_times, ladder.sample_points):
            v = np.asarray(vf(list(p)), dtype=float)
            values[t] = v
            if _rank(existing_values[t] + [v]) > base_ranks[t]:
                expands = True
        if not expands:
            return
        name = f"[{partner},{parent}]"
        adopted.append(
            GeneratorRecord(name=name, level=level_index, field=vf, parent=parent, bracket_with=partner)
        )
        for t in existing_values:
            existing_values[t].append(values[t])
            base_ranks[t] = _rank(existing_values[t])

    # drift brackets first, then each input in order, scanning all parents
    for partner_idx in range(base.k + 1):
        for constraint in constraints:
            if partner_idx == 0:
                consider(constraint.constant_part, constraint.parent, "X0")
            else:
                consider(
                    constraint.linear_parts[partner_idx - 1],
                    constraint.parent,
                    f"X{partner_idx}",
                )

    level = LadderLevel(level_index, adopted, constraints, {}, branch)
    ladder.levels.append(level)
    _record_spans(ladder, level)
    return ladder


def run_algorithm(
    system,
    reference: Trajectory,
    sample_times: Sequence[float] | None = None,
    max_levels: int = 6,
) -> ConstraintLadder:
    """Iterate constraint levels until the sampled spans stop growing.

    `stabilized_at` names the first level whose constraints added nothing
    (or at which the span is already full everywhere); when `max_levels`
    passes without that happening the ladder is returned non-stabilized.
    """
    ladder = primary_constraints(system)
    _attach_samples(ladder, reference, sample_times)
    base = system.base
    if base.k == 0:
        ladder.stabilized_at = 0
        return ladder
    m = base.m
    for i in range(1, max_levels + 1):
        ladder_step(ladder, system, reference)
        level = ladder.levels[-1]
        if not level.generators:
            ladder.stabilized_at = i
            break
        if all(level.span_dims[t] >= m for t in ladder.sample_times):
            ladder.stabilized_at = i
            break
    return ladder


def annihilator_at(x, ladder: ConstraintLadder) -> list[Covector]:
    """Orthonormal basis of the annihilator of the generator span at x.

    Empty when the generators span the whole tangent space; the full
    standard covector basis when the ladder has no generators at all.
    Basis vectors are sign-fixed so their largest entry is positive.
    """
    if ladder.stabilized_at is None:
        raise PcaError("annihilators are only meaningful once the ladder stabilized")
    point = as_point(x)
    gens = ladder.all_generators()
    m = point.dim
    if not gens:
        return [Covector(point, np.eye(m)[j]) for j in range(m)]
    rows = [np.asarray(g.field(list(point.coords)), dtype=float) for g in gens]
    _, s, vt = np.linalg.svd(np.asarray(rows))
    basis = []
    for row in vt[_rank_of(s):]:
        i = int(np.argmax(np.abs(row)))
        if row[i] < 0:
            row = -row
        basis.append(Covector(point, row))
    return basis


def ladder_pairings(ladder: ConstraintLadder, bx: Biextremal) -> dict:
    """Max |<lambda(t), Z(gamma(t))>| per generator over the sample times."""
    out = {}
    for g in ladder.all_generators():
        worst = 0.0
        for t in ladder.sample_times:
            lam = bx.covector_at(t)
            x = bx.trajectory.state_at(t)
            v = np.asarray(g.field(list(x)), dtype=float)
            worst = max(worst, abs(float(np.dot(lam.components, v))))
        out[g.name] = worst
    return out


def abnormal_verdict(ladder: ConstraintLadder) -> str:
    """Human-readable summary of what the stabilized ladder admits."""
    if ladder.stabilized_at is None:
        return "not stabilized within the level budget"
    dims = [ladder.levels[-1].span_dims[t] for t in ladder.sample_times]
    m = ladder.dimension
    if all(d >= m for d in dims):
        return "annihilator trivial - no abnormal biextremal along reference"
    return "abnormal candidates exist: nontrivial annihilator along the reference"

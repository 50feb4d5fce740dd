"""Constraint ladder for abnormal candidates of control-affine systems.

This is the presymplectic constraint algorithm of Gotay, Nester and Hinds on
the sampled reference trajectory.  Level 0 holds the input fields: the
gradient-in-u of the Hamiltonian pairing must vanish.  Along the dynamics
d/dt <lambda, Z> = <lambda, [X0, Z]> + sum_d u^d <lambda, [X_d, Z]>, so each
step brackets the drift, then each input in order, with the generators of
the last level.  A bracket that is not symbolically zero is adopted when it
raises the numerical rank of the generator values at some sample point.
The ladder keeps those values (`ConstraintLadder.rows`), so every field is
evaluated once per sample point and each candidate costs one rank per
point.  It stabilizes when a step adopts nothing or the span is full at
every sample.  Covectors annihilating all adopted generators at a point are
the abnormal momentum candidates there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expr import render
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


@dataclass
class LadderLevel:
    index: int
    generators: list[GeneratorRecord]
    span_dims: dict[float, int]
    branch_flag: bool  # some input bracket is nonzero: controls could be determined


@dataclass
class ConstraintLadder:
    sample_times: tuple[float, ...]
    sample_points: tuple[np.ndarray, ...]
    levels: list[LadderLevel]
    stabilized_at: int | None = None
    # rows[i]: the values of all_generators(), in that order, at sample_points[i]
    rows: list[list[np.ndarray]] = field(default_factory=list)

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


def _value(vf: VectorField, x) -> np.ndarray:
    return np.asarray(vf(x.tolist()), dtype=float)


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
    level0 = LadderLevel(0, gens, {}, False)
    ladder = ConstraintLadder((), (), [level0], None)
    if base.k == 0:
        ladder.stabilized_at = 0
    return ladder


def _attach_samples(ladder: ConstraintLadder, reference: Trajectory, sample_times):
    """Sample the reference at `sample_times`, by default at the schedule's
    default analysis times before the interval end, and evaluate the
    generators there."""
    if not sample_times:
        end = reference.interval[1]
        sample_times = [t for t in reference.schedule.sample_times(reference.interval) if t < end]
    times = tuple(float(t) for t in sample_times)
    if len(times) < 1:
        raise PcaError("at least one sample time required")
    for t in times:
        if reference.schedule.on_switch(t, reference.interval):
            raise PcaError(f"sample time {t} sits on a control switch")
    ladder.sample_times = times
    ladder.sample_points = tuple(reference.state_at(t) for t in times)
    gens = ladder.all_generators()
    ladder.rows = [[_value(g.field, p) for g in gens] for p in ladder.sample_points]
    count = 0
    for lvl in ladder.levels:
        count += len(lvl.generators)
        lvl.span_dims = {t: _rank(rows[:count]) for t, rows in zip(times, ladder.rows)}


def ladder_step(ladder: ConstraintLadder, system, reference: Trajectory) -> ConstraintLadder:
    """Append one constraint level built from brackets with the last one.

    Each bracket [X_d, Z] of a partner field (drift first, then each input)
    with a generator Z of the last level that is not symbolically zero and
    raises the sampled rank at some sample point becomes a new generator,
    until the span is full at every sample point.
    """
    if ladder.stabilized_at is not None:
        raise PcaError("ladder already stabilized")
    if not ladder.sample_times:
        _attach_samples(ladder, reference, None)
    base = system.base
    parents = ladder.levels[-1].generators
    level_index = len(ladder.levels)
    partners = (base.drift, *base.inputs)
    brackets = [[lie_bracket(x, g.field) for x in partners] for g in parents]
    branch = any(not is_zero_field(vf) for row in brackets for vf in row[1:])

    ranks = ladder.levels[-1].span_dims
    adopted: list[GeneratorRecord] = []
    # drift brackets first, then each input in order, over all parents, until the span is full
    for d, g, vf in ((d, g, row[d]) for d in range(len(partners)) for g, row in zip(parents, brackets)):
        if min(ranks.values()) >= base.m:
            break
        if is_zero_field(vf):
            continue
        values = [_value(vf, p) for p in ladder.sample_points]
        grown = {t: _rank(rows + [v]) for t, rows, v in zip(ladder.sample_times, ladder.rows, values)}
        if all(grown[t] <= ranks[t] for t in ladder.sample_times):
            continue
        adopted.append(GeneratorRecord(f"[X{d},{g.name}]", level_index, vf, g.name, f"X{d}"))
        for rows, v in zip(ladder.rows, values):
            rows.append(v)
        ranks = grown

    ladder.levels.append(LadderLevel(level_index, adopted, dict(ranks), branch))
    return ladder


def run_algorithm(
    system,
    reference: Trajectory,
    sample_times: Sequence[float] | None = None,
    max_levels: int = 6,
) -> ConstraintLadder:
    """Iterate constraint levels until the sampled spans stop growing.

    `stabilized_at` names the first level whose brackets added nothing
    (or at which the span is already full everywhere); when `max_levels`
    passes without that happening the ladder is returned non-stabilized.
    """
    ladder = primary_constraints(system)
    _attach_samples(ladder, reference, sample_times)
    m = system.base.m
    while ladder.stabilized_at is None and len(ladder.levels) <= max_levels:
        level = ladder_step(ladder, system, reference).levels[-1]
        if not level.generators or min(level.span_dims.values()) >= m:
            ladder.stabilized_at = level.index
    return ladder


def annihilator_at(x, ladder: ConstraintLadder) -> list[Covector]:
    """Orthonormal basis of the annihilator of the generator span at x.

    Empty when the generators span the whole tangent space; the full
    standard covector basis when the ladder has no generators at all.
    Basis vectors are sign-fixed so their largest entry is positive.
    """
    point = as_point(x)
    return _annihilator(ladder, point, (_value(g.field, point.coords) for g in ladder.all_generators()))


def sample_annihilators(ladder: ConstraintLadder) -> list[list[Covector]]:
    """`annihilator_at` each sample point, from the generator values the
    ladder keeps there: no field is evaluated."""
    return [_annihilator(ladder, as_point(p), rows) for p, rows in zip(ladder.sample_points, ladder.rows)]


def _annihilator(ladder: ConstraintLadder, point, rows) -> list[Covector]:
    """The annihilator basis at `point` of the values `rows`, read after the check."""
    if ladder.stabilized_at is None:
        raise PcaError("annihilators are only meaningful once the ladder stabilized")
    rows = list(rows)
    if not rows:
        return [Covector(point, np.eye(point.dim)[j]) for j in range(point.dim)]
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
            worst = max(worst, abs(float(np.dot(lam.components, _value(g.field, x)))))
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

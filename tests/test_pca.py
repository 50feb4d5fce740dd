from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocon import pca
from geocon.cli import load_scenario
from geocon.expr import mul, render, var
from geocon.fields import VectorField, as_point, is_zero_field, lie_bracket
from geocon.ocp import (
    build_control_affine,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
)
from geocon.pca import (
    PcaError,
    abnormal_verdict,
    annihilator_at,
    ladder_pairings,
    ladder_step,
    primary_constraints,
    run_algorithm,
)


def test_primary_constraints_martinet(martinet, martinet_reference):
    ladder = primary_constraints(martinet, martinet_reference)
    gens = ladder.levels[0].generators
    assert [g.name for g in gens] == ["X1", "X2"]
    assert gens[1].rendered() == ["0", "1", "x1^2"]


def test_primary_constraints_returns_a_sampled_ladder(martinet):
    # off the x1 = 0 plane: the rows are the input values at the sampled states
    sched = piecewise_schedule([0.0], [[1.0, 1.0]])
    ref = integrate_trajectory(martinet, [0.5, 0.0, 0.0], sched, (0.0, 1.0), 1e-2)
    ladder = primary_constraints(martinet, ref)
    assert ladder.sample_times == (0.25, 0.5, 0.75) and ladder.stabilized_at is None
    assert [p.tolist() for p in ladder.sample_points] == [ref.state_at(t).tolist() for t in ladder.sample_times]
    for p, rows in zip(ladder.sample_points, ladder.rows):
        assert [r.tolist() for r in rows] == [vf(p.tolist()) for vf in martinet.inputs]
        assert rows[1][2] == pytest.approx(p[0] ** 2) and p[0] > 0.7
    assert ladder.levels[0].span_dims == {0.25: 2, 0.5: 2, 0.75: 2}
    chosen = primary_constraints(martinet, ref, [0.4, 1.0])
    assert chosen.sample_times == (0.4, 1.0) and len(chosen.rows) == 2
    with pytest.raises(PcaError, match="on a control switch"):
        primary_constraints(martinet, integrate_trajectory(
            martinet, [0.5, 0.0, 0.0], piecewise_schedule([0.0, 0.5], [[1.0, 1.0], [0.0, 1.0]]), (0.0, 1.0), 1e-2),
            [0.5])


def test_cost_extended_system_runs_the_ladder_of_its_base(martinet, martinet_extended, martinet_reference):
    # the ladder lives on the state chart: a cost changes nothing in it
    plain = run_algorithm(martinet, martinet_reference)
    extended = run_algorithm(martinet_extended, martinet_reference)
    assert [g.name for g in extended.all_generators()] == [g.name for g in plain.all_generators()]
    assert [lvl.span_dims for lvl in extended.levels] == [lvl.span_dims for lvl in plain.levels]
    assert extended.stabilized_at == plain.stabilized_at


def test_primary_constraints_no_inputs():
    sys = build_control_affine(("x",), ["x"], [], [])
    ref = integrate_trajectory(sys, [0.1], piecewise_schedule([0.0], [[]]), (0.0, 1.0), 1e-2)
    ladder = primary_constraints(sys, ref)
    assert ladder.stabilized_at == 0
    assert ladder.levels[0].generators == []
    assert ladder.dimension == 1 and ladder.levels[0].span_dims == {0.25: 0, 0.5: 0, 0.75: 0}


def test_ladder_step_martinet_off_line(martinet):
    # away from the x1 = 0 plane the bracket direction is adopted
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    ref = integrate_trajectory(martinet, [0.5, 0.0, 0.0], sched, (0.0, 1.0), 1e-2)
    ladder = primary_constraints(martinet, ref)
    ladder_step(ladder, martinet)
    level1 = ladder.levels[1]
    names = [g.name for g in level1.generators]
    assert names == ["[X1,X2]"]
    assert level1.branch_flag  # control coefficients were nonzero
    assert level1.generators[0].rendered() == ["0", "0", "2*x1"]


def test_ladder_step_heisenberg(heisenberg, heisenberg_reference):
    ladder = primary_constraints(heisenberg, heisenberg_reference)
    ladder_step(ladder, heisenberg)
    gens = ladder.levels[1].generators
    assert [g.name for g in gens] == ["[X1,X2]"]
    assert gens[0].rendered() == ["0", "0", "1"]


def test_run_algorithm_heisenberg_full_span(heisenberg, heisenberg_reference):
    ladder = run_algorithm(heisenberg, heisenberg_reference)
    assert ladder.stabilized_at == 1
    assert all(d == 3 for d in ladder.levels[-1].span_dims.values())
    for t in ladder.sample_times:
        x = heisenberg_reference.point_at(t)
        assert annihilator_at(x, ladder) == []
    assert "no abnormal biextremal" in abnormal_verdict(ladder)


def test_run_algorithm_martinet_line(martinet, martinet_reference):
    ladder = run_algorithm(martinet, martinet_reference)
    assert ladder.stabilized_at == 1
    assert ladder.levels[1].generators == []  # bracket vanishes on the line
    for t in ladder.sample_times:
        assert ladder.levels[-1].span_dims[t] == 2
        basis = annihilator_at(martinet_reference.point_at(t), ladder)
        assert len(basis) == 1
        assert np.allclose(basis[0].components, [0.0, 0.0, 1.0], atol=1e-12)
    assert "abnormal candidates exist" in abnormal_verdict(ladder)


def test_run_algorithm_flat_connection_chain():
    # two-level chain: vertical lift, then its drift bracket, then nothing
    chart = ("x1", "x2", "v1", "v2")
    sys = build_control_affine(
        chart,
        ["v1", "v2", "0", "0"],
        [["0", "0", "1", "0"]],
        [(-1.0, 1.0)],
    )
    sched = piecewise_schedule([0.0], [[0.0]])
    ref = integrate_trajectory(sys, [0.0, 0.0, 1.0, 0.0], sched, (0.0, 1.0), 1e-2)
    ladder = run_algorithm(sys, ref)
    assert ladder.stabilized_at == 2
    names = [g.name for g in ladder.all_generators()]
    assert names == ["X1", "[X0,X1]"]
    assert ladder.all_generators()[1].rendered() == ["-1", "0", "0", "0"]
    basis = annihilator_at(ref.point_at(0.5), ladder)
    assert len(basis) == 2
    span = np.stack([b.components for b in basis])
    # annihilator of span{e3, e1} is span{e2, e4}
    assert np.allclose(span @ np.array([1.0, 0.0, 0.0, 0.0]), 0.0, atol=1e-12)
    assert np.allclose(span @ np.array([0.0, 0.0, 1.0, 0.0]), 0.0, atol=1e-12)


def test_annihilator_with_empty_ladder():
    sys = build_control_affine(("x", "y"), ["x", "y"], [], [])
    ref = integrate_trajectory(sys, [0.0, 0.0], piecewise_schedule([0.0], [[]]), (0.0, 1.0), 1e-2)
    ladder = primary_constraints(sys, ref)
    basis = annihilator_at(as_point([0.0, 0.0]), ladder)
    assert len(basis) == 2
    assert np.allclose(np.stack([b.components for b in basis]), np.eye(2))


def test_nested_spans_nondecreasing(heisenberg, heisenberg_reference):
    ladder = run_algorithm(heisenberg, heisenberg_reference)
    for t in ladder.sample_times:
        dims = [lvl.span_dims[t] for lvl in ladder.levels]
        assert dims == sorted(dims)


def test_level1_generators_parallel_to_bracket_variations(martinet):
    # the adopted level-1 field agrees in direction with the commutator jet
    from geocon.variations import bracket_variation

    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    ref = integrate_trajectory(martinet, [0.5, 0.0, 0.0], sched, (0.0, 1.0), 1e-2)
    ladder = run_algorithm(martinet, ref)
    gen = ladder.levels[1].generators[0]
    x = ref.point_at(0.5)
    xi0 = martinet.slice_field(ref.control_at(0.5))
    pv = bracket_variation(xi0, martinet.inputs[0], x)
    gen_val = np.asarray(gen.field(list(x.coords)), dtype=float)
    jet = pv.vector.components
    cos = abs(np.dot(gen_val, jet)) / (np.linalg.norm(gen_val) * np.linalg.norm(jet))
    assert cos >= 1.0 - 1e-6


def test_level0_generators_are_needle_directions(martinet, martinet_reference):
    # every input field shows up among the sampled order-1 needle vectors
    from geocon.variations import sample_perturbation_set

    ladder = primary_constraints(martinet, martinet_reference)
    t0 = 0.5
    x = martinet_reference.point_at(t0)
    needles = [
        pv.vector.components
        for pv in sample_perturbation_set(martinet, martinet_reference, t0, budget=12)
        if pv.order == 1
    ]
    for g in ladder.levels[0].generators:
        val = np.asarray(g.field(list(x.coords)), dtype=float)
        cosines = [
            abs(np.dot(val, n)) / (np.linalg.norm(val) * np.linalg.norm(n))
            for n in needles
        ]
        assert max(cosines) >= 1.0 - 1e-9


def test_transported_annihilator_keeps_pairings_small(martinet, martinet_reference):
    ladder = run_algorithm(martinet, martinet_reference)
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    bx = integrate_biextremal(
        martinet, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], sched, (0.0, 1.0), "reduced"
    )
    pairings = ladder_pairings(ladder, bx)
    assert pairings
    assert max(pairings.values()) <= 1e-7


def test_derivative_identity_along_reference():
    # d/dt <lambda, Z(gamma)> equals <lambda, [xi_u, Z](gamma)> for adjoint momenta
    rng = np.random.default_rng(12)
    from tests.conftest import random_control_affine, random_polynomial_field

    for _ in range(5):
        sys = random_control_affine(rng, m=3, k=1)
        u = (float(rng.uniform(-0.5, 0.5)),)
        sched = piecewise_schedule([0.0], [list(u)])
        x0 = rng.uniform(-0.2, 0.2, size=3)
        lam0 = rng.uniform(-1.0, 1.0, size=3)
        bx = integrate_biextremal(sys, x0, lam0, sched, (0.0, 0.5), "reduced", 1e-3)
        Z = random_polynomial_field(rng, sys.variables)
        xi_u = sys.slice_field(u)
        br = lie_bracket(xi_u, Z)
        ts = bx.trajectory.ts
        g = np.array(
            [
                float(
                    np.dot(
                        bx.momenta[i],
                        np.asarray(Z(list(bx.trajectory.xs[i])), dtype=float),
                    )
                )
                for i in range(len(ts))
            ]
        )
        h = ts[1] - ts[0]
        for i in range(2, len(ts) - 2, 97):
            dg = (-g[i + 2] + 8 * g[i + 1] - 8 * g[i - 1] + g[i - 2]) / (12 * h)
            lhs = float(
                np.dot(
                    bx.momenta[i],
                    np.asarray(br(list(bx.trajectory.xs[i])), dtype=float),
                )
            )
            assert abs(dg - lhs) <= 1e-6 * max(1.0, abs(lhs))


def test_polar_connection_ladder_chain():
    # rational Christoffel coefficients: the bracket chain stays tractable
    # and stabilizes with a one-dimensional annihilator along the geodesic
    from geocon.mech import build_acc_system, connection_spec
    from geocon.fields import vector_field

    polar = connection_spec(
        ("r", "th"),
        ("vr", "vth"),
        [
            [["0", "0"], ["0", "-r"]],
            [["0", "1/r"], ["1/r", "0"]],
        ],
    )
    sys_ = build_acc_system(polar, [vector_field(("r", "th"), ["1", "0"])], [(-2.0, 2.0)])
    sched = piecewise_schedule([0.0], [[0.2]])
    ref = integrate_trajectory(sys_, [1.0, 0.0, 0.3, 0.5], sched, (0.0, 1.0), 1e-2)
    ladder = run_algorithm(sys_, ref)
    assert ladder.stabilized_at == 3
    names = [g.name for g in ladder.all_generators()]
    assert names == ["X1", "[X0,X1]", "[X0,[X0,X1]]"]
    for t in ladder.sample_times:
        basis = annihilator_at(ref.point_at(t), ladder)
        assert len(basis) == 1


def test_sample_on_switch_rejected(martinet):
    sched = piecewise_schedule([0.0, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    ref = integrate_trajectory(martinet, [0.0, 0.0, 0.0], sched, (0.0, 1.0), 1e-2)
    with pytest.raises(PcaError):
        run_algorithm(martinet, ref, sample_times=[0.5])


def test_one_switch_rule_for_ladders_and_cones(martinet):
    # ControlSchedule.on_switch: within 1e-12 of a break strictly inside the interval
    from geocon.cone import ConeError, assemble_cone

    sched = piecewise_schedule([0.0, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    near, off = 0.5 + 9e-13, 0.5 - 2e-12
    assert [sched.on_switch(t, (0.0, 1.0)) for t in (0.5, near, off, 0.0, 0.25)] == [True, True, False, False, False]
    assert not sched.on_switch(0.5, (0.5, 1.0))
    ref = integrate_trajectory(martinet, [0.0, 0.0, 0.0], sched, (0.0, 1.0), 1e-2)
    with pytest.raises(PcaError, match=f"sample time {near} sits on a control switch"):
        run_algorithm(martinet, ref, sample_times=[near])
    with pytest.raises(ConeError, match=f"sample time {near} sits on a control switch"):
        assemble_cone(martinet, ref, 1.0, [near])


def test_default_sample_times_are_the_scenario_quarters_before_the_end(martinet):
    # one rule for scenarios and the ladder: quarters, moved off a switch
    sched = piecewise_schedule([0.0, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    ref = integrate_trajectory(martinet, [0.0, 0.0, 0.0], sched, (0.0, 1.0), 1e-2)
    assert sched.sample_times((0.0, 1.0)) == [0.25, 0.501, 0.75, 1.0]
    assert run_algorithm(martinet, ref).sample_times == (0.25, 0.501, 0.75)


@pytest.mark.parametrize("breaks, interval, expected", [
    # a switch just before the end: the last quarter steps back from b
    ([0.0, 1.0 - 1e-13], (0.0, 1.0), [0.25, 0.5, 0.75, 0.999]),
    ([2.0, 3.998, 4.0 - 1e-13], (2.0, 4.0), [2.5, 3.0, 3.5, 3.996]),
    # rounding to 12 decimals would carry the end past b
    ([0.0], (0.0, 0.9999999999996), [0.25, 0.5, 0.75, 0.9999999999996]),
    # 1e-10 from a quarter is off the switch at on_switch's 1e-12
    ([0.0, 0.5 + 1e-10], (0.0, 1.0), [0.25, 0.5, 0.75, 1.0]),
])
def test_default_sample_times_stay_in_the_interval_and_off_every_switch(breaks, interval, expected):
    sched = piecewise_schedule(breaks, [[0.0, 1.0]] * len(breaks))
    times = sched.sample_times(interval)
    assert times == expected
    assert all(interval[0] < t <= interval[1] and not sched.on_switch(t, interval) for t in times)


def _oracle_ladder(system, reference, max_levels=6):
    """The ladder as first written, kept as the reference: every bracket of a
    level is built before any is tested, every generator is evaluated again
    at every step, and each level's spans are ranked from fresh values."""
    base = system.base
    end = reference.interval[1]
    times = [t for t in reference.schedule.sample_times(reference.interval) if t < end]
    points = [reference.state_at(t) for t in times]

    def value(vf, p):
        return np.asarray(vf(list(p)), dtype=float)

    def rank(rows):
        if not rows:
            return 0
        s = np.linalg.svd(np.asarray(rows), compute_uv=False)
        return int(np.sum(s > pca.RANK_REL_TOL * s[0])) if s[0] > 0.0 else 0

    def spans(gens):
        return {t: rank([value(vf, p) for _, vf in gens]) for t, p in zip(times, points)}

    levels = [([(f"X{c + 1}", vf) for c, vf in enumerate(base.inputs)], False)]
    level_spans = [spans(levels[0][0])]
    stabilized = 0 if base.k == 0 else None
    for i in range(1, max_levels + 1):
        if stabilized is not None:
            break
        constraints = [
            (name, lie_bracket(base.drift, vf), [lie_bracket(x, vf) for x in base.inputs])
            for name, vf in levels[-1][0]
        ]
        branch = any(not is_zero_field(vf) for _, _, linear in constraints for vf in linear)
        gens = [g for lvl, _ in levels for g in lvl]
        existing = {t: [value(vf, p) for _, vf in gens] for t, p in zip(times, points)}
        base_ranks = {t: rank(rows) for t, rows in existing.items()}
        adopted = []
        for d in range(base.k + 1):
            for parent, constant, linear in constraints:
                vf = constant if d == 0 else linear[d - 1]
                if is_zero_field(vf):
                    continue
                values = {t: value(vf, p) for t, p in zip(times, points)}
                if not any(rank(existing[t] + [values[t]]) > base_ranks[t] for t in times):
                    continue
                adopted.append((f"[X{d},{parent}]", vf))
                for t in times:
                    existing[t].append(values[t])
                    base_ranks[t] = rank(existing[t])
        levels.append((adopted, branch))
        level_spans.append(spans(gens + adopted))
        if not adopted or all(level_spans[-1][t] >= base.m for t in times):
            stabilized = i
    summary = [
        ([name for name, _ in gens], [[render(c) for c in vf.components] for _, vf in gens], dims, branch)
        for (gens, branch), dims in zip(levels, level_spans)
    ]
    return summary, stabilized


def _summary(ladder):
    return [
        ([g.name for g in lvl.generators], [g.rendered() for g in lvl.generators], lvl.span_dims, lvl.branch_flag)
        for lvl in ladder.levels
    ], ladder.stabilized_at


def _resting_on_a_hyperplane(system):
    """A variant on which x1 = 0 is invariant while u1 = 0 and the inputs
    after the first vanish there, like martinet's bracket on its line: a
    reference that rests there and then leaves has sample points at which
    a candidate raises the rank and sample points at which it does not."""
    x1 = var(system.variables[0])
    drift = [mul(x1, c) if i == 0 else c for i, c in enumerate(system.drift.components)]
    inputs = [list(system.inputs[0].components)]
    inputs += [[mul(x1, c) for c in vf.components] for vf in system.inputs[1:]]
    return build_control_affine(system.variables, drift, inputs, system.control_box)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3), st.floats(0.2, 0.8), st.booleans())
def test_ladder_matches_the_re_evaluating_ladder(seed, m, k, switch, rest_first):
    # one evaluation per field and sample point decides exactly what
    # evaluating every generator again at every step decides
    from tests.conftest import random_control_affine

    system, twin = (random_control_affine(np.random.default_rng(seed), m=m, k=k) for _ in range(2))
    rng = np.random.default_rng([seed, 1])
    values = rng.uniform(-1.0, 1.0, size=(2, k))
    x0 = rng.uniform(-0.2, 0.2, size=m)
    if rest_first:
        system, twin = _resting_on_a_hyperplane(system), _resting_on_a_hyperplane(twin)
        values[0, 0] = x0[0] = 0.0
    sched = piecewise_schedule([0.0, switch], values.tolist())
    ref = integrate_trajectory(system, x0, sched, (0.0, 1.0), 1e-2)
    assert _summary(run_algorithm(system, ref)) == _oracle_ladder(twin, ref)


def test_ladder_evaluates_each_field_once_per_sample_time(monkeypatch):
    # the sweep panel of the benchmark: level-0 generators and the nonzero
    # candidate brackets scanned are evaluated once at each sample point, no
    # more; a step scans no candidate once the span is full at every sample
    # point, which it is after the last adoption of a full level
    from tests.conftest import random_control_affine

    calls = []
    plain_call = VectorField.__call__

    def counted(self, values):
        calls.append(self)
        return plain_call(self, values)

    counts = []
    for m in (3, 4, 5, 6):
        rng = np.random.default_rng([0, m])
        system = random_control_affine(rng, m=m, k=2)
        sched = piecewise_schedule([0.0, 0.4], np.round(rng.uniform(-1.0, 1.0, size=(2, 2)), 3).tolist())
        ref = integrate_trajectory(system, np.round(rng.uniform(-0.2, 0.2, size=m), 3), sched, (0.0, 1.0))
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(VectorField, "__call__", counted)
            ladder = run_algorithm(system, ref)
        partners = (system.drift, *system.inputs)
        candidates = 0
        for parents, level in zip(ladder.levels, ladder.levels[1:]):
            scan = [(f"X{d}", g.name) for d, x in enumerate(partners) for g in parents.generators
                    if not is_zero_field(lie_bracket(x, g.field))]
            if min(parents.span_dims.values()) >= m:
                scan = []
            elif min(level.span_dims.values()) >= m:
                scan = scan[: scan.index((level.generators[-1].bracket_with, level.generators[-1].parent)) + 1]
            candidates += len(scan)
        assert len(calls) == len(ladder.sample_times) * (system.k + candidates)
        counts.append(len(calls))
    assert counts == [9, 12, 15, 21]


def test_ladder_builds_each_bracket_when_the_loop_needs_it(monkeypatch):
    # probe systems of the sweep panel: a step builds [X_d, Z] in the
    # adoption loop's order and stops once the span is full, and the branch
    # flag reads the brackets already built; building every bracket of every
    # step ahead of its loop took 15 at each of these sizes
    from tests.conftest import random_control_affine

    built = []

    def counted(a, b):
        built.append((id(a), id(b)))
        return lie_bracket(a, b)

    counts = []
    for m in (6, 8, 10):
        rng = np.random.default_rng([0, m])
        system = random_control_affine(rng, m=m, k=2)
        sched = piecewise_schedule([0.0, 0.4], np.round(rng.uniform(-1.0, 1.0, size=(2, 2)), 3).tolist())
        ref = integrate_trajectory(system, np.round(rng.uniform(-0.2, 0.2, size=m), 3), sched, (0.0, 1.0))
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(pca, "lie_bracket", counted)
            run_algorithm(system, ref)
        assert len(set(built)) == len(built)  # no bracket built twice
        counts.append(len(built))
    assert counts == [8, 10, 11]


def _annihilator_case(case):
    """A fixture scenario by name, or a random system by seed (odd seeds
    rest on a hyperplane first), with its reference."""
    from tests.conftest import random_control_affine

    if isinstance(case, str):
        sc = load_scenario(str(Path(__file__).resolve().parents[1] / "scenarios" / f"{case}.json"))
        return sc.system, integrate_trajectory(sc.system, sc.initial, sc.schedule, sc.interval, 1e-2)
    rng = np.random.default_rng([case, 3])
    m, k = 2 + case % 4, 1 + case % 2
    system = random_control_affine(rng, m=m, k=k)
    values = rng.uniform(-1.0, 1.0, size=(2, k))
    x0 = rng.uniform(-0.2, 0.2, size=m)
    if case % 2:
        system = _resting_on_a_hyperplane(system)
        values[0, 0] = x0[0] = 0.0
    return system, integrate_trajectory(system, x0, piecewise_schedule([0.0, 0.5], values.tolist()), (0.0, 1.0), 1e-2)


@pytest.mark.parametrize("case", ["martinet", "heisenberg", "flat_connection", "polar_connection", 0, 1, 2, 3])
def test_kept_values_give_the_annihilators_of_fresh_ones(case):
    # the annihilators the pca command reports come from the ladder's kept
    # rows; they are bit-identical to evaluating the generators again
    system, ref = _annihilator_case(case)
    ladder = run_algorithm(system, ref)
    kept = [[b.components.tobytes() for b in basis] for basis in pca.sample_annihilators(ladder)]
    fresh = [[b.components.tobytes() for b in annihilator_at(ref.point_at(t), ladder)] for t in ladder.sample_times]
    assert kept == fresh


@pytest.mark.parametrize("m", [4, 8, 12, 16])
def test_chained_form_ladder_grows_one_dimension_per_level(m):
    # a closed-form oracle at scale: ad_{g1}^j g2 = +-e_{j+2}, so the span
    # along u = (1, 0) from x = 0 is 2, 3, ..., m, and nothing is abnormal
    from tests.conftest import chained_form

    system = chained_form(m)
    ref = integrate_trajectory(system, [0.0] * m, piecewise_schedule([0.0], [[1.0, 0.0]]), (0.0, 1.0), 1e-2)
    ladder = run_algorithm(system, ref, max_levels=m)
    assert [sorted(set(level.span_dims.values())) for level in ladder.levels] == [[d] for d in range(2, m + 1)]
    assert ladder.stabilized_at == m - 2
    assert abnormal_verdict(ladder) == "annihilator trivial - no abnormal biextremal along reference"

import logging
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geocon.cone as cone_module
from geocon.cone import (
    Cone,
    ConeError,
    GeneratorProvenance,
    assemble_cone,
    find_supporting_covector,
    is_supporting,
    solve_lp_max,
)
from geocon.fields import Covector, TangentVector, as_point


def make_cone(generators, dim=None):
    generators = [np.asarray(g, dtype=float) for g in generators]
    dim = dim or (len(generators[0]) if generators else 3)
    base = as_point(np.zeros(dim))
    vs = tuple(TangentVector(base, g) for g in generators)
    ps = tuple(GeneratorProvenance(0.0, 1, "test") for _ in generators)
    return Cone(base, 1.0, vs, ps)


def brute_force_supports(generators, n_dirs=4000):
    """Dense direction scan; the slow oracle for the LP answers."""
    dim = len(generators[0]) if generators else 1
    if not generators:
        return True
    G = np.asarray(generators)
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif dim == 2:
        ang = np.linspace(0.0, 2 * math.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        i = np.arange(n_dirs)
        z = 1.0 - 2.0 * (i + 0.5) / n_dirs
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        r = np.sqrt(1.0 - z * z)
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pairings = dirs @ G.T
    return bool(np.any(np.max(pairings, axis=1) <= 0.0))


def test_orthogonal_complement_tiebreak():
    cone = make_cone([[1, 0, 0], [-1, 0, 0], [0, 1, 0]])
    report = find_supporting_covector(cone)
    assert report.feasible
    assert np.allclose(report.covector.components, [0.0, 0.0, 1.0], atol=0.0)
    assert report.max_pairing <= 1e-12


def test_positively_spanning_generators_infeasible():
    gens = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        gens.extend([e, -e])
    report = find_supporting_covector(make_cone(gens))
    assert not report.feasible
    assert report.covector is None


def test_obtuse_full_span_still_feasible():
    # spans R^2 linearly but not positively: -(1,1) supports
    cone = make_cone([[1, 0], [0, 1]])
    report = find_supporting_covector(cone)
    assert report.feasible
    lam = report.covector.components
    assert np.all(lam @ np.array([[1, 0], [0, 1]]).T <= 1e-12)


def test_negative_ray_found():
    # every supporting covector has a strictly negative first coordinate
    cone = make_cone([[1, 0], [0, 1], [0, -1]])
    report = find_supporting_covector(cone)
    assert report.feasible
    assert report.covector.components[0] == -1.0
    assert abs(report.covector.components[1]) <= 1e-12


def test_empty_cone_any_unit_covector():
    cone = make_cone([], dim=3)
    report = find_supporting_covector(cone)
    assert report.feasible
    assert np.max(np.abs(report.covector.components)) == 1.0


def test_martinet_cone_supporting_covector(martinet, martinet_reference):
    cone = assemble_cone(martinet, martinet_reference, 1.0, [0.25, 0.5, 0.75, 1.0])
    # order-2 generators vanish along the abnormal line: needles only
    assert all(p.order == 1 for p in cone.provenance)
    report = find_supporting_covector(cone)
    assert report.feasible
    lam = report.covector.components
    assert np.allclose(lam / np.linalg.norm(lam), [0.0, 0.0, 1.0], atol=1e-12)
    assert report.max_pairing <= 1e-9


def test_assemble_single_time_identity_transport(martinet, martinet_reference):
    cone = assemble_cone(martinet, martinet_reference, 1.0, [1.0])
    assert cone.time == 1.0
    assert all(p.t0 == 1.0 for p in cone.provenance)
    assert np.allclose(cone.base.coords, [0.0, 1.0, 0.0], atol=1e-12)


def test_assemble_constant_drift_leaves_generators_untouched():
    from geocon.ocp import build_control_affine, integrate_trajectory, piecewise_schedule

    sys = build_control_affine(
        ("x", "y"), ["1", "0"], [["0", "1"]], [(-2.0, 2.0)]
    )
    ref = integrate_trajectory(
        sys, [0.0, 0.0], piecewise_schedule([0.0], [[0.5]]), (0.0, 1.0), 1e-2
    )
    early = assemble_cone(sys, ref, 1.0, [0.5], step=1e-2)
    late = assemble_cone(sys, ref, 1.0, [1.0], step=1e-2)
    dirs_early = sorted(tuple(np.round(g.components / np.linalg.norm(g.components), 9)) for g in early.generators)
    dirs_late = sorted(tuple(np.round(g.components / np.linalg.norm(g.components), 9)) for g in late.generators)
    assert dirs_early == dirs_late


def test_assemble_rejects_switch_sample():
    from geocon.ocp import build_control_affine, integrate_trajectory, piecewise_schedule

    sys = build_control_affine(("x",), ["0"], [["1"]], [(-2.0, 2.0)])
    sched = piecewise_schedule([0.0, 0.5], [[0.0], [1.0]])
    ref = integrate_trajectory(sys, [0.0], sched, (0.0, 1.0), 1e-2)
    with pytest.raises(ConeError):
        assemble_cone(sys, ref, 1.0, [0.5])


def test_is_supporting_rejects_zero_covector():
    cone = make_cone([[1.0, 0.0]])
    check = is_supporting(Covector(cone.base, np.zeros(2)), cone)
    assert not check.supported
    assert check.error == "zero covector rejected"


def test_is_supporting_signs():
    cone = make_cone([[1.0, 0.0]])
    good = is_supporting(Covector(cone.base, np.array([-1.0, 0.0])), cone)
    assert good.supported and good.max_pairing == -1.0
    bad = is_supporting(Covector(cone.base, np.array([1.0, 0.0])), cone)
    assert not bad.supported and bad.max_pairing == 1.0


def test_scale_invariance():
    rng = np.random.default_rng(19)
    gens = rng.normal(size=(5, 3))
    r1 = find_supporting_covector(make_cone(gens))
    scales = rng.uniform(0.5, 4.0, size=5)
    r2 = find_supporting_covector(make_cone(gens * scales[:, None]))
    assert r1.feasible == r2.feasible
    if r1.feasible:
        assert np.allclose(r1.covector.components, r2.covector.components, atol=1e-12)


def test_monotonicity_of_feasible_set():
    rng = np.random.default_rng(23)
    for _ in range(20):
        gens = rng.normal(size=(4, 3))
        extra = rng.normal(size=(2, 3))
        sup = find_supporting_covector(make_cone(np.vstack([gens, extra])))
        if sup.feasible:
            lam = sup.covector
            sub = is_supporting(Covector(make_cone(gens).base, lam.components), make_cone(gens))
            assert sub.supported


def test_decrease_direction_inside_cone_is_infeasible():
    # no nonzero supporting covector pairs nonnegatively with an interior
    # direction, so the separation request must come back infeasible
    cone = make_cone([[1, 0], [0, 1]])
    d = TangentVector(cone.base, np.array([1.0, 1.0]))
    report = find_supporting_covector(cone, d)
    assert not report.feasible
    assert report.covector is None
    assert report.separating_margin == 0.0


def test_decrease_direction_outside_cone_margin_achieved():
    cone = make_cone([[1, 0], [0, 1]])
    d = TangentVector(cone.base, np.array([-1.0, -2.0]))
    report = find_supporting_covector(cone, d)
    assert report.feasible
    lam = report.covector.components
    assert float(np.dot(lam, [-1.0, -2.0])) == report.separating_margin == 3.0
    assert np.all(lam <= 0.0)


def test_decrease_direction_on_cone_edge_margin_zero():
    cone = make_cone([[1.0, 0.0]])
    d = TangentVector(cone.base, np.array([1.0, 0.0]))
    report = find_supporting_covector(cone, d)
    assert report.feasible
    assert report.separating_margin == 0.0
    assert float(np.dot(report.covector.components, [1.0, 0.0])) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lp_never_misses_a_brute_force_direction(seed):
    # The grid oracle can miss supporting covectors confined to a
    # measure-zero face of the polar cone, so only the sound direction is a
    # universal property: whenever the dense scan finds a direction, the
    # exact LP must be feasible, and its covector must actually support.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(1, 7))
    gens = rng.normal(size=(n, m))
    report = find_supporting_covector(make_cone(gens, dim=m))
    if brute_force_supports(list(gens)):
        assert report.feasible
    if report.feasible:
        pairings = gens @ report.covector.components
        assert float(np.max(pairings)) <= 1e-9 * float(np.max(np.abs(gens)))


# -- the float-first support LPs against the exact simplex -------------------


def recorded_lps(cone, direction=None):
    """Every (c, A, b) that find_supporting_covector hands to solve_lp_max."""
    lps = []
    real = cone_module.solve_lp_max

    def record(c, A, b):
        lps.append((c, A, b))
        return real(c, A, b)

    with mock.patch.object(cone_module, "solve_lp_max", record):
        find_supporting_covector(cone, direction)
    return lps


def assert_attains(c, A, b, result):
    """`result` is a feasible LP answer whose x is exactly feasible and
    exactly attains the reported value."""
    feasible, x, value = result
    assert feasible
    assert isinstance(value, Fraction)
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, rhs in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) <= rhs
    assert sum(cj * v for cj, v in zip(c, x)) == value


def assert_matches_exact_simplex(c, A, b):
    result = solve_lp_max(c, A, b)
    assert_attains(c, A, b, result)
    assert result[2] == cone_module._solve_exact(c, A, b)[2]


def random_generators(rng, m, n, rounded, antiparallel):
    gens = rng.normal(size=(n, m)) * rng.uniform(0.01, 100.0, size=(n, 1))
    if rounded:  # small integers: many ties, degenerate vertices
        gens = np.round(gens)
    if antiparallel and n >= 2:
        gens[1] = -gens[0] * (1.0 + 2.0**-52)
    return gens[np.any(gens != 0.0, axis=1)]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 40),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_certified_lp_matches_exact_simplex(seed, m, n, rounded, antiparallel, with_direction, pick):
    # Every LP of the support query (feasibility, margin, and the lex
    # passes with their pin rows) must come back exactly feasible and
    # attain its value; one of them, drawn by hypothesis, is re-solved by
    # the exact simplex alone (at m = 6 with 40 generators that takes about
    # a second, so the whole list would not fit the suite's budget).
    rng = np.random.default_rng(seed)
    cone = make_cone(random_generators(rng, m, n, rounded, antiparallel), dim=m)
    direction = TangentVector(cone.base, rng.normal(size=m)) if with_direction else None
    lps = recorded_lps(cone, direction)
    for lp in lps:
        assert_attains(*lp, solve_lp_max(*lp))
    assert_matches_exact_simplex(*lps[pick % len(lps)])


def test_certificate_holds_on_generic_cone(caplog):
    # no fallback: the float basis is certified on every LP of the query
    rng = np.random.default_rng(5)
    cone = make_cone(rng.normal(size=(8, 3)))
    direction = TangentVector(cone.base, rng.normal(size=3))
    with caplog.at_level(logging.DEBUG, logger="geocon.cone"):
        lps = recorded_lps(cone, direction)
    assert lps and not caplog.records
    for lp in lps:
        assert_matches_exact_simplex(*lp)


def test_near_antiparallel_pair_falls_back_to_exact_simplex(caplog):
    # g and -g(1 + 2^-52) pin <g, lambda> to zero; float64 cannot see the
    # 2^-52, so the float basis violates a generator row exactly and the
    # exact simplex has to decide
    g = np.array([1.0, 0.3, -0.7])
    cone = make_cone([g, -g * (1.0 + 2.0**-52)])
    with caplog.at_level(logging.DEBUG, logger="geocon.cone"):
        lps = recorded_lps(cone)
    fallbacks = [r.getMessage() for r in caplog.records if r.name == "geocon.cone"]
    assert fallbacks and all("exact certificate failed" in msg for msg in fallbacks)
    for lp in lps:
        assert_matches_exact_simplex(*lp)


def test_fallback_log_stays_out_of_the_report():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, GEOCON_LOG="DEBUG", PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "geocon.cli", "cone", str(root / "scenarios" / "polar_connection.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert "DEBUG:geocon.cone:" in done.stderr and "exact certificate failed" in done.stderr
    assert "certificate" not in done.stdout

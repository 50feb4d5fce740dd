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
    SupportReport,
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
    assert all(g.base is cone.base for g in cone.generators)  # so Cone skips its base check


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


def two_phase_simplex(c, A, b):
    """max c.x subject to A x <= b, x >= 0 by the textbook exact two-phase
    simplex over Fractions (Bland's rule): a slack per row, and an
    artificial per row with b < 0 (negated).  The oracle for every exact
    answer; (feasible, x, value)."""
    F = Fraction
    m, n = len(A), len(c)

    def pivot(T, basis, row, col):
        piv = T[row][col]
        T[row] = [v / piv for v in T[row]]
        for i in range(len(T)):
            if i != row and T[i][col] != 0:
                factor = T[i][col]
                T[i] = [a - factor * p for a, p in zip(T[i], T[row])]
        basis[row] = col

    def run(T, basis, obj, allowed):
        while True:
            enter = next((j for j in allowed if obj[j] > sum(obj[basis[i]] * T[i][j] for i in range(m))), None)
            if enter is None:
                return
            rows = [(T[i][-1] / T[i][enter], basis[i], i) for i in range(m) if T[i][enter] > 0]
            if not rows:
                raise ConeError("unbounded linear program")
            pivot(T, basis, min(rows)[2], enter)

    negative = [i for i in range(m) if b[i] < 0]
    T, basis = [], []
    for i in range(m):
        row = [F(v) for v in A[i]] + [F(int(k == i)) for k in range(m)] + [F(0)] * len(negative) + [F(b[i])]
        basis.append(n + m + negative.index(i) if b[i] < 0 else n + i)
        if b[i] < 0:
            row = [-v for v in row]
            row[basis[i]] = F(1)
        T.append(row)
    if negative:
        obj1 = [F(0)] * (n + m) + [F(-1)] * len(negative)
        run(T, basis, obj1, range(len(obj1)))
        if sum(obj1[basis[i]] * T[i][-1] for i in range(m)) < 0:
            return False, None, None
        for i in range(m):
            if basis[i] >= n + m:  # drive degenerate artificials out when possible
                j = next((j for j in range(n + m) if T[i][j] != 0), None)
                if j is not None:
                    pivot(T, basis, i, j)
    obj2 = [F(v) for v in c] + [F(0)] * (m + len(negative))
    run(T, basis, obj2, range(n + m))
    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return True, x, sum(obj2[basis[i]] * T[i][-1] for i in range(m))


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
    assert result[2] == two_phase_simplex(c, A, b)[2]


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


# -- the support query without its old feasibility pass ----------------------


def support_as_before(cone, direction=None):
    """The support query as it ran before its feasibility loop was deleted:
    up to 2m LPs maximizing +-lambda_j over the polytope, infeasible with
    margin None unless one is positive, then the margin LP and the
    lexicographic max chain, or the min chain when the max is zero."""
    m = cone.dim
    gens = cone_module._fraction_rows(cone.generators)

    def lp(objective, rows=()):
        return cone_module._lambda_lp(gens, m, objective, rows)

    def e(j, sign=1):
        out = [Fraction(0)] * m
        out[j] = Fraction(sign)
        return out

    if not any(lp(e(j, sign)) > 0 for j in range(m) for sign in (1, -1)):
        return SupportReport(None, None, None, False)
    margin, pins = None, []
    if direction is not None:
        d = [Fraction(float(c)) for c in direction.components]
        value = lp(d)
        margin, pins = float(value), [([-c for c in d], -value), (d, value)]

    def chain(sign):
        fixes, lam = list(pins), []
        for j in range(m):
            lam.append(sign * lp(e(j, sign), fixes))
            fixes += [(e(j), lam[-1]), (e(j, -1), -lam[-1])]
        return lam

    lam = chain(1)
    if not any(lam):
        lam = chain(-1)
    lam = np.asarray([float(v) for v in lam])
    if not np.any(lam):
        return SupportReport(None, None, margin, False)
    lam = lam / float(np.max(np.abs(lam)))
    pairings = [float(np.dot(lam, g.components)) for g in cone.generators]
    return SupportReport(Covector(cone.base, lam), max(pairings, default=0.0), margin, margin is None or margin >= 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(0, 40),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_support_query_agrees_with_the_feasibility_loop(seed, m, n, rounded, antiparallel, with_direction):
    rng = np.random.default_rng(seed)
    cone = make_cone(random_generators(rng, m, n, rounded, antiparallel), dim=m)
    direction = TangentVector(cone.base, rng.normal(size=m)) if with_direction else None
    new = find_supporting_covector(cone, direction)
    old = support_as_before(cone, direction)
    assert new.feasible == old.feasible
    assert new.max_pairing == old.max_pairing
    if old.covector is None:
        assert new.covector is None
    else:
        assert new.covector.components.tobytes() == old.covector.components.tobytes()
    if old.separating_margin is None and direction is not None:
        # only the zero covector supports: the margin is now the LP optimum
        assert new.separating_margin == 0.0 and not old.feasible
    else:
        assert new.separating_margin == old.separating_margin


def test_spanning_cone_with_a_direction_reports_margin_zero():
    # +-e1, +-e2 leave only the zero covector; the margin LP optimum is 0
    cone = make_cone([[1, 0], [-1, 0], [0, 1], [0, -1]])
    report = find_supporting_covector(cone, TangentVector(cone.base, np.array([1.0, 2.0])))
    assert report == SupportReport(None, None, 0.0, False)
    assert find_supporting_covector(cone) == SupportReport(None, None, None, False)


# -- the shrinking chain, the integer certificate and the exact pivots -------


def lex_chain_pinned(gens, m, sign, extra):
    """The lexicographic chain as it ran with two pin rows per decided
    coordinate: the decided values of lambda, in order."""
    fixes, lam = list(extra), []
    for j in range(m):
        e = [Fraction(0)] * m
        e[j] = Fraction(sign)
        lam.append(sign * cone_module._lambda_lp(gens, m, e, fixes))
        unit = [Fraction(0)] * m
        unit[j] = Fraction(1)
        fixes += [(unit, lam[-1]), ([-v for v in unit], -lam[-1])]
    return lam


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(0, 24),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_shrunk_chain_matches_the_pinned_chain(seed, m, n, rounded, antiparallel, with_direction):
    # each LP of the chain, solved over the free coordinates with the decided
    # prefix substituted, has the exact optimum of the pinned LP
    rng = np.random.default_rng(seed)
    cone = make_cone(random_generators(rng, m, n, rounded, antiparallel), dim=m)
    gens = cone_module._fraction_rows(cone.generators)
    extra = []
    if with_direction:
        d = [Fraction(float(v)) for v in rng.normal(size=m)]
        value = cone_module._lambda_lp(gens, m, d)
        extra = [([-v for v in d], -value), (d, value)]
    for sign in (1, -1):
        pinned = lex_chain_pinned(gens, m, sign, extra)
        for j in range(m):
            e = [Fraction(0)] * m
            e[j] = Fraction(sign)
            assert sign * cone_module._lambda_lp(gens, m, e[j:], extra, pinned[:j]) == pinned[j]


def certify_in_fractions(c, A, b, basis):
    """The certificate's conditions checked in Fractions, with plain
    Gauss-Jordan solves: (x, value) when the basis is optimal, else None."""
    m, n = len(A), len(c)
    S = sorted(j for j in basis if j < n)
    slack = {j - n for j in basis if n <= j < n + m}
    L = [i for i in range(m) if i not in slack]
    if len(S) != len(L) or len(S) + len(slack) != len(basis):
        return None

    def solve(M, rhs):
        k = len(M)
        T = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(M, rhs)]
        for col in range(k):
            row = next((i for i in range(col, k) if T[i][col] != 0), None)
            if row is None:
                return None
            T[col], T[row] = T[row], T[col]
            T[col] = [v / T[col][col] for v in T[col]]
            for i in range(k):
                if i != col and T[i][col] != 0:
                    T[i] = [a - T[i][col] * p for a, p in zip(T[i], T[col])]
        return [row[-1] for row in T]

    M = [[A[i][j] for j in S] for i in L]
    x_S = solve(M, [b[i] for i in L])
    y = solve([list(col) for col in zip(*M)], [c[j] for j in S])
    if x_S is None or y is None or min(x_S + y, default=0) < 0:
        return None
    if any(sum(A[i][j] * v for j, v in zip(S, x_S)) > b[i] for i in slack):
        return None
    if any(c[j] > sum(yl * A[i][j] for yl, i in zip(y, L)) for j in set(range(n)) - set(S)):
        return None
    x = [Fraction(0)] * n
    for j, v in zip(S, x_S):
        x[j] = v
    return x, sum(c[j] * v for j, v in zip(S, x_S))


def float_basis(c, A, b):
    """The basis the float64 pass of solve_lp_max ends on, whatever its
    outcome."""
    T, basis = cone_module._tableau(c, A, b, float)
    cone_module._simplex(T, basis, cone_module._FLOAT_TOL)
    return basis


def exact_simplex(c, A, b, basis=()):
    """The exact pass of solve_lp_max from `basis`: (feasible, x, value);
    an unbounded program raises ConeError, as it does there."""
    T, current = cone_module._tableau(c, A, b, Fraction, basis)
    outcome, _ = cone_module._simplex(T, current, 0)
    if outcome == "unbounded":
        raise ConeError("unbounded linear program")
    if outcome == "infeasible":
        return False, None, None
    x_B = dict(zip(current, T[:-1, -1]))
    return True, [x_B.get(j, Fraction(0)) for j in range(len(c))], -T[-1, -1]


def candidate_bases(lp, rng):
    """The float basis, and that basis with one column swapped for another
    (mostly not optimal, often not a basis)."""
    c, A, b = lp
    basis = float_basis(c, A, b)
    out = [basis]
    for _ in range(3):
        other = list(basis)
        other[int(rng.integers(len(other)))] = int(rng.integers(len(c) + len(A)))
        out.append(other)
    return out


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(0, 24),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_integer_certificate_matches_fractions_and_the_exact_simplex(
    seed, m, n, rounded, antiparallel, with_direction
):
    rng = np.random.default_rng(seed)
    cone = make_cone(random_generators(rng, m, n, rounded, antiparallel), dim=m)
    direction = TangentVector(cone.base, rng.normal(size=m)) if with_direction else None
    lps = recorded_lps(cone, direction)
    lp = lps[int(rng.integers(len(lps)))]
    for basis in candidate_bases(lp, rng):
        expected = certify_in_fractions(*lp, basis)
        try:
            got = cone_module._certify(*lp, basis)
        except cone_module._NoCertificate:
            got = None
        assert got == expected
        if got is not None:
            assert_attains(*lp, (True, *got))
            assert got[1] == two_phase_simplex(*lp)[2]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 24), st.booleans(), st.booleans())
def test_a_certified_basis_is_installed_exactly_and_needs_no_pivot(seed, m, n, rounded, with_direction):
    # the certificate and the exact engine agree: a basis that _certify
    # accepts is the basis _tableau installs over Fractions, and from it
    # _simplex stops at once with the oracle's optimum
    rng = np.random.default_rng(seed)
    cone = make_cone(random_generators(rng, m, n, rounded, False), dim=m)
    direction = TangentVector(cone.base, rng.normal(size=m)) if with_direction else None
    lps = recorded_lps(cone, direction)
    lp = lps[int(rng.integers(len(lps)))]
    for basis in candidate_bases(lp, rng):
        try:
            cone_module._certify(*lp, basis)
        except cone_module._NoCertificate:
            continue
        T, installed = cone_module._tableau(*lp, Fraction, basis)
        assert sorted(installed) == sorted(basis)
        assert cone_module._simplex(T, installed, 0) == ("optimal", 0)
        assert -T[-1, -1] == two_phase_simplex(*lp)[2]


def test_integer_certificate_rejects_each_kind_of_failure():
    # max x0 + x1 subject to x0 + x1 <= 1, x0 - x1 <= -1/2, x0 <= 1/4, x >= 0;
    # columns 0 and 1 are x, 2..4 the slacks of the three rows.  The optimum
    # 1 is reached at the vertices (1/4, 3/4) and (0, 1).
    F = Fraction
    c, A, b = [F(1), F(1)], [[F(1), F(1)], [F(1), F(-1)], [F(1), F(0)]], [F(1), F(-1, 2), F(1, 4)]
    assert cone_module._certify(c, A, b, [0, 1, 3]) == ([F(1, 4), F(3, 4)], F(1))
    assert cone_module._certify(c, A, b, [1, 3, 4]) == ([F(0), F(1)], F(1))
    for basis, reason in (
        ([0, 2, 4], "negative basic variable"),
        ([0, 2, 3], "row 1 violated"),
        ([1, 2, 4], "negative dual multiplier"),
        ([1, 2, 3], "singular basis matrix"),
        ([0, 1], "2 basic columns for 3 tight rows"),
    ):
        with pytest.raises(cone_module._NoCertificate, match=reason):
            cone_module._certify(c, A, b, basis)
    with pytest.raises(cone_module._NoCertificate, match="column 0 has positive reduced cost"):
        cone_module._certify([F(1)], [[F(1)]], [F(1)], [1])


def test_slack_start_matches_the_oracle_on_small_programs():
    # infeasible, degenerate and cost-free programs from the slack basis
    F = Fraction
    for c, A, b in (
        ([F(1)], [[F(1)], [F(-1)]], [F(1), F(-2)]),  # x <= 1 and x >= 2
        ([F(1), F(1)], [[F(1), F(1)], [F(1), F(-1)], [F(1), F(0)]], [F(1), F(-1, 2), F(1, 4)]),
        ([F(0), F(0)], [[F(-1), F(-1)], [F(1), F(1)]], [F(-1), F(3)]),
        ([F(-1), F(-1)], [[F(-1), F(-1)]], [F(-1)]),  # dual feasible from the start
        ([F(-1), F(2)], [[F(-1), F(0)], [F(0), F(1)], [F(1), F(1)]], [F(-1), F(0), F(5)]),
    ):
        feasible, x, value = exact_simplex(c, A, b)
        expected = two_phase_simplex(c, A, b)
        assert feasible == expected[0]
        if feasible:
            assert value == expected[2]
            assert_attains(c, A, b, (feasible, x, value))
    with pytest.raises(ConeError, match="unbounded"):
        exact_simplex([F(1)], [[F(-1)]], [F(0)])
    with pytest.raises(ConeError, match="unbounded"):
        solve_lp_max([F(1)], [[F(-1)]], [F(0)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 24), st.booleans(), st.booleans())
def test_exact_pivots_from_any_basis_match_the_two_phase_simplex(seed, m, n, rounded, with_direction):
    # antiparallel pairs make the float basis fail its certificate; from the
    # slack basis, the float basis and perturbed ones (often not optimal,
    # singular or not a basis at all) the exact pivots reach the optimum of
    # the two-phase simplex at an exactly feasible vertex
    rng = np.random.default_rng(seed)
    cone = make_cone(random_generators(rng, m, n, rounded, True), dim=m)
    direction = TangentVector(cone.base, rng.normal(size=m)) if with_direction else None
    for lp in recorded_lps(cone, direction)[:4]:
        expected = two_phase_simplex(*lp)
        for basis in [()] + candidate_bases(lp, rng):
            feasible, x, value = exact_simplex(*lp, basis)
            assert feasible == expected[0]
            if feasible:
                assert value == expected[2]
                assert_attains(*lp, (feasible, x, value))


def test_polar_connection_cone_pivots_from_the_float_basis(caplog, capsys):
    # both support LPs that fail the certificate on polar_connection pivot
    # exactly from the float basis; a float pass that stops at once leaves
    # the slack basis, which is certified and, failing that, pivoted from
    # as the float basis, and gives the same report
    from geocon.cli import main

    path = str(Path(__file__).resolve().parents[1] / "scenarios" / "polar_connection.json")
    with caplog.at_level(logging.DEBUG, logger="geocon.cone"):
        assert main(["cone", path]) == 0
    warm = capsys.readouterr().out
    messages = [r.getMessage() for r in caplog.records if r.name == "geocon.cone"]
    assert len(messages) == 2
    assert all("exact certificate failed" in msg and "from the float basis" in msg for msg in messages)

    real = cone_module._simplex

    def no_float_pivots(T, basis, tol):
        return ("iteration cap", 0) if tol else real(T, basis, tol)

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="geocon.cone"):
        with mock.patch.object(cone_module, "_simplex", no_float_pivots):
            assert main(["cone", path]) == 0
    assert capsys.readouterr().out == warm
    messages = [r.getMessage() for r in caplog.records if r.name == "geocon.cone"]
    assert messages and all("float pass iteration cap" in msg and "from the float basis" in msg for msg in messages)


def test_a_float_basis_is_certified_whatever_the_float_outcome(caplog, capsys):
    # the float pass runs in full but reports "iteration cap": its last
    # basis is still certified, so martinet's LPs, which all certify, need
    # no exact pass and the report is the same
    from geocon.cli import main

    path = str(Path(__file__).resolve().parents[1] / "scenarios" / "martinet.json")
    assert main(["cone", path]) == 0
    report = capsys.readouterr().out
    real = cone_module._simplex

    def capped(T, basis, tol):
        outcome = real(T, basis, tol)
        return ("iteration cap", outcome[1]) if tol else outcome

    with caplog.at_level(logging.DEBUG, logger="geocon.cone"):
        with mock.patch.object(cone_module, "_simplex", capped):
            assert main(["cone", path]) == 0
    assert capsys.readouterr().out == report
    assert not [r for r in caplog.records if r.name == "geocon.cone"]


@pytest.mark.parametrize(
    "m, passes, pivots", [(7, 0, 0), (8, 0, 0), (9, 0, 0), (10, 0, 0), (13, 2, 18), (14, 2, 3), (16, 1, 15)]
)
def test_probe_systems_support_exact_passes_and_pivots(caplog, m, passes, pivots):
    # one system per m drawn as the perfbench sweep panel draws them (panel
    # seed 0, k = 2, switch at 0.4, sample times 0.25..1.0, budget 16), past
    # the sweep's m <= 6: their support LPs are degenerate with optimum 0.
    # The float pass certifies every LP up to m = 10; at m = 13, 14 and 16
    # some float passes end infeasible or fail the certificate, and the
    # exact passes, each from the basis its float pass ended on, take the
    # pinned (observed) pivot totals.  The report was recorded with the cold
    # two-phase simplex
    from tests.conftest import random_control_affine
    from geocon.ocp import integrate_trajectory, piecewise_schedule

    rng = np.random.default_rng([0, m])
    system = random_control_affine(rng, m=m, k=2)
    values = np.round(rng.uniform(-1.0, 1.0, size=(2, 2)), 3).tolist()
    x0 = np.round(rng.uniform(-0.2, 0.2, size=m), 3)
    ref = integrate_trajectory(system, x0, piecewise_schedule([0.0, 0.4], values), (0.0, 1.0))
    cone = assemble_cone(system, ref, 1.0, [0.25, 0.5, 0.75, 1.0], per_time_budget=16)
    with caplog.at_level(logging.DEBUG, logger="geocon.cone"):
        report = find_supporting_covector(cone)
    messages = [r.getMessage() for r in caplog.records if r.name == "geocon.cone"]
    assert all("from the float basis" in msg for msg in messages)
    assert len(messages) == passes
    assert sum(int(msg.rsplit(" in ", 1)[1].split()[0]) for msg in messages) == pivots
    assert report == SupportReport(None, None, None, False)


@pytest.mark.parametrize("m, supported", [(8, False), (10, True)])
def test_the_sampled_cone_sees_orders_up_to_two_on_the_chained_form(m, supported):
    # the cone samples needles (order 1) and commutators (order 2) only: at
    # m = 8 they span R^8 and nothing supports them, at m = 10 they reach
    # rank 9 and a covector supports them, while the ladder, which follows
    # every order, finds the annihilator trivial.  A reported covector is
    # evidence up to order 2; "no supporting covector" is a certificate
    from tests.conftest import chained_form
    from geocon.ocp import integrate_trajectory, piecewise_schedule
    from geocon.pca import abnormal_verdict, run_algorithm

    system = chained_form(m)
    ref = integrate_trajectory(system, [0.0] * m, piecewise_schedule([0.0], [[1.0, 0.0]]), (0.0, 1.0), 1e-2)
    cone = assemble_cone(system, ref, 1.0, [0.25, 0.5, 0.75, 1.0], step=1e-2)
    assert {p.order for p in cone.provenance} == {1, 2}
    rank = np.linalg.matrix_rank(np.stack([g.components for g in cone.generators]))
    assert rank == (9 if supported else m)
    assert (find_supporting_covector(cone).covector is not None) == supported
    verdict = abnormal_verdict(run_algorithm(system, ref, max_levels=m))
    assert verdict == "annihilator trivial - no abnormal biextremal along reference"

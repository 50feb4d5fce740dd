"""Finite-generator approximations of the perturbation cone and their
supporting-covector queries.

A cone is a deduplicated list of tangent vectors at one base point; support
queries over the generators equal support queries over their closed convex
conic hull, which is all the necessary-condition audit consumes.  The
linear programs are tiny and every one goes through `solve_lp_max`: one
dense simplex (numpy, no external solver, no artificial columns) runs in
float64, and exact integer arithmetic certifies the basis it ends on,
whatever its outcome, with one fraction-free square solve for the primal
point and one for the dual multipliers.  When the certificate fails
(near-degenerate data), the same simplex runs over Fractions from that
basis, and a DEBUG line on the ``geocon.cone`` logger names the float
outcome and the reason.  Either way answers are exact for the given
floating-point generators, and ties break to the lexicographically
maximal covector.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import Covector, Point, TangentVector
from .variations import keep_new_direction, sample_perturbation_set

log = logging.getLogger(__name__)

SUPPORT_REL_TOL = 1e-9


class ConeError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorProvenance:
    t0: float
    order: int
    recipe: str


@dataclass(frozen=True, eq=False)
class Cone:
    base: Point
    time: float
    generators: tuple[TangentVector, ...]
    provenance: tuple[GeneratorProvenance, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.provenance):
            raise ConeError("one provenance record per generator required")
        for g in self.generators:
            if g.base.dim != self.base.dim:
                raise ConeError("generator dimension mismatch")
            if g.base is not self.base and not np.allclose(g.base.coords, self.base.coords, atol=1e-9):
                raise ConeError("generators must be based at the cone's base point")
            if g.norm == 0.0:
                raise ConeError("zero generators are excluded")

    @property
    def dim(self) -> int:
        return self.base.dim


@dataclass(frozen=True)
class SupportReport:
    covector: Covector | None
    max_pairing: float | None
    separating_margin: float | None
    feasible: bool


@dataclass(frozen=True)
class SupportCheck:
    supported: bool
    max_pairing: float | None
    error: str | None = None


def assemble_cone(
    system,
    reference,
    t: float,
    sample_times: Sequence[float],
    per_time_budget: int = 16,
    step: float = 1e-3,
) -> Cone:
    """Sampled perturbation vectors from each time, transported to gamma(t).

    Sample times must lie in (a, t] and avoid control switch times; the
    vectors sampled at one time ride the linearized reference flow to the
    cone's base point in one integration; a zero vector, or one parallel
    to an earlier generator (:func:`keep_new_direction`, each norm computed
    once), is dropped.  Every generator shares the cone's base Point.
    """
    a, b = reference.interval
    if not (a < t <= b):
        raise ConeError(f"cone time {t} must lie in ({a}, {b}]")
    for t0 in sample_times:
        if not (a < t0 <= t):
            raise ConeError(f"sample time {t0} outside ({a}, {t}]")
        if reference.schedule.on_switch(t0, reference.interval):
            raise ConeError(f"sample time {t0} sits on a control switch")

    from .ocp import transport_vector  # local import keeps the module graph acyclic

    base = reference.point_at(t)
    vectors, provenance, directions = [], [], []
    for t0 in sorted(sample_times):
        sampled = sample_perturbation_set(system, reference, t0, budget=per_time_budget)
        moved = [pv.vector for pv in sampled]
        if t0 != t:
            moved = transport_vector(system, reference, t0, t, moved, step=step)
        for pv, w in zip(sampled, moved):
            w = w.components
            if keep_new_direction(directions, w):
                vectors.append(TangentVector(base, w.copy()))
                provenance.append(GeneratorProvenance(t0, pv.order, pv.recipe))
    return Cone(base, t, tuple(vectors), tuple(provenance))


# ---------------------------------------------------------------------------
# Support LPs: one simplex, run in float64 to find a basis, then exact
# integers certify the basis it ends on, and when the proof fails the same
# simplex runs over Fractions from it (the verify and warm-start
# steps of Applegate, Cook, Dash & Espinoza, "Exact solutions to linear
# programming problems", Oper. Res. Lett. 35, 2007): dual simplex pivots to
# primal feasibility, then Bland's primal simplex (maximization) to
# optimality, with no artificial columns.
# ---------------------------------------------------------------------------

F = Fraction

# float-pass tolerance; it only steers the search for a basis, never the
# answer, which the exact certificate (or the exact simplex) decides
_FLOAT_TOL = 1e-9


class _NoCertificate(Exception):
    """The float pass's last basis failed the exact proof."""


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    rows, cols = np.flatnonzero(T[:, col]), np.flatnonzero(T[row])
    rows = rows[rows != row]
    T[np.ix_(rows, cols)] -= np.outer(T[rows, col], T[row, cols])
    basis[row] = int(col)


def _tableau(c, A, b, kind, basis=()):
    """The slack tableau of max c.x, A x <= b, x >= 0 over `kind` (float or
    Fraction) and its basis: rows [A | I | b], then the cost row [c | 0 | 0]
    holding the reduced costs and minus the objective value; the basic
    column of each row, structural columns < n, slacks n..n+m-1.  Each
    structural column of `basis` takes a row whose slack it leaves
    nonbasic, or is skipped; an empty `basis` is the slack basis."""
    m, n = len(A), len(c)
    T = np.full((m + 1, n + m + 1), kind(0), dtype=float if kind is float else object)
    T[:m, :n] = [[kind(v) for v in row] for row in A]
    T[range(m), range(n, n + m)] = kind(1)
    T[:m, -1] = [kind(v) for v in b]
    T[m, :n] = [kind(v) for v in c]
    current = list(range(n, n + m))
    for j in (j for j in basis if j < n):
        row = next((i for i in range(m) if current[i] >= n and current[i] not in basis and T[i, j]), None)
        if row is not None:
            _pivot(T, current, row, j)
    return T, current


def _simplex(T, basis, tol):
    """Pivot tableau T and its basis (from `_tableau`) in place to an optimum:
    (outcome, pivots), outcome "optimal", "infeasible", "unbounded" or
    "iteration cap".

    Dual simplex pivots (leaving: the infeasible row with the smallest
    basic index; entering: the smallest ratio, ties to the smallest index)
    reach primal feasibility, on the real costs when the basis is dual
    feasible and otherwise as if every cost were zero, for which every
    basis is: a phase 1 without artificial columns.  Bland's primal simplex
    finishes (the first improving column enters, the smallest ratio leaves,
    ties to the smallest basic index).  With `tol` 0 over Fractions every
    test is exact.  Over float64 a reduced cost within `tol` counts as
    zero, and so does a right-hand side within `tol` times one plus the
    largest initial one; pivot elements must exceed tol / 100, ratios
    within tol / 1000 tie, and the run stops at an iteration cap.
    """
    m = len(basis)
    cost, rhs = T[m, :-1], T[:m, -1]  # views that follow the pivots
    rhs_tol = tol * (1 + np.abs(rhs).max(initial=0)) if tol else 0
    pivot_tol, tie_tol, limit = (tol / 100, tol / 1000, 50 * sum(T.shape)) if tol else (0, 0, math.inf)
    dual_feasible = not np.any(cost > tol)
    pivots = 0
    while pivots < limit:
        if (infeasible := np.flatnonzero(rhs < -rhs_tol)).size:
            leave = min(infeasible, key=basis.__getitem__)
            cols = np.flatnonzero(T[leave, :-1] < -pivot_tol)
            if not cols.size:  # the row's slack can only be negative
                return "infeasible", pivots
            ratios = np.maximum(cost[cols] / T[leave, cols], 0) if dual_feasible else np.zeros(cols.size)
            enter = cols[np.flatnonzero(ratios <= (best := ratios.min()) + tie_tol * (1 + best))[0]]
        else:
            if not (improving := np.flatnonzero(cost > tol)).size:
                return "optimal", pivots
            enter = improving[0]
            rows = np.flatnonzero(T[:m, enter] > pivot_tol)
            if not rows.size:
                return "unbounded", pivots
            ratios = np.maximum(rhs[rows], 0) / T[rows, enter]
            leave = min(rows[ratios <= (best := ratios.min()) + tie_tol * (1 + best)], key=basis.__getitem__)
        _pivot(T, basis, leave, enter)
        pivots += 1
    return "iteration cap", pivots


def _integer_row(row):
    """`row` (Fractions or ints) scaled to ints by the lcm of its denominators, and that lcm."""
    scale = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row], scale


def _solve_integer(M, rhs):
    """(X, d) with M X = d rhs and d = |det M| > 0 for a square integer M,
    by fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968): every division is exact and every entry stays an integer."""
    k = len(M)
    T = [list(row) + [v] for row, v in zip(M, rhs)]
    prev = 1
    for col in range(k):
        row = next((i for i in range(col, k) if T[i][col]), None)
        if row is None:
            raise _NoCertificate("singular basis matrix")
        T[col], T[row] = T[row], T[col]
        P, piv = T[col], T[col][col]
        for i in range(k):
            if i != col:
                Ti, f = T[i], T[i][col]
                Ti[col + 1 :] = [(piv * a - f * p) // prev for a, p in zip(Ti[col + 1 :], P[col + 1 :])]
        prev = piv
    sign = 1 if prev > 0 else -1
    return [sign * row[-1] for row in T], sign * prev


def _certify(c, A, b, basis):
    """Exact optimality proof for a basis of max c.x, A x <= b, x >= 0.

    S are the basic structural columns and L the rows whose slack is
    nonbasic.  The basis is optimal when x_S solving A[L,S] x_S = b[L] is
    primal feasible (x_S >= 0 and every other row's slack >= 0) and y
    solving A[L,S]^T y = c_S is dual feasible (y >= 0 and every nonbasic
    structural column has reduced cost c_j - y.A[L,j] <= 0).  Each row
    [A_i | b_i] and c are scaled to integers first (a positive scale keeps
    every sign), so each check compares integers.  Returns the optimal
    vertex x and its value.
    """
    m, n = len(A), len(c)
    S = sorted(j for j in basis if j < n)
    basic_slack = {j - n for j in basis if n <= j < n + m}
    L = [i for i in range(m) if i not in basic_slack]
    if len(S) != len(L) or len(S) + len(basic_slack) != len(basis):
        raise _NoCertificate(f"{len(S)} basic columns for {len(L)} tight rows")
    rows = [_integer_row(list(A[i]) + [b[i]])[0] for i in range(m)]
    cs, c_scale = _integer_row(c)
    M = [[rows[i][j] for j in S] for i in L]
    X, d = _solve_integer(M, [rows[i][n] for i in L])
    if any(v < 0 for v in X):
        raise _NoCertificate("negative basic variable")
    for i in sorted(basic_slack):
        if sum(rows[i][j] * v for j, v in zip(S, X)) > rows[i][n] * d:
            raise _NoCertificate(f"row {i} violated")
    Y, e = _solve_integer([list(col) for col in zip(*M)], [cs[j] for j in S])
    if any(v < 0 for v in Y):
        raise _NoCertificate("negative dual multiplier")
    for j in sorted(set(range(n)) - set(S)):
        if cs[j] * e > sum(yl * rows[i][j] for yl, i in zip(Y, L)):
            raise _NoCertificate(f"column {j} has positive reduced cost")
    x_S = dict(zip(S, X))
    return [F(x_S.get(j, 0), d) for j in range(n)], F(sum(cs[j] * v for j, v in zip(S, X)), c_scale * d)


def solve_lp_max(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """max c.x subject to A x <= b, x >= 0, exactly.

    Returns (feasible, x, value) with Fraction entries.  `_simplex` runs in
    float64 to propose the optimal basis, and `_certify` proves the basis
    it ends on exactly, whatever its outcome; when the proof fails,
    `_simplex` runs over Fractions from that same basis.  The optimal value
    is unique, so it is the same Fraction either way; x is an exact
    optimal vertex.
    """
    T, basis = _tableau(c, A, b, float)
    float_outcome, _ = _simplex(T, basis, _FLOAT_TOL)
    try:
        return (True, *_certify(c, A, b, basis))
    except _NoCertificate as exc:
        reason = exc
    T, basis = _tableau(c, A, b, F, basis)
    outcome, pivots = _simplex(T, basis, 0)
    if outcome == "unbounded":
        raise ConeError("unbounded linear program (missing box constraints?)")
    log.debug(
        "LP with %d rows x %d columns: exact certificate failed (%s; float pass %s); "
        "solved exactly from the float basis in %d pivots",
        len(A), len(c), reason, float_outcome, pivots,
    )
    if outcome == "infeasible":
        return False, None, None
    x_B = dict(zip(basis, T[:-1, -1]))
    return True, [x_B.get(j, F(0)) for j in range(len(c))], -T[-1, -1]


def _lambda_lp(gen_rows, m, objective, extra_rows=(), decided=()):
    """max objective . lambda over the box [-1, 1]^m cut by the generator
    half-spaces and optional extra rows (coeffs . lambda <= rhs), the
    leading coordinates of lambda held at `decided` (a prefix of a point of
    the polytope, so the program is always feasible) and `objective` given
    on the free coordinates.

    The decided values are substituted into every row, and a row with no
    free coefficient, which they satisfy, is dropped, as is a repeat of an
    earlier (row, rhs) pair; the free coordinates are shifted by
    y = lambda + 1 to reach standard form.  Exact throughout.
    """
    k = len(decided)
    rows = {}  # (free coefficients, rhs) in first-seen order
    for coeffs, rhs in [(g, 0) for g in gen_rows] + list(extra_rows):
        free = tuple(coeffs[k:])
        if any(free):
            ints, scale = _integer_row([rhs, *free, *(-a * v for a, v in zip(coeffs, decided))])
            rows[free, F(sum(ints), scale)] = None
    A = [list(free) for free, _ in rows] + [[F(int(i == j)) for i in range(m - k)] for j in range(m - k)]
    b = [rhs for _, rhs in rows] + [F(2)] * (m - k)
    _, _, value = solve_lp_max(list(objective), A, b)
    return value - sum(objective)


def _fraction_rows(generators) -> list[list[Fraction]]:
    return [[F(float(c)) for c in g.components] for g in generators]


def find_supporting_covector(cone: Cone, decrease_direction: TangentVector | None = None) -> SupportReport:
    """A covector weakly nonpositive on every generator, if one exists.

    The covectors of sup-norm at most one that are nonpositive on every
    generator form a polytope that contains zero; a supporting covector
    exists exactly when it holds another point, that is when its
    lexicographic maximum or, failing that, its minimum is nonzero.  That
    extreme point, scaled to sup-norm one, is reported, which fixes ties
    deterministically.  With `decrease_direction` given the pairing with
    it is maximized first, pinned at its optimum and reported as the
    separating margin (the LP optimum, 0.0 when only the zero covector
    supports).
    """
    m = cone.dim
    gens = _fraction_rows(cone.generators)

    def lex_extreme(minimize: bool, extra):
        lam = []
        for j in range(m):
            value = _lambda_lp(gens, m, [F(-1 if minimize else 1)] + [F(0)] * (m - j - 1), extra, lam)
            lam.append(-value if minimize else value)
        return lam

    margin = None
    extra = []
    if decrease_direction is not None:
        d = [F(float(c)) for c in decrease_direction.components]
        margin_frac = _lambda_lp(gens, m, d)
        margin = float(margin_frac)
        # pin <d, lambda> at its optimum; the polytope contains 0, so the
        # optimum is never negative, and at optimum zero the pin restricts
        # the search to covectors that do not lose against the direction
        extra = [([-c for c in d], -margin_frac), (list(d), margin_frac)]

    lam = lex_extreme(False, extra)
    if all(v == 0 for v in lam):
        lam = lex_extreme(True, extra)
    lam_f = np.asarray([float(v) for v in lam])
    norm = float(np.max(np.abs(lam_f)))
    if norm == 0.0:
        # only the zero covector achieves the optimum: no sup-norm-one
        # supporting covector exists (or realizes the separating margin)
        return SupportReport(None, None, margin, False)
    lam_f = lam_f / norm
    pairings = [float(np.dot(lam_f, g.components)) for g in cone.generators]
    # the margin, when given, is an optimum over a polytope containing 0: never negative
    return SupportReport(Covector(cone.base, lam_f), max(pairings, default=0.0), margin, True)


def is_supporting(lam: Covector, cone: Cone) -> SupportCheck:
    """Verification direction: does ker(lam) support the cone at 0?

    Zero covectors are rejected outright (the nontriviality condition of
    the necessary-condition set).
    """
    if lam.base.dim != cone.dim:
        raise ConeError("covector dimension does not match the cone")
    if lam.norm == 0.0:
        return SupportCheck(False, None, "zero covector rejected")
    if not cone.generators:
        return SupportCheck(True, 0.0, None)
    pairings = [float(np.dot(lam.components, g.components)) for g in cone.generators]
    tol = SUPPORT_REL_TOL * max(g.norm for g in cone.generators)
    mp = max(pairings)
    return SupportCheck(mp <= tol, mp, None)

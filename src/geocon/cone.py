"""Finite-generator approximations of the perturbation cone and their
supporting-covector queries.

A cone is a deduplicated list of tangent vectors at one base point; support
queries over the generators equal support queries over their closed convex
conic hull, which is all the necessary-condition audit consumes.  The
linear programs are tiny and every one goes through `solve_lp_max`: a dense
two-phase float64 simplex (numpy, no external solver) finds a basis, and
exact rational arithmetic certifies it optimal with one small square solve
for the primal point and one for the dual multipliers.  When the
certificate fails (near-degenerate data, a basis the float pass could not
finish), the exact two-phase simplex over Fractions (Bland's rule) solves
the program from scratch and a DEBUG line on the ``geocon.cone`` logger
says why.  Either way answers are exact for the given floating-point
generators, and ties break to the lexicographically maximal covector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import Covector, Point, TangentVector
from .variations import sample_perturbation_set

log = logging.getLogger(__name__)

SUPPORT_REL_TOL = 1e-9
PARALLEL_COS_TOL = 1e-12


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
            if not np.allclose(g.base.coords, self.base.coords, atol=1e-9):
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


def _dedupe(vectors, provenance):
    kept_v, kept_p = [], []
    for v, p in zip(vectors, provenance):
        comp = v.components
        nv = float(np.linalg.norm(comp))
        if nv == 0.0:
            continue
        duplicate = False
        for u in kept_v:
            nu = float(np.linalg.norm(u.components))
            cos = float(np.dot(u.components, comp) / (nu * nv))
            if cos >= 1.0 - PARALLEL_COS_TOL:
                duplicate = True
                break
        if not duplicate:
            kept_v.append(v)
            kept_p.append(p)
    return kept_v, kept_p


def assemble_cone(
    system,
    reference,
    t: float,
    sample_times: Sequence[float],
    per_time_budget: int = 16,
    step: float = 1e-3,
    **sampling_options,
) -> Cone:
    """Sampled perturbation vectors from each time, transported to gamma(t).

    Sample times must lie in (a, t] and avoid control switch times; the
    vectors sampled at one time ride the linearized reference flow to the
    cone's base point in one integration, then parallel duplicates are
    merged.
    """
    a, b = reference.interval
    if not (a < t <= b):
        raise ConeError(f"cone time {t} must lie in ({a}, {b}]")
    switches = set(reference.schedule.interior_breakpoints(reference.interval))
    for t0 in sample_times:
        if not (a < t0 <= t):
            raise ConeError(f"sample time {t0} outside ({a}, {t}]")
        if any(abs(t0 - s) <= 1e-12 for s in switches):
            raise ConeError(f"sample time {t0} sits on a control switch")

    from .ocp import transport_vector  # local import keeps the module graph acyclic

    base = reference.point_at(t)
    vectors, provenance = [], []
    for t0 in sorted(sample_times):
        sampled = sample_perturbation_set(
            system, reference, t0, budget=per_time_budget, **sampling_options
        )
        moved = [pv.vector for pv in sampled]
        if t0 != t:
            moved = transport_vector(system, reference, t0, t, moved, step=step)
        for pv, w in zip(sampled, moved):
            if float(np.linalg.norm(w.components)) == 0.0:
                continue
            vectors.append(TangentVector(base, w.components.copy()))
            provenance.append(GeneratorProvenance(t0, pv.order, pv.recipe[0]))
    vs, ps = _dedupe(vectors, provenance)
    return Cone(base, t, tuple(vs), tuple(ps))


# ---------------------------------------------------------------------------
# Support LPs: a float64 two-phase simplex finds a basis, exact rationals
# certify it (the verify step of Applegate, Cook, Dash & Espinoza, "Exact
# solutions to linear programming problems", Oper. Res. Lett. 35, 2007), and
# the exact two-phase simplex (maximization, Bland's rule) over Fractions
# runs only when the certificate fails.
# ---------------------------------------------------------------------------

F = Fraction

# float-pass tolerances; they only steer the search for a basis, never the
# answer, which the exact certificate (or the exact simplex) decides
_FLOAT_TOL = 1e-9
_FLOAT_PIVOT_TOL = 1e-11


def _pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            factor = T[i][col]
            T[i] = [a - factor * b for a, b in zip(T[i], T[row])]
    basis[row] = col


def _run_simplex(T, basis, obj, allowed):
    """Bland's rule: first improving column, smallest basis index on ties."""
    while True:
        enter = -1
        for j in allowed:
            rj = obj[j] - sum(obj[basis[i]] * T[i][j] for i in range(len(T)))
            if rj > 0:
                enter = j
                break
        if enter < 0:
            return
        leave, best = -1, None
        for i in range(len(T)):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise ConeError("unbounded linear program (missing box constraints?)")
        _pivot(T, basis, leave, enter)


def _solve_exact(c, A, b):
    """max c.x subject to A x <= b, x >= 0 by the exact two-phase simplex."""
    m, n = len(A), len(c)
    art_of_row = {}
    n_art = 0
    for i in range(m):
        if b[i] < 0:
            art_of_row[i] = n_art
            n_art += 1
    total = n + m + n_art
    T = []
    basis = []
    for i in range(m):
        row = [F(v) for v in A[i]] + [F(0)] * (m + n_art)
        row.append(F(b[i]))
        row[n + i] = F(1)
        if i in art_of_row:
            row = [-v for v in row[:-1]] + [-row[-1]]
            row[n + m + art_of_row[i]] = F(1)
            basis.append(n + m + art_of_row[i])
        else:
            basis.append(n + i)
        T.append(row)

    if n_art:
        obj1 = [F(0)] * total
        for j in range(n + m, total):
            obj1[j] = F(-1)
        _run_simplex(T, basis, obj1, range(total))
        value1 = sum(obj1[basis[i]] * T[i][-1] for i in range(m))
        if value1 < 0:
            return False, None, None
        for i in range(m):
            if basis[i] >= n + m:  # drive degenerate artificials out when possible
                for j in range(n + m):
                    if T[i][j] != 0:
                        _pivot(T, basis, i, j)
                        break

    obj2 = [F(0)] * total
    for j in range(n):
        obj2[j] = F(c[j])
    _run_simplex(T, basis, obj2, range(n + m))
    x = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    value = sum(obj2[basis[i]] * T[i][-1] for i in range(m))
    return True, x, value


class _NoCertificate(Exception):
    """The float pass gave no basis, or its basis failed the exact proof."""


def _float_pivot(T, basis, row, col):
    prow = T[row] / T[row, col]
    T -= np.outer(T[:, col], prow)
    T[row] = prow
    basis[row] = col


def _float_simplex(T, basis, obj, n_cols, limit):
    """Dense float64 simplex on tableau T (rows = constraints, last column
    the right-hand side) over columns < n_cols, in place, to optimality.
    Bland's rule, as in `_run_simplex`: the first improving column enters,
    the smallest ratio leaves, ties to the smallest basic index."""
    for _ in range(limit):
        reduced = obj[:n_cols] - obj[basis] @ T[:, :n_cols]
        improving = np.flatnonzero(reduced > _FLOAT_TOL)
        if improving.size == 0:
            return
        enter = int(improving[0])
        col = T[:, enter]
        rows = np.flatnonzero(col > _FLOAT_PIVOT_TOL)
        if rows.size == 0:
            raise _NoCertificate("unbounded in float64")
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12 * (1.0 + best)]
        leave = int(ties[np.argmin(basis[ties])])
        _float_pivot(T, basis, leave, enter)
    raise _NoCertificate("float64 iteration cap")


def _float_basis(c, A, b) -> list[int]:
    """Final basis of the float64 two-phase simplex on the standard form
    `_solve_exact` builds (slacks, then artificials for b < 0): the basic
    column of each row."""
    m, n = len(A), len(c)
    negative = [i for i in range(m) if b[i] < 0]
    total = n + m + len(negative)
    T = np.zeros((m, total + 1))
    T[:, :n] = np.asarray(A, dtype=float).reshape(m, n)
    T[:, n : n + m] = np.eye(m)
    T[:, -1] = [float(v) for v in b]
    basis = np.arange(n, n + m)
    limit = 50 * (m + total + 1)
    if negative:
        arts = np.arange(n + m, total)
        T[negative] *= -1.0
        T[negative, arts] = 1.0
        basis[negative] = arts
        obj1 = np.zeros(total)
        obj1[n + m :] = -1.0
        _float_simplex(T, basis, obj1, total, limit)
        if obj1[basis] @ T[:, -1] < -_FLOAT_TOL * (1.0 + float(np.max(np.abs(T[:, -1])))):
            raise _NoCertificate("infeasible in float64")
        for i in np.flatnonzero(basis >= n + m):
            nonzero = np.flatnonzero(np.abs(T[i, : n + m]) > _FLOAT_PIVOT_TOL)
            if nonzero.size == 0:
                raise _NoCertificate("artificial left in the basis")
            _float_pivot(T, basis, i, int(nonzero[0]))
    obj2 = np.zeros(total)
    obj2[:n] = [float(v) for v in c]
    _float_simplex(T, basis, obj2, n + m, limit)
    return [int(j) for j in basis]


def _solve_square(M, rhs):
    """x with M x = rhs by exact Gauss-Jordan elimination."""
    k = len(M)
    T = [list(row) + [v] for row, v in zip(M, rhs)]
    owner = [-1] * k
    for col in range(k):
        row = next((i for i in range(k) if owner[i] < 0 and T[i][col] != 0), None)
        if row is None:
            raise _NoCertificate("singular basis matrix")
        _pivot(T, owner, row, col)
    x = [F(0)] * k
    for i, col in enumerate(owner):
        x[col] = T[i][-1]
    return x


def _certify(c, A, b, basis):
    """Exact optimality proof for a basis of max c.x, A x <= b, x >= 0.

    S are the basic structural columns and L the rows whose slack is
    nonbasic.  The basis is optimal when x_S solving A[L,S] x_S = b[L] is
    primal feasible (x_S >= 0 and every other row's slack >= 0) and y
    solving A[L,S]^T y = c_S is dual feasible (y >= 0 and every nonbasic
    structural column has reduced cost c_j - y.A[L,j] <= 0).  Returns the
    optimal vertex x and its value.
    """
    m, n = len(A), len(c)
    S = sorted(j for j in basis if j < n)
    basic_slack = {j - n for j in basis if n <= j < n + m}
    L = [i for i in range(m) if i not in basic_slack]
    if len(S) != len(L):
        raise _NoCertificate(f"{len(S)} basic columns for {len(L)} tight rows")
    rows = [[F(v) for v in A[i]] for i in range(m)]
    M = [[rows[i][j] for j in S] for i in L]
    x_S = _solve_square(M, [F(b[i]) for i in L])
    if any(v < 0 for v in x_S):
        raise _NoCertificate("negative basic variable")
    for i in sorted(basic_slack):
        lhs = sum((rows[i][j] * v for j, v in zip(S, x_S) if rows[i][j]), F(0))
        if lhs > F(b[i]):
            raise _NoCertificate(f"row {i} violated")
    y = _solve_square([list(col) for col in zip(*M)], [F(c[j]) for j in S])
    if any(v < 0 for v in y):
        raise _NoCertificate("negative dual multiplier")
    for j in sorted(set(range(n)) - set(S)):
        priced = sum((yl * rows[i][j] for yl, i in zip(y, L) if yl and rows[i][j]), F(0))
        if F(c[j]) > priced:
            raise _NoCertificate(f"column {j} has positive reduced cost")
    x = [F(0)] * n
    for j, v in zip(S, x_S):
        x[j] = v
    return x, sum((F(c[j]) * v for j, v in zip(S, x_S)), F(0))


def solve_lp_max(c: Sequence[Fraction], A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]):
    """max c.x subject to A x <= b, x >= 0, exactly.

    Returns (feasible, x, value) with Fraction entries.  A float64 simplex
    proposes the optimal basis and `_certify` proves it in exact
    rationals; when no basis comes out or the proof fails, the exact
    simplex decides.  The optimal value is unique, so it is the same
    Fraction either way; x is an exact optimal vertex.
    """
    try:
        x, value = _certify(c, A, b, _float_basis(c, A, b))
        return True, x, value
    except _NoCertificate as exc:
        log.debug(
            "LP with %d rows x %d columns: exact certificate failed (%s); running the exact simplex",
            len(A),
            len(c),
            exc,
        )
    return _solve_exact(c, A, b)


def _lambda_lp(gen_rows, m, objective, extra_rows=()):
    """max objective . lambda over the box [-1, 1]^m cut by the generator
    half-spaces and optional extra rows (coeffs . lambda <= rhs).

    Substitutes y = lambda + 1 to reach standard form; exact throughout.
    """
    A, b = [], []
    for g in gen_rows:
        A.append(list(g))
        b.append(sum(g))
    for j in range(m):
        row = [F(0)] * m
        row[j] = F(1)
        A.append(row)
        b.append(F(2))
    for coeffs, rhs in extra_rows:
        A.append(list(coeffs))
        b.append(F(rhs) + sum(coeffs))
    feasible, y, value = solve_lp_max(list(objective), A, b)
    if not feasible:
        return None, None
    lam = [v - 1 for v in y]
    return value - sum(objective), lam


def _fraction_rows(generators) -> list[list[Fraction]]:
    return [[F(float(c)) for c in g.components] for g in generators]


def find_supporting_covector(cone: Cone, decrease_direction: TangentVector | None = None) -> SupportReport:
    """A covector weakly nonpositive on every generator, if one exists.

    Feasibility means a supporting covector of sup-norm one exists; the
    reported one is the lexicographic maximum of the feasible box (falling
    back to the lexicographic minimum when the maximum degenerates to zero),
    which fixes ties deterministically.  With `decrease_direction` given the
    pairing with it is maximized first and reported as the separating
    margin.
    """
    m = cone.dim
    gens = _fraction_rows(cone.generators)

    def e(j, sign=1):
        out = [F(0)] * m
        out[j] = F(sign)
        return out

    feasible = False
    for j in range(m):
        for sign in (1, -1):
            value, _ = _lambda_lp(gens, m, e(j, sign))
            if value is not None and value > 0:
                feasible = True
                break
        if feasible:
            break
    if not feasible:
        return SupportReport(None, None, None, False)

    def lex_extreme(minimize: bool, extra):
        fixes = list(extra)
        lam = []
        for j in range(m):
            obj = e(j, -1 if minimize else 1)
            value, _ = _lambda_lp(gens, m, obj, fixes)
            coord = -value if minimize else value
            lam.append(coord)
            fixes.append((e(j, 1), coord))
            fixes.append((e(j, -1), -coord))
        return lam

    margin = None
    extra = []
    if decrease_direction is not None:
        d = [F(float(c)) for c in decrease_direction.components]
        margin_frac, _ = _lambda_lp(gens, m, d)
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
        # supporting covector realizes the separating margin
        return SupportReport(None, None, margin, False)
    lam_f = lam_f / norm
    cov = Covector(cone.base, lam_f)
    pairings = [float(np.dot(lam_f, g.components)) for g in cone.generators]
    max_pairing = max(pairings) if pairings else 0.0
    report_feasible = True if margin is None else margin >= 0.0
    return SupportReport(cov, max_pairing, margin, report_feasible)


def cone_contains(cone: Cone, components, tol: float | None = None) -> bool:
    """Membership of a vector in the closed conic hull of the generators.

    Solves min-residual nonnegative combination as an exact LP and accepts
    when the sup-norm residual stays within `tol` (default 1e-9 relative
    to the vector's magnitude).
    """
    x = np.asarray(components, dtype=float)
    if len(x) != cone.dim:
        raise ConeError("vector dimension does not match the cone")
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.linalg.norm(x)))
    n = len(cone.generators)
    gens = _fraction_rows(cone.generators)
    xf = [F(float(v)) for v in x]
    # variables: combination weights c_1..c_n >= 0 and the residual bound r
    m = cone.dim
    A, b = [], []
    for j in range(m):
        row_pos = [g[j] for g in gens] + [F(-1)]
        A.append(row_pos)
        b.append(xf[j])
        row_neg = [-g[j] for g in gens] + [F(-1)]
        A.append(row_neg)
        b.append(-xf[j])
    c_obj = [F(0)] * n + [F(-1)]
    feasible, sol, value = solve_lp_max(c_obj, A, b)
    if not feasible:
        return False
    residual = -value
    return float(residual) <= tol


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

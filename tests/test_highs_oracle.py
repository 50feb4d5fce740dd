"""Support decisions against scipy's HiGHS, an LP solver outside geocon.

P = {lam : G lam <= 0, |lam|_inf <= 1} holds the covectors that support the
cone of the rows of G, scaled into the unit box.  A supporting covector
exists exactly when P holds a point other than 0, that is when one of the 2m
LPs max +-lam_i over P has a positive optimum.  HiGHS solves them in floating
point; `find_supporting_covector` decides with its exact simplex on the same
float data, so the two must agree on integer generators.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from geocon.cone import Cone, GeneratorProvenance, find_supporting_covector
from geocon.fields import TangentVector, as_point

TOL = 1e-9  # a HiGHS optimum above this is a nonzero point of P


def integer_cone(rng, m, kind):
    """Generators with small integer entries: arbitrary, positively spanning
    (a basis, minus its sum and a few more), or with near-antiparallel pairs
    (g and -s g plus a unit step)."""
    if kind == "spanning":
        basis = rng.integers(-3, 4, size=(m, m))
        while abs(np.linalg.det(basis)) < 0.5:
            basis = rng.integers(-3, 4, size=(m, m))
        rows = np.vstack([basis, -basis.sum(axis=0), rng.integers(-3, 4, size=(rng.integers(0, 3), m))])
    else:
        rows = rng.integers(-3, 4, size=(rng.integers(1, 2 * m + 2), m))
        if kind == "antiparallel":
            steps = np.eye(m, dtype=int)[rng.integers(0, m, size=len(rows))]
            rows = np.vstack([rows, -rng.integers(20, 60) * rows + steps])
    return [row for row in rows if np.any(row)]


def highs_optima(rows, m):
    """max lam_i and max -lam_i over P for each i, by HiGHS."""
    optima = []
    for c in np.vstack([np.eye(m), -np.eye(m)]):
        done = linprog(-c, A_ub=np.asarray(rows, dtype=float), b_ub=np.zeros(len(rows)), bounds=[(-1, 1)] * m,
                       method="highs")
        assert done.status == 0, done.message
        optima.append(-done.fun)
    return optima


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(("arbitrary", "spanning", "antiparallel")))
def test_support_decision_agrees_with_highs(seed, m, kind):
    rows = integer_cone(np.random.default_rng(seed), m, kind)
    if not rows:
        return
    base = as_point(np.zeros(m))
    gens = tuple(TangentVector(base, np.asarray(row, dtype=float)) for row in rows)
    cone = Cone(base, 1.0, gens, tuple(GeneratorProvenance(0.0, 1, "integer") for _ in rows))
    optima = highs_optima(rows, m)
    exact_none = find_supporting_covector(cone).covector is None
    singular = np.linalg.svd(np.asarray(rows, dtype=float), compute_uv=False)
    assert exact_none == (max(optima) <= TOL), (
        f"exact: {'no' if exact_none else 'a'} covector; HiGHS optima {optima}; "
        f"generator singular values {singular} (rank {np.sum(singular > singular[0] * 1e-12)} of {m})"
    )

"""Brackets and Jacobians against sympy, an oracle outside geocon.

A tree is rendered by `expr.render`, read by sympy with exact rationals
(``^`` becomes ``**``), and differentiated there.  Polynomial coefficients
are compared relative to the largest one: the smart constructors fold float
constants and round them, so the expressions themselves need not be equal.
"""

import numpy as np
import pytest
import sympy

from geocon.expr import jacobian, render
from geocon.fields import lie_bracket

from tests.conftest import random_control_affine

TOL = 1e-12


def _sympy(e, symbols):
    return sympy.sympify(render(e).replace("^", "**"), locals=symbols, rational=True)


def _field(vf, symbols):
    return [_sympy(c, symbols) for c in vf.components]


def _bracket(a, b, xs):
    """[a, b]^i = sum_j (a^j db^i/dx^j - b^j da^i/dx^j)."""
    return [sum(a[j] * sympy.diff(b[i], x) - b[j] * sympy.diff(a[i], x) for j, x in enumerate(xs))
            for i in range(len(xs))]


def _gap(ours, theirs, xs):
    """The largest coefficient difference of two polynomials over the
    largest coefficient of `theirs` (absolute when `theirs` is zero)."""
    p = sympy.Poly(sympy.expand(ours - theirs), *xs).coeffs()
    q = sympy.Poly(sympy.expand(theirs), *xs).coeffs()
    scale = max([abs(float(c)) for c in q] + [1.0])
    return max([abs(float(c)) for c in p] + [0.0]) / scale


@pytest.mark.parametrize("m, seed", [(2, 0), (3, 1), (4, 2)])
def test_brackets_and_jacobians_match_sympy(m, seed):
    system = random_control_affine(np.random.default_rng(seed), m=m, k=2)
    f0, (g1, g2) = system.drift, system.inputs
    symbols = {name: sympy.Symbol(name) for name in system.variables}
    xs = [symbols[name] for name in system.variables]
    f0_s, g1_s, g2_s = (_field(vf, symbols) for vf in (f0, g1, g2))

    rows = jacobian(f0.components, system.variables)
    for row, c in zip(rows, f0_s):
        assert max(_gap(_sympy(d, symbols), sympy.diff(c, x), xs) for d, x in zip(row, xs)) <= TOL

    inner = lie_bracket(f0, g2)
    inner_s = _bracket(f0_s, g2_s, xs)
    outer = lie_bracket(g1, inner)
    outer_s = _bracket(g1_s, inner_s, xs)
    assert any(c != 0 for c in inner_s), "a zero bracket would check nothing"
    for ours, theirs in ((inner, inner_s), (outer, outer_s)):
        assert max(_gap(a, b, xs) for a, b in zip(_field(ours, symbols), theirs)) <= TOL

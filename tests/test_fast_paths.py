"""Differential tests: each exact scalar fast path against the numpy
expression it replaced, which is kept here as the oracle."""

import math
import numbers
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geocon import pca
from geocon.cone import Cone, ConeError, GeneratorProvenance
from geocon.expr import Dual
from geocon.fields import Point, TangentVector, lie_bracket, linearized_rhs, rk4_path
from geocon.ocp import extend_system, hamiltonian, hamiltonian_control_gradient
from geocon.variations import PARALLEL_COS_TOL, keep_new_direction, zero_threshold
from tests.conftest import random_control_affine


def parallel(a, b):
    """The pairwise duplicate test `keep_new_direction` replaced."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return False
    return float(np.dot(a, b) / (na * nb)) >= 1.0 - PARALLEL_COS_TOL


def draw_vectors(rng, m, kinds):
    """New, zero, repeated, rescaled, antiparallel and near-threshold vectors."""
    drawn = []
    for kind in kinds:
        if kind == "zero":
            v = np.zeros(m) * rng.choice([1.0, -1.0])  # -0.0 entries too
        elif kind == "new" or not drawn:
            v = rng.normal(size=m) * 10.0 ** int(rng.integers(-3, 4))
        else:
            w = drawn[int(rng.integers(len(drawn)))]
            nw = np.linalg.norm(w)
            if kind == "repeat":
                v = w.copy()
            elif kind == "scaled":
                v = w * rng.uniform(0.1, 10.0)
            elif kind == "antiparallel":
                v = -w
            elif m == 1 or nw == 0.0:
                v = w * 3.0
            else:
                # a rotation by theta with 1 - cos(theta) around PARALLEL_COS_TOL
                e = rng.normal(size=m)
                e -= np.dot(e, w) / nw**2 * w
                theta = np.sqrt(2.0 * PARALLEL_COS_TOL * rng.uniform(0.5, 1.5))
                v = nw * (np.cos(theta) * w / nw + np.sin(theta) * e / np.linalg.norm(e))
        drawn.append(v)
    return drawn


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.lists(st.sampled_from(["new", "zero", "repeat", "scaled", "antiparallel", "near"]), max_size=40),
)
def test_keep_new_direction_keeps_what_the_pairwise_loop_kept(seed, m, kinds):
    drawn = draw_vectors(np.random.default_rng(seed), m, kinds)
    kept = []
    got = [i for i, v in enumerate(drawn) if keep_new_direction(kept, v)]
    # assemble_cone's old loop: skip a zero vector or one parallel to a kept one
    oracle = []
    for i, w in enumerate(drawn):
        if not (float(np.linalg.norm(w)) == 0.0 or any(parallel(drawn[j], w) for j in oracle)):
            oracle.append(i)
    assert got == oracle
    assert all(v is drawn[i] and n == np.linalg.norm(v) for (v, n), i in zip(kept, got))
    if "zero" not in kinds:
        # sample_perturbation_set's old loop, which kept a zero vector (none arrives)
        pushed = []
        for i, w in enumerate(drawn):
            if not any(parallel(drawn[j], w) for j in pushed):
                pushed.append(i)
        assert got == pushed


def hamiltonian_as_before(lam, x, u, system):
    lam, xv = np.asarray(lam, dtype=float), np.asarray(x, dtype=float)
    f = linearized_rhs(system, controls=[float(v) for v in u])(0.0, list(xv))
    return float(sum(li * fi for li, fi in zip(lam, f)))


def control_gradient_as_before(lam, x, u, system):
    lam, xv = np.asarray(lam, dtype=float), np.asarray(x, dtype=float)
    if system is system.base:
        return np.asarray([float(np.dot(lam, np.asarray(vf(list(xv)), dtype=float))) for vf in system.inputs])
    p0, p, xbase = lam[0], lam[1:], xv[1:]
    grads = system.cost_control_gradient(xbase, [float(v) for v in u])
    return np.asarray([
        float(p0 * grads[c] + np.dot(p, np.asarray(vf(list(xbase)), dtype=float)))
        for c, vf in enumerate(system.base.inputs)
    ])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 3), st.booleans())
def test_hamiltonian_helpers_match_the_float64_path(seed, m, k, extended):
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m, k=k)
    if extended:
        system = extend_system(system, f"0.5*u1^2 + x1*u{k} - x{m}^2")
    n = len(system.variables)
    u = rng.uniform(-2.0, 2.0, size=k).tolist()
    for _ in range(3):
        lam, x = rng.normal(size=n), rng.normal(size=n)
        h = hamiltonian_as_before(lam, x, u, system)
        g = control_gradient_as_before(lam, x, u, system).tobytes()
        for lam_in, x_in in [(lam, x), (lam.tolist(), x.tolist()), (list(lam), list(x))]:
            assert np.float64(hamiltonian(lam_in, x_in, u, system)).tobytes() == np.float64(h).tobytes()
            assert hamiltonian_control_gradient(lam_in, x_in, u, system).tobytes() == g


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_ladder_point_values_match_the_float64_path(seed, m):
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng, m=m, k=2)
    fields = [system.drift, *system.inputs, lie_bracket(system.drift, system.inputs[0]),
              lie_bracket(system.inputs[0], system.inputs[1])]
    for _ in range(3):
        x = rng.normal(size=m)
        for vf in fields:
            assert pca._value(vf, x).tobytes() == np.asarray(vf(list(x)), dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=7))
@example([1.35e154]).via("overflowed the unscaled norm")
@example([1e154, 1e154]).via("overflowed the unscaled norm")
@example([1e200]).via("overflowed the unscaled norm")
def test_zero_threshold_is_the_same_for_float_and_object_arrays(values):
    x = np.asarray(values, dtype=float)
    duals = np.empty(len(values), dtype=object)
    duals[:] = [Dual(Dual(v, 1.0), Dual(0.5, 0.0)) for v in values]
    threshold = zero_threshold(x)  # a RuntimeWarning fails the suite
    for arg in [Point(x), list(values), x.astype(object), duals, Point(duals)]:
        assert np.float64(zero_threshold(arg)).tobytes() == np.float64(threshold).tobytes()
    big = float(np.max(np.abs(x)))  # the norm scaled by the largest entry does not overflow early
    norm = big * float(np.linalg.norm(x / big)) if big > 0.0 else 0.0
    if math.isfinite(norm):
        assert math.isfinite(threshold)
        assert threshold == pytest.approx(1e-6 * (1.0 + norm), rel=1e-14)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 5e-324, 1.7976931348623157e308]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.lists(st.sampled_from(SPECIAL), min_size=n, max_size=n)] * 2)))
def test_array_equal_is_the_exact_allclose(pair):
    a, b = (np.asarray(v, dtype=float) for v in pair)
    with np.errstate(over="ignore"):  # the oracle subtracts, and max - (-max) overflows
        oracle = bool(np.allclose(a, b, rtol=0.0, atol=0.0))
    assert bool(np.array_equal(a, b)) == oracle


@pytest.mark.parametrize(
    "duration",
    [0, 0.0, -0.0, np.float64(0.0), np.float64(-0.0), np.int64(0), Fraction(0), False,
     1e-300, np.float64(0.25), Dual(0.0, 1.0), Dual(Dual(0.0, 1.0), 0.0)],
)
def test_zero_duration_test_needs_no_type_check(duration):
    # rk4_path's identity branch: `duration == 0.0` alone, as the old
    # `isinstance(duration, numbers.Real) and duration == 0.0` decided it
    identity = isinstance(duration, numbers.Real) and duration == 0.0
    assert (duration == 0.0) == identity
    seen = []
    x = rk4_path(lambda t, x: [1.0, x[0]], [0.5, 2.0], 0.0, duration, 0.1, lambda t, x: seen.append(t))
    if identity:
        assert x == [0.5, 2.0] and seen == [0.0]
    else:
        assert len(seen) >= 1 and isinstance(x[0], Dual) == isinstance(duration, Dual)


def test_cone_checks_a_generator_base_only_when_it_is_another_point():
    base = Point(np.array([0.0, 1.0]))
    ps = (GeneratorProvenance(1.0, 1, "t"),)
    for other in [base, Point(np.array([0.0, 1.0])), Point(np.array([1e-10, 1.0]))]:
        Cone(base, 1.0, (TangentVector(other, np.array([1.0, 0.0])),), ps)
    with pytest.raises(ConeError, match="base point"):
        Cone(base, 1.0, (TangentVector(Point(np.array([1e-6, 1.0])), np.array([1.0, 0.0])),), ps)

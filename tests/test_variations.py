import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geocon.expr import Dual, compile_flow, const, jet_seed, mul, var
from geocon.fields import as_point, composite_flow, eval_vector_field, lie_bracket, negate_field, vector_field
from geocon.ocp import build_control_affine
from geocon.variations import (
    KAPPA,
    ConventionError,
    VariationError,
    JET_STEP,
    _jets,
    bracket_variation,
    estimate_jets,
    needle_variation,
    order_and_vector,
    residual_slope,
    resolve_bracket_ratio,
    sample_perturbation_set,
    variation_curve,
)

from tests.conftest import random_control_affine

XYZ = ("x1", "x2", "x3")
HEIS_X1 = vector_field(XYZ, ["1", "0", "-x2/2"])
HEIS_X2 = vector_field(XYZ, ["0", "1", "x1/2"])
HEIS_COMMUTATOR = ((HEIS_X1, -1.0), (negate_field(HEIS_X2), 1.0), (HEIS_X1, 1.0), (HEIS_X2, 1.0))


def test_variation_curve_at_zero_is_identity():
    x = as_point([0.3, -0.1, 0.7])
    out = variation_curve(((HEIS_X1, -1.0), (HEIS_X2, 1.0)), x, 0.0)
    assert np.allclose(out.coords, x.coords, atol=0.0)


def test_needle_with_reference_control_cancels_exactly():
    # xi1 equals xi0, so the back-flow undoes the needle at every s
    sys = build_control_affine(("x",), ["0"], [["1"]], [(-2.0, 2.0)])
    xi0 = sys.slice_field((1.0,))
    out = variation_curve(((xi0, -1.0), (xi0, 1.0)), as_point([0.4]), 0.1)
    assert abs(out.coords[0] - 0.4) <= 1e-12


def test_heisenberg_commutator_curve_displacement():
    x = as_point([0.0, 0.0, 0.0])
    out = variation_curve(HEIS_COMMUTATOR, x, 0.1)
    assert abs(out.coords[2] - 0.01) <= 1e-6
    assert abs(out.coords[0]) <= 1e-6
    assert abs(out.coords[1]) <= 1e-6


def test_estimate_jets_polynomial_curves():
    jets = estimate_jets(lambda s: np.array([s * s / 2.0, 0.0 * s]), 2)
    assert np.allclose(jets[0], [0.0, 0.0], atol=1e-9)
    assert np.allclose(jets[1], [1.0, 0.0], atol=1e-7)

    jets = estimate_jets(lambda s: np.array([1.0 * s, s * s * s]), 1)
    assert np.allclose(jets[0], [1.0, 0.0], atol=1e-9)


def test_estimate_jets_heisenberg_commutator():
    x = as_point([0.0, 0.0, 0.0])

    def curve(s):
        return variation_curve(HEIS_COMMUTATOR, x, s, step=1e-2)

    jets = estimate_jets(curve, 2)
    assert np.linalg.norm(jets[0]) <= 1e-6
    assert np.allclose(jets[1], [0.0, 0.0, 2.0], atol=1e-4)


@pytest.mark.parametrize("l_max", [1, 2, 3, 4])
def test_estimate_jets_calls_a_flat_curves_residue_zero(l_max):
    # the order-1 finite difference of s^5 leaves a -1.6e-6 truncation residue
    jets = estimate_jets(lambda s: np.array([s**5]), l_max)
    assert [j.tolist() for j in jets] == [[0.0]] * l_max


def test_a_curve_that_rejects_dual_parameters_raises():
    with pytest.raises(TypeError):
        estimate_jets(lambda s: np.array([math.sin(s)]), 1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
    st.integers(1, 5),
    st.integers(1, 4),
)
def test_first_nonzero_jet_of_a_monomial_is_its_degree(c, k, l_max):
    def curve(s):
        return np.array([c * s**k])

    assert _jets(curve, l_max, as_point([0.0]))[1] == (k if k <= l_max else None)
    jets = estimate_jets(curve, l_max)
    assert all(j.tolist() == [0.0] for l, j in enumerate(jets, start=1) if l != k)


def test_order_and_vector_needle():
    sys = build_control_affine(("x",), ["0"], [["1"]], [(-3.0, 3.0)])
    xi0 = sys.slice_field((0.0,))
    xi1 = sys.slice_field((1.0,))
    pv = order_and_vector(((xi0, -2.0), (xi1, 2.0)), as_point([0.0]))
    assert pv.order == 1
    assert np.allclose(pv.vector.components, [2.0], atol=1e-9)


def test_order_and_vector_flat_curve_reports_infinity():
    # the commutator of two commuting constant fields returns to its start
    a, b = vector_field(("x", "y"), ["1", "0"]), vector_field(("x", "y"), ["0", "1"])
    legs = ((a, -1.0), (negate_field(b), 1.0), (a, 1.0), (b, 1.0))
    assert order_and_vector(legs, as_point([0.3, -0.2])) is None


def test_order_and_vector_commutator():
    pv = order_and_vector(HEIS_COMMUTATOR, as_point([0.0, 0.0, 0.0]), l_max=2)
    assert pv.order == 2
    direction = pv.vector.components / np.linalg.norm(pv.vector.components)
    assert np.allclose(direction, [0.0, 0.0, 1.0], atol=1e-9)


def _scalar_bits(v) -> tuple:
    """Every float carried by a nested Dual (or a float), as hex strings."""
    return _scalar_bits(v.re) + _scalar_bits(v.du) if isinstance(v, Dual) else (float(v).hex(),)


def _schedule_curve(xi0, seq, q1, q2, tau, x, s):
    """The retired expression schedule: compile (q1, q2, *tau) in s, then
    flow xi0 for q1, the fields of `seq` for tau, and xi0 for q2."""
    vals = compile_flow((q1, q2, *tau), ("s",))(None, 0, 0, 0.0, [s])
    return composite_flow([xi0, *seq, xi0], [vals[0], *vals[2:], vals[1]], x, JET_STEP)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 3.0),
    st.just(0.0) | st.floats(0.0, 0.2),
    st.integers(0, 4),
)
def test_template_curves_match_the_expression_schedules_bit_for_bit(seed, l1, s0, depth):
    # the needle's and the commutator's curves against their retired schedules,
    # (-l1 s, 0, (l1 s,)) and (-s, 0, (s, s, s)), at a float s (depth 0) or a
    # nested-dual s of depth 1..4
    rng = np.random.default_rng(seed)
    system = random_control_affine(rng)
    x = as_point(rng.uniform(-0.3, 0.3, size=system.m))
    s = jet_seed(s0, depth)
    u_ref, u1 = rng.uniform(-1.5, 1.5, size=(2, system.k))
    xi0, xi1 = system.slice_field(u_ref), system.slice_field(u1)
    zj = system.inputs[int(rng.integers(system.k))]
    sv = var("s")
    cases = (
        (needle_variation(system, u_ref, u1, l1, x),
         (xi0, [xi1], mul(const(-l1), sv), const(0.0), (mul(const(l1), sv),))),
        (bracket_variation(xi0, zj, x),
         (xi0, [negate_field(zj), xi0, zj], mul(const(-1.0), sv), const(0.0), (sv, sv, sv))),
    )
    for pv, schedule in cases:
        if pv is not None:
            new, old = pv.curve(s).coords, _schedule_curve(*schedule, x, s).coords
            assert [_scalar_bits(v) for v in new] == [_scalar_bits(v) for v in old]


def test_needle_variation_martinet(martinet):
    pv = needle_variation(martinet, (0.0, 1.0), (1.0, 1.0), 1.0, as_point([0.0, 0.0, 0.0]))
    assert pv.order == 1
    assert np.allclose(pv.vector.components, [1.0, 0.0, 0.0], atol=1e-9)


def test_needle_variation_degenerate(martinet):
    pv = needle_variation(martinet, (0.0, 1.0), (0.0, 1.0), 1.0, as_point([0.0, 0.0, 0.0]))
    assert pv is None


def test_needle_variation_scales_with_l1(martinet):
    x = as_point([0.0, 0.0, 0.0])
    pv1 = needle_variation(martinet, (0.0, 1.0), (1.0, 1.0), 1.0, x)
    pv3 = needle_variation(martinet, (0.0, 1.0), (1.0, 1.0), 3.0, x)
    assert np.allclose(pv3.vector.components, 3.0 * pv1.vector.components, atol=0.0)


def test_bracket_variation_commuting_fields_degenerate():
    dx = vector_field(("x", "y"), ["1", "0"])
    dy = vector_field(("x", "y"), ["0", "1"])
    assert bracket_variation(dx, dy, as_point([0.0, 0.0])) is None


def test_bracket_variation_heisenberg():
    pv = bracket_variation(HEIS_X1, HEIS_X2, as_point([0.0, 0.0, 0.0]))
    assert pv.order == 2
    assert np.allclose(pv.vector.components, [0.0, 0.0, KAPPA], atol=1e-6)


def test_bracket_variation_flat_connection_pair():
    Z = vector_field(("x", "v"), ["v", "0"])
    YV = vector_field(("x", "v"), ["0", "1"])
    pv = bracket_variation(Z, YV, as_point([0.2, -0.4]))
    assert np.allclose(pv.vector.components, [-KAPPA, 0.0], atol=1e-6)


def test_bracket_ratio_constant_across_pairs():
    rng = np.random.default_rng(3)
    from tests.conftest import random_polynomial_field

    ratios = []
    for _ in range(3):
        a = random_polynomial_field(rng, XYZ)
        b = random_polynomial_field(rng, XYZ)
        x = as_point(rng.uniform(-0.3, 0.3, size=3))
        br = eval_vector_field(lie_bracket(a, b), x).components
        if np.linalg.norm(br) < 1e-4:
            continue
        pv = bracket_variation(a, b, x)
        ratios.append(resolve_bracket_ratio(pv.vector.components, br))
    assert ratios, "no informative pairs drawn"
    for r in ratios:
        assert abs(r - KAPPA) <= 1e-6 * KAPPA


def test_sample_perturbation_set_martinet_origin(martinet, martinet_reference):
    pvs = sample_perturbation_set(martinet, martinet_reference, 0.5)
    # the degenerate brackets (2 x1 dz vanishes on the reference line) are omitted
    assert all(pv.order == 1 for pv in pvs)
    dirs = {tuple(np.sign(pv.vector.components).astype(int)) for pv in pvs}
    assert (1, 0, 0) in dirs and (-1, 0, 0) in dirs


def test_sample_perturbation_set_driftless_single_input_no_order2():
    sys = build_control_affine(("x", "y"), ["0", "0"], [["1", "x"]], [(-2.0, 2.0)])
    from geocon.ocp import integrate_trajectory, piecewise_schedule

    ref = integrate_trajectory(
        sys, [0.0, 0.0], piecewise_schedule([0.0], [[1.0]]), (0.0, 1.0), 1e-2
    )
    pvs = sample_perturbation_set(sys, ref, 0.5)
    assert all(pv.order == 1 for pv in pvs)


def test_sample_perturbation_set_budget(martinet, martinet_reference):
    pvs = sample_perturbation_set(martinet, martinet_reference, 0.5, budget=1)
    assert len(pvs) == 1


def test_residual_slopes_match_orders(martinet, martinet_reference):
    pvs = sample_perturbation_set(martinet, martinet_reference, 0.5, budget=6)
    assert pvs
    for pv in pvs:
        assert residual_slope(pv) >= pv.order + 0.5
    pv2 = bracket_variation(HEIS_X1, HEIS_X2, as_point([0.0, 0.0, 0.0]))
    assert residual_slope(pv2) >= 2.5


def test_convention_error_reports_both_sides(monkeypatch):
    import geocon.variations as V

    monkeypatch.setattr(V, "KAPPA", 3.0)  # wrong constant must be caught
    with pytest.raises(ConventionError):
        V.bracket_variation(HEIS_X1, HEIS_X2, as_point([0.0, 0.0, 0.0]))


def test_extended_system_sampling_carries_cost_components(martinet_extended):
    # extended needles use the general slice-difference form on the
    # cost-augmented chart; their first component is the cost difference
    from geocon.ocp import integrate_trajectory, piecewise_schedule

    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    ref = integrate_trajectory(
        martinet_extended, [0.0, 0.0, 0.0, 0.0], sched, (0.0, 1.0), 1e-2
    )
    pvs = sample_perturbation_set(martinet_extended, ref, 0.5, budget=12)
    assert pvs
    order1 = [pv for pv in pvs if pv.order == 1]
    assert order1
    # cost 0.5|u|^2 with u_ref = (0, 1): u1 = (0, 1.5) gives dF = 0.625
    found = False
    for pv in order1:
        v = pv.vector.components
        if np.allclose(v[1:], [0.0, 0.5, 0.0], atol=1e-9):
            assert abs(v[0] - (0.5 * 1.5**2 - 0.5)) <= 1e-9
            found = True
    assert found


def test_sampled_cone_lies_in_the_plane_dz_zero(martinet, martinet_reference):
    # the sampled cone lies in the degenerate plane: both covectors +-dz
    # support it, each pairing to zero with every sampled vector
    from geocon.cone import GeneratorProvenance, Cone, is_supporting
    from geocon.fields import Covector, TangentVector

    pvs = sample_perturbation_set(martinet, martinet_reference, 0.5, budget=12)
    base = pvs[0].base
    cone = Cone(
        base,
        0.5,
        tuple(TangentVector(base, pv.vector.components) for pv in pvs),
        tuple(GeneratorProvenance(0.5, pv.order, pv.recipe) for pv in pvs),
    )
    for sign in (1.0, -1.0):
        check = is_supporting(Covector(base, np.array([0.0, 0.0, sign])), cone)
        assert check.supported and check.max_pairing == 0.0


# Sampling takes no tuning knobs: tolerances, steps, the needle rate and the
# control grid are constants of the module, and a new parameter must be
# added here on purpose.
PARAMETERS = {
    "cone.assemble_cone": ["system", "reference", "t", "sample_times", "per_time_budget", "step"],
    "variations.sample_perturbation_set": ["system", "reference", "t0", "budget"],
    "variations.needle_variation": ["system", "u_ref", "u1", "l1", "x", "t0"],
    "variations.bracket_variation": ["xi0", "zj", "x", "t0", "descriptor"],
    "variations.order_and_vector": ["legs", "x", "t0", "l_max", "descriptor"],
    "variations.estimate_jets": ["curve", "l_max"],
    "variations._jets": ["curve", "l_max", "x"],
    "variations._fd_jets": ["curve", "l_max", "s0"],
    "mech.generator_families": ["system", "reference", "sample_time"],
}


@pytest.mark.parametrize("name", PARAMETERS)
def test_sampling_functions_take_exactly_their_pinned_parameters(name):
    module, function = name.split(".")
    fn = getattr(importlib.import_module(f"geocon.{module}"), function)
    assert list(inspect.signature(fn).parameters) == PARAMETERS[name]

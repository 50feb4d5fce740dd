"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and must not be loosened.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from geocon.cli import main
from geocon.fields import (
    as_point,
    composite_flow,
    eval_vector_field,
    lie_bracket,
    negate_field,
    vector_field,
)
from geocon.ocp import (
    build_control_affine,
    hamiltonian,
    integrate_biextremal,
    piecewise_schedule,
)
from geocon.variations import (
    KAPPA,
    bracket_variation,
    estimate_jets,
    needle_variation,
    residual_slope,
    sample_perturbation_set,
    variation_curve,
)

from tests.conftest import random_control_affine, random_polynomial_field
from tests.test_cone import brute_force_supports

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _report(number: int, passed: bool, text: str, started: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({time.monotonic() - started:.1f}s): {text}")
    assert passed, f"criterion {number}: {text}"


def test_criterion_1_needle_identity_suite():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        sys = random_control_affine(rng, m=int(rng.integers(2, 5)))
        x = as_point(rng.uniform(-0.3, 0.3, size=sys.m))
        u_ref = rng.uniform(-0.8, 0.8, size=sys.k)
        u1 = rng.uniform(-0.8, 0.8, size=sys.k)
        l1 = float(rng.choice([0.5, 1.0, 2.0]))
        closed = l1 * (
            np.asarray(eval_vector_field(sys.slice_field(u1), x).components)
            - np.asarray(eval_vector_field(sys.slice_field(u_ref), x).components)
        )
        if np.linalg.norm(closed) < 1e-6:
            continue
        pv = needle_variation(sys, u_ref, u1, l1, x)
        err = np.linalg.norm(pv.vector.components - closed) / max(
            1.0, np.linalg.norm(closed)
        )
        # independent re-estimate of the first jet from the raw curve
        jets = estimate_jets(pv.curve, 1)
        err = max(err, np.linalg.norm(jets[0] - closed) / max(1.0, np.linalg.norm(closed)))
        worst = max(worst, err)
    elapsed = time.monotonic() - started
    _report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"needle first jets match the closed form (worst rel err {worst:.2e}, {elapsed:.1f}s < 10s)",
        started,
    )


def test_criterion_2_bracket_variation_identity():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    chart = ("x1", "x2", "x3")
    ratios = []
    worst_cos = 1.0
    trials = 0
    while len(ratios) < 10 and trials < 40:
        trials += 1
        a = random_polynomial_field(rng, chart)
        b = random_polynomial_field(rng, chart)
        x = as_point(rng.uniform(-0.3, 0.3, size=3))
        br = np.asarray(eval_vector_field(lie_bracket(a, b), x).components)
        if np.linalg.norm(br) < 1e-2:
            continue
        legs = ((a, -1.0), (negate_field(b), 1.0), (a, 1.0), (b, 1.0))

        def curve(s, _legs=legs, _x=x):
            return variation_curve(_legs, _x, s, step=1e-2)

        j2 = estimate_jets(curve, 2)[1]
        cos = float(np.dot(j2, br) / (np.linalg.norm(j2) * np.linalg.norm(br)))
        worst_cos = min(worst_cos, cos)
        ratios.append(float(np.dot(j2, br) / np.dot(br, br)))
    spread = max(ratios) - min(ratios)
    kappa = float(np.mean(ratios))
    elapsed = time.monotonic() - started
    ok = (
        len(ratios) == 10
        and worst_cos >= 1.0 - 1e-6
        and spread <= 1e-6 * abs(kappa)
        and abs(kappa - KAPPA) <= 1e-6 * KAPPA
        and elapsed < 20.0
    )
    _report(
        2,
        ok,
        f"commutator jets parallel to brackets (min cos {worst_cos:.12f}), "
        f"single ratio kappa = {kappa:.9f} (spread {spread:.2e}, recorded {KAPPA})",
        started,
    )


def test_criterion_3_leading_order_asymptotics(martinet, martinet_reference, heisenberg, heisenberg_reference):
    started = time.monotonic()
    pvs = []
    pvs += sample_perturbation_set(martinet, martinet_reference, 0.5, budget=12)
    pvs += sample_perturbation_set(heisenberg, heisenberg_reference, 0.5, budget=12)
    x = as_point([0.5, 0.0, 0.0])
    pvs.append(bracket_variation(martinet.inputs[0], martinet.inputs[1], x))
    checked = {1: 0, 2: 0}
    worst = {1: math.inf, 2: math.inf}
    for pv in pvs:
        slope = residual_slope(pv)
        checked[pv.order] += 1
        worst[pv.order] = min(worst[pv.order], slope)
        assert slope >= pv.order + 0.5, f"slope {slope} too shallow for order {pv.order}"
    ok = checked[1] > 0 and checked[2] > 0
    _report(
        3,
        ok,
        f"residual slopes: {checked[1]} order-1 vectors (min slope {worst[1]:.2f}), "
        f"{checked[2]} order-2 vectors (min slope {worst[2]:.2f}), all >= order + 0.5",
        started,
    )


def test_criterion_4_ladder_derivative_identity():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        sys = random_control_affine(rng, m=3, k=1)
        u = (float(rng.uniform(-0.5, 0.5)),)
        sched = piecewise_schedule([0.0], [list(u)])
        x0 = rng.uniform(-0.2, 0.2, size=3)
        lam0 = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(lam0) < 1e-3:
            lam0[0] = 1.0
        bx = integrate_biextremal(sys, x0, lam0, sched, (0.0, 0.5), "reduced", 1e-3)
        Z = random_polynomial_field(rng, sys.variables)
        br = lie_bracket(sys.slice_field(u), Z)
        ts, xs, lams = bx.trajectory.ts, bx.trajectory.xs, bx.momenta
        g = np.array(
            [float(np.dot(lams[i], np.asarray(Z(list(xs[i]))))) for i in range(len(ts))]
        )
        h = ts[1] - ts[0]
        for i in range(2, len(ts) - 2, 83):
            dg = (-g[i + 2] + 8 * g[i + 1] - 8 * g[i - 1] + g[i - 2]) / (12 * h)
            lhs = float(np.dot(lams[i], np.asarray(br(list(xs[i])))))
            worst = max(worst, abs(dg - lhs) / max(1.0, abs(lhs)))
    _report(
        4,
        worst <= 1e-6,
        f"d/dt <lambda, Z> matches <lambda, [xi_u, Z]> on 20 triples (worst rel err {worst:.2e})",
        started,
    )


def test_criterion_5_martinet_end_to_end(tmp_path):
    started = time.monotonic()
    scenario = str(SCENARIOS / "martinet.json")

    pca_out = tmp_path / "pca.json"
    code = main(["pca", scenario, "--covector", "0,0,1", "--out", str(pca_out)])
    assert code == 0
    pca = json.loads(pca_out.read_text())["results"]
    ok = pca["stabilized_at"] == 1
    for basis in pca["annihilators"].values():
        ok = ok and len(basis) == 1 and np.allclose(basis[0], [0, 0, 1], atol=1e-9)
    ok = ok and pca["covector_transport"]["worst"] <= 1e-7

    audit_out = tmp_path / "audit.json"
    code = main(["audit", scenario, "--covector", "0,0,1", "--out", str(audit_out)])
    ok = ok and code == 0
    audit = json.loads(audit_out.read_text())["results"]
    ok = ok and audit["passed"]
    ok = ok and len(audit["conditions"]) == 5
    h0 = next(c for c in audit["conditions"] if c["id"] == "H-constant")
    ok = ok and abs(h0["detail"]["H_initial"]) <= 1e-9 and h0["detail"]["drift"] <= 1e-9

    ex_out = tmp_path / "extremal.json"
    code = main(["extremal", scenario, "--covector", "0,0,0,1", "--out", str(ex_out)])
    ok = ok and code == 0
    ex = json.loads(ex_out.read_text())["results"]
    ok = ok and ex["classification"]["kind"] == "abnormal"
    ok = ok and "inconclusive" in ex["classification"]["label"]
    ok = ok and ex["normal_lift_search"]["found"] is None
    ok = ok and ex["normal_lift_search"]["candidates"] == 1000

    elapsed = time.monotonic() - started
    _report(
        5,
        ok and elapsed < 30.0,
        "Martinet end-to-end: ladder stabilizes at 1 with annihilator dz, transported "
        f"pairings <= 1e-7, audit all five conditions with |H| <= 1e-9, normal-lift grid "
        f"(1000 candidates) finds none ({elapsed:.1f}s < 30s)",
        started,
    )


def test_criterion_6_heisenberg_negative_control(tmp_path):
    started = time.monotonic()
    out = tmp_path / "pca.json"
    code = main(["pca", str(SCENARIOS / "heisenberg.json"), "--out", str(out)])
    results = json.loads(out.read_text())["results"]
    full_span = all(
        d == 3
        for lvl in results["levels"][-1:]
        for d in lvl["span_dims"].values()
    )
    empty = all(len(b) == 0 for b in results["annihilators"].values())
    ok = (
        code == 0
        and "no abnormal biextremal" in results["verdict"]
        and full_span
        and empty
    )
    _report(
        6,
        ok,
        "Heisenberg ladder spans all three directions; trivial annihilator "
        "(no abnormal biextremal along the reference)",
        started,
    )


def test_criterion_7_mechanical_checks(tmp_path):
    started = time.monotonic()
    out = tmp_path / "mech.json"
    code = main(["mech-check", str(SCENARIOS / "flat_connection.json"), "--out", str(out)])
    results = json.loads(out.read_text())["results"]
    ok = code == 0 and results["passed"]
    ok = ok and results["lift_generators"] == [["0", "0", "1", "0"]]
    ok = ok and results["bracket_generators"] == [["-1", "0", "0", "0"]]
    identities = results["identities"]
    ok = ok and len(identities) == 4 and all(c["passed"] for c in identities)
    ok = ok and all(c["error"] <= 1e-4 * max(1.0, np.linalg.norm(c["rhs"])) for c in identities)
    ok = ok and results["reduction_max_error"] <= 1e-9
    _report(
        7,
        ok,
        "flat-connection families are the vertical lift and its drift bracket; all four "
        "first/second-order jet identities hold within 1e-4 and the annihilator reduction "
        f"within 1e-9 (max {results['reduction_max_error']:.2e})",
        started,
    )


def test_criterion_8_lp_vs_brute_force():
    started = time.monotonic()
    from geocon.cone import find_supporting_covector
    from tests.test_cone import make_cone

    rng = np.random.default_rng(808)
    disagreements = 0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        gens = rng.normal(size=(n, m))
        lp = find_supporting_covector(make_cone(gens, dim=m)).feasible
        bf = brute_force_supports(list(gens), n_dirs=4000)
        if lp != bf:
            disagreements += 1
    _report(
        8,
        disagreements == 0,
        f"LP feasibility vs 4000-direction brute force on 50 instances: {disagreements} disagreements",
        started,
    )


def test_criterion_9_numerics_hygiene():
    started = time.monotonic()
    # RK4 convergence exponent on the linear flow
    vf = vector_field(("x",), ["x"])

    def err(h):
        out = composite_flow([vf], [1.0], as_point([1.0]), h)
        return abs(out.coords[0] - math.e)

    exponent = math.log2(err(0.02) / err(0.01))

    # Hamiltonian drift over unit time at fixed control
    sys = build_control_affine(("x", "y"), ["y", "-sin(x)"], [], [])
    sched = piecewise_schedule([0.0], [[]])
    bx = integrate_biextremal(sys, [0.4, -0.2], [0.3, 0.7], sched, (0.0, 1.0), "reduced", 1e-3)
    H = [
        hamiltonian(bx.momenta[i], bx.trajectory.xs[i], (), sys)
        for i in range(0, len(bx.trajectory.ts), 25)
    ]
    drift = max(abs(h - H[0]) for h in H)

    # bracket antisymmetry (exact) and Jacobi (1e-9) on polynomial fields
    rng = np.random.default_rng(909)
    chart = ("x1", "x2", "x3")
    a = vector_field(chart, ["x2^2", "x3", "x1*x2"])
    b = vector_field(chart, ["x1", "x1*x3", "x2^3"])
    c = vector_field(chart, ["x3^2", "x1 + x2", "x2*x3"])
    anti_exact = True
    ab, ba = lie_bracket(a, b), lie_bracket(b, a)
    for _ in range(20):
        x = list(rng.uniform(-0.8, 0.8, size=3))
        va, vb = np.asarray(ab(x)), np.asarray(ba(x))
        anti_exact = anti_exact and np.array_equal(va, -vb)
    jac_worst = 0.0
    s1 = lie_bracket(a, lie_bracket(b, c))
    s2 = lie_bracket(b, lie_bracket(c, a))
    s3 = lie_bracket(c, lie_bracket(a, b))
    for _ in range(20):
        x = list(rng.uniform(-0.8, 0.8, size=3))
        total = np.asarray(s1(x)) + np.asarray(s2(x)) + np.asarray(s3(x))
        jac_worst = max(jac_worst, float(np.max(np.abs(total))))

    ok = exponent >= 3.7 and drift <= 1e-8 and anti_exact and jac_worst <= 1e-9
    _report(
        9,
        ok,
        f"RK4 exponent {exponent:.2f} >= 3.7, Hamiltonian drift {drift:.2e} <= 1e-8, "
        f"bracket antisymmetry exact, Jacobi residual {jac_worst:.2e} <= 1e-9",
        started,
    )

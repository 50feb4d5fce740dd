"""Contract checks for the documented error conditions."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geocon.cone import Cone, ConeError, GeneratorProvenance, is_supporting
from geocon.expr import Dual, evaluate, mul, parse_expression, var
from geocon.fields import (
    Covector,
    FieldError,
    TangentVector,
    as_point,
    composite_flow,
    eval_vector_field,
    linearized_rhs,
    rk4_path,
    vector_field,
)
from geocon.ocp import (
    OcpError,
    build_control_affine,
    extend_system,
    hamiltonian,
    hamiltonian_control_gradient,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
)
from geocon.variations import VariationError, estimate_jets, variation_curve

FIXTURES = Path(__file__).resolve().parents[1] / "scenarios"


def test_sqrt_of_negative_reports_domain_error():
    with pytest.raises(ValueError):
        evaluate(parse_expression("sqrt(x)"), {"x": -4.0})


def test_zero_to_negative_power_reports_domain_error():
    with pytest.raises(ZeroDivisionError):
        evaluate(parse_expression("x^-2"), {"x": 0.0})


def test_flow_rejects_nonpositive_step():
    vf = vector_field(("x",), ["1"])
    with pytest.raises(FieldError):
        composite_flow([vf], [1.0], as_point([0.0]), 0.0)
    with pytest.raises(FieldError):
        composite_flow([vf], [1.0], as_point([0.0]), -1e-3)


@pytest.mark.parametrize("step", [-0.5, 0.0, -0.0, math.nan, math.inf])
@pytest.mark.parametrize("duration", [1.0, 0.0])
def test_rk4_path_rejects_a_step_that_is_not_positive_and_finite(step, duration):
    with pytest.raises(FieldError, match="step must be positive and finite"):
        rk4_path(lambda t, x: [1.0], [0.0], 0.0, duration, step)


def test_composite_flow_length_mismatch():
    vf = vector_field(("x",), ["1"])
    with pytest.raises(FieldError):
        composite_flow([vf, vf], [1.0], as_point([0.0]))


def test_variation_curve_rejects_negative_parameter():
    vf = vector_field(("x",), ["1"])
    with pytest.raises(VariationError):
        variation_curve(((vf, 1.0),), as_point([0.0]), -0.1)


@pytest.mark.parametrize("duration", [math.nan, Dual(math.nan, 1.0)], ids=["float", "dual"])
def test_a_nan_duration_is_refused_by_the_step_guard(duration):
    # NaN / step > MAX_FLOW_STEPS is False, so the guard must test for NaN itself
    vf = vector_field(("x",), ["1"])
    with pytest.raises(FieldError, match="duration must be a number"):
        composite_flow([vf], [duration], as_point([0.0]))


def test_estimate_jets_order_cap():
    with pytest.raises(VariationError):
        estimate_jets(lambda s: np.array([s]), 5)


def test_needle_rejects_out_of_box_controls(martinet):
    from geocon.variations import needle_variation

    with pytest.raises(VariationError):
        needle_variation(martinet, (0.0, 1.0), (5.0, 0.0), 1.0, as_point([0.0, 0.0, 0.0]))


def test_is_supporting_dimension_mismatch():
    base3 = as_point([0.0, 0.0, 0.0])
    cone = Cone(
        base3,
        1.0,
        (TangentVector(base3, np.array([1.0, 0.0, 0.0])),),
        (GeneratorProvenance(1.0, 1, "t"),),
    )
    lam2 = Covector(as_point([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ConeError):
        is_supporting(lam2, cone)


def test_a_non_finite_vector_is_a_caller_error_not_a_verdict(martinet, martinet_reference):
    # transport of a NaN vector used to end in DivergenceError (a verdict); a
    # NaN or inf generator or decrease direction reached the exact LP as a
    # ValueError or OverflowError, and a NaN covector answered "not supported"
    from geocon.cone import find_supporting_covector
    from geocon.ocp import transport_vector

    x = martinet_reference.point_at(0.5)
    with pytest.raises(FieldError, match="non-finite components"):
        transport_vector(martinet, martinet_reference, 0.5, 1.0, [TangentVector(x, [math.nan, 0.0, 0.0])])
    for bad in (math.nan, math.inf):
        with pytest.raises(FieldError, match="non-finite components"):
            Cone(x, 0.5, (TangentVector(x, [1.0, bad, 0.0]),), (GeneratorProvenance(0.5, 1, "t"),))
    cone = Cone(x, 0.5, (TangentVector(x, [1.0, 0.0, 0.0]),), (GeneratorProvenance(0.5, 1, "t"),))
    with pytest.raises(FieldError, match="non-finite components"):
        find_supporting_covector(cone, TangentVector(x, [0.0, 0.0, -math.inf]))
    with pytest.raises(FieldError, match="non-finite components"):
        is_supporting(Covector(x, [0.0, 0.0, math.nan]), cone)


def test_cone_rejects_mismatched_generator_base():
    base = as_point([0.0, 0.0])
    other = as_point([1.0, 0.0])
    with pytest.raises(ConeError):
        Cone(
            base,
            1.0,
            (TangentVector(other, np.array([1.0, 0.0])),),
            (GeneratorProvenance(1.0, 1, "t"),),
        )


def test_hamiltonian_dimension_mismatch(martinet):
    with pytest.raises(OcpError):
        hamiltonian([0.0, 0.0], [0.0, 0.0, 0.0], (0.0, 1.0), martinet)
    with pytest.raises(FieldError, match="state of length 5 for 3 chart coordinates and 1 block vectors"):
        linearized_rhs(martinet, covectors=1, controls=[0.0, 1.0])(0.0, [0.0, 0.0] + [0.0, 0.0, 0.0])


def test_flows_refuse_a_state_of_the_wrong_length(martinet):
    # once per leg, zero-length legs included, and per call of a right-hand side
    with pytest.raises(FieldError, match="^state of length 4 for 3 chart coordinates and 0 block vectors$"):
        integrate_trajectory(martinet, [0.0] * 4, piecewise_schedule([0.0], [[0.0, 1.0]]), (0.0, 1.0))
    rhs = linearized_rhs(martinet, tangents=1, controls=[0.0, 1.0])
    for state in ([0.0] * 5, [0.0] * 7):
        for duration in (0.1, 0.0):
            with pytest.raises(FieldError, match=f"^state of length {len(state)} for 3 chart coordinates and 1 block"):
                rk4_path(rhs, state, 0.0, duration, 1e-2)
        with pytest.raises(FieldError, match=f"^state of length {len(state)} "):
            rhs(0.0, state)
    with pytest.raises(FieldError, match="^state of length 2 for 3 chart coordinates"):
        composite_flow([martinet.inputs[0]], [0.1], as_point([0.0, 0.0]))
    assert len(rk4_path(rhs, [0.0] * 6, 0.0, 0.1, 1e-2)) == 6


def test_mode_validation(martinet):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    with pytest.raises(OcpError, match="mode must be"):
        integrate_biextremal(martinet, [0.0] * 3, [0.0, 0.0, 1.0], sched, (0.0, 1.0), "weird")
    with pytest.raises(OcpError, match="needs an ExtendedSystem"):
        integrate_biextremal(martinet, [0.0] * 4, [-1.0, 0.0, 0.0, 1.0], sched, (0.0, 1.0), "extended")


def test_audit_and_ladder_point_values_fault_as_the_field_does():
    # the state comes from a numpy array, but the helpers hand the generated
    # code Python floats, so input 1/x at x = 0 raises as vf([0.0, ...]) does
    # instead of giving inf with a RuntimeWarning
    system = build_control_affine(("x", "y"), ["1", "0"], [["0", "1/x"]], [(-1.0, 1.0)])
    extended = extend_system(system, "0.5*u1^2")
    x, lam = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x_ext, lam_ext = np.array([0.0, 0.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    faults = [
        lambda: system.inputs[0]([0.0, 1.0]),
        lambda: hamiltonian(lam, x, [0.5], system),
        lambda: hamiltonian_control_gradient(lam, x, [0.5], system),
        lambda: hamiltonian_control_gradient(lam_ext, x_ext, [0.5], extended),
        lambda: eval_vector_field(system.inputs[0], x),
    ]
    for call in faults:
        with pytest.raises(ZeroDivisionError):
            call()


def test_control_name_collision_rejected():
    with pytest.raises(OcpError):
        build_control_affine(("x", "u1"), ["0", "0"], [["1", "0"]], [(-1, 1)])


def test_fields_reading_names_outside_the_chart_rejected():
    # a drift that reads a control is no longer control-affine
    with pytest.raises(OcpError, match=r"^drift reads names outside the chart: \['u1'\]$"):
        build_control_affine(("x",), [mul(var("u1"), var("x"))], [["1"]], [(-1, 1)])
    with pytest.raises(OcpError, match=r"^input field 2 reads names outside the chart: \['y'\]$"):
        build_control_affine(("x",), ["0"], [["1"], [var("y")]], [(-1, 1)] * 2)


def test_cli_bad_covector(tmp_path, capsys):
    from geocon.cli import main
    from pathlib import Path

    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "martinet.json"
    assert main(["audit", str(scenario), "--covector", "0,zz,1"]) == 1
    assert capsys.readouterr().err == "geocon: error: --covector must be comma-separated finite numbers, got '0,zz,1'\n"


def test_cli_degenerate_momentum_is_a_verdict(capsys):
    from geocon.cli import main

    assert main(["extremal", str(FIXTURES / "martinet.json"), "--covector", "0,0,0,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("geocon: verdict:")
    assert "momentum norm" in err


def test_cli_divergent_flow_is_a_verdict(tmp_path, capsys):
    from geocon.cli import main

    # x' = x^2 from x = 1 leaves every finite range at t = 1
    scenario = {
        "name": "blowup",
        "chart": ["x1"],
        "controls": ["u1"],
        "system": {"drift": ["x1^2"], "inputs": [["1"]], "control_box": [[-1.0, 1.0]]},
        "reference": {
            "initial": [1.0],
            "interval": [0.0, 2.0],
            "step": 0.01,
            "controls": {"type": "piecewise", "breaks": [0.0], "values": [[0.0]]},
        },
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(scenario))
    assert main(["flow", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("geocon: verdict:")
    assert "diverged" in err

    # the adjoint flow diverges too; its float state must not leak numpy
    # overflow warnings ahead of the verdict
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, "-m", "geocon.cli", "extremal", str(path), "--covector", "1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("geocon: verdict: flow diverged")
    assert done.stderr.count("\n") == 1


def test_cli_cone_time_outside_interval_is_a_tool_error(capsys):
    from geocon.cli import main

    assert main(["cone", str(FIXTURES / "martinet.json"), "--time", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("geocon: error:")
    assert "--time 5.0 must lie in (0.0, 1.0]" in err


@pytest.mark.parametrize(
    "drift, message",
    [("1/x1", "float division by zero"), ("log(x1)", "math domain error")],
)
def test_cli_domain_fault_is_one_error_line(tmp_path, capsys, drift, message):
    # the generated right-hand side raises the plain Python exception at
    # x1 = 0; the command line reports it as a tool error, not a traceback
    from geocon.cli import main

    data = json.loads((FIXTURES / "martinet.json").read_text())
    data["system"]["drift"] = ["0", "0", drift]
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(data))
    assert main(["flow", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"geocon: error: domain fault: {message}\n"


@pytest.mark.parametrize(
    "entry, column",
    [
        ("x1^2000", 3),  # x^n counts |n| levels, checked before 2^n is folded
        ("(" * 600 + "x1" + ")" * 600, 101),
        (" + ".join(["x1"] * 1500), 499),  # the 100th "+"
        ("2^10000000", 2),
    ],
    ids=["power", "parentheses", "sum", "constant-power"],
)
def test_cli_too_deep_expression_is_one_error_line(tmp_path, capsys, entry, column):
    from geocon.cli import main
    from geocon.expr import MAX_DEPTH

    data = json.loads((FIXTURES / "martinet.json").read_text())
    data["system"]["drift"][2] = entry
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    assert main(["flow", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"geocon: error: /system/drift/2: syntax error at column {column}:"
                            f" expression nested deeper than {MAX_DEPTH} levels\n")


def test_cli_recursion_error_is_one_error_line(monkeypatch, capsys):
    from geocon import cli

    def too_deep(*_args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run_command", too_deep)
    assert cli.main(["flow", str(FIXTURES / "martinet.json")]) == 1
    assert capsys.readouterr().err == "geocon: error: expression nested too deeply: maximum recursion depth exceeded\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "martinet.json", "--step=-0.001"],
        ["flow", "martinet.json", "--step", "0"],
        ["flow", "martinet.json", "--step", "nan"],
        ["cone", "heisenberg.json", "--step=-0.01"],
    ],
)
def test_cli_step_that_is_not_positive_and_finite_is_one_error_line(capsys, argv):
    from geocon.cli import main

    command, scenario, *options = argv
    assert main([command, str(FIXTURES / scenario), *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("geocon: error: step must be positive and finite, got ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (["variation", "heisenberg.json", "--input", "2", "--time", "nan"], "--time"),
        (["mech-check", "polar_connection.json", "--time", "nan"], "--time"),
        (["variation", "heisenberg.json", "--input", "2", "--time", "5"], "--time"),
        (["variation", "heisenberg.json", "--input", "2", "--time", "-1"], "--time"),
        (["mech-check", "polar_connection.json", "--time", "7"], "--time"),
        (["pca", "heisenberg.json", "--time", "inf"], "--time"),
        (["variation", "polar_connection.json", "--s-max", "nan"], "--s-max"),
        (["variation", "polar_connection.json", "--s-max", "inf"], "--s-max"),
        (["variation", "polar_connection.json", "--template", "needle", "--u1", "1", "--l1", "nan"], "--l1"),
        (["variation", "polar_connection.json", "--template", "needle", "--u1", "1", "--l1", "inf"], "--l1"),
        (["variation", "polar_connection.json", "--template", "needle", "--u1", "1", "--l1", "0"], "--l1"),
        (["variation", "polar_connection.json", "--samples", "-3"], "--samples"),
        (["pca", "heisenberg.json", "--covector", "nan,0,0"], "--covector"),
        (["extremal", "heisenberg.json", "--covector", "inf,0,0"], "--covector"),
        (["audit", "heisenberg.json", "--covector", "0,-inf,0"], "--covector"),
        (["variation", "polar_connection.json", "--template", "needle", "--u1", "nan"], "--u1"),
    ],
)
def test_cli_bad_numeric_option_is_one_error_line_naming_it(capsys, argv, option):
    from geocon.cli import main

    command, scenario, *options = argv
    assert main([command, str(FIXTURES / scenario), *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"geocon: error: {option} ")
    assert captured.err.count("\n") == 1


def test_cli_time_at_the_interval_ends_is_accepted(capsys):
    from geocon.cli import main

    for t in ("0", "1"):
        assert main(["mech-check", str(FIXTURES / "polar_connection.json"), "--time", t]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("l1", [math.nan, math.inf, -1.0, 0.0])
def test_needle_rejects_a_rate_that_is_not_positive_and_finite(martinet, martinet_reference, l1):
    from geocon.variations import needle_variation

    x = martinet_reference.point_at(0.5)
    with pytest.raises(VariationError, match="l1 must be positive and finite"):
        needle_variation(martinet, [0.0, 0.0], [0.5, 0.5], l1, x)


@pytest.mark.parametrize("u_ref, u1", [([0.0, 0.0], [0.5, 0.5, 0.5]), ([0.0, 0.0], [5.0]), ([0.0], [0.5, 0.5])],
                         ids=["long-u1", "short-u1", "short-u_ref"])
def test_needle_rejects_control_values_of_the_wrong_length(martinet, martinet_reference, u_ref, u1):
    # checked before the control box: a long u1 would index past it, a short one
    # (out of the box here) would be refused for its value
    from geocon.variations import needle_variation

    x = martinet_reference.point_at(0.5)
    with pytest.raises(VariationError, match="need 2 values each"):
        needle_variation(martinet, u_ref, u1, 1.0, x)


@pytest.mark.parametrize("x0, lam0", [([math.nan, 0.0, 0.0], None), ([0.0, math.inf, 0.0], None),
                                      ([0.0, 0.0, 0.0], [1.0, math.nan, 0.0])], ids=["nan-x0", "inf-x0", "nan-lam0"])
def test_a_non_finite_start_is_refused_not_reported_as_divergence(martinet, x0, lam0):
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    with pytest.raises(OcpError, match="initial state must be finite"):
        if lam0 is None:
            integrate_trajectory(martinet, x0, sched, (0.0, 1.0), 1e-3)
        else:
            integrate_biextremal(martinet, x0, lam0, sched, (0.0, 1.0))


def test_reference_interpolation_rejects_nan(martinet_reference):
    with pytest.raises(OcpError, match="nan"):
        martinet_reference.point_at(math.nan)

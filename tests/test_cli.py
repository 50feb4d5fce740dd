import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geocon import cli
from geocon.cli import ScenarioError, load_scenario, load_schema, main, render_json
from geocon.cone import assemble_cone
from geocon.ocp import integrate_trajectory

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def test_load_martinet_fixture():
    sc = load_scenario(str(SCENARIOS / "martinet.json"))
    assert sc.system.m == 3 and sc.system.k == 2
    assert sc.extended is not None
    assert sc.digest.startswith("sha256:")
    assert sc.analysis["sample_times"] == [0.25, 0.5, 0.75, 1.0]


def test_missing_reference_block(tmp_path, capsys):
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    del data["reference"]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    # bracket has no use for a reference and still works
    assert main(["bracket", str(p)]) == 0
    capsys.readouterr()
    # commands that need one fail with an error naming the block
    assert main(["pca", str(p)]) == 1
    assert "/reference" in capsys.readouterr().err


def test_both_blocks_rejected(tmp_path):
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    mech = json.loads((SCENARIOS / "flat_connection.json").read_text())["mechanics"]
    data["mechanics"] = mech
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert "exactly one" in str(err.value)


def test_schema_violation_has_pointer(tmp_path):
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    data["system"]["control_box"] = [[-2.0], [-2.0, 2.0]]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert "/system/control_box/0" in str(err.value)


def test_expression_error_has_pointer(tmp_path):
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    data["system"]["inputs"][1][2] = "x1^2 +"
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert "/system/inputs/1/2" in str(err.value)


def test_unread_analysis_key_is_rejected(tmp_path):
    # no analysis reads a cone time (cone and audit take --time or the
    # interval end), so a scenario that sets one is refused, not ignored
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    data["analysis"]["cone_time"] = 0.5
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert "at /analysis:" in str(err.value) and "cone_time" in str(err.value)


def test_unknown_identifier_has_pointer(tmp_path):
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    data["system"]["drift"][0] = "q"
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(p))
    assert "/system/drift/0" in str(err.value)
    assert "'q'" in str(err.value)


def test_main_pca_martinet(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["pca", str(SCENARIOS / "martinet.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["stabilized_at"] == 1
    for basis in report["results"]["annihilators"].values():
        assert len(basis) == 1
        assert np.allclose(basis[0], [0.0, 0.0, 1.0])


def test_main_pca_heisenberg(tmp_path):
    out = tmp_path / "report.json"
    code = main(["pca", str(SCENARIOS / "heisenberg.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert "no abnormal biextremal" in report["results"]["verdict"]


def test_pca_reports_a_ladder_that_did_not_stabilize(tmp_path, capsys):
    # the chained form at m = 6 needs more than one bracket level
    chart = [f"x{i}" for i in range(1, 7)]
    scenario = {
        "name": "chained",
        "chart": chart,
        "controls": ["u1", "u2"],
        "system": {
            "drift": ["0"] * 6,
            "inputs": [["1", "0", "x2", "x3", "x4", "x5"], ["0", "1", "0", "0", "0", "0"]],
            "control_box": [[-2.0, 2.0], [-2.0, 2.0]],
        },
        "reference": {
            "initial": [0.0] * 6,
            "interval": [0.0, 1.0],
            "controls": {"type": "piecewise", "breaks": [0.0], "values": [[1.0, 0.5]]},
        },
        "analysis": {"max_levels": 1},
    }
    p = tmp_path / "chained.json"
    p.write_text(json.dumps(scenario))
    assert main(["pca", str(p)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["stabilized_at"] is None
    assert results["annihilators"] is None
    assert results["verdict"] == "not stabilized within the level budget"
    assert [len(lvl["generators"]) for lvl in results["levels"]] == [2, 1]


def test_main_audit_pass_and_fail(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["audit", str(SCENARIOS / "martinet.json"), "--covector", "0,0,1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["passed"] is True

    code = main(
        ["audit", str(SCENARIOS / "martinet.json"), "--covector", "1,0,0", "--out", str(out)]
    )
    assert code == 2
    report = json.loads(out.read_text())
    failed = {c["id"] for c in report["results"]["conditions"] if not c["passed"]}
    assert "stationarity" in failed


def test_main_audit_extended_mode(tmp_path):
    # one extra leading component selects the extended working mode
    out = tmp_path / "report.json"
    code = main(
        ["audit", str(SCENARIOS / "martinet.json"), "--covector", "0,0,0,1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["mode"] == "extended"
    assert report["results"]["passed"] is True
    lam0 = next(c for c in report["results"]["conditions"] if c["id"] == "lambda0")
    assert lam0["detail"]["lambda0"] == 0.0


def test_main_extremal_classification(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "extremal",
            str(SCENARIOS / "martinet.json"),
            "--covector",
            "0,0,0,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    cls = report["results"]["classification"]
    assert cls["kind"] == "abnormal"
    assert "inconclusive" in cls["label"]
    assert report["results"]["normal_lift_search"]["candidates"] == 1000


def test_main_cone_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["cone", str(SCENARIOS / "martinet.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    support = report["results"]["support"]
    assert support["feasible"] is True
    assert np.allclose(support["covector"], [0.0, 0.0, 1.0])
    assert support["max_pairing"] <= 1e-9


def test_main_flow_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["flow", str(SCENARIOS / "martinet.json"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[0] - 1.0) <= 1e-12
    assert abs(last[2] - 1.0) <= 1e-9


def test_main_variation_degenerate_exit_code(tmp_path, capsys):
    # needle at the reference control itself carries no first-order vector
    code = main(
        [
            "variation",
            str(SCENARIOS / "martinet.json"),
            "--template",
            "needle",
            "--u1",
            "0,1",
        ]
    )
    assert code == 2


def test_main_mech_check(tmp_path):
    out = tmp_path / "report.json"
    code = main(["mech-check", str(SCENARIOS / "flat_connection.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["lift_generators"] == [["0", "0", "1", "0"]]
    assert report["results"]["bracket_generators"] == [["-1", "0", "0", "0"]]


def test_mech_check_without_inputs_is_vacuous(tmp_path, capsys):
    # no lifts: no null space is taken and no identity is checked
    data = json.loads((SCENARIOS / "flat_connection.json").read_text())
    data["controls"] = []
    data["mechanics"]["inputs"] = []
    data["mechanics"]["control_box"] = []
    data["reference"]["controls"]["values"] = [[]]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    assert main(["mech-check", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {
        "passed": True,
        "lift_generators": [],
        "bracket_generators": [],
        "reduction_max_error": 0,
        "identities": [],
    }


def test_mech_check_names_both_cells_of_a_faulting_christoffel_symbol(tmp_path, capsys):
    # the symmetry check samples x1 in [0.5, 1.5], where log(x1 - 2) has no value
    data = json.loads((SCENARIOS / "flat_connection.json").read_text())
    data["mechanics"]["christoffel"][0][0][1] = "log(x1 - 2)"
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    assert main(["mech-check", str(p)]) == 1
    assert capsys.readouterr().err == (
        "geocon: error: /mechanics: Gamma[0][0][1] or Gamma[0][1][0] faults at a sample point: math domain error\n"
    )


def test_mech_check_refuses_a_christoffel_pair_that_differs_by_nan(tmp_path, capsys):
    # inf - inf at every sample point: a NaN difference is not symmetric
    data = json.loads((SCENARIOS / "flat_connection.json").read_text())
    data["mechanics"]["christoffel"][0][0][1] = "(1e200*x1)*(1e200*x1) - (1e200*x2)*(1e200*x2)"
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    assert main(["mech-check", str(p)]) == 1
    assert capsys.readouterr().err == "geocon: error: /mechanics: Gamma[0][0][1] is not symmetric in its lower indices\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["variation", "martinet.json", "--template", "needle"], "the needle template needs --u1"),
        (["variation", "martinet.json", "--template", "needle", "--u1", "1"], "--u1 needs 2 values"),
        (["variation", "martinet.json", "--input", "3"], "--input must be in 1..2"),
        (["extremal", "martinet.json"], "extremal needs --covector"),
        (["audit", "martinet.json"], "audit needs --covector"),
        (["extremal", "martinet.json", "--covector", "1,2"], "covector needs 3 (reduced) or 4 (extended) components"),
        (["extremal", "flat_connection.json", "--covector", "0,0,0,0,1"], "extended covector given but the scenario has no cost"),
        (["mech-check", "martinet.json"], "mech-check needs a mechanics scenario"),
    ],
)
def test_a_command_refuses_arguments_it_cannot_use(capsys, argv, message):
    command, scenario, *options = argv
    assert main([command, str(SCENARIOS / scenario), *options]) == 1
    assert capsys.readouterr().err == f"geocon: error: {message}\n"


@pytest.mark.parametrize("covector, code, excess", [("-1,0,1,0", 0, 0), ("-1,0,-1,0", 2, 2)])
def test_extended_audit_checks_the_control_grid(tmp_path, capsys, covector, code, excess):
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    data["analysis"]["hamiltonian_grid_check"] = True
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    assert main(["audit", str(p), f"--covector={covector}"]) == code
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["mode"] == "extended"
    grid = next(c for c in results["conditions"] if c["id"] == "grid-maximum")
    assert grid["passed"] is (code == 0)
    assert grid["detail"]["max_excess"] == excess


@pytest.mark.parametrize(
    "drift, input1, components",
    [
        (["1e200", "0", "0"], ["0", "1e200*x1", "0"], ["0", "inf", "0"]),  # 1e200*1e200 folds to inf
        (["x1*(1e308*10)", "0", "0"], ["1", "0", "0"], ["nan", "0", "0"]),  # 0*inf folds to nan
    ],
)
def test_bracket_renders_a_non_finite_constant(tmp_path, capsys, drift, input1, components):
    data = json.loads((SCENARIOS / "martinet.json").read_text())
    data["system"]["drift"] = drift
    data["system"]["inputs"][0] = input1
    p = tmp_path / "s.json"
    p.write_text(json.dumps(data))
    assert main(["bracket", str(p)]) == 0
    first = json.loads(capsys.readouterr().out)["results"]["brackets"][0]
    assert first == {"pair": "[X0,X1]", "components": components, "zero": False}


def test_main_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["pca", str(missing)]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("target", ["directory", "missing/report.json"])
def test_an_unwritable_out_is_a_tool_error(tmp_path, capsys, target):
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    assert main(["bracket", str(SCENARIOS / "martinet.json"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"geocon: error: cannot write report: \[Errno \d+\] .*\n", captured.err)
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("raw", [b'{"name": "\xff"}', b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "too-deep"])
def test_undecodable_scenario_is_not_valid_json(tmp_path, capsys, raw):
    path = tmp_path / "s.json"
    path.write_bytes(raw)
    with pytest.raises(ScenarioError, match="^scenario is not valid JSON: "):
        load_scenario(str(path))
    assert main(["bracket", str(path)]) == 1
    assert capsys.readouterr().err.startswith("geocon: error: scenario is not valid JSON: ")


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main(["pca", str(SCENARIOS / "martinet.json"), "--out", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # round-trips as JSON


def test_report_float_formatting():
    text = render_json({"x": 0.1, "n": 3, "flag": True, "none": None})
    assert "0.10000000000000001" in text
    parsed = json.loads(text)
    assert parsed["x"] == 0.1 and parsed["n"] == 3


def test_packaged_schema_validates_every_fixture():
    import jsonschema

    validator = jsonschema.Draft202012Validator(load_schema())
    fixtures = sorted(SCENARIOS.glob("*.json"))
    assert len(fixtures) == 4
    for path in fixtures:
        validator.validate(json.loads(path.read_text()))


def test_the_schema_uses_each_keyword_the_walker_checks():
    text = (ROOT / "src" / "geocon" / "schema.json").read_text()
    assert len(cli._KEYWORDS) == 17 and all(f'"{keyword}":' in text for keyword in cli._KEYWORDS)


@pytest.mark.parametrize("schema", [
    {"type": "object", "else": {}},
    {"properties": {"name": {"type": "string", "maxLength": 8}}},
    {"$defs": {"box": {"items": {"allOf": [{"format": "uri"}]}}}},
    {"if": {"not": {}}, "then": {}},
    {"items": True},
    {"additionalProperties": {"type": "string"}},
    {"$defs": {"box": {}}, "$ref": "#/$defs/bin"},
    {"$ref": "https://json-schema.org/draft/2020-12/schema"},
    {"properties": {"flag": {"const": True}}},
    {"enum": ["a", 1]},
], ids=["else", "maxLength", "format", "not", "boolean schema", "schema of extras", "missing $defs entry", "remote $ref",
        "bool const", "number in enum"])
def test_a_schema_the_walker_cannot_check_is_refused(schema):
    with pytest.raises(ValueError, match="^the scenario schema checker does not implement "):
        cli._walkable(schema)


def test_the_command_line_runs_without_jsonschema(tmp_path):
    refused = json.loads((SCENARIOS / "martinet.json").read_text())
    refused["chart"] = []
    (tmp_path / "refused.json").write_text(json.dumps(refused))
    blocked = "import sys; sys.modules['jsonschema'] = None; from geocon.cli import main; sys.exit(main(sys.argv[1:]))"

    def run(*code):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run([sys.executable, "-c", *code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)

    done = run(blocked, "bracket", "scenarios/martinet.json")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (ROOT / "perfbench" / "refs" / "martinet.bracket.out").read_text()
    done = run(blocked, "bracket", str(tmp_path / "refused.json"))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "geocon: error: schema violation at /chart: [] should be non-empty\n"
    done = run("import sys, geocon.cli; print(sorted(name for name in sys.modules if name.startswith('jsonschema')))")
    assert (done.returncode, done.stdout) == (0, "[]\n")


def test_every_fixture_runs_its_commands(tmp_path):
    import time

    jobs = {
        "martinet.json": ["bracket", "flow", "cone", "pca"],
        "heisenberg.json": ["bracket", "flow", "cone", "pca"],
        "flat_connection.json": ["flow", "pca", "mech-check"],
        "polar_connection.json": ["flow", "pca", "mech-check"],
    }
    started = time.monotonic()
    for fixture, commands in jobs.items():
        for command in commands:
            out = tmp_path / f"{fixture}.{command}.out"
            code = main([command, str(SCENARIOS / fixture), "--out", str(out)])
            assert code == 0, f"{command} on {fixture} exited {code}"
    assert time.monotonic() - started < 60.0


def test_main_variation_needle_csv(tmp_path):
    out = tmp_path / "needle.csv"
    code = main(
        [
            "variation",
            str(SCENARIOS / "martinet.json"),
            "--template",
            "needle",
            "--u1",
            "1,1",
            "--time",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,x1,x2,x3"
    first = [float(v) for v in lines[1].split(",")]
    # leading behaviour of the needle is s * X1 in the first coordinate
    assert abs(first[1] - first[0]) <= 1e-4 * max(first[0], 1e-9)


def test_main_audit_mechanics_scenario(tmp_path):
    out = tmp_path / "audit.json"
    code = main(
        [
            "audit",
            str(SCENARIOS / "flat_connection.json"),
            "--covector",
            "0,1,0,0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["passed"] is True


def test_cone_step_reaches_generator_transport(tmp_path):
    # --step sets the step of every flow along the reference, the transport
    # of the cone generators included
    path = str(SCENARIOS / "polar_connection.json")
    out = tmp_path / "cone.json"
    assert main(["cone", path, "--step", "0.01", "--out", str(out)]) == 0
    generators = [g["components"] for g in json.loads(out.read_text())["results"]["generators"]]
    sc = load_scenario(path)
    reference = integrate_trajectory(sc.system, sc.initial, sc.schedule, sc.interval, 0.01)
    cone = assemble_cone(sc.system, reference, sc.interval[1], sc.analysis["sample_times"], sc.analysis["per_time_budget"], step=0.01)
    assert generators == [list(g.components) for g in cone.generators]



def test_a_half_bounded_control_box_keeps_the_needles_inside(tmp_path, capsys):
    # each needle control steps by half its room to the nearer bound of the
    # box, also when the other bound is infinite
    scenario = {
        "name": "half_bounded",
        "chart": ["x1", "x2"],
        "controls": ["u1"],
        "system": {"drift": ["x2", "0"], "inputs": [["0", "1"]], "control_box": [["-inf", 2.0]]},
        "reference": {
            "initial": [0.0, 0.0],
            "interval": [0.0, 1.0],
            "step": 0.01,
            "controls": {"type": "piecewise", "breaks": [0.0], "values": [[1.5]]},
        },
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "report.json"
    assert main(["cone", str(path), "--out", str(out)]) == 0
    generators = json.loads(out.read_text())["results"]["generators"]
    assert {g["recipe"] for g in generators if g["order"] == 1} == {
        "needle u1=[1.25] l1=1.0",
        "needle u1=[1.75] l1=1.0",
    }
    assert main(["audit", str(path), "--covector", "0,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""


def test_extremal_searches_the_normal_lift_from_the_initial_state(tmp_path, monkeypatch):
    # the lift search reads only the reference's first state, schedule and
    # interval, so `extremal` integrates no reference for it
    from geocon import cli, ocp

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_trajectory(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_trajectory", counted)
    monkeypatch.setattr(ocp, "integrate_trajectory", counted)
    out = tmp_path / "report.json"
    assert main(["extremal", str(SCENARIOS / "martinet.json"), "--covector", "0,0,0,1", "--out", str(out)]) == 0
    assert calls == []
    scenario = load_scenario(str(SCENARIOS / "martinet.json"))
    reference = integrate_trajectory(scenario.system, scenario.initial, scenario.schedule, scenario.interval)
    search = ocp.search_normal_lift(scenario.extended, reference)
    reported = json.loads(out.read_text())["results"]["normal_lift_search"]
    assert reported["best_residual"] == search.best_residual and reported["found"] == search.found


def test_audit_builds_its_cone_along_the_biextremal(tmp_path, monkeypatch):
    # the biextremal's state rows are the reference trajectory, so audit
    # integrates no reference of its own
    from geocon import cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_trajectory(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_trajectory", counted)
    for covector in ("0,0,1", "0,0,0,1", "-1,0,0,1"):
        out = tmp_path / f"{covector}.json"
        assert main(["audit", str(SCENARIOS / "martinet.json"), f"--covector={covector}", "--out", str(out)]) in (0, 2)
        assert json.loads(out.read_text())["results"]["conditions"]
    assert calls == []


def test_pca_evaluates_no_field_after_the_ladder(tmp_path, monkeypatch):
    # the annihilators come from the generator values the ladder keeps
    from geocon import cli
    from geocon.fields import VectorField

    laddered, late_calls = [], []
    plain_call, plain_run = VectorField.__call__, cli.run_algorithm

    def counted(self, values):
        if laddered:
            late_calls.append(self)
        return plain_call(self, values)

    def run(*args, **kwargs):
        laddered.append(plain_run(*args, **kwargs))
        return laddered[-1]

    monkeypatch.setattr(VectorField, "__call__", counted)
    monkeypatch.setattr(cli, "run_algorithm", run)
    for name in ("martinet", "heisenberg", "flat_connection", "polar_connection"):
        laddered.clear()
        assert main(["pca", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path / "report.json")]) == 0
        assert len(laddered) == 1 and laddered[0].sample_times
    assert late_calls == []


GONE = object()


def put(*path_and_value):
    """A damage that sets the value at a path of a scenario (GONE deletes it)."""
    *path, value = path_and_value

    def damage(doc):
        for key in path[:-1]:
            doc = doc[key]
        if value is GONE:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value

    return damage


def combined(*damages):
    """A damage that applies `damages` in order."""
    return lambda doc: [damage(doc) for damage in damages]


FLAT_MECHANICS = json.loads((SCENARIOS / "flat_connection.json").read_text())["mechanics"]

# one damaged fixture per load rule, with the pointer its error names first
LOAD_RULES = {
    "drift expression": ("martinet", put("system", "drift", 1, "x1 +"), "/system/drift/1"),
    "drift length": ("martinet", put("system", "drift", ["0", "0"]), "/system/drift"),
    "input expression": ("martinet", put("system", "inputs", 1, 2, "x1^^2"), "/system/inputs/1/2"),
    "input length": ("martinet", put("system", "inputs", 0, ["1", "0"]), "/system/inputs/0"),
    "bound order": ("martinet", put("system", "control_box", 0, [2.0, -2.0]), "/system"),
    "bound count": ("martinet", put("system", "control_box", [[-2.0, 2.0]]), "/system"),
    "bound text": ("martinet", put("system", "control_box", 0, 1, "two"), "/system/control_box/0/1"),
    "bound spelling": ("heisenberg", put("system", "control_box", 1, 0, "-Infinity"), "/system/control_box/1/0"),
    "box shape": ("martinet", put("system", "control_box", 0, [-2.0]), "/system/control_box/0"),
    "both blocks": ("martinet", put("mechanics", FLAT_MECHANICS), "exactly one of /system or /mechanics"),
    "neither block": ("martinet", put("system", GONE), "exactly one of /system or /mechanics"),
    "names distinct": ("martinet", put("controls", ["x1", "u2"]), "/chart"),
    "chart order": ("flat_connection", put("chart", ["x1", "x2", "v2", "v1"]), "/chart"),
    "christoffel shape": ("flat_connection", put("mechanics", "christoffel", 1, [["0", "0"]]), "/mechanics/christoffel"),
    "christoffel expression": ("polar_connection", put("mechanics", "christoffel", 0, 1, 1, "-q"), "/mechanics/christoffel/0/1/1"),
    "christoffel symmetry": ("polar_connection", put("mechanics", "christoffel", 1, 0, 1, "2/r"), "/mechanics"),
    "christoffel domain": ("flat_connection", put("mechanics", "christoffel", 0, 0, 1, "1/(x1-x1)"), "/mechanics"),
    "christoffel overflow": ("flat_connection", put("mechanics", "christoffel", 0, 0, 1, "exp(1000*x1)"), "/mechanics"),
    "mechanics input expression": ("flat_connection", put("mechanics", "inputs", 0, 1, "("), "/mechanics/inputs/0/1"),
    "mechanics input length": ("flat_connection", put("mechanics", "inputs", 0, ["1"]), "/mechanics/inputs/0"),
    "mechanics bound count": ("flat_connection", put("mechanics", "control_box", [[-2.0, 2.0]] * 2), "/mechanics"),
    "mechanics bound text": ("polar_connection", put("mechanics", "control_box", 0, 0, "-"), "/mechanics/control_box/0/0"),
    "cost expression": ("martinet", put("cost", "u1 *"), "/cost"),
    "cost name": ("heisenberg", put("cost", "u3"), "/cost"),
    "initial length": ("martinet", put("reference", "initial", [0.0, 0.0]), "/reference/initial"),
    "interval order": ("martinet", put("reference", "interval", [1.0, 1.0]), "/reference/interval"),
    "piecewise breaks": ("martinet", put("reference", "controls", "breaks", GONE), "/reference/controls"),
    "piecewise values": ("heisenberg", put("reference", "controls", "values", GONE), "/reference/controls"),
    "values width": ("martinet", put("reference", "controls", "values", [[0.0]]), "/reference/controls/values"),
    "breaks align": ("martinet", put("reference", "controls", "breaks", [0.0, 0.5]), "/reference/controls"),
    "schedule type": ("martinet", put("reference", "controls", "type", "steps"), "/reference/controls/type"),
    "expressions exprs": ("martinet", put("reference", "controls", {"type": "expressions"}), "/reference/controls"),
    "exprs expression": ("martinet", put("reference", "controls", {"type": "expressions", "exprs": ["t", "t +"]}), "/reference/controls/exprs/1"),
    "exprs count": ("heisenberg", put("reference", "controls", {"type": "expressions", "exprs": ["t"]}), "/reference/controls/exprs"),
    "analysis key": ("martinet", put("analysis", "cone_time", 0.5), "/analysis"),
    "analysis value": ("martinet", put("analysis", "per_time_budget", 0), "/analysis/per_time_budget"),
    "NaN initial": ("martinet", put("reference", "initial", [math.nan, 0.0, 0.0]), "/reference/initial/0"),
    "NaN tolerance": ("martinet", put("analysis", "tolerances", {"stationarity": math.nan}), "/analysis/tolerances/stationarity"),
    "Infinity bound": ("heisenberg", put("system", "control_box", 0, 1, math.inf), "/system/control_box/0/1"),
    "-Infinity time": ("martinet", put("analysis", "sample_times", [0.5, -math.inf]), "/analysis/sample_times/1"),
    "NaN under an unknown key": ("martinet", put("a~/b", math.nan), "/a~0~1b"),
    "NaN time": ("polar_connection", put("analysis", "sample_times", [math.nan]), "/analysis/sample_times/0"),
    "time before": ("heisenberg", put("analysis", "sample_times", [-5.0, 0.5]), "/analysis/sample_times/0"),
    "time at start": ("martinet", put("analysis", "sample_times", [0.5, 0.0]), "/analysis/sample_times/1"),
    "time after": ("flat_connection", put("analysis", "sample_times", [0.25, 1.0, 1.5]), "/analysis/sample_times/2"),
    "time on a switch": ("martinet", combined(put("reference", "controls", "breaks", [0.0, 0.5]),
                                          put("reference", "controls", "values", [[0, 1], [1, 0]]),
                                          put("analysis", "sample_times", [0.25, 0.5])), "/analysis/sample_times/1"),
}


@pytest.mark.parametrize("fixture, damage, pointer", LOAD_RULES.values(), ids=LOAD_RULES)
def test_each_load_rule_names_its_pointer(tmp_path, capsys, fixture, damage, pointer):
    doc = json.loads((SCENARIOS / f"{fixture}.json").read_text())
    damage(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))  # NaN and the infinities are written as Python's json reads them
    assert main(["bracket", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    message = line.removeprefix("geocon: error: ").removeprefix("schema violation at ")
    assert re.match(re.escape(pointer) + "[: ]", message), line


@pytest.mark.parametrize("damage, expected", [
    (put("system", [0] * 10_000), "schema violation at /system: [0, 0, 0, 0, 0, 0, ...] is not of type 'object'"),
    (put("chart", "x" * 1000), "schema violation at /chart: 'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not of type 'array'"),
    (lambda doc: doc.update({f"extra{i}": 0 for i in range(3000)}),
     "schema violation at /: Additional properties are not allowed ('extra0', 'extra1', 'extra10', "),
], ids=["long list", "long string", "many keys"])
def test_a_schema_violation_is_one_bounded_line(tmp_path, capsys, damage, expected):
    doc = json.loads((SCENARIOS / "martinet.json").read_text())
    damage(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["bracket", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"geocon: error: {expected}") and len(line) <= len("geocon: error: schema violation at /: ") + 240

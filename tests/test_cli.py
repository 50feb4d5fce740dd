import json
from pathlib import Path

import numpy as np
import pytest

from geocon.cli import ScenarioError, load_scenario, load_schema, main, render_json

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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


def test_main_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["pca", str(missing)]) == 1
    err = capsys.readouterr().err
    assert "error" in err


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

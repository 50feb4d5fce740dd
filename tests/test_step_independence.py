"""Verdicts that do not depend on the RK4 step.

Every fixture job of the benchmark that reads ``--step`` runs again with
the scenario's step halved and doubled.  Its discrete answers must match the
recorded reference report (``perfbench/refs``): exit code, report structure,
booleans, strings, nulls and the integer counts and orders named in
``DISCRETE``.  Every other number is a measurement of the flow and is
masked; ``options`` echoes the step and is dropped.  A ``variation`` table
keeps its line count; a ``flow`` table has one row per step, so only its
exit code is compared.
"""

import json
from pathlib import Path

import pytest

from geocon.cli import load_scenario, main

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs"
SPEC = json.loads((ROOT / "perfbench" / "spec.json").read_text())
JOBS = [
    job
    for name in ("fixtures-light", "fixtures-cone")
    for job in SPEC["workloads"][name]["jobs"]
    if job["argv"][0] != "bracket"  # the only command without --step
]
DISCRETE = ("order", "index", "stabilized_at", "generators", "candidates", "input", "span_dims")


def _discrete(value, key=None):
    """`value` with every number masked but the integers under a DISCRETE key
    (lists and `span_dims` pass their key on to their entries)."""
    if isinstance(value, dict):
        return {k: _discrete(v, key if key == "span_dims" else k) for k, v in value.items()}
    if isinstance(value, list):
        return [_discrete(v, key) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value if key in DISCRETE and isinstance(value, int) else "<number>"
    return value


def _answers(command: str, code: int, out: str):
    if command == "flow":
        return code
    if command == "variation":
        return code, out.count("\n")
    report = json.loads(out)
    report.pop("options")
    return code, _discrete(report)


def test_the_oracle_covers_every_job_that_reads_the_step():
    assert len(JOBS) == 34


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("job", JOBS, ids=[job["id"] for job in JOBS])
def test_a_verdict_does_not_depend_on_the_step(job, factor, capsys):
    command, scenario, *rest = job["argv"]
    path = str(ROOT / "scenarios" / scenario)
    expected = json.loads((REFS / "index.json").read_text())[job["id"]]["exit"]
    reference = _answers(command, expected, (REFS / f"{job['id']}.out").read_text())
    code = main([command, path, *rest, "--step", repr(load_scenario(path).step * factor)])
    assert _answers(command, code, capsys.readouterr().out) == reference

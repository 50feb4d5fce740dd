"""Property test of the command-line contract on damaged scenario files.

Hypothesis mutates one of the bundled fixtures (deletes a key, drops a list
item, puts in a value of the wrong type, a malformed expression or an
expression that leaves its domain along the reference) and runs a command
on it through `cli.main`.  Whatever the damage, the command must end with
exit code 0, 1 or 2 and no traceback; a tool error prints exactly one
`geocon: error:` line, and an error found while loading the file names
where it is with a JSON pointer.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from geocon.cli import load_scenario, main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FIXTURES = sorted(SCENARIOS.glob("*.json"))
COMMANDS = ("bracket", "flow", "variation", "cone", "pca", "extremal", "audit", "mech-check")
POINTER = re.compile(r"(^|[\s(])/[A-Za-z0-9_/]*")
BAD_EXPRESSIONS = ("x1 +", "foo(x1)", "x1^^2", "(", "1 2", "x1^0.5", "zz")
WRONG_TYPES = (None, True, 7, 2.5, "text", [], {})


def nodes(node, path=()):
    """(path, value) for every node of a JSON document, root first."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from nodes(value, path + (i,))


def parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def expression_paths(doc):
    def is_expression(path, value):
        if not isinstance(value, str) or not path:
            return False
        if path[0] == "cost":
            return True
        if path[:2] == ("reference", "controls"):
            return path[2] == "exprs"
        return path[0] in ("system", "mechanics") and path[1] in ("drift", "inputs", "christoffel")

    return [p for p, v in nodes(doc) if is_expression(p, v)]


@st.composite
def mutated_scenarios(draw):
    fixture = draw(st.sampled_from(FIXTURES))
    doc = json.loads(fixture.read_text())
    chart = doc["chart"]
    kind = draw(st.sampled_from(("delete-key", "drop-item", "wrong-type", "bad-expression", "singular")))
    if kind == "delete-key":
        path = draw(st.sampled_from([p for p, _ in nodes(doc) if p and isinstance(parent(doc, p), dict)]))
        del parent(doc, path)[path[-1]]
    elif kind == "drop-item":
        path = draw(st.sampled_from([p for p, _ in nodes(doc) if p and isinstance(parent(doc, p), list)]))
        del parent(doc, path)[path[-1]]
    elif kind == "wrong-type":
        path = draw(st.sampled_from([p for p, _ in nodes(doc) if p]))
        old = parent(doc, path)[path[-1]]
        parent(doc, path)[path[-1]] = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(old)]))
    else:
        paths = expression_paths(doc)
        path = draw(st.sampled_from(paths))
        v = chart[0]
        singular = (f"1/({v}-{v})", f"log({v}-{v})", f"sqrt(-1-{v}^2)", f"{v}^-1", f"1/{v}", f"log({v})", "exp(1000)")
        parent(doc, path)[path[-1]] = draw(st.sampled_from(BAD_EXPRESSIONS if kind == "bad-expression" else singular))
    covector = ",".join(["0"] * (len(chart) - 1) + ["1"])
    return doc, draw(st.sampled_from(COMMANDS)), covector


@settings(max_examples=60, deadline=None)
@given(mutated_scenarios())
def test_mutated_fixture_exits_cleanly(tmp_path_factory, case):
    doc, command, covector = case
    path = tmp_path_factory.mktemp("mutated") / "scenario.json"
    path.write_text(json.dumps(doc))
    extra = {"variation": ["--template", "commutator"], "extremal": ["--covector", covector], "audit": ["--covector", covector]}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *extra.get(command, [])])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("geocon: error:"), lines
    try:
        load_scenario(str(path))
    except Exception as exc:  # any load-time error
        assert code == 1
        assert POINTER.search(str(exc)), str(exc)

"""Property test of the command-line contract on damaged scenario files.

Hypothesis mutates one of the bundled fixtures (deletes a key, drops a list
item, puts in a value of the wrong type, a malformed expression or an
expression that leaves its domain along the reference) and runs a command
on it through `cli.main`, now and then with an option the command does not
read.  Whatever the damage, the command must end with exit code 0, 1 or 2
and no traceback; a tool error prints exactly one `geocon: error:` line, an
unread option is that error and names the option, and an error found while
loading the file names where it is with a JSON pointer.

The same damage, and extra keys, also run through `cli._violations`, the
walker that checks `schema.json`, and through `jsonschema`, its oracle: both
must name the same (pointer, message) pairs in the same order.
"""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from geocon.cli import COMMANDS, _violations, load_scenario, load_schema, main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
FIXTURES = sorted(SCENARIOS.glob("*.json"))
FLAGS = sorted({flag for spec in COMMANDS.values() for flag in spec.options} | {"--seed"})
POINTER = re.compile(r"(^|[\s(])/[A-Za-z0-9_/]*")
BAD_EXPRESSIONS = ("x1 +", "foo(x1)", "x1^^2", "(", "1 2", "x1^0.5", "zz")
WRONG_TYPES = (None, True, 7, 2.5, "text", [], {})
# values each keyword of schema.json refuses or admits at some place: empty, zero, negative, integral, off-pattern
SCHEMA_VALUES = WRONG_TYPES + (False, 0, -1, 0.0, 2.0, "", "inf", "+inf", "1x", "steps", "piecewise", "expressions",
                               [0.0], [[1.0, 2.0]], {"type": "expressions"})
EXTRA_KEYS = ("extra", "type", "exprs", "breaks", "values", "step", "cost", "a/b")


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
    command = draw(st.sampled_from(tuple(COMMANDS)))
    unread = None
    if draw(st.integers(0, 3)) == 0:
        unread = draw(st.sampled_from([f for f in FLAGS if f not in COMMANDS[command].options]))
    return doc, command, covector, unread


@settings(max_examples=60, deadline=None)
@given(mutated_scenarios())
def test_mutated_fixture_exits_cleanly(tmp_path_factory, case):
    doc, command, covector, unread = case
    path = tmp_path_factory.mktemp("mutated") / "scenario.json"
    path.write_text(json.dumps(doc))
    extra = {"variation": ["--template", "commutator"], "extremal": ["--covector", covector], "audit": ["--covector", covector]}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *extra.get(command, []), *([unread, "1"] if unread else [])])
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("geocon: error:"), lines
    if unread:
        assert code == 1 and lines == [f"geocon: error: {unread} is not an option of {command}"]
    try:
        load_scenario(str(path))
    except Exception as exc:  # any load-time error
        assert code == 1
        assert POINTER.search(str(exc)), str(exc)


@st.composite
def schema_damage(draw):
    """A fixture with one to three damages: a key deleted, a list item dropped,
    a value replaced, or a key added to an object."""
    doc = json.loads(draw(st.sampled_from(FIXTURES)).read_text())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete-key", "drop-item", "wrong-type", "extra-key")))
        value = copy.deepcopy(draw(st.sampled_from(SCHEMA_VALUES)))
        if kind == "extra-key":
            target = draw(st.sampled_from([v for _, v in nodes(doc) if isinstance(v, dict)]))
            target[draw(st.sampled_from(EXTRA_KEYS))] = value
            continue
        holder = {"delete-key": dict, "drop-item": list}.get(kind, object)
        paths = [p for p, _ in nodes(doc) if p and isinstance(parent(doc, p), holder)]
        if paths:
            path = draw(st.sampled_from(paths))
            if kind == "wrong-type":
                parent(doc, path)[path[-1]] = value
            else:
                del parent(doc, path)[path[-1]]
    return doc


ORACLE = jsonschema.Draft202012Validator(load_schema())


@settings(max_examples=300, deadline=None)
@given(schema_damage())
def test_the_schema_walker_names_what_jsonschema_names(doc):
    oracle = [("/" + "/".join(map(str, e.absolute_path)), e.message) for e in ORACLE.iter_errors(doc)]
    walked = [("/" + "/".join(map(str, path)), message) for path, message, _ in _violations(doc, load_schema())]
    assert walked == oracle


def _both(doc, schema=None):
    """(pointer, message) pairs of `doc` by the walker and by jsonschema, against `schema` or schema.json."""
    oracle = ORACLE if schema is None else jsonschema.Draft202012Validator(schema)
    walked = _violations(doc, load_schema() if schema is None else schema)
    return ([("/" + "/".join(map(str, path)), message) for path, message, _ in walked],
            [("/" + "/".join(map(str, e.absolute_path)), e.message) for e in oracle.iter_errors(doc)])


def _damaged(fixture, *path_and_value):
    *path, value = path_and_value
    doc = json.loads((SCENARIOS / f"{fixture}.json").read_text())
    parent(doc, path)[path[-1]] = value
    return doc


# each keyword of schema.json at its boundary, refused and admitted, where random damage seldom lands
BOUNDARIES = {
    "step 0": ("flat_connection", "reference", "step", 0),
    "step -0.0": ("flat_connection", "reference", "step", -0.0),
    "step 1e-300": ("flat_connection", "reference", "step", 1e-300),
    "step true": ("flat_connection", "reference", "step", True),
    "stationarity 0.0": ("martinet", "analysis", "tolerances", {"stationarity": 0.0}),
    "budget 0": ("martinet", "analysis", "per_time_budget", 0),
    "budget 1": ("martinet", "analysis", "per_time_budget", 1),
    "budget 2.0": ("martinet", "analysis", "per_time_budget", 2.0),
    "budget 2.5": ("martinet", "analysis", "per_time_budget", 2.5),
    "budget true": ("martinet", "analysis", "per_time_budget", True),
    "grid check 1": ("martinet", "analysis", "hamiltonian_grid_check", 1),
    "name empty": ("heisenberg", "name", ""),
    "chart empty": ("heisenberg", "chart", []),
    "chart digit": ("heisenberg", "chart", ["1x", "x_2", "y"]),
    "interval short": ("martinet", "reference", "interval", [0.0]),
    "interval long": ("martinet", "reference", "interval", [0.0, 1.0, 2.0]),
    "coordinates empty": ("flat_connection", "mechanics", "coordinates", []),
    "bound +inf": ("martinet", "system", "control_box", 0, 1, "+inf"),
    "bound -inf": ("martinet", "system", "control_box", 0, 0, "-inf"),
    "bound pair": ("martinet", "system", "control_box", 0, [1.0]),
    "schedule type": ("martinet", "reference", "controls", "type", "Piecewise"),
    "schedule untyped": ("martinet", "reference", "controls", {"breaks": [0.0], "values": [[0.0, 0.0]]}),
    "expressions bare": ("martinet", "reference", "controls", {"type": "expressions"}),
    "piecewise bare": ("martinet", "reference", "controls", {"type": "piecewise", "exprs": []}),
    "extras": ("martinet", "reference", {"initial": [], "interval": [0, 1], "controls": {"type": "x"}, "b": 0, "a": 1}),
}


@pytest.mark.parametrize("damage", BOUNDARIES.values(), ids=BOUNDARIES)
def test_the_schema_walker_agrees_at_each_keyword_boundary(damage):
    walked, oracle = _both(_damaged(*damage))
    assert walked == oracle


@pytest.mark.parametrize("schema", [{"const": "1"}, {"enum": ["0", "a"]}, {"type": "integer"}, {"type": ["number", "null"]},
                                    {"type": "boolean"}, {"minimum": 1}, {"exclusiveMinimum": 0}])
def test_the_schema_walker_keeps_bools_and_numbers_apart(schema):
    for value in (True, False, 0, 1, 1.0, -0.0, 2.5, None, "1", "0", [1, {"a": 2}], [True, {"a": 2}]):
        walked, oracle = _both(value, schema)
        assert walked == oracle, value

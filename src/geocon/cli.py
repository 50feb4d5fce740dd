"""Scenario-driven command line front end.

Loads a JSON scenario, runs one analysis and emits either a JSON report
(deterministic byte-for-byte for a fixed scenario: fixed key order, floats
at 17 significant digits) or a CSV curve.  Exit codes: 0 success, 2 for
analysis verdicts that fail (audit or identity failures, degenerate
requests), 1 for tool errors, usage errors included.  Each command
accepts only the options it reads (the command table `COMMANDS`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import re
import reprlib
import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .cone import ConeError, assemble_cone, find_supporting_covector
from .expr import ExprError, parse_expression, render
from .fields import DEFAULT_STEP, DivergenceError, FieldError, TangentVector, VectorField, is_zero_field, lie_bracket
from .mech import ConnectionSpec, MechError, build_acc_system, connection_spec, generator_families
from .ocp import (
    ControlSchedule,
    DegenerateMomentumError,
    OcpError,
    Trajectory,
    audit_necessary_conditions,
    build_control_affine,
    classify_extremal,
    expression_schedule,
    extend_system,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
    search_normal_lift,
)
from .pca import PcaError, abnormal_verdict, ladder_pairings, run_algorithm, sample_annihilators
from .variations import VariationError, bracket_variation, needle_variation

log = logging.getLogger("geocon")

SCHEMA_VERSION = "1"


class ScenarioError(Exception):
    pass


# ---------------------------------------------------------------------------
# Scenario loading.
# ---------------------------------------------------------------------------


_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minItems", "maxItems", "minLength",
             "pattern", "enum", "const", "minimum", "exclusiveMinimum", "$ref", "allOf", "if", "then"}
_ANNOTATIONS = {"$schema", "$comment", "title", "description", "default", "examples", "$defs"}  # check nothing
_KINDS = {"array": {list}, "boolean": {bool}, "integer": {int}, "null": {type(None)}, "number": {int, float},
          "object": {dict}, "string": {str}}  # as json.loads builds them; a float like 2.0 is an integer too


@functools.cache
def load_schema() -> dict:
    """schema.json, read once (do not change it) and refused if `_walkable` refuses it."""
    with resources.files("geocon").joinpath("schema.json").open("rb") as fh:
        return _walkable(json.load(fh))


def _walkable(schema: dict) -> dict:
    """`schema`, refused unless each schema in it is an object of annotations and keywords that `_violations`
    checks, each `additionalProperties` is a bool, each `const` and `enum` value a string, and each `$ref`
    names one of its `$defs`."""
    subs, refs = [schema], {f"#/$defs/{name}" for name in schema.get("$defs", ())}
    for sub in subs:  # grows by the schemas nested in each
        odd = sorted(sub.keys() - _KEYWORDS - _ANNOTATIONS) if isinstance(sub, dict) else [sub]
        odd = odd or [value for value in [sub.get("const", ""), *sub.get("enum", ())] if not isinstance(value, str)]
        if odd or sub.get("$ref") not in refs | {None} or type(sub.get("additionalProperties", False)) is not bool:
            raise ValueError(f"the scenario schema checker does not implement {odd or sub}")
        subs += [*sub.get("properties", {}).values(), *sub.get("$defs", {}).values(), *sub.get("allOf", ()),
                 *(sub[key] for key in ("items", "if", "then") if key in sub)]
    return schema


def _violations(value, schema: dict, path: tuple = ()):
    """(path, message, value) of each place where `value`, as json.loads builds it, breaks `schema`, whose
    `$ref`s name schema.json's `$defs`: jsonschema 4.x's Draft 2020-12 `iter_errors` messages, in its order."""
    for key, rule in schema.items():
        if key == "type":
            kinds = [rule] if isinstance(rule, str) else rule
            if not any(type(value) in _KINDS[kind] or kind == "integer" and type(value) is float and value.is_integer()
                       for kind in kinds):
                yield path, f"{value!r} is not of type {', '.join(map(repr, kinds))}", value
        elif key == "$ref":
            yield from _violations(value, load_schema()["$defs"][rule.removeprefix("#/$defs/")], path)
        elif key == "allOf":
            yield from (error for sub in rule for error in _violations(value, sub, path))
        elif key == "if" and "then" in schema and next(_violations(value, rule), None) is None:
            yield from _violations(value, schema["then"], path)
        elif key in ("const", "enum") and value not in ([rule] if key == "const" else rule):
            yield path, f"{rule!r} was expected" if key == "const" else f"{value!r} is not one of {rule!r}", value
        elif key == "properties" and type(value) is dict:
            for name, sub in rule.items():
                if name in value:
                    yield from _violations(value[name], sub, path + (name,))
        elif key == "required" and type(value) is dict:
            yield from ((path, f"{name!r} is a required property", value) for name in rule if name not in value)
        elif key == "additionalProperties" and type(value) is dict and not rule:
            extras = sorted(name for name in value if name not in schema.get("properties", {}))
            if extras:
                listed = f"{', '.join(map(repr, extras))} {'was' if len(extras) == 1 else 'were'}"
                yield path, f"Additional properties are not allowed ({listed} unexpected)", value
        elif key == "items" and type(value) is list:
            yield from (error for i, item in enumerate(value) for error in _violations(item, rule, path + (i,)))
        elif (key, type(value)) in (("minItems", list), ("minLength", str)) and len(value) < rule:
            yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}", value
        elif key == "maxItems" and type(value) is list and len(value) > rule:
            yield path, f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}", value
        elif key == "pattern" and type(value) is str and not re.search(rule, value):
            yield path, f"{value!r} does not match {rule!r}", value
        elif key == "minimum" and type(value) in (int, float) and value < rule:
            yield path, f"{value!r} is less than the minimum of {rule!r}", value
        elif key == "exclusiveMinimum" and type(value) in (int, float) and value <= rule:
            yield path, f"{value!r} is less than or equal to the minimum of {rule!r}", value


_ECHO = reprlib.Repr()  # a value a schema violation refuses, one level deep: at most 6 items or 4 keys
_ECHO.maxlevel = 1


@dataclass
class Scenario:
    name: str
    chart: tuple[str, ...]
    system: object  # ControlAffineSystem
    extended: object | None
    connection: ConnectionSpec | None
    initial: np.ndarray | None
    interval: tuple[float, float] | None
    step: float
    schedule: ControlSchedule | None
    analysis: dict
    digest: str

    def require_reference(self, command: str):
        if self.schedule is None:
            raise ScenarioError(f"missing /reference block (required by the {command!r} command)")

    def for_mode(self, mode: str):
        """(system, initial state) in reduced mode, or in extended mode the
        cost-extended system with the running cost x0 = 0 prepended."""
        if mode == "extended":
            return self.extended, np.concatenate([[0.0], self.initial])
        return self.system, self.initial


def _at(pointer: str, build, *args):
    """build(*args), with an error the model raises on bad input put at `pointer`."""
    try:
        return build(*args)
    except (ExprError, FieldError, OcpError, MechError, ArithmeticError) as exc:
        raise ScenarioError(f"{pointer}: {exc}") from exc


def _parse(exprs, variables, where: str, count: int | None = None):
    """The expressions at `where`, `count` of them when it is given."""
    parsed = [_at(f"{where}/{i}", parse_expression, src, variables) for i, src in enumerate(exprs)]
    if count is not None and len(parsed) != count:
        raise ScenarioError(f"{where}: one component per variable required, {len(parsed)} for {count}")
    return parsed


def _non_finite(node, where: str = ""):
    """(pointer, value) of each NaN or infinity in a decoded JSON document."""
    if isinstance(node, float) and not math.isfinite(node):
        yield where, node
    for key, child in node.items() if isinstance(node, dict) else enumerate(node if isinstance(node, list) else ()):
        yield from _non_finite(child, f"{where}/{str(key).replace('~', '~0').replace('/', '~1')}")  # RFC 6901


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; defaults are filled here.
    `schema.json` holds the shapes; this checks the rules that relate one
    field to another and refuses NaN and the infinities, which Python's
    `json` reads.  Every error names the JSON pointer of what it refuses."""
    try:
        raw_bytes = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw_bytes).hexdigest()
    constants = []  # the NaN and infinity literals read; only if there is one does a walk find where
    try:
        data = json.loads(raw_bytes, parse_constant=lambda name: constants.append(name) or float(name))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # or not UTF-8, or nested past the stack
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    for where, value in _non_finite(data) if constants else ():
        raise ScenarioError(f"{where or '/'}: {json.dumps(value)} is not a finite number")
    error = min(_violations(data, load_schema()), key=lambda e: e[0], default=None)
    if error is not None:  # a long refused value is echoed by _ECHO, and the message cut to 240 characters
        where, message, value = error
        text = repr(value)
        message = message.replace(text, _ECHO.repr(value)) if len(text) > 80 else message
        raise ScenarioError(f"schema violation at /{'/'.join(map(str, where))}: {message[:240]}")

    if ("system" in data) == ("mechanics" in data):
        raise ScenarioError("exactly one of /system or /mechanics must be present")
    chart, controls = tuple(data["chart"]), tuple(data["controls"])
    if len(set(chart + controls)) != len(chart) + len(controls):
        raise ScenarioError("/chart and /controls names must be distinct")
    connection = None
    if "system" in data:
        block = data["system"]
        drift = _parse(block["drift"], chart, "/system/drift", len(chart))
        inputs = [_parse(comps, chart, f"/system/inputs/{c}", len(chart)) for c, comps in enumerate(block["inputs"])]
        system = _at("/system", build_control_affine, chart, drift, inputs, block["control_box"], controls)
    else:
        block = data["mechanics"]
        coords, vels, gamma = tuple(block["coordinates"]), tuple(block["velocities"]), block["christoffel"]
        if chart != coords + vels:
            raise ScenarioError("/chart must equal /mechanics/coordinates followed by /mechanics/velocities")
        n = len(coords)
        if len(gamma) != n or any(len(r) != n or any(len(c) != n for c in r) for r in gamma):
            raise ScenarioError(f"/mechanics/christoffel must be {n}x{n}x{n}")
        gamma = [[_parse(cell, coords, f"/mechanics/christoffel/{i}/{j}") for j, cell in enumerate(row)]
                 for i, row in enumerate(gamma)]
        inputs = [_parse(comps, coords, f"/mechanics/inputs/{c}", n) for c, comps in enumerate(block["inputs"])]
        connection = _at("/mechanics", connection_spec, coords, vels, gamma)  # checks symmetry by evaluating
        q_fields = [VectorField(coords, tuple(comps)) for comps in inputs]
        system = _at("/mechanics", build_acc_system, connection, q_fields, block["control_box"], controls)
    extended = _at("/cost", extend_system, system, data["cost"]) if "cost" in data else None

    initial = interval = schedule = None
    step = DEFAULT_STEP
    if "reference" in data:
        ref, ctrl = data["reference"], data["reference"]["controls"]
        initial = np.asarray(ref["initial"], dtype=float)
        if len(initial) != len(chart):
            raise ScenarioError("/reference/initial: one value per chart variable required")
        a, b = interval = tuple(map(float, ref["interval"]))
        if not a < b:
            raise ScenarioError("/reference/interval: must run forward")
        step = float(ref.get("step", step))
        if ctrl["type"] == "expressions":
            exprs = _parse(ctrl["exprs"], ("t",), "/reference/controls/exprs")
            schedule = _at("/reference/controls/exprs", expression_schedule, exprs, len(controls))
        elif any(len(row) != len(controls) for row in ctrl["values"]):
            raise ScenarioError("/reference/controls/values: one value per control required")
        else:
            schedule = _at("/reference/controls", piecewise_schedule, ctrl["breaks"], ctrl["values"])
        for i, t in enumerate(data.get("analysis", {}).get("sample_times", ())):
            if not a < t <= b:
                raise ScenarioError(f"/analysis/sample_times/{i}: {t} is outside the reference interval ({a}, {b}]")
            if schedule.on_switch(t, interval):
                raise ScenarioError(f"/analysis/sample_times/{i}: {t} sits on a control switch")
    analysis = {"per_time_budget": 16, "max_levels": 6, "hamiltonian_grid_check": False, "tolerances": {},
                **data.get("analysis", {})}
    if interval is not None and "sample_times" not in analysis:
        analysis["sample_times"] = schedule.sample_times(interval)
    return Scenario(name=data["name"], chart=chart, system=system, extended=extended, connection=connection,
                    initial=initial, interval=interval, step=step, schedule=schedule, analysis=analysis, digest=digest)


# ---------------------------------------------------------------------------
# Deterministic JSON rendering: 17 significant digits, fixed key order.
# ---------------------------------------------------------------------------


def _float_text(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    return format(float(x), ".17g")


def render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, np.ndarray):
        return render_json(value.tolist(), indent)
    return json.dumps(str(value))


def report_envelope(command: str, scenario: Scenario, options: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "scenario": {"name": scenario.name, "digest": scenario.digest},
        "options": options,
        "results": results,
    }


def _csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (exit_code, payload): a results
# dict, which run_command wraps in the report envelope, or finished text.
# They see --step and --time resolved (see run_command).
# ---------------------------------------------------------------------------


def _reference(scenario: Scenario, step: float, mode: str = "reduced"):
    system, x0 = scenario.for_mode(mode)
    return integrate_trajectory(system, x0, scenario.schedule, scenario.interval, step)


def _rendered_field(vf) -> list[str]:
    return [render(c) for c in vf.components]


def cmd_bracket(scenario: Scenario, args) -> tuple[int, dict]:
    sys_ = scenario.system
    results = {"chart": list(scenario.chart), "brackets": []}
    fields = [("X0", sys_.drift)] + [(f"X{c + 1}", vf) for c, vf in enumerate(sys_.inputs)]
    for i, (name_a, a) in enumerate(fields):
        for name_b, b in fields[i + 1 :]:
            if name_a == "X0" and is_zero_field(a):
                continue
            br = lie_bracket(a, b)
            results["brackets"].append(
                {
                    "pair": f"[{name_a},{name_b}]",
                    "components": _rendered_field(br),
                    "zero": is_zero_field(br),
                }
            )
    return 0, results


def cmd_flow(scenario: Scenario, args) -> tuple[int, str]:
    traj = _reference(scenario, args.step)
    header = ["t", *scenario.chart]
    rows = [[t, *xs] for t, xs in zip(traj.ts, traj.xs)]
    return 0, _csv(header, rows)


def cmd_variation(scenario: Scenario, args) -> tuple[int, str]:
    traj = _reference(scenario, args.step)
    t0 = args.time
    x = traj.point_at(t0)
    u_ref = traj.control_at(t0)
    if args.template == "needle":
        if args.u1 is None:
            raise ScenarioError("the needle template needs --u1")
        u1 = _parse_covector(args.u1, "--u1")
        if len(u1) != scenario.system.k:
            raise ScenarioError(f"--u1 needs {scenario.system.k} values")
        pv = needle_variation(scenario.system, u_ref, u1, args.l1, x, t0=t0)
    else:
        c = args.input - 1
        if not 0 <= c < scenario.system.k:
            raise ScenarioError(f"--input must be in 1..{scenario.system.k}")
        xi0 = scenario.system.slice_field(u_ref)
        pv = bracket_variation(xi0, scenario.system.inputs[c], x, t0=t0)
    if pv is None:
        return 2, "degenerate variation: the template produces no perturbation vector\n"
    svals = np.linspace(0.0, args.s_max, args.samples)
    rows = [[s, *np.asarray(pv.curve(float(s)).coords, dtype=float)] for s in svals]
    return 0, _csv(["s", *scenario.chart], rows)


def _cone_for(scenario: Scenario, args, mode: str, reference):
    """The cone at --time along `reference`, the trajectory of the mode's system."""
    t = args.time
    times = [t0 for t0 in scenario.analysis["sample_times"] if t0 <= t] or [t]
    return assemble_cone(
        scenario.for_mode(mode)[0],
        reference,
        t,
        times,
        per_time_budget=scenario.analysis["per_time_budget"],
        step=args.step,
    )


def _support_block(support) -> dict:
    return {
        "feasible": support.feasible,
        "covector": None if support.covector is None else support.covector.components,
        "max_pairing": support.max_pairing,
        "separating_margin": support.separating_margin,
    }


def cmd_cone(scenario: Scenario, args) -> tuple[int, dict]:
    cone = _cone_for(scenario, args, "reduced", _reference(scenario, args.step))
    support = find_supporting_covector(cone)
    results = {
        "time": cone.time,
        "base": cone.base.coords,
        "generators": [
            {"components": g.components, "t0": p.t0, "order": p.order, "recipe": p.recipe}
            for g, p in zip(cone.generators, cone.provenance)
        ],
        "support": _support_block(support),
    }
    if scenario.extended is not None:
        # on the cost-augmented chart the decrease direction is -d/dx0 and
        # the separating margin equals -lambda0 of the reported covector
        ext_cone = _cone_for(scenario, args, "extended", _reference(scenario, args.step, "extended"))
        d = np.zeros(ext_cone.dim)
        d[0] = -1.0
        ext_support = find_supporting_covector(ext_cone, TangentVector(ext_cone.base, d))
        results["extended"] = {
            "generators": len(ext_cone.generators),
            "support": _support_block(ext_support),
        }
    return 0, results


def cmd_pca(scenario: Scenario, args) -> tuple[int, dict]:
    reference = _reference(scenario, args.step)
    sample_times = [
        t for t in scenario.analysis["sample_times"] if t < scenario.interval[1]
    ] or None
    ladder = run_algorithm(
        scenario.system,
        reference,
        sample_times=sample_times,
        max_levels=scenario.analysis["max_levels"],
    )
    levels = [
        {
            "index": lvl.index,
            "generators": [
                {"name": g.name, "components": g.rendered(), "parent": g.parent, "bracket_with": g.bracket_with}
                for g in lvl.generators
            ],
            "span_dims": {str(t): d for t, d in sorted(lvl.span_dims.items())},
            "controls_could_determine": lvl.branch_flag,
        }
        for lvl in ladder.levels
    ]
    results = {
        "stabilized_at": ladder.stabilized_at,
        "levels": levels,
        "sample_times": list(ladder.sample_times),
        "annihilators": None if ladder.stabilized_at is None else {
            str(t): [b.components for b in basis]
            for t, basis in zip(ladder.sample_times, sample_annihilators(ladder))
        },
        "verdict": abnormal_verdict(ladder),
    }
    if args.covector is not None:
        lam0 = _parse_covector(args.covector)
        bx = _integrate_candidate(scenario, lam0, "reduced", args.step)
        pairings = ladder_pairings(ladder, bx)
        results["covector_transport"] = {
            "initial": list(lam0),
            "max_abs_pairings": pairings,
            "worst": max(pairings.values()) if pairings else 0.0,
        }
    return 0, results


def _parse_covector(text: str, flag: str = "--covector") -> np.ndarray:
    try:
        values = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values)):
        raise ScenarioError(f"{flag} must be comma-separated finite numbers, got {text!r}")
    return values


def _mode_for_covector(scenario: Scenario, lam0) -> str:
    m = scenario.system.m
    if len(lam0) == m:
        return "reduced"
    if len(lam0) == m + 1:
        if scenario.extended is None:
            raise ScenarioError("extended covector given but the scenario has no cost")
        return "extended"
    raise ScenarioError(f"covector needs {m} (reduced) or {m + 1} (extended) components")


def _integrate_candidate(scenario: Scenario, lam0, mode: str, step: float):
    system, x0 = scenario.for_mode(mode)
    return integrate_biextremal(system, x0, lam0, scenario.schedule, scenario.interval, mode, step)


def cmd_extremal(scenario: Scenario, args) -> tuple[int, dict]:
    if args.covector is None:
        raise ScenarioError("extremal needs --covector")
    lam0 = _parse_covector(args.covector)
    mode = _mode_for_covector(scenario, lam0)
    bx = _integrate_candidate(scenario, lam0, mode, args.step)
    results = {
        "mode": mode,
        "initial_covector": list(lam0),
        "final_state": bx.trajectory.xs[-1],
        "final_momentum": bx.momenta[-1],
        "momentum_norm_range": [
            float(np.min(np.linalg.norm(bx.momenta, axis=1))),
            float(np.max(np.linalg.norm(bx.momenta, axis=1))),
        ],
    }
    ts = bx.trajectory.ts
    idx = np.linspace(0, len(ts) - 1, min(21, len(ts))).astype(int)
    results["samples"] = [
        {
            "t": float(ts[i]),
            "state": bx.trajectory.xs[i],
            "momentum": bx.momenta[i],
        }
        for i in idx
    ]
    if mode == "extended":
        search = None
        if classify_extremal(bx).kind == "abnormal":
            start = Trajectory(scenario.interval, [scenario.interval[0]], [scenario.initial], scenario.schedule)
            search = search_normal_lift(scenario.extended, start, step=args.step)  # reads the start only
        cls = classify_extremal(bx, search)
        results["classification"] = {"kind": cls.kind, "label": cls.label, "lambda0": cls.lambda0}
        if search is not None:
            results["normal_lift_search"] = {
                "found": search.found,
                "candidates": search.candidates,
                "tolerance": search.tol,
                "best_residual": search.best_residual,
                "grid": search.grid_description,
            }
    return 0, results


def cmd_audit(scenario: Scenario, args) -> tuple[int, dict]:
    if args.covector is None:
        raise ScenarioError("audit needs --covector")
    lam0 = _parse_covector(args.covector)
    mode = _mode_for_covector(scenario, lam0)
    bx = _integrate_candidate(scenario, lam0, mode, args.step)
    cone = _cone_for(scenario, args, mode, bx.trajectory)
    tol = scenario.analysis["tolerances"].get("stationarity", 1e-8)
    report_data = audit_necessary_conditions(
        bx,
        cone,
        scenario.for_mode(mode)[0],
        stationarity_tol=tol,
        hamiltonian_grid_check=scenario.analysis["hamiltonian_grid_check"],
    )
    results = {
        "mode": mode,
        "passed": report_data.passed,
        "conditions": [
            {"id": c.id, "description": c.description, "passed": c.passed, "detail": c.detail}
            for c in report_data.conditions
        ],
    }
    return (0 if report_data.passed else 2), results


def cmd_mech_check(scenario: Scenario, args) -> tuple[int, dict]:
    if scenario.connection is None:
        raise ScenarioError("mech-check needs a mechanics scenario")
    reference = _reference(scenario, args.step)
    rep = generator_families(scenario.system, reference, sample_time=args.time)
    results = {
        "passed": rep.passed,
        "lift_generators": [_rendered_field(vf) for vf in rep.z0],
        "bracket_generators": [_rendered_field(vf) for vf in rep.z1],
        "reduction_max_error": rep.reduction_max_error,
        "identities": [
            {
                "name": c.name,
                "input": c.input_index + 1,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "error": c.error,
                "passed": c.passed,
            }
            for c in rep.checks
        ],
    }
    return (0 if rep.passed else 2), results


# ---------------------------------------------------------------------------
# The command table: the parser, the option checks, the report's `options`
# echo and dispatch all read it, so each command accepts exactly the
# options it reads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    help: str
    handler: Callable[[Scenario, argparse.Namespace], tuple[int, dict | str]]
    options: tuple[str, ...]  # the flags it reads, besides the scenario path
    time: str | None = None  # what its --time means: a key of _TIME_RULES


COMMANDS = {
    "bracket": Command(
        "print the Lie brackets of the system fields",
        cmd_bracket, ("--out",),
    ),
    "flow": Command(
        "emit the reference trajectory as CSV",
        cmd_flow, ("--out", "--step"),
    ),
    "variation": Command(
        "emit a variation curve as CSV",
        cmd_variation,
        ("--out", "--time", "--step", "--template", "--input", "--u1", "--l1", "--s-max", "--samples"),
        "sample",
    ),
    "cone": Command(
        "assemble the perturbation cone and report a supporting covector",
        cmd_cone, ("--out", "--time", "--step"), "cone",
    ),
    "pca": Command(
        "run the constraint ladder and report annihilators",
        cmd_pca, ("--out", "--covector", "--step"),
    ),
    "extremal": Command(
        "integrate a biextremal from an initial covector",
        cmd_extremal, ("--out", "--covector", "--step"),
    ),
    "audit": Command(
        "check the necessary conditions for a candidate covector",
        cmd_audit, ("--out", "--covector", "--time", "--step"), "cone",
    ),
    "mech-check": Command(
        "verify the mechanical generator families and jet identities",
        cmd_mech_check, ("--out", "--time", "--step"), "sample",
    ),
}

_OPTIONS = {  # flag: add_argument keywords (--time takes its help from the rule)
    "--out": {"help": "write the report/CSV here instead of stdout"},
    "--covector": {"help": "comma-separated initial covector components"},
    "--time": {"type": float},
    "--step": {"type": float, "help": "RK4 step of every flow along the reference (default the scenario's)"},
    "--template": {"choices": ("needle", "commutator"), "default": "commutator"},
    "--input": {"type": int, "default": 1, "help": "input index (1-based)"},
    "--u1": {"help": "needle control value, comma separated"},
    "--l1": {"type": float, "default": 1.0},
    "--s-max": {"type": float, "default": 0.4},
    "--samples": {"type": int, "default": 33},
}

_CHECKS = {  # flag: (accepts, what it accepts); --time follows its rule
    "--l1": (lambda v: 0.0 < v < math.inf, "positive and finite"),
    "--s-max": (lambda v: 0.0 <= v < math.inf, "nonnegative and finite"),
    "--samples": (lambda v: v >= 0, "nonnegative"),
}

_TIME_RULES = {  # rule: --help text; _resolve_time applies it
    "cone": "cone time in (a, b] of the reference interval (default b)",
    "sample": "sample time in [a, b] of the reference interval (default the midpoint)",
}


def _resolve_time(rule: str, interval, t: float | None) -> float:
    """--time under `rule`: a cone time lies in (a, b] and defaults to b; a
    sample time lies in [a, b] (past its ends the reference would only hold
    its end state) and defaults to the midpoint."""
    a, b = interval
    if rule == "cone":
        t = b if t is None else t
        if not a < t <= b:
            raise ScenarioError(f"--time {t} must lie in ({a}, {b}]")
    else:
        t = 0.5 * (a + b) if t is None else t
        if not a <= t <= b:
            raise ScenarioError(f"--time {t} must lie in [{a}, {b}]")
    return t


def run_command(command: str, scenario: Scenario, args) -> tuple[int, str]:
    """Dispatch one analysis; returns (exit_code, payload text).  The handler
    sees --step defaulted to the scenario's and --time resolved by its rule;
    the report echoes the options as given."""
    spec = COMMANDS[command]
    for flag in spec.options:
        if flag in _CHECKS:
            accepts, wanted = _CHECKS[flag]
            value = getattr(args, flag[2:].replace("-", "_"))
            if not accepts(value):
                raise ScenarioError(f"{flag} must be {wanted}, got {value}")
    echoed = ("time", "step", "covector")  # what a JSON report repeats under `options`, in order
    options = {key: getattr(args, key) for key in echoed if getattr(args, key, None) is not None}
    if "--step" in spec.options:  # every command that reads a step follows the reference
        scenario.require_reference(command)
        args.step = scenario.step if args.step is None else args.step
    if spec.time is not None:
        args.time = _resolve_time(spec.time, scenario.interval, args.time)
    code, payload = spec.handler(scenario, args)
    if isinstance(payload, dict):
        payload = render_json(report_envelope(command, scenario, options, payload)) + "\n"
    return code, payload


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one `geocon: error:` line and exit code 1 (see main), not a usage
        # dump and exit code 2, which is kept for verdicts
        raise UsageError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """geocon's parser; for a `command` of the table, with its subparser alone."""
    parser = _Parser(
        prog="geocon",
        allow_abbrev=False,
        description="Geometric control workbench: brackets, variations, cones, "
        "constraint ladders and necessary-condition audits.",
    )
    parser.add_argument("--version", action="version", version=f"geocon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items() if command not in COMMANDS else [(command, COMMANDS[command])]:
        p = sub.add_parser(name, help=spec.help, allow_abbrev=False)  # a prefix is not an option either
        p.add_argument("scenario", help="path to the scenario JSON file")
        for flag in spec.options:
            keywords = _OPTIONS[flag]
            if flag == "--time":
                keywords = dict(keywords, help=_TIME_RULES[spec.time])
            p.add_argument(flag, **keywords)
    return parser


def _unread(extras: list[str], command: str) -> str:
    """The usage error for arguments the command's parser left over."""
    flag = next((arg.split("=")[0] for arg in extras if arg.startswith("-")), None)
    if flag is None:
        return f"unrecognized arguments: {' '.join(extras)}"
    return f"{flag} is not an option of {command}"


def main(argv=None) -> int:
    level = os.environ.get("GEOCON_LOG", "WARNING").upper()
    if level not in ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG"):
        level = "WARNING"
    logging.basicConfig(level=level)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args, extras = build_parser(argv[0] if argv else None).parse_known_args(argv)
        if extras:
            raise UsageError(_unread(extras, args.command))
        scenario = load_scenario(args.scenario)
        log.info("loaded scenario %s (%s)", scenario.name, scenario.digest)
        code, payload = run_command(args.command, scenario, args)
    # the verdicts subclass FieldError and OcpError, so they are caught first
    except (DivergenceError, DegenerateMomentumError) as exc:
        print(f"geocon: verdict: {exc}", file=sys.stderr)
        return 2
    except (
        UsageError, ScenarioError, ExprError, FieldError, OcpError,
        PcaError, MechError, VariationError, ConeError,
    ) as exc:
        print(f"geocon: error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, ValueError) as exc:
        # what the generated code raises when a scenario expression leaves
        # its domain: division by zero, log of a non-positive number, ...
        print(f"geocon: error: domain fault: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:  # a derived expression deeper than the stack
        print(f"geocon: error: expression nested too deeply: {exc}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.write(payload)
        return code
    try:
        Path(args.out).write_text(payload)
    except OSError as exc:  # a directory, a missing parent, no permission, ...
        print(f"geocon: error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Layer spans recorded from outside the program.

The tracer replaces public functions of the ``geocon`` modules with timing
wrappers, in every ``geocon`` module namespace that holds a reference to
them (``geocon.ocp.rk4_path`` is the same object as ``geocon.fields.rk4_path``),
and puts the originals back on :meth:`Tracer.uninstall`.  Spans stay in
memory as ``(name, start, end, parent, job)`` rows and are written out once,
at the end of a run.

A recursive call of a function that already has an open span runs without
a span of its own, so ``render_json`` is timed at its outermost call only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (layer, function) pairs wrapped by the tracer; the layer is the geocon
# module that defines the function.
TRACED = (
    ("cli", "load_scenario"),
    ("cli", "build_parser"),
    ("cli", "run_command"),
    ("cli", "render_json"),
    ("expr", "compile_expression"),
    ("fields", "lie_bracket"),
    ("fields", "rk4_path"),
    ("variations", "sample_perturbation_set"),
    ("variations", "needle_variation"),
    ("variations", "bracket_variation"),
    ("variations", "estimate_jets"),
    ("ocp", "integrate_trajectory"),
    ("ocp", "transport_vector"),
    ("ocp", "integrate_biextremal"),
    ("ocp", "search_normal_lift"),
    ("ocp", "audit_necessary_conditions"),
    ("cone", "assemble_cone"),
    ("cone", "find_supporting_covector"),
    ("cone", "solve_lp_max"),
    ("cone", "is_supporting"),
    ("pca", "run_algorithm"),
    ("pca", "ladder_step"),
    ("pca", "annihilator_at"),
    ("mech", "generator_families"),
)

# Counts kept beside the spans by the hooks at the end of this file.
COUNTERS = (
    "fields.rk4_path.rhs_evals",
    "variations.sample_perturbation_set.vectors",
    "ocp.search_normal_lift.candidates",
    "cone.assemble_cone.generators",
    "cone.solve_lp_max.tableau_cells",
    "cone.solve_lp_max.feasible",
)

# Ratios derived per pass from the counters: name -> (numerator, denominator).
RATIOS = {
    "cone.assemble_cone.kept_ratio": (
        "cone.assemble_cone.generators",
        "variations.sample_perturbation_set.vectors",
    ),
    "cone.solve_lp_max.feasible_ratio": ("cone.solve_lp_max.feasible", "cone.solve_lp_max.calls"),
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for layer, fn in TRACED:
        out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.s", "s"), (f"{layer}.{fn}.self_s", "s")]
    out += [(name, "count") for name in COUNTERS]
    out += [(name, "1") for name in RATIOS]
    out += [("trace.attributed_ratio", "1"), ("trace.overhead_ratio", "1")]
    return out


def _tableau_cells(c, A, b) -> int:
    """Cells of the simplex tableau ``solve_lp_max`` builds for (c, A, b):
    one row per constraint, one column per variable, slack, artificial
    (a row with negative right-hand side) and the right-hand side."""
    rows = len(A)
    artificial = sum(1 for v in b if v < 0)
    return rows * (len(c) + rows + artificial + 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counters: dict[str, int] = defaultdict(int)
        self.job = ""
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [mod for name, mod in sys.modules.items() if name == "geocon" or name.startswith("geocon.")]
        for layer, fn_name in TRACED:
            original = getattr(sys.modules[f"geocon.{layer}"], fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))
        spans, stack, open_count, counters = self.spans, self._stack, self._open, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_count[name]:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(counters, args, kwargs)
            index = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(row)
            stack.append(index)
            open_count[name] += 1
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                open_count[name] -= 1
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        return wrapper

    # -- reporting ---------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to aggregate from: span count and a counter snapshot."""
        return len(self.spans), dict(self.counters)

    def aggregate(self, mark: tuple[int, dict], wall_s: float) -> dict:
        """Per-layer metrics over the spans and counters since `mark`."""
        first, before = mark
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        child = defaultdict(float)
        rooted = 0.0
        for i in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[i]
            duration = end - start
            calls[name] += 1
            inclusive[name] += duration
            if parent < first:
                rooted += duration
            else:
                child[parent] += duration
        self_s = defaultdict(float)
        for i in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            self_s[name] += (end - start) - child.get(i, 0.0)

        out = {}
        for layer, fn_name in TRACED:
            name = f"{layer}.{fn_name}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_s[name]
        for counter in COUNTERS:
            out[counter] = self.counters[counter] - before.get(counter, 0)
        for ratio, (num, den) in RATIOS.items():
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        out["trace.attributed_ratio"] = rooted / wall_s if wall_s > 0 else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")


# -- counter hooks: (before(counters, args, kwargs), after(counters, result)) --


def _count_rhs(counters, args, kwargs):
    rhs = args[0]  # every caller in geocon passes rhs positionally

    def counted(t, x):
        counters["fields.rk4_path.rhs_evals"] += 1
        return rhs(t, x)

    return (counted,) + args[1:], kwargs


def _lp_cells(counters, args, kwargs):
    counters["cone.solve_lp_max.tableau_cells"] += _tableau_cells(*args)
    return args, kwargs


def _lp_feasible(counters, result):
    counters["cone.solve_lp_max.feasible"] += bool(result[0])


def _count_vectors(counters, result):
    counters["variations.sample_perturbation_set.vectors"] += len(result)


def _count_candidates(counters, result):
    counters["ocp.search_normal_lift.candidates"] += result.candidates


def _count_generators(counters, result):
    counters["cone.assemble_cone.generators"] += len(result.generators)


_HOOKS = {
    "fields.rk4_path": (_count_rhs, None),
    "cone.solve_lp_max": (_lp_cells, _lp_feasible),
    "variations.sample_perturbation_set": (None, _count_vectors),
    "ocp.search_normal_lift": (None, _count_candidates),
    "cone.assemble_cone": (None, _count_generators),
}

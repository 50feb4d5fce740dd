"""Vector fields on a single global chart, Lie brackets and numerical flows.

Everything lives on one chart of R^m per scenario, so tangent vectors and
covectors are plain coordinate arrays and the pairing is the dot product.
Fields are expression-backed, which keeps brackets exact (symbolic) while
flows are classical fixed-step RK4, each run as one generated segment of
steps (`expr.compile_segment`).  The integrator works on lists of generic
scalars, so `rk4_path` and `composite_flow` accept durations and states with
Dual parts; that is how jets of flow compositions are computed exactly.
Vectors and covectors move along a flow in the block that `linearized_rhs`
carries after the state.  A point value `vf(x)` walks the field's trees with
the generated code's arithmetic, so it compiles nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import (
    Expr,
    add,
    all_finite as _finite,
    compile_flow,
    compile_segment,
    const,
    evaluate,
    is_zero,
    jacobian,
    mul,
    neg,
    parse_expression,
    real_part,
    render,
    sub,
)

MAX_FLOW_STEPS = 10_000_000
DEFAULT_STEP = 1e-3


class FieldError(Exception):
    pass


class DivergenceError(FieldError):
    """The integrated state left the finite range."""

    def __init__(self, time: float):
        super().__init__(f"flow diverged (non-finite state) near t = {time:.6g}")
        self.time = time


@dataclass(frozen=True, eq=False)
class Point:
    coords: np.ndarray  # float64, or object when it carries Duals

    def __post_init__(self):
        if not _finite(self.coords):
            raise FieldError(f"point has non-finite coordinates: {self.coords!r}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return f"Point({np.array2string(self.coords, separator=', ')})"


def as_point(x) -> Point:
    return x if isinstance(x, Point) else Point(np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class _BasedArray:
    """Float chart components based at a point."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        if comp.shape != (self.base.dim,):
            raise FieldError(
                f"component dimension {comp.shape} does not match base dimension {self.base.dim}"
            )
        if not _finite(comp):
            raise FieldError(f"non-finite components: {comp!r}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


class TangentVector(_BasedArray):
    pass


class Covector(_BasedArray):
    pass


def cached_on(owner, slot: str, build, key=None):
    """build(), made once per `key` and kept on `owner` in its dict `slot`,
    so it is freed with `owner` (frozen dataclasses included)."""
    cache = owner.__dict__.setdefault(slot, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


@dataclass(frozen=True, eq=True)
class VectorField:
    variables: tuple[str, ...]
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.variables) != len(self.components):
            raise FieldError(
                f"{len(self.components)} components on a {len(self.variables)}-variable chart"
            )

    @property
    def dim(self) -> int:
        return len(self.components)

    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Symbolic Jacobian rows d(component_i)/d(variable_j)."""
        return cached_on(self, "_jacobian", lambda: jacobian(self.components, self.variables))

    def flow_components(self):  # for linearized_rhs: components, control names
        return self.components, ()

    def __call__(self, values: Sequence) -> list:
        """f(values), walked with one memo shared across the components."""
        env, memo = dict(zip(self.variables, values)), {}
        return [evaluate(c, env, memo) for c in self.components]

    def __repr__(self):
        comps = ", ".join(render(c) for c in self.components)
        return f"VectorField[{', '.join(self.variables)}]({comps})"


def vector_field(variables: Sequence[str], components: Sequence) -> VectorField:
    """Build a field from strings or expression trees over `variables`."""
    vs = tuple(variables)
    comps = tuple(
        parse_expression(c, vs) if isinstance(c, str) else c for c in components
    )
    return VectorField(vs, comps)


def is_zero_field(vf: VectorField) -> bool:
    return all(is_zero(c) for c in vf.components)


def negate_field(vf: VectorField) -> VectorField:
    """-vf, built once and kept on `vf`."""
    return cached_on(vf, "_negation", lambda: VectorField(vf.variables, tuple(map(neg, vf.components))))


def eval_vector_field(vf: VectorField, x) -> np.ndarray:
    """The float array of `vf` at x, a Point or its coordinate array."""
    coords = x.coords if isinstance(x, Point) else x
    if len(coords) != vf.dim:
        raise FieldError(f"point dimension {len(coords)} does not match field dimension {vf.dim}")
    return np.asarray(vf(coords.tolist()), dtype=float)


def lie_bracket(a: VectorField, b: VectorField) -> VectorField:
    """[a, b]^i = sum_j (a^j db^i/dx^j - b^j da^i/dx^j), built symbolically.

    The two product groups are assembled in the same node order for (a, b)
    and (b, a), which makes antisymmetry exact in floating point as well.
    Each call builds a new field; nothing is kept on `a` or `b`.
    """
    if a.variables != b.variables:
        raise FieldError("bracket of fields on different charts")
    da = a.jacobian()
    db = b.jacobian()
    comps = []
    for i in range(a.dim):
        acc: Expr = const(0.0)
        for j in range(a.dim):
            t_ab = mul(a.components[j], db[i][j])
            t_ba = mul(b.components[j], da[i][j])
            acc = add(acc, sub(t_ab, t_ba))
        comps.append(acc)
    return VectorField(a.variables, tuple(comps))


# ---------------------------------------------------------------------------
# Flows: classical RK4 with a fixed step and one trailing partial step that
# lands exactly on the requested duration.  Durations may carry Dual parts;
# step counts come from the real part only.
# ---------------------------------------------------------------------------


def _check_step_count(duration, step: float):
    """The step guard: a positive finite step, a duration that is not NaN, and
    at most MAX_FLOW_STEPS steps."""
    if not 0.0 < step < math.inf:
        raise FieldError(f"step must be positive and finite, got {step}")
    steps = abs(real_part(duration)) / step
    if math.isnan(steps):
        raise FieldError(f"duration must be a number, got {duration!r}")
    if steps > MAX_FLOW_STEPS:
        raise FieldError(f"|duration|/step = {steps:.3g} exceeds the {MAX_FLOW_STEPS:.0e} step guard")


def _rk4_steps(rhs, t0, h, steps: int, last, t1, x, record):
    """(t, x) after `steps` RK4 steps of size h on any rhs(t, x), then one of size `last`
    landing at t1, each followed by `record(t, x)`; the first non-finite state ends
    the leg as (its time, None).  :func:`expr.compile_segment` keeps this contract and arithmetic."""
    t = t0
    for i in range(1, steps + 2):
        h = last if i > steps else h
        half, sixth = 0.5 * h, h * (1.0 / 6.0)
        k1 = rhs(t, x)
        k2 = rhs(t + half, [xi + half * ki for xi, ki in zip(x, k1)])
        k3 = rhs(t + half, [xi + half * ki for xi, ki in zip(x, k2)])
        k4 = rhs(t + h, [xi + h * ki for xi, ki in zip(x, k3)])
        x = [xi + sixth * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        t = t0 + i * h if i <= steps else t1
        if not _finite(x):
            return t, None
        if record is not None:
            record(t, x)
    return t, x


def rk4_path(rhs, x0: list, t0: float, duration, step: float, record=None) -> list:
    """Integrate dx/dt = rhs(t, x) over `duration` starting at (t0, x0).

    `record(t, x)` follows every step when given; `duration` may be any
    generic scalar, and the last, partial step lands exactly.  A real duration
    equal to 0.0 takes no step: x0 comes back copied (recorded at t0).  One call
    of its generated segment runs the leg of an rhs from :func:`linearized_rhs`,
    :func:`_rk4_steps` that of any other; a non-finite state raises DivergenceError,
    and a state whose length is not the chart's plus its block's a FieldError.
    """
    _check_step_count(duration, step)
    generated = getattr(rhs, "func", None) is _generated_rhs
    if generated:
        owner, controls, tangents, covectors = rhs.args
        _check_state_length(owner, tangents + covectors, x0)
    if duration == 0.0:  # a Dual defines no __eq__, so it never takes this branch
        x = list(x0)
        if record is not None:
            record(t0, x)
        return x
    total = real_part(duration)
    n_full = int(abs(total) / step)
    h = step if total >= 0.0 else -step
    leg = (t0, h, n_full, duration - n_full * h, t0 + total, x0, record)
    if generated:
        t, x = _flow_code(True, owner, tangents or covectors)(controls, tangents, covectors, *leg)
    else:
        t, x = _rk4_steps(rhs, *leg)
    if x is None:
        raise DivergenceError(t)
    return x


def composite_flow(
    seq: Sequence[VectorField], times: Sequence, x0: Point, step: float = DEFAULT_STEP
) -> Point:
    """Apply the flows of `seq` in order: the first field acts first.  The
    state passes between legs as a list (`rk4_path` guards each leg's steps
    and raises on a non-finite state); one Point is built at the end."""
    if len(seq) != len(times):
        raise FieldError(f"{len(seq)} fields but {len(times)} durations")
    x = x0.coords.tolist()
    for vf, t in zip(seq, times):
        x = rk4_path(linearized_rhs(vf), x, 0.0, t, step)
    return Point(np.asarray(x, dtype=object) if any(not isinstance(v, float) for v in x) else np.asarray(x, dtype=float))


def linearized_rhs(owner, tangents: int = 0, covectors: int = 0, controls=None):
    """rhs(t, state) for x' = f(x, u(t)) carrying a flat block after x.

    `owner` (a VectorField or a system) gives f by `flow_components()`;
    `controls` is the list of control values, held for all t, or a callable
    whose `controls(t)` returns that list.  The block holds
    `tangents` vectors moved by delta' = J delta, then `covectors` moved by
    lambda' = -J^T lambda, J = df/dx.  A vector moved alone or in a batch
    comes out bit-identical.  A slice that records (system, controls)
    (`ocp._held_slice`) runs as that system while it lives (held weakly, so
    the system's slice cache forms no reference cycle).
    """
    system, held = owner.__dict__.get("_held", (lambda: None, None))
    owner, controls = (owner, controls) if system() is None else (system(), held)
    return functools.partial(_generated_rhs, owner, controls, tangents, covectors)


def _check_state_length(owner, blocks: int, state):
    n = len(owner.variables)
    if len(state) != n * (1 + blocks):
        raise FieldError(f"state of length {len(state)} for {n} chart coordinates and {blocks} block vectors")


def _generated_rhs(owner, controls, tangents, covectors, t, state):
    _check_state_length(owner, tangents + covectors, state)
    return _flow_code(False, owner, tangents or covectors)(controls, tangents, covectors, t, state)


def _flow_code(segment: bool, owner, blocks):
    """`owner`'s generated segment or right-hand side, compiled at its first
    use and kept on `owner`; a form with J also serves flows without one."""
    code, has_jacobian = owner.__dict__.setdefault("_flow_forms", {}).get(segment, (None, False))
    if code is None or (blocks and not has_jacobian):
        comps, control_names = owner.flow_components()
        jac = jacobian(comps, owner.variables) if blocks else None
        code = (compile_segment if segment else compile_flow)(comps, owner.variables, control_names, jac)
        owner.__dict__["_flow_forms"][segment] = (code, bool(blocks))
    return code

"""The benchmark's workloads: fixture CLI job lists and the dimension sweep.

Each workload has ``setup()`` (build the inputs, as the set-up probes time
it), ``warm_up()`` (untimed first calls), ``run_pass(tracer)``, which runs
the job list once, and ``final_checks(passes)``.  Jobs are timed on the
clock ``run_pass`` receives (see ``calibrate.py``).  The geocon functions
are looked up on their modules at call time, so a tracer installed after
import sees every call.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrate import WallClock
from geocon import cli, cone, ocp, pca


@dataclass
class JobResult:
    id: str
    seconds: float  # wall time
    scaled: float  # at the calibration reference speed
    failure: str | None = None


@dataclass
class PassResult:
    jobs: list[JobResult]
    # sweep only: chart dimension -> rendered results
    rendered: dict[int, str] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(job.seconds for job in self.jobs)

    @property
    def scaled(self) -> float:
        return sum(job.scaled for job in self.jobs)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One ``geocon`` command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class FixtureWorkload:
    """A fixed list of CLI jobs on the bundled scenarios; every report and
    exit code must equal the reference recorded in ``perfbench/refs``."""

    def __init__(self, root: Path, jobs: list[dict], refs_dir: Path):
        self.scenarios = root / "scenarios"
        self.jobs = jobs
        self.refs_dir = refs_dir
        self.refs: dict[str, tuple[int, str, bytes]] = {}

    def argv(self, job: dict) -> list[str]:
        command, scenario, *rest = job["argv"]
        return [command, str(self.scenarios / scenario), *rest]

    def setup(self):
        for name in sorted({job["argv"][1] for job in self.jobs}):
            cli.load_scenario(str(self.scenarios / name))

    def record_references(self) -> dict:
        index = {}
        for job in self.jobs:
            code, out, err = run_cli(self.argv(job))
            (self.refs_dir / f"{job['id']}.out").write_bytes(out.encode())
            index[job["id"]] = {"argv": job["argv"], "exit": code, "stderr": err}
        return index

    def warm_up(self):
        """Read the references, then run the first job of each command once
        so that the first pass does not pay for first calls."""
        index = json.loads((self.refs_dir / "index.json").read_text())
        for job in self.jobs:
            payload = (self.refs_dir / f"{job['id']}.out").read_bytes()
            self.refs[job["id"]] = (index[job["id"]]["exit"], index[job["id"]]["stderr"], payload)
        first_of_command = {}
        for job in self.jobs:
            first_of_command.setdefault(job["argv"][0], job)
        for job in first_of_command.values():
            run_cli(self.argv(job))

    def run_pass(self, clock, tracer=None, label: str = "") -> PassResult:
        results = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{label}{job['id']}"
            mark = clock.mark()
            try:
                outcome = run_cli(self.argv(job))
            except Exception as exc:  # a crash is a failed job, not a failed run
                outcome = exc
            times = clock.since(mark)
            if isinstance(outcome, Exception):
                failure = f"raised {outcome!r}"
            else:
                failure = self._check(job["id"], *outcome)
            results.append(JobResult(job["id"], *times, failure))
        return PassResult(results)

    def _check(self, job_id: str, code, out: str, err: str) -> str | None:
        ref_code, ref_err, ref_out = self.refs[job_id]
        if code != ref_code:
            return f"exit code {code}, reference {ref_code}"
        if out.encode() != ref_out:
            return "report differs from the reference bytes"
        if err != ref_err:
            return f"stderr {err!r}, reference {ref_err!r}"
        return None

    def final_checks(self, passes: list[PassResult]) -> list[JobResult]:
        return []  # every report was compared with its reference


def load_generator(root: Path):
    """The random-system generator of the test suite, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_conftest", root / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class SweepCase:
    m: int
    system: object  # ControlAffineSystem
    values: list  # control values before and after the switch
    x0: np.ndarray
    lam0: np.ndarray


class SweepWorkload:
    """One random control-affine system per chart dimension, analysed with
    the library calls the CLI commands are built from.

    The timed panel is drawn from the fixed panel seed: per m one system,
    its reference (initial state, control values on both sides of the
    switch) and its biextremal covector.  The benchmark seed draws one more
    case, analysed twice after the passes, untimed, to check its results
    and that repeating a seed renders identical results.  The program only
    receives the generated inputs.
    """

    def __init__(self, root: Path, params: dict, seed: int):
        self.root = root
        self.params = params
        self.seed = seed
        self.generator = None
        self.panel: dict[int, SweepCase] = {}

    def draw(self, rng, m: int) -> SweepCase:
        p = self.params
        system = self.generator.random_control_affine(rng, m=m, k=p["k"])
        values = np.round(rng.uniform(*p["control_values"], size=(2, p["k"])), 3).tolist()
        x0 = np.round(rng.uniform(*p["initial_state"], size=m), 3)
        lam0 = np.round(rng.uniform(*p["covector"], size=m), 3)
        return SweepCase(m, system, values, x0, lam0)

    def seeded_case(self) -> SweepCase:
        return self.draw(np.random.default_rng(self.seed), self.params["check_m"])

    def setup(self):
        self.generator = load_generator(self.root)
        for m in self.params["m"]:
            self.panel[m] = self.draw(np.random.default_rng([self.params["panel_seed"], m]), m)

    @staticmethod
    def fresh_system(case: SweepCase):
        """A copy of the case's system without compiled-function caches, so
        every analysis pays for its own expression compiles."""
        s = case.system
        return ocp.build_control_affine(
            s.variables,
            list(s.drift.components),
            [list(vf.components) for vf in s.inputs],
            s.control_box,
        )

    def schedule(self, case: SweepCase):
        return ocp.piecewise_schedule([self.params["interval"][0], self.params["switch_time"]], case.values)

    def warm_up(self):
        case = self.panel[min(self.panel)]
        system = self.fresh_system(case)
        ref = ocp.integrate_trajectory(system, case.x0, self.schedule(case), tuple(self.params["interval"]))
        pca.run_algorithm(system, ref)

    def analyse(self, system, case: SweepCase) -> tuple[str, list[str]]:
        """Every stage on one system; returns (rendered results, failures)."""
        p = self.params
        interval = tuple(p["interval"])
        sched = self.schedule(case)
        ref = ocp.integrate_trajectory(system, case.x0, sched, interval)
        ladder = pca.run_algorithm(system, ref)
        cone_ = cone.assemble_cone(
            system, ref, interval[1], p["sample_times"], per_time_budget=p["per_time_budget"]
        )
        support = cone.find_supporting_covector(cone_)
        bx = ocp.integrate_biextremal(system, case.x0, case.lam0, sched, interval, "reduced")
        lift = ocp.search_normal_lift(ocp.extend_system(system, p["cost"]), ref)

        failures = []
        if support.covector is not None and not cone.is_supporting(support.covector, cone_).supported:
            failures.append(f"m={case.m}: reported covector does not support its cone")
        if lift.found is not None and not lift.best_residual <= lift.tol:
            failures.append(f"m={case.m}: normal lift found with residual {lift.best_residual} > {lift.tol}")
        rendered = cli.render_json(
            {
                "m": case.m,
                "ladder": {"stabilized_at": ladder.stabilized_at, "verdict": pca.abnormal_verdict(ladder)},
                "cone": [g.components for g in cone_.generators],
                "support": {
                    "feasible": support.feasible,
                    "covector": None if support.covector is None else support.covector.components,
                    "max_pairing": support.max_pairing,
                    "separating_margin": support.separating_margin,
                },
                "biextremal": {"final_state": bx.trajectory.xs[-1], "final_momentum": bx.momenta[-1]},
                "normal_lift": {
                    "found": lift.found,
                    "candidates": lift.candidates,
                    "best_residual": lift.best_residual,
                },
            }
        )
        return rendered, failures

    def run_job(self, job_id: str, case: SweepCase, clock) -> tuple[JobResult, str | None]:
        system = self.fresh_system(case)
        mark = clock.mark()
        try:
            text, failures = self.analyse(system, case)
        except Exception as exc:  # a crash is a failed job, not a failed run
            return JobResult(job_id, *clock.since(mark), f"raised {exc!r}"), None
        return JobResult(job_id, *clock.since(mark), "; ".join(failures) or None), text

    def run_pass(self, clock, tracer=None, label: str = "") -> PassResult:
        result = PassResult([])
        for m, case in self.panel.items():
            if tracer is not None:
                tracer.job = f"{label}m{m}"
            job, text = self.run_job(f"m{m}", case, clock)
            result.jobs.append(job)
            if text is not None:
                result.rendered[m] = text
        return result

    def final_checks(self, passes: list[PassResult]) -> list[JobResult]:
        """Repeating a seed must render identical results: later passes
        repeat the first, and the seeded case is drawn and analysed twice."""
        out = []
        first = passes[0].rendered
        for later in passes[1:]:
            for m, text in later.rendered.items():
                if m in first and text != first[m]:
                    out.append(JobResult(f"repeat-m{m}", 0.0, 0.0, f"m={m}: a repeated pass rendered different results"))
        texts = []
        for attempt in ("seeded", "seeded-repeat"):
            case = self.seeded_case()
            job, text = self.run_job(f"{attempt}-m{case.m}", case, WallClock())
            out.append(job)
            texts.append(text)
        if None not in texts and texts[0] != texts[1]:
            out[-1].failure = f"repeating seed {self.seed} changed the rendered results"
        return out

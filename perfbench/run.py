#!/usr/bin/env python3
"""geocon benchmark: workloads, checks, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fixtures-light --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                         # every workload, one after another
    python3 perfbench/run.py --self-check            # one traced pass of each workload
    python3 perfbench/run.py --record-references     # re-record the fixture reports

Workloads, job lists, the sweep's generator parameters and what every metric
means live in ``perfbench/spec.json``.  A workload runs closed-loop in this
one process, one job at a time, repeating passes over its job list until
``--seconds`` have elapsed (at least one pass).  Set-up is timed in child
processes: interpreter start, ``import geocon`` and building the inputs,
median of ``SETUP_PROBES``, in wall time.  Pass and job times are
reported at the calibration reference speed (see ``calibrate.py``), with
their wall times beside them in the printed table and the details file.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
untraced and traced passes alternate; the per-layer metrics are medians
over the traced passes and ``trace.overhead_ratio`` compares the two kinds
of pass.  Outputs are checked either way: fixture reports and exit codes
byte for byte against ``perfbench/refs``, sweep results as
``workloads.SweepWorkload`` describes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Pass and job
times, failures, generator parameters and, with tracing, the spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
REQUIRED = ("src/geocon/__init__.py", "src/geocon/cli.py", "scenarios", "tests/conftest.py")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_geocon():
    """Put the checkout's sources first on the path and import them."""
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        fail(f"not a geocon source checkout: {', '.join(missing)} missing under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import geocon
    import geocon.cli  # noqa: F401  (not imported by the package; the tracer patches it)

    if Path(geocon.__file__).resolve().parent != ROOT / "src" / "geocon":
        fail(f"imported geocon from {geocon.__file__}, not from {ROOT / 'src'}")


def make_workload(name: str, seed: int, spec: dict):
    from workloads import FixtureWorkload, SweepWorkload

    entry = spec["workloads"][name]
    if "jobs" in entry:
        return FixtureWorkload(ROOT, entry["jobs"], HERE / "refs")
    return SweepWorkload(ROOT, entry["generator"], seed)


def time_setup(name: str, seed: int) -> list[float]:
    """Wall seconds from child start to "ready", per probe.  The speed
    sampler is not running: its snippets would compete with the child."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                fail(f"set-up probe for {name} exited with {child.returncode}")
    return times


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or the
    slowest sample while that percentile would not reach the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}, 10 beyond"


def measure(workload, seconds: float, trace: bool, sampler, traced_only: bool = False):
    """Run passes until `seconds` have elapsed.  With `trace`, untraced and
    traced passes alternate (only traced ones with `traced_only`); the
    speed sampler pauses during traced passes, which report wall time.
    Returns (untraced passes, traced passes, per-layer metrics of each
    traced pass, tracer)."""
    from calibrate import WallClock
    from tracer import Tracer

    tracer = Tracer() if trace else None
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and (traced_only or len(traced) < len(plain)):
            sampler.pause()
            tracer.install()
            mark = tracer.mark()
            try:
                result = workload.run_pass(WallClock(), tracer, label=f"p{len(plain) + len(traced)}.")
            finally:
                tracer.uninstall()
                sampler.resume()
            traced.append(result)
            layers.append(tracer.aggregate(mark, result.seconds))
        else:
            plain.append(workload.run_pass(sampler))
        complete = not trace or traced_only or traced
        if complete and time.perf_counter() >= deadline:
            return plain, traced, layers, tracer


def median_scaled(samples: list[tuple[float, float]], note: str) -> tuple[float, str]:
    """Median scaled seconds of (wall, scaled) samples; the note carries
    the median wall time."""
    wall = statistics.median(w for w, _ in samples)
    return statistics.median(s for _, s in samples), f"{note}; wall {wall:.4g} s"


def summarise(name: str, seed: int, seconds: float, trace: bool, spec: dict, traced_only: bool = False):
    from calibrate import SpeedSampler
    from tracer import layer_metric_names

    workload = make_workload(name, seed, spec)
    setup = [] if trace else time_setup(name, seed)
    with SpeedSampler() as sampler:
        workload.setup()
        workload.warm_up()
        plain, traced, layers, tracer = measure(workload, seconds, trace, sampler, traced_only)
    passes = plain + traced
    jobs = [job for p in passes for job in p.jobs] + workload.final_checks(passes)
    failures = [(job.id, job.failure) for job in jobs if job.failure]

    e2e = {}
    if setup:
        e2e["setup_s"] = ("s", statistics.median(setup), f"median of {len(setup)} probes, wall time")
    if plain:
        pass_times = [(p.seconds, p.scaled) for p in plain]
        e2e["pass_s"] = ("s", *median_scaled(pass_times, f"median of {len(plain)} passes"))
        e2e["pass_tail_s"] = ("s", *tail([scaled for _, scaled in pass_times]))
    if hasattr(workload, "panel"):
        for m in workload.panel:
            samples = [(j.seconds, j.scaled) for p in plain for j in p.jobs if j.id == f"m{m}"]
            if samples:
                e2e[f"system_m{m}_s"] = ("s", *median_scaled(samples, f"median of {len(samples)}"))
    e2e["peak_rss_mb"] = ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "this process")
    e2e["fail_ratio"] = ("1", len(failures) / len(jobs), f"{len(failures)} of {len(jobs)} jobs")

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load": spec["load"],
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (u, v, n) in e2e.items()},
        "setup_s_samples": setup,
        "pass_s_samples": [(p.seconds, p.scaled) for p in plain],
        "traced_pass_s_samples": [(p.seconds, p.scaled) for p in traced],
        "job_s_samples": {},
    }
    for job in jobs:
        result["job_s_samples"].setdefault(job.id, []).append((job.seconds, job.scaled))
    if hasattr(workload, "params"):
        result["generator"] = workload.params
    if trace:
        per_layer = {}
        for metric, unit in layer_metric_names():
            if metric == "trace.overhead_ratio":
                if not plain:
                    continue
                value = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in plain) - 1.0
            else:
                value = statistics.median(agg[metric] for agg in layers)
            per_layer[metric] = {"value": value, "unit": unit}
        result["per_layer"] = per_layer
    return result, tracer


def report(result: dict, benchmark: dict) -> dict:
    """Print the human-readable table; return the result line (the last line of output)."""
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}  ({result['load']})")
    for job_id, failure in result["failures"]:
        print(f"  FAILED {job_id}: {failure}")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<14} {m['value']:>12.6g} {m['unit']:<3} ({m['note']})")
    if "generator" in result:
        print(f"  generator      {json.dumps(result['generator'], sort_keys=True)}")
    if result["trace"]:
        for name, m in result["per_layer"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    wanted, source = (
        (benchmark["per_layer"], result["per_layer"]) if result["trace"] else (benchmark["end_to_end"], result["end_to_end"])
    )
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }


def write_details(result: dict, tracer):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.jsonl")
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")


def run_all(args, names: list[str]) -> int:
    """Each workload in a child process of its own, one after another."""
    status = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            lines = child.stdout.read().splitlines()
            code = child.wait()
        print("\n".join(lines[:-1]))
        if code != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def self_check(spec: dict, seed: int) -> int:
    """One traced pass of every workload: no failed job, and at least 95%
    of each pass's wall time inside layer spans."""
    status = 0
    for name in spec["workloads"]:
        result, _ = summarise(name, seed, 0.0, True, spec, traced_only=True)
        attributed = result["per_layer"]["trace.attributed_ratio"]["value"]
        fail_ratio = result["end_to_end"]["fail_ratio"]["value"]
        traced_pass_wall = result["traced_pass_s_samples"][0][0]
        ok = fail_ratio == 0 and attributed >= 0.95
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name:<15} fail_ratio {fail_ratio:.3g}  "
              f"trace.attributed_ratio {attributed:.4f}  pass {traced_pass_wall:.3f} s")
        for job_id, failure in result["failures"]:
            print(f"     {job_id}: {failure}")
    return status


def record_references(spec: dict):
    from workloads import FixtureWorkload

    refs, index = HERE / "refs", {}
    refs.mkdir(exist_ok=True)
    for entry in spec["workloads"].values():
        if "jobs" in entry:
            index.update(FixtureWorkload(ROOT, entry["jobs"], refs).record_references())
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(index.items())]
    (refs / "index.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(index)} fixture reports under {refs.relative_to(ROOT)}")


def main(argv=None) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    names = list(spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true", help="one traced pass per workload, then a verdict")
    ap.add_argument("--record-references", action="store_true", help="re-record the fixture reports")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    if args.workload == "all" and not (args.self_check or args.record_references):
        return run_all(args, names)
    import_geocon()
    if args.setup_probe:
        make_workload(args.workload, args.seed, spec).setup()
        print("ready", flush=True)
        return 0
    if args.self_check:
        return self_check(spec, args.seed)
    if args.record_references:
        record_references(spec)
        return 0

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, tracer = summarise(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    line = report(result, benchmark)
    write_details(result, tracer)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

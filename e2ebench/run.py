#!/usr/bin/env python3
"""End-to-end benchmark of the Scallop reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload steady --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced in several fresh interpreters
(``worker.py``) and prints the median of every end-to-end metric over them;
``--trace 1`` runs it once untraced and once under the span tracer
(:mod:`bench_trace`), in this process, and prints the per-layer metrics
instead.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A failed output check prints ``"correct": false`` with no metrics and exits
with status 1.  The run record (seed, horizon, step, sample counts, digests,
interpreter, GIL regime, ``nproc``) is printed on the line before it and
written under ``e2ebench/out/``, together with the traced run's raw spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Each untraced run measures WORKERS fresh interpreters one after another
#: (``worker.py``), each given an equal share of --seconds, and reports the
#: median of every metric over them.
WORKERS = 5
#: Simulated seconds per wall second each scenario sustains on a 2-core
#: x86 box; a worker's horizon is derived from its share of --seconds with
#: it, so the horizon (and hence every output digest) is a function of the
#: arguments alone, never of how fast this particular run went.
SIM_PER_WALL = {"steady": 0.6, "churn_storm": 0.4}
#: A scenario pass covers at least this many steps (p90 needs 100).
MIN_SCENARIO_STEPS = 100
#: Worker start-up (interpreter, imports, set-up) left out of its share.
WORKER_OVERHEAD_S = 1.0
#: A worker still running after this long is killed and fails the run.
WORKER_TIMEOUT_S = 60
#: The dataplane workload replays one fixed window of simulated ingress on a
#: fresh pipeline per replay; a worker replays it at least twice, then until
#: its share of --seconds (less input generation) has passed.  Every replay
#: produces the same outputs, so the replay count changes the sample size,
#: never a digest.
DATAPLANE_WINDOW_S = 2.0
DATAPLANE_GENERATE_S = 1.0
#: The traced run's horizon as a share of what --seconds would give one
#: pass (it makes an untraced and a slower traced pass in one process).
TRACE_HORIZON_SHARE = 0.4
#: Replays of each pass in a traced dataplane run.
TRACE_REPLAYS = 3


def _fail_without_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)


_fail_without_source()
sys.path.insert(0, SRC)

import bench_stats  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402
from bench_metrics import COVERAGE, END_TO_END, PER_LAYER, per_layer_metrics  # noqa: E402


def scenario_horizon(workload: str, wall_s: float) -> float:
    """Simulated horizon a pass of ``wall_s`` wall seconds covers."""
    steps = max(MIN_SCENARIO_STEPS, math.floor(wall_s * SIM_PER_WALL[workload] / wl.SCENARIO_STEP_S))
    return steps * wl.SCENARIO_STEP_S


def end_to_end(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The result line's metrics: every end-to-end metric with its unit."""
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def run_record_base(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    is_gil_enabled = getattr(sys, "_is_gil_enabled", None)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": "enabled" if is_gil_enabled is None or is_gil_enabled() else "disabled",
        "nproc": os.cpu_count(),
        "executor": "serial",
    }


# ---------------------------------------------------------------------- workers


def run_workers(workload: str, seed: int, horizon_s: float, replay_s: float) -> Tuple[List[dict], List[str]]:
    """Run WORKERS measured passes, one fresh interpreter after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    results: List[dict] = []
    problems: List[str] = []
    for _ in range(WORKERS):
        try:
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), repr(horizon_s), repr(replay_s)],
                capture_output=True,
                text=True,
                env=env,
                cwd=ROOT,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"worker exceeded {WORKER_TIMEOUT_S} s and was killed")
            continue
        if completed.returncode != 0:
            tail = completed.stderr.strip().splitlines()[-1:] or ["no output"]
            problems.append(f"worker exited with {completed.returncode}: {tail[0]}")
            continue
        results.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return results, problems


def aggregate(results: List[dict], record: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Median of every end-to-end metric over the workers' passes."""
    record["workers"] = [{"metrics": r["metrics"], "samples": r["samples"]} for r in results]
    return end_to_end({name: bench_stats.median([r["metrics"][name] for r in results]) for name in END_TO_END})


# ---------------------------------------------------------------------- digests


def check_digest(workload: str, seed: int, horizon_s: float, digest: str) -> Optional[str]:
    """Compare against (or record) the digest earlier runs in this checkout
    produced for the same workload, seed and horizon."""
    key = f"{workload}|seed={seed}|horizon={horizon_s}"
    path = os.path.join(OUT, "digests.json")
    known: Dict[str, str] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    previous = known.get(key)
    if previous is not None:
        return None if previous == digest else f"digest {digest} differs from earlier run's {previous} for {key}"
    known[key] = digest
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


# ---------------------------------------------------------------------- scenarios


def scenario_untraced(workload: str, seed: int, seconds: float, record: Dict[str, object]):
    horizon = scenario_horizon(workload, seconds / WORKERS - WORKER_OVERHEAD_S)
    results, problems = run_workers(workload, seed, horizon, 0.0)
    for result in results:
        problems.extend(result["problems"])
    digests = sorted({result["digest"] for result in results})
    if len(digests) > 1:
        problems.append(f"passes of the same seed produced different summaries: {digests}")
    elif digests:
        mismatch = check_digest(workload, seed, horizon, digests[0])
        if mismatch:
            problems.append(mismatch)
    attempted = sum(result["attempted"] for result in results) or 1
    failed = sum(result["failed"] for result in results)
    record.update(
        horizon_s=horizon,
        step_s=wl.SCENARIO_STEP_S,
        digest=digests[0] if len(digests) == 1 else digests,
        behaviour=results[0]["behaviour"] if results else {},
        fail_ratio=failed / attempted,
        problems=problems,
    )
    metrics = aggregate(results, record) if len(results) == WORKERS else {}
    return attempted, failed, problems, metrics


def scenario_traced(workload: str, seed: int, seconds: float, record: Dict[str, object]):
    horizon = max(
        2.0, math.floor(seconds * SIM_PER_WALL[workload] * TRACE_HORIZON_SHARE / wl.SCENARIO_STEP_S) * wl.SCENARIO_STEP_S
    )
    gc.collect()
    plain = wl.run_scenario(workload, seed, horizon)
    tracer = bench_trace.Tracer()
    coordinator: Dict[str, object] = {}

    def arm(run) -> None:
        # the existing coordinator stage profile, for the sharded workload
        pipeline = run.sfu.pipeline
        if hasattr(pipeline, "coordinator_stats"):
            from repro.experiments.coordstats import CoordinatorStats

            coordinator["stats"] = pipeline.coordinator_stats = CoordinatorStats()
        tracer.reset()

    tracer.install()
    try:
        gc.collect()
        traced = wl.run_scenario(workload, seed, horizon, on_built=arm)
    finally:
        tracer.uninstall()
    problems = list(plain.problems) + list(traced.problems)
    mismatch = check_digest(workload, seed, horizon, plain.digest)
    if mismatch:
        problems.append(mismatch)
    if traced.digest != plain.digest:
        problems.append("tracing changed the scenario's CLI summary")
    if traced.behaviour != plain.behaviour:
        problems.append(f"tracing changed behaviour: {plain.behaviour} vs {traced.behaviour}")
    uncalled = tracer.uncalled(COVERAGE[workload])
    if uncalled:
        problems.append(f"wrapped entry points never called: {uncalled}")
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    kept = tracer.write_spans(spans_path)
    record.update(
        horizon_s=horizon,
        step_s=wl.SCENARIO_STEP_S,
        digest=plain.digest,
        behaviour=traced.behaviour,
        untraced_wall_s=plain.wall_s,
        traced_wall_s=traced.wall_s,
        spans_file=os.path.relpath(spans_path, ROOT),
        spans_kept=kept,
        entries={name: [e.calls, e.self_ns, e.total_ns, e.items] for name, e in sorted(tracer.stats.items())},
        problems=problems,
    )
    metrics = per_layer_metrics(
        tracer,
        traced_wall_s=traced.wall_s,
        untraced_wall_s=plain.wall_s,
        behaviour=traced.behaviour,
        coordinator=coordinator.get("stats"),
    )
    attempted = plain.attempted + traced.attempted
    return attempted, plain.failed + traced.failed, problems, metrics


# ---------------------------------------------------------------------- dataplane


def dataplane_reference(inputs) -> wl.ReplayOutcome:
    """The untimed per-packet ``process()`` pass on a fresh pipeline."""
    return wl.replay_dataplane(wl.configure_dataplane(inputs.layout), inputs, per_packet=True)


def dataplane_problems(inputs, passes: List[dict], reference: wl.ReplayOutcome) -> Tuple[int, List[str]]:
    """Compare each pass's outputs and counters with the reference."""
    problems = list(reference.errors)
    if reference.failed_packets:
        problems.append(f"reference pass raised on {reference.failed_packets} packets")
    expected = wl.hex_digests(reference)
    failed = 0
    for index, result in enumerate(passes):
        problems.extend(result["problems"])
        failed += result["failed"] + wl.mismatched_packets(inputs, result["burst_digests"], expected)
        if result["digest"] != reference.digest:
            problems.append(f"pass {index}: batch outputs differ from the per-packet reference")
        if result["counters"] != reference.counters:
            problems.append(f"pass {index}: counters differ from the per-packet reference")
    return failed, problems


def dataplane_untraced(seed: int, seconds: float, record: Dict[str, object]):
    replay_s = seconds / WORKERS - WORKER_OVERHEAD_S - DATAPLANE_GENERATE_S
    results, problems = run_workers("dataplane", seed, DATAPLANE_WINDOW_S, replay_s)
    inputs = wl.dataplane_inputs(seed, DATAPLANE_WINDOW_S)
    reference = dataplane_reference(inputs)
    failed, compared = dataplane_problems(inputs, results, reference)
    problems.extend(compared)
    mismatch = check_digest("dataplane", seed, DATAPLANE_WINDOW_S, reference.digest)
    if mismatch:
        problems.append(mismatch)
    attempted = sum(result["attempted"] for result in results) or 1
    record.update(
        horizon_s=DATAPLANE_WINDOW_S,
        step_s=wl.DATAPLANE_STEP_S,
        packets_per_replay=inputs.packets,
        digest=reference.digest,
        behaviour=results[0]["behaviour"] if results else {},
        fail_ratio=failed / attempted,
        problems=problems,
    )
    metrics = aggregate(results, record) if len(results) == WORKERS else {}
    return attempted, failed, problems, metrics


def replay_summary(outcome: wl.ReplayOutcome) -> dict:
    """A replay in the shape :func:`dataplane_problems` compares."""
    return {
        "digest": outcome.digest,
        "burst_digests": wl.hex_digests(outcome),
        "counters": outcome.counters,
        "problems": outcome.errors,
        "failed": outcome.failed_packets,
    }


def dataplane_traced(seed: int, seconds: float, record: Dict[str, object]):
    replays = TRACE_REPLAYS
    inputs = wl.dataplane_inputs(seed, DATAPLANE_WINDOW_S)
    plain = []
    for _ in range(replays):
        pipeline = wl.configure_dataplane(inputs.layout)
        gc.collect()
        plain.append(wl.replay_dataplane(pipeline, inputs))
    tracer = bench_trace.Tracer()
    tracer.install(simulator=False)
    try:
        pipeline = wl.configure_dataplane(inputs.layout)
        tracer.reset()
        gc.collect()
        traced = wl.replay_dataplane(pipeline, inputs)
    finally:
        tracer.uninstall()
    reference = dataplane_reference(inputs)
    failed, problems = dataplane_problems(inputs, [replay_summary(o) for o in plain + [traced]], reference)
    mismatch = check_digest("dataplane", seed, DATAPLANE_WINDOW_S, reference.digest)
    if mismatch:
        problems.append(mismatch)
    uncalled = tracer.uncalled(COVERAGE["dataplane"])
    if uncalled:
        problems.append(f"wrapped entry points never called: {uncalled}")
    spans_path = os.path.join(OUT, f"spans-dataplane-seed{seed}.jsonl")
    kept = tracer.write_spans(spans_path)
    untraced_wall = bench_stats.median([outcome.busy_ns / 1e9 for outcome in plain])
    traced_wall = traced.busy_ns / 1e9
    behaviour = wl.dataplane_behaviour(pipeline)
    behaviour["bursts"] = len(traced.burst_ns)
    record.update(
        horizon_s=DATAPLANE_WINDOW_S,
        step_s=wl.DATAPLANE_STEP_S,
        replays=replays,
        digest=reference.digest,
        behaviour=behaviour,
        untraced_wall_s=untraced_wall,
        traced_wall_s=traced_wall,
        spans_file=os.path.relpath(spans_path, ROOT),
        spans_kept=kept,
        entries={name: [e.calls, e.self_ns, e.total_ns, e.items] for name, e in sorted(tracer.stats.items())},
        problems=problems,
    )
    metrics = per_layer_metrics(
        tracer,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
        behaviour=behaviour,
        coordinator=None,
    )
    return inputs.packets * (replays + 1), failed, problems, metrics


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length the horizon is derived from")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    record = run_record_base(args.workload, args.seed, args.seconds, args.trace)
    started = time.perf_counter()
    try:
        if args.workload == "dataplane":
            runner = dataplane_traced if args.trace else dataplane_untraced
            attempted, failed, problems, metrics = runner(args.seed, args.seconds, record)
        else:
            runner = scenario_traced if args.trace else scenario_untraced
            attempted, failed, problems, metrics = runner(args.workload, args.seed, args.seconds, record)
    except bench_stats.InsufficientSamples as refusal:
        # the run was too short for a percentile it must report: refuse
        attempted, failed, problems, metrics = 1, 0, [f"refused: {refusal}"], {}
    record["run_wall_s"] = time.perf_counter() - started
    correct = not problems and failed == 0
    record["correct"] = correct
    record["metrics"] = metrics
    if args.trace and metrics:
        # the record keeps the churn-only layer metrics too
        metrics = {name: metrics[name] for name in PER_LAYER}
    path = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("run record: " + json.dumps(record, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics if correct else {}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

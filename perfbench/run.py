"""Benchmark of the PIMphony serving simulator: host time, host memory, simulated results.

Each workload is one shipped example spec run in one engine mode (see
``workloads.py`` and ``README.md``).  For ``--seconds`` seconds the
benchmark repeats one measurement, each in a fresh process (``child.py``):
parse and build the spec several times, then run it once.  End-to-end
metrics are medians over those measurements.  With ``--trace 1`` every
other measurement is traced, and the per-layer metrics come from the
traced ones.  Every run also simulates the default and the held-out seed
and compares them with ``reference.json``.

    python3 perfbench/run.py --workload production_day --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    Workload,
    spec_for,
)

REFERENCES = HERE / "reference.json"

#: End-to-end metrics: name -> (unit, which direction is better).
END_TO_END: dict[str, tuple[str, str]] = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_tokens_per_s": ("tokens/s", "higher"),
    "sim_ttft_p50_s": ("s", "lower"),
    "sim_tpot_p50_s": ("s", "lower"),
    "sim_tpot_p90_s": ("s", "lower"),
    "sim_goodput": ("fraction", "higher"),
    "sim_replica_hours": ("h", "lower"),
}

#: Per-layer metrics: name -> (unit, which direction is better); host-side
#: unless named ``sim.``.
PER_LAYER: dict[str, tuple[str, str]] = {
    "workloads.self_s": ("s", "lower"),
    "workloads.requests": ("count", "lower"),
    "api.build_s": ("s", "lower"),
    "api.report_s": ("s", "lower"),
    "api.records": ("count", "lower"),
    "api.share": ("fraction", "lower"),
    "fleet.self_s": ("s", "lower"),
    "fleet.dispatches": ("count", "lower"),
    "fleet.segments": ("count", "lower"),
    "fleet.restarts": ("count", "lower"),
    "fleet.scale_decisions": ("count", "lower"),
    "fleet.share": ("fraction", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.runs": ("count", "lower"),
    "engine.preemptions": ("count", "lower"),
    "engine.share": ("fraction", "lower"),
    "pricing.self_s": ("s", "lower"),
    "pricing.step_calls": ("count", "lower"),
    "pricing.span_calls": ("count", "lower"),
    "pricing.prefill_calls": ("count", "lower"),
    "pricing.s_per_call": ("s", "lower"),
    "pricing.share": ("fraction", "lower"),
    "memory.self_s": ("s", "lower"),
    "memory.init_s": ("s", "lower"),
    "memory.allocators_built": ("count", "lower"),
    "memory.reserve_calls": ("count", "lower"),
    "memory.grow_calls": ("count", "lower"),
    "memory.release_calls": ("count", "lower"),
    "memory.preempt_calls": ("count", "lower"),
    "memory.restore_calls": ("count", "lower"),
    "memory.chunks_mapped": ("count", "lower"),
    "memory.chunks_per_reserve": ("count", "lower"),
    "memory.reserve_ok_ratio": ("fraction", "higher"),
    "memory.share": ("fraction", "lower"),
    "host.run_wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "sim.ttft_p90_s": ("s", "lower"),
    "sim.ttft_p99_s": ("s", "lower"),
    "sim.tpot_p99_s": ("s", "lower"),
    "sim.avg_batch_size": ("count", "higher"),
    "sim.kv_capacity_utilization": ("fraction", "higher"),
    "sim.preemptions": ("count", "lower"),
    "sim.queue_delay_mean_s": ("s", "lower"),
    "sim.kv_lost_tokens": ("tokens", "lower"),
    "sim.peak_replicas": ("count", "lower"),
    "sim.host_interventions": ("count", "lower"),
    "sim.pim_utilization": ("fraction", "higher"),
    "sim.attention_cycles": ("cycles", "lower"),
    "sim.fc_cycles": ("cycles", "lower"),
}

#: Untraced measurements every run makes, however short ``--seconds`` is.
MIN_MEASUREMENTS = 2
#: A measurement process that takes longer is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


def _child(
    workload: Workload,
    seed: int,
    traced: bool,
    requests: int | None,
) -> dict[str, Any]:
    """Run one measurement in a fresh single-threaded process and parse its result."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload.name]
    command += ["--seed", str(seed)]
    if traced:
        command.append("--traced")
    if requests is not None:
        command += ["--requests", str(requests)]
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    try:
        completed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=env,
            cwd=ROOT,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"measurement exceeded {CHILD_TIMEOUT_S:.0f} s"}
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": completed.stderr.strip() or f"exit code {completed.returncode}"}


def _reference_runs(
    workload: Workload, seed: int, measured: dict[str, Any]
) -> dict[int, dict[str, Any]]:
    """Simulate both reference seeds, side by side: they are checked, not timed."""
    seeds = [reference for reference in (DEFAULT_SEED, HELD_OUT_SEED) if reference != seed]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            reference: pool.submit(_child, workload, reference, False, None)
            for reference in seeds
        }
        runs = {reference: future.result() for reference, future in futures.items()}
    if seed in (DEFAULT_SEED, HELD_OUT_SEED):
        runs[seed] = measured
    return dict(sorted(runs.items()))


def _same_output(first: dict[str, Any], second: dict[str, Any]) -> bool:
    """Bit-identical simulated output: the same record hash and metric values."""
    return first["digest"] == second["digest"] and json.dumps(
        first["sim"], sort_keys=True
    ) == json.dumps(second["sim"], sort_keys=True)


def measure_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    requests: int | None = None,
) -> dict[str, Any]:
    """Measure one workload for ``seconds`` and check its output."""
    start = time.monotonic()
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    while True:
        untraced.append(_child(workload, seed, False, requests))
        if trace:
            traced.append(_child(workload, seed, True, requests))
        elapsed = time.monotonic() - start
        # Stop where the run's end lands closest to ``seconds``.
        if len(untraced) >= MIN_MEASUREMENTS and elapsed * (1 + 0.5 / len(untraced)) >= seconds:
            break
    measured_s = time.monotonic() - start

    references: dict[int, dict[str, Any]] = {}
    if requests is None:
        references = _reference_runs(workload, seed, untraced[0])

    runs = untraced + traced + list(references.values())
    errors = [run["error"] for run in runs if "error" in run]
    checks: dict[str, bool] = {}
    if not errors:
        for run in runs:
            for name, passed in run["checks"].items():
                checks[name] = checks.get(name, True) and passed
        first = untraced[0]
        checks["sim_repeatable"] = all(_same_output(first, run) for run in untraced[1:])
        if trace:
            checks["traced_equals_untraced"] = all(_same_output(first, run) for run in traced)
        if references:
            recorded = (
                json.loads(REFERENCES.read_text()).get(workload.name, {})
                if REFERENCES.exists()
                else {}
            )
            for reference_seed, run in references.items():
                expected = recorded.get(str(reference_seed))
                checks[f"reference_seed_{reference_seed}"] = expected is not None and (
                    _same_output(expected, run)
                )
    checks["measurements_completed"] = not errors

    correct = all(
        passed for name, passed in checks.items() if name not in workload.known_defects
    )
    attempted = spec_for(workload, seed, requests)["trace"]["num_requests"]
    if correct:
        first = untraced[0]
        failed = attempted - first["served"] + first["dead_replica_finishes"]
    else:
        failed = attempted

    metrics: dict[str, float] = {}
    if not errors:
        metrics["run_s"] = statistics.median(run["run_s"] for run in untraced)
        metrics["setup_s"] = statistics.median(
            value for run in untraced for value in run["setup_s"]
        )
        metrics["peak_rss_mb"] = statistics.median(run["peak_rss_mb"] for run in untraced)
        metrics.update(untraced[0]["sim"])
        metrics["host.run_wall_s"] = statistics.median(run["run_wall_s"] for run in untraced)
        if trace:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(run["layers"][name] for run in traced)
            metrics["trace.run_s"] = statistics.median(run["run_s"] for run in traced)
            metrics["trace.overhead_ratio"] = metrics["trace.run_s"] / metrics["run_s"]
    return {
        "workload": workload,
        "seed": seed,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "checks": checks,
        "errors": errors,
        "untraced_runs": [run.get("run_s") for run in untraced],
        "untraced_walls": [run.get("run_wall_s") for run in untraced],
        "traced_runs": [run.get("run_s") for run in traced],
        "setups": sum(len(run.get("setup_s", ())) for run in untraced),
        "measured_s": measured_s,
        "dead_replica_finishes": untraced[0].get("dead_replica_finishes", 0),
    }


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(summary: dict[str, Any], trace: bool) -> None:
    """Human-readable report of one workload (before the JSON line)."""
    workload: Workload = summary["workload"]
    metrics = summary["metrics"]
    print(f"== {workload.name}  seed={summary['seed']}  spec={workload.spec}")
    print(
        f"   {len(summary['untraced_runs'])} untraced + {len(summary['traced_runs'])} traced "
        f"measurements in {summary['measured_s']:.1f} s, each in a fresh process; "
        f"{summary['setups']} untraced set-ups"
    )
    if metrics:
        for name, (unit, better) in END_TO_END.items():
            print(f"   {name:<28} {_format(metrics[name]):>14} {unit:<9}  ({better} is better)")
        for label, key in (("corrected", "untraced_runs"), ("wall", "untraced_walls")):
            values = " ".join(f"{value:.3f}" for value in summary[key])
            print(f"   {'':<28} run_s per measurement, {label}: {values}")
        percentile = round(workload.tail * 100)
        for kind in ("ttft", "tpot"):
            name = f"{kind}_p{percentile}_s"
            value = metrics.get(f"sim_{name}", metrics.get(f"sim.{name}"))
            print(
                f"   {'sim_' + name:<28} {_format(value):>14} s          "
                "(tail: highest percentile with >= 10 requests beyond it)"
            )
        if trace:
            for name, (unit, better) in PER_LAYER.items():
                value = _format(metrics[name])
                print(f"   {name:<28} {value:>14} {unit:<9}  ({better} is better)")
    print(f"   requests attempted {summary['attempted']}, failed {summary['failed']}")
    for name, passed in summary["checks"].items():
        if passed:
            status = "PASS"
        elif name in workload.known_defects:
            status = "FAIL (known defect; does not make the run incorrect)"
        else:
            status = "FAIL"
        detail = ""
        if name == "no_finish_on_dead_replica" and not passed:
            count = summary["dead_replica_finishes"]
            detail = f": {count} requests finished after their replica failed"
        print(f"   check {name:<36} {status}{detail}")
    for error in summary["errors"]:
        print("   error: " + error.strip().splitlines()[-1])
    print(f"   correct: {str(summary['correct']).lower()}")


def result_line(summary: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The JSON result of one workload: end-to-end or per-layer metrics."""
    table = PER_LAYER if trace else END_TO_END
    names = {name: unit for name, (unit, _) in table.items()}
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": summary["metrics"][name], "unit": unit}
            for name, unit in names.items()
            if name in summary["metrics"]
        },
    }


def record_references() -> None:
    """Simulate the reference seeds of every workload and save their outputs."""
    recorded: dict[str, dict[str, Any]] = {}
    for workload in WORKLOADS.values():
        recorded[workload.name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            run = _child(workload, seed, False, None)
            if "error" in run:
                raise SystemExit(f"{workload.name} seed {seed} failed:\n{run['error']}")
            recorded[workload.name][str(seed)] = {"sim": run["sim"], "digest": run["digest"]}
    REFERENCES.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="shrink every trace to this many requests (smoke tests; skips reference checks)",
    )
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="re-simulate the reference seeds and rewrite reference.json",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_references:
        record_references()
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    summaries = []
    for name in names:
        summary = measure_workload(WORKLOADS[name], args.seed, args.seconds, trace, args.requests)
        print_summary(summary, trace)
        summaries.append(summary)
    if len(summaries) == 1:
        final = result_line(summaries[0], trace)
    else:
        final = {
            "correct": all(summary["correct"] for summary in summaries),
            "attempted": sum(summary["attempted"] for summary in summaries),
            "failed": sum(summary["failed"] for summary in summaries),
            "metrics": {
                f"{summary['workload'].name}.{name}": value
                for summary in summaries
                for name, value in result_line(summary, trace)["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

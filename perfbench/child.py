"""One measurement of one workload, in a fresh process.

Parses and builds the workload's spec repeatedly, timing each set-up (at
least :data:`MIN_SETUPS` times, more while they take under
:data:`SETUP_BUDGET_S` in all), then runs the last build once, timing
``BuiltExperiment.run()``.  Host times are corrected for host-speed drift
(see ``speed.py``); the run's raw wall time is reported too.  With
``--traced`` every layer's entry points are wrapped (see ``tracer.py``) and
the per-layer metrics are added; the spans go to
``.perfbench_out/<workload>.spans.jsonl``.  Prints one JSON object on the last line
of standard output; a run that raises prints ``{"error": ...}`` instead.

    python3 perfbench/child.py --workload production_day --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
#: Where a traced measurement writes its spans (``<workload>.spans.jsonl``).
SPANS_DIR = HERE.parent / ".perfbench_out"

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_report,
    dead_replica_finishes,
    records_digest,
    records_of,
    sim_metrics,
    spec_for,
)


MIN_SETUPS = 3
MAX_SETUPS = 50
SETUP_BUDGET_S = 0.3


def measure(
    name: str,
    seed: int,
    traced: bool,
    requests: int | None = None,
) -> dict[str, Any]:
    """Set up and run one workload; return timings, simulated metrics and checks."""
    from repro.api.spec import ExperimentSpec

    # The module, not the ``repro.api.build`` function the package exports.
    build_module = importlib.import_module("repro.api.build")

    data = spec_for(WORKLOADS[name], seed, requests)
    tracer = Tracer() if traced else None
    setup_ns: list[tuple[int, int]] = []
    built = None
    with SpeedProbe() as probe, install(tracer) if tracer else contextlib.nullcontext():
        while len(setup_ns) < MIN_SETUPS or (
            len(setup_ns) < MAX_SETUPS
            and sum(end - start for start, end in setup_ns) < SETUP_BUDGET_S * 1e9
        ):
            spec_data = copy.deepcopy(data)
            built = None
            gc.collect()
            with _root_span(tracer, f"setup{len(setup_ns)}"):
                start = time.perf_counter_ns()
                built = build_module.build(ExperimentSpec.from_dict(spec_data))
                setup_ns.append((start, time.perf_counter_ns()))
        assert built is not None
        gc.collect()
        if tracer is not None:
            tracer.counts.clear()
        with _root_span(tracer, "run"):
            run_start = time.perf_counter_ns()
            report = built.run()
            run_end = time.perf_counter_ns()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def wall_s(start: int, end: int) -> float:
        return (end - start) / 1e9 - probe.handler_s(start, end)

    setup_factor = probe.factor(setup_ns[0][0], setup_ns[-1][1])
    run_wall_s = wall_s(run_start, run_end)
    result: dict[str, Any] = {
        "setup_s": [wall_s(start, end) * setup_factor for start, end in setup_ns],
        "run_s": run_wall_s * probe.factor(run_start, run_end),
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "served": report.requests_served,
        "dead_replica_finishes": dead_replica_finishes(report),
        "sim": sim_metrics(report),
        "checks": check_report(report),
        "digest": records_digest(report),
    }
    if tracer is not None:
        setup_ids = [f"setup{index}" for index in range(len(setup_ns))]
        # Spans include the speed probe's handler, so shares use the raw interval.
        layers = layer_metrics(tracer, setup_ids, "run", (run_end - run_start) / 1e9)
        timeline = report.fleet_timeline
        layers.update(
            {
                "workloads.requests": len(built.trace.requests),
                "api.records": len(records_of(report)),
                "fleet.segments": len(timeline.segments) if timeline is not None else 0,
                "fleet.restarts": timeline.restarts if timeline is not None else 0,
                "fleet.scale_decisions": len(timeline.decisions) if timeline is not None else 0,
                "engine.preemptions": report.preemptions,
            }
        )
        result["layers"] = layers
        tracer.write(SPANS_DIR / f"{name}.spans.jsonl")
    return result


@contextlib.contextmanager
def _root_span(tracer: Tracer | None, run_id: str) -> Any:
    if tracer is None:
        yield
        return
    tracer.run_id = run_id
    with tracer.span(run_id, "bench"):
        yield


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--requests", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.traced, args.requests)
    except Exception:  # reported to the parent, which counts the run as failed
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

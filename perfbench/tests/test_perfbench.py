"""Tests of the benchmark itself, at tiny request counts.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    check_report,
    records_digest,
    sim_metrics,
    spec_for,
)

TINY = 12


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
        check=False,
    )


def _tiny_report(name: str, requests: int = TINY):
    from repro.api.spec import ExperimentSpec

    build = importlib.import_module("repro.api.build").build
    return build(ExperimentSpec.from_dict(spec_for(WORKLOADS[name], DEFAULT_SEED, requests))).run()


@pytest.fixture(scope="module")
def traced_all() -> subprocess.CompletedProcess[str]:
    return _run("--workload", "all", "--seconds", "0", "--requests", str(TINY), "--trace", "1")


def test_every_workload_runs_correctly(traced_all: subprocess.CompletedProcess[str]) -> None:
    assert traced_all.returncode == 0, traced_all.stderr
    result = json.loads(traced_all.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == TINY * len(WORKLOADS)


def test_every_metric_prints_with_its_unit(traced_all: subprocess.CompletedProcess[str]) -> None:
    lines = traced_all.stdout.splitlines()
    for name in WORKLOADS:
        block_start = lines.index(next(line for line in lines if line.startswith(f"== {name} ")))
        block = lines[block_start:]
        for metric, (unit, _) in [*bench.END_TO_END.items(), *bench.PER_LAYER.items()]:
            printed = [line for line in block if line.split()[:1] == [metric]]
            assert printed and f" {unit}" in printed[0], metric
        assert any("requests attempted" in line for line in block)
    metrics = json.loads(lines[-1])["metrics"]
    for name in WORKLOADS:
        for metric, (unit, _) in bench.PER_LAYER.items():
            assert metrics[f"{name}.{metric}"]["unit"] == unit


def test_untraced_result_holds_every_end_to_end_metric() -> None:
    completed = _run(
        "--workload", "pim_qmsum_long", "--seconds", "0", "--requests", str(TINY), "--trace", "0"
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        name: unit for name, (unit, _) in bench.END_TO_END.items()
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_a_dropped_record_fails_the_checks() -> None:
    report = _tiny_report("pim_tiered_pressure")
    assert all(check_report(report).values())
    result = report.replica_results[0]
    damaged = dataclasses.replace(
        report,
        replica_results=(
            dataclasses.replace(result, request_records=result.request_records[:-1]),
        ),
    )
    checks = check_report(damaged)
    assert not checks["records_match_served"]
    assert not checks["generated_tokens_eq_total"]
    assert records_digest(damaged) != records_digest(report)


def test_out_of_order_timestamps_fail_the_checks() -> None:
    report = _tiny_report("production_day", requests=30)
    record = report.replica_results[0].request_records[0]
    record.first_token_s = record.finish_s + 1.0
    assert not check_report(report)["timestamps_ordered"]


def test_simulated_metrics_repeat_exactly() -> None:
    first = _tiny_report("pim_qmsum_long")
    second = _tiny_report("pim_qmsum_long")
    assert sim_metrics(first) == sim_metrics(second)
    assert records_digest(first) == records_digest(second)


def test_seed_sets_the_inputs() -> None:
    for workload in WORKLOADS.values():
        assert spec_for(workload, 3) == spec_for(workload, 3)
        assert spec_for(workload, 3) != spec_for(workload, 4)
    tiered = WORKLOADS["pim_tiered_pressure"]
    bandwidths = {
        spec_for(tiered, seed)["preemption"]["swap_bandwidth_gbps"] for seed in range(20)
    }
    assert len(bandwidths) == 20
    assert all(64.0 * 0.95 <= value <= 64.0 * 1.05 for value in bandwidths)


def test_tracer_removes_its_wrappers() -> None:
    from repro.memory.chunked_alloc import ChunkedAllocator
    from repro.serving.engine import ServingEngine

    before = (vars(ChunkedAllocator)["reserve"], vars(ServingEngine)["run"])
    with tracer.install(tracer.Tracer()):
        assert vars(ChunkedAllocator)["reserve"] is not before[0]
    assert (vars(ChunkedAllocator)["reserve"], vars(ServingEngine)["run"]) == before


def test_speed_correction_scales_to_the_reference_speed() -> None:
    probe = SpeedProbe()
    probe.samples = [(at, 80_000) for at in range(20)]  # the kernel at half speed
    assert probe.factor(0, 20) == pytest.approx(0.5)
    assert probe.handler_s(0, 3) == pytest.approx(3 * 80e-6)
    probe.samples.append((5, 10_000_000))  # one handler preempted by the host
    assert probe.factor(0, 21) == pytest.approx(0.5)
    assert probe.factor(100, 200) == pytest.approx(0.5)  # no sample inside: use all
    assert SpeedProbe().factor(0, 1) == 1.0


def test_speed_probe_restores_the_signal_handler() -> None:
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe():
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_matches_the_metric_tables() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
    assert {entry["name"]: (entry["unit"], entry["better"]) for entry in spec["end_to_end"]} == (
        bench.END_TO_END
    )
    assert {entry["name"]: (entry["unit"], entry["better"]) for entry in spec["per_layer"]} == (
        bench.PER_LAYER
    )


def test_references_cover_every_workload() -> None:
    recorded = json.loads(bench.REFERENCES.read_text())
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            entry = recorded[name][str(seed)]
            assert set(bench.END_TO_END) - {"run_s", "setup_s", "peak_rss_mb"} <= set(entry["sim"])


def test_exits_nonzero_without_the_simulator(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pim_qmsum_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""

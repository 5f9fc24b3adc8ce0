"""Fast-engine parity: span stepping must not move any number.

``engine.mode=fast`` runs the same :meth:`~repro.serving.engine.ServingEngine.run`
loop as ``engine.mode=scalar`` with the span cap raised from one evaluation
to :attr:`~repro.serving.fast_engine.FastServingEngine.span_limit`, so the
full :class:`~repro.api.report.RunReport` and every field of every
replica's :class:`~repro.serving.engine.EngineResult` (request records and
metadata included) must match the scalar engine exactly -- on every
shipped example spec (lifecycle preemption and prefix-cache runs included)
and on a seeded sweep of randomized configurations crossing admission x
preemption (priority-aware policies and the starvation guard included) x
prefill x prefix-cache x allocator x stride x router x SLO tiers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, build, run
from repro.api.spec import apply_override
from repro.serving.engine import EngineResult

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_DIR = REPO_ROOT / "examples" / "specs"
SPEC_PATHS = sorted(SPEC_DIR.glob("*.json"))

#: Keys that legitimately differ between the two engine modes.
MODE_KEYS = ("spec", "spec_hash", "engine_mode")

#: EngineResult fields exempt from parity.  Spans priced by a closed-form
#: ``decode_span`` (two or more evaluations, no latency cache) add no
#: attention/FC cycle breakdown, so fast mode undercounts both -- to zero on
#: ``pim_only_qmsum.json``.  Every other field must match exactly.
BREAKDOWN_FIELDS = ("attention_breakdown", "fc_breakdown")


def run_mode(spec_data: dict, mode: str):
    """Run ``spec_data`` in ``mode``; returns (report dict, replica results)."""
    data = json.loads(json.dumps(spec_data))
    apply_override(data, "engine.mode", mode)
    report = run(ExperimentSpec.from_dict(data))
    report_dict = report.to_dict()
    for key in MODE_KEYS:
        report_dict.pop(key, None)
    return report_dict, report.replica_results


def run_report_dict(spec_data: dict, mode: str) -> dict:
    return run_mode(spec_data, mode)[0]


def assert_identical(scalar, fast, path: str = "report") -> None:
    """Recursive exact equality (``nan`` equals ``nan``), naming the first diff."""
    assert type(scalar) is type(fast), path
    if dataclasses.is_dataclass(scalar):
        for item in dataclasses.fields(scalar):
            assert_identical(
                getattr(scalar, item.name), getattr(fast, item.name), f"{path}.{item.name}"
            )
    elif isinstance(scalar, dict):
        assert scalar.keys() == fast.keys(), path
        for key in scalar:
            assert_identical(scalar[key], fast[key], f"{path}.{key}")
    elif isinstance(scalar, (list, tuple)):
        assert len(scalar) == len(fast), path
        for index, (left, right) in enumerate(zip(scalar, fast, strict=True)):
            assert_identical(left, right, f"{path}[{index}]")
    elif isinstance(scalar, float) and math.isnan(scalar):
        assert math.isnan(fast), path
    else:
        assert scalar == fast, path


def assert_parity(scalar: tuple, fast: tuple) -> None:
    """Exact parity of the reports and of every replica's EngineResult."""
    scalar_report, scalar_results = scalar
    fast_report, fast_results = fast
    assert_identical(scalar_report, fast_report)
    assert len(scalar_results) == len(fast_results)
    for index, (left, right) in enumerate(zip(scalar_results, fast_results, strict=True)):
        for item in dataclasses.fields(EngineResult):
            if item.name in BREAKDOWN_FIELDS:
                continue
            assert_identical(
                getattr(left, item.name),
                getattr(right, item.name),
                f"replica[{index}].{item.name}",
            )


@pytest.mark.parametrize("spec_path", SPEC_PATHS, ids=lambda p: p.stem)
def test_example_spec_parity(spec_path):
    spec_data = json.loads(spec_path.read_text())
    assert_parity(run_mode(spec_data, "scalar"), run_mode(spec_data, "fast"))


def test_example_specs_cover_lifecycle_and_prefix_cache():
    """The parity sweep above must include preemption and prefix-cache runs."""
    names = {path.stem for path in SPEC_PATHS}
    assert "preemption_evict_lru" in names
    assert "multi_turn_prefix_cache" in names


def test_fast_mode_deterministic():
    spec_data = json.loads((SPEC_DIR / "xpu_only_qmsum.json").read_text())
    first = run_report_dict(spec_data, "fast")
    second = run_report_dict(spec_data, "fast")
    assert first == second


def test_engine_mode_recorded_in_report():
    spec_data = json.loads((SPEC_DIR / "pim_only_qmsum.json").read_text())
    data = json.loads(json.dumps(spec_data))
    apply_override(data, "engine.mode", "fast")
    report = run(ExperimentSpec.from_dict(data))
    assert report.engine_mode == "fast"
    assert report.to_dict()["engine_mode"] == "fast"


# ---------------------------------------------------------------------------
# Scalar mode stays an independent reference
# ---------------------------------------------------------------------------


def _count_pricing(spec_name: str, mode: str, overrides: dict, monkeypatch):
    """Run a spec with counting wrappers on its system's pricing entry points."""
    data = json.loads((SPEC_DIR / f"{spec_name}.json").read_text())
    apply_override(data, "engine.mode", mode)
    for path, value in overrides.items():
        apply_override(data, path, value)
    built = build(ExperimentSpec.from_dict(data))
    system = built.system
    calls = {"decode_step": 0, "decode_span": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(system, "decode_step", counted("decode_step", system.decode_step))
    span_fn = getattr(system, "decode_span", None)
    if span_fn is not None:
        monkeypatch.setattr(system, "decode_span", counted("decode_span", span_fn))
    return calls, built.run().engine_result


@pytest.mark.parametrize("spec_name", ["xpu_only_qmsum", "pim_only_qmsum"])
def test_scalar_mode_prices_every_evaluation_individually(spec_name, monkeypatch):
    """Scalar mode never takes the closed-form span path.

    With ``step_stride=1`` every evaluation advances exactly one step, so
    one ``decode_step`` call per reported step means one pricing call per
    evaluation.  Both systems do offer a closed-form ``decode_span``.
    """
    calls, result = _count_pricing(
        spec_name, "scalar", {"step_stride": 1, "trace.num_requests": 24}, monkeypatch
    )
    assert calls["decode_span"] == 0
    assert result.steps > 0
    assert calls["decode_step"] == result.steps


def test_fast_mode_takes_the_span_path(monkeypatch):
    """Without this, the parity tests could compare the span path with itself."""
    scalar_calls, _ = _count_pricing("xpu_only_qmsum", "scalar", {}, monkeypatch)
    fast_calls, _ = _count_pricing("xpu_only_qmsum", "fast", {}, monkeypatch)
    assert fast_calls["decode_span"] > 0
    assert fast_calls["decode_step"] < scalar_calls["decode_step"]


# ---------------------------------------------------------------------------
# Randomized configuration sweep
# ---------------------------------------------------------------------------


def _random_spec_dict(rng: random.Random) -> dict:
    """One small randomized configuration crossing the engine's feature axes."""
    source = rng.choice(["synthetic", "dataset", "multi-turn"])
    trace: dict = {"source": source, "num_requests": rng.choice([6, 10, 16])}
    if source == "synthetic":
        trace["prompt_tokens"] = rng.choice([128, 256, 1024])
        trace["output_tokens"] = rng.choice([8, 24, 48])
        if rng.random() < 0.5:
            trace["heavy_every"] = 3
            trace["heavy_prompt_tokens"] = 4096
    elif source == "dataset":
        trace["dataset"] = "qmsum"
        trace["output_tokens"] = rng.choice([8, 24])
    else:
        trace["num_sessions"] = 3
        trace["turns_per_session"] = 3
        trace["followup_tokens"] = 32
        trace["output_tokens"] = rng.choice([8, 16])
        if rng.random() < 0.5:
            trace["turn_gap_s"] = 0.25
    if rng.random() < 0.6:
        trace["arrival"] = "poisson"
        trace["rate_rps"] = rng.choice([20.0, 200.0, 2000.0])
    if source != "multi-turn" and rng.random() < 0.3:
        trace["num_sessions"] = 2
    admission = rng.choice(["fcfs", "capacity-aware", "priority"])
    tiers: list[dict] | None = None
    if rng.random() < 0.5:
        premium: dict = {"name": "premium", "priority": 5, "share": rng.choice([0.25, 0.5])}
        if rng.random() < 0.5:
            premium["ttft_deadline_s"] = 0.5
            premium["tpot_deadline_s"] = rng.choice([0.01, 0.25])
        tiers = [premium]
        if source == "multi-turn" and rng.random() < 0.5:
            tiers.append({"name": "vip", "priority": 9, "sessions": [0]})
        if rng.random() < 0.7:
            tiers.append({"name": "best-effort"})
    elif admission == "priority":
        trace["priority_every"] = 2

    data: dict = {
        "name": "fast-parity-random",
        "model": {"name": "LLM-7B-32K"},
        "system": {"kind": rng.choice(["pim-only", "xpu-only", "xpu-pim"])},
        "allocator": {"mode": rng.choice(["auto", "static", "paged"])},
        "admission": {
            "policy": admission,
            "max_batch_size": rng.choice([None, 4, 8]),
        },
        "trace": trace,
        "seed": rng.randrange(1000),
        "step_stride": rng.choice([1, 4, 16]),
    }
    if tiers is not None:
        data["tiers"] = tiers
    if rng.random() < 0.5:
        data["preemption"] = {
            "policy": rng.choice(
                [
                    "evict-lru",
                    "evict-largest",
                    "evict-youngest",
                    "evict-priority-lru",
                    "evict-priority-largest",
                    "evict-priority-youngest",
                ]
            ),
            "mode": rng.choice(["swap", "recompute"]),
        }
        if rng.random() < 0.5:
            data["preemption"]["starvation_limit"] = rng.choice([1, 3])
    prefill = rng.choice(["none", "blocking", "chunked"])
    if prefill != "none":
        data["prefill"] = {"mode": prefill, "chunk_tokens": rng.choice([256, 512])}
    if rng.random() < 0.4:
        data["prefix_cache"] = {"enabled": True}
        trace.setdefault("num_sessions", 2)
    if rng.random() < 0.3:
        data["latency_cache_bucket"] = 512
    if rng.random() < 0.3:
        data["router"] = {
            "replicas": 2,
            "policy": rng.choice(["round-robin", "capacity-aware", "session-affinity"]),
        }
    return data


@pytest.mark.parametrize("case_seed", range(20))
def test_randomized_config_parity(case_seed):
    """Full RunReport parity on a seeded random spec; errors must match too."""
    rng = random.Random(20260 + case_seed)
    spec_data = _random_spec_dict(rng)
    try:
        scalar = run_mode(spec_data, "scalar")
        scalar_error = None
    except Exception as error:  # noqa: BLE001 - comparing failure surfaces
        scalar, scalar_error = None, error
    try:
        fast = run_mode(spec_data, "fast")
        fast_error = None
    except Exception as error:  # noqa: BLE001
        fast, fast_error = None, error

    if scalar_error is not None or fast_error is not None:
        assert type(scalar_error) is type(fast_error), (scalar_error, fast_error)
        assert str(scalar_error) == str(fast_error)
    else:
        assert_parity(scalar, fast)

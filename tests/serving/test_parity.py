"""Old-vs-new engine parity: the refactor must not move any number.

``_legacy_simulate_serving`` below is a faithful copy of the monolithic
pre-refactor decode loop (isinstance-based admission, engine-side chunk
commitment bookkeeping).  The event-driven :class:`ServingEngine` must
reproduce its throughput, step count and utilisation metrics bit-for-bit
(1e-9) on the same trace for every allocator mode and system model.
"""

from collections import deque
from dataclasses import dataclass

import pytest

from repro.baselines.cent import cent_system_config
from repro.baselines.gpu import GPUSystemModel
from repro.core.orchestrator import PIMphonyConfig
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.static_alloc import AllocationError, StaticAllocator
from repro.pim.simulator import ZERO_BREAKDOWN
from repro.system.serving import simulate_serving
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace


@dataclass
class _ActiveRequest:
    request_id: int
    context: int
    remaining: int


def _legacy_simulate_serving(system, trace, max_batch_size=None, step_stride=1):
    """The seed repository's serving loop, kept verbatim as a reference."""
    if step_stride < 1:
        raise ValueError("step_stride must be >= 1")
    if system.dynamic_memory:
        allocator = ChunkedAllocator(
            capacity_bytes=system.kv_capacity_bytes,
            bytes_per_token=system.kv_bytes_per_token,
        )
    else:
        allocator = StaticAllocator(
            capacity_bytes=system.kv_capacity_bytes,
            max_context_tokens=system.max_context_tokens,
            bytes_per_token=system.kv_bytes_per_token,
        )
    pending = deque(trace.requests)
    active = {}
    committed_chunks = 0
    chunk_commitment = {}

    total_seconds = 0.0
    total_tokens = 0
    steps = 0
    batch_samples = []
    utilization_samples = []
    capacity_samples = []
    attention_total = ZERO_BREAKDOWN
    fc_total = ZERO_BREAKDOWN
    peak_batch = 0
    served = 0

    while pending or active:
        while pending:
            if max_batch_size is not None and len(active) >= max_batch_size:
                break
            request = pending[0]
            final_context = min(
                request.prompt_tokens + request.output_tokens, system.max_context_tokens
            )
            prompt = max(1, final_context - request.output_tokens)
            if isinstance(allocator, ChunkedAllocator):
                needed = allocator.chunks_needed(final_context)
                if committed_chunks + needed > allocator.total_chunks:
                    break
                committed_chunks += needed
                chunk_commitment[request.request_id] = needed
            elif not allocator.can_admit():
                break
            pending.popleft()
            allocator.reserve(request.request_id, prompt)
            active[request.request_id] = _ActiveRequest(
                request_id=request.request_id, context=prompt, remaining=request.output_tokens
            )
            served += 1

        if not active:
            raise AllocationError("no request fits the system's KV-cache capacity")

        stride = min(step_stride, min(entry.remaining for entry in active.values()))
        contexts = [entry.context for entry in active.values()]
        step = system.decode_step(contexts)

        total_seconds += step.seconds * stride
        total_tokens += len(active) * stride
        steps += stride
        batch_samples.append(len(active))
        utilization_samples.append(step.pim_utilization)
        peak_batch = max(peak_batch, len(active))
        attention_total = attention_total + step.attention_breakdown.scaled(stride)
        fc_total = fc_total + step.fc_breakdown.scaled(stride)
        if allocator.capacity_bytes > 0:
            capacity_samples.append(allocator.used_bytes / allocator.capacity_bytes)

        finished = []
        for entry in active.values():
            allocator.grow(entry.request_id, stride)
            entry.context += stride
            entry.remaining -= stride
            if entry.remaining <= 0:
                finished.append(entry.request_id)
        for request_id in finished:
            allocator.release(request_id)
            del active[request_id]
            committed_chunks -= chunk_commitment.pop(request_id, 0)

    def mean(samples):
        return sum(samples) / len(samples) if samples else 0.0

    return {
        "total_output_tokens": total_tokens,
        "total_seconds": total_seconds,
        "steps": steps,
        "average_batch_size": mean([float(b) for b in batch_samples]),
        "peak_batch_size": peak_batch,
        "average_pim_utilization": mean(utilization_samples),
        "average_capacity_utilization": mean(capacity_samples),
        "attention_total": attention_total.total,
        "fc_total": fc_total.total,
        "requests_served": served,
    }


def _trace(model, requests=12, output=16, seed=0):
    return generate_trace(
        get_dataset("qmsum"),
        num_requests=requests,
        seed=seed,
        context_window=model.context_window,
        output_tokens=output,
    )


def _assert_parity(system, trace, max_batch_size=None, step_stride=1):
    legacy = _legacy_simulate_serving(
        system, trace, max_batch_size=max_batch_size, step_stride=step_stride
    )
    result = simulate_serving(
        system, trace, max_batch_size=max_batch_size, step_stride=step_stride
    )
    assert result.total_output_tokens == legacy["total_output_tokens"]
    assert result.steps == legacy["steps"]
    assert result.peak_batch_size == legacy["peak_batch_size"]
    assert result.requests_served == legacy["requests_served"]
    assert result.total_seconds == pytest.approx(legacy["total_seconds"], abs=1e-9, rel=1e-12)
    assert result.throughput_tokens_per_s == pytest.approx(
        legacy["total_output_tokens"] / legacy["total_seconds"], abs=1e-9, rel=1e-12
    )
    assert result.average_batch_size == pytest.approx(
        legacy["average_batch_size"], abs=1e-12
    )
    assert result.average_pim_utilization == pytest.approx(
        legacy["average_pim_utilization"], abs=1e-12
    )
    assert result.average_capacity_utilization == pytest.approx(
        legacy["average_capacity_utilization"], abs=1e-12
    )
    assert result.attention_breakdown.total == pytest.approx(
        legacy["attention_total"], rel=1e-12
    )
    assert result.fc_breakdown.total == pytest.approx(legacy["fc_total"], rel=1e-12)
    # The engine additionally reports lifecycle metrics the legacy loop
    # could not produce.
    assert result.latency.ttft_mean_s > 0
    assert result.latency.latency_p50_s <= result.latency.latency_p95_s
    assert result.latency.latency_p95_s <= result.latency.latency_p99_s
    return result


class TestEngineParity:
    def test_static_allocation_parity(self, llm_7b):
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.tcp_dcs())
        _assert_parity(system, _trace(llm_7b), step_stride=4)

    def test_dpa_allocation_parity(self, llm_7b):
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        _assert_parity(system, _trace(llm_7b), step_stride=4)

    def test_stride_one_parity(self, llm_7b):
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        _assert_parity(system, _trace(llm_7b, requests=6, output=8), step_stride=1)

    def test_max_batch_size_parity(self, llm_7b):
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        _assert_parity(system, _trace(llm_7b), max_batch_size=3, step_stride=4)

    def test_gpu_baseline_parity(self, llm_7b):
        system = GPUSystemModel(model=llm_7b, num_gpus=2)
        _assert_parity(system, _trace(llm_7b, requests=8, output=8), step_stride=2)

    def test_baseline_config_parity(self, llm_7b):
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.baseline())
        _assert_parity(system, _trace(llm_7b, requests=8, output=8), step_stride=4)

    def test_parity_with_non_ascending_request_ids(self, llm_7b):
        # The legacy loop admits in *trace order*; shuffled request ids must
        # not change the admission order (the arrival sort must be stable).
        from dataclasses import replace

        from repro.workloads.traces import RequestTrace

        base = _trace(llm_7b, requests=8, output=8)
        shuffled_ids = [5, 2, 9, 0, 7, 3, 11, 1]
        requests = tuple(
            replace(request, request_id=new_id, output_tokens=4 + 2 * index)
            for index, (request, new_id) in enumerate(zip(base.requests, shuffled_ids, strict=True))
        )
        trace = RequestTrace(dataset=base.dataset, requests=requests)
        system = cent_system_config(llm_7b, pimphony=PIMphonyConfig.full())
        _assert_parity(system, trace, max_batch_size=2, step_stride=4)

"""Protocols and result types shared across the serving engine layers.

The serving stack is split into three layers that only meet through the
interfaces defined here:

* **admission** (:mod:`repro.serving.admission`) decides *which* waiting
  request to try next;
* the **engine** (:mod:`repro.serving.engine`) owns the event loop, the
  simulation clock and per-request lifecycle tracking;
* the **memory system** is any :class:`KVAllocator` and the **compute
  system** any :class:`DecodeSystem` -- both pluggable, so new hardware
  models and allocation policies slot in without touching the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.memory.static_alloc import StaticAllocator
from repro.pim.simulator import CycleBreakdown, ZERO_BREAKDOWN
from repro.serving.prefill import SupportsPrefill

__all__ = [
    "StepResult",
    "DecodeSystem",
    "SupportsPrefill",
    "KVAllocator",
    "KVLifecycle",
    "CapacityExceeded",
    "PreemptedState",
    "build_allocator",
    "allocator_for",
    "ServingResult",
]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one decode step for the whole active batch.

    Attributes:
        seconds: Wall-clock time of the step.
        pim_utilization: Mean PIM channel busy fraction during the step
            (zero for systems without PIM).
        attention_breakdown: System-wide attention cycle breakdown (energy).
        fc_breakdown: System-wide FC cycle breakdown when FC runs on PIM.
    """

    seconds: float
    pim_utilization: float
    attention_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    fc_breakdown: CycleBreakdown = ZERO_BREAKDOWN


class DecodeSystem(Protocol):
    """Interface the serving engine requires from a system model."""

    @property
    def kv_capacity_bytes(self) -> int: ...

    @property
    def kv_bytes_per_token(self) -> int: ...

    @property
    def max_context_tokens(self) -> int: ...

    @property
    def dynamic_memory(self) -> bool: ...

    @property
    def total_pim_channels(self) -> int: ...

    def decode_step(self, context_lengths: Sequence[int]) -> StepResult: ...

    # Systems that can price their own prompt-processing phase additionally
    # implement ``prefill_seconds(prompt_tokens) -> float`` (see
    # :class:`~repro.serving.prefill.SupportsPrefill`);
    # :func:`~repro.serving.prefill.prefill_model_for` adapts them into the
    # engine's :class:`~repro.serving.prefill.PrefillModel`.


@runtime_checkable
class KVAllocator(Protocol):
    """Unified KV-cache allocator interface (the PR 1 admission contract).

    ``can_admit(tokens)`` answers whether a request needing ``tokens`` of
    context fits right now; ``reserve`` admits it.  Passing
    ``final_tokens`` commits the request's final context up front (the
    legacy admit-to-completion guarantee); omitting it admits against only
    the current context, deferring growth to :meth:`KVLifecycle.grow`.

    :class:`~repro.memory.static_alloc.StaticAllocator`,
    :class:`~repro.memory.chunked_alloc.ChunkedAllocator` and
    :class:`~repro.core.dpa.DPAController` all implement this protocol
    (and the full :class:`KVLifecycle` extension), so the engine never
    inspects the concrete allocator type.
    """

    capacity_bytes: int

    @property
    def used_bytes(self) -> int: ...

    @property
    def num_requests(self) -> int: ...

    def can_admit(self, tokens: int) -> bool: ...

    def reserve(
        self, request_id: int, initial_tokens: int, final_tokens: int | None = None
    ) -> None: ...

    def release(self, request_id: int) -> None: ...


@runtime_checkable
class KVLifecycle(KVAllocator, Protocol):
    """Request-lifecycle allocator contract: grow, preempt, restore.

    The lifecycle extension is what makes preemption-aware serving
    possible: requests are admitted against their *current* context
    (``reserve`` without ``final_tokens``), grown incrementally with
    :meth:`grow` -- which raises
    :class:`~repro.memory.lifecycle.CapacityExceeded` under pressure --
    and paged out/in with :meth:`preempt`/:meth:`restore` when a
    :class:`~repro.serving.preemption.PreemptionPolicy` picks a victim.
    :meth:`could_ever_fit` distinguishes transient pressure from requests
    that can never be served (they exceed total capacity).
    """

    def could_ever_fit(self, tokens: int) -> bool: ...

    def grow(self, request_id: int, count: int = 1) -> None: ...

    def preempt(self, request_id: int) -> PreemptedState: ...

    def restore(self, request_id: int, state: PreemptedState) -> None: ...


def build_allocator(
    capacity_bytes: int,
    bytes_per_token: int,
    max_context_tokens: int,
    dynamic: bool,
) -> KVLifecycle:
    """Construct the allocator matching a system's memory-management mode.

    Args:
        capacity_bytes: Total KV-cache capacity.
        bytes_per_token: KV bytes appended per generated token.
        max_context_tokens: ``T_max`` sizing static reservations.
        dynamic: DPA/PagedAttention-style chunked allocation when true,
            static ``T_max`` reservations otherwise.
    """
    if dynamic:
        return ChunkedAllocator(
            capacity_bytes=capacity_bytes,
            bytes_per_token=bytes_per_token,
        )
    return StaticAllocator(
        capacity_bytes=capacity_bytes,
        max_context_tokens=max_context_tokens,
        bytes_per_token=bytes_per_token,
    )


def allocator_for(system: DecodeSystem) -> KVLifecycle:
    """Build the allocator matching a system's capacity properties."""
    return build_allocator(
        capacity_bytes=system.kv_capacity_bytes,
        bytes_per_token=system.kv_bytes_per_token,
        max_context_tokens=system.max_context_tokens,
        dynamic=system.dynamic_memory,
    )


@dataclass
class ServingResult:
    """Aggregate metrics of one serving run."""

    system_name: str
    dataset: str
    total_output_tokens: int
    total_seconds: float
    steps: int
    average_batch_size: float
    peak_batch_size: int
    average_pim_utilization: float
    average_capacity_utilization: float
    attention_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    fc_breakdown: CycleBreakdown = ZERO_BREAKDOWN
    total_pim_channels: int = 0
    requests_served: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.total_output_tokens / self.total_seconds

    @property
    def average_step_seconds(self) -> float:
        if self.steps == 0:
            return 0.0
        return self.total_seconds / self.steps

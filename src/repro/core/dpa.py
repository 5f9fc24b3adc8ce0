"""Dynamic PIM Access (DPA) controller, paper Sec. VI.

DPA is the PIM-side mechanism that makes dynamic KV-cache memory management
possible: compact ``DYN-LOOP`` / ``DYN-MODI`` instructions whose loop bounds
and operand addresses are resolved at dispatch time against a per-module
VA2PA table, plus lazy chunk-granular allocation on the host side.  The
controller below owns the allocator and translation table of one module and
tracks the per-request token state that the on-module dispatcher needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.dpa_encoding import dpa_instruction_footprint, static_instruction_footprint
from repro.memory.chunked_alloc import DEFAULT_CHUNK_BYTES, ChunkedAllocator
from repro.memory.lifecycle import PreemptedState
from repro.memory.static_alloc import StaticAllocator
from repro.memory.va2pa import VA2PATable


@dataclass
class DPAController:
    """Per-module dynamic memory controller.

    Attributes:
        capacity_bytes: KV-cache capacity of the module.
        bytes_per_token: KV bytes appended per token (model dependent, for
            the shard of heads/layers this module owns).
        chunk_bytes: Allocation granularity (1MB in the paper).
    """

    capacity_bytes: int
    bytes_per_token: int
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    allocator: ChunkedAllocator = field(init=False)
    token_lengths: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.allocator = ChunkedAllocator(
            capacity_bytes=self.capacity_bytes,
            bytes_per_token=self.bytes_per_token,
            chunk_bytes=self.chunk_bytes,
        )

    @property
    def va2pa(self) -> VA2PATable:
        return self.allocator.table

    # -- request lifecycle -------------------------------------------------

    def can_admit(self, tokens: int) -> bool:
        """Whether a request whose context grows to ``tokens`` fits now.

        Pair with :meth:`reserve` of the same final ``tokens`` for a
        no-mid-decode-failure guarantee; reserving only the prefix (no
        ``final_tokens``) keeps lazy, may-fail-while-growing semantics.
        """
        return self.allocator.can_admit(tokens)

    def could_ever_fit(self, tokens: int) -> bool:
        """Whether ``tokens`` of context fits an empty module at all."""
        return self.allocator.could_ever_fit(tokens)

    def reserve(
        self, request_id: int, initial_tokens: int, final_tokens: int | None = None
    ) -> None:
        """Admit a request, committing chunks for its final context up front.

        Omitting ``final_tokens`` commits only the prefix (the incremental
        lifecycle contract); growth then claims chunks on demand.
        """
        self.allocator.reserve(request_id, initial_tokens, final_tokens)
        self.token_lengths[request_id] = initial_tokens

    def step(self, request_id: int, new_tokens: int = 1) -> None:
        """Advance a request by ``new_tokens`` generated tokens.

        Token progression is handled by the on-module dispatcher without
        host intervention; the host is only involved when a new chunk must
        be mapped (tracked by the allocator's ``host_interventions``).

        Raises:
            CapacityExceeded: if a new chunk is required but none is free.
        """
        self.allocator.grow(request_id, new_tokens)
        self.token_lengths[request_id] += new_tokens

    def grow(self, request_id: int, count: int = 1) -> None:
        """Lifecycle-contract alias of :meth:`step`."""
        self.step(request_id, count)

    def preempt(self, request_id: int) -> PreemptedState:
        """Page a request's chunks out and forget its dispatcher state."""
        state = self.allocator.preempt(request_id)
        self.token_lengths.pop(request_id, None)
        return state

    def restore(self, request_id: int, state: PreemptedState) -> None:
        """Re-map a preempted request's chunks and re-register metadata."""
        self.allocator.restore(request_id, state)
        self.token_lengths[request_id] = state.tokens

    def release(self, request_id: int) -> None:
        self.allocator.release(request_id)
        self.token_lengths.pop(request_id, None)

    # -- metrics -------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes backing live tokens across the module's requests."""
        return self.allocator.used_bytes

    @property
    def num_requests(self) -> int:
        return self.allocator.num_requests

    @property
    def capacity_utilization(self) -> float:
        return self.allocator.capacity_utilization

    @property
    def host_interventions(self) -> int:
        return self.allocator.host_interventions

    def instruction_footprint(self, context_length: int, kv_heads: int, layers: int = 1) -> int:
        """Instruction-buffer bytes with DPA encoding (context independent)."""
        return dpa_instruction_footprint(context_length, kv_heads=kv_heads, layers=layers)

    @staticmethod
    def static_instruction_footprint(context_length: int, kv_heads: int, layers: int = 1) -> int:
        """Instruction-buffer bytes a static compiler would need."""
        return static_instruction_footprint(context_length, kv_heads=kv_heads, layers=layers)


def make_static_allocator(
    capacity_bytes: int, bytes_per_token: int, max_context_tokens: int
) -> StaticAllocator:
    """Factory for the baseline worst-case (``T_max``) allocator."""
    return StaticAllocator(
        capacity_bytes=capacity_bytes,
        max_context_tokens=max_context_tokens,
        bytes_per_token=bytes_per_token,
    )

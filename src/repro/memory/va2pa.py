"""Virtual-to-physical address translation table (paper Sec. VI-C).

The on-module dispatcher keeps, per request, a mapping from virtual chunk
indices (the logical, contiguous view of that request's KV cache) to
physical chunk indices in the module's DRAM.  The table is what allows DPA
instructions to reference dynamically allocated, non-contiguous memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TranslationError(KeyError):
    """Raised when a virtual address has no physical mapping."""


@dataclass
class VA2PATable:
    """Per-module VA-to-PA chunk translation table.

    A request's virtual chunks are always dense (``0..n-1``): its KV cache
    only grows at the end.  So each request's mapping is a list of physical
    chunks in virtual order -- virtual chunk ``v`` is ``list[v]`` -- the
    per-request block table of PagedAttention.  Mapping a run of chunks is
    one list extend, and ``chunks_of`` / ``release`` return the list as is.

    Attributes:
        chunk_bytes: Size of one allocation chunk.
    """

    chunk_bytes: int
    _per_request: dict[int, list[int]] = field(default_factory=dict, repr=False)
    _num_entries: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")

    def map(self, request_id: int, physical_chunks: list[int]) -> None:
        """Map ``physical_chunks`` as the request's next virtual chunks."""
        self._per_request.setdefault(request_id, []).extend(physical_chunks)
        self._num_entries += len(physical_chunks)

    def translate(self, request_id: int, virtual_address: int) -> int:
        """Translate a virtual byte address of a request to a physical one."""
        if virtual_address < 0:
            raise ValueError("virtual_address must be non-negative")
        virtual_chunk, offset = divmod(virtual_address, self.chunk_bytes)
        chunks = self._per_request.get(request_id, ())
        if virtual_chunk >= len(chunks):
            raise TranslationError(f"no mapping for request {request_id} chunk {virtual_chunk}")
        return chunks[virtual_chunk] * self.chunk_bytes + offset

    def chunks_of(self, request_id: int) -> list[int]:
        """Physical chunks mapped for a request, in virtual order."""
        return list(self._per_request.get(request_id, ()))

    def release(self, request_id: int) -> list[int]:
        """Remove all mappings of a request and return the freed chunks."""
        freed = self._per_request.pop(request_id, [])
        self._num_entries -= len(freed)
        return freed

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def table_bytes(self) -> int:
        """Approximate SRAM footprint of the table (8B per entry)."""
        return 8 * self._num_entries

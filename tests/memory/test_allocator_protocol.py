"""Tests for the unified can_admit/reserve/release allocator protocol."""

import pytest

from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.static_alloc import AllocationError, StaticAllocator
from repro.serving.interfaces import KVAllocator


def chunked(capacity_chunks=8, chunk_bytes=1024, bytes_per_token=16):
    return ChunkedAllocator(
        capacity_bytes=capacity_chunks * chunk_bytes,
        bytes_per_token=bytes_per_token,
        chunk_bytes=chunk_bytes,
    )


class TestProtocolConformance:
    def test_both_allocators_satisfy_protocol(self):
        static = StaticAllocator(
            capacity_bytes=1 << 20, max_context_tokens=1024, bytes_per_token=16
        )
        assert isinstance(static, KVAllocator)
        assert isinstance(chunked(), KVAllocator)


class TestStaticReserve:
    def test_reserve_respects_static_maximum(self):
        allocator = StaticAllocator(
            capacity_bytes=1 << 20, max_context_tokens=1024, bytes_per_token=16
        )
        with pytest.raises(AllocationError):
            allocator.reserve(0, initial_tokens=100, final_tokens=2048)
        allocator.reserve(0, initial_tokens=100, final_tokens=1024)
        assert allocator.num_requests == 1

    def test_can_admit_rejects_over_window_requests(self):
        allocator = StaticAllocator(
            capacity_bytes=1 << 20, max_context_tokens=1024, bytes_per_token=16
        )
        assert allocator.can_admit(1024)
        assert not allocator.can_admit(1025)
        assert allocator.can_admit()  # legacy no-argument form still works

    def test_reserve_rejects_shrinking_final(self):
        allocator = StaticAllocator(
            capacity_bytes=1 << 20, max_context_tokens=1024, bytes_per_token=16
        )
        with pytest.raises(ValueError):
            allocator.reserve(0, initial_tokens=100, final_tokens=50)


class TestChunkedReserve:
    def test_reserve_commits_final_context(self):
        allocator = chunked(capacity_chunks=8)
        # 8 chunks total; final of 256 tokens * 16 B = 4096 B = 4 chunks.
        allocator.reserve(0, initial_tokens=64, final_tokens=256)
        assert allocator.committed_chunk_count == 4
        assert allocator.allocated_chunk_count == 1  # only the prefix mapped
        # A second identical reservation fits, a third does not.
        assert allocator.can_admit(256)
        allocator.reserve(1, initial_tokens=64, final_tokens=256)
        assert not allocator.can_admit(256)
        with pytest.raises(AllocationError):
            allocator.reserve(2, initial_tokens=64, final_tokens=256)

    def test_growth_within_reservation_never_fails(self):
        allocator = chunked(capacity_chunks=4)
        allocator.reserve(0, initial_tokens=1, final_tokens=256)  # all 4 chunks
        for _ in range(255):
            allocator.grow(0)
        assert allocator.allocated_chunk_count == 4

    def test_release_frees_commitment(self):
        allocator = chunked(capacity_chunks=4)
        allocator.reserve(0, initial_tokens=64, final_tokens=256)
        assert not allocator.can_admit(256)
        allocator.release(0)
        assert allocator.committed_chunk_count == 0
        assert allocator.can_admit(256)

    def test_legacy_admit_growth_claims_uncommitted_chunks(self):
        allocator = chunked(capacity_chunks=4)
        allocator.reserve(0, initial_tokens=64)  # commits 1 chunk
        assert allocator.committed_chunk_count == 1
        for _ in range(192):
            allocator.grow(0)  # grows commitment to 4 chunks
        assert allocator.committed_chunk_count == 4
        with pytest.raises(AllocationError):
            allocator.grow(0, count=64)

    def test_va2pa_entries_compat_view(self):
        allocator = chunked(capacity_chunks=4)
        allocator.reserve(0, initial_tokens=128, final_tokens=128)  # 2 chunks
        entries = allocator.table.entries
        assert set(entries) == {(0, 0), (0, 1)}
        assert sorted(entries.values()) == sorted(allocator.table.chunks_of(0))
        # The view is read-only: writes fail loudly instead of silently
        # mutating a rebuilt copy.
        with pytest.raises(TypeError):
            entries[(0, 2)] = 3

    def test_growth_cannot_steal_reserved_chunks(self):
        allocator = chunked(capacity_chunks=4)
        allocator.reserve(0, initial_tokens=64)        # 1 chunk mapped/committed
        allocator.reserve(1, initial_tokens=64, final_tokens=192)  # commits 3
        # Request 0 would need a second chunk, but every remaining chunk is
        # committed to request 1's reservation.
        with pytest.raises(AllocationError):
            allocator.grow(0, count=64)

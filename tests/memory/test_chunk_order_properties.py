"""Property tests: the dense chunk allocator hands out exactly the pop-order chunks.

``ChunkedAllocator`` takes runs of chunks as slices of a released-chunk
stack plus a high-water mark.  Its specification is simpler: a full free
stack ``[total-1, ..., 1, 0]`` from which each chunk is one ``pop()`` and to
which freed chunks are pushed back in virtual order.  Random lifecycle
sequences run through both must agree chunk for chunk, since every
simulated number downstream depends on which physical chunks a request gets.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.chunked_alloc import ChunkedAllocator
from repro.memory.lifecycle import CapacityExceeded, PreemptedState
from repro.memory.va2pa import VA2PATable

CHUNK = 1024
BYTES_PER_TOKEN = 16
TOKENS_PER_CHUNK = CHUNK // BYTES_PER_TOKEN
TOTAL_CHUNKS = 16


class PopStackModel:
    """Reference allocator: one ``pop()`` per chunk from a full free stack."""

    def __init__(self, total: int) -> None:
        self.free = list(range(total))[::-1]
        self.chunks: dict[int, list[int]] = {}
        self.tokens: dict[int, int] = {}

    def take(self, request_id: int, count: int) -> None:
        mapped = self.chunks.setdefault(request_id, [])
        for _ in range(count):
            mapped.append(self.free.pop())

    def drop(self, request_id: int) -> None:
        self.free.extend(self.chunks.pop(request_id, []))
        del self.tokens[request_id]


def check_against_model(allocator: ChunkedAllocator, model: PopStackModel) -> None:
    for request_id in model.tokens:
        assert allocator.table.chunks_of(request_id) == model.chunks.get(request_id, [])
    assert allocator.free_chunk_count == len(model.free)
    assert allocator.free_chunk_count + allocator.allocated_chunk_count == TOTAL_CHUNKS
    mapped = [chunk for chunks in model.chunks.values() for chunk in chunks]
    assert len(set(mapped)) == len(mapped) == allocator.allocated_chunk_count
    assert all(0 <= chunk < TOTAL_CHUNKS for chunk in mapped)
    assert allocator.used_bytes == sum(
        tokens * BYTES_PER_TOKEN for tokens in model.tokens.values()
    )


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "grow", "grow", "preempt", "restore", "release"]),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=3 * TOKENS_PER_CHUNK),
        st.booleans(),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(OPERATIONS)
def test_chunks_match_pop_order_reference(operations):
    allocator = ChunkedAllocator(
        capacity_bytes=TOTAL_CHUNKS * CHUNK, bytes_per_token=BYTES_PER_TOKEN, chunk_bytes=CHUNK
    )
    model = PopStackModel(TOTAL_CHUNKS)
    preempted: dict[int, PreemptedState] = {}
    next_id = 0
    for op, pick, tokens, commit_final in operations:
        live = sorted(model.tokens)
        if op == "reserve":
            final = tokens + TOKENS_PER_CHUNK if commit_final else None
            try:
                allocator.reserve(next_id, tokens, final)
            except CapacityExceeded:
                pass
            else:
                model.tokens[next_id] = tokens
                model.take(next_id, allocator.chunks_needed(tokens))
            next_id += 1
        elif op == "grow" and live:
            request_id = live[pick % len(live)]
            current = model.tokens[request_id]
            count = tokens + 1
            try:
                allocator.grow(request_id, count)
            except CapacityExceeded:
                pass
            else:
                model.tokens[request_id] = current + count
                model.take(
                    request_id,
                    allocator.chunks_needed(current + count) - allocator.chunks_needed(current),
                )
        elif op == "preempt" and live:
            request_id = live[pick % len(live)]
            preempted[request_id] = allocator.preempt(request_id)
            model.drop(request_id)
        elif op == "restore" and preempted:
            request_id = sorted(preempted)[pick % len(preempted)]
            state = preempted[request_id]
            try:
                allocator.restore(request_id, state)
            except CapacityExceeded:
                pass
            else:
                del preempted[request_id]
                model.tokens[request_id] = state.tokens
                model.take(request_id, allocator.chunks_needed(state.tokens))
        elif op == "release" and live:
            request_id = live[pick % len(live)]
            allocator.release(request_id)
            model.drop(request_id)
        check_against_model(allocator, model)


def test_large_reserve_is_one_table_map(monkeypatch):
    calls = []
    original = VA2PATable.map

    def counting_map(self, request_id, physical_chunks):
        calls.append(len(physical_chunks))
        original(self, request_id, physical_chunks)

    monkeypatch.setattr(VA2PATable, "map", counting_map)
    allocator = ChunkedAllocator(
        capacity_bytes=20_000 * CHUNK, bytes_per_token=BYTES_PER_TOKEN, chunk_bytes=CHUNK
    )
    allocator.reserve(0, initial_tokens=10_000 * TOKENS_PER_CHUNK)
    assert calls == [10_000]
    assert allocator.table.chunks_of(0) == list(range(10_000))

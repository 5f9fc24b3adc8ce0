"""Ablations of PIMphony design choices called out in DESIGN.md.

Two hardware/software knobs the paper fixes are swept here to show why the
chosen values are sensible:

* the Output Buffer size DCS's I/O-aware buffering provisions per bank
  (the paper expands the 4B OutRegs; we sweep 4B..64B), and
* the DPA allocation chunk size (the paper uses 1MB chunks).
"""

from benchmarks._helpers import emit, run_once
from repro.analysis.reporting import format_table
from repro.memory.chunked_alloc import ChunkedAllocator
from repro.models.llm import get_model
from repro.pim.config import PIMChannelConfig
from repro.pim.kernels import attention_head_cycles
from repro.pim.timing import aimx_timing
from repro.workloads.datasets import get_dataset
from repro.workloads.traces import generate_trace

OBUF_BYTES = [4, 8, 16, 32, 64]
CHUNK_MB = [0.25, 0.5, 1, 4, 16, 64]


def sweep_obuf_sizes():
    timing = aimx_timing()
    rows = []
    for obuf_bytes in OBUF_BYTES:
        channel = PIMChannelConfig(obuf_bytes_per_bank=obuf_bytes)
        breakdown = attention_head_cycles(
            8192, 128, channel, timing, "dcs", group_size=4, row_reuse=True
        )
        rows.append([obuf_bytes, breakdown.total, breakdown.mac_utilization])
    return rows


def sweep_chunk_sizes():
    model = get_model("LLM-7B-128K")
    trace = generate_trace(
        get_dataset("multifieldqa"), 24, seed=0,
        context_window=model.context_window, output_tokens=1,
    )
    capacity = 64 * 1024**3
    rows = []
    for chunk_mb in CHUNK_MB:
        allocator = ChunkedAllocator(
            capacity_bytes=capacity,
            bytes_per_token=model.kv_bytes_per_token,
            chunk_bytes=int(chunk_mb * 1024 * 1024),
        )
        admitted = 0
        for request in trace.requests:
            if not allocator.can_admit(request.prompt_tokens):
                break
            allocator.reserve(request.request_id, request.prompt_tokens)
            admitted += 1
        rows.append(
            [
                chunk_mb,
                admitted,
                allocator.capacity_utilization,
                allocator.fragmentation_bytes / 1024**2,
                allocator.table.num_entries,
            ]
        )
    return rows


def build_ablation():
    return sweep_obuf_sizes(), sweep_chunk_sizes()


def test_ablation_obuf_and_chunk_size(benchmark):
    obuf_rows, chunk_rows = run_once(benchmark, build_ablation)
    emit(
        "Ablation: DCS Output Buffer size per bank (attention kernel, GQA g=4)",
        format_table(["OBuf bytes/bank", "cycles", "MAC utilisation"], obuf_rows),
    )
    emit(
        "Ablation: DPA chunk size (64GB module pool, multifieldqa prompts)",
        format_table(
            ["chunk (MB)", "admitted requests", "capacity util", "fragmentation (MB)", "VA2PA entries"],
            chunk_rows,
        ),
    )
    # Expanding the OutRegs into a larger OBuf never slows the kernel down,
    # and the paper's choice (>= 8 entries) captures most of the benefit.
    cycles = [row[1] for row in obuf_rows]
    assert cycles == sorted(cycles, reverse=True)
    assert cycles[-1] >= 0.95 * cycles[2]
    # Small chunks keep fragmentation negligible at the price of a larger
    # VA2PA table; very large chunks start wasting capacity (lower
    # utilisation) -- the paper's 1MB sits on the flat part of the curve.
    utilisations = {row[0]: row[2] for row in chunk_rows}
    table_entries = {row[0]: row[4] for row in chunk_rows}
    assert utilisations[1] > 0.9 * utilisations[0.25]
    assert utilisations[64] < utilisations[1]
    assert table_entries[0.25] > table_entries[16]

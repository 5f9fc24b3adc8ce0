"""Tests for the DPA controller (paper Sec. VI)."""

import pytest

from repro.core.dpa import DPAController, make_static_allocator
from repro.memory.static_alloc import AllocationError


def make_controller(capacity_mb: int = 64, chunk_kb: int = 256, bpt: int = 512) -> DPAController:
    return DPAController(
        capacity_bytes=capacity_mb * 1024 * 1024,
        bytes_per_token=bpt,
        chunk_bytes=chunk_kb * 1024,
    )


class TestLifecycle:
    def test_admit_step_release_roundtrip(self):
        controller = make_controller()
        controller.reserve(0, initial_tokens=1000)
        assert controller.token_lengths[0] == 1000
        controller.step(0, 5)
        assert controller.token_lengths[0] == 1005
        controller.release(0)
        assert 0 not in controller.token_lengths
        assert controller.allocator.allocated_chunk_count == 0

    def test_capacity_check_before_admission(self):
        controller = make_controller(capacity_mb=1, chunk_kb=1024)
        assert controller.can_admit(100)
        controller.reserve(0, 100)
        assert not controller.can_admit(100)
        with pytest.raises(AllocationError):
            controller.reserve(1, 100)

    def test_utilization_improves_over_static_reservation(self):
        """The Fig. 19 effect: chunked allocation tracks live tokens."""
        controller = make_controller()
        static = make_static_allocator(
            capacity_bytes=64 * 1024 * 1024, bytes_per_token=512, max_context_tokens=32768
        )
        controller.reserve(0, 8000)
        static.reserve(0, 8000)
        assert controller.capacity_utilization > 2 * static.capacity_utilization


class TestInstructionFootprint:
    def test_dpa_footprint_constant_in_context(self):
        controller = make_controller()
        short = controller.instruction_footprint(4096, kv_heads=8, layers=32)
        long = controller.instruction_footprint(1024 * 1024, kv_heads=8, layers=32)
        assert short == long

    def test_static_footprint_grows_linearly(self):
        short = DPAController.static_instruction_footprint(4096, kv_heads=8)
        long = DPAController.static_instruction_footprint(8192, kv_heads=8)
        assert long == 2 * short

    def test_dpa_orders_of_magnitude_smaller_at_long_context(self):
        """The Fig. 10(c) claim: DPA avoids instruction-buffer bloat."""
        controller = make_controller()
        dpa = controller.instruction_footprint(128 * 1024, kv_heads=8)
        static = DPAController.static_instruction_footprint(128 * 1024, kv_heads=8)
        assert static > 100 * dpa

    def test_host_interventions_rare(self):
        controller = make_controller(chunk_kb=1024, bpt=512)
        controller.reserve(0, 100)
        before = controller.host_interventions
        for _ in range(100):
            controller.step(0)
        # 100 tokens at 512B/token never crosses the 1MB chunk boundary.
        assert controller.host_interventions == before

"""Per-layer host time for the benchmark's traced run.

:func:`install` wraps the public entry points of each simulator layer
(:data:`HOOKS`) in a span recorder and restores the originals on exit, so
the simulator itself carries no timers.  A span has a name, a layer, a
start, an end, its parent span and the id of the run (set-up or run) it
belongs to.  Spans stay in memory until :meth:`Tracer.write` saves them.

A call into a layer from inside the same layer opens no new span: the
outer span already covers it.  A layer's self time is the time of its
spans minus the time of their child spans, which belong to other layers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any

#: (layer, module, attribute, counter): a span wrapper around ``module.attribute``.
#: ``counter`` names the per-layer call count the entry point adds to.
HOOKS: tuple[tuple[str, str, str, str | None], ...] = (
    ("api", "repro.api.spec", "ExperimentSpec.from_dict", None),
    ("api", "repro.api.build", "build", None),
    ("api", "repro.api.report", "RunReport.from_engine", None),
    ("api", "repro.api.report", "RunReport.from_fleet", None),
    ("api", "repro.api.report", "RunReport.from_dynamic", None),
    ("api", "repro.api.report", "RunReport.from_disagg", None),
    ("workloads", "repro.api.build", "build_trace", None),
    ("fleet", "repro.serving.router", "ReplicaRouter.run", None),
    ("fleet", "repro.serving.fleet_events", "DynamicFleetRouter.run", None),
    ("fleet", "repro.serving.disagg", "DisaggRouter.run", None),
    ("engine", "repro.serving.engine", "ServingEngine.run", "runs"),
    ("engine", "repro.serving.fast_engine", "FastServingEngine.run", "runs"),
    ("pricing", "repro.system.xpu", "XPUOnlySystem.decode_step", "step_calls"),
    ("pricing", "repro.system.xpu", "XPUOnlySystem.decode_span", "span_calls"),
    ("pricing", "repro.system.xpu", "XPUOnlySystem.prefill_seconds", "prefill_calls"),
    ("pricing", "repro.system.pim_only", "PIMOnlySystem.decode_step", "step_calls"),
    # PIMOnlySystem.__post_init__ installs this as the instance's decode_span.
    ("pricing", "repro.system.pim_only", "PIMOnlySystem._tcp_decode_span", "span_calls"),
    ("pricing", "repro.system.pim_only", "PIMOnlySystem.prefill_seconds", "prefill_calls"),
    ("pricing", "repro.system.xpu_pim", "XPUPIMSystem.decode_step", "step_calls"),
    ("pricing", "repro.system.xpu_pim", "XPUPIMSystem.prefill_seconds", "prefill_calls"),
    ("pricing", "repro.baselines.gpu", "GPUSystemModel.decode_step", "step_calls"),
    ("pricing", "repro.baselines.gpu", "GPUSystemModel.decode_span", "span_calls"),
    ("pricing", "repro.serving.prefill", "LinearPrefillModel.cumulative_seconds", "prefill_calls"),
    ("pricing", "repro.serving.prefill", "SystemPrefillModel.cumulative_seconds", "prefill_calls"),
)

#: Allocator classes whose construction and lifecycle calls are the memory layer.
ALLOCATORS = (
    ("repro.memory.chunked_alloc", "ChunkedAllocator"),
    ("repro.memory.static_alloc", "StaticAllocator"),
)
MEMORY_OPS = ("reserve", "grow", "release", "preempt", "restore")
#: Operations that map chunks; the drop in ``free_chunk_count`` is what they mapped.
MAPPING_OPS = ("reserve", "grow", "restore")

#: Fleet dispatches are counted without a span (they run inside the fleet layer).
DISPATCH = ("repro.serving.router", "ReplicaState.assign")

#: Layers whose self time is reported, in report order.
LAYERS = ("workloads", "api", "fleet", "engine", "pricing", "memory")


class Tracer:
    """In-memory span recorder with per-layer call counters."""

    def __init__(self) -> None:
        #: ``[name, layer, parent index, start_ns, end_ns, run id]`` per span.
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.run_id = ""
        #: Layer that built each live allocator, keyed by ``id``.
        self.allocator_owner: dict[int, str | None] = {}
        self._open: list[int] = []
        self._layers: list[str] = []

    @property
    def layer(self) -> str | None:
        """Layer of the innermost open span."""
        return self._layers[-1] if self._layers else None

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, parent, perf_counter_ns(), 0, self.run_id])
        self._open.append(index)
        self._layers.append(layer)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = perf_counter_ns()
        self._open.pop()
        self._layers.pop()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds keyed by ``(run id, layer)`` and ``(run id, span name)``."""
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for (name, layer, _, start, end, run), children in zip(
            self.spans, child_ns, strict=True
        ):
            seconds = (end - start - children) / 1e9
            totals[(run, layer)] += seconds
            totals[(run, name)] += seconds
        return totals

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines of ``[id, parent, name, layer, start_ns, end_ns, run]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, layer, parent, start, end, run) in enumerate(self.spans):
                handle.write(json.dumps([index, parent, name, layer, start, end, run]) + "\n")


def _span_wrapper(
    tracer: Tracer, layer: str, name: str, counter: str | None, fn: Callable
) -> Callable:
    count_key = f"{layer}.{counter}" if counter else None

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer._layers and tracer._layers[-1] == layer:
            return fn(*args, **kwargs)
        if count_key:
            tracer.counts[count_key] += 1
        index = tracer.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _memory_op_wrapper(tracer: Tracer, name: str, op: str, fn: Callable) -> Callable:
    maps = op in MAPPING_OPS

    @functools.wraps(fn)
    def wrapper(allocator: Any, *args: Any, **kwargs: Any) -> Any:
        tracer.counts[f"memory.{op}_calls"] += 1
        index = tracer.open(name, "memory")
        free_before = getattr(allocator, "free_chunk_count", None) if maps else None
        interventions_before = getattr(allocator, "host_interventions", 0)
        try:
            result = fn(allocator, *args, **kwargs)
            tracer.counts[f"memory.{op}_ok"] += 1
            return result
        finally:
            if free_before is not None:
                tracer.counts[f"memory.{op}_chunks"] += free_before - allocator.free_chunk_count
            owner = tracer.allocator_owner.get(id(allocator))
            tracer.counts[f"memory.host_interventions.{owner}"] += (
                getattr(allocator, "host_interventions", 0) - interventions_before
            )
            tracer.close(index)

    return wrapper


def _init_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(allocator: Any) -> None:
        tracer.counts["memory.allocators_built"] += 1
        tracer.allocator_owner[id(allocator)] = tracer.layer
        index = tracer.open(name, "memory")
        try:
            fn(allocator)
        finally:
            tracer.close(index)

    return wrapper


def _count_wrapper(tracer: Tracer, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(module: str, attribute: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace(owner: Any, name: str, make: Callable[[Callable], Callable], saved: list) -> None:
    raw = vars(owner)[name]
    if isinstance(raw, staticmethod):
        wrapped: Any = staticmethod(make(raw.__func__))
    elif isinstance(raw, classmethod):
        wrapped = classmethod(make(raw.__func__))
    else:
        wrapped = make(raw)
    saved.append((owner, name, raw))
    setattr(owner, name, wrapped)


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every hooked entry point for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for layer, module, attribute, counter in HOOKS:
            owner, name = _resolve(module, attribute)
            _replace(
                owner,
                name,
                lambda fn, layer=layer, attribute=attribute, counter=counter: _span_wrapper(
                    tracer, layer, attribute, counter, fn
                ),
                saved,
            )
        for module, cls_name in ALLOCATORS:
            cls = getattr(importlib.import_module(module), cls_name)
            _replace(
                cls,
                "__post_init__",
                lambda fn, cls_name=cls_name: _init_wrapper(
                    tracer, f"{cls_name}.__post_init__", fn
                ),
                saved,
            )
            for op in MEMORY_OPS:
                _replace(
                    cls,
                    op,
                    lambda fn, cls_name=cls_name, op=op: _memory_op_wrapper(
                        tracer, f"{cls_name}.{op}", op, fn
                    ),
                    saved,
                )
        owner, name = _resolve(*DISPATCH)
        _replace(owner, name, lambda fn: _count_wrapper(tracer, "fleet.dispatches", fn), saved)
        yield tracer
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)


def layer_metrics(
    tracer: Tracer, setup_ids: list[str], run_id: str, run_s: float
) -> dict[str, float]:
    """Host-side per-layer metrics of one traced run.

    Set-up layers (``workloads``, ``api.build_s``) take the median over the
    traced set-ups; everything else comes from the traced run.  The caller
    clears :attr:`Tracer.counts` before the run, so counts describe it alone.
    """
    totals = tracer.self_times()
    counts = tracer.counts

    def setup_median(key: str) -> float:
        return statistics.median(totals.get((run, key), 0.0) for run in setup_ids)

    def init_s(run: str) -> float:
        return sum(totals.get((run, f"{cls}.__post_init__"), 0.0) for _, cls in ALLOCATORS)

    run_self = {layer: totals.get((run_id, layer), 0.0) for layer in LAYERS}
    pricing_calls = counts["pricing.step_calls"] + counts["pricing.span_calls"] + counts[
        "pricing.prefill_calls"
    ]
    reserve_ok = counts["memory.reserve_ok"]
    chunks_mapped = sum(counts[f"memory.{op}_chunks"] for op in MAPPING_OPS)
    metrics: dict[str, float] = {
        "workloads.self_s": setup_median("workloads"),
        "api.build_s": setup_median("api"),
        "api.report_s": run_self["api"],
        "fleet.self_s": run_self["fleet"],
        "fleet.dispatches": counts["fleet.dispatches"],
        "engine.self_s": run_self["engine"],
        "engine.runs": counts["engine.runs"],
        "pricing.self_s": run_self["pricing"],
        "pricing.step_calls": counts["pricing.step_calls"],
        "pricing.span_calls": counts["pricing.span_calls"],
        "pricing.prefill_calls": counts["pricing.prefill_calls"],
        "pricing.s_per_call": run_self["pricing"] / pricing_calls if pricing_calls else 0.0,
        "memory.self_s": run_self["memory"],
        "memory.init_s": init_s(run_id) + statistics.median(init_s(run) for run in setup_ids),
        "memory.allocators_built": counts["memory.allocators_built"],
        "memory.chunks_mapped": chunks_mapped,
        "memory.chunks_per_reserve": (
            counts["memory.reserve_chunks"] / reserve_ok if reserve_ok else 0.0
        ),
        "memory.reserve_ok_ratio": (
            reserve_ok / counts["memory.reserve_calls"] if counts["memory.reserve_calls"] else 0.0
        ),
        "trace.unattributed_s": run_s - sum(run_self.values()),
    }
    for op in MEMORY_OPS:
        metrics[f"memory.{op}_calls"] = counts[f"memory.{op}_calls"]
    for layer in ("api", "fleet", "engine", "pricing", "memory"):
        metrics[f"{layer}.share"] = run_self[layer] / run_s if run_s > 0 else 0.0
    # DPA's metric counts the serving engines' allocators, not the router's
    # shadow copies.
    metrics["sim.host_interventions"] = counts["memory.host_interventions.engine"]
    return metrics

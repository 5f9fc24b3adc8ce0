"""Span-stepping serving engine (``engine.mode=fast``).

:class:`FastServingEngine` is :class:`~repro.serving.engine.ServingEngine`
with a raised span cap: the shared loop advances up to
:attr:`FastServingEngine.span_limit` uneventful decode evaluations per
iteration, pricing them in one closed-form ``decode_span`` call where the
system offers one and booking each request once per span.  N requests
times K decode steps therefore cost O(events) Python iterations plus
O(evaluations) float additions, instead of O(N * K).  See the
:mod:`repro.serving.engine` docstring for the span planner, the parity
argument and the breakdown gap of closed-form spans.
"""

from __future__ import annotations

from typing import ClassVar

from repro.serving.engine import ServingEngine


class FastServingEngine(ServingEngine):
    """Drop-in :class:`ServingEngine` that advances spans of evaluations."""

    #: Bounds the latency work a crossing wastes when it truncates a span,
    #: and the chunked-capacity pre-check's cost.
    span_limit: ClassVar[int] = 4096

    # The benchmark tracer (perfbench/tracer.py) wraps the function it finds
    # in ``vars(FastServingEngine)["run"]``, so fast-mode runs need this
    # class-level entry point of their own.
    run = ServingEngine.run

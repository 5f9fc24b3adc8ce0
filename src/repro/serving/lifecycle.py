"""Per-request lifecycle tracking and latency statistics.

The engine stamps each request at four points -- arrival, admission, first
generated token, completion -- and the aggregation here turns those stamps
into the serving metrics the paper's evaluation (and any production SLO)
cares about: time-to-first-token (TTFT), time-per-output-token (TPOT),
queueing delay, and end-to-end latency percentiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np


@dataclass
class RequestRecord:
    """Lifecycle timestamps and progress of one request.

    All times are simulation seconds.  ``first_token_s`` and ``finish_s``
    are ``nan`` until the corresponding event happens.
    """

    request_id: int
    prompt_tokens: int
    output_tokens: int
    arrival_s: float
    admitted_s: float = math.nan
    first_token_s: float = math.nan
    finish_s: float = math.nan
    generated: int = 0
    prefill_s: float = 0.0
    #: Times this request was paged out by a preemption policy.
    preemptions: int = 0
    #: Total time spent paged out waiting for re-admission (requeue delay).
    stall_s: float = 0.0
    #: Tokens re-prefilled by recompute-mode restores.
    recompute_tokens: int = 0
    #: Clock of the pending preemption (``nan`` while the request is live).
    preempted_s: float = math.nan
    #: Times this request was re-dispatched after a replica failure (the
    #: fleet timeline stamps it; a static fleet never restarts anything).
    restarts: int = 0
    #: Scheduling priority inherited from the request (tier priority).
    priority: int = 0
    #: SLO-tier name the request belongs to (``None`` means untiered).
    tier: str | None = None
    #: TTFT deadline in seconds (``None`` means no deadline).
    ttft_deadline_s: float | None = None
    #: TPOT deadline in seconds (``None`` means no deadline).
    tpot_deadline_s: float | None = None

    @property
    def finished(self) -> bool:
        return not math.isnan(self.finish_s)

    @property
    def preempted(self) -> bool:
        """Whether the request is currently paged out."""
        return not math.isnan(self.preempted_s)

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for admission."""
        return self.admitted_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Time-to-first-token: arrival to the first generated token."""
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time-per-output-token over the steady decode phase.

        Measured from the first to the last generated token; requests that
        emit a single token have no inter-token gap and report 0.
        """
        if self.output_tokens <= 1:
            return 0.0
        return (self.finish_s - self.first_token_s) / (self.output_tokens - 1)

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to completion."""
        return self.finish_s - self.arrival_s

    @property
    def ttft_ok(self) -> bool:
        """Whether the first token met the TTFT deadline.

        With no deadline the SLO is vacuously attained; with one, an
        unserved request (no first token) counts as a miss.
        """
        if self.ttft_deadline_s is None:
            return True
        return self.ttft_s <= self.ttft_deadline_s  # nan comparisons are False

    @property
    def tpot_ok(self) -> bool:
        """Whether steady-state decode met the TPOT deadline.

        With no deadline the SLO is vacuously attained; with one, an
        unfinished request counts as a miss.
        """
        if self.tpot_deadline_s is None:
            return True
        return self.finished and self.tpot_s <= self.tpot_deadline_s

    @property
    def slo_ok(self) -> bool:
        """Goodput membership: finished within every configured deadline."""
        return self.finished and self.ttft_ok and self.tpot_ok


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    return float(np.percentile(np.asarray(samples), fraction * 100.0))


def percentiles(samples: Sequence[float], fractions: Sequence[float]) -> tuple[float, ...]:
    """Several percentiles of one sample family from a single sort.

    Equivalent to ``tuple(percentile(samples, f) for f in fractions)`` --
    numpy interpolates each requested quantile from the same sorted copy,
    so a p50/p95/p99 triple costs one O(n log n) sort rather than three.
    """
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
    if not samples:
        return tuple(0.0 for _ in fractions)
    values = np.percentile(np.asarray(samples), [fraction * 100.0 for fraction in fractions])
    return tuple(float(value) for value in values)


@dataclass(frozen=True)
class LatencyStats:
    """Aggregated per-request latency metrics of one serving run.

    The p50/p95/p99 triple is reported for TTFT, TPOT and end-to-end
    latency so fleet-level merges (see
    :class:`~repro.serving.router.FleetResult`) can expose the same
    percentile surface a single replica does.
    """

    ttft_mean_s: float = 0.0
    ttft_p50_s: float = 0.0
    ttft_p95_s: float = 0.0
    ttft_p99_s: float = 0.0
    tpot_mean_s: float = 0.0
    tpot_p50_s: float = 0.0
    tpot_p95_s: float = 0.0
    tpot_p99_s: float = 0.0
    queue_delay_mean_s: float = 0.0
    prefill_mean_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    latency_p99_s: float = 0.0

    @staticmethod
    def from_records(records: Sequence[RequestRecord]) -> LatencyStats:
        finished = [record for record in records if record.finished]
        if not finished:
            return LatencyStats()
        ttfts = [record.ttft_s for record in finished]
        tpots = [record.tpot_s for record in finished]
        latencies = [record.latency_s for record in finished]
        # One sort per metric family: each family's p50/p95/p99 come from a
        # single np.percentile call (bit-identical to separate calls), so a
        # merged-fleet stats pass costs O(n log n) total, not per-percentile.
        triple = (0.50, 0.95, 0.99)
        ttft_p50, ttft_p95, ttft_p99 = percentiles(ttfts, triple)
        tpot_p50, tpot_p95, tpot_p99 = percentiles(tpots, triple)
        latency_p50, latency_p95, latency_p99 = percentiles(latencies, triple)
        return LatencyStats(
            ttft_mean_s=sum(ttfts) / len(finished),
            ttft_p50_s=ttft_p50,
            ttft_p95_s=ttft_p95,
            ttft_p99_s=ttft_p99,
            tpot_mean_s=sum(tpots) / len(finished),
            tpot_p50_s=tpot_p50,
            tpot_p95_s=tpot_p95,
            tpot_p99_s=tpot_p99,
            queue_delay_mean_s=sum(record.queue_delay_s for record in finished) / len(finished),
            prefill_mean_s=sum(record.prefill_s for record in finished) / len(finished),
            latency_p50_s=latency_p50,
            latency_p95_s=latency_p95,
            latency_p99_s=latency_p99,
        )


@dataclass(frozen=True)
class WindowStats:
    """Per-interval serving metrics of one wall-clock window.

    Windows bucket requests by *arrival* time (a request arriving exactly
    on a boundary belongs to the later window), so a window's attainment
    answers "of the traffic that arrived in this interval, how much met
    its SLO?" -- the question a capacity planner asks of a diurnal day.

    ``ttft_attainment`` / ``tpot_attainment`` / ``goodput_fraction`` are
    fractions of the window's *arrivals* (an unserved request counts
    against its window); they are 1.0 for an empty window (vacuous SLO).
    """

    start_s: float
    end_s: float
    arrivals: int
    finished: int
    goodput_requests: int
    ttft_attained: int
    tpot_attained: int
    latency: LatencyStats

    @property
    def ttft_attainment(self) -> float:
        return self.ttft_attained / self.arrivals if self.arrivals else 1.0

    @property
    def tpot_attainment(self) -> float:
        return self.tpot_attained / self.arrivals if self.arrivals else 1.0

    @property
    def goodput_fraction(self) -> float:
        return self.goodput_requests / self.arrivals if self.arrivals else 1.0


def windowed_stats(records: Sequence[RequestRecord], window_s: float) -> tuple[WindowStats, ...]:
    """Bucket ``records`` into contiguous ``window_s``-wide arrival windows.

    Returns one :class:`WindowStats` per window from time 0 through the
    last arrival, *including* empty windows in between (a quiet interval
    is data, not a gap).  With every record inside one window, that
    window's :class:`LatencyStats` equal ``LatencyStats.from_records`` on
    the whole run.
    """
    if not (window_s > 0 and math.isfinite(window_s)):
        raise ValueError("window_s must be positive and finite")
    if not records:
        return ()
    buckets: dict[int, list[RequestRecord]] = {}
    for record in records:
        buckets.setdefault(int(record.arrival_s // window_s), []).append(record)
    windows = []
    for index in range(max(buckets) + 1):
        members = buckets.get(index, [])
        windows.append(
            WindowStats(
                start_s=index * window_s,
                end_s=(index + 1) * window_s,
                arrivals=len(members),
                finished=sum(1 for record in members if record.finished),
                goodput_requests=sum(1 for record in members if record.slo_ok),
                ttft_attained=sum(1 for record in members if record.ttft_ok),
                tpot_attained=sum(1 for record in members if record.tpot_ok),
                latency=LatencyStats.from_records(members),
            )
        )
    return tuple(windows)


@dataclass
class LifecycleTracker:
    """Collects :class:`RequestRecord` entries as the engine runs.

    The engine stamps decode progress (``generated``, ``first_token_s``,
    ``finish_s``) on the records directly, once per span.
    """

    records: dict[int, RequestRecord] = field(default_factory=dict)

    def on_arrival(
        self,
        request_id: int,
        prompt_tokens: int,
        output_tokens: int,
        arrival_s: float,
        priority: int = 0,
        tier: str | None = None,
        ttft_deadline_s: float | None = None,
        tpot_deadline_s: float | None = None,
    ) -> RequestRecord:
        record = RequestRecord(
            request_id=request_id,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            arrival_s=arrival_s,
            priority=priority,
            tier=tier,
            ttft_deadline_s=ttft_deadline_s,
            tpot_deadline_s=tpot_deadline_s,
        )
        self.records[request_id] = record
        return record

    def on_admission(self, request_id: int, now_s: float) -> None:
        self.records[request_id].admitted_s = now_s

    def on_prefill(self, request_id: int, seconds: float) -> None:
        """Accumulate prefill work charged to a request (one or more chunks)."""
        self.records[request_id].prefill_s += seconds

    def on_preempt(self, request_id: int, now_s: float) -> None:
        """Record a page-out: the request leaves the batch and stalls."""
        record = self.records[request_id]
        record.preemptions += 1
        record.preempted_s = now_s

    def on_restore(self, request_id: int, now_s: float, recompute_tokens: int = 0) -> None:
        """Record a page-in: close the stall window opened by ``on_preempt``."""
        record = self.records[request_id]
        record.stall_s += now_s - record.preempted_s
        record.preempted_s = math.nan
        record.recompute_tokens += recompute_tokens

    def stats(self) -> LatencyStats:
        return LatencyStats.from_records(list(self.records.values()))

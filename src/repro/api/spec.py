"""Declarative, serializable experiment specifications.

An :class:`ExperimentSpec` is the single front door to the simulator: it
names every axis of a serving experiment -- model, system, parallelism,
allocator mode, admission, preemption, prefill, trace, router/replicas,
seed -- as plain data.  Specs are frozen, compare by value, round-trip through
``to_dict``/``from_dict`` and JSON, and validate eagerly with field-level
error messages, so sweeps, CI smoke runs and paper figures can be driven
from checked-in JSON files instead of hand-wired constructor calls.

Construction-time validation (``__post_init__``) checks types and ranges;
:meth:`ExperimentSpec.validate` additionally resolves every registry key
(system kind, admission/routing policy, prefill model, trace source, model
and dataset names) so a typo fails before anything is built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.api.registry import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    PREEMPTION_POLICIES,
    PREFILL_MODELS,
    ROUTING_POLICIES,
    SYSTEMS,
    TRACES,
    Registry,
)
from repro.memory.lifecycle import PREEMPTION_COST_MODES

_SubSpecT = TypeVar("_SubSpecT")

#: PIMphony feature presets accepted by :attr:`SystemSpec.pimphony`
#: (resolved to :class:`~repro.core.orchestrator.PIMphonyConfig` factories
#: in :mod:`repro.api.build`).
PIMPHONY_PRESETS = ("baseline", "tcp", "tcp+dcs", "full")

#: Allocator overrides accepted by :attr:`AllocatorSpec.mode`.
ALLOCATOR_MODES = ("auto", "static", "paged")

#: Arrival processes accepted by :attr:`TraceSpec.arrival`.
ARRIVAL_MODES = ("all-at-once", "poisson")

#: Engine cores accepted by :attr:`EngineSpec.mode`.
ENGINE_MODES = ("scalar", "fast")

#: Prefill charging disciplines accepted by :attr:`PrefillSpec.mode`.
PREFILL_MODES = ("none", "blocking", "chunked")

#: Preemption cost disciplines accepted by :attr:`PreemptionSpec.mode`
#: (aliases the canonical tuple next to the lifecycle types).
PREEMPTION_MODES = PREEMPTION_COST_MODES

#: Fleet topologies accepted by :attr:`RouterSpec.topology`.
TOPOLOGIES = ("colocated", "disaggregated")

#: Fleet timeline event kinds accepted by :attr:`FleetEventSpec.kind`.
FLEET_EVENT_KINDS = ("replica_down", "replica_up")

#: Autoscaler feedback signals accepted by :attr:`AutoscalerSpec.signal`.
SCALER_SIGNALS = ("queue-depth", "ttft-ewma")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_positive_int(value: object, where: str, optional: bool = False) -> None:
    if value is None and optional:
        return
    _require(
        _is_int(value) and value > 0,
        f"{where} must be a positive integer"
        + (" or null" if optional else "")
        + f", got {value!r}",
    )


def _check_non_negative_int(value: object, where: str) -> None:
    _require(
        _is_int(value) and value >= 0,
        f"{where} must be a non-negative integer, got {value!r}",
    )


def _check_choice(value: object, choices: tuple[str, ...], where: str) -> None:
    _require(
        value in choices,
        f"{where} must be one of {', '.join(repr(c) for c in choices)}, got {value!r}",
    )


def _check_name(value: object, where: str) -> None:
    _require(
        isinstance(value, str) and bool(value),
        f"{where} must be a non-empty string, got {value!r}",
    )


def _check_non_negative_float(value: object, where: str) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0,
        f"{where} must be a non-negative number, got {value!r}",
    )


def _check_positive_float(value: object, where: str) -> None:
    _require(
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0,
        f"{where} must be a positive finite number, got {value!r}",
    )


def _check_finite_non_negative_float(value: object, where: str) -> None:
    _require(
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0,
        f"{where} must be a finite non-negative number, got {value!r}",
    )


def _from_mapping(cls: type[_SubSpecT], data: Mapping[str, Any], where: str) -> _SubSpecT:
    """Build a sub-spec dataclass from a mapping, rejecting unknown keys."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"{where}: unknown field(s) {', '.join(repr(k) for k in unknown)}; "
            f"known fields: {', '.join(sorted(known))}"
        )
    return cls(**data)


@dataclass(frozen=True)
class ModelSpec:
    """Which LLM to serve.

    Attributes:
        name: A registered model name (see
            :func:`repro.models.llm.list_models`).
        context_window: Optional override of the model's context window.
    """

    name: str = "LLM-7B-32K"
    context_window: int | None = None

    def __post_init__(self) -> None:
        _check_name(self.name, "model.name")
        _check_positive_int(self.context_window, "model.context_window", optional=True)


@dataclass(frozen=True)
class SystemSpec:
    """Which hardware system model serves decode.

    Attributes:
        kind: Registered system kind (``"pim-only"``, ``"xpu-pim"``,
            ``"xpu-only"``, ``"gpu"``, or anything added via
            :func:`repro.api.register_system`).
        num_modules: Module/device count; ``None`` uses the kind's
            paper-matched default.
        pimphony: PIMphony feature preset (:data:`PIMPHONY_PRESETS`).
    """

    kind: str = "pim-only"
    num_modules: int | None = None
    pimphony: str = "full"

    def __post_init__(self) -> None:
        _check_name(self.kind, "system.kind")
        _check_positive_int(self.num_modules, "system.num_modules", optional=True)
        _check_choice(self.pimphony, PIMPHONY_PRESETS, "system.pimphony")


@dataclass(frozen=True)
class ParallelismSpec:
    """(TP, PP) decomposition of the module pool.

    Leaving both ``None`` picks the system kind's default plan (the most
    tensor-parallel valid factorisation).  Setting them pins the plan; the
    product must then match ``system.num_modules`` when that is set too.
    """

    tensor_parallel: int | None = None
    pipeline_parallel: int | None = None

    def __post_init__(self) -> None:
        _check_positive_int(self.tensor_parallel, "parallelism.tensor_parallel", optional=True)
        _check_positive_int(self.pipeline_parallel, "parallelism.pipeline_parallel", optional=True)
        _require(
            (self.tensor_parallel is None) == (self.pipeline_parallel is None),
            "parallelism.tensor_parallel and parallelism.pipeline_parallel must be "
            "set together (or both left null for the system default)",
        )


@dataclass(frozen=True)
class AllocatorSpec:
    """KV-cache allocator mode.

    ``"auto"`` follows the system (PIM systems allocate chunked exactly when
    the DPA technique is enabled; ``xpu-only``/``gpu`` page by default);
    ``"static"`` forces ``T_max`` reservations (disabling DPA / paging) and
    ``"paged"`` forces chunked allocation (enabling them).
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        _check_choice(self.mode, ALLOCATOR_MODES, "allocator.mode")


@dataclass(frozen=True)
class EngineSpec:
    """Which serving-engine core drives the experiment.

    Both modes run the same loop.  ``"scalar"`` (the default) is the
    reference :class:`~repro.serving.engine.ServingEngine`, capped at one
    latency evaluation per span.  ``"fast"`` is
    :class:`~repro.serving.fast_engine.FastServingEngine`, which advances
    whole spans of uneventful decode evaluations at once; the parity suite
    pins it bit-for-bit against the scalar core on every result field
    except the attention/FC cycle breakdowns, which spans priced by a
    closed-form ``decode_span`` do not carry.
    """

    mode: str = "scalar"

    def __post_init__(self) -> None:
        _check_choice(self.mode, ENGINE_MODES, "engine.mode")


@dataclass(frozen=True)
class AdmissionSpec:
    """Admission policy and batching limits at each engine.

    Attributes:
        policy: Registered admission policy key (``"fcfs"``,
            ``"capacity-aware"``, ``"priority"``, ...).
        max_batch_size: Optional hard cap on concurrent requests.
    """

    policy: str = "fcfs"
    max_batch_size: int | None = None

    def __post_init__(self) -> None:
        _check_name(self.policy, "admission.policy")
        _check_positive_int(self.max_batch_size, "admission.max_batch_size", optional=True)


@dataclass(frozen=True)
class PrefillSpec:
    """How prompt-processing latency is charged.

    Attributes:
        mode: ``"none"`` (legacy free prefill), ``"blocking"`` or
            ``"chunked"`` (see :mod:`repro.serving.prefill`).
        model: Registered prefill model key; ``"system"`` uses the system's
            own analytic ``prefill_seconds``, ``"linear"`` the closed form
            below.
        chunk_tokens: Prompt tokens interleaved per decode step in chunked
            mode.
        per_token_s / per_token_sq_s / base_s: Coefficients of the
            ``"linear"`` model (``base + a*t + b*t^2``).
    """

    mode: str = "none"
    model: str = "system"
    chunk_tokens: int = 512
    per_token_s: float = 0.0
    per_token_sq_s: float = 0.0
    base_s: float = 0.0

    def __post_init__(self) -> None:
        _check_choice(self.mode, PREFILL_MODES, "prefill.mode")
        _check_name(self.model, "prefill.model")
        _check_positive_int(self.chunk_tokens, "prefill.chunk_tokens")
        _check_non_negative_float(self.per_token_s, "prefill.per_token_s")
        _check_non_negative_float(self.per_token_sq_s, "prefill.per_token_sq_s")
        _check_non_negative_float(self.base_s, "prefill.base_s")


@dataclass(frozen=True)
class PreemptionSpec:
    """How mid-decode KV capacity pressure is resolved.

    Attributes:
        policy: Registered preemption policy key.  ``"none"`` (default)
            keeps the admit-to-completion contract: each request's final
            context is committed at admission, growth never fails, and
            pre-lifecycle behaviour is reproduced exactly.  Any other key
            (``"evict-lru"``, ``"evict-largest"``, ``"evict-youngest"``,
            or anything added via
            :func:`repro.api.register_preemption_policy`) switches the
            engine to incremental allocation with victim eviction.
        mode: ``"swap"`` pages victims' KV to host memory and back at
            ``swap_bandwidth_gbps``; ``"recompute"`` drops it and re-runs
            prefill at restore (charged through the prefill model when one
            is configured, else ``recompute_per_token_s`` per token).
        swap_bandwidth_gbps: Host link bandwidth for the ``"swap"`` mode.
        recompute_per_token_s: Fallback re-prefill cost for the
            ``"recompute"`` mode when no prefill model is configured.
        starvation_limit: Cross-tier anti-starvation knob: a request that
            has already been preempted this many times becomes ineligible
            as a victim while any other candidate remains, so a saturating
            premium flood cannot evict the same best-effort request
            forever.  ``null`` (the default) disables the guard and
            reproduces pre-tier victim selection exactly.
    """

    policy: str = "none"
    mode: str = "recompute"
    swap_bandwidth_gbps: float = 64.0
    recompute_per_token_s: float = 0.0
    starvation_limit: int | None = None

    def __post_init__(self) -> None:
        _check_name(self.policy, "preemption.policy")
        _check_choice(self.mode, PREEMPTION_MODES, "preemption.mode")
        _check_non_negative_float(self.swap_bandwidth_gbps, "preemption.swap_bandwidth_gbps")
        _require(
            self.swap_bandwidth_gbps > 0,
            f"preemption.swap_bandwidth_gbps must be positive, got {self.swap_bandwidth_gbps!r}",
        )
        _check_non_negative_float(self.recompute_per_token_s, "preemption.recompute_per_token_s")
        _check_positive_int(self.starvation_limit, "preemption.starvation_limit", optional=True)


@dataclass(frozen=True)
class PrefixCacheSpec:
    """Per-replica prefix/KV reuse for multi-turn sessions.

    Attributes:
        enabled: Attach a :class:`~repro.serving.prefix_cache.PrefixCache`
            to every engine.  Disabled (the default) reproduces the
            no-cache arithmetic bit-for-bit, which the parity tests pin.
        capacity_tokens: Token budget shared by the cached prefixes of
            one replica (LRU eviction); ``null`` retains prefixes
            unboundedly.
    """

    enabled: bool = False
    capacity_tokens: int | None = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.enabled, bool),
            f"prefix_cache.enabled must be a boolean, got {self.enabled!r}",
        )
        _check_positive_int(
            self.capacity_tokens, "prefix_cache.capacity_tokens", optional=True
        )


@dataclass(frozen=True)
class TierSpec:
    """One workload SLO tier: which requests belong to it and what it buys.

    Tiers make service classes first-class in the experiment spec: trace
    building tags every matched request with the tier's name, priority and
    TTFT/TPOT deadlines, priority-aware preemption policies read the
    priority when picking victims, and the :class:`~repro.api.report.RunReport`
    gains a per-tier metrics section (goodput, SLO attainment, preemptions,
    latency percentiles).

    Membership is declared by exactly one predicate (or neither):

    * ``sessions`` claims every request whose session id is listed.
    * ``share`` claims that fraction of the remaining trace,
      deterministically in trace order (``share=0.25`` tags every 4th
      request, reproducing the deprecated ``trace.priority_every`` pattern).
    * Neither makes the tier the single *catch-all* for leftover requests.

    Attributes:
        name: Tier label carried into request records and the report.
        priority: Scheduling priority (larger is more urgent); consulted by
            priority admission and the ``evict-priority-*`` preemption
            policies.
        share: Fraction of the trace in ``(0, 1]`` claimed by this tier.
        sessions: Session ids claimed by this tier.
        ttft_deadline_s: Time-to-first-token SLO deadline in seconds;
            ``null`` means the tier has no TTFT deadline (always attained).
        tpot_deadline_s: Per-output-token (TPOT) SLO deadline in seconds.
    """

    name: str = "default"
    priority: int = 0
    share: float | None = None
    sessions: tuple[int, ...] | None = None
    ttft_deadline_s: float | None = None
    tpot_deadline_s: float | None = None

    def __post_init__(self) -> None:
        _check_name(self.name, "name")
        _require(
            _is_int(self.priority),
            f"priority must be an integer, got {self.priority!r}",
        )
        if self.share is not None:
            _require(
                isinstance(self.share, (int, float))
                and not isinstance(self.share, bool)
                and 0 < self.share <= 1,
                f"share must be within (0, 1] or null, got {self.share!r}",
            )
        if self.sessions is not None:
            _require(
                isinstance(self.sessions, (list, tuple))
                and len(self.sessions) > 0
                and all(_is_int(session) and session >= 0 for session in self.sessions),
                "sessions must be a non-empty list of non-negative session ids "
                f"or null, got {self.sessions!r}",
            )
            object.__setattr__(self, "sessions", tuple(self.sessions))
        _require(
            self.share is None or self.sessions is None,
            "share and sessions are mutually exclusive: a tier claims a "
            "fraction of the trace or a set of sessions, not both",
        )
        for value, where in (
            (self.ttft_deadline_s, "ttft_deadline_s"),
            (self.tpot_deadline_s, "tpot_deadline_s"),
        ):
            if value is not None:
                _require(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and math.isfinite(value)
                    and value > 0,
                    f"{where} must be a positive number or null, got {value!r}",
                )

    @property
    def is_catch_all(self) -> bool:
        """Whether this tier claims leftover requests (no predicate)."""
        return self.share is None and self.sessions is None


def _spec_list_from_data(
    cls: type[_SubSpecT], value: Any, where: str
) -> tuple[_SubSpecT, ...]:
    """Parse a list of sub-spec mappings, prefixing errors with the index."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Sequence):
        raise ValueError(f"{where} must be a list of mappings, got {type(value).__name__}")
    items: list[_SubSpecT] = []
    for index, item in enumerate(value):
        if isinstance(item, cls):
            items.append(item)
            continue
        try:
            items.append(_from_mapping(cls, item, f"{where}[{index}]"))
        except ValueError as error:
            message = str(error)
            if message.startswith(f"{where}[{index}]"):
                raise
            raise ValueError(f"{where}[{index}].{message}") from None
    return tuple(items)


def _tiers_from_data(value: Any) -> tuple[TierSpec, ...]:
    """Parse the ``tiers`` list, prefixing errors with the exact tier index."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Sequence):
        raise ValueError(f"tiers must be a list of tier mappings, got {type(value).__name__}")
    tiers: list[TierSpec] = []
    for index, item in enumerate(value):
        if isinstance(item, TierSpec):
            tiers.append(item)
            continue
        try:
            tiers.append(_from_mapping(TierSpec, item, f"tiers[{index}]"))
        except ValueError as error:
            message = str(error)
            if message.startswith(f"tiers[{index}]"):
                raise
            raise ValueError(f"tiers[{index}].{message}") from None
    return tuple(tiers)


@dataclass(frozen=True)
class TraceSpec:
    """What workload arrives, when, and with which metadata.

    Attributes:
        source: Registered trace source (``"dataset"`` samples a registered
            context-length distribution; ``"synthetic"`` builds fixed-shape
            requests, optionally with every ``heavy_every``-th request
            promoted to ``heavy_prompt_tokens``).
        dataset: Dataset name for the ``"dataset"`` source.
        num_requests: Requests in the trace.
        output_tokens: Per-request generation length (``None`` uses the
            dataset default).
        prompt_tokens: Prompt length for the ``"synthetic"`` source.
        heavy_every: In the synthetic source, promote every N-th request
            (0 disables).
        heavy_prompt_tokens: Prompt length of promoted requests.
        arrival: ``"all-at-once"`` (closed loop) or ``"poisson"``.
        rate_rps: Mean Poisson arrival rate (required when poisson).
        num_sessions: When positive, assign each request a random session
            id in ``[0, num_sessions)`` (seeded from the experiment seed).
            The ``"multi-turn"`` source instead reads this as the number
            of conversations (its requests arrive pre-tagged).
        turns_per_session: Turns per conversation for the ``"multi-turn"``
            source (each follow-up turn's prompt is the previous turn's
            full context plus ``followup_tokens``); ``num_requests`` must
            then equal ``num_sessions * turns_per_session``.
        followup_tokens: New user tokens added per follow-up turn.
        turn_gap_s: Deterministic inter-turn arrival spacing of the
            ``"multi-turn"`` source (0 leaves arrivals to ``arrival``).
        priority_every: Deprecated in favour of :attr:`ExperimentSpec.tiers`
            (a tier with ``share=1/N`` tags the same requests).  When
            positive, mark every N-th request with ``priority_value`` so
            priority admission has work to do; mutually exclusive with a
            non-empty tier list.
        priority_value: Priority assigned by ``priority_every``.
    """

    source: str = "dataset"
    dataset: str = "qmsum"
    num_requests: int = 16
    output_tokens: int | None = None
    prompt_tokens: int = 512
    heavy_every: int = 0
    heavy_prompt_tokens: int = 8192
    arrival: str = "all-at-once"
    rate_rps: float = 0.0
    num_sessions: int = 0
    turns_per_session: int = 0
    followup_tokens: int = 64
    turn_gap_s: float = 0.0
    priority_every: int = 0
    priority_value: int = 1

    def __post_init__(self) -> None:
        _check_name(self.source, "trace.source")
        _check_name(self.dataset, "trace.dataset")
        _check_positive_int(self.num_requests, "trace.num_requests")
        _check_positive_int(self.output_tokens, "trace.output_tokens", optional=True)
        _check_positive_int(self.prompt_tokens, "trace.prompt_tokens")
        _check_non_negative_int(self.heavy_every, "trace.heavy_every")
        _check_positive_int(self.heavy_prompt_tokens, "trace.heavy_prompt_tokens")
        _check_choice(self.arrival, ARRIVAL_MODES, "trace.arrival")
        _check_non_negative_float(self.rate_rps, "trace.rate_rps")
        _require(
            self.arrival != "poisson" or self.rate_rps > 0,
            "trace.rate_rps must be positive when trace.arrival is 'poisson', "
            f"got {self.rate_rps!r}",
        )
        _check_non_negative_int(self.num_sessions, "trace.num_sessions")
        _check_non_negative_int(self.turns_per_session, "trace.turns_per_session")
        _check_positive_int(self.followup_tokens, "trace.followup_tokens")
        _check_non_negative_float(self.turn_gap_s, "trace.turn_gap_s")
        _require(
            not (self.turn_gap_s > 0 and self.arrival == "poisson"),
            "trace.turn_gap_s and trace.arrival='poisson' are mutually exclusive: "
            "the Poisson process would overwrite the source's deterministic "
            "turn arrivals; set turn_gap_s to 0 or keep arrival='all-at-once'",
        )
        _check_non_negative_int(self.priority_every, "trace.priority_every")
        _require(
            _is_int(self.priority_value),
            f"trace.priority_value must be an integer, got {self.priority_value!r}",
        )


@dataclass(frozen=True)
class BurstSpec:
    """One flash-crowd window of the ``"burst"`` arrival process.

    Inside ``[start_s, start_s + duration_s)`` the baseline rate is scaled
    by ``multiplier`` (above 1 is a flash crowd, below 1 a lull).  Windows
    must not overlap.
    """

    start_s: float = 0.0
    duration_s: float = 1.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        _check_finite_non_negative_float(self.start_s, "start_s")
        _check_positive_float(self.duration_s, "duration_s")
        _check_positive_float(self.multiplier, "multiplier")


@dataclass(frozen=True)
class WarpPhaseSpec:
    """One phase of the ``"trace-warped"`` process's time-dilation profile.

    From ``start_s`` (on the replayed log's source timeline) until the next
    phase begins, a source interval of length ``dt`` maps to ``dt * factor``
    of simulated time -- factors above 1 stretch the log (lower load),
    below 1 compress it (higher load).
    """

    start_s: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        _check_finite_non_negative_float(self.start_s, "start_s")
        _check_positive_float(self.factor, "factor")


@dataclass(frozen=True)
class ArrivalSpec:
    """First-class arrival process, replacing the fixed-rate assumption.

    When present, this sub-spec overrides the legacy ``trace.arrival``
    switch: the registered process (see
    :func:`repro.api.register_arrival_process`) attaches every request's
    arrival timestamp.  ``"poisson"`` with the same derived seed is
    equivalence-pinned against ``trace.arrival='poisson'``.  Fields not
    read by the selected process are ignored, mirroring :class:`TraceSpec`.

    Attributes:
        process: Registered arrival process (``"poisson"``, ``"replay"``,
            ``"diurnal"``, ``"burst"``, ``"trace-warped"``).
        rate_rps: Mean/baseline rate for the rate-driven processes.
        period_s: Diurnal oscillation period in seconds.
        amplitude: Diurnal relative swing in ``[0, 1]`` (the peak-to-trough
            load ratio is ``(1 + a) / (1 - a)``).
        phase_s: Diurnal time offset; ``period_s / 4`` starts at the trough.
        bursts: Flash-crowd windows of the ``"burst"`` process.
        times: Source timestamps for ``"replay"``/``"trace-warped"`` (one
            per request, finite, non-negative, non-decreasing).
        warp: Time-dilation phases of the ``"trace-warped"`` process.
    """

    process: str = "poisson"
    rate_rps: float = 0.0
    period_s: float = 3600.0
    amplitude: float = 0.5
    phase_s: float = 0.0
    bursts: tuple[BurstSpec, ...] = ()
    times: tuple[float, ...] | None = None
    warp: tuple[WarpPhaseSpec, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.process, "arrival.process")
        _check_non_negative_float(self.rate_rps, "arrival.rate_rps")
        _require(
            self.process not in ("poisson", "diurnal", "burst") or self.rate_rps > 0,
            f"arrival.rate_rps must be positive when arrival.process is "
            f"{self.process!r}, got {self.rate_rps!r}",
        )
        _check_positive_float(self.period_s, "arrival.period_s")
        _require(
            isinstance(self.amplitude, (int, float))
            and not isinstance(self.amplitude, bool)
            and 0 <= self.amplitude <= 1,
            f"arrival.amplitude must lie within [0, 1], got {self.amplitude!r}",
        )
        _require(
            isinstance(self.phase_s, (int, float))
            and not isinstance(self.phase_s, bool)
            and math.isfinite(self.phase_s),
            f"arrival.phase_s must be a finite number, got {self.phase_s!r}",
        )
        _require(
            isinstance(self.bursts, (list, tuple))
            and all(isinstance(burst, BurstSpec) for burst in self.bursts),
            f"arrival.bursts must be a list of BurstSpec, got {self.bursts!r}",
        )
        object.__setattr__(self, "bursts", tuple(self.bursts))
        _require(
            isinstance(self.warp, (list, tuple))
            and all(isinstance(phase, WarpPhaseSpec) for phase in self.warp),
            f"arrival.warp must be a list of WarpPhaseSpec, got {self.warp!r}",
        )
        object.__setattr__(self, "warp", tuple(self.warp))
        if self.times is not None:
            _require(
                isinstance(self.times, (list, tuple)) and len(self.times) > 0,
                f"arrival.times must be a non-empty list of timestamps or null, "
                f"got {self.times!r}",
            )
            cleaned: list[float] = []
            for index, value in enumerate(self.times):
                _require(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and math.isfinite(value)
                    and value >= 0,
                    f"arrival.times[{index}] must be a finite non-negative "
                    f"number, got {value!r}",
                )
                cleaned.append(float(value))
            for index in range(1, len(cleaned)):
                _require(
                    cleaned[index] >= cleaned[index - 1],
                    f"arrival.times must be non-decreasing; arrival.times[{index}] "
                    f"({cleaned[index]!r}) precedes arrival.times[{index - 1}] "
                    f"({cleaned[index - 1]!r})",
                )
            object.__setattr__(self, "times", tuple(cleaned))


def _arrival_from_data(value: Any) -> ArrivalSpec | None:
    """Parse the ``arrival`` mapping, descending into ``bursts``/``warp``."""
    if value is None:
        return None
    if isinstance(value, ArrivalSpec):
        return value
    if not isinstance(value, Mapping):
        raise ValueError(f"arrival must be a mapping, got {type(value).__name__}")
    data: dict[str, Any] = dict(value)
    if data.get("bursts") is not None and "bursts" in data:
        data["bursts"] = _spec_list_from_data(BurstSpec, data["bursts"], "arrival.bursts")
    if data.get("warp") is not None and "warp" in data:
        data["warp"] = _spec_list_from_data(WarpPhaseSpec, data["warp"], "arrival.warp")
    return _from_mapping(ArrivalSpec, data, "arrival")


@dataclass(frozen=True)
class DisaggSpec:
    """Shape of a disaggregated prefill/decode fleet and its KV link.

    Used when ``router.topology`` is ``"disaggregated"``: out of
    ``router.replicas`` total engines, ``prefill_replicas`` run chunked
    prefill to completion and hand the finished KV cache to one of the
    remaining decode replicas over a point-to-point link (a
    :class:`~repro.system.interconnect.InterconnectConfig` priced from the
    request's actual KV bytes).  ``prefill_replicas=0`` is the trivial
    topology: one colocated pool, bit-identical to ``topology="colocated"``.

    Attributes:
        prefill_replicas: Engines dedicated to prefill (the remaining
            ``router.replicas - prefill_replicas`` serve decode).
        link_bandwidth_bytes_per_s: KV-transfer link bandwidth.
        link_latency_s: Per-handoff link latency in seconds.
        decode_policy: Routing policy placing finished prefills onto
            decode replicas (any registered routing policy;
            ``"kv-balanced"`` spreads reserved KV tokens evenly).
    """

    prefill_replicas: int = 1
    link_bandwidth_bytes_per_s: float = 64e9
    link_latency_s: float = 2e-6
    decode_policy: str = "kv-balanced"

    def __post_init__(self) -> None:
        _check_non_negative_int(self.prefill_replicas, "router.disagg.prefill_replicas")
        _check_non_negative_float(
            self.link_bandwidth_bytes_per_s, "router.disagg.link_bandwidth_bytes_per_s"
        )
        _require(
            self.link_bandwidth_bytes_per_s > 0,
            "router.disagg.link_bandwidth_bytes_per_s must be positive, "
            f"got {self.link_bandwidth_bytes_per_s!r}",
        )
        _check_non_negative_float(self.link_latency_s, "router.disagg.link_latency_s")
        _check_name(self.decode_policy, "router.disagg.decode_policy")


@dataclass(frozen=True)
class RouterSpec:
    """Data-parallel fleet shape and routing policy.

    Attributes:
        replicas: Identical engines behind the router (>= 1).
        policy: Registered routing policy key (``"round-robin"``,
            ``"least-outstanding"``, ``"capacity-aware"``,
            ``"session-affinity"``, ...).
        probe_context_tokens: Context used to probe per-replica step
            latency for the router's service-time estimates.
        ewma_alpha: Weight of measured per-replica TPOT folded back into
            the router's service-time estimates after each run (``0``
            disables the feedback loop and keeps probe-only estimates).
        topology: ``"colocated"`` (every replica prefills and decodes) or
            ``"disaggregated"`` (dedicated prefill and decode pools with a
            modelled KV handoff; requires :attr:`disagg`).
        disagg: Pool split and KV-link model for the disaggregated
            topology (:class:`DisaggSpec`); must be ``null`` otherwise.
    """

    replicas: int = 1
    policy: str = "round-robin"
    probe_context_tokens: int = 1024
    ewma_alpha: float = 0.3
    topology: str = "colocated"
    disagg: DisaggSpec | None = None

    def __post_init__(self) -> None:
        _check_positive_int(self.replicas, "router.replicas")
        _check_name(self.policy, "router.policy")
        _check_positive_int(self.probe_context_tokens, "router.probe_context_tokens")
        _check_non_negative_float(self.ewma_alpha, "router.ewma_alpha")
        _require(
            self.ewma_alpha <= 1.0,
            f"router.ewma_alpha must be within [0, 1], got {self.ewma_alpha!r}",
        )
        _check_choice(self.topology, TOPOLOGIES, "router.topology")
        _require(
            self.disagg is None or isinstance(self.disagg, DisaggSpec),
            f"router.disagg must be a DisaggSpec or null, got {type(self.disagg).__name__}",
        )


def _router_from_data(value: Any) -> RouterSpec | None:
    """Parse the ``router`` mapping, descending into the nested ``disagg``."""
    if value is None:
        return None
    if isinstance(value, RouterSpec):
        return value
    if not isinstance(value, Mapping):
        raise ValueError(f"router must be a mapping, got {type(value).__name__}")
    data: dict[str, Any] = dict(value)
    if "disagg" in data:
        disagg = data["disagg"]
        if disagg is not None and not isinstance(disagg, DisaggSpec):
            data["disagg"] = _from_mapping(DisaggSpec, disagg, "router.disagg")
    return _from_mapping(RouterSpec, data, "router")


@dataclass(frozen=True)
class FleetEventSpec:
    """One scripted fleet timeline event.

    ``"replica_down"`` fails the replica at ``at_s``: its in-flight
    requests lose their KV (charged as lost tokens plus a re-warm through
    the normal admission/prefill path on another replica) and the slot
    stops accepting work.  ``"replica_up"`` brings the same slot back with
    a cold engine.  Per slot, events must alternate down/up in time,
    starting with ``"replica_down"``.

    Attributes:
        at_s: Event timestamp on the simulation clock.
        kind: ``"replica_down"`` or ``"replica_up"``.
        replica: Index of the affected replica in ``[0, router.replicas)``.
    """

    at_s: float = 0.0
    kind: str = "replica_down"
    replica: int = 0

    def __post_init__(self) -> None:
        _check_finite_non_negative_float(self.at_s, "at_s")
        _check_choice(self.kind, FLEET_EVENT_KINDS, "kind")
        _check_non_negative_int(self.replica, "replica")


def _fleet_events_from_data(value: Any) -> tuple[FleetEventSpec, ...]:
    """Parse the ``fleet_events`` list, prefixing errors with the index."""
    return _spec_list_from_data(FleetEventSpec, value, "fleet_events")


@dataclass(frozen=True)
class AutoscalerSpec:
    """Reactive replica autoscaler riding on the fleet timeline.

    Every ``interval_s`` the controller samples a load signal over the
    accepting replicas and compares it against the two thresholds: above
    ``scale_up_threshold`` it adds a replica (accepting work only after
    ``cold_start_s``), below ``scale_down_threshold`` it drains one (the
    drained replica finishes its in-flight requests but accepts no new
    work).  ``cooldown_s`` rate-limits consecutive decisions.

    Attributes:
        signal: ``"queue-depth"`` (mean outstanding requests per accepting
            replica) or ``"ttft-ewma"`` (EWMA of the router's estimated
            time-to-first-token at dispatch, in seconds).
        scale_up_threshold: Signal level that triggers adding a replica.
        scale_down_threshold: Signal level that triggers draining one.
        min_replicas: Never drain below this many accepting replicas.
        max_replicas: Never grow beyond this many live replicas.
        interval_s: Evaluation period of the controller.
        cooldown_s: Minimum time between two scaling decisions.
        cold_start_s: Delay before a freshly added replica accepts work
            (model load, weight warm-up); its replica-hours start at the
            scale-up decision, so cold starts are paid for, not free.
        ewma_alpha: Smoothing weight of the ``"ttft-ewma"`` signal.
    """

    signal: str = "queue-depth"
    scale_up_threshold: float = 4.0
    scale_down_threshold: float = 1.0
    min_replicas: int = 1
    max_replicas: int = 8
    interval_s: float = 5.0
    cooldown_s: float = 30.0
    cold_start_s: float = 10.0
    ewma_alpha: float = 0.3

    def __post_init__(self) -> None:
        _check_choice(self.signal, SCALER_SIGNALS, "autoscaler.signal")
        _check_positive_float(self.scale_up_threshold, "autoscaler.scale_up_threshold")
        _check_finite_non_negative_float(
            self.scale_down_threshold, "autoscaler.scale_down_threshold"
        )
        _require(
            self.scale_down_threshold < self.scale_up_threshold,
            "autoscaler.scale_down_threshold must be below scale_up_threshold "
            f"(got {self.scale_down_threshold!r} >= {self.scale_up_threshold!r}); "
            "equal thresholds would oscillate every interval",
        )
        _check_positive_int(self.min_replicas, "autoscaler.min_replicas")
        _check_positive_int(self.max_replicas, "autoscaler.max_replicas")
        _require(
            self.min_replicas <= self.max_replicas,
            f"autoscaler.min_replicas ({self.min_replicas}) must not exceed "
            f"autoscaler.max_replicas ({self.max_replicas})",
        )
        _check_positive_float(self.interval_s, "autoscaler.interval_s")
        _check_finite_non_negative_float(self.cooldown_s, "autoscaler.cooldown_s")
        _check_finite_non_negative_float(self.cold_start_s, "autoscaler.cold_start_s")
        _require(
            isinstance(self.ewma_alpha, (int, float))
            and not isinstance(self.ewma_alpha, bool)
            and 0 <= self.ewma_alpha <= 1,
            f"autoscaler.ewma_alpha must lie within [0, 1], got {self.ewma_alpha!r}",
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, reproducible serving experiment as data.

    ``router=None`` runs a single :class:`~repro.serving.engine.ServingEngine`;
    a :class:`RouterSpec` runs a :class:`~repro.serving.router.ReplicaRouter`
    fleet.  Either way :func:`repro.api.run` returns the same
    :class:`~repro.api.report.RunReport`.

    Attributes:
        name: Label carried into reports.
        tiers: Workload SLO tiers (:class:`TierSpec`); trace building tags
            matched requests with tier name, priority and deadlines, and
            the report grows per-tier goodput/attainment sections.  An
            empty list keeps the untiered schema (and ``spec_hash``)
            bit-for-bit.
        seed: Single seed threaded through trace generation, the arrival
            process and session assignment (identical specs reproduce
            identical traces).
        step_stride: Decode steps advanced per latency evaluation.
        latency_cache_bucket: When set, each engine memoises decode-step
            latencies with this bucket size (tokens).
    """

    name: str = "experiment"
    model: ModelSpec = field(default_factory=ModelSpec)
    system: SystemSpec = field(default_factory=SystemSpec)
    parallelism: ParallelismSpec = field(default_factory=ParallelismSpec)
    allocator: AllocatorSpec = field(default_factory=AllocatorSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    preemption: PreemptionSpec = field(default_factory=PreemptionSpec)
    prefill: PrefillSpec = field(default_factory=PrefillSpec)
    prefix_cache: PrefixCacheSpec = field(default_factory=PrefixCacheSpec)
    trace: TraceSpec = field(default_factory=TraceSpec)
    arrival: ArrivalSpec | None = None
    tiers: tuple[TierSpec, ...] = ()
    router: RouterSpec | None = None
    fleet_events: tuple[FleetEventSpec, ...] = ()
    autoscaler: AutoscalerSpec | None = None
    window_s: float | None = None
    seed: int = 0
    step_stride: int = 1
    latency_cache_bucket: int | None = None

    def __post_init__(self) -> None:
        _check_name(self.name, "name")
        _require(
            isinstance(self.model, ModelSpec),
            f"model must be a ModelSpec, got {type(self.model).__name__}",
        )
        _require(
            isinstance(self.system, SystemSpec),
            f"system must be a SystemSpec, got {type(self.system).__name__}",
        )
        _require(
            isinstance(self.parallelism, ParallelismSpec),
            f"parallelism must be a ParallelismSpec, got {type(self.parallelism).__name__}",
        )
        _require(
            isinstance(self.allocator, AllocatorSpec),
            f"allocator must be an AllocatorSpec, got {type(self.allocator).__name__}",
        )
        _require(
            isinstance(self.engine, EngineSpec),
            f"engine must be an EngineSpec, got {type(self.engine).__name__}",
        )
        _require(
            isinstance(self.admission, AdmissionSpec),
            f"admission must be an AdmissionSpec, got {type(self.admission).__name__}",
        )
        _require(
            isinstance(self.preemption, PreemptionSpec),
            f"preemption must be a PreemptionSpec, got {type(self.preemption).__name__}",
        )
        _require(
            isinstance(self.prefill, PrefillSpec),
            f"prefill must be a PrefillSpec, got {type(self.prefill).__name__}",
        )
        _require(
            isinstance(self.prefix_cache, PrefixCacheSpec),
            f"prefix_cache must be a PrefixCacheSpec, got {type(self.prefix_cache).__name__}",
        )
        _require(
            isinstance(self.trace, TraceSpec),
            f"trace must be a TraceSpec, got {type(self.trace).__name__}",
        )
        _require(
            self.router is None or isinstance(self.router, RouterSpec),
            f"router must be a RouterSpec or null, got {type(self.router).__name__}",
        )
        _require(
            self.arrival is None or isinstance(self.arrival, ArrivalSpec),
            f"arrival must be an ArrivalSpec or null, got {type(self.arrival).__name__}",
        )
        _require(
            isinstance(self.fleet_events, (list, tuple)),
            f"fleet_events must be a list of FleetEventSpec, "
            f"got {type(self.fleet_events).__name__}",
        )
        for index, event in enumerate(self.fleet_events):
            _require(
                isinstance(event, FleetEventSpec),
                f"fleet_events[{index}] must be a FleetEventSpec, "
                f"got {type(event).__name__}",
            )
        object.__setattr__(self, "fleet_events", tuple(self.fleet_events))
        _require(
            self.autoscaler is None or isinstance(self.autoscaler, AutoscalerSpec),
            f"autoscaler must be an AutoscalerSpec or null, "
            f"got {type(self.autoscaler).__name__}",
        )
        if self.window_s is not None:
            _check_positive_float(self.window_s, "window_s")
        if self.arrival is not None:
            _require(
                self.trace.arrival == "all-at-once",
                "arrival and trace.arrival are mutually exclusive ways to "
                "attach timestamps; keep trace.arrival='all-at-once' when the "
                f"arrival sub-spec is present (got {self.trace.arrival!r})",
            )
            _require(
                self.trace.turn_gap_s <= 0,
                "arrival and trace.turn_gap_s are mutually exclusive: the "
                "arrival process would overwrite the multi-turn source's "
                "deterministic turn arrivals; set turn_gap_s to 0 or drop "
                "the arrival sub-spec",
            )
        self._check_tiers()
        _require(
            _is_int(self.seed) and self.seed >= 0,
            f"seed must be a non-negative integer, got {self.seed!r}",
        )
        _check_positive_int(self.step_stride, "step_stride")
        _check_positive_int(self.latency_cache_bucket, "latency_cache_bucket", optional=True)
        if self.system.num_modules is not None and self.parallelism.tensor_parallel is not None:
            product = self.parallelism.tensor_parallel * self.parallelism.pipeline_parallel
            _require(
                product == self.system.num_modules,
                f"parallelism TP{self.parallelism.tensor_parallel} x "
                f"PP{self.parallelism.pipeline_parallel} covers {product} modules "
                f"but system.num_modules is {self.system.num_modules}",
            )

    def _check_tiers(self) -> None:
        """Cross-tier validation; errors name the exact tier index."""
        _require(
            isinstance(self.tiers, (list, tuple)),
            f"tiers must be a list of TierSpec, got {type(self.tiers).__name__}",
        )
        for index, tier in enumerate(self.tiers):
            _require(
                isinstance(tier, TierSpec),
                f"tiers[{index}] must be a TierSpec, got {type(tier).__name__}",
            )
        object.__setattr__(self, "tiers", tuple(self.tiers))
        names: dict[str, int] = {}
        claimed_sessions: dict[int, int] = {}
        catch_all: int | None = None
        total_share = 0.0
        for index, tier in enumerate(self.tiers):
            _require(
                tier.name not in names,
                f"tiers[{index}].name {tier.name!r} duplicates "
                f"tiers[{names.get(tier.name)}].name",
            )
            names[tier.name] = index
            if tier.share is not None:
                total_share += tier.share
            if tier.is_catch_all:
                _require(
                    catch_all is None,
                    f"tiers[{index}] and tiers[{catch_all}] are both catch-all "
                    "tiers (neither share nor sessions); at most one tier may "
                    "claim leftover requests",
                )
                catch_all = index
            for session in tier.sessions or ():
                _require(
                    session not in claimed_sessions,
                    f"tiers[{index}].sessions lists session {session} already "
                    f"claimed by tiers[{claimed_sessions.get(session)}]",
                )
                claimed_sessions[session] = index
        _require(
            total_share <= 1.0 + 1e-9,
            f"tiers[*].share values must sum to at most 1, got {total_share!r}",
        )
        _require(
            not (self.tiers and self.trace.priority_every > 0),
            "tiers and trace.priority_every are mutually exclusive: the tier "
            "list replaces periodic priority tagging; drop the deprecated "
            "trace.priority_every or the tiers",
        )

    # -- registry-key validation -------------------------------------------

    def validate(self) -> ExperimentSpec:
        """Resolve every registry key, failing fast with the field path.

        Returns ``self`` so it chains: ``run(spec.validate())``.

        Raises:
            ValueError: naming the offending field and the registered keys.
        """
        from repro.models.llm import list_models
        from repro.workloads.datasets import list_datasets

        def _check_key(registry: Registry, key: str, where: str) -> None:
            if key not in registry:
                known = ", ".join(registry.names()) or "<none>"
                raise ValueError(
                    f"{where}: unknown {registry.kind} {key!r}; "
                    f"registered keys: {known}"
                )

        _check_key(SYSTEMS, self.system.kind, "system.kind")
        _check_key(ADMISSION_POLICIES, self.admission.policy, "admission.policy")
        _check_key(PREEMPTION_POLICIES, self.preemption.policy, "preemption.policy")
        if self.router is not None:
            _check_key(ROUTING_POLICIES, self.router.policy, "router.policy")
            if self.router.topology == "disaggregated":
                if self.router.disagg is None:
                    raise ValueError(
                        "router.topology: 'disaggregated' requires router.disagg "
                        "(pool split and KV-link model)"
                    )
                disagg = self.router.disagg
                _check_key(ROUTING_POLICIES, disagg.decode_policy, "router.disagg.decode_policy")
                if disagg.prefill_replicas >= self.router.replicas:
                    raise ValueError(
                        f"router.disagg.prefill_replicas: {disagg.prefill_replicas} prefill "
                        f"replicas leave no decode replica out of router.replicas="
                        f"{self.router.replicas}"
                    )
                if disagg.prefill_replicas > 0:
                    if self.prefill.mode != "chunked":
                        raise ValueError(
                            "router.disagg: a disaggregated prefill pool runs chunked "
                            "prefill; set prefill.mode='chunked' (got "
                            f"{self.prefill.mode!r})"
                        )
                    if self.prefix_cache.enabled:
                        raise ValueError(
                            "router.disagg: prefix_cache is not supported with a "
                            "disaggregated prefill pool (handoff KV never revisits "
                            "the prefill replica)"
                        )
            elif self.router.disagg is not None:
                raise ValueError(
                    "router.disagg: requires router.topology='disaggregated' "
                    f"(got {self.router.topology!r})"
                )
        if self.arrival is not None:
            _check_key(ARRIVAL_PROCESSES, self.arrival.process, "arrival.process")
            if self.arrival.process in ("replay", "trace-warped"):
                if self.arrival.times is None:
                    raise ValueError(
                        f"arrival.times: the {self.arrival.process!r} process "
                        "replays explicit timestamps; provide one per request"
                    )
                if len(self.arrival.times) != self.trace.num_requests:
                    raise ValueError(
                        "arrival.times: expected trace.num_requests="
                        f"{self.trace.num_requests} timestamps, "
                        f"got {len(self.arrival.times)}"
                    )
            if self.arrival.process == "trace-warped" and not self.arrival.warp:
                raise ValueError(
                    "arrival.warp: the 'trace-warped' process requires at "
                    "least one (start_s, factor) phase"
                )
            windows = sorted(
                (burst.start_s, burst.duration_s) for burst in self.arrival.bursts
            )
            for (start_a, duration_a), (start_b, _) in zip(windows, windows[1:], strict=False):
                if start_b < start_a + duration_a:
                    raise ValueError(
                        "arrival.bursts: windows overlap (the window starting "
                        f"at {start_b!r} begins before the window at "
                        f"{start_a!r} ends at {start_a + duration_a!r})"
                    )
            warp_starts = [phase.start_s for phase in self.arrival.warp]
            for start_a, start_b in zip(warp_starts, warp_starts[1:], strict=False):
                if start_b <= start_a:
                    raise ValueError(
                        "arrival.warp: phase starts must be strictly "
                        f"increasing, got {start_b!r} after {start_a!r}"
                    )
        if self.fleet_events or self.autoscaler is not None:
            if self.router is None:
                raise ValueError(
                    "fleet_events/autoscaler: the fleet timeline needs a "
                    "replica fleet; set router (e.g. router.replicas)"
                )
            if self.router.topology != "colocated":
                raise ValueError(
                    "fleet_events/autoscaler: the fleet timeline supports "
                    f"only the 'colocated' topology, got {self.router.topology!r}"
                )
        if self.fleet_events:
            per_slot: dict[int, list[FleetEventSpec]] = {}
            for event in self.fleet_events:
                per_slot.setdefault(event.replica, []).append(event)
            assert self.router is not None
            for replica, events in sorted(per_slot.items()):
                if replica >= self.router.replicas:
                    raise ValueError(
                        f"fleet_events: replica {replica} is outside the fleet "
                        f"(router.replicas={self.router.replicas})"
                    )
                events.sort(key=lambda event: event.at_s)
                for previous, current in zip(events, events[1:], strict=False):
                    if current.at_s <= previous.at_s:
                        raise ValueError(
                            f"fleet_events: replica {replica} has two events at "
                            f"indistinguishable times ({previous.at_s!r} and "
                            f"{current.at_s!r}); event times must be strictly "
                            "increasing per replica"
                        )
                for index, event in enumerate(events):
                    expected = "replica_down" if index % 2 == 0 else "replica_up"
                    if event.kind != expected:
                        raise ValueError(
                            f"fleet_events: replica {replica}'s events must "
                            "alternate replica_down/replica_up starting with "
                            f"replica_down; event at t={event.at_s!r} is "
                            f"{event.kind!r} but {expected!r} was expected"
                        )
        if self.autoscaler is not None:
            assert self.router is not None
            if not (
                self.autoscaler.min_replicas
                <= self.router.replicas
                <= self.autoscaler.max_replicas
            ):
                raise ValueError(
                    f"autoscaler: router.replicas={self.router.replicas} must "
                    "start inside [autoscaler.min_replicas, autoscaler.max_replicas] "
                    f"= [{self.autoscaler.min_replicas}, {self.autoscaler.max_replicas}]"
                )
        if self.prefill.mode != "none":
            _check_key(PREFILL_MODELS, self.prefill.model, "prefill.model")
        _check_key(TRACES, self.trace.source, "trace.source")
        if self.model.name not in list_models():
            raise ValueError(
                f"model.name: unknown model {self.model.name!r}; "
                f"registered models: {', '.join(list_models())}"
            )
        if self.trace.source == "dataset" and self.trace.dataset not in list_datasets():
            raise ValueError(
                f"trace.dataset: unknown dataset {self.trace.dataset!r}; "
                f"registered datasets: {', '.join(list_datasets())}"
            )
        for index, tier in enumerate(self.tiers):
            if (
                tier.sessions is not None
                and self.trace.num_sessions == 0
                and self.trace.source != "multi-turn"
            ):
                raise ValueError(
                    f"tiers[{index}].sessions: the trace defines no sessions "
                    "(set trace.num_sessions or use the 'multi-turn' source)"
                )
        return self

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation; ``from_dict`` round-trips it exactly."""
        data = dataclasses.asdict(self)
        if self.preemption.starvation_limit is None:
            # A disabled guard keeps the pre-tier preemption schema (and
            # spec_hash) bit-for-bit.
            del data["preemption"]["starvation_limit"]
        if not self.tiers:
            # Untiered specs keep the pre-tier schema -- and therefore the
            # same canonical JSON and spec_hash -- bit-for-bit.
            del data["tiers"]
        else:
            data["tiers"] = [dataclasses.asdict(tier) for tier in self.tiers]
        if self.router is not None:
            # Colocated fleets keep the pre-disaggregation router schema
            # (and spec_hash) bit-for-bit.
            if self.router.topology == "colocated":
                del data["router"]["topology"]
            if self.router.disagg is None:
                del data["router"]["disagg"]
        # Static-world specs (no arrival process, no fleet timeline, no
        # windowing) keep the pre-timeline schema and spec_hash bit-for-bit.
        if self.arrival is None:
            del data["arrival"]
        else:
            arrival = dict(data["arrival"])
            arrival["bursts"] = [dataclasses.asdict(burst) for burst in self.arrival.bursts]
            arrival["warp"] = [dataclasses.asdict(phase) for phase in self.arrival.warp]
            if self.arrival.times is not None:
                arrival["times"] = list(self.arrival.times)
            data["arrival"] = arrival
        if not self.fleet_events:
            del data["fleet_events"]
        else:
            data["fleet_events"] = [dataclasses.asdict(event) for event in self.fleet_events]
        if self.autoscaler is None:
            del data["autoscaler"]
        if self.window_s is None:
            del data["window_s"]
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> ExperimentSpec:
        """Build a spec from nested mappings (e.g. parsed JSON).

        Missing sub-specs take their defaults; unknown keys raise with the
        field path so spec typos fail fast.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"experiment spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(ExperimentSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"experiment spec: unknown field(s) {', '.join(repr(k) for k in unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        kwargs: dict[str, Any] = {}
        sub_specs = {
            "model": ModelSpec,
            "system": SystemSpec,
            "parallelism": ParallelismSpec,
            "allocator": AllocatorSpec,
            "engine": EngineSpec,
            "admission": AdmissionSpec,
            "preemption": PreemptionSpec,
            "prefill": PrefillSpec,
            "prefix_cache": PrefixCacheSpec,
            "trace": TraceSpec,
        }
        for key, value in data.items():
            if key in sub_specs:
                kwargs[key] = _from_mapping(sub_specs[key], value, key)
            elif key == "router":
                kwargs[key] = _router_from_data(value)
            elif key == "tiers":
                kwargs[key] = _tiers_from_data(value)
            elif key == "arrival":
                kwargs[key] = _arrival_from_data(value)
            elif key == "fleet_events":
                kwargs[key] = _fleet_events_from_data(value)
            elif key == "autoscaler":
                if value is None or isinstance(value, AutoscalerSpec):
                    kwargs[key] = value
                else:
                    kwargs[key] = _from_mapping(AutoscalerSpec, value, "autoscaler")
            else:
                kwargs[key] = value
        return ExperimentSpec(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical JSON encoding (sorted keys)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> ExperimentSpec:
        """Parse a spec from its JSON encoding."""
        return ExperimentSpec.from_dict(json.loads(text))

    @property
    def spec_hash(self) -> str:
        """Stable short hash of the canonical JSON (for report provenance)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def with_overrides(self, overrides: Mapping[str, Any]) -> ExperimentSpec:
        """Return a copy with dotted-path overrides applied.

        ``spec.with_overrides({"system.pimphony": "baseline",
        "trace.num_requests": 64})`` is the programmatic form of the CLI's
        ``--set`` flags; it round-trips through ``to_dict`` so overrides are
        validated exactly like JSON input.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            apply_override(data, path, value)
        return ExperimentSpec.from_dict(data)


def _list_index(node: list, part: str, path: str) -> int:
    """Resolve a list index path component; ``len(node)`` is the append slot."""
    if not part.isdigit():
        raise ValueError(
            f"invalid override path {path!r}: {part!r} must be a list index "
            f"(0..{len(node)})"
        )
    index = int(part)
    if index > len(node):
        raise ValueError(
            f"invalid override path {path!r}: index {index} is out of range "
            f"for a list of length {len(node)} (use {len(node)} to append)"
        )
    return index


def apply_override(data: dict[str, Any], path: str, value: Any) -> None:
    """Set ``value`` at a dotted ``path`` inside a nested spec dict.

    Intermediate mappings are created as needed (so ``router.replicas=4``
    works even when the base spec has ``router: null``).  Numeric path
    components index into lists, which are also created on demand: on an
    untiered spec ``tiers.0.name=premium`` creates the ``tiers`` list and
    its first tier; an index equal to the list length appends a new entry.
    """
    parts = path.split(".")
    if not all(parts):
        raise ValueError(f"invalid override path {path!r}")
    node: Any = data
    for position, part in enumerate(parts[:-1]):
        # The next component decides what this step must contain: a list
        # when it is numeric, a mapping otherwise.
        want_list = parts[position + 1].isdigit()
        if isinstance(node, list):
            index = _list_index(node, part, path)
            if index == len(node):
                node.append([] if want_list else {})
            child = node[index]
            if not isinstance(child, list if want_list else dict):
                child = [] if want_list else {}
                node[index] = child
        else:
            child = node.get(part)
            if isinstance(child, list) and not want_list:
                raise ValueError(
                    f"invalid override path {path!r}: {parts[position + 1]!r} "
                    f"must be a list index (0..{len(child)})"
                )
            if not isinstance(child, list if want_list else dict):
                child = [] if want_list else {}
                node[part] = child
        node = child
    last = parts[-1]
    if isinstance(node, list):
        index = _list_index(node, last, path)
        if index == len(node):
            node.append(value)
        else:
            node[index] = value
    else:
        node[last] = value


__all__ = [
    "ALLOCATOR_MODES",
    "ARRIVAL_MODES",
    "ENGINE_MODES",
    "FLEET_EVENT_KINDS",
    "PIMPHONY_PRESETS",
    "PREEMPTION_MODES",
    "PREFILL_MODES",
    "SCALER_SIGNALS",
    "TOPOLOGIES",
    "ArrivalSpec",
    "AutoscalerSpec",
    "BurstSpec",
    "DisaggSpec",
    "FleetEventSpec",
    "ModelSpec",
    "SystemSpec",
    "ParallelismSpec",
    "AllocatorSpec",
    "EngineSpec",
    "AdmissionSpec",
    "PreemptionSpec",
    "PrefillSpec",
    "PrefixCacheSpec",
    "TierSpec",
    "TraceSpec",
    "RouterSpec",
    "WarpPhaseSpec",
    "ExperimentSpec",
    "apply_override",
]

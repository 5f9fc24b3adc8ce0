"""Host-speed correction for the benchmark's host times.

The host this benchmark was tuned on is a shared VM whose CPU speed drifts
by up to 2x over seconds to minutes, so raw wall times of one spec differ
by 30% between measurements a minute apart.  :class:`SpeedProbe` samples
the host's current speed while a measurement runs: a timer signal fires
every :data:`INTERVAL_S` and its handler times a fixed pure-Python kernel.
A measured interval is then scaled to the reference speed, at which one
kernel takes :data:`REFERENCE_KERNEL_S`:

    corrected = (wall time - time in the handler) * REFERENCE_KERNEL_S / kernel time

The handler only reads the clock and runs its own loop, so simulated
results are unaffected; it adds about 0.2% to the wall time, which is
subtracted.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter_ns
from types import FrameType, TracebackType

INTERVAL_S = 0.02
#: Kernel time at the reference speed (roughly the fast state of the host the
#: benchmark was tuned on).  Corrected times are seconds at this speed.
REFERENCE_KERNEL_S = 40e-6
KERNEL_LOOPS = 3000


def _kernel() -> None:
    for _ in range(KERNEL_LOOPS):
        pass


class SpeedProbe:
    """Context manager sampling the kernel's time from a timer signal."""

    def __init__(self) -> None:
        #: ``(start_ns, duration_ns)`` of every kernel run.
        self.samples: list[tuple[int, int]] = []
        self._previous: object = None

    def _tick(self, signum: int, frame: FrameType | None) -> None:
        start = perf_counter_ns()
        _kernel()
        self.samples.append((start, perf_counter_ns() - start))

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(
        self,
        kind: type[BaseException] | None,
        value: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]

    def _within(self, start_ns: int, end_ns: int) -> list[int]:
        return [duration for at, duration in self.samples if start_ns <= at < end_ns]

    def handler_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds the handler took inside ``[start_ns, end_ns)``."""
        return sum(self._within(start_ns, end_ns)) / 1e9

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Reference speed over the speed sampled in ``[start_ns, end_ns)``.

        The sampled kernel time is a mean without the slowest and fastest
        tenth of the samples: a handler that the host preempts once would
        otherwise count as a long slow phase.  An interval too short to
        hold a sample uses every sample taken.
        """
        durations = sorted(
            self._within(start_ns, end_ns) or [duration for _, duration in self.samples]
        )
        if not durations:
            return 1.0
        trim = len(durations) // 10
        kept = durations[trim : len(durations) - trim]
        return REFERENCE_KERNEL_S / (statistics.fmean(kept) / 1e9)

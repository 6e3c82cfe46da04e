"""Metric arithmetic: host-probe scaling, medians, tails and failure counts.

Kept free of I/O and of the program so that ``perfbench/tests`` can pin
every rule the benchmark's numbers rest on.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it; fewer make run-to-run spread dominate the value.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def host_factor(nominal_probe_ms: float, probe_median_ms: float) -> float:
    """The factor turning a raw duration into one on the nominal host.

    ``nominal_probe_ms / probe median``: on a host (or in a run) where the
    probe took twice the nominal time, raw durations are halved.
    """
    if nominal_probe_ms <= 0 or probe_median_ms <= 0:
        raise ValueError("probe times must be positive")
    return nominal_probe_ms / probe_median_ms


def scale_duration(raw: float, factor: float) -> float:
    """A duration (s or ms) on the nominal host."""
    return raw * factor


class ProbeTimeline:
    """Probe times of a run, for scaling each op by the probes around it.

    The host's speed drifts within seconds, so one factor per run leaves
    most of the drift in the numbers.  ``factor_at(t)`` takes the median
    of the ``window`` probes on each side of time ``t`` instead.

    ``elasticity`` maps an op kind to how strongly its time follows the
    probe's (the factor is raised to that power; 1 when absent).  Pure
    Python ops follow the pure-Python probe one to one; an op spending
    much of its time in native code on several cores follows it less.
    """

    def __init__(
        self,
        times: Sequence[float],
        samples_ms: Sequence[float],
        nominal_ms: float,
        window: int,
        elasticity: Optional[Dict[str, float]] = None,
    ) -> None:
        if not samples_ms or len(times) != len(samples_ms):
            raise ValueError("need one time per probe sample")
        order = sorted(range(len(times)), key=times.__getitem__)
        self.times = [times[i] for i in order]
        self.samples_ms = [samples_ms[i] for i in order]
        self.nominal_ms = nominal_ms
        self.window = window
        self.elasticity = elasticity or {}

    def factor_at(self, t: float, kind: str = "other") -> float:
        index = bisect.bisect_left(self.times, t)
        low = max(0, index - self.window)
        high = min(len(self.samples_ms), index + self.window)
        factor = host_factor(self.nominal_ms, median(self.samples_ms[low:high]))
        return factor ** self.elasticity.get(kind, 1.0)

    def scaled(self, parts: Sequence[Tuple[float, float, str]]) -> float:
        """Sum of ``(time, duration, kind)`` parts, each scaled at its own time."""
        return sum(duration * self.factor_at(t, kind) for t, duration, kind in parts)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile, or ``None`` unless ``MIN_TAIL_SAMPLES`` lie beyond it."""
    if not values:
        return None
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value if beyond >= MIN_TAIL_SAMPLES else None


class OpCounter:
    """Attempted and failed operations of a run.

    An operation fails when it raises, when the service answers non-2xx
    (429s included) or when a correctness check over its output fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.errors[reason] = self.errors.get(reason, 0) + count

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

"""What every workload shares: timed ops, units of work, set-up samples.

A workload drives the program in a closed loop.  Each call into the
program is one *op*, timed on its own and sorted into ``write``, ``read``
or ``other``; a fixed script of ops is one *unit* (one resolve, one event
script pass, one session cycle), and ``records_per_s`` is the records of
a unit over the median time its ops took.  The host probe runs between
ops, never during one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from perfbench.probe import HostProbe
from perfbench.stats import OpCounter, ProbeTimeline, median

T = TypeVar("T")

PERFBENCH_DIR = Path(__file__).resolve().parent


class OpFailed(Exception):
    """An op whose failure is already counted; ends the current unit."""


class Phase:
    """Samples of one measuring phase (untraced, or traced).

    Every sample keeps the time it ended, so that it can be scaled by the
    host probes run around it (``stats.ProbeTimeline``).
    """

    def __init__(self) -> None:
        self.latency: Dict[str, List[Tuple[float, float]]] = {"write": [], "read": [], "other": []}
        self.units: List[Tuple[int, List[Tuple[float, float, str]]]] = []

    def raw_latency_s(self, kind: str) -> List[float]:
        return [seconds for _, seconds in self.latency[kind]]

    def latency_s(self, kind: str, timeline: Optional[ProbeTimeline] = None) -> List[float]:
        """Latencies of one kind, each scaled at its own time if a timeline is given."""
        if timeline is None:
            return self.raw_latency_s(kind)
        return [seconds * timeline.factor_at(t, kind) for t, seconds in self.latency[kind]]

    def records_per_s(self, timeline: Optional[ProbeTimeline] = None) -> float:
        """Records of a unit over the median time a unit's ops took."""
        unit_s = [
            timeline.scaled(parts) if timeline else sum(seconds for _, seconds, _ in parts)
            for _, parts in self.units
        ]
        return median([records for records, _ in self.units]) / median(unit_s)

    def op_s(self) -> float:
        return sum(seconds for _, parts in self.units for _, seconds, _ in parts)


class Run:
    """State of one benchmark run: probe, op counter, phases, set-up."""

    def __init__(self, root: Path, work_dir: Path, probes_per_gap: int) -> None:
        self.root = root
        self.work_dir = work_dir
        # Span files of traced runs; kept after the run, unlike work_dir.
        self.trace_dir = root / ".perfbench" / "traces"
        self.probe = HostProbe()
        self.ops = OpCounter()
        self.probes_per_gap = probes_per_gap
        self.phase = Phase()
        # Set-up samples: import_s, build_s, preload_s and the probe_ms of
        # the interpreter that took them.
        self.setup: List[Dict[str, float]] = []
        self._parts: List[Tuple[float, float, str]] = []

    def gap(self) -> None:
        """Between ops: wait for the program to go idle, then probe the host."""
        busy = self.probe.run(self.probes_per_gap)
        if busy:
            self._parts.append((time.perf_counter(), busy, "other"))

    def op(self, kind: str, fn: Callable[[], T], reason: str = "error") -> T:
        """Time one call into the program; a raise counts as a failed op."""
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as error:  # noqa: BLE001 - counted, then the unit ends
            self.ops.fail(f"{reason}: {type(error).__name__}: {error}"[:200])
            raise OpFailed() from error
        ended = time.perf_counter()
        self.ops.ok()
        self.phase.latency[kind].append((ended, ended - started))
        self._parts.append((ended, ended - started, kind))
        return result

    def add_op_time(self, kind: str, ended: float, seconds: float) -> None:
        """Record an op timed by the caller (concurrent client requests)."""
        self.phase.latency[kind].append((ended, seconds))

    def add_unit_time(self, ended: float, seconds: float) -> None:
        """Charge wall time to the current unit (a concurrent round)."""
        self._parts.append((ended, seconds, "other"))

    def begin_unit(self) -> None:
        self._parts = []

    def end_unit(self, records: int) -> None:
        self.phase.units.append((records, self._parts))
        self._parts = []

    def timeline(self, nominal_ms: float, window: int, elasticity: Dict[str, float]) -> ProbeTimeline:
        return ProbeTimeline(self.probe.times, self.probe.samples_ms, nominal_ms, window, elasticity)

    # ---------------------------------------------------------------- set-up
    def setup_child(self, workload: str, inputs_path: Path, samples: int) -> None:
        """Measure set-up ``samples`` times, each in a fresh interpreter."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONHASHSEED="0")
        for index in range(samples):
            self.gap()
            out = self.work_dir / f"setup-{index}"
            completed = subprocess.run(
                [sys.executable, str(PERFBENCH_DIR / "setup_child.py"), workload,
                 str(inputs_path), str(out)],
                cwd=self.root, env=env, capture_output=True, text=True, timeout=120,
            )
            if completed.returncode != 0:
                raise RuntimeError(f"set-up child failed:\n{completed.stderr[-2000:]}")
            self.setup.append(json.loads(completed.stdout.strip().splitlines()[-1]))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process) in MB."""
    with open(f"/proc/{pid or 'self'}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


def f1_counts(matches, truth) -> Dict[str, int]:
    """True/false positives and false negatives of a match list."""
    predicted = {tuple(sorted(pair)) for pair in matches}
    expected = {tuple(sorted(pair)) for pair in truth}
    true_positive = len(predicted & expected)
    return {
        "tp": true_positive,
        "fp": len(predicted) - true_positive,
        "fn": len(expected) - true_positive,
    }


def f1_score(counts: Dict[str, int]) -> float:
    denominator = 2 * counts["tp"] + counts["fp"] + counts["fn"]
    return 2 * counts["tp"] / denominator if denominator else 0.0

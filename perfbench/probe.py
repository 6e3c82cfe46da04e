"""The host probe and its idle-program guard.

The probe is a fixed pure-Python loop run between workload operations,
while the program is idle.  Its time measures how fast the host is at
that moment; timings are scaled by ``nominal_probe_ms`` over the median
of the probes around them (``stats.ProbeTimeline``), so that drift of a
shared host shows up in the probe as much as in the program and cancels
out.

The guard makes that scaling honest: it reads, from the OS, the CPU time
of everything that hosts program work other than the probing thread --
the other threads of this process, its child processes (join pool
workers) and any watched process (the service subprocess) with its
children.  Before probing it waits for that CPU time to stop growing,
and reports the busy wait so the workload is charged for it.  A probe
during which it grew by more than ``OVERLAP_SHARE`` of the probe's wall
time overlapped program work: it is retaken, again charging the program
time, and a gap that never yields a clean probe fails the run, because
background work could otherwise pass for a speed-up.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

#: Iterations of the probe loop; fixed forever, since ``nominal_probe_ms``
#: in ``spec.json`` is the loop's time on the reference host.
PROBE_ITERATIONS = 10_000

#: Program CPU time during a probe, as a share of the probe's wall time,
#: above which the probe counts as overlapping program work.  Idle pool
#: and server housekeeping threads stay far below it.
OVERLAP_SHARE = 0.05

#: Quiet interval that counts as idle before a probe, and the longest wait
#: for one.  A program still busy after the wait makes the probe overlap.
SETTLE_S = 0.0005
SETTLE_MAX_S = 0.05

#: Tries for one clean probe before the overlap fails the run.
MAX_ATTEMPTS = 3

_CPUCLOCK_SCHED = 2


def probe_loop(iterations: int = PROBE_ITERATIONS) -> int:
    """The fixed workload of one probe: dict, arithmetic and string ops."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += (i * 31) % 97
    words = [str(i) for i in range(iterations // 20)]
    return total + len(",".join(words)) + len(table)


def process_cpu_ns(pid: int) -> int:
    """CPU time of every thread of ``pid`` in ns, 0 once it has exited.

    Uses the kernel's per-process CPU clock, which, unlike
    ``/proc/<pid>/stat``, includes the running slice of busy threads.
    """
    clock = ((~pid) << 3) | _CPUCLOCK_SCHED
    try:
        return time.clock_gettime_ns(clock)
    except OSError:
        return 0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` from ``/proc/<pid>/task/*/children``."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                children.extend(int(field) for field in handle.read().split())
        except OSError:
            continue
    return children


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``."""
    found: List[int] = []
    frontier = child_pids(pid)
    while frontier:
        found.extend(frontier)
        frontier = [grandchild for child in frontier for grandchild in child_pids(child)]
    return found


class ProgramCpu:
    """Reads the CPU time of program work outside the calling thread."""

    def __init__(self) -> None:
        self._watched: List[int] = []

    def watch(self, pid: int) -> None:
        """Also count ``pid`` and its descendants (a server subprocess)."""
        self._watched.append(pid)

    def unwatch(self, pid: int) -> None:
        self._watched.remove(pid)

    def read(self) -> Dict[int, int]:
        """CPU ns per source: key 0 is this process minus the calling thread."""
        own = time.clock_gettime_ns(time.CLOCK_PROCESS_CPUTIME_ID) - time.clock_gettime_ns(
            time.CLOCK_THREAD_CPUTIME_ID
        )
        sample = {0: own}
        roots = [os.getpid(), *self._watched]
        for pid in [*self._watched, *(d for root in roots for d in descendants(root))]:
            sample[pid] = process_cpu_ns(pid)
        return sample

    @staticmethod
    def grown_ns(before: Dict[int, int], after: Dict[int, int]) -> int:
        """CPU ns spent between two reads by sources alive at both."""
        return sum(max(0, after[key] - before[key]) for key in after.keys() & before.keys())


class HostProbe:
    """Runs probes, keeps their times and flags overlap with program work."""

    def __init__(self, cpu: Optional[ProgramCpu] = None) -> None:
        self.cpu = cpu or ProgramCpu()
        self.samples_ms: List[float] = []
        self.times: List[float] = []
        self.overlaps: List[float] = []
        self.discarded = 0

    def settle(self) -> float:
        """Wait until the program is idle: no CPU use over ``SETTLE_S``.

        A server answers before it has torn down the connection; that
        tail of work must end before a probe starts.  Returns how long the
        program stayed busy, which the caller charges to the workload so
        that work deferred past a reply is not free.
        """
        started = time.perf_counter()
        busy_until = started
        previous = self.cpu.read()
        while time.perf_counter() < started + SETTLE_MAX_S:
            time.sleep(SETTLE_S)
            current = self.cpu.read()
            if ProgramCpu.grown_ns(previous, current) == 0:
                break
            busy_until = time.perf_counter()
            previous = current
        return busy_until - started

    def run(self, count: int = 1) -> float:
        """Wait for idle, then take ``count`` probes, each guarded on its own.

        A probe that overlapped program work is discarded and retaken
        after the program settles again, up to ``MAX_ATTEMPTS`` times;
        after that the overlap is recorded and fails the run.  Returns the
        program time seen meanwhile -- busy settling plus CPU time during
        discarded probes -- for the caller to charge to the workload.
        """
        charged = self.settle()
        for _ in range(count):
            for _attempt in range(MAX_ATTEMPTS):
                before = self.cpu.read()
                started = time.perf_counter_ns()
                probe_loop()
                elapsed = time.perf_counter_ns() - started
                busy = ProgramCpu.grown_ns(before, self.cpu.read())
                if busy <= OVERLAP_SHARE * elapsed:
                    self.samples_ms.append(elapsed / 1e6)
                    self.times.append(time.perf_counter())
                    break
                self.discarded += 1
                charged += busy / 1e9 + self.settle()
            else:
                self.overlaps.append(busy / elapsed)
        return charged

"""Time measured work at the reference host speed.

The reference machine is a shared VM whose speed drifts: the same
verification sweep took 9.6 s to 15.0 s within four minutes in one
process, and its CPU time moved with it.  So the fixed-work workloads
cut their timed work into short segments and run a fixed calibration
loop between them, on the same thread.  The served workload cannot
calibrate inside its servers, so it pauses its load now and then and
runs the loop on both CPUs at once (:class:`BothCPUs`).  A segment's
time is scaled by ``CAL_REF_S / calibration time`` (the mean of the
loops before and after it): the time the segment would have taken on
the reference machine at its median speed.  The loop is pure Python on
its own objects, with the collector off, so the program under test
changes its cost only through the host they share.  Set-up times are
scaled by a calibration before and after each set-up.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import time

#: median time of :func:`calibrate` on the reference machine (2-core
#: Xeon VM, Python 3.11); it only sets the scale of scaled times
CAL_REF_S = 0.0125

#: loop iterations of one calibration (about 12 ms on the reference
#: machine)
CAL_ITERATIONS = 30000

#: CPU seconds per segment: a profiling-timer signal ends each one, so
#: segments are this short whatever the granularity of the work, and
#: calibration costs about 5 % of the timed work
SEGMENT_S = 0.25


class _Slot:
    __slots__ = ("a", "b")


#: the loop's objects, built once: a calibration allocates nothing that
#: outlives an iteration, so its cost does not depend on the state of
#: the process's heap
_TABLE = {key: _Slot() for key in range(4096)}


def calibrate() -> float:
    """Seconds taken by a fixed mix of dict lookups, attribute stores,
    small tuples and arithmetic."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = _TABLE
        acc = 0
        for i in range(CAL_ITERATIONS):
            slot = table[(i * 2654435761) & 0xFFF]
            slot.a = i
            slot.b = (i, acc)
            acc = (acc + slot.a ^ slot.b[1]) & 0xFFFFF
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale from measured to reference time for work between two
    calibrations."""
    return CAL_REF_S / ((before + after) / 2.0)


class HostClock:
    """Wall and CPU time of this process's timed work, raw and scaled.

    The clock runs from construction to :meth:`pause`; :meth:`resume`
    restarts it, so untimed work (output checks) between them is left
    out.  While it runs, ``SIGPROF`` closes a segment every
    ``segment_s`` of CPU time; with ``segment_s=None`` only pauses do,
    so that no calibration runs inside a traced call.  ``wall_s`` and
    ``cpu_s`` are raw; ``scaled_wall_s`` and ``scaled_cpu_s`` are at the
    reference speed.
    """

    def __init__(self, segment_s=SEGMENT_S) -> None:
        self.segment_s = segment_s
        self.wall_s = self.cpu_s = 0.0
        self.scaled_wall_s = self.scaled_cpu_s = 0.0
        self.calibrations = [calibrate()]
        self._running = False
        if segment_s is not None:
            signal.signal(signal.SIGPROF, self._on_timer)
        self.resume()

    def resume(self) -> None:
        if self._running:
            return
        self._running = True
        self._start()

    def pause(self) -> None:
        if not self._running:
            return
        if self.segment_s is not None:
            signal.setitimer(signal.ITIMER_PROF, 0)
        self._running = False
        self._close_segment()

    def _start(self) -> None:
        self._t = time.perf_counter()
        self._c = time.process_time()
        if self.segment_s is not None:
            signal.setitimer(signal.ITIMER_PROF, self.segment_s)

    def _on_timer(self, _signum, _frame) -> None:
        if self._running:
            self._close_segment()
            self._start()

    def _close_segment(self) -> None:
        wall = time.perf_counter() - self._t
        cpu = time.process_time() - self._c
        cal = calibrate()
        scale = factor(self.calibrations[-1], cal)
        self.calibrations.append(cal)
        self.wall_s += wall
        self.cpu_s += cpu
        self.scaled_wall_s += wall * scale
        self.scaled_cpu_s += cpu * scale


class BothCPUs:
    """The calibration loop run in this process and in a helper process
    at the same time, so that it measures both CPUs of the reference
    machine, busy, as the servers under load keep them.  (One CPU,
    with the other idle, did not follow the servers' speed.)  Use it
    as a context manager; the helper exits when its input closes."""

    def __enter__(self) -> "BothCPUs":
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()

    def calibrate(self) -> float:
        """Mean seconds of the two loops, run together."""
        self._helper.stdin.write("go\n")
        self._helper.stdin.flush()
        own = calibrate()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return (own + float(line)) / 2.0


if __name__ == "__main__":
    # the helper of BothCPUs: one calibration per input line
    for _line in sys.stdin:
        print(calibrate(), flush=True)

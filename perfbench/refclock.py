"""Host time at a reference host speed.

The benchmark's host gives it vCPUs whose speed for this pure-Python
program drifts by up to about 2x, in stretches from a few tenths of a
second to over a minute, whether time is read from the wall clock or as
CPU time.  Medians over a run cannot average out a slow stretch that
covers the whole run, so the spread of plain CPU time across runs is
mostly the host's, not the program's.

:class:`RefClock` measures the host's speed while the program runs and
divides it out.  A profiling timer (``SIGPROF``, every
:data:`INTERVAL_S` of process CPU time) interrupts the program and times
a fixed calibration loop; the loop's recent median time over
:data:`NOMINAL_S` is the host's current slowness.  The clock advances by
thread CPU time divided by that slowness and stands still while the
calibration loop runs, so

* a time read from it is the CPU time the same code would take on a host
  on which the calibration loop takes :data:`NOMINAL_S` (about this
  benchmark's reference host at its fast speed);
* a change that slows the program, and not the calibration loop, shows
  in full.

A change that slows the interpreter as a whole, the calibration loop
included, is partly hidden; per-layer metrics report the plain CPU time
beside it.
"""

from __future__ import annotations

import signal
import time
from statistics import median
from typing import List, Optional

#: Process CPU seconds between two calibrations.
INTERVAL_S = 0.005

#: Calibration loop time that defines reference speed: the loop's
#: median on a 2-vCPU KVM Intel Xeon host at its faster speed.
NOMINAL_S = 18.5e-6

#: Calibrations whose median is the current slowness.
WINDOW = 5

_thread_time = time.thread_time


def calibration_loop() -> float:
    """Fixed pure-Python work: dict updates, float arithmetic and a
    loop.  It allocates no object the garbage collector tracks, so it
    never triggers a collection."""
    table = {}
    acc = 0.0
    for i in range(120):
        key = i & 31
        table[key] = table.get(key, 0) + 1
        acc += i * 0.5
    return acc


class RefClock:
    """Thread CPU time at reference host speed (see the module doc).

    Between :meth:`start` and :meth:`stop`, :meth:`now` follows the
    host's speed; otherwise it runs at the last speed measured.
    """

    def __init__(self) -> None:
        #: ``(reference seconds, thread CPU seconds, slowness)`` at the
        #: last calibration, replaced as one tuple so a read is never
        #: torn by a calibration.
        self._state = (0.0, _thread_time(), 1.0)
        self._recent: List[float] = []
        #: Every calibration loop time measured, in seconds.
        self.calibrations: List[float] = []
        self._previous: Optional[object] = None

    def now(self) -> float:
        while True:
            state = self._state
            t = _thread_time()
            if self._state is state:
                ref, cpu, slowness = state
                return ref + (t - cpu) / slowness

    def _calibrate(self, signum=None, frame=None) -> None:
        t = _thread_time()
        ref, cpu, slowness = self._state
        ref += (t - cpu) / slowness
        calibration_loop()
        took = _thread_time() - t
        self.calibrations.append(took)
        recent = self._recent
        recent.append(took)
        if len(recent) > WINDOW:
            del recent[0]
        self._state = (ref, _thread_time(), median(recent) / NOMINAL_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._calibrate)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def __enter__(self) -> "RefClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

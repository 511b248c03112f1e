"""The reference clock: host speed divided out, calibration left out."""

import signal
import time

from perfbench.refclock import NOMINAL_S, RefClock


def busy(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_calibration_time_is_left_out():
    clock = RefClock()
    t0 = clock.now()
    for _ in range(200):
        clock._calibrate()
    spent = sum(clock.calibrations)
    slowness = clock._state[2]
    assert clock.now() - t0 < 0.5 * spent / slowness


def test_clock_advances_at_cpu_time_over_slowness():
    clock = RefClock()
    for _ in range(5):
        clock._calibrate()
    slowness = clock._state[2]
    assert slowness == sorted(clock.calibrations)[2] / NOMINAL_S
    c0, r0 = time.thread_time(), clock.now()
    busy(0.05)
    cpu, ref = time.thread_time() - c0, clock.now() - r0
    assert abs(ref * slowness - cpu) < 0.05 * cpu


def test_start_calibrates_and_stop_disarms():
    before = signal.getsignal(signal.SIGPROF)
    with RefClock() as clock:
        busy(0.1)
    assert len(clock.calibrations) >= 5
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == before

"""Host-speed reference: a fixed computation timed between operations.

On a shared host the same work can take twice as long from one minute to
the next, because co-tenants contend for the same cores. So a run times
this reference computation before its first operation and after each
set-up and operation, on as many CPUs at once as the operation keeps busy,
and reports each time as

    seconds * REFERENCE_S / mean reference time just before and after it,

that is, in seconds of a host that runs the reference in ``REFERENCE_S``.
A slowdown of the host cancels; a faster or slower program does not,
because the reference is fixed code of the benchmark that no change to the
program can alter. Under contention single reference times jump between a
fast and a slow mode every few tens of milliseconds, so the scale is the
mean of several samples, which tracks the mean slowdown a longer piece of
work sees; a median would flip between the modes. The raw seconds are kept
in the run's record.

The reference is the same kind of work as the takeoff simulation, written
the same way, so that it slows with the host as the program does: over
3-6 s windows of a busy spell, simulate_jump's time rose as the 0.94-0.97
power of its time, against the 0.83-0.85 power of a plain RK4 loop over
floats and closures.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

STEPS = 6000
REFERENCE_S = 0.028
"""Seconds of one reference() call on the reference host: a round value a
little under its median (0.029-0.031 s) on the quiet 2-vCPU Xeon the bounds
were set on."""
REF_SHARE = 0.10
"""Reference time after each piece of work, as a share of its time."""


@dataclass(frozen=True)
class _Link:
    length: float
    mass: float


@dataclass(frozen=True)
class _Drive:
    tau_peak: float
    omega_max: float
    ratio0: float


@dataclass(frozen=True)
class _State:
    t: float
    q: float
    dq: float


def _lever(link: _Link, q: float) -> float:
    return link.length * math.sin(-0.5 * q)


def _lever_rate(link: _Link, q: float) -> float:
    return -0.5 * link.length * math.cos(-0.5 * q)


def _ratio(drive: _Drive, q: float) -> float:
    s = math.sin(q)
    return drive.ratio0 * (1.0 + 0.3 * s * s)


def _torque(drive: _Drive, omega: float) -> float:
    return drive.tau_peak * max(0.0, min(1.0, 1.0 - abs(omega) / drive.omega_max))


def reference(steps: int = STEPS) -> float:
    """RK4 of a one-joint leg pushing off, written as the takeoff simulation
    is: frozen parameter objects, module-level helpers and a new state
    object per step. The knee restarts from its crouch whenever it reaches
    the cap. No state is kept, so that the benchmark process's peak memory
    stays the program's.
    """
    link = _Link(0.45, 20.0)
    drive = _Drive(9.37, 500.0, 30.0)

    def derivs(q: float, dq: float) -> tuple[float, float]:
        k = _ratio(drive, q)
        j = _lever(link, q)
        jd = _lever_rate(link, q)
        inertia = link.mass * j * j + 0.05
        acc = (k * _torque(drive, dq * k) - link.mass * 9.81 * j
               - link.mass * j * jd * dq * dq) / inertia
        return dq, acc

    q, dq, h = -2.618, 0.0, 1e-4
    state = _State(0.0, q, dq)
    for i in range(steps):
        k1q, k1d = derivs(q, dq)
        k2q, k2d = derivs(q + 0.5 * h * k1q, dq + 0.5 * h * k1d)
        k3q, k3d = derivs(q + 0.5 * h * k2q, dq + 0.5 * h * k2d)
        k4q, k4d = derivs(q + h * k3q, dq + h * k3d)
        q += h / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        dq += h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        if q > -0.05:
            q, dq = -2.618, 0.0
        state = _State(i * h, q, dq)
    return state.q


def reference_s() -> float:
    """Seconds of one reference() call, now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def burst(work_s: float) -> list[float]:
    """Reference times after work_s seconds of work: at least one, and
    until they add up to REF_SHARE of work_s."""
    refs = [reference_s()]
    while sum(refs) < REF_SHARE * work_s:
        refs.append(reference_s())
    return refs


class Clock:
    """Reference samples in the gaps between timed pieces of work.

    ``width`` is the number of CPUs the work keeps busy. With more than one,
    the reference runs in that many processes at once, so that it meets the
    contention the work meets on all of them; one process alone sees only
    the CPU it lands on. The times of a two-worker operation correlated 0.48
    with the reference in one process and 0.64 with it in two at once.
    """

    def __init__(self, width: int = 1):
        self.width = width
        self._pool = (ProcessPoolExecutor(width, mp_context=get_context("fork"))
                      if width > 1 else None)
        self.gaps = [self._sample(0.0)]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _sample(self, work_s: float) -> list[float]:
        if self._pool is None:
            return burst(work_s)
        return [r for refs in self._pool.map(burst, [work_s] * self.width)
                for r in refs]

    def scale(self, raw_s: float) -> float:
        """Sample the reference after raw_s seconds of work, and return the
        work in reference-host seconds, scaled by the mean reference time in
        the gaps just before and just after it."""
        before = self.gaps[-1]
        after = self._sample(raw_s)
        self.gaps.append(after)
        refs = before + after
        return raw_s * REFERENCE_S / (sum(refs) / len(refs))

    @property
    def refs(self) -> list[float]:
        return [r for gap in self.gaps for r in gap]

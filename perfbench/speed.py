"""Timings at a reference CPU speed, for a host whose speed drifts.

On a shared host the same single-threaded work can take a third longer
from one second, or one minute, to the next.  Mostly the core runs more
slowly, so process CPU time grows with the wall time; sometimes the
process also waits while another tenant holds the core, which only the
wall time counts.  Spread like that swamps any change worth measuring.
So a timed region is measured twice: its own time, and the speed of the
core while it ran.

A SIGALRM handler runs a fixed reference loop every PERIOD_S, and the loop
also runs once just before and once just after the region, outside its
clock.  Each run of the loop gives the core's speed at that moment, as
REF_S over its duration.  The region's time at reference speed is

    (its time - the time the loop took inside it) * mean speed

that is, the time it would have taken on a core running as fast as the
one REF_S was measured on; Timing gives it for both wall and CPU time.
The loop is plain integer arithmetic in the interpreter: it allocates no
object the garbage collector tracks, so it cannot set off a collection
inside a job.  Of the loops tried (this one, dict updates, and random
reads from lists and dicts of a few MB), it tracked e8-rank's pipeline
best: over eight back-to-back pipelines whose wall time spread 28%
(quartile distance over median), its reference-speed time spread 4.6%.
Memory-bound loops tracked worse, so the slowdown is in the core, not
the memory.

The loop costs about 2% of a region's time; that time is taken out
before scaling, and it also lands in the spans of a traced run.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

PERIOD_S = 0.01
LOOP_ITERATIONS = 1000
# about the loop's median time on a 2-vCPU Intel Xeon VM with Python
# 3.11; any constant would do, this one keeps a reference-speed time near
# the wall time on that VM
REF_S = 0.00019


def _loop() -> float:
    """One run of the reference loop; returns its duration."""
    x = 1
    start = time.perf_counter()
    for _ in range(LOOP_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return time.perf_counter() - start


@dataclass
class Timing:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    probe_s: float = 0.0  # the loop's own time inside the region
    speeds: list = field(default_factory=list)

    @property
    def speed(self) -> float:
        """The core's mean speed over the region, 1 being REF_S's core."""
        return statistics.fmean(self.speeds)

    @property
    def ref_s(self) -> float:
        return (self.wall_s - self.probe_s) * self.speed

    @property
    def ref_cpu_s(self) -> float:
        return (self.cpu_s - self.probe_s) * self.speed


@contextlib.contextmanager
def timed():
    """Time the body of a with block at reference speed; yields a Timing
    that is filled in when the block ends.  Not reentrant."""
    timing = Timing()
    busy = False

    def tick(signum, frame):
        nonlocal busy
        if busy:  # a tick that arrives while the loop runs is dropped
            return
        busy = True
        took = _loop()
        timing.speeds.append(REF_S / took)
        timing.probe_s += took
        busy = False

    timing.speeds.append(REF_S / _loop())
    previous = signal.signal(signal.SIGALRM, tick)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield timing
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        timing.wall_s = time.perf_counter() - wall0
        timing.cpu_s = time.process_time() - cpu0
        signal.signal(signal.SIGALRM, previous)
        timing.speeds.append(REF_S / _loop())

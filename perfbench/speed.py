"""Timing units of work at a reference speed of the host.

The shared host this benchmark was built on switches the speed of each CPU
between levels up to twice apart, for a fraction of a second up to tens of
seconds at a time, with the process running all along (its CPU time grows
as fast as the clock).  A run's raw times therefore move by up to 2x with
the host, whatever the estimator.  ``Clock`` counters this: every
``PROBE_EVERY_S`` of work it times a fixed reference loop, which touches
no ``dcbasis`` code and allocates no objects the garbage collector tracks,
and it scales every unit of work by the speed of the latest probe:

    unit time = raw unit time * REFERENCE_S / latest probe time

so a unit is timed in seconds of a host that runs the reference loop in
``REFERENCE_S``.  The probes' own time is left out of every unit.  A change
to the program moves the scaled times as it moves the raw ones; the host's
speed cancels to the extent that it slows the reference loop and the
program alike.
"""

from __future__ import annotations

from time import perf_counter

# the reference loop's time on a fast phase of the host it was tuned on;
# only a scale, so that scaled times read as seconds of that host
REFERENCE_S = 4.5e-4
PROBE_EVERY_S = 0.02

_TABLE = tuple(i * 7919 % 65_521 for i in range(256))
_WORDS = tuple(str(i * 40_503 % 100_003) for i in range(4096))


def reference_loop() -> int:
    """A fixed stretch of interpreter work: indexing, integer arithmetic
    and branches, then building and hashing short strings.  It allocates
    no object the garbage collector tracks, so it never moves a
    collection.  (Of the loops tried, this mix followed the host's speed
    most closely on all three workloads.)"""
    table = _TABLE
    acc = 0
    for i in range(2000):
        x = table[i & 255] + i
        if x & 1:
            acc = (acc * 31 + x) % 1_000_003
        else:
            acc = abs(acc - x)
    words = _WORDS
    for i in range(1000):
        word = words[i & 4095] + words[(i * 7) & 4095]
        acc += len(word) + hash(word) % 5
    return acc


class Clock:
    """Cuts a stretch of work into units by ``mark`` and times each unit
    at the reference speed.  With ``probe=False`` the times are raw."""

    def __init__(self, probe: bool = True) -> None:
        self.probe = probe
        self.scale = 1.0
        self.scale_sum = 0.0
        self.units: list[float] = []
        self.raw_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._next = 0.0
        self._last = 0.0

    def _probe(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.scale = REFERENCE_S / (t1 - t0)
        self.scale_sum += self.scale
        self.probe_s += t1 - t0
        self.probes += 1
        self._next = t1 + PROBE_EVERY_S

    def mean_scale(self) -> float:
        """The mean scale of the probes so far."""
        return self.scale_sum / self.probes if self.probes else 1.0

    def start(self) -> None:
        """Begin the first unit, with a fresh probe."""
        self.units = []
        self.raw_s = 0.0
        if self.probe:
            self._probe()
        self._last = perf_counter()

    def mark(self) -> None:
        """End the current unit and begin the next."""
        now = perf_counter()
        raw = now - self._last
        self.raw_s += raw
        self.units.append(raw * self.scale)
        if self.probe and now >= self._next:
            self._probe()
            now = perf_counter()
        self._last = now

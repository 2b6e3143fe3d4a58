"""Host-speed probe: a fixed piece of work timed next to each measurement.

The benchmark runs on shared hosts whose speed drifts by more than a
factor of 1.5 over minutes (clock and neighbour load), which is wider than
any bound a change could be judged by.  Each timed operation is therefore
bracketed by this probe, and its time is rescaled to the speed at which the
probe takes ``NOMINAL_PROBE_S``::

    normalized = measured * NOMINAL_PROBE_S / probe_time

A change to the program moves the measured time and not the probe's, so it
shows in full; a host that runs everything 30% slower for a minute moves
both.  The probe mixes the two kinds of work the program does: interpreter
loops (the matcher, the scheduler, the stall simulator) and numpy kernels
over million-cell arrays (noise sampling, bit-plane XORs and counts).  It uses
nothing from the ``repro`` package.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time on a quiet host (an Intel Xeon VM at 2.1 GHz); normalized
#: figures read as if measured on that host.
NOMINAL_PROBE_S = 0.085

_PY_STEPS = 200_000
_NP_CELLS = 1 << 20
_NP_REPEATS = 8


def _interpreter_work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for step in range(_PY_STEPS):
        acc = (acc * 31 + step) & 0xFFFFFFFF
        table[step & 1023] = acc
    return acc


#: Buffers of the array work, allocated once so that the probe's time does
#: not depend on the state of the allocator the program leaves behind.
_UNIFORMS = np.empty(_NP_CELLS, dtype=np.float64)
_FLIPS = np.empty(_NP_CELLS, dtype=np.bool_)


def _array_work() -> int:
    generator = np.random.default_rng(12345)
    set_bits = 0
    for _ in range(_NP_REPEATS):
        generator.random(out=_UNIFORMS)
        np.less(_UNIFORMS, 0.01, out=_FLIPS)
        words = np.packbits(_FLIPS).view(np.uint64).reshape(-1, 64)
        planes = np.bitwise_xor.accumulate(words, axis=0)
        set_bits += int(np.count_nonzero(planes[-1]))
    return set_bits


def probe() -> float:
    """Wall time of one fixed unit of interpreter plus array work."""
    start = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - start


class Bracketed:
    """Times operations, each between two probes, and normalizes them.

    ``scale(i)`` is ``NOMINAL_PROBE_S`` over the mean of the probes just
    before and just after operation ``i``.
    """

    def __init__(self) -> None:
        probe()  # warm-up: the first probe pays for page faults and caches
        self.probes: list[float] = [probe()]
        self.walls: list[float] = []

    def time(self, operation, *args, **kwargs):
        """Run ``operation``; record its wall time and the closing probe.

        If ``operation`` raises, nothing is recorded and the last probe
        opens the next operation's bracket.
        """
        start = time.perf_counter()
        result = operation(*args, **kwargs)
        self.walls.append(time.perf_counter() - start)
        self.probes.append(probe())
        return result

    def scale(self, index: int) -> float:
        return 2.0 * NOMINAL_PROBE_S / (self.probes[index] + self.probes[index + 1])

    def last_scale(self) -> float:
        """The scale of the operation just timed."""
        return self.scale(len(self.walls) - 1)

    def normalized_walls(self) -> list[float]:
        return [wall * self.scale(i) for i, wall in enumerate(self.walls)]

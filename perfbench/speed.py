"""The host's speed, measured next to the timed work.

Other tenants of a shared machine slow its CPUs unevenly, often by a third
or more, for fractions of a second to minutes.  The same pass over a corpus
then takes from 0.6 to 1.1 of its time depending on when it runs, and no
statistic over one run's passes removes a slow minute.  So the benchmark
times a fixed reference computation, written here and independent of the
program, on both sides of every slice of timed work, and multiplies the
slice's wall time by ``REFERENCE_S`` over the mean of those two reference
times.  A time the benchmark reports is thus the wall time the work takes
on a CPU that runs the reference computation in ``REFERENCE_S``.  Since the
reference computation does not change, a change to the program moves the
scaled times as much as the wall times.

The reference computation does what the program does most, in plain
Python: builds small frozen dataclasses and tuples, hashes them into dicts
and sets, sorts them and formats them as strings.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter

# A fixed constant: about the reference computation's median wall time on
# the 2-vCPU host the benchmark was defined on (1.9 to 3.4 ms there,
# depending on the load from other tenants).
REFERENCE_S = 0.003


@dataclass(frozen=True, order=True)
class _Cell:
    src: int
    dst: int
    data: str


def reference_work() -> int:
    """The fixed reference computation."""
    seen = {}
    cells = set()
    for i in range(600):
        c = _Cell(i % 37, (i * 7) % 41, "d%d" % (i & 15))
        key = (c.src, c.dst, c.data)
        seen[key] = seen.get(key, 0) + 1
        cells.add(c)
    ordered = sorted(cells)
    text = ", ".join(f"{c.src}->{c.dst}:{c.data}" for c in ordered)
    return len(seen) + len(text)


def reference_seconds() -> float:
    """Wall time of one reference computation.  The garbage collector is
    off meanwhile: a collection's cost grows with the program's live
    objects, which would make the reference depend on the workload."""
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        gc.enable()


class Speed:
    """Scale factors for consecutive slices of timed work.

    Construct it just before the first slice; call :meth:`scale` just after
    each slice.  The factor for a slice uses the reference times measured
    on both of its sides.
    """

    def __init__(self):
        self.last = reference_seconds()
        self.samples = [self.last]

    def scale(self) -> float:
        now = reference_seconds()
        self.samples.append(now)
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor

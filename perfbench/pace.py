"""Host pace: how fast the core runs a fixed piece of reference work.

The benchmark shares a few cores of a host with other tenants, and a
core's speed drifts with their load: the same campaign spec has taken
anywhere from 1.2 to 2.5 CPU-seconds from one repetition to the next, and
the slow and fast stretches last from seconds to minutes.  A run that
lands in a slow stretch reads slow for a reason that has nothing to do
with the program.

While a repetition's timed passes run, an interval timer interrupts the
measuring thread every :data:`INTERVAL_S` and runs one fixed reference
chunk on the same core, stamping when it started and ended.  The *pace*
is the nominal chunk time :data:`REF_CHUNK_S` over the mean measured
chunk time: 1.0 at the nominal pace, 0.7 when the core runs slow.  A
timed interval's *net* duration is its duration minus the chunks that ran
inside it; net duration times pace is the duration at the nominal pace.
The reference code is the benchmark's own and touches nothing of the
program's, so a change to the program moves the net duration and not the
pace.
"""

from __future__ import annotations

import signal
import statistics
import time
from types import FrameType, TracebackType
from typing import Dict, List, Optional, Tuple, Type

#: Mean chunk time at the nominal pace (a quiet stretch of the 2-vCPU
#: host the bounds were set on).
REF_CHUNK_S = 0.0015
#: Time between two chunks.
INTERVAL_S = 0.05
#: A chunk this many times slower than the median was interrupted.
OUTLIER = 4.0


class _Item:
    __slots__ = ("key", "value", "total")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.total = 0.0


#: Made once, so a chunk allocates no object the garbage collector tracks
#: and never sets off a collection of the program's objects.
_ITEMS = [_Item(i, i * 0.5) for i in range(2000)]
_TABLE: Dict[int, float] = {}


def reference_chunk() -> float:
    """Fixed interpreter work shaped like the simulator's inner loops:
    attribute updates, float arithmetic and dict stores."""
    acc = 0.0
    for _ in range(5):
        for item in _ITEMS:
            item.total = item.key * 1.0001 + item.value
            acc += item.total
            _TABLE[item.key & 255] = acc
    return acc


Interval = Tuple[float, float]


class PaceSampler:
    """Runs a reference chunk every :data:`INTERVAL_S` while entered.

    Stamps are :func:`time.perf_counter` readings, the clock the workloads
    time their passes with.  Only the main thread may enter it (the timer
    signal is delivered there).
    """

    def __init__(self) -> None:
        self.chunks: List[Interval] = []
        self._previous: object = None

    def _tick(self, signum: int, frame: Optional[FrameType]) -> None:
        began = time.perf_counter()
        reference_chunk()
        self.chunks.append((began, time.perf_counter()))

    def __enter__(self) -> "PaceSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]

    def inside(self, interval: Interval) -> List[Interval]:
        start, end = interval
        return [c for c in self.chunks if c[0] >= start and c[1] <= end]

    def net(self, interval: Interval) -> float:
        """The interval's duration minus the chunks that ran inside it."""
        return interval[1] - interval[0] - sum(e - b for b, e in self.inside(interval))

    def pace(self, interval: Interval) -> Optional[float]:
        """Nominal over mean chunk time in ``interval``; None if no chunk
        ran in it.

        A chunk that took over :data:`OUTLIER` times the median was
        interrupted (the core was taken away mid-chunk) and says nothing
        about the core's speed; it is left out of the mean.
        """
        times = [e - b for b, e in self.inside(interval)]
        if not times:
            return None
        cap = OUTLIER * statistics.median(times)
        kept = [t for t in times if t <= cap]
        return REF_CHUNK_S * len(kept) / sum(kept)

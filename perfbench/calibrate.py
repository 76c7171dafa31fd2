"""A fixed piece of Python work that measures how fast the host runs now.

The reference machine shares its cores with other tenants, and its
speed flips between states within a second: the same CPU-bound loop
takes about 5 ms or about 10 ms from one call to the next.  End-to-end
host times are therefore divided by this loop's time measured right
before and right after each timed piece, and multiplied by
``REFERENCE_S``, the loop's time on the reference machine.  The loop is
the benchmark's own code -- a small discrete-event loop over generator
processes, a heap and events, like the simulator's -- so a change to
the program under test never changes it.
"""

from __future__ import annotations

import heapq
import time

#: The loop's CPU time on the reference machine (README.md).
REFERENCE_S = 0.010


class _Event:
    __slots__ = ("waiters",)

    def __init__(self) -> None:
        self.waiters: list = []


def _process(index: int, steps: int, table: dict, parked: list):
    for step in range(steps):
        table[(index, step & 7)] = table.get((index, (step - 1) & 7), 0) + step
        if step % 5 == 0:
            event = _Event()
            parked.append(event)
            yield event
        else:
            yield (index * 7 + step) % 13 + 1


def calibrate(processes: int = 200, steps: int = 40) -> float:
    """CPU seconds the loop takes now."""
    started = time.process_time()
    heap: list = []
    parked: list = []
    table: dict = {}
    seq = 0
    for index in range(processes):
        seq += 1
        heapq.heappush(heap, (0, seq, _process(index, steps, table, parked)))
    now = 0
    while heap or parked:
        if not heap:
            for proc in parked.pop(0).waiters:
                seq += 1
                heapq.heappush(heap, (now, seq, proc))
            continue
        now, _seq, proc = heapq.heappop(heap)
        try:
            yielded = next(proc)
        except StopIteration:
            continue
        if isinstance(yielded, _Event):
            yielded.waiters.append(proc)
        else:
            seq += 1
            heapq.heappush(heap, (now + yielded, seq, proc))
    return time.process_time() - started


def normalised(host_s: float, before_s: float, after_s: float) -> float:
    """``host_s`` at the reference machine's speed, given the loop's
    time just before and just after it."""
    return host_s * REFERENCE_S * 2.0 / (before_s + after_s)

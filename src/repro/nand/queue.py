"""NVMe-style per-die program submission queues.

The append heads (:mod:`repro.ftl.log`) do not call
:meth:`~repro.nand.device.NandDevice.program_page` directly.  They
*submit* program requests here; each die owns a FIFO queue drained by a
lazily-spawned worker process.  Submission returns two events:

- ``ack``   — triggers when the program's bus transfer is done and the
  contents are latched (the buffered-write acknowledgement the log's
  appenders wait for).  If the program fails or power is cut, the ack
  *fails* with the typed error instead, so the appender's retry logic
  sees exactly what a direct call would have raised.
- ``done``  — triggers when the die-internal program finishes (the
  durability event callers ``yield`` for sync semantics).

Why a queue per die: a die is the serialization unit for programs, so
one in-order worker per die gives in-order landing per die — and
therefore per segment, since a segment never spans dies.  That is the
ordering invariant crash recovery's torn-page scan depends on (see
``docs/parallel.md``).  Meanwhile requests to *different* dies drain
concurrently: foreground writes on one stripe overlap cleaner
copy-forwards and scrubber relocations on another, which is the whole
point of the multi-queue data path.

Power loss: the first cut observed by any worker kills the queue layer
wholesale — every queued-but-unstarted request fails with
:class:`~repro.errors.PowerLossError` and never touches the media,
mirroring what a dead controller's submission queues would do.  Each
drain batch is additionally a named crash site (``queue.drain``) so the
torture sweep can cut between submission and media.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import PowerLossError
from repro.nand.oob import OobHeader
from repro.sim import Event
from repro.torture import sites

if TYPE_CHECKING:  # pragma: no cover
    from repro.nand.device import NandDevice

# Precomputed phased name: this check sits on every drain batch.
_QUEUE_DRAIN_PRE = sites.QUEUE_DRAIN + ":pre"


class ProgramRequest:
    """One queued page program."""

    __slots__ = ("ppn", "header", "data", "site", "ack", "done")

    def __init__(self, ppn: int, header: OobHeader, data: Optional[bytes],
                 site: str, ack: Event, done: Event) -> None:
        self.ppn = ppn
        self.header = header
        self.data = data
        self.site = site
        self.ack = ack
        self.done = done


class SubmissionQueues:
    """Per-die program queues with batched asynchronous drain."""

    def __init__(self, device: "NandDevice") -> None:
        self.device = device
        self.kernel = device.kernel
        ndies = device.geometry.dies
        self._pages_per_die = device.geometry.pages_per_die
        self._queues: List[deque] = [deque() for _ in range(ndies)]
        # Workers are spawned on first use so devices that never write
        # (read-only baselines, unit fixtures) carry no idle processes.
        self._started = [False] * ndies
        self._wakeups: List[Optional[Event]] = [None] * ndies
        self._dead: Optional[PowerLossError] = None
        # Observability (surfaced via VslDevice.info()["parallel"]).
        self.submitted = [0] * ndies
        self.completed = [0] * ndies
        self.failed = [0] * ndies
        self.depth_max = [0] * ndies
        self.drain_batches = [0] * ndies

    # -- queries -----------------------------------------------------------
    def depth(self, die: int) -> int:
        """Requests currently queued (not yet started) on ``die``."""
        return len(self._queues[die])

    def depths(self) -> List[int]:
        return [len(q) for q in self._queues]

    def snapshot(self) -> dict:
        """Per-die counters for operator-facing info/profiling output."""
        return {
            "submitted": list(self.submitted),
            "completed": list(self.completed),
            "failed": list(self.failed),
            "depth": self.depths(),
            "depth_max": list(self.depth_max),
            "drain_batches": list(self.drain_batches),
        }

    # -- submission --------------------------------------------------------
    def submit(self, ppn: int, header: OobHeader, data: Optional[bytes],
               site: str) -> Tuple[Event, Event]:
        """Queue one program on its die; returns ``(ack, done)`` events."""
        ack = self.kernel.event()
        done = self.kernel.event()
        if self._dead is not None:
            ack.fail(PowerLossError(
                f"submission queues are dead ({self._dead}); "
                f"refusing program at ppn {ppn}"))
            return ack, done
        die = ppn // self._pages_per_die
        queue = self._queues[die]
        queue.append(ProgramRequest(ppn, header, data, site, ack, done))
        self.submitted[die] += 1
        if len(queue) > self.depth_max[die]:
            self.depth_max[die] = len(queue)
        if not self._started[die]:
            self._started[die] = True
            self.kernel.spawn(self._worker(die), name=f"dieq-{die}")
        else:
            wakeup = self._wakeups[die]
            if wakeup is not None and not wakeup.triggered:
                self._wakeups[die] = None
                wakeup.trigger()
        return ack, done

    def discard_queued(self) -> int:
        """Drop every queued-but-unstarted request (crash semantics).

        Queued requests live in controller RAM; a crash loses them
        without touching the media.  Acks are left untriggered — the
        submitting processes died with the crash and must not be
        resumed into a reopened device's state.  A request a worker
        already started keeps going (matching the pre-queue semantics
        where an in-flight program completes or tears).  The workers
        themselves stay alive: the queues belong to the NAND device and
        keep serving whatever FTL incarnation attaches next.
        """
        dropped = 0
        for queue in self._queues:
            dropped += len(queue)
            queue.clear()
        return dropped

    # -- the per-die worker ------------------------------------------------
    def _worker(self, die: int):
        """Drain ``die``'s queue forever; park while it is empty.

        The worker is the only observer of its programs' outcomes, so
        every exception is routed into the request's ack event — an
        escaping exception would be an unobserved process failure and
        take the whole simulation down.
        """
        queue = self._queues[die]
        while True:
            if self._dead is not None:
                return
            if not queue:
                wakeup = self.kernel.event()
                self._wakeups[die] = wakeup
                yield wakeup
                continue
            self.drain_batches[die] += 1
            if self.device.power is not None:
                try:
                    self.device.power_check(_QUEUE_DRAIN_PRE)
                except PowerLossError as exc:
                    self._power_died(exc)
                    return
            while queue:
                req = queue.popleft()
                try:
                    yield from self.device.program_page(
                        req.ppn, req.header, req.data, site=req.site,
                        done=req.done)
                except PowerLossError as exc:
                    self.failed[die] += 1
                    req.ack.fail(exc)
                    self._power_died(exc)
                    return
                except Exception as exc:  # noqa: BLE001  # lint: allow-broad-except(PowerLossError is caught by the preceding handler, which routes it into the ack and kills the queue layer; this arm only sees media errors like ProgramFailError)
                    self.failed[die] += 1
                    req.ack.fail(exc)
                else:
                    self.completed[die] += 1
                    req.ack.trigger(None)

    def _power_died(self, exc: PowerLossError) -> None:
        """Power is gone: fail everything still queued, everywhere.

        Other die workers mid-program observe the dead power model
        themselves (their next ``cut()`` raises) and land here too; the
        first arrival drains the queues, later ones find them empty.
        """
        if self._dead is None:
            self._dead = exc
        for die, queue in enumerate(self._queues):
            while queue:
                req = queue.popleft()
                self.failed[die] += 1
                req.ack.fail(PowerLossError(
                    f"power lost before queued program at ppn {req.ppn} "
                    f"started ({exc})"))

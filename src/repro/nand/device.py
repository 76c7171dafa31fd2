"""Timed NAND device: the array plus channels, dies, and latencies.

All public operations are *simulation processes* (generators to be
driven by :class:`repro.sim.Kernel`):

- :meth:`NandDevice.read_page`
- :meth:`NandDevice.program_page` (async ack after bus transfer;
  the die stays busy in the background, as write-buffered controllers do)
- :meth:`NandDevice.program_page_sync` (ack after the die finishes)
- :meth:`NandDevice.erase_block`
- :meth:`NandDevice.read_header` (OOB-only read: cheaper transfer)

Contention model: each *channel* is a capacity-1 resource shared by its
dies (bus transfers serialize); each *die* is a capacity-1 resource
(array operations serialize).  This is enough to reproduce foreground /
background interference, which is what the paper's rate-limiting
experiments measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.errors import (
    EraseFailError,
    PowerLossError,
    ProgramFailError,
    UncorrectableError,
)
from repro.faults.ecc import ReadResolution
from repro.faults.model import MediaFaultModel
from repro.nand.chip import NandArray, PageRecord
from repro.nand.geometry import NandConfig
from repro.nand.oob import HEADER_SIZE, OobHeader
from repro.nand.queue import SubmissionQueues
from repro.sim import Kernel, Resource
from repro.sim.stats import Counters
from repro.torture import sites


@dataclass
class DeviceStats:
    """Operation counters, updated on completion of each operation."""

    page_reads: int = 0
    header_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(**vars(self))

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        return DeviceStats(**{
            k: getattr(self, k) - getattr(earlier, k) for k in vars(self)
        })


@dataclass
class BitErrorModel:
    """Optional injected read failures (defaults off; paper doesn't use it)."""

    uncorrectable_prob: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def read_fails(self) -> bool:
        return (self.uncorrectable_prob > 0.0
                and self._rng.random() < self.uncorrectable_prob)


class _ProgramFinish:
    """Timer callback ending a buffered program: free the die, ack."""

    __slots__ = ("die", "done")

    def __init__(self, die: Resource, done) -> None:
        self.die = die
        self.done = done

    def __call__(self) -> None:
        self.die.release()
        self.done.trigger()


class NandDevice:
    """A simulated NAND flash device attached to a simulation kernel."""

    def __init__(self, kernel: Kernel, config: Optional[NandConfig] = None,
                 error_model: Optional[BitErrorModel] = None,
                 faults: Optional[MediaFaultModel] = None) -> None:
        self.kernel = kernel
        self.config = config or NandConfig()
        self.geometry = self.config.geometry
        self.timing = self.config.timing
        self.array = NandArray(self.geometry, self.config.wear,
                               store_data=self.config.store_data)
        self.stats = DeviceStats()
        self.error_model = error_model
        # Optional deterministic media-fault model (repro.faults).  When
        # None — the default — every read/program/erase is perfect and
        # the ECC/fault branches below are skipped entirely.  Like the
        # array, the model is state the torture harness transplants
        # across a simulated power cut.
        self.faults = faults
        self.media = Counters(
            "reads_checked", "corrected_pages", "corrected_bits",
            "read_retries", "uncorrectable_reads", "program_fails",
            "erase_fails", "grown_bad_blocks")
        # Small out-of-band config area (real devices keep a superblock
        # in NOR or a reserved region); survives simulated crashes.
        self.superblock: dict = {}
        # Optional power-cut injector (duck-typed; see
        # repro.torture.power.PowerModel).  When set, every
        # media-mutating operation consults it at named sites and a
        # firing cut raises PowerLossError, leaving realistic residue.
        self.power: Optional[Any] = None
        self._channels = [Resource(kernel, name=f"nand.channel:{i}")
                          for i in range(self.geometry.channels)]
        self._dies = [Resource(kernel, name=f"nand.die:{i}")
                      for i in range(self.geometry.dies)]
        # Hot-path precomputation: every NAND op resolves its (die,
        # channel) resource pair and pays a fixed-size bus transfer, so
        # do the geometry math and xfer_ns arithmetic once.
        self._pages_per_die = self.geometry.pages_per_die
        self._total_pages = self.geometry.total_pages
        self._res_by_die = [
            (self._dies[die], self._channels[self.geometry.channel_of_die(die)])
            for die in range(self.geometry.dies)
        ]
        self._page_xfer_ns = self.timing.xfer_ns(self.geometry.page_size)
        self._header_xfer_ns = self.timing.xfer_ns(HEADER_SIZE)
        # NVMe-style per-die submission queues (repro.nand.queue): the
        # log's append heads submit programs here instead of calling
        # program_page directly, so writes to different dies overlap.
        self.queues = SubmissionQueues(self)

    # -- helpers ----------------------------------------------------------
    def power_check(self, site: str) -> None:
        """Raise :class:`PowerLossError` if an injected cut fires here."""
        if self.power is not None and self.power.cut(site):
            raise PowerLossError(f"power cut at {site}")

    def _resources_for(self, ppn: int) -> tuple:
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)
        return self._res_by_die[ppn // self._pages_per_die]

    def _resolve_read(self, ppn: int) -> Optional[ReadResolution]:
        """Run this read's bit errors through the ECC (None: no faults)."""
        if self.faults is None:
            return None
        bits = self.faults.read_bits(ppn, self.kernel.now)
        return self.faults.ecc.resolve(bits)

    def _retry_cost_ns(self, resolution: ReadResolution) -> int:
        """Die time for the retry ladder: re-sense + backoff per rung."""
        ecc = self.faults.ecc  # type: ignore[union-attr]
        return sum(self.timing.read_page_ns + ecc.backoff_ns(step)
                   for step in range(resolution.retries))

    def _account_read(self, ppn: int, resolution: ReadResolution) -> None:
        """Update media counters + per-page OOB health for one read."""
        self.media.bump("reads_checked")
        corrected = resolution.corrected_bits if resolution.ok else 0
        self.array.health(ppn).note_read(resolution.error_bits, corrected,
                                         resolution.retries)
        if resolution.retries:
            self.media.bump("read_retries", resolution.retries)
        if resolution.ok:
            if resolution.corrected_bits:
                self.media.bump("corrected_pages")
                self.media.bump("corrected_bits", resolution.corrected_bits)
        else:
            self.media.bump("uncorrectable_reads")

    # -- operations (simulation processes) --------------------------------
    def read_page(self, ppn: int) -> Generator:
        """Read one full page; returns its :class:`PageRecord`.

        With a fault model attached the read's accumulated bit errors
        are run through the ECC: correctable errors cost retry-ladder
        time on the die; uncorrectable ones raise
        :class:`UncorrectableError` after the full ladder is charged.
        """
        record = self.array.read(ppn)  # validates before any time passes
        resolution = self._resolve_read(ppn)
        die, channel = self._resources_for(ppn)
        if not die.try_acquire():   # fast path: skip the event round-trip
            yield die.acquire()
        try:
            yield self.timing.read_page_ns
            if resolution is not None and resolution.retries:
                yield self._retry_cost_ns(resolution)
        finally:
            die.release()
        if not channel.try_acquire():
            yield channel.acquire()
        try:
            yield self._page_xfer_ns
        finally:
            channel.release()
        if resolution is not None:
            self._account_read(ppn, resolution)
            if not resolution.ok:
                raise UncorrectableError(
                    f"uncorrectable read at ppn {ppn} "
                    f"({resolution.error_bits} error bits after "
                    f"{resolution.retries} retries)")
        if self.error_model is not None and self.error_model.read_fails():
            raise UncorrectableError(f"uncorrectable read at ppn {ppn}")
        self.stats.page_reads += 1
        self.stats.bytes_read += self.geometry.page_size
        return record

    def read_header(self, ppn: int, salvage: bool = False) -> Generator:
        """OOB-only read: full array sense but a tiny bus transfer.

        This is the operation activation/recovery scans are built on.
        ``salvage=True`` returns ``None`` instead of raising on an
        uncorrectable read — batched scans spawn many of these as
        concurrent processes, and a damage-tolerant scan must observe
        the loss, not die from an unjoined process failure.
        """
        header = self.array.read_header(ppn)
        resolution = self._resolve_read(ppn)
        die, channel = self._resources_for(ppn)
        if not die.try_acquire():
            yield die.acquire()
        try:
            yield self.timing.read_page_ns
            if resolution is not None and resolution.retries:
                yield self._retry_cost_ns(resolution)
        finally:
            die.release()
        if not channel.try_acquire():
            yield channel.acquire()
        try:
            yield self._header_xfer_ns
        finally:
            channel.release()
        if resolution is not None:
            self._account_read(ppn, resolution)
            if not resolution.ok:
                if salvage:
                    return None
                raise UncorrectableError(
                    f"uncorrectable header read at ppn {ppn} "
                    f"({resolution.error_bits} error bits after "
                    f"{resolution.retries} retries)")
        self.stats.header_reads += 1
        self.stats.bytes_read += HEADER_SIZE
        return header

    def program_page(self, ppn: int, header: OobHeader,
                     data: Optional[bytes],
                     site: str = sites.NAND_PROGRAM,
                     done=None) -> Generator:
        """Buffered program; returns an :class:`Event` for die completion.

        The generator finishes once the bus transfer is done and the
        page contents are latched (how write-buffered controllers ack).
        The returned event triggers when the die-internal program
        finishes; the die stays busy until then, so later operations on
        the same die queue behind it — the asynchrony is real, not free.
        Callers wanting synchronous semantics ``yield`` the event.

        ``done`` lets the submission-queue layer pass in a pre-created
        completion event (handed to the submitter before the program
        starts); when None, a fresh event is created and returned.

        ``site`` names this program for power-cut injection: a cut at
        ``site:pre`` leaves the page untouched, at ``site:mid`` leaves
        it torn (slot consumed, unreadable), at ``site:post`` leaves it
        fully programmed with the acknowledgement lost.  With no power
        model armed (the common case) the checks — and the phased
        site-name strings they would build — are skipped outright.
        """
        if self.power is not None:
            self.power_check(site + ":pre")
        die, channel = self._resources_for(ppn)
        if not channel.try_acquire():
            yield channel.acquire()
        try:
            yield self._page_xfer_ns
        finally:
            channel.release()
        if self.power is not None and self.power.cut(site + ":mid"):
            self.array.program_torn(ppn, site + ":mid")
            raise PowerLossError(f"power cut at {site}:mid (ppn {ppn} torn)")
        if self.faults is not None:
            block = ppn // self.geometry.pages_per_block
            verdict = self.faults.on_program(
                ppn, block, self.kernel.now, self.array.erase_count(block))
            if verdict.failed:
                # The slot is burned: program order advances past it and
                # the FTL must re-program on a fresh PPN.  Charge the
                # failed attempt's die time before reporting — a real
                # controller only learns of the failure from the status
                # read after the program window.
                self.array.program_failed(ppn)
                self.media.bump("program_fails")
                if verdict.newly_bad:
                    self.media.bump("grown_bad_blocks")
                if not die.try_acquire():
                    yield die.acquire()
                try:
                    yield self.timing.program_page_ns
                finally:
                    die.release()
                detail = (" (block grown bad)"
                          if verdict.newly_bad or verdict.already_bad else "")
                raise ProgramFailError(
                    f"program failed at ppn {ppn}{detail}")
        self.array.program(ppn, header, data)
        if self.power is not None:
            self.power_check(site + ":post")
        if not die.try_acquire():  # lint: allow-unbalanced-acquire(die freed by the _ProgramFinish timer when the die-internal program completes)
            yield die.acquire()
        # The acquirer returns with the die busy; ownership moves to
        # the timer protocol so holder bookkeeping (kill sanitizer,
        # deadlock reports) doesn't blame a process that already moved
        # on — a queue worker killed by a power cut during the die-busy
        # window holds nothing.
        die.hand_off()
        if done is None:
            done = self.kernel.event()
        # Die-busy window: a plain timer callback, not a spawned
        # process — this path runs once per program.
        self.kernel.call_at(self.kernel.now + self.timing.program_page_ns,
                            _ProgramFinish(die, done))
        self.stats.page_programs += 1
        self.stats.bytes_written += self.geometry.page_size
        return done

    def erase_block(self, global_block: int,
                    site: str = sites.NAND_ERASE) -> Generator:
        """Erase one block; the owning die is busy for the whole erase.

        A cut at ``site:pre`` leaves the block intact; at ``site:mid``
        the block is erased but the caller's bookkeeping never learns
        of it (mid multi-block segment erase is the cut landing between
        per-block erases).
        """
        self.power_check(site + ":pre")
        die_index = global_block // self.geometry.blocks_per_die
        die = self._dies[die_index]
        if not die.try_acquire():
            yield die.acquire()
        try:
            yield self.timing.erase_block_ns
        finally:
            die.release()
        if self.faults is not None:
            ppb = self.geometry.pages_per_block
            verdict = self.faults.on_erase(
                global_block,
                range(global_block * ppb, (global_block + 1) * ppb))
            if verdict.failed:
                # Erase time was already charged above; the block's
                # contents are untouched and the segment must be
                # retired (see SegmentCleaner).
                self.media.bump("erase_fails")
                if verdict.newly_bad:
                    self.media.bump("grown_bad_blocks")
                detail = (" (block grown bad)"
                          if verdict.newly_bad or verdict.already_bad else "")
                raise EraseFailError(
                    f"erase failed at block {global_block}{detail}")
        if self.power is not None and self.power.cut(site + ":mid"):
            self.array.erase_block(global_block)
            raise PowerLossError(f"power cut at {site}:mid "
                                 f"(block {global_block} erased, ack lost)")
        self.array.erase_block(global_block)
        self.stats.block_erases += 1

    # -- unguarded state inspection (no virtual time) ----------------------
    def peek(self, ppn: int) -> PageRecord:
        """Read page state without consuming virtual time (tests only)."""
        return self.array.read(ppn)

    def is_programmed(self, ppn: int) -> bool:
        return self.array.is_programmed(ppn)

    def media_error_bits(self, ppn: int) -> int:
        """Current bit-error estimate for ``ppn``, without disturbing it.

        The scrubber's patrol decision: no virtual time, no read-disturb
        accumulation, no fault-plan read index consumed.
        """
        if self.faults is None:
            return 0
        return self.faults.peek_bits(ppn, self.kernel.now)

    def block_is_bad(self, global_block: int) -> bool:
        """True if the fault model marked ``global_block`` grown-bad."""
        return self.faults is not None and self.faults.is_bad(global_block)

"""The log: physical space carved into segments with parallel append heads.

A *segment* is the cleaning/erase unit (paper §5.2.3): one or more
whole erase blocks, never spanning a die.  Segments move through
FREE -> OPEN -> CLOSED and back to FREE when the cleaner reclaims them.
Each segment's first page is a SEGMENT_HEADER recording the segment's
allocation sequence number, which is how log-order is recovered after a
crash.

Parallelism (the LFTL-style multi-queue data path, see
``docs/parallel.md``): the physical segments are partitioned into
*stripes*, one per channel, by the die they live on (``die % channels``
— the die's channel).  Foreground writes fan out over N *user heads*
(default one per channel, ``FtlConfig.parallel_heads`` to override),
selected by ``lba % N`` so per-LBA ordering is preserved; the cleaner
and scrubber run one worker per stripe appending to stripe-qualified GC
heads ("gc", "gc.1", ...).  Each head owns at most one open segment and
appends serialize *per head* on a per-head lock; programs are handed to
the per-die submission queues (:mod:`repro.nand.queue`), so heads on
different dies overlap while everything within one segment still lands
in submission order.

Sequence numbers stay globally allocated (``VslDevice._bump_seq``), so
the total order recovery and fsck fold by is untouched; each *user*
head's sequence numbers are additionally strictly monotonic, which the
runtime sanitizer checks per head.

A small *reserve* of free segments is only allocatable by privileged
appenders (the cleaner, and management operations that release space),
so cleaning can always make forward progress even when foreground
writers have exhausted free space.  Free lists and reserves are kept
per stripe for die affinity, but space is fungible: a head whose stripe
runs dry borrows from another stripe rather than stalling while free
segments exist elsewhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Generator, List, Optional, Tuple, ValuesView

from repro import sanitize
from repro.errors import FtlError, OutOfSpaceError, ProgramFailError
from repro.nand.device import NandDevice
from repro.nand.oob import OobHeader, PageKind
from repro.races import runtime as races
from repro.sim import Event, Kernel, Lock
from repro.torture import sites


# Crash-site names for power-cut injection (see repro.torture.sites,
# the central registry): the site of a page program is derived from
# what is being appended and on which head, so a cut can target e.g.
# "mid cleaner copy-forward" (gc.copy:mid) independently of "mid
# foreground write" (write.data:mid).
_NOTE_SITES = {
    PageKind.NOTE_TRIM: sites.NOTE_TRIM,
    PageKind.NOTE_SNAP_CREATE: sites.NOTE_SNAP_CREATE,
    PageKind.NOTE_SNAP_DELETE: sites.NOTE_SNAP_DELETE,
    PageKind.NOTE_SNAP_ACTIVATE: sites.NOTE_SNAP_ACTIVATE,
    PageKind.NOTE_SNAP_DEACTIVATE: sites.NOTE_SNAP_DEACTIVATE,
}

# Precomputed phased name: this check sits on every packet append.
_HEAD_COMMIT_PRE = sites.LOG_HEAD_COMMIT + ":pre"

_SEQ = attrgetter("seq")


def append_site(kind: PageKind, head: str) -> str:
    """Crash-site name for appending a ``kind`` packet at ``head``.

    Note kinds map to their ``note.*`` name regardless of head:
    delete/deactivate notes are privileged (head "gc") yet are original
    foreground appends.  The cleaner distinguishes its re-appends by
    passing an explicit ``site`` to :meth:`Log.append`.
    """
    if kind is PageKind.DATA:
        return sites.WRITE_DATA if head.startswith("user") else sites.GC_COPY
    if kind is PageKind.CHECKPOINT:
        return sites.CHECKPOINT_PAGE
    if kind is PageKind.MAP:
        return sites.MAP_PAGE_FLUSH
    return _NOTE_SITES.get(kind, sites.LOG_OTHER)


def stripe_head(base: str, stripe: int) -> str:
    """Stripe-qualified head name: ``base`` for stripe 0, ``base.N`` else."""
    return base if stripe == 0 else f"{base}.{stripe}"


class SegmentState(enum.Enum):
    FREE = "free"
    OPEN = "open"
    CLOSED = "closed"
    RETIRED = "retired"   # a block wore out; never allocated again


@dataclass
class Segment:
    """Bookkeeping for one segment of the log."""

    index: int
    first_ppn: int
    npages: int
    state: SegmentState = SegmentState.FREE
    seq: int = -1            # allocation sequence number (log order)
    next_offset: int = 0     # next page to program, relative to first_ppn

    @property
    def data_capacity(self) -> int:
        """Pages available for packets (excludes the segment header)."""
        return self.npages - 1

    @property
    def end_ppn(self) -> int:
        return self.first_ppn + self.npages

    def contains(self, ppn: int) -> bool:
        return self.first_ppn <= ppn < self.end_ppn

    def written_ppns(self, start_offset: int = 1) -> range:
        """Packet pages programmed so far (excludes the header page).

        The range is a stable snapshot of the written extent at call
        time: concurrent appends grow ``next_offset`` but never change
        pages already inside the range, so scan loops may iterate it
        directly without materializing a copy.  ``start_offset`` lets
        delta rescans resume from a previously recorded extent.
        """
        return range(self.first_ppn + max(1, start_offset),
                     self.first_ppn + self.next_offset)


@dataclass
class LogStats:
    appends: int = 0
    segments_opened: int = 0
    stall_ns: int = 0        # virtual time writers spent waiting for space
    stalls: int = 0
    program_fails: int = 0   # failed programs absorbed by re-allocation
    segments_skipped_bad: int = 0  # retired at open: grown-bad block
    # Per-head and per-stripe balance observability (satellite of the
    # multi-queue refactor; surfaced via VslDevice.info()["parallel"]).
    per_head_appends: Dict[str, int] = field(default_factory=dict)
    per_head_bytes: Dict[str, int] = field(default_factory=dict)
    per_stripe_opens: Dict[int, int] = field(default_factory=dict)


# A program-fail burns one page slot and the append retries on the next
# PPN (possibly in a fresh segment).  A medium bad enough to fail this
# many programs of a single payload is beyond healing — re-raise.
MAX_PROGRAM_RETRIES = 8


class Log:
    """Striped segment allocator plus the parallel append heads."""

    def __init__(self, kernel: Kernel, device: NandDevice,
                 blocks_per_segment: int = 1,
                 reserve_segments: int = 2,
                 user_heads: Optional[int] = None) -> None:
        geometry = device.geometry
        if geometry.total_blocks % blocks_per_segment:
            raise FtlError(
                f"{geometry.total_blocks} blocks not divisible by "
                f"blocks_per_segment={blocks_per_segment}")
        if geometry.blocks_per_die % blocks_per_segment:
            raise FtlError(
                f"blocks_per_die={geometry.blocks_per_die} not divisible "
                f"by blocks_per_segment={blocks_per_segment}: a segment "
                f"must not span dies")
        self.kernel = kernel
        self.device = device
        self.blocks_per_segment = blocks_per_segment
        self.segment_pages = blocks_per_segment * geometry.pages_per_block
        self.segment_count = geometry.total_blocks // blocks_per_segment
        if reserve_segments >= self.segment_count - 1:
            raise FtlError("reserve would leave no writable segments")
        self.segments: List[Segment] = [
            Segment(index=i, first_ppn=i * self.segment_pages,
                    npages=self.segment_pages)
            for i in range(self.segment_count)
        ]
        # One stripe per channel; a segment's stripe is its die's
        # channel, so heads appending to different stripes never share
        # a die (or, with dies == channels, a channel).
        self.num_stripes = geometry.channels
        self._pages_per_die = geometry.pages_per_die
        # The cleaner's candidate set: closed segments by index, overall
        # and per stripe.  Every state change goes through _set_state,
        # which keeps both current, so victim selection visits closed
        # segments only instead of filtering the whole segment table.
        self._closed: Dict[int, Segment] = {}
        self._closed_by_stripe: List[Dict[int, Segment]] = [
            {} for _ in range(self.num_stripes)]
        self._seg_stripe = [self.stripe_of_segment(seg.index)
                            for seg in self.segments]
        if user_heads is None:
            user_heads = self.num_stripes
        if user_heads < 1:
            raise FtlError("need at least one user head")
        self.user_head_count = user_heads
        self._free: List[List[int]] = [[] for _ in range(self.num_stripes)]
        for seg in self.segments:
            self._free[self.stripe_of_segment(seg.index)].append(seg.index)
        # At least one guaranteed privileged draw per stripe: the
        # per-stripe cleaners run concurrently, and each may need to
        # open a fresh gc segment while every free pool is dry.  A
        # reserve smaller than the stripe count would let one stripe's
        # cleaner exhaust it and wedge its sibling mid-clean.
        self._reserve_target = max(reserve_segments, self.num_stripes)
        if self._reserve_target >= self.segment_count - 1:
            raise FtlError("reserve would leave no writable segments")
        self._reserve: List[List[int]] = [[] for _ in
                                          range(self.num_stripes)]
        # Draw the reserve from the tail of the free lists (highest
        # indices), round-robin across stripes so each stripe's cleaner
        # keeps local forward-progress headroom.
        stripe = 0
        for _ in range(self._reserve_target):
            for probe in range(self.num_stripes):
                candidate = (stripe + probe) % self.num_stripes
                if self._free[candidate]:
                    self._reserve[candidate].append(self._free[candidate].pop())
                    stripe = (candidate + 1) % self.num_stripes
                    break
        # Named append heads, created on first use: foreground writes
        # use "user", "user.1", ... (selected by lba % heads); cleaner
        # copy-forwards use the stripe-qualified "gc" heads (or
        # "gc-hot"/"gc-cold" when epoch segregation is on, §5.4.2).
        # Sharing one head would let foreground writes leak into
        # reserve segments the cleaner opened, starving it.
        self._open: Dict[str, Optional[Segment]] = {}
        self._next_seg_seq = 0
        self._head_locks: Dict[str, Lock] = {}
        # One allocator-wide lock for the striped free/reserve pools,
        # not per-stripe locks: heads *borrow* from neighbouring
        # stripes when their home stripe runs dry, so per-stripe locks
        # would have to nest during a borrow and invite order cycles.
        # Every critical section under it is yield-free, so the lock
        # never blocks — try_acquire() must always succeed, and the
        # span exists to *declare* the protocol: the lock-order and
        # yield-discipline lint rules (IOL008/IOL009) and the runtime
        # lockset detector all key off it.
        self._alloc_lock = Lock(kernel, name="log.free")
        self._space_waiters: List[Event] = []
        self.stats = LogStats()
        # Sanitizer state: last (epoch, seq) appended on each user head.
        # Foreground appends stamp the active epoch and a fresh
        # sequence number, so seq must be monotonic per user head
        # (cleaner heads copy old packets and are exempt).
        self._san_last: Dict[str, Tuple[int, int]] = {}
        # Called when a writer is about to stall on free space; the FTL
        # wires this to kick the cleaner so a stalled writer can't
        # deadlock waiting for a cleaner that was never woken.
        self.on_space_pressure = lambda: None
        # Called after any segment is retired (wear-out, erase-fail, or
        # grown-bad block); the FTL wires this to its degraded-mode
        # capacity check.
        self.on_segment_retired = lambda index: None

    # -- striping ----------------------------------------------------------
    def die_of_segment(self, index: int) -> int:
        return (self.segments[index].first_ppn) // self._pages_per_die

    def stripe_of_segment(self, index: int) -> int:
        return self.die_of_segment(index) % self.num_stripes

    def stripe_of_head(self, head: str) -> int:
        """A head's home stripe, from its ``.N`` suffix (0 if none)."""
        _base, _dot, suffix = head.rpartition(".")
        if _dot and suffix.isdigit():
            return int(suffix) % self.num_stripes
        return 0

    def user_head_for(self, lba: int) -> str:
        """The user head serving ``lba``: stable, so per-LBA order holds."""
        if self.user_head_count == 1:
            return "user"
        return stripe_head("user", lba % self.user_head_count)

    def user_head_names(self) -> List[str]:
        return [stripe_head("user", i) for i in range(self.user_head_count)]

    def _lock_for(self, head: str) -> Lock:
        lock = self._head_locks.get(head)
        if lock is None:
            lock = self._head_locks[head] = Lock(
                self.kernel, name=f"log.head:{head}")
        return lock

    # -- queries -----------------------------------------------------------
    @property
    def open_segment(self) -> Optional[Segment]:
        """The first foreground (user) append head's open segment."""
        return self._open.get("user")

    def free_segment_count(self, stripe: Optional[int] = None) -> int:
        if stripe is not None:
            return len(self._free[stripe])
        return sum(len(free) for free in self._free)

    @property
    def reserve_target(self) -> int:
        """Segments kept aside for privileged (cleaner) draws."""
        return self._reserve_target

    def reserve_segment_count(self, stripe: Optional[int] = None) -> int:
        if stripe is not None:
            return len(self._reserve[stripe])
        return sum(len(reserve) for reserve in self._reserve)

    def closed_segments(self, stripe: Optional[int] = None) -> List[Segment]:
        """Closed segments (only ``stripe``'s when given), by index."""
        closed = self._closed_index(stripe)
        return [closed[index] for index in sorted(closed)]

    def closed_view(self,
                    stripe: Optional[int] = None) -> ValuesView[Segment]:
        """Live, unordered view of the closed segments (cleaner picks).

        O(1) to obtain; iterating it visits closed segments only.
        Callers must not yield while iterating: a state change resizes
        the underlying index.
        """
        closed = self._closed_index(stripe)
        if sanitize.enabled:
            expected = {seg.index for seg in self.segments
                        if seg.state is SegmentState.CLOSED
                        and (stripe is None
                             or self.stripe_of_segment(seg.index) == stripe)}
            sanitize.check(
                set(closed) == expected,
                f"closed-segment index drifted (stripe {stripe}): "
                f"index {sorted(closed)}, segment table {sorted(expected)}")
        return closed.values()

    def newest_closed_seq(self) -> int:
        """Highest allocation seq among closed segments (0 if none)."""
        return max(map(_SEQ, self._closed.values()), default=0)

    def _closed_index(self, stripe: Optional[int]) -> Dict[int, Segment]:
        if stripe is None:
            return self._closed
        return self._closed_by_stripe[stripe]

    def _set_state(self, seg: Segment, state: SegmentState) -> None:
        """Move ``seg`` to ``state``, keeping the closed index current."""
        index = seg.index
        if state is SegmentState.CLOSED:
            self._closed[index] = seg
            self._closed_by_stripe[self._seg_stripe[index]][index] = seg
        elif seg.state is SegmentState.CLOSED:
            del self._closed[index]
            del self._closed_by_stripe[self._seg_stripe[index]][index]
        seg.state = state

    def segment_of(self, ppn: int) -> Segment:
        seg = self.segments[ppn // self.segment_pages]
        if not seg.contains(ppn):
            raise FtlError(f"ppn {ppn} not in computed segment")
        return seg

    # -- appending -----------------------------------------------------------
    def append(self, header: OobHeader, data: Optional[bytes],
               privileged: bool = False,
               head: Optional[str] = None,
               site: Optional[str] = None) -> Generator:
        """Append one packet at an append head.

        Returns ``(ppn, done_event)``; the event triggers when the die
        program completes (callers wanting durability yield it).
        ``privileged`` lets the caller (the cleaner, and management
        operations that release space) dip into the reserve pool when
        the general free lists are empty.  ``head`` selects the open
        segment: defaults to "user" ("gc" when privileged); the FTL
        passes ``user_head_for(lba)`` for foreground writes and the
        cleaner passes stripe-qualified GC heads.  ``site`` overrides
        the derived crash-site name (the cleaner tags its re-appends
        "gc.copy"/"gc.note" since the packet kind alone cannot tell a
        copy-forward from an original append).

        The head's lock is held across program-fail retries — a parked
        writer slipping in between a failure and its retry would append
        a newer sequence number first and break per-head monotonicity —
        but *not* while parked waiting for free space, so the cleaner
        can still append its copy-forwards; holding it there would
        deadlock the whole device.
        """
        if head is None:
            head = "gc" if privileged else "user"
        if site is None:
            site = append_site(header.kind, head)
        lock = self._lock_for(head)
        is_user = head.startswith("user")
        fails = 0
        while True:
            if not lock.try_acquire():
                yield lock.acquire()
            wait_ev: Optional[Event] = None
            try:
                while True:
                    if races.enabled:
                        races.note(self.kernel, f"log.head:{head}", "w")
                    seg = self._open.get(head)
                    if seg is None or seg.next_offset >= seg.npages:
                        wait_ev = yield from self._open_new_segment(privileged,
                                                                    head)
                        if wait_ev is not None:
                            break
                        seg = self._open[head]
                    ppn = seg.first_ppn + seg.next_offset
                    seg.next_offset += 1
                    if sanitize.enabled and is_user:
                        # Foreground appends stamp fresh sequence
                        # numbers: strict monotonicity per user head is
                        # what the per-head recovery ordering argument
                        # rests on.  (Epoch monotonicity is enforced at
                        # the stamp's source, the snapshot tree —
                        # writable activations legitimately append older
                        # fork epochs here.)
                        _last_epoch, last_seq = self._san_last.get(
                            head, (-1, -1))
                        sanitize.check(
                            header.seq > last_seq,
                            f"seq not strictly increasing on head {head}: "
                            f"{header.seq} after {last_seq}")
                    # The slot is committed; hand the program to the
                    # die's submission queue and wait for its ack (bus
                    # transfer done, contents latched).
                    if self.device.power is not None:
                        self.device.power_check(_HEAD_COMMIT_PRE)
                    ack, done = self.device.queues.submit(
                        ppn, header, data, site)
                    try:
                        yield ack
                    except ProgramFailError:
                        # Self-healing re-allocation: the slot is burned
                        # (program order advanced past unreadable
                        # residue) but the payload is still in RAM, so
                        # retry on the next PPN.  Nothing downstream saw
                        # this PPN — the caller installs mappings and
                        # validity bits only from the PPN we return, so
                        # they follow the final location for free.
                        fails += 1
                        self.stats.program_fails += 1
                        full = seg.next_offset >= seg.npages
                        bad = self.device.block_is_bad(
                            ppn // self.device.geometry.pages_per_block)
                        if full or bad:
                            # A grown-bad block poisons the whole
                            # segment: close it now (the cleaner will
                            # salvage and retire it) and reopen
                            # elsewhere on the next pass.
                            self._set_state(seg, SegmentState.CLOSED)
                            self._open[head] = None
                        if fails > MAX_PROGRAM_RETRIES:
                            raise
                        continue
                    if sanitize.enabled and is_user:
                        self._san_last[head] = (header.epoch, header.seq)
                    if seg.next_offset >= seg.npages:
                        # Close eagerly: a full segment is immediately
                        # visible to the cleaner as a candidate.
                        self._set_state(seg, SegmentState.CLOSED)
                        self._open[head] = None
                    self.stats.appends += 1
                    per_head = self.stats.per_head_appends
                    per_head[head] = per_head.get(head, 0) + 1
                    if data is not None:
                        per_bytes = self.stats.per_head_bytes
                        per_bytes[head] = per_bytes.get(head, 0) + len(data)
                    return ppn, done
            finally:
                lock.release()
            started = self.kernel.now
            yield wait_ev
            self.stats.stall_ns += self.kernel.now - started

    def _open_new_segment(self, privileged: bool, head: str) -> Generator:
        """Open a fresh segment; returns a wait event instead if out of space."""
        stripe = self.stripe_of_head(head)
        while True:
            if races.enabled:
                races.note(self.kernel, f"log.head:{head}", "w")
            index = self._pop_free_index(privileged, stripe)
            if index is None:
                ev = self.kernel.event()
                self._space_waiters.append(ev)
                self.stats.stalls += 1
                self.on_space_pressure()
                return ev
            seg = self.segments[index]
            if self._segment_has_bad_block(seg):
                # A grown-bad block anywhere in the segment makes it
                # unusable as an allocation unit: retire it for good
                # and draw again.
                self.stats.segments_skipped_bad += 1
                self.retire_segment(index)
                continue
            if self._open.get(head) is not None:
                self._set_state(self._open[head], SegmentState.CLOSED)
                self._open[head] = None
            self._set_state(seg, SegmentState.OPEN)
            seg.seq = self._next_seg_seq
            self._next_seg_seq += 1
            seg.next_offset = 1
            self._open[head] = seg
            self.stats.segments_opened += 1
            opens = self.stats.per_stripe_opens
            seg_stripe = self.stripe_of_segment(index)
            opens[seg_stripe] = opens.get(seg_stripe, 0) + 1
            header = OobHeader(kind=PageKind.SEGMENT_HEADER, lba=seg.seq)
            ack, done = self.device.queues.submit(
                seg.first_ppn, header, None, sites.LOG_SEGHDR)
            try:
                yield ack  # lint: allow-yield-straddle(the caller's per-head lock span in append() covers this whole yield-from; a per-function scan cannot see the interprocedural span)
            except ProgramFailError:
                # Header slot burned: close the crippled segment (the
                # cleaner/recovery will repair or retire it) and draw
                # another.  A segment whose header failed holds no
                # packets, so nothing is lost.
                self.stats.program_fails += 1
                self._set_state(seg, SegmentState.CLOSED)
                self._open[head] = None
                continue
            del done  # segment headers need not be durable before use
            return None

    def _segment_has_bad_block(self, seg: Segment) -> bool:
        device = self.device
        if device.faults is None:
            return False
        first_block = seg.first_ppn // device.geometry.pages_per_block
        return any(device.block_is_bad(block)
                   for block in range(first_block,
                                      first_block + self.blocks_per_segment))

    def _pop_free_index(self, privileged: bool,
                        stripe: int) -> Optional[int]:
        """Draw a free segment, preferring ``stripe`` (die affinity).

        Affinity is a performance preference, not a correctness
        constraint: when the home stripe is dry the head borrows from
        the next stripe over rather than stalling while free space
        exists elsewhere.  Privileged draws fall back to the reserve
        pools in the same order.
        """
        if not self._alloc_lock.try_acquire():
            raise FtlError("allocator lock contended in _pop_free_index: "
                           "a free-pool critical section grew a yield")
        try:
            if races.enabled:
                races.note(self.kernel, "log.free", "w")
            order = [(stripe + i) % self.num_stripes
                     for i in range(self.num_stripes)]
            for candidate in order:
                if self._free[candidate]:
                    return self._free[candidate].pop(0)
            if privileged:
                for candidate in order:
                    if self._reserve[candidate]:
                        return self._reserve[candidate].pop(0)
                raise OutOfSpaceError(
                    "cleaner exhausted its reserve segments")
            return None
        finally:
            self._alloc_lock.release()

    def force_close_head(self, head: Optional[str] = None,
                         stripe: Optional[int] = None) -> bool:
        """Close a partially-written head segment (GC escape hatch).

        At very high utilization all reclaimable pages can sit in the
        open head segments while every closed segment is fully valid;
        padding out and closing a head makes its stale pages cleanable.
        With ``head`` None, tries every user head (restricted to those
        homed on ``stripe`` when given).  Refuses (returns False) if an
        append is in flight on the head or the head is empty.
        """
        if head is None:
            for name in self.user_head_names():
                if stripe is not None and self.stripe_of_head(name) != stripe:
                    continue
                if self.force_close_head(name):
                    return True
            return False
        lock = self._lock_for(head)
        if not lock.try_acquire():
            # An append is in flight on this head; closing under it
            # would yank the segment out from beneath its retry loop.
            return False
        try:
            seg = self._open.get(head)
            if seg is None or seg.next_offset <= 1:
                return False
            if races.enabled:
                races.note(self.kernel, f"log.head:{head}", "w")
            self._set_state(seg, SegmentState.CLOSED)
            self._open[head] = None
            return True
        finally:
            lock.release()

    # -- reclamation -----------------------------------------------------------
    def release_segment(self, index: int) -> None:
        """Return an erased segment to the pools (reserve refills first)."""
        seg = self.segments[index]
        if seg.state is not SegmentState.CLOSED:
            raise FtlError(f"segment {index} not CLOSED (is {seg.state})")
        first_block = seg.first_ppn // self.device.geometry.pages_per_block
        for block in range(first_block, first_block + self.blocks_per_segment):
            if not self.device.array.block_is_erased(block):
                raise FtlError(
                    f"segment {index} released without erasing block {block}")
        self._set_state(seg, SegmentState.FREE)
        seg.seq = -1
        seg.next_offset = 0
        stripe = self.stripe_of_segment(index)
        if not self._alloc_lock.try_acquire():
            raise FtlError("allocator lock contended in release_segment: "
                           "a free-pool critical section grew a yield")
        try:
            if races.enabled:
                races.note(self.kernel, "log.free", "w")
            if self.reserve_segment_count() < self._reserve_target:
                self._reserve[stripe].append(index)
                return
            self._free[stripe].append(index)
        finally:
            self._alloc_lock.release()
        # Waking stalled writers happens outside the span: trigger()
        # schedules resumptions, and the span stays pure pool mutation.
        waiters, self._space_waiters = self._space_waiters, []
        for ev in waiters:
            ev.trigger()

    def retire_segment(self, index: int) -> None:
        """Permanently remove a worn-out segment from circulation.

        The device keeps working with reduced physical capacity — the
        graceful end-of-life behaviour real FTLs implement.
        """
        seg = self.segments[index]
        if seg.state not in (SegmentState.CLOSED, SegmentState.FREE):
            raise FtlError(
                f"cannot retire segment {index} in state {seg.state}")
        if not self._alloc_lock.try_acquire():
            raise FtlError("allocator lock contended in retire_segment: "
                           "a free-pool critical section grew a yield")
        try:
            if races.enabled:
                races.note(self.kernel, "log.free", "w")
            for pool in (self._free, self._reserve):
                for entries in pool:
                    if index in entries:
                        entries.remove(index)
        finally:
            self._alloc_lock.release()
        self._set_state(seg, SegmentState.RETIRED)
        seg.seq = -1
        self.on_segment_retired(index)

    def retired_segment_count(self) -> int:
        return sum(1 for seg in self.segments
                   if seg.state is SegmentState.RETIRED)

    def fail_waiters(self, error: BaseException) -> None:
        """Propagate an unrecoverable out-of-space condition to writers."""
        waiters, self._space_waiters = self._space_waiters, []
        for ev in waiters:
            ev.fail(error)

    # -- recovery support -----------------------------------------------------
    def adopt_state(self, seg_states: Dict[int, Tuple[str, int, int]],
                    next_seg_seq: int,
                    open_heads: Optional[Dict[str, int]]) -> None:
        """Restore segment bookkeeping from checkpoint/recovery.

        ``seg_states`` maps index -> (state_name, seq, next_offset);
        ``open_heads`` maps head name -> open segment index (None after
        crash recovery: all recovered segments come back CLOSED).
        """
        if not self._alloc_lock.try_acquire():
            raise FtlError("allocator lock contended in adopt_state: "
                           "a free-pool critical section grew a yield")
        try:
            if races.enabled:
                races.note(self.kernel, "log.free", "w")
            self._free = [[] for _ in range(self.num_stripes)]
            self._reserve = [[] for _ in range(self.num_stripes)]
            self._open = {}
            self._san_last = {}
            for seg in self.segments:
                state_name, seq, next_offset = seg_states[seg.index]
                self._set_state(seg, SegmentState(state_name))
                seg.seq = seq
                seg.next_offset = next_offset
                if seg.state is SegmentState.FREE:
                    stripe = self.stripe_of_segment(seg.index)
                    if self.reserve_segment_count() < self._reserve_target:
                        self._reserve[stripe].append(seg.index)
                    else:
                        self._free[stripe].append(seg.index)
        finally:
            self._alloc_lock.release()
        self._next_seg_seq = next_seg_seq
        if open_heads:
            for head, index in open_heads.items():
                self._open[head] = self.segments[index]

    def dump_state(self):
        seg_states = {
            seg.index: (seg.state.value, seg.seq, seg.next_offset)
            for seg in self.segments
        }
        open_heads = {
            head: seg.index for head, seg in self._open.items()
            if seg is not None
        }
        return seg_states, self._next_seg_seq, open_heads

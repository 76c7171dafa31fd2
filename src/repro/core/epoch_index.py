"""The durable selective-scan index (paper §7, "selectively scanning").

Activation and diff scans skip whole segments whose *epoch summary*
does not intersect the snapshot's ancestor path.  This module owns that
summary: for every allocated segment, the set of epochs with DATA/TRIM
packets in it plus the highest packet sequence number that ever landed
there (the *high-water mark* the delta-rescan machinery keys on).

The index is maintained exactly — not as a superset — through every
append (:meth:`SegmentEpochIndex.note_packet`, called from the FTL's
``_on_packet_appended`` hook for foreground writes, trims, and cleaner
copy-forwards alike) and through every erase
(:meth:`SegmentEpochIndex.drop_segment`).  Exactness is what lets fsck
check it by equality (invariant S7) and what makes the warm-activation
residue cache sound.

Durability: :meth:`dump` serializes the index into the checkpoint's
``extra`` stream, stamped with the checkpoint generation and each
segment's allocation sequence number ("generation"), plus a CRC over
the canonical image.  :meth:`restore` is validation-first — any CRC,
generation, or per-segment mismatch raises
:class:`~repro.errors.SummaryIndexError` and the caller falls back to
:meth:`rebuild_from_media`, the same full OOB sweep crash recovery
performs.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Dict, Set, Tuple

from repro.errors import SummaryIndexError
from repro.nand.oob import PageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.log import Log, Segment

# Kinds the index (and every scan that consults it) cares about: data
# packets and trim notes are the only packets the winner fold reads.
_INDEXED_KINDS = (PageKind.DATA, PageKind.NOTE_TRIM)


def recompute_segment(array, seg: "Segment") -> Tuple[Set[int], int]:
    """Recompute one segment's (epoch set, max seq) from OOB headers.

    Untimed media access (like fsck): used by the fsck S7 check, the
    sanitizer's pre-erase audit, and the media-rebuild fallback.  Torn
    and unprogrammed pages carry no packet and are skipped, matching
    what ``_on_packet_appended`` ever saw.
    """
    epochs: Set[int] = set()
    max_seq = -1
    for ppn in seg.written_ppns():
        if not array.is_programmed(ppn) or array.is_torn(ppn):
            continue
        header = array.read_header(ppn)
        if header.kind in _INDEXED_KINDS:
            epochs.add(header.epoch)
            if header.seq > max_seq:
                max_seq = header.seq
    return epochs, max_seq


class SegmentEpochIndex:
    """Per-segment epoch summaries + max-seq high-water marks."""

    __slots__ = ("epochs", "max_seq")

    def __init__(self) -> None:
        # Segment index -> set of epochs with DATA/TRIM packets there.
        self.epochs: Dict[int, Set[int]] = {}
        # Segment index -> highest DATA/TRIM packet seq in the segment.
        self.max_seq: Dict[int, int] = {}

    # -- maintenance ---------------------------------------------------------
    def note_packet(self, index: int, epoch: int, seq: int) -> None:
        self.epochs.setdefault(index, set()).add(epoch)
        if seq > self.max_seq.get(index, -1):
            self.max_seq[index] = seq

    def drop_segment(self, index: int) -> None:
        self.epochs.pop(index, None)
        self.max_seq.pop(index, None)

    # -- queries -------------------------------------------------------------
    def summary(self, index: int) -> frozenset:
        return frozenset(self.epochs.get(index, ()))

    def high_water(self, index: int) -> int:
        return self.max_seq.get(index, -1)

    def intersects(self, index: int, epochs) -> bool:
        """Does segment ``index`` hold any packet from ``epochs``?

        The allocation-free form of ``summary(index) & epochs`` used by
        the scan loops (activation, snapshot diff, replication send):
        a selective scan consults this once per allocated segment, so
        it must not materialize a frozenset per call.
        """
        stored = self.epochs.get(index)
        return stored is not None and not stored.isdisjoint(epochs)

    # -- durability ----------------------------------------------------------
    def dump(self, log: "Log", generation: int) -> Dict[str, Any]:
        """Serialize the index for the checkpoint ``extra`` stream.

        Every *allocated* segment (``seg.seq >= 0``) gets an entry even
        when it holds no indexed packets, so restore can tell "empty
        summary" apart from "segment the index never saw".
        """
        segments: Dict[int, Tuple[int, int, Tuple[int, ...]]] = {}
        for seg in log.segments:
            if seg.seq < 0:
                continue
            segments[seg.index] = (
                seg.seq,
                self.max_seq.get(seg.index, -1),
                tuple(sorted(self.epochs.get(seg.index, ()))),
            )
        return {
            "generation": generation,
            "segments": segments,
            "crc": _image_crc(generation, segments),
        }

    @classmethod
    def restore(cls, image: Dict[str, Any], log: "Log",
                generation: Any) -> "SegmentEpochIndex":
        """Validation-first restore of a dumped index.

        The image must carry a matching CRC, be stamped with the
        checkpoint generation being restored, and agree with the log's
        adopted segment bookkeeping: exactly the allocated segments,
        each under the allocation seq ("generation") it was dumped
        with.  Any mismatch raises :class:`SummaryIndexError` — the
        caller falls back to :meth:`rebuild_from_media` rather than
        trusting a stale index (a stale summary would silently drop
        segments from selective scans).
        """
        if not isinstance(image, dict):
            raise SummaryIndexError("epoch-index image is not a mapping")
        segments = image.get("segments")
        if not isinstance(segments, dict):
            raise SummaryIndexError("epoch-index image missing segments")
        if image.get("generation") != generation:
            raise SummaryIndexError(
                f"epoch-index generation {image.get('generation')!r} does "
                f"not match checkpoint generation {generation!r}")
        if image.get("crc") != _image_crc(image.get("generation"), segments):
            raise SummaryIndexError("epoch-index CRC mismatch")
        live = {seg.index: seg.seq for seg in log.segments if seg.seq >= 0}
        ghosts = set(segments) - set(live)
        if ghosts:
            raise SummaryIndexError(
                f"epoch-index names segments {sorted(ghosts)[:5]} absent "
                "from the log")
        # Checkpoint pages are themselves appended to the log *after*
        # the index is dumped, with the cleaner parked — so a segment
        # allocated after every dumped one can only hold CHECKPOINT
        # pages (never indexed) and is legitimately absent from the
        # image with an empty summary.  Anything older is real drift.
        newest_dumped = max((entry[0] for entry in segments.values()),
                            default=-1)
        for seg_index in set(live) - set(segments):
            if live[seg_index] <= newest_dumped:
                raise SummaryIndexError(
                    f"epoch-index missing segment {seg_index} (allocated "
                    "before the dump)")
        index = cls()
        for seg_index, entry in segments.items():
            gen, max_seq, epochs = entry
            if gen != live[seg_index]:
                raise SummaryIndexError(
                    f"segment {seg_index} generation {gen} != log "
                    f"generation {live[seg_index]}")
            if epochs:
                index.epochs[seg_index] = set(epochs)
            if max_seq >= 0:
                index.max_seq[seg_index] = max_seq
            if bool(epochs) != (max_seq >= 0):
                raise SummaryIndexError(
                    f"segment {seg_index} summary/high-water disagree "
                    f"({sorted(epochs)} vs {max_seq})")
        return index

    @classmethod
    def rebuild_from_media(cls, array, log: "Log") -> "SegmentEpochIndex":
        """Full-media fallback: recompute every allocated segment's
        summary from OOB headers (untimed, like fsck)."""
        index = cls()
        for seg in log.segments:
            if seg.seq < 0:
                continue
            epochs, max_seq = recompute_segment(array, seg)
            if epochs:
                index.epochs[seg.index] = epochs
            if max_seq >= 0:
                index.max_seq[seg.index] = max_seq
        return index


def _image_crc(generation: Any, segments: Dict[int, Tuple]) -> int:
    """CRC32 over a canonical rendering of the dumped image."""
    canon = (generation, tuple(sorted(
        (index, tuple(entry)) for index, entry in segments.items())))
    return zlib.crc32(repr(canon).encode("ascii"))

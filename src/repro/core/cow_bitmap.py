"""Copy-on-Write validity bitmaps, one per epoch (paper §5.4.1, Fig. 5).

A naive design would copy the whole validity bitmap at snapshot
creation (512 MB per snapshot for the paper's 2 TB / 512 B device).
ioSnap instead shares bitmap *pages* between epochs: at snapshot
creation the active bitmap is frozen and becomes the snapshot's; the
active device continues on a CoW child that copies individual pages
only when it first modifies them.

Mutation rules:

- a *frozen* bitmap (a snapshot's) rejects :meth:`set`/:meth:`clear`;
- the segment cleaner may still fix bits in frozen bitmaps when it
  moves blocks ("a snapshot's validity bitmap is never modified unless
  the segment cleaner moves blocks") via the ``*_privileged`` methods;
- every first-touch of a shared page copies it into the mutating
  epoch's private set and reports the copy through ``on_cow`` — that
  stream of events is what the paper's Figure 7(b) plots.

Pages are stored as little-endian big-ints (one word per bitmap page,
same layout as :mod:`repro.ftl.validity`), so a CoW "copy" is just
binding the parent's immutable int, counting is a masked
``bit_count()``, and the cleaner's cross-epoch merge is a single OR per
page (:func:`merged_count_range` / :func:`merged_iter_range`).

``on_mutate`` (if given) is invoked with the bit index on every
mutation, including privileged ones, and is inherited across
:meth:`fork`; the device uses it to invalidate cached per-segment
valid counts.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import sanitize
from repro.errors import AddressError, SnapshotError
from repro.ftl.validity import (
    PERF_COUNTERS,
    _mask_word,
    iter_word_bits,
    merge_words,
)


class CowValidityBitmap:
    """One epoch's view of block validity, CoW-shared with its parent."""

    def __init__(self, total_bits: int, page_bytes: int = 512,
                 parent: Optional["CowValidityBitmap"] = None,
                 on_cow: Optional[Callable[[str], None]] = None,
                 on_mutate: Optional[Callable[[int], None]] = None) -> None:
        if total_bits <= 0 or page_bytes <= 0:
            raise ValueError("total_bits and page_bytes must be positive")
        if parent is not None and (parent.total_bits != total_bits
                                   or parent.page_bytes != page_bytes):
            raise ValueError("parent bitmap shape mismatch")
        self.total_bits = total_bits
        self.page_bytes = page_bytes
        self.bits_per_page = page_bytes * 8
        self.parent = parent
        self.frozen = False
        self.cow_copies = 0
        self._on_cow = on_cow
        self._on_mutate = on_mutate
        self._own: Dict[int, int] = {}

    # -- lineage ---------------------------------------------------------
    def fork(self, on_cow: Optional[Callable[[str], None]] = None,
             ) -> "CowValidityBitmap":
        """Freeze this bitmap and return a mutable CoW child.

        This is exactly the snapshot-create transition: the frozen self
        becomes the snapshot's bitmap, the child is inherited by the
        active device.
        """
        self.freeze()
        return CowValidityBitmap(self.total_bits, self.page_bytes,
                                 parent=self, on_cow=on_cow or self._on_cow,
                                 on_mutate=self._on_mutate)

    def freeze(self) -> None:
        self.frozen = True

    def chain_depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    # -- addressing ---------------------------------------------------------
    def _locate(self, bit: int) -> Tuple[int, int]:
        if not 0 <= bit < self.total_bits:
            raise AddressError(f"bit {bit} out of range [0, {self.total_bits})")
        return divmod(bit, self.bits_per_page)

    def _resolve(self, page_idx: int) -> Optional[int]:
        """The page's effective word, walking the parent chain."""
        node: Optional[CowValidityBitmap] = self
        while node is not None:
            word = node._own.get(page_idx)
            if word is not None:
                return word
            node = node.parent
        return None

    def resolve_word(self, page_idx: int) -> int:
        """Effective page word through the CoW chain (0 if absent)."""
        word = self._resolve(page_idx)
        return word if word is not None else 0

    def owned_page_count(self) -> int:
        """Private (copied or fresh) pages — the epoch's memory overhead."""
        return len(self._own)

    def owned_bytes(self) -> int:
        return len(self._own) * self.page_bytes

    # -- reads -------------------------------------------------------------
    def test(self, bit: int) -> bool:
        page_idx, offset = self._locate(bit)
        word = self._resolve(page_idx)
        return bool(word is not None and word >> offset & 1)

    def count(self) -> int:
        PERF_COUNTERS["word_count"] += 1
        total = 0
        for page_idx in range(self._page_count()):
            word = self._resolve(page_idx)
            if word:
                total += word.bit_count()
        return total

    def _page_count(self) -> int:
        return (self.total_bits + self.bits_per_page - 1) // self.bits_per_page

    @property
    def page_count(self) -> int:
        """Number of bitmap pages covering ``total_bits``."""
        return self._page_count()

    def _check_range(self, start: int, length: int) -> None:
        if length < 0 or start < 0 or start + length > self.total_bits:
            raise AddressError(
                f"range [{start}, {start + length}) out of bounds")

    def count_range(self, start: int, length: int) -> int:
        self._check_range(start, length)
        if length == 0:
            return 0
        PERF_COUNTERS["word_count"] += 1
        end = start + length
        bpp = self.bits_per_page
        total = 0
        for page_idx in range(start // bpp, (end - 1) // bpp + 1):
            word = self._resolve(page_idx)
            if not word:
                continue
            total += _mask_word(word, page_idx * bpp, start, end,
                                bpp).bit_count()
        return total

    def iter_set_in_range(self, start: int, length: int) -> Iterator[int]:
        """Set bits in [start, start + length), ascending."""
        self._check_range(start, length)
        if length == 0:
            return
        PERF_COUNTERS["word_iter"] += 1
        end = start + length
        bpp = self.bits_per_page
        for page_idx in range(start // bpp, (end - 1) // bpp + 1):
            word = self._resolve(page_idx)
            if not word:
                continue
            base = page_idx * bpp
            yield from iter_word_bits(
                _mask_word(word, base, start, end, bpp), base)

    # -- mutation --------------------------------------------------------------
    def set(self, bit: int) -> bool:
        """Set a bit; returns True if a CoW page copy happened."""
        return self._mutate(bit, value=True, privileged=False)

    def clear(self, bit: int) -> bool:
        return self._mutate(bit, value=False, privileged=False)

    def set_privileged(self, bit: int) -> bool:
        """Cleaner-only mutation, allowed even on frozen bitmaps."""
        return self._mutate(bit, value=True, privileged=True)

    def clear_privileged(self, bit: int) -> bool:
        return self._mutate(bit, value=False, privileged=True)

    def _mutate(self, bit: int, value: bool, privileged: bool) -> bool:
        if self.frozen and not privileged:
            raise SnapshotError(
                "bitmap is frozen (belongs to a snapshot); only the "
                "segment cleaner may adjust it")
        page_idx, offset = self._locate(bit)
        copied = False
        word = self._own.get(page_idx)
        if word is None:
            inherited = None
            if self.parent is not None:
                inherited = self.parent._resolve(page_idx)
            if inherited is not None:
                word = inherited
                copied = True
                self.cow_copies += 1
                if self._on_cow is not None:
                    self._on_cow("cleaner" if privileged else "write")
            else:
                if not value:
                    return False  # clearing a bit in an all-zero page
                word = 0
        if value:
            word |= 1 << offset
        else:
            word &= ~(1 << offset)
        self._own[page_idx] = word
        if sanitize.enabled:
            # A page word must stay within its page width (a word that
            # grows past it would double-count in masked popcounts),
            # every CoW copy must leave the copied page privately
            # owned, and the mutation must be observable through the
            # chain resolve path.
            sanitize.check(word >> self.bits_per_page == 0,
                           f"bitmap page {page_idx} word overflows "
                           f"{self.bits_per_page}-bit page width")
            sanitize.check(self.cow_copies <= len(self._own),
                           f"cow_copies={self.cow_copies} exceeds "
                           f"{len(self._own)} privately-owned pages")
            sanitize.check(self.test(bit) == value,
                           f"mutation of bit {bit} not visible through "
                           f"the CoW resolve path")
        if self._on_mutate is not None:
            self._on_mutate(bit)
        return copied

    # -- checkpoint support -------------------------------------------------
    def materialize(self) -> Dict[int, bytes]:
        """Fully-resolved page contents (chain flattened)."""
        nbytes = self.page_bytes
        out: Dict[int, bytes] = {}
        for page_idx in range(self._page_count()):
            word = self._resolve(page_idx)
            if word:
                out[page_idx] = word.to_bytes(nbytes, "little")
        return out

    @classmethod
    def from_pages(cls, total_bits: int, page_bytes: int,
                   pages: Dict[int, bytes],
                   on_cow: Optional[Callable[[str], None]] = None,
                   on_mutate: Optional[Callable[[int], None]] = None,
                   ) -> "CowValidityBitmap":
        """Rebuild a standalone (chain-less) bitmap from materialized pages."""
        bitmap = cls(total_bits, page_bytes, on_cow=on_cow,
                     on_mutate=on_mutate)
        bitmap._own = {idx: int.from_bytes(data, "little")
                       for idx, data in pages.items()}
        if sanitize.enabled:
            for idx, word in bitmap._own.items():
                sanitize.check(
                    0 <= idx < bitmap.page_count,
                    f"materialized page index {idx} out of range")
                sanitize.check(
                    word >> bitmap.bits_per_page == 0,
                    f"materialized page {idx} overflows page width")
        return bitmap


# ---------------------------------------------------------------------------
# Cross-epoch merged views (the cleaner's Figure 6 operation)
# ---------------------------------------------------------------------------
def _merged_words(bitmaps: Sequence[CowValidityBitmap], start: int,
                  end: int) -> Iterator[Tuple[int, int]]:
    """(page_base, merged masked word) per bitmap page over [start, end)."""
    first = bitmaps[0]
    bpp = first.bits_per_page
    for page_idx in range(start // bpp, (end - 1) // bpp + 1):
        merged = merge_words([bm.resolve_word(page_idx) for bm in bitmaps])
        if not merged:
            continue
        base = page_idx * bpp
        yield base, _mask_word(merged, base, start, end, bpp)


def merged_count_range(bitmaps: Sequence[CowValidityBitmap], start: int,
                       length: int) -> int:
    """Popcount of the union of several epochs' bitmaps over a range."""
    if not bitmaps or length <= 0:
        return 0
    bitmaps[0]._check_range(start, length)
    PERF_COUNTERS["word_count"] += 1
    return sum(word.bit_count()
               for _base, word in _merged_words(bitmaps, start, start + length))


def merged_iter_range(bitmaps: Sequence[CowValidityBitmap], start: int,
                      length: int) -> Iterator[int]:
    """Ascending set-bit indices of the union of several epochs' bitmaps."""
    if not bitmaps or length <= 0:
        return
    bitmaps[0]._check_range(start, length)
    PERF_COUNTERS["word_iter"] += 1
    for base, word in _merged_words(bitmaps, start, start + length):
        yield from iter_word_bits(word, base)

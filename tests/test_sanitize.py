"""Runtime sanitizer (REPRO_SANITIZE=1): armed checks catch seeded
corruption, and a clean workload passes with the sanitizer on."""

import pytest

from repro import sanitize
from repro.core.cow_bitmap import CowValidityBitmap
from repro.core.iosnap import IoSnapConfig, IoSnapDevice
from repro.errors import SanitizerError
from repro.ftl.validity import ValidityBitmap
from repro.nand.geometry import NandConfig
from repro.sim import Kernel

from tests.conftest import small_geometry


@pytest.fixture
def armed():
    previous = sanitize.enable(True)
    yield
    sanitize.enable(previous)


class TestToggle:
    def test_enable_returns_previous_state(self):
        previous = sanitize.enable(True)
        try:
            assert sanitize.enabled
            assert sanitize.enable(False) is True
            assert not sanitize.enabled
        finally:
            sanitize.enable(previous)

    def test_check_raises_with_prefix(self):
        with pytest.raises(SanitizerError, match="sanitizer: boom"):
            sanitize.check(False, "boom")
        sanitize.check(True, "fine")


class TestCowBitmapChecks:
    def test_word_overflow_is_caught(self, armed):
        bitmap = CowValidityBitmap(total_bits=64, page_bytes=2)
        bitmap.set(0)
        # Corrupt a private page word past its 16-bit page width.
        bitmap._own[0] |= 1 << 20
        with pytest.raises(SanitizerError, match="overflows"):
            bitmap.set(1)

    def test_refcount_skew_is_caught(self, armed):
        parent = CowValidityBitmap(total_bits=64, page_bytes=2)
        parent.set(0)
        child = parent.fork()
        child.cow_copies = 7  # corrupt: more copies than owned pages
        with pytest.raises(SanitizerError, match="cow_copies"):
            child.set(1)

    def test_from_pages_rejects_foreign_geometry(self, armed):
        with pytest.raises(SanitizerError, match="out of range"):
            CowValidityBitmap.from_pages(
                total_bits=16, page_bytes=2, pages={9: b"\x01\x00"})

    def test_clean_mutations_pass(self, armed):
        bitmap = CowValidityBitmap(total_bits=64, page_bytes=2)
        for bit in range(64):
            bitmap.set(bit)
        child = bitmap.fork()
        child.clear(3)
        assert child.cow_copies == 1


class TestValidityChecks:
    def test_load_pages_rejects_overflowing_word(self, armed):
        bitmap = ValidityBitmap(total_bits=16, page_bytes=2)
        with pytest.raises(SanitizerError, match="out of range"):
            bitmap.load_pages({5: b"\x01\x00"})

    def test_load_pages_accepts_checkpoint_roundtrip(self, armed):
        bitmap = ValidityBitmap(total_bits=64, page_bytes=2)
        bitmap.set(3)
        bitmap.set(40)
        restored = ValidityBitmap(total_bits=64, page_bytes=2)
        restored.load_pages(bitmap.materialized_pages())
        assert restored.test(3) and restored.test(40)


def _make_device() -> IoSnapDevice:
    kernel = Kernel()
    return IoSnapDevice.create(kernel, NandConfig(geometry=small_geometry()),
                               IoSnapConfig())


class TestEndToEnd:
    def test_snapshot_workload_passes_sanitized(self, armed):
        """A realistic create/write/delete/clean cycle with checks armed."""
        dev = _make_device()
        for lba in range(24):
            dev.write(lba, b"v1")
        dev.snapshot_create("s1")
        for lba in range(24):
            dev.write(lba, b"v2")
        dev.snapshot_create("s2")
        dev.snapshot_delete("s1")
        for lba in range(24):
            dev.write(lba, b"v3")
        dev.cleaner.force_clean(dev.log.segments[0])
        assert dev.tree.active_epoch > 0

    def test_stale_merge_cache_is_caught(self, armed):
        dev = _make_device()
        for lba in range(8):
            dev.write(lba, b"x")
        seg = dev.log.segments[0]
        dev._estimate_valid_count(seg)          # populate the cache
        cache, _bitmaps = dev._merged_valid_cache()
        cache[seg.index] = cache[seg.index] + 5  # corrupt it
        with pytest.raises(SanitizerError, match="cache stale"):
            dev._estimate_valid_count(seg)


class TestEpochSummaryEraseAudit:
    """Sampled pre-erase recompute of the doomed segment's summary."""

    def _cleanable_device(self) -> IoSnapDevice:
        dev = _make_device()
        for lba in range(100):
            dev.write(lba, b"v1")
        for lba in range(100):
            dev.write(lba, b"v2")     # invalidate the first pass
        return dev

    def test_clean_erase_passes_sanitized(self, armed):
        dev = self._cleanable_device()
        candidate = dev.cleaner.select_candidate()
        assert candidate is not None
        dev.cleaner.force_clean(candidate)
        assert dev.cleaner.segments_cleaned > 0

    def test_corrupt_summary_caught_before_erase(self, armed):
        dev = self._cleanable_device()
        candidate = dev.cleaner.select_candidate()
        assert candidate is not None
        # Seed a phantom epoch: selective scans would skip/misdirect on
        # it forever, and the pre-erase audit must refuse to drop it.
        dev._epoch_index.epochs.setdefault(candidate.index, set()).add(999)
        with pytest.raises(SanitizerError, match="epoch summary drifted"):
            dev.cleaner.force_clean(candidate)

    def test_high_water_drift_caught_before_erase(self, armed):
        dev = self._cleanable_device()
        candidate = dev.cleaner.select_candidate()
        assert candidate is not None
        dev._epoch_index.max_seq[candidate.index] = \
            dev._epoch_index.high_water(candidate.index) + 9
        with pytest.raises(SanitizerError, match="high-water mark drifted"):
            dev.cleaner.force_clean(candidate)

    def test_sampling_still_audits_first_erase(self, armed):
        # The 1-in-4 sampling is counter-based with the *first* erase
        # always audited — a corrupt index cannot slip through just
        # because the device is young.
        dev = self._cleanable_device()
        assert dev._erase_check_tick == 0
        candidate = dev.cleaner.select_candidate()
        dev._epoch_index.epochs.setdefault(candidate.index, set()).add(999)
        with pytest.raises(SanitizerError):
            dev.cleaner.force_clean(candidate)

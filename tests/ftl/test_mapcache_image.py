"""The translation-page image: one fixed-width slot array in RAM and on
flash.

A MAP page's payload is a 12-byte ``<4sII`` header (magic, span,
tpage) followed by the page's int32 slots, ``-1`` meaning unmapped.
These tests pin the codec (round trip, every malformed image refused
with ``CheckpointError``), the int32 PPN bound, and that the facade
still speaks ``Optional[int]``.
"""

import struct
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.errors import CheckpointError, SanitizerError
from repro.ftl.mapcache import (
    MAX_PPN,
    UNMAPPED,
    MapCache,
    blank_entries,
    decode_image,
    encode_image,
)
from repro.nand.oob import PageKind

from tests.conftest import make_iosnap, tiny_geometry

SPAN = 8


def slots(values):
    return array("i", values)


@st.composite
def pages(draw):
    span = draw(st.integers(min_value=1, max_value=256))
    tidx = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    values = draw(st.lists(
        st.one_of(st.just(UNMAPPED), st.integers(0, MAX_PPN)),
        min_size=span, max_size=span))
    return span, tidx, slots(values)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(pages())
    def test_round_trip(self, page):
        span, tidx, entries = page
        image = encode_image(span, tidx, entries)
        assert len(image) == 12 + 4 * span
        assert decode_image(image, span, tidx) == entries
        assert decode_image(image, span) == entries

    def test_blank_page_is_all_unmapped(self):
        assert list(blank_entries(SPAN)) == [UNMAPPED] * SPAN
        assert blank_entries(SPAN).itemsize == 4

    def test_no_payload(self):
        with pytest.raises(CheckpointError, match="no payload"):
            decode_image(None, SPAN, 0)

    def test_bad_magic(self):
        image = bytearray(encode_image(SPAN, 3, blank_entries(SPAN)))
        image[0:4] = b"JSON"
        with pytest.raises(CheckpointError, match="magic"):
            decode_image(bytes(image), SPAN, 3)

    def test_wrong_span(self):
        # Same length as a valid SPAN image, but the header disagrees.
        image = (struct.pack("<4sII", b"TPG1", SPAN + 1, 3)
                 + blank_entries(SPAN).tobytes())
        with pytest.raises(CheckpointError, match="span"):
            decode_image(image, SPAN, 3)

    def test_wrong_tpage(self):
        image = encode_image(SPAN, 3, blank_entries(SPAN))
        with pytest.raises(CheckpointError, match="tpage 3, expected 4"):
            decode_image(image, SPAN, 4)

    @pytest.mark.parametrize("cut", [1, 4, 11, 12, 13])
    def test_truncated(self, cut):
        image = encode_image(SPAN, 3, blank_entries(SPAN))
        with pytest.raises(CheckpointError, match="bytes"):
            decode_image(image[:-cut], SPAN, 3)

    def test_trailing_bytes(self):
        image = encode_image(SPAN, 3, blank_entries(SPAN)) + b"\x00"
        with pytest.raises(CheckpointError, match="bytes"):
            decode_image(image, SPAN, 3)

    def test_garbage(self):
        with pytest.raises(CheckpointError):
            decode_image(b"\x00garbage", SPAN, 3)


def stub_ftl(total_pages, num_lbas=64):
    nand = SimpleNamespace(geometry=SimpleNamespace(total_pages=total_pages))
    return SimpleNamespace(nand=nand, num_lbas=num_lbas)


class TestPpnBound:
    def test_geometry_beyond_int32_refused(self):
        with pytest.raises(ValueError, match="int32"):
            MapCache(stub_ftl(2 ** 31), span=SPAN, budget_pages=2,
                     dirty_batch=1)

    def test_largest_int32_geometry_accepted(self):
        cache = MapCache(stub_ftl(MAX_PPN), span=SPAN, budget_pages=2,
                         dirty_batch=1)
        assert cache.translation_pages == 64 // SPAN

    def test_slot_rejects_ppn_beyond_int32(self, kernel):
        device = make_iosnap(kernel, geometry=tiny_geometry(),
                             map_cache_pages=2, map_span=SPAN)
        with pytest.raises(OverflowError):
            device.map.insert(0, 2 ** 31)
        assert device.map.get(0) is None
        assert len(device.map) == 0


class TestFacade:
    def test_none_round_trips_through_the_sentinel(self, kernel):
        device = make_iosnap(kernel, geometry=tiny_geometry(),
                             map_cache_pages=2, map_span=SPAN)
        cache = device.map
        assert cache.get(5) is None
        assert cache.insert(5, 0) is None
        assert cache.get(5) == 0 and cache.peek(5) == 0
        assert cache.insert(5, 7) == 0
        assert list(cache.items()) == [(5, 7)]
        assert cache.delete(5) == 7
        assert cache.delete(5) is None
        assert cache.get(5) is None and len(cache) == 0

    def test_flash_image_equals_ram_page(self, kernel):
        """After a checkpoint flush, each GTD-referenced MAP page holds
        exactly the resident page's slots."""
        device = make_iosnap(kernel, geometry=tiny_geometry(),
                             map_cache_pages=2, map_span=SPAN)
        for lba in range(0, 6 * SPAN, 3):
            device.write(lba, b"x")
        kernel.run_process(device.map.flush_all_proc())
        cache = device.map
        for tidx, page in cache._pages.items():
            record = device.nand.array.read(cache._gtd[tidx])
            assert record.header.kind is PageKind.MAP
            assert record.data == encode_image(SPAN, tidx, page.entries)

    def test_sanitizer_checks_each_flushed_image(self, kernel, monkeypatch):
        """Armed, the sanitizer decodes every image before it is
        appended: a codec that loses a slot is caught at the flush."""
        import repro.ftl.mapcache as mapcache

        real_encode = mapcache.encode_image

        def lossy(span, tidx, entries):
            damaged = array("i", entries)
            damaged[0] = UNMAPPED if damaged[0] >= 0 else 0
            return real_encode(span, tidx, damaged)

        device = make_iosnap(kernel, geometry=tiny_geometry(),
                             map_cache_pages=1, map_span=SPAN)
        previous = sanitize.enable(True)
        try:
            for lba in range(0, 3 * SPAN, SPAN):
                device.write(lba, b"x")
            assert device.map.counters["writebacks"] > 0
            monkeypatch.setattr(mapcache, "encode_image", lossy)
            with pytest.raises(SanitizerError, match="does not decode"):
                kernel.run_process(device.map.flush_all_proc())
        finally:
            sanitize.enable(previous)

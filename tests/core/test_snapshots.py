"""Tests for ioSnap snapshot create/delete and data-path integration."""

import random

import pytest

from repro.errors import SnapshotError
from repro.nand.oob import PageKind


class TestCreate:
    def test_create_returns_snapshot(self, iosnap):
        iosnap.write(0, b"x")
        snap = iosnap.snapshot_create("first")
        assert snap.name == "first"
        assert snap.epoch == 0
        assert iosnap.tree.active_epoch == 1
        assert iosnap.snapshots() == [snap]

    def test_create_writes_synchronous_note(self, kernel, iosnap):
        before = iosnap.nand.stats.page_programs
        iosnap.snapshot_create()
        notes = [
            iosnap.nand.array.read_header(ppn)
            for ppn in iosnap.notes
        ]
        assert any(h.kind is PageKind.NOTE_SNAP_CREATE for h in notes)
        assert iosnap.nand.stats.page_programs > before

    def test_create_cost_independent_of_data(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("small")
        small_cost = iosnap.snap_metrics.create_latencies_ns[-1]
        for lba in range(300):
            iosnap.write(lba, b"y")
        iosnap.snapshot_create("big")
        big_cost = iosnap.snap_metrics.create_latencies_ns[-1]
        assert big_cost == pytest.approx(small_cost, rel=0.5)

    def test_writes_after_create_use_new_epoch(self, kernel, iosnap):
        iosnap.snapshot_create()
        ppn = kernel.run_process(iosnap.write_proc(0, b"x"))
        assert iosnap.nand.array.read_header(ppn).epoch == 1

    def test_create_freezes_captured_bitmap(self, iosnap):
        iosnap.write(0, b"x")
        snap = iosnap.snapshot_create()
        assert iosnap._epoch_bitmaps[snap.epoch].frozen
        assert not iosnap.active_bitmap.frozen

    def test_create_records_map_footprint(self, iosnap):
        for lba in range(50):
            iosnap.write(lba, b"x")
        snap = iosnap.snapshot_create()
        assert snap.map_nodes_at_create == iosnap.map.node_count()
        assert snap.map_bytes_at_create > 0

    def test_many_snapshots(self, iosnap):
        for i in range(20):
            iosnap.write(i, b"x")
            iosnap.snapshot_create(f"s{i}")
        assert len(iosnap.snapshots()) == 20
        assert iosnap.tree.active_epoch == 20


class TestIsolation:
    def test_overwrite_does_not_change_snapshot(self, iosnap):
        iosnap.write(0, b"original")
        iosnap.snapshot_create("s")
        iosnap.write(0, b"modified")
        view = iosnap.snapshot_activate("s")
        assert view.read(0)[:8] == b"original"
        assert iosnap.read(0)[:8] == b"modified"
        view.deactivate()

    def test_trim_does_not_change_snapshot(self, iosnap):
        iosnap.write(5, b"keep-me")
        iosnap.snapshot_create("s")
        iosnap.trim(5)
        assert iosnap.read(5) == bytes(iosnap.block_size)
        view = iosnap.snapshot_activate("s")
        assert view.read(5)[:7] == b"keep-me"
        view.deactivate()

    def test_sibling_snapshots_see_their_own_state(self, iosnap):
        iosnap.write(0, b"v1")
        iosnap.snapshot_create("s1")
        iosnap.write(0, b"v2")
        iosnap.snapshot_create("s2")
        iosnap.write(0, b"v3")
        v1 = iosnap.snapshot_activate("s1")
        v2 = iosnap.snapshot_activate("s2")
        assert v1.read(0)[:2] == b"v1"
        assert v2.read(0)[:2] == b"v2"
        assert iosnap.read(0)[:2] == b"v3"
        v1.deactivate()
        v2.deactivate()

    def test_unwritten_lba_is_zero_in_snapshot(self, iosnap):
        iosnap.snapshot_create("empty")
        iosnap.write(9, b"later")
        view = iosnap.snapshot_activate("empty")
        assert view.read(9) == bytes(iosnap.block_size)
        view.deactivate()


class TestDelete:
    def test_delete_removes_from_listing(self, iosnap):
        snap = iosnap.snapshot_create("gone")
        iosnap.snapshot_delete(snap)
        assert iosnap.snapshots() == []

    def test_delete_unknown_raises(self, iosnap):
        with pytest.raises(SnapshotError):
            iosnap.snapshot_delete("ghost")

    def test_double_delete_raises(self, iosnap):
        iosnap.snapshot_create("d")
        iosnap.snapshot_delete("d")
        with pytest.raises(SnapshotError):
            iosnap.snapshot_delete("d")

    def test_activated_snapshot_cannot_be_deleted(self, iosnap):
        iosnap.write(0, b"x")
        iosnap.snapshot_create("busy")
        view = iosnap.snapshot_activate("busy")
        with pytest.raises(SnapshotError, match="activated"):
            iosnap.snapshot_delete("busy")
        view.deactivate()
        iosnap.snapshot_delete("busy")

    def test_deleted_snapshot_cannot_be_activated(self, iosnap):
        iosnap.snapshot_create("dead")
        iosnap.snapshot_delete("dead")
        with pytest.raises(SnapshotError):
            iosnap.snapshot_activate("dead")

    def test_delete_drops_epoch_from_live_set(self, iosnap):
        snap = iosnap.snapshot_create("tmp")
        epochs_before = [e for e, _ in iosnap.live_epoch_bitmaps()]
        assert snap.epoch in epochs_before
        iosnap.snapshot_delete(snap)
        epochs_after = [e for e, _ in iosnap.live_epoch_bitmaps()]
        assert snap.epoch not in epochs_after

    def test_delete_frees_space_for_cleaner(self, kernel, iosnap):
        # Fill a good chunk, snapshot it, overwrite it all: the old
        # blocks are retained.  Delete the snapshot: they become
        # reclaimable and churn keeps working without out-of-space.
        span = 400
        for lba in range(span):
            iosnap.write(lba, b"held")
        snap = iosnap.snapshot_create("space-hog")
        rng = random.Random(0)
        for _ in range(span):
            iosnap.write(rng.randrange(span), b"new1")
        retained_before = sum(
            1 for _ in iosnap._epoch_bitmaps[snap.epoch].iter_set_in_range(
                0, iosnap.nand.geometry.total_pages))
        assert retained_before > 0
        iosnap.snapshot_delete(snap)
        for i in range(3000):
            iosnap.write(rng.randrange(span), bytes([i % 256]))
        assert iosnap.cleaner.segments_cleaned > 0


class TestCowAccounting:
    def test_overwrites_after_snapshot_count_cow(self, iosnap):
        for lba in range(100):
            iosnap.write(lba, b"base")
        iosnap.snapshot_create()
        assert iosnap.metrics.bitmap_cow_copies == 0
        for lba in range(100):
            iosnap.write(lba, b"over")
        assert iosnap.metrics.bitmap_cow_copies > 0
        assert len(iosnap.metrics.cow_timestamps) == \
            iosnap.metrics.bitmap_cow_copies

    def test_bitmap_memory_grows_with_divergence(self, iosnap):
        for lba in range(200):
            iosnap.write(lba, b"base")
        iosnap.snapshot_create()
        before = iosnap.bitmap_memory_bytes()
        for lba in range(200):
            iosnap.write(lba, b"over")
        assert iosnap.bitmap_memory_bytes() > before

    def test_dormant_snapshot_costs_no_bitmap_memory(self, iosnap):
        for lba in range(100):
            iosnap.write(lba, b"base")
        before = iosnap.bitmap_memory_bytes()
        iosnap.snapshot_create()
        # Creation itself copies nothing: the child owns zero pages.
        assert iosnap.bitmap_memory_bytes() == before

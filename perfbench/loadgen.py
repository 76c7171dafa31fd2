"""Workload rigs: device set-up, closed-loop clients and measurement.

A rig owns one simulation kernel and the devices on it.  ``setup()``
builds, preloads, ages and warms them until steady state; ``window(n)``
then runs ``n`` foreground ops (the clients stop issuing at exactly
``n``, so a window is the same simulated work on every host).
Background actors -- the snapshot timer, the history client -- are
long-lived processes that carry on across windows until
``stop_background()`` drains them.

All randomness comes from ``random.Random`` seeded with strings built
from the run's seed and the episode number, so one seed always gives
the same ops.
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Dict, List, Optional

from oracle import VersionOracle, payload

from repro.bench.configs import medium_geometry, small_geometry
from repro.core.iosnap import IoSnapConfig, IoSnapDevice
from repro.errors import ReproError
from repro.ftl.ratelimit import DutyCycleLimiter
from repro.nand.geometry import NandConfig
from repro.replicate import CursorStore
from repro.replicate import transfer
from repro.sim import Kernel

MS = 1_000_000


class Recorder:
    """Simulated-time samples and op tallies of the recorded windows."""

    def __init__(self) -> None:
        self.on = False
        self.write_ns = array("q")
        self.read_ns = array("q")
        self.create_ns = array("q")
        self.activation_ns = array("q")
        self.send_ns = array("q")
        self.io_bytes = 0
        self.ios = 0
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}
        self.epoch_samples = array("q")
        self.send_records = 0
        self.send_blocks = 0
        self.sends = 0
        self.limiter_sleep_ns = 0

    def fail(self, exc: BaseException) -> None:
        if self.on:
            self.failed += 1
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1


class Rig:
    """Common machinery; subclasses define devices, clients and ages."""

    name = ""
    clients = 1
    write_fraction = 0.5
    window_ops = 1000
    block_size = 4096

    def __init__(self, seed: int, episode: int = 0) -> None:
        self.seed = seed
        self.episode = episode
        self.kernel = Kernel()
        self.oracle = VersionOracle()
        self.rec = Recorder()
        self.devices: List[IoSnapDevice] = []
        self.device: Any = None
        self.span = 0
        self._budget = 0
        self._op_seq = 0
        self._rngs = [random.Random(f"{self.name}:{seed}:{episode}:client{i}")
                      for i in range(self.clients)]
        self._stop = False
        self._background: List[Any] = []
        self.tracer: Any = None

    # -- construction helpers ---------------------------------------------
    def _device(self, geometry, **config) -> IoSnapDevice:
        device = IoSnapDevice.create(self.kernel, NandConfig(geometry=geometry),
                                     IoSnapConfig(**config))
        self.devices.append(device)
        return device

    def _preload(self, count: int) -> None:
        """Write LBAs ``0..count-1`` once, sequentially (one client)."""
        device, oracle = self.device, self.oracle

        def fill():
            for lba in range(count):
                version = oracle.begin_write(lba)
                yield from device.write_proc(lba, payload(lba, version))
                oracle.end_write(lba, version)

        self.kernel.run_process(fill(), name="preload")

    # -- foreground clients -------------------------------------------------
    def _client(self, rng: random.Random):
        device, oracle, rec, kernel = (self.device, self.oracle, self.rec,
                                       self.kernel)
        span, write_fraction = self.span, self.write_fraction
        tracer = self.tracer
        while self._budget > 0:
            self._budget -= 1
            self._op_seq += 1
            if tracer is not None:
                tracer.set_op(self._op_seq)
            lba = rng.randrange(span)
            is_write = rng.random() < write_fraction
            started = kernel.now
            if rec.on:
                rec.attempted += 1
                rec.ios += 1
                rec.io_bytes += self.block_size
            try:
                if is_write:
                    version = oracle.begin_write(lba)
                    yield from device.write_proc(lba, payload(lba, version))
                    oracle.end_write(lba, version)
                    if rec.on:
                        rec.write_ns.append(kernel.now - started)
                else:
                    issued = oracle.candidates(lba)
                    data = yield from device.read_proc(lba)
                    ok = oracle.check_read(lba, issued, data)
                    if rec.on:
                        rec.read_ns.append(kernel.now - started)
                        if not ok:
                            rec.failed += 1
            except ReproError as exc:
                rec.fail(exc)
        if tracer is not None:
            tracer.set_op(-1)

    def window(self, ops: int) -> None:
        """Run exactly ``ops`` foreground ops across the clients."""
        self._budget = ops
        kernel = self.kernel
        procs = [kernel.spawn(self._client(rng), name=f"client{i}")
                 for i, rng in enumerate(self._rngs)]

        def join():
            for proc in procs:
                yield proc

        kernel.run_process(join(), name="window")

    # -- background actors ------------------------------------------------
    def _background_actors(self) -> list:
        return []

    def start_background(self) -> None:
        self._stop = False
        self._background = [self.kernel.spawn(gen, name=f"bg{i}")
                            for i, gen in enumerate(self._background_actors())]

    def stop_background(self) -> None:
        """Stop the background actors, then drain the kernel so fsck
        sees no program still in flight."""
        self._stop = True
        procs = self._background

        def join():
            for proc in procs:
                yield proc

        self.kernel.run_process(join(), name="stop-background")
        self._background = []
        self.kernel.run()

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def _age(self, chunk_ops: int, max_chunks: int, turnover: bool) -> int:
        """Run the workload in chunks until the write amplification of
        a chunk is within 5% of the previous one (and, with
        ``turnover``, the cleaner has cleaned every segment once)."""
        device = self.device
        segments = device.log.segment_count
        previous: Optional[float] = None
        for chunk in range(1, max_chunks + 1):
            programs = device.nand.stats.page_programs
            writes = device.metrics.writes
            self.window(chunk_ops)
            wa = ((device.nand.stats.page_programs - programs)
                  / max(1, device.metrics.writes - writes))
            turned = (not turnover
                      or device.cleaner.segments_cleaned >= segments)
            if previous is not None and turned \
                    and abs(wa - previous) <= 0.05 * previous:
                return chunk
            previous = wa
        return max_chunks


class SnapChurn(Rig):
    """4 clients, 70% writes, uniform over 70% of a 16 MiB device, with a
    snapshot every ``interval`` of simulated time and retention."""

    name = "snap_churn"
    clients = 4
    write_fraction = 0.7
    window_ops = 2000
    interval_ns = 200 * MS
    snapshot_limit = 4

    def setup(self) -> None:
        self.device = self._device(small_geometry(),
                                   snapshot_limit=self.snapshot_limit,
                                   snapshot_auto_delete=True)
        self.span = int(self.device.num_lbas * 0.7)
        self._preload(self.span)
        self.start_background()
        self._age(chunk_ops=4000, max_chunks=8, turnover=True)

    def _background_actors(self) -> list:
        return [self._snapshot_timer()]

    def _snapshot_timer(self):
        device, rec, kernel = self.device, self.rec, self.kernel
        while True:
            yield self.interval_ns
            if self._stop:
                return
            started = kernel.now
            if rec.on:
                rec.attempted += 1
            try:
                yield from device.snapshot_create_proc()
            except ReproError as exc:
                rec.fail(exc)
                continue
            if rec.on:
                rec.create_ns.append(kernel.now - started)


class MapPressure(Rig):
    """4 clients, 90% reads, uniform over half of a 128 MiB device whose
    forward map is cached in 32 pages of 64 LBAs; no snapshots."""

    name = "map_pressure"
    clients = 4
    write_fraction = 0.1
    window_ops = 2000

    def setup(self) -> None:
        self.device = self._device(medium_geometry(), map_cache_pages=32,
                                   map_span=64)
        self.span = self.device.num_lbas // 2
        self._preload(self.span)
        self._age(chunk_ops=4000, max_chunks=4, turnover=False)


class SnapHistory(Rig):
    """A small device aged through a chain of snapshots; one history
    client activates, reads back and replicates while one foreground
    client issues 70% reads."""

    name = "snap_history"
    clients = 1
    write_fraction = 0.3
    window_ops = 1000
    chain_length = 4
    chain_gap_ops = 300
    sample_reads = 32
    span_fraction = 0.35

    def setup(self) -> None:
        self.device = self._device(small_geometry())
        self.sink = self._device(small_geometry(), snapshot_limit=3,
                                 snapshot_auto_delete=True)
        self.span = int(self.device.num_lbas * self.span_fraction)
        self._preload(self.span)
        self.chain = []
        for index in range(self.chain_length):
            self.window(self.chain_gap_ops)
            image = self.oracle.capture()
            snap = self.device.snapshot_create(f"chain{index}")
            self.chain.append((snap, image))
        self.store = CursorStore()
        self._base = self.chain[-1][0].name
        self.kernel.run_process(transfer.replicate_proc(
            self.device, self.sink, None, self._base, self.store,
            verify=True), name="full-send")
        self._history_rng = random.Random(
            f"{self.name}:{self.seed}:{self.episode}:history")
        self._cycle = 0
        self.start_background()
        self.window(4 * self.window_ops)

    def _background_actors(self) -> list:
        return [self._history()]

    def _history(self):
        device, sink, rec, kernel = (self.device, self.sink, self.rec,
                                     self.kernel)
        rng = self._history_rng
        tracer = self.tracer
        while not self._stop:
            snap, image = self.chain[self._cycle % len(self.chain)]
            self._cycle += 1
            if tracer is not None:
                tracer.set_op(-2 - self._cycle)
            limiter = DutyCycleLimiter.from_paper_knob(kernel, 200, 2)
            started = kernel.now
            if rec.on:
                rec.attempted += 1
            try:
                activated = yield from device.snapshot_activate_proc(
                    snap, limiter)
            except ReproError as exc:
                rec.fail(exc)
                yield MS  # a failing activation must not spin in zero time
                continue
            if rec.on:
                rec.activation_ns.append(kernel.now - started)
                rec.limiter_sleep_ns += limiter.total_slept_ns
            try:
                for _ in range(self.sample_reads):
                    lba = rng.randrange(self.span)
                    if rec.on:
                        rec.attempted += 1
                        rec.ios += 1
                        rec.io_bytes += self.block_size
                    data = yield from activated.read_proc(lba)
                    ok = self.oracle.check_snapshot_read(image, lba, data)
                    if rec.on and not ok:
                        rec.failed += 1
            except ReproError as exc:
                rec.fail(exc)
            finally:
                yield from device.snapshot_deactivate_proc(activated)
            yield from self._replicate_next()

    def _replicate_next(self):
        """Snapshot the source and send the newest pair incrementally."""
        device, sink, rec, kernel = (self.device, self.sink, self.rec,
                                     self.kernel)
        target = f"rep{self._cycle}"
        started = kernel.now
        if rec.on:
            rec.attempted += 2
        try:
            yield from device.snapshot_create_proc(target)
        except ReproError as exc:
            rec.fail(exc)
            return
        if rec.on:
            rec.create_ns.append(kernel.now - started)
        started = kernel.now
        try:
            report = yield from transfer.replicate_proc(
                device, sink, self._base, target, self.store, verify=True)
        except ReproError as exc:
            rec.fail(exc)
            return
        if rec.on:
            rec.send_ns.append(kernel.now - started)
            rec.sends += 1
            rec.send_records += report["records_sent"]
            rec.send_blocks += report["extents_sent"]
            if not report["finalize"]["verified"]:
                rec.failed += 1
        previous, self._base = self._base, target
        if not previous.startswith("chain"):
            if rec.on:
                rec.attempted += 1
            try:
                yield from device.snapshot_delete_proc(previous)
            except ReproError as exc:
                rec.fail(exc)


RIGS = {rig.name: rig for rig in (SnapChurn, MapPressure, SnapHistory)}

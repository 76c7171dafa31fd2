"""Performance-regression guard for the hot paths ("perfguard").

The word-level bitmap engine (:mod:`repro.ftl.validity`,
:mod:`repro.core.cow_bitmap`), the incremental valid-count accounting,
and the kernel scheduling fast paths are the load-bearing optimizations
of the simulator.  This module pins them down two ways:

- micro-benchmarks comparing the word engine against a deliberately
  naive per-bit reference (:class:`NaiveBitmap`) on identical inputs —
  the measured speedups are recorded, and a regression back to
  per-bit work shows up as the ratios collapsing toward 1x;
- end-to-end timings of the paths those micro-operations carry: a
  snapshot-aware cleaner pass, an activation scan, and raw kernel
  event throughput.

``PERF_COUNTERS`` (from :mod:`repro.ftl.validity`) is sampled around
the end-to-end benches: production paths must drive the ``word_*``
counters and must never touch ``bit_fallback`` (only the naive
reference increments it).  Each of these is a named check of
:func:`run`.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, Iterator, List

from repro.bench.harness import ExperimentResult, Table
from repro.ftl.validity import (
    PERF_COUNTERS,
    ValidityBitmap,
    merge_pages,
    reset_perf_counters,
)

# Required word-engine speedup over the per-bit reference, per micro
# operation.  Real speedups are 10x-700x; 5x trips only when a path
# falls back to per-bit work.
MICRO_SPEEDUP_FLOOR = 5.0


class NaiveBitmap:
    """Per-bit reference implementation the word engine is judged against.

    Intentionally does everything one bit at a time, charging every
    touched bit to ``PERF_COUNTERS["bit_fallback"]`` — so any
    production path that ends up doing per-bit work is indistinguishable
    from this class in the counters.
    """

    def __init__(self, total_bits: int) -> None:
        self.total_bits = total_bits
        self._bits = bytearray(total_bits)

    def set(self, bit: int) -> None:
        PERF_COUNTERS["bit_fallback"] += 1
        self._bits[bit] = 1

    def clear(self, bit: int) -> None:
        PERF_COUNTERS["bit_fallback"] += 1
        self._bits[bit] = 0

    def test(self, bit: int) -> bool:
        PERF_COUNTERS["bit_fallback"] += 1
        return bool(self._bits[bit])

    def count_range(self, start: int, length: int) -> int:
        total = 0
        for bit in range(start, start + length):
            PERF_COUNTERS["bit_fallback"] += 1
            total += self._bits[bit]
        return total

    def iter_set_in_range(self, start: int, length: int) -> Iterator[int]:
        for bit in range(start, start + length):
            PERF_COUNTERS["bit_fallback"] += 1
            if self._bits[bit]:
                yield bit

    @staticmethod
    def merge_pages(pages: List[bytes], page_bytes: int) -> bytearray:
        out = bytearray(page_bytes)
        for page in pages:
            for byte_idx in range(page_bytes):
                for bit_idx in range(8):
                    PERF_COUNTERS["bit_fallback"] += 1
                    if page[byte_idx] >> bit_idx & 1:
                        out[byte_idx] |= 1 << bit_idx
        return out


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------
def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _random_pages(count: int, page_bytes: int, density: float,
                  seed: int) -> List[bytes]:
    rng = random.Random(seed)
    pages = []
    for _ in range(count):
        page = bytearray(page_bytes)
        for bit in rng.sample(range(page_bytes * 8),
                              int(page_bytes * 8 * density)):
            page[bit // 8] |= 1 << (bit % 8)
        pages.append(bytes(page))
    return pages


# ---------------------------------------------------------------------------
# Micro-benchmarks: word engine vs naive reference
# ---------------------------------------------------------------------------
def bench_bitmap_merge(smoke: bool = False) -> Dict:
    """Cross-epoch page merge: big-int OR vs per-bit OR."""
    page_bytes = 512
    epochs = 8
    iters = 20 if smoke else 200
    naive_iters = 1 if smoke else 3
    pages = _random_pages(epochs, page_bytes, density=0.25, seed=7)

    word_s = _best_of(
        lambda: [merge_pages(pages, page_bytes) for _ in range(iters)],
        repeats=3) / iters
    naive_s = _best_of(
        lambda: NaiveBitmap.merge_pages(pages, page_bytes),
        repeats=naive_iters)
    assert bytes(merge_pages(pages, page_bytes)) == bytes(
        NaiveBitmap.merge_pages(pages, page_bytes))
    return {"word_s": word_s, "naive_s": naive_s,
            "speedup": naive_s / word_s if word_s else float("inf")}


def bench_bitmap_count(smoke: bool = False) -> Dict:
    """count_range over a populated bitmap: masked popcount vs loop."""
    total_bits = 1 << 16
    iters = 20 if smoke else 200
    rng = random.Random(11)
    bitmap = ValidityBitmap(total_bits)
    naive = NaiveBitmap(total_bits)
    for bit in rng.sample(range(total_bits), total_bits // 4):
        bitmap.set(bit)
        naive._bits[bit] = 1
    ranges = [(rng.randrange(total_bits // 2), total_bits // 4)
              for _ in range(16)]

    word_s = _best_of(
        lambda: [bitmap.count_range(s, n) for s, n in ranges
                 for _ in range(iters)],
        repeats=3) / (iters * len(ranges))
    naive_s = _best_of(
        lambda: [naive.count_range(s, n) for s, n in ranges],
        repeats=1 if smoke else 3) / len(ranges)
    assert all(bitmap.count_range(s, n) == naive.count_range(s, n)
               for s, n in ranges)
    return {"word_s": word_s, "naive_s": naive_s,
            "speedup": naive_s / word_s if word_s else float("inf")}


def bench_bitmap_iter(smoke: bool = False) -> Dict:
    """iter_set_in_range on a sparse bitmap: zero-word skip vs scan."""
    total_bits = 1 << 16
    iters = 10 if smoke else 100
    rng = random.Random(13)
    bitmap = ValidityBitmap(total_bits)
    naive = NaiveBitmap(total_bits)
    for bit in rng.sample(range(total_bits), total_bits // 64):
        bitmap.set(bit)
        naive._bits[bit] = 1

    word_s = _best_of(
        lambda: [list(bitmap.iter_set_in_range(0, total_bits))
                 for _ in range(iters)],
        repeats=3) / iters
    naive_s = _best_of(
        lambda: list(naive.iter_set_in_range(0, total_bits)),
        repeats=1 if smoke else 3)
    assert (list(bitmap.iter_set_in_range(0, total_bits))
            == list(naive.iter_set_in_range(0, total_bits)))
    return {"word_s": word_s, "naive_s": naive_s,
            "speedup": naive_s / word_s if word_s else float("inf")}


# ---------------------------------------------------------------------------
# End-to-end benches: the paths the word engine carries
# ---------------------------------------------------------------------------
def _build_snapshotted_device():
    from repro.bench.configs import (
        bench_iosnap_config,
        bench_nand,
        small_geometry,
    )
    from repro.core.iosnap import IoSnapDevice
    from repro.sim import Kernel

    kernel = Kernel()
    device = IoSnapDevice.create(kernel, bench_nand(small_geometry()),
                                 bench_iosnap_config())
    span = min(device.num_lbas, 512)
    rng = random.Random(17)
    for _ in range(3 * span):      # overwrites create invalid pages
        device.write(rng.randrange(span))
    device.snapshot_create("perfguard-snap")
    for _ in range(2 * span):
        device.write(rng.randrange(span))
    return kernel, device


def bench_cleaner_pass(smoke: bool = False) -> Dict:
    """One snapshot-aware cleaner pass, with counters sampled around it."""
    kernel, device = _build_snapshotted_device()
    reset_perf_counters()
    started = time.perf_counter()
    cleaned = 0
    for _ in range(1 if smoke else 4):
        candidate = device.cleaner.select_candidate()
        if candidate is None:
            break
        device.cleaner.force_clean(candidate)
        cleaned += 1
    elapsed = time.perf_counter() - started
    return {"wall_s": elapsed, "segments_cleaned": cleaned,
            "counters": dict(PERF_COUNTERS)}


def bench_activation_scan(smoke: bool = False) -> Dict:
    """Activate the snapshot (log scan + bitmap rebuild), then drop it."""
    _kernel, device = _build_snapshotted_device()
    reset_perf_counters()
    started = time.perf_counter()
    activated = device.snapshot_activate("perfguard-snap")
    elapsed = time.perf_counter() - started
    activated.deactivate()
    return {"wall_s": elapsed, "counters": dict(PERF_COUNTERS)}


def bench_kernel_throughput(smoke: bool = False) -> Dict:
    """Scheduler dispatch rate: timer yields + event ping-pong."""
    from repro.sim import Kernel

    events = 20_000 if smoke else 200_000

    def timers(n):
        for _ in range(n):
            yield 10

    def ping(kernel, n):
        for _ in range(n):
            ev = kernel.event()
            kernel.call_at(kernel.now, ev.trigger)
            yield ev

    kernel = Kernel()
    started = time.perf_counter()
    kernel.spawn(timers(events // 2), name="timers")
    kernel.run_process(ping(kernel, events // 2), name="ping")
    kernel.run()
    elapsed = time.perf_counter() - started
    return {"wall_s": elapsed, "events": events,
            "events_per_s": events / elapsed if elapsed else float("inf")}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def _counters_text(counters: Dict[str, int]) -> str:
    return " ".join(f"{name}={value}"
                    for name, value in sorted(counters.items()))


def run(smoke: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "perfguard", "Word-level bitmap engine and kernel fast paths"
        + (" (smoke)" if smoke else ""))
    reset_perf_counters()
    micro = {
        "bitmap_merge": bench_bitmap_merge(smoke),
        "bitmap_count": bench_bitmap_count(smoke),
        "bitmap_iter": bench_bitmap_iter(smoke),
    }
    cleaner = bench_cleaner_pass(smoke)
    activation = bench_activation_scan(smoke)
    kernel = bench_kernel_throughput(smoke)
    reset_perf_counters()   # don't leak naive-reference counts

    table = Table(["micro", "word (us)", "naive (us)", "speedup"])
    for name, entry in micro.items():
        table.add_row(name, entry["word_s"] * 1e6, entry["naive_s"] * 1e6,
                      f"{entry['speedup']:.1f}x")
    result.add_table(table)
    counters = cleaner["counters"]
    result.add_line(f"cleaner pass     {cleaner['wall_s'] * 1e3:.2f} ms "
                    f"({cleaner['segments_cleaned']} segments; "
                    f"{_counters_text(counters)})")
    result.add_line(f"activation scan  {activation['wall_s'] * 1e3:.2f} ms "
                    f"({_counters_text(activation['counters'])})")
    result.add_line(f"kernel           {kernel['events_per_s']:,.0f} "
                    f"events/s")

    for name, entry in micro.items():
        result.check(f"{name}: word engine >= {MICRO_SPEEDUP_FLOOR}x naive",
                     entry["speedup"] >= MICRO_SPEEDUP_FLOOR,
                     f"{entry['speedup']:.1f}x")
    result.check("cleaner pass cleaned segments",
                 cleaner["segments_cleaned"] > 0,
                 f"{cleaner['segments_cleaned']} segments")
    result.check("cleaner pass: no per-bit fallback",
                 counters["bit_fallback"] == 0,
                 f"bit_fallback {counters['bit_fallback']}")
    for counter in ("word_merge", "word_count", "word_iter"):
        result.check(f"cleaner pass drove {counter}", counters[counter] > 0,
                     f"{counter} {counters[counter]}")
    fallback = activation["counters"]["bit_fallback"]
    result.check("activation scan: no per-bit fallback", fallback == 0,
                 f"bit_fallback {fallback}")
    result.data.update(smoke=smoke, micro=micro, cleaner_pass=cleaner,
                       activation_scan=activation, kernel_throughput=kernel)
    return result

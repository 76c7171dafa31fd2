"""Memory + throughput guard for the flash-resident forward map.

Two promises back the demand-paged mapping cache (PR 9), and this
module pins both:

- **Bounded RAM.**  The map subsystem's RAM is ``budget`` translation
  pages plus the global translation directory — *not* O(mapped LBAs).
  The guard builds the same cached configuration on the small (~16 MiB)
  and medium (~128 MiB, 8x) geometries, fills a fixed fraction of each,
  and asserts the cache never exceeds its page budget, that total map
  RAM stays within the declared byte budget at both sizes, and that the
  8x device costs nowhere near 8x the map RAM (only the GTD scales).

- **Hot working sets stay fast.**  A fig12-style sustained random
  write/read mix confined to a working set that fits in the cache must
  run at >= ``THROUGHPUT_FLOOR`` of the all-RAM map's simulated
  throughput on identical hardware — after warm-up every translation
  touch is a hit, so the cache may not tax the hot path.

A third, host-side promise: translation pages are int32 slot arrays
in RAM and on flash, so the map's fault and writeback path never
text-encodes.  The cached probes run under cProfile and must make
zero calls into the ``json`` package (call counts are deterministic,
unlike wall time); a regression to a text codec fails that check.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
from typing import Callable, Dict, Tuple, TypeVar

from repro.bench.configs import (
    bench_iosnap_config,
    bench_nand,
    medium_geometry,
    small_geometry,
)
from repro.bench.harness import ExperimentResult, Table
from repro.core.iosnap import IoSnapDevice
from repro.ftl.mapcache import (
    _BYTES_PER_ENTRY,
    _BYTES_PER_REF,
    _PAGE_FIXED_BYTES,
)
from repro.sim import Kernel
from repro.sim.stats import NS_PER_MS
from repro.workloads import mixed, random_writes, run_stream

#: Hot-working-set throughput floor vs the all-RAM map (simulated time).
THROUGHPUT_FLOOR = 0.9
#: Resident translation pages the cached configurations may hold.
BUDGET_PAGES = 32
SPAN = 64
#: The 8x device may cost at most this factor in map RAM (only the
#: O(#translation-pages) GTD grows; the page cache is fixed).
SCALING_CEILING = 4.0
HIT_RATE_FLOOR = 0.85

_JSON_DIR = os.path.dirname(json.__file__)
_T = TypeVar("_T")


def _json_calls(fn: Callable[[], _T]) -> Tuple[_T, int]:
    """Run ``fn`` under cProfile; return its result and the number of
    calls it made to functions defined in the ``json`` package."""
    enclosing = sys.getprofile()
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler).stats
    calls = sum(nc for (filename, _line, _name), (_cc, nc, *_rest)
                in stats.items() if filename.startswith(_JSON_DIR))
    if isinstance(enclosing, cProfile.Profile):
        # ``python -m repro.bench --profile``: one profiler runs at a
        # time, so the enclosing profile resumes here (it misses fn).
        enclosing.enable()
    return result, calls


def _build(geometry, cached: bool):
    kernel = Kernel()
    overrides = dict(map_cache_pages=BUDGET_PAGES,
                     map_span=SPAN) if cached else {}
    device = IoSnapDevice.create(kernel, bench_nand(geometry),
                                 bench_iosnap_config(**overrides))
    return kernel, device


def _declared_budget_bytes(device) -> int:
    """The byte budget the configuration promises: ``budget`` resident
    pages (every dirty-queue entry references a resident page) plus the
    GTD, plus the two container overheads."""
    page_bytes = _PAGE_FIXED_BYTES + SPAN * _BYTES_PER_ENTRY
    gtd_bytes = _PAGE_FIXED_BYTES + device.map.translation_pages * _BYTES_PER_REF
    dirty_bytes = _PAGE_FIXED_BYTES + BUDGET_PAGES * _BYTES_PER_REF
    return BUDGET_PAGES * page_bytes + gtd_bytes + dirty_bytes


def _fill(kernel, device, fraction: float, seed: int) -> None:
    """Map ``fraction`` of the LBA space with uniform random writes."""
    count = int(device.num_lbas * fraction)
    run_stream(kernel, device, random_writes(count, device.num_lbas,
                                             seed=seed))


def _memory_probe(geometry, fraction: float, seed: int) -> Dict:
    kernel, device = _build(geometry, cached=True)
    _fill(kernel, device, fraction, seed)
    # A few follow-up touches drain any dirty-eviction backlog the
    # tail of the fill left behind (evictions happen at fault time).
    run_stream(kernel, device, random_writes(64, device.num_lbas, seed=99))
    info = device.info()["map"]
    return {
        "num_lbas": device.num_lbas,
        "mapped_lbas": len(device.map),
        "memory_bytes": info["memory_bytes"],
        "declared_budget_bytes": _declared_budget_bytes(device),
        "resident_pages": info["resident_pages"],
        "translation_pages": info["translation_pages"],
        "hit_rate": info["hit_rate"],
        "stats": info,
    }


def _ram_memory(geometry, fraction: float, seed: int) -> int:
    kernel, device = _build(geometry, cached=False)
    _fill(kernel, device, fraction, seed)
    return device.map.memory_bytes()


def _hot_run(geometry, cached: bool, ops: int) -> Dict:
    """Sustained mixed I/O over a working set that fits the cache."""
    kernel, device = _build(geometry, cached)
    hot_span = (BUDGET_PAGES * SPAN) // 2      # half the cache's reach
    # Warm up: map the hot set (and, cached, make its pages resident).
    run_stream(kernel, device, random_writes(hot_span, hot_span, seed=5))
    if cached:
        device.map.counters.reset()
    start_ns = kernel.now
    run_stream(kernel, device,
               mixed(ops, hot_span, read_fraction=0.5, seed=17))
    elapsed_ns = kernel.now - start_ns
    out = {"ops": ops, "elapsed_ns": elapsed_ns,
           "ops_per_ms": ops / max(1, elapsed_ns) * NS_PER_MS}
    if cached:
        out["map"] = device.info()["map"]
    return out


def run(smoke: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "mapcache_guard", "Flash-resident map: bounded RAM, hot-set "
        "throughput" + (" (smoke)" if smoke else ""))
    fraction = 0.12 if smoke else 0.25
    hot_ops = 1500 if smoke else 6000

    small, small_json = _json_calls(
        lambda: _memory_probe(small_geometry(), fraction, seed=3))
    medium, medium_json = _json_calls(
        lambda: _memory_probe(medium_geometry(), fraction, seed=4))
    ram_medium = _ram_memory(medium_geometry(), fraction, seed=4)

    ram_hot = _hot_run(small_geometry(), cached=False, ops=hot_ops)
    cached_hot, hot_json = _json_calls(
        lambda: _hot_run(small_geometry(), cached=True, ops=hot_ops))
    json_calls = small_json + medium_json + hot_json
    throughput_ratio = (ram_hot["elapsed_ns"]
                        / max(1, cached_hot["elapsed_ns"]))
    hit_rate = cached_hot["map"]["hit_rate"]

    table = Table(["device", "map RAM (B)", "budget (B)", "resident",
                   "LBAs mapped"])
    for name, probe in (("small", small), ("medium", medium)):
        table.add_row(name, probe["memory_bytes"],
                      probe["declared_budget_bytes"],
                      f"{probe['resident_pages']}/{BUDGET_PAGES}",
                      probe["mapped_lbas"])
    table.add_row("medium all-RAM", ram_medium, "-", "-", "-")
    result.add_table(table)
    for name, probe in (("small", small), ("medium", medium)):
        stats = probe["stats"]
        result.add_line(
            f"{name:7s} hits={stats['hits']} misses={stats['misses']} "
            f"hit_rate={stats['hit_rate']:.3f} "
            f"evictions={stats['evictions']} "
            f"writebacks={stats['writebacks']} "
            f"sync_faults={stats['sync_faults']} "
            f"relocations={stats['relocations']}")

    for name, probe in (("small", small), ("medium", medium)):
        result.check(f"{name}: resident pages within the budget",
                     probe["resident_pages"] <= BUDGET_PAGES,
                     f"{probe['resident_pages']}/{BUDGET_PAGES}")
    for name, probe in (("small", small), ("medium", medium)):
        result.check(f"{name}: map RAM within the declared budget",
                     probe["memory_bytes"] <= probe["declared_budget_bytes"],
                     f"{probe['memory_bytes']} <= "
                     f"{probe['declared_budget_bytes']} B")
    growth = medium["memory_bytes"] / max(1, small["memory_bytes"])
    result.check(f"8x device costs <= {SCALING_CEILING}x map RAM",
                 growth <= SCALING_CEILING, f"{growth:.2f}x")
    result.check("cached map at most half the all-RAM map",
                 medium["memory_bytes"] * 2 <= ram_medium,
                 f"{medium['memory_bytes']} vs {ram_medium} B")
    result.check(f"hot-set hit rate >= {HIT_RATE_FLOOR}",
                 hit_rate >= HIT_RATE_FLOOR, f"{hit_rate:.3f}")
    result.check(f"hot-set throughput >= {THROUGHPUT_FLOOR}x all-RAM",
                 throughput_ratio >= THROUGHPUT_FLOOR,
                 f"{throughput_ratio:.3f}x")
    result.check("cached probes make no json calls",
                 json_calls == 0, f"json calls {json_calls}")
    result.data.update(
        smoke=smoke,
        json_calls={"small": small_json, "medium": medium_json,
                    "hot": hot_json},
        config={"budget_pages": BUDGET_PAGES, "span": SPAN,
                "fill_fraction": fraction, "hot_ops": hot_ops},
        memory={"small": small, "medium": medium,
                "ram_medium_bytes": ram_medium},
        hot={"ram": ram_hot, "cached": cached_hot,
             "throughput_ratio": throughput_ratio})
    return result

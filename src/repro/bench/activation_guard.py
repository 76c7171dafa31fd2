"""Performance-regression guard for the activation acceleration layer.

PR 1's perfguard pins the word-level bitmap engine; this module pins
the activation fast paths added on top of it (paper §7 "selectively
scanning" plus the warm-activation residue cache):

- a *cold full* activation (``selective_scan`` off, residue cache
  cleared) reproduces the paper prototype's whole-log scan — the
  Figure 8 baseline;
- a *cold selective* activation (summary index on, cache cleared) must
  skip every segment with nothing on the snapshot's epoch path;
- a *warm* re-activation must ride the residue left by the previous
  deactivation and fold only the log tail written since — the delta
  rescan.

All three activate the same early snapshot on the same fig8-shaped
device, so the simulated-time ratios are attributable purely to how
much log each mode read.  The guard asserts the warm path is >= 5x and
the cold selective path >= 2x faster than the full scan, that segments
were actually skipped (not just that wall-clock moved), and that all
three modes resolve the same number of blocks.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.bench.configs import (
    bench_iosnap_config,
    bench_nand,
    medium_geometry,
)
from repro.bench.harness import ExperimentResult, Table
from repro.core.iosnap import IoSnapDevice
from repro.sim import Kernel
from repro.sim.stats import NS_PER_MS
from repro.workloads import random_writes, run_stream

# Required speedups over the cold full scan (simulated time).  These
# are deliberately far below what the fast paths deliver on the guard
# workload (typically 10-100x warm) so only a real regression — a scan
# that stopped skipping — trips them, not timing-model drift.
WARM_SPEEDUP_FLOOR = 5.0
COLD_SPEEDUP_FLOOR = 2.0


def _build_fig8_device(pages_per_snapshot: int, snapshots: int):
    """A fig8-shaped device: several snapshots, data between each."""
    kernel = Kernel()
    device = IoSnapDevice.create(kernel, bench_nand(medium_geometry()),
                                 bench_iosnap_config())
    span = min(device.num_lbas, pages_per_snapshot * snapshots)
    for index in range(snapshots):
        run_stream(kernel, device,
                   random_writes(pages_per_snapshot, span, seed=31 + index))
        device.snapshot_create(f"snap-{index + 1}")
    return kernel, device


def _activate_once(device, name: str) -> Dict:
    """Activate + deactivate ``name``, returning its activation report."""
    started = time.perf_counter()
    device.snapshot_activate(name).deactivate()
    report = dict(device.snap_metrics.activation_reports[-1])
    report["wall_s"] = time.perf_counter() - started
    return report


def run(smoke: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "activation_guard", "Activation fast paths: full vs selective vs "
        "warm delta scan" + (" (smoke)" if smoke else ""))
    pages = 256 if smoke else 1024
    snapshots = 4 if smoke else 5
    kernel, device = _build_fig8_device(pages, snapshots)
    # The earliest snapshot has the deepest pile of unrelated log on
    # top of it — exactly where Figure 8 shows full-scan activation
    # hurting most and where the summary index pays off most.
    target = "snap-1"

    device.config.selective_scan = False
    device._residues.clear()
    full = _activate_once(device, target)

    device.config.selective_scan = True
    device._residues.clear()
    selective = _activate_once(device, target)

    # The selective run's deactivation left a residue; dirty the log a
    # little so the warm path exercises a real delta (tail fold), not
    # just a no-op cache hit.
    run_stream(kernel, device, random_writes(32, device.num_lbas, seed=97))
    warm = _activate_once(device, target)

    table = Table(["run", "sim (ms)", "mode", "pages scanned",
                   "segments skipped", "entries"])
    for label, entry in (("full", full), ("selective", selective),
                         ("warm", warm)):
        table.add_row(label, entry["total_ns"] / NS_PER_MS, entry["mode"],
                      entry["pages_scanned"], entry["segments_skipped"],
                      entry["entries"])
    result.add_table(table)

    warm_speedup = full["total_ns"] / max(1, warm["total_ns"])
    cold_speedup = full["total_ns"] / max(1, selective["total_ns"])
    modes = (full["mode"], selective["mode"], warm["mode"])
    result.check("modes are full / selective / delta",
                 modes == ("full", "selective", "delta"), "/".join(modes))
    result.check("cold selective scan skips segments",
                 selective["segments_skipped"] > 0,
                 f"{selective['segments_skipped']} skipped")
    result.check("warm re-activation skips segments",
                 warm["segments_skipped"] > 0,
                 f"{warm['segments_skipped']} skipped")
    result.check("warm re-activation reads less log than the full scan",
                 warm["pages_scanned"] < full["pages_scanned"],
                 f"{warm['pages_scanned']} vs {full['pages_scanned']} pages")
    result.check("all three modes resolve the same entries",
                 full["entries"] == selective["entries"] == warm["entries"],
                 f"{full['entries']}/{selective['entries']}/"
                 f"{warm['entries']}")
    result.check(f"warm delta speedup >= {WARM_SPEEDUP_FLOOR}x",
                 warm_speedup >= WARM_SPEEDUP_FLOOR, f"{warm_speedup:.1f}x")
    result.check(f"cold selective speedup >= {COLD_SPEEDUP_FLOOR}x",
                 cold_speedup >= COLD_SPEEDUP_FLOOR, f"{cold_speedup:.1f}x")
    result.data.update(
        smoke=smoke,
        workload={"pages_per_snapshot": pages, "snapshots": snapshots,
                  "target": target},
        full=full, selective=selective, warm=warm,
        warm_speedup=warm_speedup, cold_speedup=cold_speedup,
        counters=device.activation_counters.as_dict())
    return result

"""Performance-regression guard for snapshot send/receive.

The replication pitch is that an incremental send moves only the delta:
on a 5%-dirty workload the ``base -> target`` stream must beat a full
``0 -> target`` send by a wide margin, because the planner reads only
the segments the epoch-summary index proves intersect the delta epochs
and transfers only the dirty blocks.

The guard builds one source device (sequential fill, snapshot ``base``,
5% dirty rewrites, snapshot ``target``, post-target churn so the log
holds segments with nothing on either path), then measures in simulated
time:

- *full*: replicate ``0 -> target`` into a fresh sink;
- *incremental*: replicate ``0 -> base`` into a second sink (setup,
  unmeasured), then replicate ``base -> target`` on top (measured).

It asserts the incremental send is >= 10x faster than the full send,
that the planner ran in delta mode and actually skipped segments, that
the incremental stream carried only the dirty blocks, and that both
sinks serve byte-identical ``target`` content — speed never at the
price of fidelity.
"""

from __future__ import annotations

from repro.bench.configs import (
    bench_iosnap_config,
    bench_nand,
    medium_geometry,
)
from repro.bench.harness import ExperimentResult, Table
from repro.core.iosnap import IoSnapDevice
from repro.replicate import CursorStore, replicate
from repro.sim import Kernel
from repro.sim.stats import NS_PER_MS
from repro.workloads import random_writes, run_stream

# Required simulated-time speedup of the incremental send over the full
# send on the 5%-dirty workload.  The planner typically delivers ~20x
# here; 10x only trips when selective scanning or delta planning breaks.
INCREMENTAL_SPEEDUP_FLOOR = 10.0
DIRTY_FRACTION = 0.05


def _build_source(span: int, churn: int):
    kernel = Kernel()
    device = IoSnapDevice.create(kernel, bench_nand(medium_geometry()),
                                 bench_iosnap_config())
    span = min(span, device.num_lbas)
    for lba in range(span):
        device.write(lba)
    device.snapshot_create("base")
    dirty = max(1, int(span * DIRTY_FRACTION))
    # Deterministic spread across the span: every ~20th block dirtied.
    step = max(1, span // dirty)
    dirty_lbas = list(range(0, span, step))[:dirty]
    for lba in dirty_lbas:
        device.write(lba)
    device.snapshot_create("target")
    run_stream(kernel, device, random_writes(churn, span, seed=97))
    return kernel, device, span, len(dirty_lbas)


def _digests(device, name):
    activated = device.snapshot_activate(name)
    try:
        return activated.content_digests()
    finally:
        device.snapshot_deactivate(activated)


def run(smoke: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "replicate_guard", "Incremental vs full snapshot send, 5% dirty"
        + (" (smoke)" if smoke else ""))
    span = 256 if smoke else 1024
    churn = 128 if smoke else 512
    kernel, source, span, dirty = _build_source(span, churn)

    full_sink = IoSnapDevice.create(kernel, bench_nand(medium_geometry()),
                                    bench_iosnap_config())
    full = replicate(source, full_sink, None, "target", CursorStore())

    incr_sink = IoSnapDevice.create(kernel, bench_nand(medium_geometry()),
                                    bench_iosnap_config())
    store = CursorStore()
    setup = replicate(source, incr_sink, None, "base", store)
    incremental = replicate(source, incr_sink, "base", "target", store)

    table = Table(["send", "sim (ms)", "mode", "extents", "pages scanned",
                   "segments skipped"])
    for label, entry in (("full", full), ("incremental", incremental)):
        table.add_row(label, entry["send_ns"] / NS_PER_MS, entry["mode"],
                      entry["extent_total"], entry["pages_scanned"],
                      entry["segments_skipped"])
    result.add_table(table)

    speedup = full["send_ns"] / max(1, incremental["send_ns"])
    result.check("incremental send plans in delta mode",
                 incremental["mode"] == "delta", incremental["mode"])
    result.check("incremental send skips segments",
                 incremental["segments_skipped"] > 0,
                 f"{incremental['segments_skipped']} skipped")
    result.check("incremental send carries only the dirty blocks",
                 incremental["extent_total"] == dirty,
                 f"{incremental['extent_total']} of {dirty} dirty")
    result.check("full send carries every block",
                 full["extent_total"] == span,
                 f"{full['extent_total']} of {span}")
    result.check("incremental send reads less log than the full send",
                 incremental["pages_scanned"] < full["pages_scanned"],
                 f"{incremental['pages_scanned']} vs "
                 f"{full['pages_scanned']} pages")
    verified = (full["finalize"]["verified"]
                and incremental["finalize"]["verified"])
    result.check("both sends verified at finalize", verified,
                 f"full {full['finalize']['verified']}, incremental "
                 f"{incremental['finalize']['verified']}")
    full_digests = _digests(full_sink, "target")
    result.check("both sinks serve the same target content",
                 full_digests == _digests(incr_sink, "target"),
                 f"{len(full_digests)} blocks compared")
    result.check(f"incremental speedup >= {INCREMENTAL_SPEEDUP_FLOOR}x",
                 speedup >= INCREMENTAL_SPEEDUP_FLOOR, f"{speedup:.1f}x")
    result.data.update(
        smoke=smoke,
        workload={"span": span, "dirty": dirty, "churn": churn,
                  "dirty_fraction": DIRTY_FRACTION},
        full=full, setup=setup, incremental=incremental,
        incremental_speedup=speedup)
    return result

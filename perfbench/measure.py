"""Measurement passes and the metrics computed from them.

``end_to_end(workload, seed, seconds)`` is the untraced run.  It runs
several *episodes*; each builds a fresh rig, sets it up (timed: the
median is ``setup_s``) and runs a fixed number of measured windows, so
no episode ages the devices beyond its own set-up.  The episode count
is sized from ``seconds`` alone, never from host speed, so every
simulated-time metric repeats exactly for a given seed and ``seconds``.
Host times are CPU times normalised by a calibration loop timed right
before and after each measured piece (see ``calibrate.py``); host time
per I/O is the median over all measured windows.

``per_layer(workload, seed)`` is the traced run.  It runs episode 0's
*trace window* three times from identical set-ups: untraced, traced
(self time, spans, observers) and under cProfile (Python calls per
layer).  The three passes do the same simulated work, which the traced
pass checks.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import catalog
import loadgen
from audit import audit
from calibrate import REFERENCE_S, calibrate, normalised
from tracer import LAYERS, Tracer, check_self_times, profile_calls

from repro.core import iosnap as iosnap_module
from repro.core.activation import ActivatedSnapshot
from repro.core.cow_bitmap import CowValidityBitmap
from repro.core.iosnap import IoSnapDevice
from repro.core.residue import ResidueCache
from repro.ftl.btree import BPlusTree
from repro.ftl.cleaner import SegmentCleaner
from repro.ftl.log import Log
from repro.ftl.mapcache import MapCache
from repro.ftl.vsl import VslDevice
from repro.nand.device import NandDevice
from repro.nand.queue import SubmissionQueues
from repro.replicate import send as send_module
from repro.replicate import transfer as transfer_module
from repro.replicate.receive import Receiver
from repro.sim.kernel import Kernel
from repro.sim.resources import Resource

#: Per workload: (measured windows per episode, reference CPU seconds
#: of one episode including its set-up, windows of the traced run).
#: ``episodes(workload, seconds)`` runs about ``seconds`` of work on the
#: reference machine described in README.md.
PLAN = {
    "snap_churn": (10, 4.8, 8),
    "map_pressure": (10, 3.2, 8),
    "snap_history": (20, 3.4, 12),
}
MIN_EPISODES = 3


def episodes(workload: str, seconds: float) -> int:
    return max(MIN_EPISODES, round(seconds / PLAN[workload][1]))


def percentile(samples, pct: float) -> float:
    """Kernel-smoothed percentile; 0.0 for no samples.

    Simulated latencies take a few discrete values (a page read, a read
    behind a program, ...), so a plain order statistic jumps from one
    value to the next between seeds whenever the percentile sits near
    such a step.  This is the Gaussian kernel quantile estimator: a
    weighted mean of the order statistics around rank ``pct`` with a
    standard deviation of ten ranks.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    p = pct / 100.0
    if n < 50:
        rank = p * (n - 1)
        lo = int(rank)
        hi = min(lo + 1, n - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    centre = p * n - 0.5
    total = weight_sum = 0.0
    for i in range(max(0, int(centre) - 40), min(n, int(centre) + 41)):
        weight = math.exp(-0.5 * ((i - centre) / 10.0) ** 2)
        total += weight * ordered[i]
        weight_sum += weight
    return total / weight_sum


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(samples) -> float:
    return _ratio(sum(samples), len(samples))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Counters read from the devices (public state, no tracing needed)
# ---------------------------------------------------------------------------
def device_counters(rig) -> Dict[str, Any]:
    """Cumulative counters summed over the rig's devices, plus the main
    device's own write path for write amplification."""
    out: Dict[str, Any] = {
        "now": rig.kernel.now, "programs": 0, "page_reads": 0,
        "header_reads": 0, "erases": 0, "cleaned": 0, "moved": 0,
        "map_hits": 0, "map_misses": 0, "evictions": 0, "writebacks": 0,
        "cow_copies": 0, "die_busy_ns": 0, "die_capacity": 0,
        "cleaner_workers": 0,
        "cleaner_runs": [], "reads": 0, "readahead_hits": 0,
    }
    for device in rig.devices:
        nand = device.nand
        stats, timing = nand.stats, nand.timing
        out["programs"] += stats.page_programs
        out["page_reads"] += stats.page_reads
        out["header_reads"] += stats.header_reads
        out["erases"] += stats.block_erases
        out["die_busy_ns"] += ((stats.page_reads + stats.header_reads)
                               * timing.read_page_ns
                               + stats.page_programs * timing.program_page_ns
                               + stats.block_erases * timing.erase_block_ns)
        out["die_capacity"] += nand.geometry.dies
        out["cleaner_workers"] += device.log.num_stripes
        out["cleaned"] += device.cleaner.segments_cleaned
        out["moved"] += device.cleaner.pages_moved
        out["cleaner_runs"].extend(run["moved"] for run in
                                   device.metrics.cleaner_runs)
        out["cow_copies"] += device.metrics.bitmap_cow_copies
        out["reads"] += device.metrics.reads
        out["readahead_hits"] += device.metrics.readahead_hits
        if device.map_is_cached:
            counts = device.map.counters.as_dict()
            out["map_hits"] += counts["hits"]
            out["map_misses"] += counts["misses"]
            out["evictions"] += counts["evictions"]
            out["writebacks"] += counts["writebacks"]
    main = rig.device
    out["main_programs"] = main.nand.stats.page_programs
    out["main_writes"] = main.metrics.writes
    act = main.activation_counters.as_dict()
    out["residue_hits"] = act["hits"]
    out["residue_misses"] = act["misses"]
    out["activation_reports"] = list(main.snap_metrics.activation_reports)
    out["segment_pages"] = main.log.segment_pages
    return out


#: Configuration values among the counters: never differenced or summed.
FIXED_COUNTS = ("segment_pages", "die_capacity", "cleaner_workers")


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, list):
            out[key] = value[len(before[key]):]
        elif key in FIXED_COUNTS:
            out[key] = value
        else:
            out[key] = value - before[key]
    return out


class Tally:
    """Samples and counts of the measured windows, summed over episodes."""

    def __init__(self) -> None:
        self.write_ns: List[int] = []
        self.read_ns: List[int] = []
        self.create_ns: List[int] = []
        self.activation_ns: List[int] = []
        self.send_ns: List[int] = []
        self.epoch_samples: List[int] = []
        self.io_bytes = self.ios = self.attempted = self.failed = 0
        self.sends = self.send_records = self.send_blocks = 0
        self.limiter_sleep_ns = 0
        self.errors: Dict[str, int] = {}
        self.counts: Dict[str, Any] = {}

    def add(self, rec: loadgen.Recorder, counts: Dict[str, Any]) -> None:
        for name in ("write_ns", "read_ns", "create_ns", "activation_ns",
                     "send_ns", "epoch_samples"):
            getattr(self, name).extend(getattr(rec, name))
        for name in ("io_bytes", "ios", "attempted", "failed", "sends",
                     "send_records", "send_blocks", "limiter_sleep_ns"):
            setattr(self, name, getattr(self, name) + getattr(rec, name))
        for name, count in rec.errors.items():
            self.errors[name] = self.errors.get(name, 0) + count
        for key, value in counts.items():
            if key not in self.counts:
                self.counts[key] = value
            elif isinstance(value, list):
                self.counts[key] = self.counts[key] + value
            elif key not in FIXED_COUNTS:
                self.counts[key] += value


def sim_metrics(frozen: Tally) -> Dict[str, float]:
    """Simulated-time end-to-end metrics of the measured windows."""
    counts = frozen.counts
    elapsed_s = counts["now"] / 1e9
    return {
        "sim_mb_s": _ratio(frozen.io_bytes / 1e6, elapsed_s),
        "sim_write_mean_us": _mean(frozen.write_ns) / 1e3,
        "sim_write_p99_us": percentile(frozen.write_ns, 99) / 1e3,
        "sim_read_mean_us": _mean(frozen.read_ns) / 1e3,
        "sim_read_p99_us": percentile(frozen.read_ns, 99) / 1e3,
        "write_amp": _ratio(counts["main_programs"], counts["main_writes"]),
    }


def build(workload: str, seed: int, tracer: Optional[Tracer] = None,
          episode: int = 0):
    """Construct and set up one rig; return it with its set-up time."""
    started = time.process_time()
    rig = loadgen.RIGS[workload](seed, episode)
    rig.tracer = tracer
    if tracer is not None:
        tracer.kernel = rig.kernel
    rig.setup()
    return rig, time.process_time() - started


def run_windows(rig, count: int) -> None:
    """Run ``count`` windows, sampling live epochs after each."""
    for _ in range(count):
        rig.window(rig.window_ops)
        rig.rec.epoch_samples.append(len(rig.device.live_epoch_bitmaps()))


def timed_windows(rig, count: int, calibrations: List[float]
                  ) -> List[Tuple[float, int]]:
    """Run ``count`` windows; return (normalised CPU seconds, ios) for
    each, appending every calibration taken to ``calibrations``."""
    samples = []
    before = calibrate()
    calibrations.append(before)
    for _ in range(count):
        ios = rig.rec.ios
        started = time.process_time()
        run_windows(rig, 1)
        host = time.process_time() - started
        after = calibrate()
        calibrations.append(after)
        samples.append((normalised(host, before, after), rig.rec.ios - ios))
        before = after
    return samples


# ---------------------------------------------------------------------------
# The untraced run
# ---------------------------------------------------------------------------
def end_to_end(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    windows = PLAN[workload][0]
    setups: List[float] = []
    calibrations: List[float] = []
    samples: List[Tuple[float, int]] = []
    tally = Tally()
    leaked = 0
    other: List[str] = []
    checked_reads = 0
    for episode in range(episodes(workload, seconds)):
        gc.collect()
        rig, setup_s = build(workload, seed, episode=episode)
        setups.append(setup_s)
        rig.rec.on = True
        before = device_counters(rig)
        samples += timed_windows(rig, windows, calibrations)
        tally.add(rig.rec, delta(device_counters(rig), before))
        rig.stop_background()
        checked = audit_all(rig)
        leaked += checked["leaked_valid_bits"]
        other += checked["other"]
        checked_reads += rig.oracle.reads_checked
        rig = None
    per_io = [_ratio(host, ios) * 1e6 for host, ios in samples]
    metrics = {
        "host_us_per_io": statistics.median(per_io),
        # A set-up runs for seconds, through many changes of host speed:
        # normalise by the run's mean calibration time.
        "setup_s": (statistics.median(setups) * REFERENCE_S
                    / statistics.fmean(calibrations)),
        "peak_rss_mb": peak_rss_mb(),
        **sim_metrics(tally),
    }
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "reads_checked": checked_reads,
        "fsck_other": other,
        "leaked_valid_bits": leaked,
        "episodes": len(setups),
        "windows": len(samples),
        "measured_s": sum(host for host, _ios in samples),
        "samples": {"write": len(tally.write_ns), "read": len(tally.read_ns),
                    "create": len(tally.create_ns),
                    "activation": len(tally.activation_ns),
                    "send": len(tally.send_ns)},
        "op_metrics": op_metrics(tally),
        "correct": tally.failed == 0 and not other,
    }


def audit_all(rig) -> Dict[str, Any]:
    leaked = 0
    other: List[str] = []
    for device in rig.devices:
        result = audit(device)
        leaked += result["leaked_valid_bits"]
        other.extend(result["other"])
    return {"leaked_valid_bits": leaked, "other": other}


def op_metrics(frozen: Tally) -> Dict[str, float]:
    """Latency of the snapshot operations (0.0 where not issued)."""
    return {
        "core.snap_create_p90_us": percentile(frozen.create_ns, 90) / 1e3,
        "core.activation.activation_p50_ms":
            percentile(frozen.activation_ns, 50) / 1e6,
        "replicate.send_p50_ms": percentile(frozen.send_ns, 50) / 1e6,
    }


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------
class LayerProbe:
    """Installs the layer wrappers and the observers that measure
    simulated waits at layer boundaries."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.try_granted = 0
        self.parked = 0
        self.park_wait_ns = 0
        self.granted_after_park = 0
        self._parked_at: Dict[int, int] = {}
        self._submitted: Dict[Tuple[int, int], int] = {}
        self.queue_wait_ns = 0
        self.queue_waits = 0
        self._quiesce_at: Dict[int, int] = {}
        self.quiesce_hold_ns = 0
        self.quiesces = 0
        observers = {
            "Resource.acquire": (None, self._after_acquire),
            "Resource.try_acquire": (None, self._after_try),
            "Resource.release": (self._before_release, None),
            "SubmissionQueues.submit": (self._before_submit, None),
            "NandDevice.program_page": (self._before_program, None),
            "VslDevice.quiesce_begin": (self._before_quiesce, None),
            "VslDevice.quiesce_end": (self._before_unquiesce, None),
        }
        for name, (enter, leave) in observers.items():
            if enter is not None:
                tracer.on_enter[name] = enter
            if leave is not None:
                tracer.on_exit[name] = leave

    def _now(self) -> int:
        return self.tracer.kernel.now

    # -- observers -------------------------------------------------------
    def _after_acquire(self, _state, event, _resource) -> None:
        if not event.triggered:
            self.parked += 1
            self._parked_at[id(event)] = self._now()

    def _after_try(self, _state, granted, _resource) -> None:
        if granted:
            self.try_granted += 1

    def _before_release(self, res) -> None:
        waiting = res._waiting
        if waiting:
            started = self._parked_at.pop(id(waiting[0][0]), None)
            if started is not None:
                self.park_wait_ns += self._now() - started
                self.granted_after_park += 1

    def _before_submit(self, queues, ppn, *_args, **_kwargs) -> None:
        self._submitted[(id(queues), ppn)] = self._now()

    def _before_program(self, device, ppn, *_args, **_kwargs) -> None:
        started = self._submitted.pop((id(device.queues), ppn), None)
        if started is not None:
            self.queue_wait_ns += self._now() - started
            self.queue_waits += 1

    def _before_quiesce(self, device) -> None:
        self._quiesce_at[id(device)] = self._now()

    def _before_unquiesce(self, device) -> None:
        started = self._quiesce_at.pop(id(device), None)
        if started is not None:
            self.quiesce_hold_ns += self._now() - started
            self.quiesces += 1

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        tracer = self.tracer
        tracer.wrap_spawn(Kernel)
        for owner, attrs, span in (
                (Resource, ("acquire", "try_acquire", "release"), False),
                (NandDevice, ("read_page", "read_header", "program_page",
                              "erase_block"), True),
                (SubmissionQueues, ("submit",), False),
                (Log, ("append",), True),
                (SegmentCleaner, ("clean_segment",), True),
                (SegmentCleaner, ("select_candidate",), False),
                (MapCache, ("fault_proc",), True),
                (MapCache, ("get", "insert"), False),
                (BPlusTree, ("get", "insert", "delete"), False),
                (VslDevice, ("write_proc", "read_proc", "trim_proc",
                             "quiesce_begin"), True),
                (VslDevice, ("quiesce_end",), False),
                (IoSnapDevice, ("snapshot_create_proc",
                                "snapshot_delete_proc",
                                "snapshot_activate_proc",
                                "snapshot_deactivate_proc"), True),
                (CowValidityBitmap, ("set", "clear", "test", "set_privileged",
                                     "clear_privileged"), False),
                (iosnap_module, ("merged_iter_range", "merged_count_range"),
                 False),
                (iosnap_module, ("activate_proc",), True),
                (ActivatedSnapshot, ("read_proc",), True),
                (ResidueCache, ("take", "put"), False),
                (transfer_module, ("replicate_proc", "send_proc"), True),
                (send_module, ("changed_blocks_proc",), True),
                (Receiver, ("apply_record_proc", "finalize_proc"), True)):
            for attr in attrs:
                tracer.wrap(owner, attr, span=span)


def per_layer(workload: str, seed: int,
              spans_path: Optional[str] = None) -> Dict[str, Any]:
    trace_windows = PLAN[workload][2]

    # Pass 1: untraced, for the tracing-overhead baseline.
    rig, _ = build(workload, seed)
    rig.rec.on = True
    started = perf_counter()
    before = device_counters(rig)
    run_windows(rig, trace_windows)
    plain_s = perf_counter() - started
    plain_counts = delta(device_counters(rig), before)
    plain_ios = rig.rec.ios
    rig = None
    gc.collect()

    # Pass 2: traced.
    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        rig, _ = build(workload, seed, tracer)
        rec = rig.rec
        rec.on = True
        before = device_counters(rig)
        started = perf_counter()
        tracer.reset_clock()
        run_windows(rig, trace_windows)
        tracer.elapsed()  # charges the window's last interval
        traced_s = perf_counter() - started
        self_s = list(tracer.self_s)
        calls = dict(tracer.calls)
        frozen = Tally()
        frozen.add(rec, delta(device_counters(rig), before))
        counts = frozen.counts
        rig.stop_background()
    finally:
        tracer.uninstall()
    gap = check_self_times(self_s, traced_s)
    if counts["now"] != plain_counts["now"] \
            or counts["programs"] != plain_counts["programs"] \
            or rec.ios != plain_ios:
        raise RuntimeError("the traced pass simulated different work from "
                           "the untraced pass")
    checked = audit_all(rig)
    if spans_path is not None:
        tracer.write_spans(spans_path)
    correct = rec.failed == 0 and not checked["other"]
    attempted, failed, errors = rec.attempted, rec.failed, dict(rec.errors)
    rig = None
    gc.collect()

    # Pass 3: Python calls per layer under cProfile.
    rig, _ = build(workload, seed)
    rig.rec.on = True
    _, layer_calls = profile_calls(lambda: run_windows(rig, trace_windows))
    if rig.rec.ios != plain_ios:
        raise RuntimeError("the profiled pass simulated different work")
    rig.stop_background()
    rig = None

    ios = frozen.ios
    metrics: Dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls_per_io"] = _ratio(layer_calls[layer], ios)
        metrics[f"{layer}.self_us_per_io"] = _ratio(self_s[index], ios) * 1e6
    metrics.update(layer_metrics(tracer, probe, frozen, counts, calls))
    metrics["core.leaked_valid_bits"] = float(checked["leaked_valid_bits"])
    metrics["bench.trace_overhead_frac"] = _ratio(traced_s, plain_s) - 1.0
    metrics["bench.failed_op_frac"] = _ratio(failed, attempted)
    metrics.update(op_metrics(frozen))
    ordered = {name: metrics.pop(name) for name, _unit, _better
               in catalog.per_layer()}
    if metrics:
        raise RuntimeError(f"metrics missing from the catalog: {sorted(metrics)}")
    return {
        "metrics": ordered,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": correct,
        "fsck_other": checked["other"],
        "self_time_gap": gap,
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "spans": tracer.span_count(),
        "spans_dropped": tracer.spans_dropped,
    }


def layer_metrics(tracer: Tracer, probe: LayerProbe, frozen: Tally,
                  counts: Dict[str, Any], calls: Dict[str, int]
                  ) -> Dict[str, float]:
    """The layer-specific metrics of one traced window."""
    ios = frozen.ios
    kio = ios / 1000.0
    elapsed_ns = counts["now"]
    runs = counts["cleaner_runs"]
    cleaned = counts["cleaned"]
    appends = tracer.span_sim_ns("Log.append")
    faults = sum(tracer.span_sim_ns("MapCache.fault_proc"))
    cleaning = sum(tracer.span_sim_ns("SegmentCleaner.clean_segment"))
    lookups = counts["map_hits"] + counts["map_misses"]
    reports = counts["activation_reports"]
    scanned = sum(report["pages_scanned"] for report in reports)
    skipped = sum(report["segments_skipped"] for report in reports)
    scanned_segments = scanned / counts["segment_pages"]
    activation_ns = sum(frozen.activation_ns)
    residue_lookups = counts["residue_hits"] + counts["residue_misses"]
    acquires = calls.get("Resource.acquire", 0) + probe.try_granted
    return {
        "sim.spawns_per_io": _ratio(calls.get("Kernel.spawn", 0), ios),
        "sim.acquires_per_io": _ratio(acquires, ios),
        "sim.acquire_wait_us": _ratio(probe.park_wait_ns,
                                      probe.granted_after_park) / 1e3,
        "nand.programs_per_io": _ratio(counts["programs"], ios),
        "nand.page_reads_per_io": _ratio(counts["page_reads"], ios),
        "nand.header_reads_per_io": _ratio(counts["header_reads"], ios),
        "nand.erases_per_io": _ratio(counts["erases"], ios),
        "nand.queue_wait_us": _ratio(probe.queue_wait_ns,
                                     probe.queue_waits) / 1e3,
        "nand.die_busy_frac": _ratio(counts["die_busy_ns"],
                                     counts["die_capacity"] * elapsed_ns),
        "ftl.log.appends_per_io": _ratio(len(appends), ios),
        "ftl.log.append_wait_us": _ratio(sum(appends), len(appends)) / 1e3,
        "ftl.cleaner.segments_per_kio": _ratio(cleaned, kio),
        "ftl.cleaner.copies_per_segment": _ratio(counts["moved"], cleaned),
        "ftl.cleaner.stillborn_frac": _ratio(
            sum(1 for moved in runs if moved == 0), len(runs)),
        "ftl.cleaner.busy_frac": _ratio(
            cleaning, counts["cleaner_workers"] * elapsed_ns),
        "ftl.map.hit_rate": _ratio(counts["map_hits"], lookups),
        "ftl.map.faults_per_io": _ratio(counts["map_misses"], ios),
        "ftl.map.evictions_per_io": _ratio(counts["evictions"], ios),
        "ftl.map.writebacks_per_io": _ratio(counts["writebacks"], ios),
        "ftl.map.fault_wait_us": _ratio(faults, counts["map_misses"]) / 1e3,
        "ftl.vsl.quiesce_hold_us": _ratio(probe.quiesce_hold_ns,
                                          probe.quiesces) / 1e3,
        "ftl.vsl.readahead_hit_rate": _ratio(counts["readahead_hits"],
                                             counts["reads"]),
        "core.cow_copies_per_kio": _ratio(counts["cow_copies"], kio),
        "core.live_epochs_mean": (statistics.fmean(frozen.epoch_samples)
                                  if frozen.epoch_samples else 0.0),
        "core.activation.pages_scanned": _ratio(scanned, len(reports)),
        "core.activation.segments_skipped_frac": _ratio(
            skipped, skipped + scanned_segments),
        "core.activation.residue_hit_rate": _ratio(counts["residue_hits"],
                                                   residue_lookups),
        "core.activation.limiter_sleep_frac": _ratio(frozen.limiter_sleep_ns,
                                                     activation_ns),
        "replicate.records_per_send": _ratio(frozen.send_records,
                                             frozen.sends),
        "replicate.blocks_per_send": _ratio(frozen.send_blocks, frozen.sends),
    }


def spans_file(workload: str, seed: int) -> str:
    return os.path.join(".perfbench-out", f"spans-{workload}-{seed}.tsv.gz")

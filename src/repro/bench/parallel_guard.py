"""Saturation benchmark for the parallel log heads (PR 6).

Sweeps the channel count (1/2/4/8) over a fixed 8-die array and
measures foreground write throughput in *simulated* time.  With one
channel there is a single append head, so every program serializes
behind the same die's ~200 us busy window; with N channels the device
runs N die-affine heads whose submission queues overlap programs
across dies, so throughput should scale until the die pool saturates.

The guard is the CI regression floor for the multi-queue data path:
4 channels must deliver at least ``SPEEDUP_FLOORS[4]`` (3x) the
single-channel throughput, and the per-head append totals must stay
balanced (no head starved by the striped allocator).
"""

from __future__ import annotations

import time
from typing import Dict

from repro.bench.configs import bench_iosnap_config, bench_nand
from repro.bench.harness import ExperimentResult, Table
from repro.core.iosnap import IoSnapDevice
from repro.nand.geometry import NandGeometry
from repro.sim import Kernel
from repro.sim.stats import NS_PER_SEC
from repro.workloads import random_writes
from repro.workloads.generators import Op
from repro.workloads.runner import gather, io_stream

CHANNELS = (1, 2, 4, 8)

# Concurrent closed-loop jobs (fio-style): enough in-flight writes to
# keep every head's queue fed at the widest sweep point.
NUM_JOBS = 8

# Required throughput ratios vs the single-channel baseline (simulated
# time).  The 4-channel floor is the PR's acceptance criterion; the
# others are set well below ideal scaling so only a real serialization
# regression trips them, not timing-model drift.
SPEEDUP_FLOORS = {2: 1.5, 4: 3.0, 8: 4.0}

# Per-head append totals must stay within this min/max ratio: the
# striped allocator and lba%heads routing should keep every head busy.
BALANCE_FLOOR = 0.5


def _build_device(channels: int):
    kernel = Kernel()
    geometry = NandGeometry(page_size=4096, pages_per_block=32,
                            blocks_per_die=32, dies=8, channels=channels)
    # parallel_heads=0 overrides the bench default (the figure configs
    # pin one head): auto = one head per channel, the device default.
    device = IoSnapDevice.create(kernel, bench_nand(geometry),
                                 bench_iosnap_config(parallel_heads=0))
    return kernel, device


def _measure(channels: int, pages: int) -> Dict:
    kernel, device = _build_device(channels)
    per_job = pages // NUM_JOBS
    span = min(device.num_lbas, pages) // NUM_JOBS
    wall = time.perf_counter()
    started_ns = kernel.now
    # Disjoint LBA windows per job: concurrency comes from the jobs,
    # not from racing writes to the same block.
    streams = []
    for job in range(NUM_JOBS):
        ops = (Op(op.kind, op.lba + job * span)
               for op in random_writes(per_job, span, seed=61 + job))
        streams.append(io_stream(kernel, device, ops))
    gather(kernel, streams)
    elapsed_ns = kernel.now - started_ns
    parallel = device.parallel_info()
    per_head = [parallel["per_head_appends"].get(h, 0)
                for h in device.log.user_head_names()]
    nbytes = pages * device.block_size
    return {
        "channels": channels,
        "user_heads": device.log.user_head_count,
        "pages": pages,
        "sim_ns": elapsed_ns,
        "throughput_mb_s": (nbytes / 1e6) / (elapsed_ns / NS_PER_SEC),
        "stripe_balance": parallel["stripe_balance"],
        "per_head_appends": per_head,
        "queue_depth_max": parallel["queues"]["depth_max"],
        "wall_s": time.perf_counter() - wall,
    }


def run(smoke: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "parallel_guard", "Parallel log heads: write throughput vs channels"
        + (" (smoke)" if smoke else ""))
    pages = 1024 if smoke else 8192
    rows = {c: _measure(c, pages) for c in CHANNELS}
    base = rows[1]["throughput_mb_s"]
    speedups = {c: rows[c]["throughput_mb_s"] / base for c in CHANNELS}

    table = Table(["channels", "user heads", "MB/s", "speedup", "floor",
                   "balance"])
    for c in CHANNELS:
        floor = SPEEDUP_FLOORS.get(c)
        table.add_row(c, rows[c]["user_heads"],
                      f"{rows[c]['throughput_mb_s']:.1f}",
                      f"{speedups[c]:.2f}x", f"{floor}x" if floor else "-",
                      f"{rows[c]['stripe_balance']:.2f}")
    result.add_table(table)
    for c in CHANNELS:
        result.add_line(f"{c} ch  per-head appends "
                        f"{rows[c]['per_head_appends']}, max queue depth "
                        f"per die {rows[c]['queue_depth_max']}")

    for c, floor in SPEEDUP_FLOORS.items():
        result.check(f"{c}-channel speedup >= {floor}x",
                     speedups[c] >= floor, f"{speedups[c]:.2f}x")
    for c in CHANNELS:
        if rows[c]["user_heads"] > 1:
            balance = rows[c]["stripe_balance"]
            result.check(f"{c}-channel head balance >= {BALANCE_FLOOR}",
                         balance >= BALANCE_FLOOR, f"{balance:.2f}")
    result.check("one user head per channel",
                 all(rows[c]["user_heads"] == c for c in CHANNELS),
                 "heads " + "/".join(str(rows[c]["user_heads"])
                                     for c in CHANNELS))
    result.data.update(
        smoke=smoke,
        workload={"pages": pages, "pattern": "random_writes", "seed": 61},
        rows=rows, speedups=speedups)
    return result

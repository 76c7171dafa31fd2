"""Tests of the benchmark itself: oracle, audit, determinism, tracing.

Run from the repository root::

    python3 -m pytest perfbench -q

The traced-run tests start ``run.py`` as a subprocess once per
workload (about a minute in all) and share the results.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import loadgen  # noqa: E402
from audit import audit  # noqa: E402
from oracle import VersionOracle, payload  # noqa: E402
from tracer import LAYER_FILES, LAYERS, layer_of_file  # noqa: E402

RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("snap_churn", "map_pressure", "snap_history")


def run_bench(workload: str, seed: int, trace: int, cwd: str,
              seconds: float = 1) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------
def _write(oracle: VersionOracle, lba: int) -> int:
    version = oracle.begin_write(lba)
    oracle.end_write(lba, version)
    return version


def test_oracle_accepts_latest_and_rejects_stale():
    oracle = VersionOracle()
    first = _write(oracle, 7)
    second = _write(oracle, 7)
    issued = oracle.candidates(7)
    assert oracle.check_read(7, issued, payload(7, second))
    assert not oracle.check_read(7, issued, payload(7, first))
    assert not oracle.check_read(7, issued, bytes(16))
    assert oracle.mismatches == 2


def test_oracle_allows_either_of_overlapping_writes():
    oracle = VersionOracle()
    a = oracle.begin_write(3)
    b = oracle.begin_write(3)
    oracle.end_write(3, b)
    oracle.end_write(3, a)
    issued = oracle.candidates(3)
    assert oracle.check_read(3, issued, payload(3, a))
    assert oracle.check_read(3, issued, payload(3, b))


def test_oracle_allows_writes_issued_during_the_read():
    oracle = VersionOracle()
    old = _write(oracle, 5)
    issued = oracle.candidates(5)
    new = oracle.begin_write(5)
    assert oracle.check_read(5, issued, payload(5, new))
    assert oracle.check_read(5, issued, payload(5, old))


def test_oracle_rejects_another_lbas_payload():
    oracle = VersionOracle()
    version = _write(oracle, 1)
    _write(oracle, 2)
    assert not oracle.check_read(2, oracle.candidates(2), payload(1, version))


def test_snapshot_image_is_frozen_at_capture():
    oracle = VersionOracle()
    before = _write(oracle, 9)
    image = oracle.capture()
    after = _write(oracle, 9)
    assert oracle.check_snapshot_read(image, 9, payload(9, before))
    assert not oracle.check_snapshot_read(image, 9, payload(9, after))
    assert oracle.check_snapshot_read(image, 10, bytes(16))


def test_stale_reads_register_as_failures():
    """A device that keeps serving the first value it returned for each
    LBA (forgets overwrites) must fail the run."""
    rig = loadgen.SnapChurn(seed=1)
    rig.setup()
    device = rig.device
    read_proc = device.read_proc
    remembered: dict = {}

    def stale(lba):
        data = yield from read_proc(lba)
        return remembered.setdefault(lba, data)

    device.read_proc = stale
    rig.rec.on = True
    rig.window(4000)
    assert rig.oracle.mismatches > 0
    assert rig.rec.failed >= rig.oracle.mismatches


def test_honest_device_passes_the_oracle():
    rig = loadgen.SnapChurn(seed=1)
    rig.setup()
    rig.rec.on = True
    rig.window(4000)
    assert rig.oracle.reads_checked > 1000
    assert rig.oracle.mismatches == 0 and rig.rec.failed == 0


# ---------------------------------------------------------------------------
# The end-of-run audit
# ---------------------------------------------------------------------------
def test_audit_counts_an_extra_active_bit_as_leaked():
    rig = loadgen.SnapChurn(seed=2)
    rig.setup()
    rig.stop_background()
    device = rig.device
    assert audit(device)["other"] == []
    baseline = audit(device)["leaked_valid_bits"]
    mapped = {ppn for _lba, ppn in device.map.items()}
    stale = next(ppn for ppn in range(device.nand.geometry.total_pages)
                 if device.nand.array.is_programmed(ppn) and ppn not in mapped
                 and not device.active_bitmap.test(ppn))
    device.active_bitmap.set(stale)
    result = audit(device)
    assert result["leaked_valid_bits"] == baseline + 1
    assert result["other"] == []


def test_audit_counts_a_stale_copy_kept_valid_in_a_snapshot():
    """The shape of the relocation leak: a snapshot's bitmap marks an
    older copy of an LBA that the snapshot does not reference."""
    from repro.ftl.fsck import _fold_path, _scan_media

    rig = loadgen.SnapChurn(seed=3)
    rig.setup()
    rig.stop_background()
    device = rig.device
    baseline = audit(device)
    assert baseline["other"] == []
    snap = device.snapshots()[-1]
    path = frozenset(device.tree.path_epochs(snap.epoch))
    packets = _scan_media(device)
    truth = _fold_path(packets, path)
    bitmap = dict(device.live_epoch_bitmaps())[snap.epoch]
    stale = next(ppn for ppn, header in packets
                 if header.epoch in path and header.lba in truth
                 and truth[header.lba] != ppn and not bitmap.test(ppn))
    bitmap.set_privileged(stale)  # lint: allow-cow-private(plants the relocation leak's shape)
    result = audit(device)
    assert result["leaked_valid_bits"] > baseline["leaked_valid_bits"]
    assert result["other"] == []


# ---------------------------------------------------------------------------
# The metric catalog and BENCHMARK.json
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(loadgen.RIGS) == set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == catalog.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == catalog.per_layer()
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_every_layer_file_exists():
    for layer in LAYERS:
        for rel in LAYER_FILES[layer]:
            assert os.path.exists(os.path.join(ROOT, "src", "repro", rel)), rel
    src = os.path.join(ROOT, "src", "repro")
    assert layer_of_file(os.path.join(src, "ftl", "mapcache.py")) == "ftl.map"
    assert layer_of_file(os.path.join(src, "replicate", "send.py")) == \
        "replicate"
    assert layer_of_file(os.path.join(src, "errors.py")) is None
    assert layer_of_file(RUN) == "bench"


# ---------------------------------------------------------------------------
# Runs of the command itself
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    cwd = str(tmp_path_factory.mktemp("traced"))
    return {workload: run_bench(workload, 1, 1, cwd)
            for workload in WORKLOADS}


def test_traced_runs_report_every_per_layer_metric(traced):
    names = [name for name, _unit, _better in catalog.per_layer()]
    for workload, result in traced.items():
        assert list(result["metrics"]) == names, workload
        assert result["correct"], workload
        assert result["failed"] == 0, workload


def test_traced_runs_show_the_predicted_split(traced):
    churn = values(traced["snap_churn"])
    pressure = values(traced["map_pressure"])
    history = values(traced["snap_history"])
    assert churn["ftl.cleaner.segments_per_kio"] > 0
    assert churn["ftl.map.faults_per_io"] == 0
    assert pressure["ftl.map.faults_per_io"] > 0
    assert pressure["ftl.cleaner.segments_per_kio"] == 0
    # The residue cache's relocation hooks run on every cleaner move, so
    # core.activation *calls* show up on snap_churn; everything the
    # activation and replication paths measure stays at zero there.
    exempt = {"core.activation.calls_per_io"}
    for name, value in history.items():
        if name.startswith(("core.activation.", "replicate.")):
            assert value > 0 or name.endswith("residue_hit_rate"), name
            for other in (churn, pressure):
                if name not in exempt:
                    assert other[name] == 0, name


def test_traced_self_times_cover_the_traced_run(traced):
    # The traced pass itself raises when the layers' self times miss the
    # measured host time by more than 1%; here: the root layers report.
    for workload, result in traced.items():
        metrics = values(result)
        assert metrics["sim.self_us_per_io"] > 0, workload
        assert metrics["bench.self_us_per_io"] > 0, workload
        assert metrics["bench.trace_overhead_frac"] > -0.5, workload


def test_same_seed_gives_identical_counts(traced, tmp_path):
    again = values(run_bench("snap_history", 1, 1, str(tmp_path)))
    first = values(traced["snap_history"])
    deterministic = [name for name in first
                     if name.endswith(("calls_per_io", "_per_kio"))
                     or name.startswith("nand.") and name.endswith("s_per_io")
                     and "self_us" not in name
                     or name in ("core.activation.activation_p50_ms",
                                 "replicate.send_p50_ms",
                                 "core.snap_create_p90_us",
                                 "ftl.log.append_wait_us")]
    assert deterministic
    for name in deterministic:
        assert again[name] == first[name], name


@pytest.mark.parametrize("workload", ["snap_history", "map_pressure"])
def test_same_seed_gives_identical_sim_metrics(workload, tmp_path):
    first = values(run_bench(workload, 4, 0, str(tmp_path)))
    second = values(run_bench(workload, 4, 0, str(tmp_path)))
    for name in ("sim_mb_s", "sim_write_mean_us", "sim_write_p99_us",
                 "sim_read_mean_us", "sim_read_p99_us", "write_amp"):
        assert first[name] == second[name], name
        assert first[name] > 0, name


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snap_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout

"""Tests for the ``python -m repro.bench`` experiment runner."""

import pytest

from repro.bench.__main__ import main
from repro.cli import EXIT_FAILURES, EXIT_OK


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "table2" in out
    assert "fig12" in out
    assert "ablation_destage" in out


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-experiment"])


def test_run_one_experiment(capsys, tmp_path, monkeypatch):
    import repro.bench.harness as harness
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    assert main(["create_delete"]) == 0
    out = capsys.readouterr().out
    assert "create_delete_latency" in out
    assert "all 1 experiment(s) passed" in out
    assert (tmp_path / "create_delete_latency.txt").exists()


def test_no_save_writes_nothing(capsys, tmp_path, monkeypatch):
    import repro.bench.harness as harness
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    assert main(["create_delete", "--no-save"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_list_shows_guards(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("perfguard", "activation_guard", "parallel_guard",
                 "races_guard", "replicate_guard", "mapcache_guard"):
        assert name in out


def test_smoke_guard_run_saves_result(capsys, tmp_path, monkeypatch):
    import repro.bench.harness as harness
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    assert main(["--smoke", "activation_guard"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] warm delta speedup" in out
    assert (tmp_path / "activation_guard.txt").exists()


def test_broken_guard_floor_fails_the_run(capsys, tmp_path, monkeypatch):
    import repro.bench.activation_guard as activation_guard
    import repro.bench.harness as harness
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(activation_guard, "WARM_SPEEDUP_FLOOR",
                        float("inf"))
    assert main(["--smoke", "activation_guard"]) == EXIT_FAILURES
    out = capsys.readouterr().out
    assert "[FAIL] warm delta speedup >= infx" in out
    assert "[FAIL] cold selective" not in out

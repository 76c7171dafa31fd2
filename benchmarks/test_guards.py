"""Benchmark: the fast-path regression guards, CI-sized.

Each guard in :data:`repro.bench.GUARDS` pins one fast path behind the
paper's figures — the word-level bitmap engine, selective-scan and warm
activation, parallel log heads, disabled race instrumentation,
incremental send and the bounded map cache — as named checks on an
``ExperimentResult``.  A regression that silently falls back to the
slow path (per-bit work, whole-log scans, serialized heads, a full
send) fails here by check name before it shows up in a figure's shape.
"""

import pytest

from repro.bench import GUARDS


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_floors_hold(benchmark, name):
    result = benchmark.pedantic(GUARDS[name], kwargs={"smoke": True},
                                rounds=1, iterations=1)
    print()
    print(result.render())
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())

"""Overhead guard for the race-detector instrumentation (PR 8).

The data path (``ftl/log.py``, ``ftl/vsl.py``, ``core/iosnap.py``) now
carries ``if races.enabled: races.note(...)`` guards at every shared-
state access.  With ``REPRO_RACES`` unset — the default — each guard
is one module-attribute load and a branch, and this module proves that
stays in the noise:

- runs the fig12 sustained-bandwidth experiment with the runtime
  disabled (the shipped default) and takes the best-of-N wall clock;
- re-runs it once with ``races.note`` swapped for a bare counter to
  learn exactly how many guard sites a fig12 run evaluates;
- times the disabled guard pattern in a tight loop to price one check;
- asserts ``site_count * per_check`` — a deliberate *over*-estimate,
  since the loop overhead is charged to the check — is under
  ``OVERHEAD_CEILING`` (5%) of the disabled run.

An informational enabled-vs-disabled ratio (full detector attached) is
recorded too, but not asserted: arming the detector is opt-in and its
cost is allowed to be what it is.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.bench.experiments_baseline import exp_fig12
from repro.bench.harness import ExperimentResult
from repro.races import runtime

# Hard ceiling on the estimated disabled-path overhead as a fraction
# of the fig12 wall clock.  The estimate is conservative (loop
# overhead is charged to the guard check), so tripping this means the
# default path genuinely regressed — e.g. someone moved real work
# outside the ``if races.enabled`` guard.
OVERHEAD_CEILING = 0.05

# Iterations for pricing one disabled guard evaluation.
_PRICE_LOOP = 200_000

# Disabled fig12 runs; the best one is the overhead denominator.
ROUNDS = 3

FULL_SIZES = {"preload_pages": 6000, "writes": 6000, "snapshots": 12}
SMOKE_SIZES = {"preload_pages": 1500, "writes": 1500, "snapshots": 6}


def _wall(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _price_disabled_check() -> float:
    """Seconds per ``if runtime.enabled: ...`` evaluation (upper bound)."""
    assert not runtime.enabled
    start = time.perf_counter()
    for _ in range(_PRICE_LOOP):
        if runtime.enabled:      # pragma: no cover - enabled is False
            raise AssertionError
    return (time.perf_counter() - start) / _PRICE_LOOP


def _count_guard_sites(sizes: Dict[str, int]) -> int:
    """Run fig12 once with ``note`` replaced by a counter."""
    hits = 0

    def counting_note(kernel, key, access):
        nonlocal hits
        hits += 1

    original = runtime.note
    previous = runtime.enable(True)
    try:
        runtime.note = counting_note
        exp_fig12(**sizes)
    finally:
        runtime.note = original
        runtime.enable(previous)
    return hits


def run(smoke: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "races_guard", "Disabled race-instrumentation overhead on fig12"
        + (" (smoke)" if smoke else ""))
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    previous = runtime.enable(False)
    try:
        disabled_runs = [_wall(lambda: exp_fig12(**sizes))
                         for _ in range(ROUNDS)]
        per_check_s = _price_disabled_check()
    finally:
        runtime.enable(previous)

    guard_sites = _count_guard_sites(sizes)

    # Informational: the opt-in cost of the real detector.
    previous = runtime.enable(True)
    try:
        enabled_s = _wall(lambda: exp_fig12(**sizes))
    finally:
        runtime.enable(previous)

    disabled_s = min(disabled_runs)
    overhead_est_s = guard_sites * per_check_s
    overhead_ratio = overhead_est_s / disabled_s if disabled_s else 0.0
    enabled_ratio = enabled_s / disabled_s if disabled_s else 0.0
    result.add_line(f"fig12 disabled: {disabled_s:.3f}s (best of {ROUNDS})")
    result.add_line(f"guard sites evaluated: {guard_sites} "
                    f"@ {per_check_s * 1e9:.1f} ns/check")
    result.add_line(f"detector armed (informational): {enabled_s:.3f}s, "
                    f"{enabled_ratio:.2f}x disabled")
    result.check("fig12 evaluates race guard sites", guard_sites > 0,
                 f"{guard_sites} sites")
    result.check(f"estimated disabled-path overhead < "
                 f"{OVERHEAD_CEILING:.0%} of fig12",
                 overhead_ratio < OVERHEAD_CEILING,
                 f"{overhead_ratio * 100:.3f}%")
    result.data.update(
        smoke=smoke, sizes=sizes, disabled_runs_s=disabled_runs,
        disabled_s=disabled_s, guard_sites=guard_sites,
        per_check_ns=per_check_s * 1e9, overhead_est_s=overhead_est_s,
        overhead_ratio=overhead_ratio, enabled_s=enabled_s,
        enabled_over_disabled=enabled_ratio)
    return result

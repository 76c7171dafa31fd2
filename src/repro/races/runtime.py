"""Runtime arming of the race detector (``REPRO_RACES=1``).

Mirrors :mod:`repro.sanitize`: a module-level ``enabled`` flag read
from the environment, flippable for tests via :func:`enable`.  The
instrumented accessors in the FTL gate on it with a single predicate
test::

    from repro.races import runtime as races
    ...
    if races.enabled:
        races.note(self.kernel, "log.head:" + head, "w")

When disarmed (the default) the hooks cost one module-attribute test
per instrumented site and one identity check per kernel scheduling
slow path — the perfguard asserts this stays under 5% on the fig12
workload.  When armed, :func:`note` lazily attaches a
:class:`~repro.races.detector.RaceDetector` to the calling kernel (as
its ``_race_hooks``), so a plain ``REPRO_RACES=1 pytest`` run gets
strict raise-on-race detection with no per-test setup.  The explorer
attaches its own non-strict detector up front instead.
"""

from __future__ import annotations

import os
from typing import Any

from repro.races.detector import RaceDetector

_FALSEY = ("", "0", "false", "no", "off")

#: True when the lockset race detector is armed.
enabled: bool = os.environ.get("REPRO_RACES", "").lower() not in _FALSEY


def enable(flag: bool = True) -> bool:
    """Arm (or disarm) race detection; returns the previous state."""
    global enabled
    previous = enabled
    enabled = flag
    return previous


def attach(kernel: Any, strict: bool = True) -> RaceDetector:
    """Attach a fresh detector to ``kernel`` and return it.

    Locks acquired *before* attach (lazy arming happens at the first
    instrumented access, which typically sits inside a lock span) are
    reconstructed from the resources' holder counts so the first note
    sees a truthful lockset (a unit held twice is released twice).
    """
    detector = RaceDetector(kernel, strict=strict)
    for resource in kernel._resources:
        for holder, units in resource._holders.items():
            for _ in range(units):
                detector.on_acquire(resource, holder)
    kernel._race_hooks = detector
    return detector


def detach(kernel: Any) -> None:
    kernel._race_hooks = None


def note(kernel: Any, key: str, kind: str = "w") -> None:
    """Record an access to registered shared state on ``kernel``.

    Call sites gate on :data:`enabled` themselves (so the disarmed
    cost is one predicate), but this re-checks for safety.
    """
    if not enabled:
        return
    detector = kernel._race_hooks
    if detector is None:
        detector = attach(kernel)
    detector.note(key, kind)

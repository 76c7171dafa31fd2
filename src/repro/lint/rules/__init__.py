"""Rule registry.

Each rule module exposes a ``Rule`` subclass instance; the CLI and the
engine consume the ordered :data:`ALL_RULES` list.  Adding a rule means
adding a module here plus a pragma name in :mod:`repro.lint.pragmas`
and a catalog entry in ``docs/lint.md``.
"""

from __future__ import annotations

from typing import List

from repro.lint.rules.base import Rule
from repro.lint.rules.broad_except import BroadExceptRule
from repro.lint.rules.cow_discipline import CowDisciplineRule
from repro.lint.rules.crash_sites import CrashSiteRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.epoch_hygiene import EpochHygieneRule
from repro.lint.rules.handler_acquire import HandlerAcquireRule
from repro.lint.rules.lock_order import LockOrderRule
from repro.lint.rules.media_discipline import MediaDisciplineRule
from repro.lint.rules.resource_pairing import ResourcePairingRule
from repro.lint.rules.yield_discipline import YieldDisciplineRule

ALL_RULES: List[Rule] = [
    CrashSiteRule(),
    BroadExceptRule(),
    DeterminismRule(),
    CowDisciplineRule(),
    EpochHygieneRule(),
    ResourcePairingRule(),
    MediaDisciplineRule(),
    LockOrderRule(),
    YieldDisciplineRule(),
    HandlerAcquireRule(),
]


"""Version oracle for the benchmark's foreground and snapshot reads.

Every write carries an ``(lba, version)`` payload, versions drawn from
one counter so they grow with issue order.  With several closed-loop
clients sharing LBAs, two writes to one LBA can overlap, and either may
be the one the device keeps.  The oracle therefore tracks, per LBA, the
set of versions the device may legitimately return:

- a completed write ``u`` leaves ``{u}`` plus every write to that LBA
  that completed after ``u`` was issued (it may have taken effect after
  ``u``), plus every write still in flight;
- a read passes if it returns a version in that set as of the read's
  issue, or one issued to that LBA while the read was outstanding.

Anything else -- a version that a later, non-overlapping write had
already replaced, a payload for another LBA, or zeros for an LBA that
holds data -- is a stale or wrong read and counts as a failure.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

_PAYLOAD = struct.Struct("<QQ")


def payload(lba: int, version: int) -> bytes:
    """The bytes a write of ``version`` to ``lba`` carries."""
    return _PAYLOAD.pack(lba, version)


def decode(data: bytes) -> Tuple[int, int]:
    """``(lba, version)`` of a block read back; zeros decode to (0, 0)."""
    return _PAYLOAD.unpack_from(data)


class VersionOracle:
    """Per-LBA sets of versions a read may return (see module doc)."""

    def __init__(self) -> None:
        self._next_version = 0
        # Logical clock: orders issue/complete events exactly, including
        # events that share a simulated timestamp.
        self._tick = 0
        # lba -> [(version, issue_tick, complete_tick)] that may be current.
        self._possible: Dict[int, List[Tuple[int, int, int]]] = {}
        # lba -> {version: issue_tick} for writes not yet completed.
        self._inflight: Dict[int, Dict[int, int]] = {}
        self._max_issued: Dict[int, int] = {}
        self.reads_checked = 0
        self.mismatches = 0

    # -- writes ----------------------------------------------------------
    def begin_write(self, lba: int) -> int:
        self._next_version += 1
        version = self._next_version
        self._tick += 1
        self._inflight.setdefault(lba, {})[version] = self._tick
        self._max_issued[lba] = version
        return version

    def end_write(self, lba: int, version: int) -> None:
        self._tick += 1
        issued = self._inflight[lba].pop(version)
        survivors = [entry for entry in self._possible.get(lba, ())
                     if entry[2] > issued]
        survivors.append((version, issued, self._tick))
        self._possible[lba] = survivors

    # -- reads -----------------------------------------------------------
    def candidates(self, lba: int) -> Tuple[frozenset, int]:
        """What a read issued now may return: the allowed versions and
        the highest version issued so far (later ones are also allowed).
        """
        self._tick += 1
        possible = self._possible.get(lba)
        allowed = {entry[0] for entry in possible} if possible else {0}
        inflight = self._inflight.get(lba)
        if inflight:
            allowed.update(inflight)
        return frozenset(allowed), self._max_issued.get(lba, 0)

    def check_read(self, lba: int, issued: Tuple[frozenset, int],
                   data: bytes) -> bool:
        """Judge one read; ``issued`` is :meth:`candidates` at issue."""
        allowed, high_at_issue = issued
        got_lba, version = decode(data)
        ok = (version in allowed
              or high_at_issue < version <= self._max_issued.get(lba, 0))
        if version and got_lba != lba:
            ok = False
        self.reads_checked += 1
        if not ok:
            self.mismatches += 1
        return ok

    # -- snapshots -------------------------------------------------------
    def capture(self) -> Dict[int, frozenset]:
        """Copy of the model at a snapshot: the versions each LBA may
        hold in it (completed candidates plus writes still in flight)."""
        image: Dict[int, frozenset] = {}
        for lba, possible in self._possible.items():
            allowed = {entry[0] for entry in possible}
            inflight = self._inflight.get(lba)
            if inflight:
                allowed.update(inflight)
            image[lba] = frozenset(allowed)
        for lba, inflight in self._inflight.items():
            if inflight and lba not in image:
                image[lba] = frozenset(inflight) | {0}
        return image

    def check_snapshot_read(self, image: Dict[int, frozenset], lba: int,
                            data: bytes) -> bool:
        """Judge a read through an activated snapshot against ``image``."""
        got_lba, version = decode(data)
        ok = version in image.get(lba, frozenset((0,)))
        if version and got_lba != lba:
            ok = False
        self.reads_checked += 1
        if not ok:
            self.mismatches += 1
        return ok


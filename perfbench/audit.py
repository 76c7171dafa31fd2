"""End-of-run fsck, with extra validity bits counted separately.

``repro.ftl.fsck.fsck`` checks every invariant against the raw media.
Violations of two kinds are dead blocks still marked valid:

- S1 ``active bitmap marks unmapped ppn``: an extra bit in the active
  epoch;
- S2 on a live snapshot: its bitmap marks a copy that is not the
  snapshot's version of that LBA.  fsck's own S2 check compares one
  marked copy per LBA, so it can miss an extra bit on an LBA whose true
  version is marked too; the audit therefore counts every live
  snapshot's bits against the same media fold fsck uses.

These are reported as ``core.leaked_valid_bits``.  Any other violation,
and any snapshot LBA whose version no bit marks, is a real fault and
makes the run incorrect.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ftl.fsck import _fold_path, _scan_media, fsck

_S1_EXTRA = "S1: active bitmap marks unmapped ppn"


def _snapshot_extra_bits(device) -> Tuple[int, List[str]]:
    """Bits in live snapshots' bitmaps that mark no version of theirs."""
    extra = 0
    missing: List[str] = []
    packets = [(ppn, header) for ppn, header in _scan_media(device)
               if not device.damage.ppn_lost(ppn)]
    array = device.nand.array
    total = device.nand.geometry.total_pages
    tree = device.tree
    for snap in tree.snapshots():
        bitmap = dict(device.live_epoch_bitmaps()).get(snap.epoch)
        if bitmap is None:
            continue
        truth = _fold_path(packets, frozenset(tree.path_epochs(snap.epoch)))
        truth_seq: Dict[int, int] = {
            lba: array.read_header(ppn).seq for lba, ppn in truth.items()}
        covered = set()
        for ppn in bitmap.iter_set_in_range(0, total):
            if not array.is_programmed(ppn):
                extra += 1
                continue
            header = array.read_header(ppn)
            if truth_seq.get(header.lba) == header.seq:
                covered.add(header.lba)
            else:
                extra += 1
        for lba in sorted(set(truth) - covered)[:5]:
            missing.append(f"snapshot {snap.name!r} lba {lba}: no bit marks "
                           f"its version")
    return extra, missing


def audit(device) -> Dict[str, object]:
    """fsck ``device``; return leaked-bit count and other violations."""
    violations = fsck(device)
    leaked = sum(1 for line in violations if line.startswith(_S1_EXTRA))
    other = [line for line in violations
             if not line.startswith((_S1_EXTRA, "S2:"))
             or line.endswith("has no bitmap")]
    if device.snapshots():
        extra, missing = _snapshot_extra_bits(device)
        leaked += extra
        other.extend(missing)
    return {"leaked_valid_bits": leaked, "other": other}

"""Deterministic media-fault model (the flash half of the torture rig).

The power-cut model (:mod:`repro.torture.power`) proved the discipline:
an injected failure is identified by a *deterministic occurrence count*,
so a repro file replays bit-for-bit.  This module applies the same
discipline to the other half of flash reality:

* **bit-error accumulation** — every programmed page is seeded with a
  bit-error count derived from wear (P/E cycles) plus deterministic
  per-page jitter; subsequent reads add read-disturb and simulated
  time-in-flight adds retention errors.  :mod:`repro.faults.ecc`
  classifies the resulting count on every read.
* **program-fail / erase-fail verbs** — forced at exact 1-based global
  operation indices by a :class:`FaultPlan`, or periodically by
  configured intervals.
* **grown bad blocks** — a block that fails programs/erases often
  enough is marked bad; every later program/erase on it fails
  immediately, and the FTL must route around it.

No wall clock, no global RNG (lint rule IOL003 covers this package):
randomness is a splitmix64-style hash of ``(seed, ppn, op counter)``,
so the same seed + workload replays the exact same fault sequence.

The model object is *state*, like :class:`repro.nand.chip.NandArray`:
the torture harness transplants it across a simulated power cut so
error accumulation and bad-block history survive reboot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.faults.ecc import EccConfig, EccEngine

_MASK64 = (1 << 64) - 1


def _mix(*values: int) -> int:
    """Deterministic splitmix64-style hash of the given integers."""
    acc = 0x9E3779B97F4A7C15
    for value in values:
        acc = (acc ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 31
    return acc


@dataclass(frozen=True)
class FaultConfig:
    """Shape of the fault processes; all-zero defaults inject nothing.

    ``program_wear_bits``
        Baseline bit errors seeded into every freshly programmed page.
    ``wear_scale_pe``
        Every this-many P/E cycles on the block adds one more seeded
        bit (0 disables wear scaling).
    ``jitter_bits``
        Deterministic per-program jitter: up to this many extra bits,
        hashed from (seed, ppn, program counter).
    ``read_disturb_interval``
        Every this-many reads of a page adds one bit (0 disables).
    ``retention_ns_per_bit``
        One retention bit per this many simulated nanoseconds since
        the page was programmed (0 disables).
    ``program_fail_interval`` / ``erase_fail_interval``
        Every N-th program/erase globally fails (0 disables).
    ``bad_block_program_fails`` / ``bad_block_erase_fails``
        Failures of that verb on one block before it is marked
        grown-bad (erases default to 1: a failed erase condemns the
        block immediately, which keeps retirement deterministic).
    """

    seed: int = 0
    program_wear_bits: int = 0
    wear_scale_pe: int = 0
    jitter_bits: int = 0
    read_disturb_interval: int = 0
    retention_ns_per_bit: int = 0
    program_fail_interval: int = 0
    erase_fail_interval: int = 0
    bad_block_program_fails: int = 2
    bad_block_erase_fails: int = 1
    ecc: EccConfig = field(default_factory=EccConfig)

    def as_dict(self) -> Dict[str, Any]:
        raw = {name: getattr(self, name) for name in (
            "seed", "program_wear_bits", "wear_scale_pe", "jitter_bits",
            "read_disturb_interval", "retention_ns_per_bit",
            "program_fail_interval", "erase_fail_interval",
            "bad_block_program_fails", "bad_block_erase_fails")}
        raw["ecc"] = self.ecc.as_dict()
        return raw

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultConfig":
        kwargs: Dict[str, Any] = {
            key: int(value) for key, value in raw.items() if key != "ecc"}
        if "ecc" in raw:
            kwargs["ecc"] = EccConfig.from_dict(raw["ecc"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A replayable fault schedule: config + forced fault indices.

    The forced indices are 1-based *global* operation counts of the
    matching verb (the N-th program, the N-th erase, the N-th read
    anywhere on the device), mirroring the (site, occurrence) targeting
    of :class:`repro.torture.power.PowerModel`.  JSON round-trip via
    :meth:`as_dict`/:meth:`from_dict` so torture repro files can carry
    the plan alongside the power-cut target.
    """

    config: FaultConfig = field(default_factory=FaultConfig)
    program_fails: Tuple[int, ...] = ()
    erase_fails: Tuple[int, ...] = ()
    uncorrectable_reads: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("program_fails", "erase_fails", "uncorrectable_reads"):
            if any(index < 1 for index in getattr(self, name)):
                raise ValueError(f"{name} indices are 1-based")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.as_dict(),
            "program_fails": list(self.program_fails),
            "erase_fails": list(self.erase_fails),
            "uncorrectable_reads": list(self.uncorrectable_reads),
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultPlan":
        def _indices(key: str) -> Tuple[int, ...]:
            return tuple(int(v) for v in raw.get(key, ()))
        return cls(config=FaultConfig.from_dict(raw.get("config", {})),
                   program_fails=_indices("program_fails"),
                   erase_fails=_indices("erase_fails"),
                   uncorrectable_reads=_indices("uncorrectable_reads"))


# Error-bit count far beyond any ECC reach: a plan-forced uncorrectable
# read must fail the full retry ladder regardless of configuration.
FORCED_UNCORRECTABLE_BITS = 1 << 20


@dataclass(frozen=True)
class ProgramVerdict:
    """Outcome of consulting the model for one page program."""

    failed: bool
    newly_bad: bool = False
    already_bad: bool = False


@dataclass(frozen=True)
class EraseVerdict:
    """Outcome of consulting the model for one block erase."""

    failed: bool
    newly_bad: bool = False
    already_bad: bool = False


class MediaFaultModel:
    """Mutable fault state for one NAND array.

    Like the array itself this object survives a simulated power cut:
    the torture harness transplants it into the reopened device so the
    op counters, per-page error state, and bad-block set carry over.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan or FaultPlan()
        self.config = self.plan.config
        self.ecc = EccEngine(self.config.ecc)
        self._forced_program_fails: FrozenSet[int] = frozenset(
            self.plan.program_fails)
        self._forced_erase_fails: FrozenSet[int] = frozenset(
            self.plan.erase_fails)
        self._forced_uncorrectable: FrozenSet[int] = frozenset(
            self.plan.uncorrectable_reads)
        # Per-page accumulation state, keyed by ppn.
        self._page_bits: Dict[int, int] = {}
        self._page_reads: Dict[int, int] = {}
        self._programmed_at: Dict[int, int] = {}
        # Per-block failure history, keyed by global block index.
        self._block_program_fails: Dict[int, int] = {}
        self._block_erase_fails: Dict[int, int] = {}
        self.bad_blocks: Set[int] = set()
        # 1-based global op counters (the FaultPlan's coordinate system).
        self.programs = 0
        self.erases = 0
        self.reads = 0

    # -- fault verbs ---------------------------------------------------

    def on_program(self, ppn: int, block: int, now: int,
                   erase_count: int) -> ProgramVerdict:
        """Consult the model for a page program; seeds bits on success."""
        self.programs += 1
        if block in self.bad_blocks:
            return ProgramVerdict(failed=True, already_bad=True)
        cfg = self.config
        forced = self.programs in self._forced_program_fails
        scheduled = (cfg.program_fail_interval > 0
                     and self.programs % cfg.program_fail_interval == 0)
        if forced or scheduled:
            fails = self._block_program_fails.get(block, 0) + 1
            self._block_program_fails[block] = fails
            newly_bad = (cfg.bad_block_program_fails > 0
                         and fails >= cfg.bad_block_program_fails)
            if newly_bad:
                self.bad_blocks.add(block)
            return ProgramVerdict(failed=True, newly_bad=newly_bad)
        bits = cfg.program_wear_bits
        if cfg.wear_scale_pe > 0:
            bits += erase_count // cfg.wear_scale_pe
        if cfg.jitter_bits > 0:
            bits += _mix(cfg.seed, ppn, self.programs) % (cfg.jitter_bits + 1)
        self._page_bits[ppn] = bits
        self._programmed_at[ppn] = now
        self._page_reads.pop(ppn, None)
        return ProgramVerdict(failed=False)

    def on_erase(self, block: int, page_range: Iterable[int]) -> EraseVerdict:
        """Consult the model for a block erase; clears page state on
        success (``page_range`` is the block's flat PPN range)."""
        self.erases += 1
        if block in self.bad_blocks:
            return EraseVerdict(failed=True, already_bad=True)
        cfg = self.config
        forced = self.erases in self._forced_erase_fails
        scheduled = (cfg.erase_fail_interval > 0
                     and self.erases % cfg.erase_fail_interval == 0)
        if forced or scheduled:
            fails = self._block_erase_fails.get(block, 0) + 1
            self._block_erase_fails[block] = fails
            newly_bad = (cfg.bad_block_erase_fails > 0
                         and fails >= cfg.bad_block_erase_fails)
            if newly_bad:
                self.bad_blocks.add(block)
            return EraseVerdict(failed=True, newly_bad=newly_bad)
        for ppn in page_range:
            self._page_bits.pop(ppn, None)
            self._page_reads.pop(ppn, None)
            self._programmed_at.pop(ppn, None)
        return EraseVerdict(failed=False)

    def read_bits(self, ppn: int, now: int) -> int:
        """Bit errors for one read of ``ppn`` *now*.  Mutating: counts
        the read (read disturb) and the global read op index."""
        self.reads += 1
        if self.reads in self._forced_uncorrectable:
            return FORCED_UNCORRECTABLE_BITS
        reads = self._page_reads.get(ppn, 0) + 1
        self._page_reads[ppn] = reads
        return self._bits_at(ppn, now, reads)

    def peek_bits(self, ppn: int, now: int) -> int:
        """Non-mutating estimate of ``ppn``'s current bit errors.

        Used by the scrubber's patrol decision and by fsck's lost-page
        filter: no read-disturb is added and no op index is consumed.
        """
        return self._bits_at(ppn, now, self._page_reads.get(ppn, 0))

    def _bits_at(self, ppn: int, now: int, reads: int) -> int:
        base = self._page_bits.get(ppn)
        if base is None:
            return 0
        cfg = self.config
        bits = base
        if cfg.read_disturb_interval > 0:
            bits += reads // cfg.read_disturb_interval
        if cfg.retention_ns_per_bit > 0:
            bits += (now - self._programmed_at.get(ppn, now)) \
                // cfg.retention_ns_per_bit
        return bits

    # -- bad-block bookkeeping -----------------------------------------

    def is_bad(self, block: int) -> bool:
        return block in self.bad_blocks

    # -- replay verification -------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {"programs": self.programs, "erases": self.erases,
                "reads": self.reads, "bad_blocks": len(self.bad_blocks)}

    def state_digest(self) -> str:
        """Stable digest of the full mutable state, for determinism
        checks: two runs of the same seed + workload must match."""
        import hashlib
        import json
        payload = {
            "page_bits": sorted(self._page_bits.items()),
            "page_reads": sorted(self._page_reads.items()),
            "programmed_at": sorted(self._programmed_at.items()),
            "block_program_fails": sorted(self._block_program_fails.items()),
            "block_erase_fails": sorted(self._block_erase_fails.items()),
            "bad_blocks": sorted(self.bad_blocks),
            "ops": [self.programs, self.erases, self.reads],
        }
        blob = json.dumps(payload, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

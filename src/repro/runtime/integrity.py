"""End-to-end data integrity for streamed offloads.

Every announced fault in the model is self-detecting: the operation
visibly fails and the recovery ladder fires.  Real deployments are
dominated instead by *silent data corruption* — a DMA or kernel
completes "successfully" with wrong bytes.  This module is the runtime's
own detection layer: the :class:`IntegrityManager` keeps a deterministic
CRC-32 reference checksum for every COI device buffer (updated at each
write window and kernel output) and for every arena segment, verifies
them at well-defined points, and drives tiered repair when a checksum
disagrees.

Verification points and their costs:

* **pre-kernel-launch** — buffers a kernel is about to consume are
  re-checksummed (dirty-only in ``transfers`` mode, all referenced
  clause buffers in ``full`` mode);
* **post-read** — the host window of every ``read_buffer`` is compared
  byte-for-byte against the device source (and, in ``full`` mode, the
  device source against its reference first);
* **checkpoint commit** — ``full`` mode verifies resident buffers before
  a checkpoint is declared good;
* **background scrub** — ``full`` mode with ``scrub_interval > 0``
  periodically re-checksums everything resident on the device;
* **finalize** — ``full`` mode sweeps all remaining references once at
  end of run; in every mode, corruption records still pending after the
  sweep are counted as *SDC escapes*.

Checksum *generation* is free — the model places it inline in the DMA
engine and the kernel epilogue; only verification passes charge
simulated time, at ``verify_cost`` seconds per byte scanned.  Repair is
tiered: re-transfer of the corrupted window from the host copy, kernel
re-execution (bounded per buffer by ``max_reverify``), then checkpoint
restore — and :class:`~repro.errors.SilentDataCorruption` when every
tier is exhausted.  With ``integrity_mode="off"`` the manager keeps no
checksums and charges nothing: runs are bit-identical to a build without
this module, and injected silent faults flow straight to host output,
where the coverage matrix counts them as escapes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import SilentDataCorruption
from repro.faults.plan import FAULT_SITES, Fault
from repro.obs.tracer import NULL_TRACER
from repro.runtime.coi import DEVICE, HOST


def buffer_checksum(buf: np.ndarray) -> int:
    """Deterministic CRC-32 over a numpy buffer's raw bytes."""
    return zlib.crc32(buf.tobytes())


def arena_segment_checksum(arena, buf) -> int:
    """Deterministic CRC-32 over one arena segment's object payloads.

    Serialization is stable across engines and runs: objects in CPU
    address order, each contributing its offset, size, and sorted fields
    (floats via ``float.hex``, ints as decimal, shared pointers as
    ``ptr:addr:bid``).
    """
    parts: List[str] = []
    for addr in sorted(arena.objects):
        obj = arena.objects[addr]
        if obj.ptr.bid != buf.bid:
            continue
        parts.append(f"@{addr - buf.cpu_base}#{obj.size}")
        for name in sorted(obj.fields):
            value = obj.fields[name]
            if isinstance(value, bool):
                parts.append(f"{name}={int(value)}")
            elif isinstance(value, float):
                parts.append(f"{name}={value.hex()}")
            elif isinstance(value, int):
                parts.append(f"{name}={value}")
            elif hasattr(value, "addr") and hasattr(value, "bid"):
                parts.append(f"{name}=ptr:{value.addr}:{value.bid}")
            else:
                parts.append(f"{name}={value!r}")
    return zlib.crc32("|".join(parts).encode("utf-8"))


def _corruption_rng(site: str, fault: Fault, nbytes: int) -> np.random.Generator:
    """The deterministic byte-flip stream for one injected corruption.

    Seeded purely from plan-derived integers, so codegen and tree engines
    corrupt (and therefore detect and repair) identically.
    """
    return np.random.default_rng((FAULT_SITES.index(site), fault.index, nbytes))


def _flip_window(raw: np.ndarray, site: str, fault: Fault):
    """Flip a severity-scaled handful of bytes in a uint8 window.

    Returns ``(positions, originals)`` — offsets into *raw* and the
    pre-corruption byte values.  Masks are drawn from [1, 255], so every
    flipped byte is guaranteed to differ from its original.
    """
    rng = _corruption_rng(site, fault, int(raw.nbytes))
    nflips = 1 + int(fault.severity * 7)
    positions = np.unique(rng.integers(0, raw.nbytes, size=nflips))
    masks = rng.integers(1, 256, size=len(positions)).astype(np.uint8)
    originals = raw[positions].copy()
    raw[positions] ^= masks
    return positions, originals


@dataclass
class CorruptionRecord:
    """Ground truth for one injected byte-level corruption.

    The injector keeps this record purely for *accounting and repair
    bookkeeping* — detection never peeks at it; detection is the
    checksum mismatch.  ``positions`` are absolute byte offsets into the
    owning array (device buffer, or the host destination of a d2h
    read); ``originals`` are the clean byte values, the same data a real
    runtime would recover from the host copy or a re-executed kernel.
    """

    fault: Fault
    #: Device buffer name, or None for a host-side (d2h) window.
    buffer: Optional[str]
    positions: np.ndarray
    originals: np.ndarray
    #: Unscaled payload bytes of the corrupted window (re-transfer cost).
    nbytes: float
    #: Compute seconds of the producing kernel (re-execution cost).
    kernel_seconds: float = 0.0
    status: str = "pending"


@dataclass
class ArenaCorruptionRecord:
    """Ground truth for one injected arena-object field corruption."""

    fault: Fault
    obj: object
    field_name: str
    original: object
    #: Unscaled bytes of the uploaded segment (re-transfer cost).
    nbytes: float
    status: str = "pending"


def _corrupt_numeric(value, fault: Fault):
    """A corrupted-but-finite replacement for a numeric field value.

    Floats get low-mantissa bits XOR-flipped (a finite input stays
    finite); ints get their low bit flipped.  Always differs from the
    input.
    """
    if isinstance(value, float):
        bits = struct.unpack("<q", struct.pack("<d", value))[0]
        bits ^= 0xFF << (8 * (fault.index % 3))
        return struct.unpack("<d", struct.pack("<q", bits))[0]
    return value ^ 1


class IntegrityManager:
    """Checksum bookkeeping, verification, and tiered repair for one run.

    Attached to the :class:`~repro.runtime.coi.CoiRuntime` by the
    Machine whenever a fault plan is configured or the policy enables a
    verifying ``integrity_mode``.  All hooks are cheap no-ops in
    ``"off"`` mode except for applying injected corruption and counting
    the resulting escapes.
    """

    def __init__(self, policy, stats, tracer=None):
        self.policy = policy
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.mode = policy.integrity_mode
        #: Reference CRC-32 per device buffer (full-buffer checksums).
        self._refs: Dict[str, int] = {}
        #: Buffers written since their last verification pass.
        self._dirty: Set[str] = set()
        #: Unresolved corruption records per device buffer.
        self._pending: Dict[str, List[CorruptionRecord]] = {}
        #: Unresolved host-side (d2h) and arena records.
        self._host_pending: List[CorruptionRecord] = []
        self._arena_pending: List[ArenaCorruptionRecord] = []
        #: Kernel re-executions consumed per buffer (max_reverify budget).
        self._reverifies: Dict[str, int] = {}
        self._last_scrub = 0.0
        self._finalized = False

    # -- mode predicates -----------------------------------------------------

    @property
    def verifying(self) -> bool:
        """Whether any checksum verification is enabled at all."""
        return self.mode != "off"

    @property
    def full(self) -> bool:
        """Whether kernel outputs, commits, and scrubs are covered too."""
        return self.mode == "full"

    # -- cost model ----------------------------------------------------------

    def _charge_verify(self, coi, nbytes: float, what: str) -> None:
        """Charge one verification pass over *nbytes* scaled bytes."""
        cost = self.policy.verify_cost * nbytes
        start = coi.clock.now
        if cost > 0:
            coi.clock.advance(cost)
        self.stats.verifications += 1
        self.stats.verify_seconds += cost
        if self.tracer.enabled and cost > 0:
            self.tracer.span(
                f"verify:{what}", HOST, start, coi.clock.now, nbytes=nbytes
            )

    def _note_detected(self, coi, site: str, where: str) -> None:
        """Record one detection: coverage matrix, metrics, trace instant."""
        self.stats.record_detected(site)
        if self.tracer.enabled:
            self.tracer.instant(
                f"integrity:detected:{site}", coi.clock.now, track=HOST,
                site=site, where=where,
            )
            self.tracer.metrics.counter(f"integrity.detected.{site}").inc()

    # -- corruption application (injection side) -----------------------------

    def _corrupt_device_window(
        self, coi, name: str, byte_start: int, byte_count: int,
        site: str, fault: Fault, kernel_seconds: float = 0.0,
    ) -> CorruptionRecord:
        """Flip bytes inside a device buffer window and record the truth."""
        raw = coi.device.arrays[name].view(np.uint8)
        window = raw[byte_start : byte_start + byte_count]
        positions, originals = _flip_window(window, site, fault)
        record = CorruptionRecord(
            fault=fault,
            buffer=name,
            positions=positions + byte_start,
            originals=originals,
            nbytes=float(byte_count),
            kernel_seconds=kernel_seconds,
        )
        self._pending.setdefault(name, []).append(record)
        return record

    # -- repair (detection side) ---------------------------------------------

    def _restore(self, coi, record: CorruptionRecord) -> None:
        """Put the clean bytes back into the corrupted device buffer."""
        raw = coi.device.arrays[record.buffer].view(np.uint8)
        raw[record.positions] = record.originals

    def _charge_retransfer(self, coi, name: str, nbytes: float, site: str):
        """Charge the PCIe cost of re-sending a window from the host copy."""
        with coi.injector_suspended():
            coi.raw_transfer(
                nbytes, to_device=True, sync=True,
                label=f"integrity:retransfer:{name}",
            )
        self.stats.silent_retransfers += 1
        self.stats.record_action(site, "retransfer")

    def _charge_reexecution(self, coi, name: str, record: CorruptionRecord):
        """Charge a kernel re-execution (or escalate past max_reverify).

        Each corrupted kernel output burns one entry of the buffer's
        ``max_reverify`` budget.  Past the budget, a checkpointing run
        restores instead (re-upload the buffer, then re-run the kernel);
        without checkpointing the corruption is unrecoverable and
        :class:`~repro.errors.SilentDataCorruption` propagates.
        """
        used = self._reverifies.get(name, 0) + 1
        self._reverifies[name] = used
        if used > self.policy.max_reverify:
            if coi.checkpoint is None:
                raise SilentDataCorruption(
                    f"kernel output {name!r} failed verification "
                    f"{used} times (max_reverify={self.policy.max_reverify}) "
                    f"and checkpointing is disabled"
                )
            buf = coi.device.arrays[name]
            self._charge_retransfer(coi, name, float(buf.nbytes), "kernel")
            self._schedule_rerun(coi, name, record.kernel_seconds)
            self.stats.record_action("kernel", "checkpoint_restore")
            self._reverifies[name] = 0
            return
        self._schedule_rerun(coi, name, record.kernel_seconds)
        self.stats.kernel_reverifies += 1
        self.stats.record_action("kernel", "reexecute")

    def _schedule_rerun(self, coi, name: str, kernel_seconds: float) -> None:
        """Occupy the device for one repair re-execution of a kernel."""
        if kernel_seconds <= 0:
            return
        event = coi.timeline.schedule(
            DEVICE, kernel_seconds, label=f"integrity:reexec:{name}",
            not_before=coi.clock.now,
        )
        coi.clock.wait_until(event)
        self.stats.recovery_seconds += kernel_seconds

    def _repair(self, coi, name: str, record: CorruptionRecord, where: str):
        """Run the repair tier for one detected device-side record."""
        self._restore(coi, record)
        site = record.fault.site
        if site == "kernel":
            self._charge_reexecution(coi, name, record)
        else:
            self._charge_retransfer(coi, name, record.nbytes, site)
        record.status = "corrected"
        self._note_detected(coi, site, where)

    def _verify_buffer(self, coi, name: str, where: str, charge: bool = True):
        """Checksum one device buffer against its reference and repair.

        A mismatch with no corruption record to attribute it to — or one
        that repair cannot clear — raises
        :class:`~repro.errors.SilentDataCorruption`: the integrity layer
        found damage it cannot explain or undo.
        """
        ref = self._refs.get(name)
        buf = coi.device.arrays.get(name)
        if ref is None or buf is None:
            return
        if charge:
            self._charge_verify(coi, buf.nbytes * coi.scale, where)
        if buffer_checksum(buf) == ref:
            return
        records = self._pending.pop(name, [])
        for record in records:
            self._repair(coi, name, record, where)
        if buffer_checksum(buf) != ref:
            raise SilentDataCorruption(
                f"checksum mismatch on device buffer {name!r} at {where} "
                f"could not be repaired ({len(records)} corruption records)"
            )
        self._dirty.discard(name)

    # -- COI hooks ------------------------------------------------------------

    def on_write(self, coi, name: str, start: int, count: int) -> None:
        """After ``write_buffer``: refresh the reference, maybe corrupt.

        A rewrite first *heals* any pending corruption of the buffer
        (read-modify-write verification against the host copy: bytes
        outside the incoming window are restored, bytes inside were just
        overwritten), so the refreshed reference can never bake stale
        corruption in.  Then the reference checksum is recomputed over
        the post-write content, and finally the h2d silent stream is
        consulted — corruption lands strictly *after* the reference, the
        way a wire flips bits after the DMA engine hashed them.
        """
        buf = coi.device.arrays[name]
        itemsize = buf.dtype.itemsize
        byte_start = start * itemsize
        byte_count = count * itemsize
        if self.verifying:
            for record in self._pending.pop(name, []):
                outside = (record.positions < byte_start) | (
                    record.positions >= byte_start + byte_count
                )
                raw = buf.view(np.uint8)
                raw[record.positions[outside]] = record.originals[outside]
                self._charge_retransfer(coi, name, record.nbytes, record.fault.site)
                record.status = "corrected"
                self._charge_verify(coi, buf.nbytes * coi.scale, "rewrite")
                self._note_detected(coi, record.fault.site, "rewrite")
            self._refs[name] = buffer_checksum(buf)
            self._dirty.add(name)
        if coi.injector is not None and byte_count > 0:
            fault = coi.injector.draw_silent(
                "h2d", device=coi.device_index_of(name)
            )
            if fault is not None:
                self._corrupt_device_window(
                    coi, name, byte_start, byte_count, "h2d", fault
                )

    def on_read(
        self, coi, src: str, src_start: int, count: int,
        into: np.ndarray, into_start: int,
    ) -> None:
        """After ``read_buffer``: maybe corrupt the host window, verify.

        The d2h silent stream corrupts the *host* destination (the
        transfer landed wrong).  In verifying modes the window is then
        compared byte-for-byte with the device source — ``full`` mode
        first re-checksums the source itself, which is where a kernel
        SDC on an output buffer is caught before it leaves the device —
        and a mismatching window is re-copied, with the re-transfer
        charged to the d2h channel.
        """
        buf = coi.device.arrays[src]
        window = into[into_start : into_start + count]
        if coi.injector is not None and window.nbytes > 0:
            fault = coi.injector.draw_silent(
                "d2h", device=coi.device_index_of(src)
            )
            if fault is not None:
                raw = window.view(np.uint8)
                positions, originals = _flip_window(raw, "d2h", fault)
                base = into_start * into.dtype.itemsize
                self._host_pending.append(
                    CorruptionRecord(
                        fault=fault, buffer=None,
                        positions=positions + base, originals=originals,
                        nbytes=float(window.nbytes),
                    )
                )
        if not self.verifying:
            return
        if self.full or src in self._dirty:
            # Verify the device source before trusting it as the repair
            # reference.  In transfers mode this covers dirty (written,
            # not yet verified) buffers, so an h2d corruption cannot
            # ride a direct write→read round trip out to the host.
            self._verify_buffer(coi, src, "post-read")
        expected = buf[src_start : src_start + count].astype(
            into.dtype, copy=False
        )
        self._charge_verify(coi, window.nbytes * coi.scale, "post-read")
        if window.tobytes() != expected.tobytes():
            into[into_start : into_start + count] = expected
            with coi.injector_suspended():
                coi.raw_transfer(
                    float(window.nbytes), to_device=False, sync=True,
                    label=f"integrity:retransfer:{src}",
                )
            self.stats.silent_retransfers += 1
            self.stats.record_action("d2h", "retransfer")
            for record in self._host_pending:
                if record.status == "pending":
                    record.status = "corrected"
                    self._note_detected(coi, "d2h", "post-read")

    def pre_kernel_verify(self, coi, names) -> None:
        """Before a kernel runs: verify the buffers it may consume.

        ``transfers`` mode checks the named clause buffers written since
        their last pass (the dirty set); ``full`` mode checks *every*
        referenced device buffer — a kernel body may legally touch any
        resident buffer, so full coverage cannot trust the clause list.
        This runs before the device body is interpreted: repair must
        land before corrupted input bytes can propagate into outputs.
        """
        if not self.verifying:
            return
        if self.full:
            targets = sorted(self._refs)
        else:
            targets = sorted(set(names) & self._dirty)
        for name in targets:
            self._verify_buffer(coi, name, "pre-kernel")

    def note_kernel_writes(self, coi) -> None:
        """After device-body interpretation: re-reference kernel outputs.

        The kernel epilogue hashes what it wrote (generation is free),
        so every tracked reference is refreshed from post-kernel
        content.  In ``full`` mode nothing is pending here (the
        pre-kernel pass repaired everything); in ``transfers`` mode a
        buffer that still carries pending corruption was consumed or
        overwritten by the kernel — its corruption propagated, so the
        record is counted as an escape and the buffer leaves custody.
        """
        if not self.verifying:
            return
        if self.full:
            # An out-only buffer is first *written* by the kernel itself,
            # so this is its earliest possible reference point; without it
            # a kernel SDC landing there would have no checksum to betray
            # it.  ``transfers`` mode only tracks host-written buffers.
            targets = sorted(set(self._refs) | set(coi.device.arrays))
        else:
            targets = sorted(self._refs)
        for name in targets:
            buf = coi.device.arrays.get(name)
            if buf is None:
                continue
            records = self._pending.pop(name, [])
            if records:
                for record in records:
                    if record.status == "pending":
                        record.status = "escaped"
                        self.stats.record_escaped(record.fault.site)
                del self._refs[name]
                self._dirty.discard(name)
                continue
            self._refs[name] = buffer_checksum(buf)

    def kernel_completed(self, coi, out_names, kernel_seconds: float) -> None:
        """After a successful launch: consult the kernel SDC stream.

        A drawn fault corrupts one output buffer (chosen by the fault's
        own per-site ordinal, so the choice is engine-independent); the
        record carries the kernel's compute seconds, which is what a
        repair re-execution costs.
        """
        if coi.injector is None:
            return
        candidates = sorted(
            name for name in set(out_names)
            if coi.device.arrays.get(name) is not None
            and coi.device.arrays[name].nbytes > 0
        )
        if not candidates:
            return
        fault = coi.injector.draw_silent(
            "kernel", device=coi.active_device_index
        )
        if fault is None:
            return
        name = candidates[fault.index % len(candidates)]
        buf = coi.device.arrays[name]
        self._corrupt_device_window(
            coi, name, 0, buf.nbytes, "kernel", fault,
            kernel_seconds=kernel_seconds,
        )

    def on_free(self, coi, name: str) -> None:
        """Before a buffer is freed: settle its integrity state.

        Verifying modes run a last checksum pass so corruption cannot
        silently leave custody with the buffer; in ``off`` mode pending
        records outlive the buffer and are counted as escapes at
        finalize.
        """
        if self.verifying and name in self._refs:
            self._verify_buffer(coi, name, "pre-free")
        self._refs.pop(name, None)
        self._dirty.discard(name)
        self._reverifies.pop(name, None)
        if not self.verifying:
            return
        # A verified buffer has no pending records left.  A buffer that
        # was never referenced (``transfers`` mode never tracks kernel
        # outputs) can still carry kernel-SDC records: its corruption
        # leaves custody with the free, so count the escapes now.
        for record in self._pending.pop(name, []):
            if record.status == "pending":
                record.status = "escaped"
                self.stats.record_escaped(record.fault.site)

    def on_realloc(self, coi, name: str) -> None:
        """Before ``alloc_buffer`` replaces an existing array object."""
        self.on_free(coi, name)

    # -- checkpoint / scrub / finalize ----------------------------------------

    def on_checkpoint_commit(self, coi) -> None:
        """Before a checkpoint is declared good: verify resident buffers.

        ``full`` mode only — a checkpoint that certifies corrupted
        device state would turn restore into a corruption amplifier.
        """
        if not self.full:
            return
        for name in sorted(self._refs):
            self._verify_buffer(coi, name, "checkpoint-commit")

    def maybe_scrub(self, coi) -> None:
        """Run the periodic background scrub when its interval elapsed."""
        if not self.full or self.policy.scrub_interval <= 0:
            return
        if coi.clock.now - self._last_scrub < self.policy.scrub_interval:
            return
        self.scrub(coi)

    def scrub(self, coi) -> None:
        """Re-checksum everything resident on the device, one pass.

        The pass is charged as one scan of all resident device bytes
        (``verify_cost × resident``); the per-buffer verifications it
        performs are part of that single charge.
        """
        resident = coi.resident_device_bytes()
        cost = self.policy.verify_cost * resident
        start = coi.clock.now
        if cost > 0:
            coi.clock.advance(cost)
        self.stats.scrubs += 1
        self.stats.scrub_seconds += cost
        for name in sorted(self._refs):
            self._verify_buffer(coi, name, "scrub", charge=False)
        self._last_scrub = coi.clock.now
        if self.tracer.enabled:
            if cost > 0:
                self.tracer.span(
                    "scrub", HOST, start, coi.clock.now, nbytes=resident
                )
            self.tracer.metrics.counter("integrity.scrubs").inc()

    def on_arena_upload(self, coi, arena, buf, nbytes: float) -> None:
        """After one arena segment upload: maybe flip a field, verify.

        The ``arena`` site is all-silent (its only kind is ``bitflip``),
        drawn through the injector's regular per-site stream.  A flip
        lands in one object's numeric field — chosen by the fault
        ordinal, engine-independent — after the segment checksum was
        taken, and verifying modes immediately detect it, restore the
        field, and charge a segment re-transfer.
        """
        candidates = [
            arena.objects[addr]
            for addr in sorted(arena.objects)
            if arena.objects[addr].ptr.bid == buf.bid
        ]
        fault = None
        if coi.injector is not None and candidates:
            fault = coi.injector.draw("arena", device=coi.active_device_index)
        ref = None
        if self.verifying and (fault is not None or self.policy.verify_cost > 0):
            ref = arena_segment_checksum(arena, buf)
        if self.verifying:
            self._charge_verify(coi, nbytes * coi.scale, f"arena:{buf.bid}")
        if fault is None:
            return
        target = None
        field_name = None
        for offset in range(len(candidates)):
            obj = candidates[(fault.index + offset) % len(candidates)]
            for fname in sorted(obj.fields):
                value = obj.fields[fname]
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    target, field_name = obj, fname
                    break
            if target is not None:
                break
        if target is None:
            # Nothing corruptible in the segment: the flip lands in
            # padding, which verification trivially clears.
            if self.verifying:
                self._note_detected(coi, "arena", "arena-upload")
            else:
                self.stats.record_escaped("arena")
            return
        original = target.fields[field_name]
        target.fields[field_name] = _corrupt_numeric(original, fault)
        if not self.verifying:
            self._arena_pending.append(
                ArenaCorruptionRecord(
                    fault=fault, obj=target, field_name=field_name,
                    original=original, nbytes=float(nbytes),
                )
            )
            return
        if arena_segment_checksum(arena, buf) == ref:
            raise SilentDataCorruption(
                f"arena segment {buf.bid} checksum failed to notice an "
                f"injected field flip ({field_name!r})"
            )
        target.fields[field_name] = original
        self._charge_retransfer(coi, f"arena:{buf.bid}", float(nbytes), "arena")
        self._note_detected(coi, "arena", "arena-upload")

    def finalize(self, coi) -> None:
        """End of run: final sweep, then count every straggler as escaped.

        Idempotent — workload drivers and the executor both call it.
        ``full`` mode verifies (and repairs) every remaining reference,
        which is what makes its zero-escape guarantee hold; records
        still pending after that left the layer's custody undetected and
        are charged to the coverage matrix as SDC escapes.
        """
        if self._finalized:
            return
        self._finalized = True
        if self.full:
            for name in sorted(self._refs):
                self._verify_buffer(coi, name, "finalize")
        for name, records in sorted(self._pending.items()):
            for record in records:
                if record.status == "pending":
                    record.status = "escaped"
                    self.stats.record_escaped(record.fault.site)
        self._pending.clear()
        for record in self._host_pending:
            if record.status == "pending":
                record.status = "escaped"
                self.stats.record_escaped(record.fault.site)
        for arecord in self._arena_pending:
            if arecord.status == "pending":
                arecord.status = "escaped"
                self.stats.record_escaped(arecord.fault.site)
        if self.tracer.enabled and self.stats.sdc_escapes:
            self.tracer.metrics.counter("integrity.sdc_escapes").inc(
                self.stats.sdc_escapes
            )

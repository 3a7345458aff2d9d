"""The seeded fault injector.

Wraps a time-ordered :class:`~repro.net.packet.CapturedPacket` stream
and applies the faults of a :class:`~repro.faults.spec.FaultSpec`.
Every stochastic decision draws from its own labelled
:class:`~repro.util.rng.SeededRng` child, so enabling one fault kind
never perturbs another kind's stream and a given ``(spec, seed)`` pair
always produces the same faulted capture — the property the
equivalence suite leans on.

Two invariants matter for downstream analysis:

- **Time order is preserved.**  Inserted garbage and duplicates reuse
  the current packet's timestamp, and a reorder swaps packet
  *contents* while keeping the original timestamp sequence (the
  capture tap stamps arrival time, so reordering is modelled as two
  arrivals whose payloads changed places).  The pipeline's
  time-ordered-stream contract therefore still holds.
- **Faults are injected upstream, once.**  The injector sits between
  the feed and the analysis, so serial, parallel, and streaming runs
  of the same faulted scenario see byte-identical packets.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro import obs
from repro.faults.spec import FAULT_KINDS, FaultSpec
from repro.net.packet import KIND_UDP, CapturedPacket, IPProto
from repro.util.batching import BATCH_SIZE, batched
from repro.util.rng import SeededRng

#: default injector seed (distinct from scenario seeds so a faulted
#: run of scenario N is not accidentally correlated with its traffic).
DEFAULT_FAULT_SEED = 0xFA017

_QUIC_PORT = 443
_MAX_GARBAGE_PAYLOAD = 64

_M_FAULTS = obs.counter(
    "repro_faults_injected_total",
    "faults injected into the packet stream, per kind "
    "(see docs/ROBUSTNESS.md for the taxonomy)",
    labels=("kind",),
)


class FaultInjector:
    """Applies a :class:`FaultSpec` to packet streams, deterministically.

    ``stats`` tallies applied faults per kind; ``summary()`` renders
    them for the CLI.  The registry counter
    ``repro_faults_injected_total{kind}`` is published when a wrapped
    stream finishes (including early exits), never per packet.
    """

    def __init__(
        self, spec: FaultSpec, seed: int = DEFAULT_FAULT_SEED
    ) -> None:
        self.spec = spec
        self.seed = seed
        root = SeededRng(seed, "faults")
        # split() derives the same seeds as child() but rejects label
        # reuse, so each fault kind provably owns its own stream
        self._rng = {kind: root.split(f"faults:{kind}") for kind in FAULT_KINDS}
        self.stats: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._published: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # -- stream wrapping ---------------------------------------------------

    def wrap(self, stream: Iterable[CapturedPacket]) -> Iterator[CapturedPacket]:
        """Yield the faulted view of a time-ordered packet stream."""
        if not self.spec.enabled():
            yield from stream
            return
        try:
            yield from self._reorder(self._per_packet(iter(stream)))
        finally:
            self._publish()

    def wrap_batches(
        self, feed: Iterable[list], batch_size: int = BATCH_SIZE
    ) -> Iterator[list]:
        """Faulted view of a batch feed (flattens, faults, rebatches).

        Rebatching is safe: streaming results are independent of batch
        boundaries (asserted by the batch-size-independence test).
        """
        if not self.spec.enabled():
            yield from feed
            return
        packets = (packet for batch in feed for packet in batch)
        yield from batched(self.wrap(packets), batch_size)

    # -- per-kind stages ---------------------------------------------------

    def _per_packet(
        self, stream: Iterator[CapturedPacket]
    ) -> Iterator[CapturedPacket]:
        spec = self.spec
        stats = self.stats
        rng_interrupt = self._rng["interrupt"]
        rng_drop = self._rng["drop"]
        rng_garbage = self._rng["garbage"]
        rng_duplicate = self._rng["duplicate"]
        for packet in stream:
            if spec.interrupt and rng_interrupt.random() < spec.interrupt:
                stats["interrupt"] += 1
                return
            if spec.drop and rng_drop.random() < spec.drop:
                stats["drop"] += 1
                continue
            if spec.garbage and rng_garbage.random() < spec.garbage:
                stats["garbage"] += 1
                yield self._garbage_packet(packet, rng_garbage)
            packet = self._mutate_payload(packet)
            yield packet
            if spec.duplicate and rng_duplicate.random() < spec.duplicate:
                stats["duplicate"] += 1
                yield _copy(packet)

    def _mutate_payload(self, packet: CapturedPacket) -> CapturedPacket:
        spec = self.spec
        stats = self.stats
        payload = packet.payload
        mutated = False
        if spec.zero and self._rng["zero"].random() < spec.zero:
            if payload:
                payload = b""
                mutated = True
                stats["zero"] += 1
        if spec.truncate and self._rng["truncate"].random() < spec.truncate:
            if len(payload) > 1:
                payload = payload[: self._rng["truncate"].randint(1, len(payload) - 1)]
                mutated = True
                stats["truncate"] += 1
        if spec.byteflip and self._rng["byteflip"].random() < spec.byteflip:
            if payload:
                rng = self._rng["byteflip"]
                index = rng.randint(0, len(payload) - 1)
                old = payload[index]
                new = (old + rng.randint(1, 255)) & 0xFF
                payload = payload[:index] + bytes([new]) + payload[index + 1 :]
                mutated = True
                stats["byteflip"] += 1
        if spec.bitflip and self._rng["bitflip"].random() < spec.bitflip:
            if payload:
                rng = self._rng["bitflip"]
                index = rng.randint(0, len(payload) - 1)
                bit = 1 << rng.randint(0, 7)
                payload = (
                    payload[:index]
                    + bytes([payload[index] ^ bit])
                    + payload[index + 1 :]
                )
                mutated = True
                stats["bitflip"] += 1
        if not mutated:
            return packet
        if len(payload) == len(packet.payload):
            return _copy(packet, payload=payload)
        # a capture-sourced packet carries the original wire length
        return _copy(packet, payload=payload, total_length=0)

    def _reorder(
        self, stream: Iterator[CapturedPacket]
    ) -> Iterator[CapturedPacket]:
        spec = self.spec
        if not spec.reorder:
            yield from stream
            return
        rng = self._rng["reorder"]
        held: CapturedPacket | None = None
        for packet in stream:
            if held is not None:
                # the held packet's contents arrive late: its successor's
                # contents take the earlier timestamp, its own take the
                # later one, so the stream stays time-ordered.
                yield _copy(packet, timestamp=held.timestamp)
                yield _copy(held, timestamp=packet.timestamp)
                self.stats["reorder"] += 1
                held = None
            elif rng.random() < spec.reorder:
                held = packet
            else:
                yield packet
        if held is not None:
            yield held  # no successor to swap with: emit unchanged

    def _garbage_packet(
        self, reference: CapturedPacket, rng: SeededRng
    ) -> CapturedPacket:
        """A non-QUIC UDP/443 datagram aimed at the same telescope.

        Destination follows the packet it rides next to (so it lands in
        the observed prefix); the source is a fresh random address, the
        payload short random bytes — the stray-UDP bulk of PAPER.md §3.
        """
        src = rng.randint(0x01000000, 0xDFFFFFFF)
        src_port = rng.randint(1024, 65535)
        payload = rng.randbytes(rng.randint(1, _MAX_GARBAGE_PAYLOAD))
        return CapturedPacket(
            timestamp=reference.timestamp,
            src=src,
            dst=reference.dst,
            proto=int(IPProto.UDP),
            kind=KIND_UDP,
            src_port=src_port,
            dst_port=_QUIC_PORT,
            payload=payload,
        )

    # -- reporting ---------------------------------------------------------

    def _publish(self) -> None:
        if not obs.enabled():
            return
        for kind, count in self.stats.items():
            delta = count - self._published[kind]
            if delta:
                self._published[kind] = count
                _M_FAULTS.inc(delta, kind=kind)

    def summary(self) -> str:
        """One line for the CLI: applied fault counts, skipping zeros."""
        parts = [
            f"{kind}={count}" for kind, count in self.stats.items() if count
        ]
        applied = " ".join(parts) if parts else "none applied"
        return (
            f"faults[spec={self.spec.render()} seed={self.seed}]: {applied}"
        )


def _copy(packet: CapturedPacket, **changes) -> CapturedPacket:
    """A new record with ``packet``'s slots, ``changes`` applied."""
    fields = {slot: getattr(packet, slot) for slot in CapturedPacket.__slots__}
    fields.update(changes)
    return CapturedPacket(**fields)

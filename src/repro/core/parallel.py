"""Source-sharded parallel execution of the per-packet phase.

The streaming phase of :class:`~repro.core.pipeline.QuicsandPipeline`
(classify → dissect → sessionize → hourly counters → timeout-sweep
observation) keeps all of its state either per source IP or as a plain
sum.  Hash-partitioning the packet stream by source therefore loses
nothing: every sessionizer decision, sweep gap and research-candidate
count depends only on one source's time-ordered substream, which a
shard sees in full and in order.  Merging the shard partials
(:meth:`~repro.core.pipeline.PartialState.merge`) then reproduces the
serial state exactly, and the once-per-capture finalization runs on the
merged result — a serial and a parallel run yield identical
:class:`~repro.core.pipeline.PipelineResult`\\ s for the same input.

Mechanically, the parent reads the stream, routes each packet to its
shard buffer (:func:`shard_of`), and ships filled buffers to worker
processes.  Two transports exist:

* **shared-memory rings** (default, fast lane): each worker owns a
  ring of fixed-size slots in one ``multiprocessing.shared_memory``
  segment.  The parent packs batches as flat scalar records
  (:data:`_SHM_RECORD`) plus raw payload bytes straight into a free
  slot and sends only a tiny ``(slot, count)`` descriptor over the
  queue; the worker parses records in place and returns the slot
  number on an ack queue.  Nothing per-packet is pickled.  Workers
  feed :meth:`PartialState.consume_lane_records` on a
  :class:`~repro.core.batchlane.BatchLane`.
* **compact tuples** (rich path, ``fast_lane=False``, or when shared
  memory is unavailable): packets cross the boundary as flat tuples
  (:func:`encode_packet`); workers rebuild
  :class:`~repro.net.packet.CapturedPacket` records and run the rich
  classifier.

Time order holds within each source's substream because a source maps
to exactly one shard and slots/buffers preserve arrival order.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue as queue_module
import struct
import traceback
from typing import Iterable, Optional

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - always present on CPython >= 3.8
    _shared_memory = None

from repro import obs
from repro.net.icmp import IcmpHeader
from repro.net.ipv4 import IPv4Header
from repro.net.packet import KIND_ICMP, KIND_TCP, KIND_UDP, CapturedPacket
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader
from repro.core.batchlane import BatchLane
from repro.core.classify import TrafficClassifier
from repro.core.pipeline import AnalysisConfig, PartialState

# Worker processes publish into their own (reset-after-fork) registry
# and ship one snapshot back with their partial state; the parent
# merges each snapshot exactly once, in shard-index order, so parallel
# metric totals equal serial totals (tests/test_obs_parallel.py).
_M_SHARD_PACKETS = obs.counter(
    "repro_parallel_shard_packets_total",
    "packets consumed per shard worker",
    labels=("worker",),
)
_M_SHARD_BATCHES = obs.counter(
    "repro_parallel_shard_batches_total",
    "IPC batches consumed per shard worker",
    labels=("worker",),
)
_M_WORKERS = obs.gauge(
    "repro_parallel_workers",
    "worker processes of the most recent sharded run",
)
_M_MERGE = obs.histogram(
    "repro_parallel_merge_seconds",
    "wall seconds merging all shard partial states",
)

DEFAULT_BATCH = 512
#: per-worker input queue depth, in batches — bounds parent-side memory
#: and applies backpressure when a shard falls behind.
QUEUE_DEPTH = 16

_GOLDEN = 0x9E3779B1  # Fibonacci-hash multiplier: mixes clustered IPs


def shard_of(source: int, workers: int) -> int:
    """Map a source IP to its shard (stable hash partition)."""
    return ((source * _GOLDEN) & 0xFFFFFFFF) % workers


# -- compact packet IPC ----------------------------------------------------
#
# Pickling whole CapturedPackets (header objects or kept header bytes)
# would dominate the parent's feed loop, so packets cross the process
# boundary as flat tuples of the packet's scalar slots — exactly the
# fields the per-packet phase reads (timestamps, addresses, ports/flags,
# payload, wire length).  Unread header fields (checksums, TTL, seq/ack)
# are not shipped; no analysis output depends on them, and reading the
# slots keeps a parsed packet's headers unmaterialised in the parent.


def encode_packet(packet: CapturedPacket) -> tuple:
    """Flatten a packet's scalar slots into a cheap-to-pickle tuple."""
    kind = packet.kind
    if kind == KIND_UDP:
        wire = (kind, packet.src_port, packet.dst_port)
    elif kind == KIND_TCP:
        wire = (kind, packet.src_port, packet.dst_port, packet.tcp_flags)
    elif kind == KIND_ICMP:
        wire = (kind, packet.icmp_type, packet.icmp_code)
    else:
        wire = None
    return (
        packet.timestamp,
        packet.src,
        packet.dst,
        packet.proto,
        packet.total_length,
        wire,
        packet.payload,
    )


def decode_packet(record: tuple) -> CapturedPacket:
    """Rebuild a :class:`CapturedPacket` from :func:`encode_packet` output."""
    timestamp, src, dst, proto, total_length, wire, payload = record
    if wire is None:
        transport = None
    elif wire[0] == KIND_UDP:
        transport = UdpHeader(wire[1], wire[2])
    elif wire[0] == KIND_TCP:
        transport = TcpHeader(wire[1], wire[2], 0, 0, wire[3])
    else:
        transport = IcmpHeader(wire[1], wire[2])
    return CapturedPacket(
        timestamp, IPv4Header(src, dst, proto, total_length), transport, payload
    )


# -- shared-memory ring transport ------------------------------------------
#
# One scalar record per packet, packed little-endian with no padding:
# timestamp f64, src u32, dst u32, total_length u16, proto u8, kind u8,
# f1 u16, f2 u16, f3 u16, payload_length u32 — the lane record of
# ``BatchLane.observe_records``, filled from the packet's
# scalar slots (``kind`` is ``CapturedPacket.kind``).  Payload bytes
# follow the record only when the high bit of ``kind`` is set — the
# parent ships them solely for dissectable UDP packets with exactly one
# port == 443, the only payloads the per-packet phase ever reads.
# ``payload_length`` is always the true length so workers recover exact
# wire lengths even for unshipped payloads.

_SHM_RECORD = struct.Struct("<dIIHBBHHHI")
_PAYLOAD_FLAG = 0x80

#: slots per worker ring — bounds in-flight batches (and parent-side
#: backpressure) exactly like QUEUE_DEPTH bounds the tuple transport.
RING_SLOTS = 8
#: slot byte size; one batch must fit.  Flush early once a slot cannot
#: take another worst-case record (30 B header + 64 KiB payload).
SLOT_SIZE = 1 << 20
_FLUSH_WATERMARK = SLOT_SIZE - (_SHM_RECORD.size + 0x10000)


def shm_transport_available() -> bool:
    """Can this host back the ring transport with shared memory?"""
    if _shared_memory is None:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    probe.close()
    try:
        probe.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - cleanup race
        pass
    return True


def _attach_segment(name: str):
    """Attach to an existing segment without resource-tracker claims.

    Workers must not register the parent-owned segment with their own
    resource tracker, or the tracker unlinks it when the first worker
    exits.  Python 3.13+ has ``track=False``; older versions need the
    attach-then-unregister dance.
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # pre-3.13: attaching registers the segment with the resource
        # tracker (shared with the parent under fork, private under
        # spawn) and either way a second claim on a parent-owned name
        # ends in spurious unlinks or KeyError noise at shutdown.
        # Suppress registration for the duration of the attach.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _no_track(name_, rtype):  # pragma: no cover - trivial shim
            if rtype != "shared_memory":
                original_register(name_, rtype)

        resource_tracker.register = _no_track
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class _ShardRing:
    """Parent-side view of one worker's slot ring."""

    def __init__(self, slots: int = RING_SLOTS, slot_size: int = SLOT_SIZE):
        self.slot_size = slot_size
        self.shm = _shared_memory.SharedMemory(
            create=True, size=slots * slot_size
        )
        self.free = collections.deque(range(slots))

    def close_and_unlink(self) -> None:
        try:
            self.shm.close()
        except OSError:  # pragma: no cover - double close
            pass
        try:
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


def _acquire_slot(ring, ack_queue, process) -> int:
    """Next free slot, recycling acked ones; notices a dead worker."""
    while True:
        try:
            ring.free.append(ack_queue.get_nowait())
        except queue_module.Empty:
            break
    if ring.free:
        return ring.free.popleft()
    while True:
        try:
            return ack_queue.get(timeout=5.0)
        except queue_module.Empty:
            if not process.is_alive():
                raise RuntimeError(
                    f"shard worker {process.name} died "
                    f"(exit {process.exitcode})"
                ) from None


# -- worker process --------------------------------------------------------


def _shard_worker(index, config, in_queue, out_queue, metrics_enabled=False) -> None:
    """Consume encoded batches until the ``None`` sentinel, then ship
    the flushed partial state (plus a metrics snapshot) to the parent.

    The fork start method copies the parent's registry values into the
    child, so the first thing a worker does is reset its registry —
    the snapshot it ships then carries only this worker's deltas and
    the parent's merge is exactly-once by construction.
    """
    try:
        obs.REGISTRY.reset()
        obs.set_enabled(metrics_enabled)
        classifier = TrafficClassifier(dissect_payloads=config.dissect_payloads)
        state = PartialState.initial(config)
        decode = decode_packet
        batches = 0
        while True:
            batch = in_queue.get()
            if batch is None:
                break
            batches += 1
            state.consume([decode(record) for record in batch], classifier)
        state.record_classifier(classifier)
        state.close()
        if obs.enabled():
            _M_SHARD_PACKETS.inc(state.total_packets, worker=str(index))
            _M_SHARD_BATCHES.inc(batches, worker=str(index))
            snapshot = obs.REGISTRY.snapshot(run_collectors=False)
        else:
            snapshot = None
        out_queue.put((index, state, snapshot, None))
    except BaseException:
        out_queue.put((index, None, None, traceback.format_exc()))


def _shm_shard_worker(
    index,
    config,
    shm_name,
    slot_size,
    in_queue,
    ack_queue,
    out_queue,
    metrics_enabled=False,
) -> None:
    """Ring-transport twin of :func:`_shard_worker`.

    Consumes ``(slot, count)`` descriptors until the ``None`` sentinel,
    parsing scalar records straight out of the shared segment and
    feeding the batch fast lane; each drained slot is acked back to the
    parent for reuse.
    """
    segment = None
    try:
        obs.REGISTRY.reset()
        obs.set_enabled(metrics_enabled)
        segment = _attach_segment(shm_name)
        buf = segment.buf
        lane = BatchLane(dissect_payloads=config.dissect_payloads)
        state = PartialState.initial(config)
        unpack_from = _SHM_RECORD.unpack_from
        record_size = _SHM_RECORD.size
        batches = 0
        while True:
            descriptor = in_queue.get()
            if descriptor is None:
                break
            batches += 1
            slot, count = descriptor
            offset = slot * slot_size
            records = []
            append = records.append
            for _ in range(count):
                fields = unpack_from(buf, offset)
                offset += record_size
                kind = fields[5]
                if kind & _PAYLOAD_FLAG:
                    payload_length = fields[9]
                    payload = bytes(buf[offset : offset + payload_length])
                    offset += payload_length
                    append(
                        fields[:5] + (kind & 0x7F,) + fields[6:] + (payload,)
                    )
                else:
                    append(fields + (b"",))
            ack_queue.put(slot)
            state.consume_lane_records(records, lane)
        state.record_classifier(lane)
        state.close()
        if obs.enabled():
            _M_SHARD_PACKETS.inc(state.total_packets, worker=str(index))
            _M_SHARD_BATCHES.inc(batches, worker=str(index))
            snapshot = obs.REGISTRY.snapshot(run_collectors=False)
        else:
            snapshot = None
        out_queue.put((index, state, snapshot, None))
    except BaseException:
        out_queue.put((index, None, None, traceback.format_exc()))
    finally:
        if segment is not None:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover
                pass


def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _put_with_liveness(q, item, process) -> None:
    """Blocking put that notices a dead worker instead of hanging."""
    while True:
        try:
            q.put(item, timeout=5.0)
            return
        except queue_module.Full:
            if not process.is_alive():
                raise RuntimeError(
                    f"shard worker {process.name} died (exit {process.exitcode})"
                ) from None


def _collect_results(processes, out_queue, workers):
    """Drain one ``(index, state, snapshot, error)`` result per worker,
    noticing workers that die without reporting."""
    states: list = [None] * workers
    snapshots: list = [None] * workers
    pending = set(range(workers))
    while pending:
        try:
            index, state, snapshot, error = out_queue.get(timeout=1.0)
        except queue_module.Empty:
            for index in list(pending):
                process = processes[index]
                if not process.is_alive() and process.exitcode != 0:
                    raise RuntimeError(
                        f"shard worker {index} died "
                        f"(exit {process.exitcode}) without a result"
                    )
            continue
        if error is not None:
            raise RuntimeError(f"shard worker {index} failed:\n{error}")
        states[index] = state
        snapshots[index] = snapshot
        pending.discard(index)
    return states, snapshots


def _merge_results(states, snapshots, workers) -> PartialState:
    # merge in shard-index order: deterministic regardless of which
    # worker finished first
    _M_WORKERS.set(workers)
    with obs.span(_M_MERGE):
        merged = states[0]
        for state in states[1:]:
            merged.merge(state)
    for snapshot in snapshots:
        if snapshot is not None:
            obs.REGISTRY.merge_snapshot(snapshot)
    return merged


def run_sharded(
    stream: Iterable,
    config: AnalysisConfig,
    workers: int,
    batch_size: Optional[int] = None,
    start_method: Optional[str] = None,
) -> PartialState:
    """Run the per-packet phase sharded by source across ``workers``
    processes and return the merged :class:`PartialState`.

    With ``config.fast_lane`` (the default) packets travel over the
    shared-memory ring transport and workers run the batch fast lane;
    the rich path — and any host without usable shared memory — uses
    the original compact-tuple queues.  Both produce identical merged
    states (tests/test_lane_equivalence.py).
    """
    workers = max(1, int(workers))
    if getattr(config, "fast_lane", True) and _shared_memory is not None:
        rings = None
        try:
            rings = [_ShardRing() for _ in range(workers)]
        except (OSError, ValueError):
            rings = None
        if rings is not None:
            return _run_sharded_shm(
                stream, config, workers, batch_size, start_method, rings
            )
    return _run_sharded_queues(stream, config, workers, batch_size, start_method)


def _run_sharded_queues(
    stream: Iterable,
    config: AnalysisConfig,
    workers: int,
    batch_size: Optional[int] = None,
    start_method: Optional[str] = None,
) -> PartialState:
    """Compact-tuple transport (rich classifier in the workers)."""
    batch = int(batch_size or DEFAULT_BATCH)
    ctx = multiprocessing.get_context(start_method or _default_start_method())
    in_queues = [ctx.Queue(maxsize=QUEUE_DEPTH) for _ in range(workers)]
    out_queue = ctx.Queue()
    processes = [
        ctx.Process(
            target=_shard_worker,
            args=(index, config, in_queues[index], out_queue, obs.enabled()),
            name=f"quicsand-shard-{index}",
            daemon=True,
        )
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    try:
        buffers: list = [[] for _ in range(workers)]
        encode = encode_packet
        for packet in stream:
            shard = ((packet.src * _GOLDEN) & 0xFFFFFFFF) % workers
            buffer = buffers[shard]
            buffer.append(encode(packet))
            if len(buffer) >= batch:
                _put_with_liveness(in_queues[shard], buffer, processes[shard])
                buffers[shard] = []
        for shard, buffer in enumerate(buffers):
            if buffer:
                _put_with_liveness(in_queues[shard], buffer, processes[shard])
            _put_with_liveness(in_queues[shard], None, processes[shard])
        states, snapshots = _collect_results(processes, out_queue, workers)
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
    return _merge_results(states, snapshots, workers)


def _run_sharded_shm(
    stream: Iterable,
    config: AnalysisConfig,
    workers: int,
    batch_size: Optional[int],
    start_method: Optional[str],
    rings: list,
) -> PartialState:
    """Shared-memory ring transport (batch fast lane in the workers)."""
    batch = int(batch_size or DEFAULT_BATCH)
    ctx = multiprocessing.get_context(start_method or _default_start_method())
    in_queues = [ctx.Queue(maxsize=RING_SLOTS + 1) for _ in range(workers)]
    ack_queues = [ctx.Queue() for _ in range(workers)]
    out_queue = ctx.Queue()
    processes = [
        ctx.Process(
            target=_shm_shard_worker,
            args=(
                index,
                config,
                rings[index].shm.name,
                rings[index].slot_size,
                in_queues[index],
                ack_queues[index],
                out_queue,
                obs.enabled(),
            ),
            name=f"quicsand-shard-{index}",
            daemon=True,
        )
        for index in range(workers)
    ]
    for process in processes:
        process.start()
    try:
        buffers = [bytearray() for _ in range(workers)]
        counts = [0] * workers
        dissect = config.dissect_payloads
        pack = _SHM_RECORD.pack

        def flush(shard: int) -> None:
            ring = rings[shard]
            slot = _acquire_slot(ring, ack_queues[shard], processes[shard])
            data = buffers[shard]
            base = slot * ring.slot_size
            ring.shm.buf[base : base + len(data)] = data
            _put_with_liveness(
                in_queues[shard], (slot, counts[shard]), processes[shard]
            )
            buffers[shard] = bytearray()
            counts[shard] = 0

        for packet in stream:
            shard = ((packet.src * _GOLDEN) & 0xFFFFFFFF) % workers
            kind = packet.kind
            f1 = f2 = 0
            ship = False
            if kind == KIND_ICMP:
                f1 = packet.icmp_type & 0xFFFF
                f2 = packet.icmp_code & 0xFFFF
            elif kind:
                f1 = packet.src_port
                f2 = packet.dst_port
                ship = kind == KIND_UDP and dissect and (f1 == 443) != (f2 == 443)
            payload = packet.payload
            buffer = buffers[shard]
            buffer += pack(
                packet.timestamp,
                packet.src,
                packet.dst,
                packet.total_length & 0xFFFF,
                packet.proto & 0xFF,
                kind | _PAYLOAD_FLAG if ship else kind,
                f1,
                f2,
                packet.tcp_flags & 0xFFFF,
                len(payload),
            )
            if ship:
                buffer += payload
            counts[shard] += 1
            if counts[shard] >= batch or len(buffer) >= _FLUSH_WATERMARK:
                flush(shard)
        for shard in range(workers):
            if counts[shard]:
                flush(shard)
            _put_with_liveness(in_queues[shard], None, processes[shard])
        states, snapshots = _collect_results(processes, out_queue, workers)
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
        for ring in rings:
            ring.close_and_unlink()
    return _merge_results(states, snapshots, workers)

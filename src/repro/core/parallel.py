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
processes over **shared-memory rings**: each worker owns a ring of
fixed-size slots in one ``multiprocessing.shared_memory`` segment.  The
parent packs batches as flat scalar records (:data:`_SHM_RECORD`) plus
raw payload bytes straight into a free slot and sends only a tiny
``(slot, count)`` descriptor over the queue; the worker parses records
in place, feeds :meth:`PartialState.consume_lane_records` on a
:class:`~repro.core.batchlane.BatchLane`, and returns the slot number
on an ack queue.  Nothing per-packet is pickled.  A host that cannot
allocate the rings runs the in-process loop instead
(:func:`~repro.core.pipeline.run_serial`) — the same state by
construction, and faster than any transport that pickles packets.

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
from repro.net.packet import KIND_ICMP, KIND_UDP
from repro.core.batchlane import BatchLane
from repro.core.pipeline import AnalysisConfig, PartialState, run_serial

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

_GOLDEN = 0x9E3779B1  # Fibonacci-hash multiplier: mixes clustered IPs


def shard_of(source: int, workers: int) -> int:
    """Map a source IP to its shard (stable hash partition)."""
    return ((source * _GOLDEN) & 0xFFFFFFFF) % workers


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

#: slots per worker ring — bounds in-flight batches, parent-side
#: memory, and the backpressure on a shard that falls behind.
RING_SLOTS = 8
#: slot byte size; one batch must fit.  Flush early once a slot cannot
#: take another worst-case record (30 B header + 64 KiB payload).
SLOT_SIZE = 1 << 20
_FLUSH_WATERMARK = SLOT_SIZE - (_SHM_RECORD.size + 0x10000)


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


def allocate_segments(count: int) -> Optional[list]:
    """``count`` parent-owned ring segments, or ``None`` when shared
    memory cannot back all of them — whatever was created before the
    failure is unlinked first, so a failed allocation leaves nothing
    behind."""
    if _shared_memory is None:
        return None
    segments: list = []
    try:
        for _ in range(count):
            segments.append(
                _shared_memory.SharedMemory(
                    create=True, size=RING_SLOTS * SLOT_SIZE
                )
            )
    except (OSError, ValueError):
        release_segments(segments)
        return None
    return segments


def release_segments(segments: list) -> None:
    """Close and unlink parent-owned ring segments."""
    for segment in segments:
        try:
            segment.close()
        except (OSError, BufferError):  # pragma: no cover - double close
            pass
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


def _acquire_slot(free, ack_queue, process) -> int:
    """Next free slot of one ring, recycling acked ones; notices a
    dead worker."""
    while True:
        try:
            free.append(ack_queue.get_nowait())
        except queue_module.Empty:
            break
    if free:
        return free.popleft()
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


def _shard_worker(
    index,
    config,
    shm_name,
    in_queue,
    ack_queue,
    out_queue,
    metrics_enabled=False,
) -> None:
    """Consume ``(slot, count)`` descriptors until the ``None``
    sentinel, parsing scalar records straight out of the shared segment
    and feeding the batch fast lane; each drained slot is acked back to
    the parent for reuse.  Ships the flushed partial state (plus a
    metrics snapshot) to the parent.

    The fork start method copies the parent's registry values into the
    child, so the first thing a worker does is reset its registry —
    the snapshot it ships then carries only this worker's deltas and
    the parent's merge is exactly-once by construction.
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
            offset = slot * SLOT_SIZE
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

    A host without usable shared memory gets the in-process loop — the
    identical state, with no second transport kept alive for the case.
    """
    workers = max(1, int(workers))
    segments = allocate_segments(workers)
    if segments is None:
        return run_serial(stream, config)
    batch = int(batch_size or DEFAULT_BATCH)
    ctx = multiprocessing.get_context(start_method or _default_start_method())
    in_queues = [ctx.Queue(maxsize=RING_SLOTS + 1) for _ in range(workers)]
    ack_queues = [ctx.Queue() for _ in range(workers)]
    out_queue = ctx.Queue()
    processes = [
        ctx.Process(
            target=_shard_worker,
            args=(
                index,
                config,
                segments[index].name,
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
        free = [collections.deque(range(RING_SLOTS)) for _ in range(workers)]
        buffers = [bytearray() for _ in range(workers)]
        counts = [0] * workers
        dissect = config.dissect_payloads
        pack = _SHM_RECORD.pack

        def flush(shard: int) -> None:
            slot = _acquire_slot(free[shard], ack_queues[shard], processes[shard])
            data = buffers[shard]
            base = slot * SLOT_SIZE
            segments[shard].buf[base : base + len(data)] = data
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
    except BaseException:
        # the stream, a worker or the user interrupted the feed: workers
        # blocked on their queue will never see a sentinel, so stop them
        # before the join below waits on them
        for process in processes:
            process.terminate()
        raise
    finally:
        for process in processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
        release_segments(segments)
    return _merge_results(states, snapshots, workers)

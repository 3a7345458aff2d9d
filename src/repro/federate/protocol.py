"""The federation wire protocol: checksummed, versioned snapshot frames.

A vantage ships its closed analysis state to the aggregator as a
sequence of *frames* (:func:`encode_vantage`).  Each frame is
self-delimiting and individually checksummed, so a receiver can skip
damage without losing the rest of the stream — the same lenient
skip-and-count contract the pcap reader honors for corrupt capture
records.

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     magic        b"QSFD"
    4       1     protocol     PROTOCOL_VERSION (frame format)
    5       1     kind         code of one of FRAME_KINDS
    6       4     sequence     per-vantage monotonically increasing
    10      8     length       payload bytes that follow the header
    18      4     crc32        zlib.crc32 of the payload
    22      ...   payload

Payloads are either JSON (``hello``/``bye`` — the schema-version
handshake and the closing manifest) or pickles (``final-state``
carries the vantage's closed :class:`~repro.core.pipeline.PartialState`,
``obs`` a registry snapshot dict).
``SCHEMA_VERSION`` governs the pickled payload schema and travels in
the ``hello`` frame; the aggregator rejects a vantage whose schema
does not match instead of unpickling blind.

:class:`FrameDecoder` is the lenient receiving side: feed it bytes in
any chunking, get complete frames out, and read ``corrupt_frames`` for
how many damaged or truncated frames were skipped.  Decoding **never
raises** on damage: a bad magic resynchronizes to the next magic, a
bad checksum skips the declared frame, and a partial trailing frame
counts as truncated when the stream closes.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import obs

#: frame container format version (the header above).
PROTOCOL_VERSION = 1
#: pickled payload schema version (the handshake value in ``hello``).
#: 2: ``TimeoutSweep`` counts sub-minute gaps, ``Sessionizer.gaps`` is gone.
#: 3: ``TimeoutSweep`` keeps per-source runs, not last-seen + long gaps.
SCHEMA_VERSION = 3

MAGIC = b"QSFD"

HELLO = "hello"
FINAL_STATE = "final-state"
OBS = "obs"
BYE = "bye"

#: the code byte of each kind is part of the spool format: 2 and 4 (the
#: retired interim ``state`` and ``sketch`` frames) are never reassigned,
#: so kept spools stay readable and a stream that carries one decodes it
#: as damage.
_KIND_CODES = {HELLO: 1, FINAL_STATE: 3, OBS: 5, BYE: 6}
FRAME_KINDS = tuple(_KIND_CODES)
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

_HEADER = struct.Struct(">4sBBIQI")
HEADER_SIZE = _HEADER.size

#: hard ceiling on a single frame payload — anything larger is treated
#: as a corrupt length field during resync, not an allocation request.
MAX_PAYLOAD = 1 << 30

M_FRAMES = obs.counter(
    "repro_federate_frames_total",
    "federation frames decoded by a receiver, per frame kind",
    labels=("kind",),
)
M_BYTES = obs.counter(
    "repro_federate_bytes_total",
    "federation frame bytes received (headers + payloads)",
)
M_CORRUPT = obs.counter(
    "repro_federate_corrupt_frames_total",
    "corrupt or truncated federation frames skipped by receivers",
)


class ProtocolError(ValueError):
    """A sender-side protocol violation (receivers never raise this
    for wire damage — damage is counted and skipped)."""


@dataclass(frozen=True)
class Frame:
    """One decoded federation frame."""

    kind: str
    seq: int
    payload: bytes

    def json(self) -> dict:
        return json.loads(self.payload.decode("utf-8"))

    def unpickle(self):
        return pickle.loads(self.payload)


def encode_frame(kind: str, payload: bytes, seq: int = 0) -> bytes:
    """A complete wire frame for ``payload``."""
    code = _KIND_CODES.get(kind)
    if code is None:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload over {MAX_PAYLOAD} bytes")
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, code, seq & 0xFFFFFFFF, len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    return header + payload


def hello_frame(vantage: str, prefix: str, seq: int = 0) -> bytes:
    """The handshake frame opening every vantage stream."""
    payload = json.dumps(
        {"schema": SCHEMA_VERSION, "vantage": vantage, "prefix": prefix},
        sort_keys=True,
    ).encode("utf-8")
    return encode_frame(HELLO, payload, seq)


def bye_frame(frames_sent: int, packets: int, seq: int) -> bytes:
    """The closing manifest: what the vantage believes it shipped."""
    payload = json.dumps(
        {"frames": frames_sent, "packets": packets}, sort_keys=True
    ).encode("utf-8")
    return encode_frame(BYE, payload, seq)


def pickle_frame(kind: str, obj, seq: int) -> bytes:
    """A frame carrying a pickled snapshot payload."""
    return encode_frame(
        kind, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), seq
    )


def encode_vantage(name: str, prefix: str, state, snapshot) -> list:
    """One vantage's whole stream: ``hello``, its closed ``state`` in a
    ``final-state``, the metrics ``snapshot`` in an ``obs`` frame unless
    it is ``None``, and the ``bye`` manifest last."""
    frames = [hello_frame(name, prefix, 0), pickle_frame(FINAL_STATE, state, 1)]
    if snapshot is not None:
        frames.append(pickle_frame(OBS, snapshot, 2))
    frames.append(bye_frame(len(frames) + 1, state.total_packets, len(frames)))
    return frames


class FrameDecoder:
    """Incremental, damage-tolerant frame decoder.

    ``feed(data)`` buffers bytes and yields every complete, valid
    frame; ``finish()`` flags a dangling partial frame as truncated.
    Damage handling mirrors the lenient pcap reader:

    - header not starting with the magic → scan forward to the next
      magic, count one corrupt frame for the skipped run;
    - bad version / unknown kind / absurd length → count one, drop the
      magic, rescan;
    - checksum mismatch → count one, skip the declared frame (the
      header was structurally valid, so the length is trusted; if it
      lied, the next magic scan recovers);
    - bytes left after ``finish()`` → one truncated frame.

    ``corrupt_frames`` is the skip count; the module counters
    (``repro_federate_*``) are incremented as frames decode.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.corrupt_frames = 0
        #: inside a damage run already counted — suppresses recounting
        #: the same run across feed() calls and rescans.
        self._resyncing = False

    def _count_corrupt(self, n: int = 1) -> None:
        self.corrupt_frames += n
        if obs.enabled():
            M_CORRUPT.inc(n)

    def feed(self, data: bytes) -> Iterator[Frame]:
        """Buffer ``data`` and yield every frame it completes."""
        self._buffer.extend(data)
        buffer = self._buffer
        metrics = obs.enabled()
        while True:
            if len(buffer) < HEADER_SIZE:
                return
            if not buffer.startswith(MAGIC):
                # resync: one corrupt run, however long, however chunked
                if not self._resyncing:
                    self._count_corrupt()
                    self._resyncing = True
                index = buffer.find(MAGIC, 1)
                if index < 0:
                    # keep a magic-sized tail in case the magic is split
                    del buffer[: max(0, len(buffer) - (len(MAGIC) - 1))]
                    return
                del buffer[:index]
                self._resyncing = False
                continue
            magic, version, code, seq, length, crc = _HEADER.unpack_from(buffer)
            kind = _CODE_KINDS.get(code)
            if version != PROTOCOL_VERSION or kind is None or length > MAX_PAYLOAD:
                self._count_corrupt()
                del buffer[: len(MAGIC)]
                self._resyncing = True  # the rescan is part of this run
                continue
            if len(buffer) < HEADER_SIZE + length:
                return  # wait for the rest of the frame
            payload = bytes(buffer[HEADER_SIZE : HEADER_SIZE + length])
            del buffer[: HEADER_SIZE + length]
            self._resyncing = False
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                self._count_corrupt()
                continue
            if metrics:
                M_FRAMES.inc(kind=kind)
                M_BYTES.inc(HEADER_SIZE + length)
            yield Frame(kind=kind, seq=seq, payload=payload)

    def finish(self) -> None:
        """End of stream: a dangling partial frame counts as truncated."""
        if self._buffer and not self._resyncing:
            self._count_corrupt()
        self._buffer.clear()
        self._resyncing = False

"""Classic libpcap file format: one reader, one bulk writer.

The format (the pre-pcapng ``.pcap``) is a 24-byte global header and a
16-byte per-record header; we write linktype 101 (``LINKTYPE_RAW``,
packets start at the IPv4 header) so records map one-to-one onto
:class:`~repro.net.packet.CapturedPacket`.  Both byte orders and both
microsecond/nanosecond magics are accepted on read.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union

from repro.net.packet import CapturedPacket
from repro.util.batching import BATCH_SIZE, batched

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
LINKTYPE_RAW = 101
SNAPLEN = 65535

_GLOBAL = struct.Struct("<IHHiIII")
_GLOBAL_BE = struct.Struct(">IHHiIII")
_RECORD = struct.Struct("<IIII")
_RECORD_BE = struct.Struct(">IIII")
_U32_LE = struct.Struct("<I")
_U32_BE = struct.Struct(">I")
#: the little-endian magics as read by a big-endian unpack (and vice
#: versa): a pcap written on the other byte order.
_SWAPPED_MAGICS = {
    _U32_BE.unpack(_U32_LE.pack(MAGIC_MICROS))[0]: MAGIC_MICROS,
    _U32_BE.unpack(_U32_LE.pack(MAGIC_NANOS))[0]: MAGIC_NANOS,
}


class PcapFormatError(ValueError):
    """Raised for malformed pcap files."""


class PcapReader:
    """Iterates :class:`CapturedPacket` records from a pcap file.

    With ``tail=True`` (requires a seekable stream) a truncated
    trailing record — or a not-yet-complete global header — is treated
    as *not yet written* instead of malformed: the stream position is
    rewound to the start of the incomplete item and iteration stops
    cleanly.  Iterating again after the file has grown resumes exactly
    where the reader left off, so a writer-in-progress capture can be
    tail-followed (see :func:`repro.stream.feeds.follow_pcap`).
    A genuinely bad magic number still raises in both modes, and so,
    without ``lenient``, does a record header with an implausible
    caplen/origlen/fraction (the error names its byte offset).

    With ``lenient=True`` (also requires a seekable stream) *interior*
    corruption is survived instead of fatal: a record header with an
    implausible caplen/origlen/fraction triggers a forward resync scan
    for the next verifiable record boundary, a record body that is not
    a parseable packet is skipped, and a truncated final record ends
    iteration — each bumps the public ``corrupt_records`` counter.
    Combined with ``tail=True``, truncation still means "not yet
    written" (rewind and wait) while implausible headers resync; a
    capture being corrupted *and* appended to stays followable.
    """

    def __init__(
        self, stream: BinaryIO, tail: bool = False, lenient: bool = False
    ) -> None:
        self._stream = stream
        self._tail = tail
        self._lenient = lenient
        self._record: Optional[struct.Struct] = None
        self._tick = 1e-6
        self._frac_limit = 1_000_000
        self.linktype: Optional[int] = None
        #: records skipped by lenient mode (bad header, unparseable
        #: body, or truncated tail record)
        self.corrupt_records = 0
        if not tail:
            self._try_read_header()

    def _try_read_header(self) -> bool:
        pos = self._stream.tell() if self._tail else None
        header = self._stream.read(_GLOBAL.size)
        if len(header) < _GLOBAL.size:
            if self._tail:
                self._stream.seek(pos)
                return False
            raise PcapFormatError("truncated pcap global header")
        magic = _U32_LE.unpack_from(header)[0]
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            global_header, record = _GLOBAL, _RECORD
        elif magic in _SWAPPED_MAGICS:
            magic = _SWAPPED_MAGICS[magic]
            global_header, record = _GLOBAL_BE, _RECORD_BE
        else:
            raise PcapFormatError(f"bad pcap magic {magic:#x}")
        self._tick = 1e-9 if magic == MAGIC_NANOS else 1e-6
        self._frac_limit = 1_000_000_000 if magic == MAGIC_NANOS else 1_000_000
        fields = global_header.unpack(header)
        self.linktype = fields[6]
        self._record = record
        return True

    def __iter__(self) -> Iterator[CapturedPacket]:
        if self._record is None and not self._try_read_header():
            return
        parse = CapturedPacket.from_bytes
        tick = self._tick
        record = self._record
        stream = self._stream
        tail = self._tail
        lenient = self._lenient
        frac_limit = self._frac_limit
        while True:
            pos = stream.tell() if (tail or lenient) else None
            head = stream.read(record.size)
            if not head:
                return
            if len(head) < record.size:
                if tail:
                    stream.seek(pos)
                    return
                if lenient:
                    self.corrupt_records += 1
                    return
                raise PcapFormatError("truncated pcap record header")
            seconds, fraction, caplen, origlen = record.unpack(head)
            # inline :meth:`_plausible`: no extra call per record
            if not (0 < caplen <= origlen <= SNAPLEN and fraction < frac_limit):
                if lenient:
                    self.corrupt_records += 1
                    if not self._resync(pos + 1):
                        return
                    continue
                offset = stream.tell() - record.size
                raise PcapFormatError(
                    f"implausible pcap record header at byte {offset}: "
                    f"caplen={caplen}, origlen={origlen}"
                )
            data = stream.read(caplen)
            if len(data) < caplen:
                if tail:
                    stream.seek(pos)
                    return
                if lenient:
                    self.corrupt_records += 1
                    return
                raise PcapFormatError("truncated pcap record body")
            timestamp = seconds + fraction * tick
            if lenient:
                try:
                    packet = parse(timestamp, data)
                except ValueError:
                    self.corrupt_records += 1
                    continue
                yield packet
            else:
                try:
                    packet = parse(timestamp, data)
                except ValueError as exc:
                    offset = stream.tell() - record.size - caplen
                    raise PcapFormatError(
                        f"corrupt pcap record at byte {offset}: {exc}"
                    ) from exc
                yield packet

    def _plausible(self, fraction: int, caplen: int, origlen: int) -> bool:
        """A record header is plausible when its lengths fit the
        snaplen contract and its sub-second fraction is in range."""
        return 0 < caplen <= origlen <= SNAPLEN and fraction < self._frac_limit

    def _resync(self, search_from: int) -> bool:
        """Scan forward for the next verifiable record boundary.

        Slides a window over the stream, testing every byte offset for
        a plausible record header whose body parses as a captured
        packet and whose *successor* record is also plausible (or lands
        exactly at EOF) — checks that make accidental matches in packet
        payloads vanishingly unlikely.
        Positions the stream at the recovered boundary and returns
        True, or returns False when the rest of the file holds no
        recoverable record.
        """
        stream = self._stream
        record = self._record
        rec_size = record.size
        window = 1 << 20
        base = search_from
        stream.seek(0, 2)
        eof = stream.tell()
        while True:
            stream.seek(base)
            chunk = stream.read(window + rec_size)
            if len(chunk) < rec_size:
                return False
            limit = min(len(chunk) - rec_size, window - 1)
            for i in range(limit + 1):
                _s, fraction, caplen, origlen = record.unpack_from(chunk, i)
                if not self._plausible(fraction, caplen, origlen):
                    continue
                candidate = base + i
                if self._verify_candidate(candidate, rec_size, caplen, eof):
                    stream.seek(candidate)
                    return True
            if len(chunk) < window + rec_size:
                return False
            base += window

    def _verify_candidate(
        self, candidate: int, rec_size: int, caplen: int, eof: int
    ) -> bool:
        stream = self._stream
        end = candidate + rec_size + caplen
        if end > eof:
            # the candidate's own body would run past EOF — a payload
            # byte masquerading as a header, not a recoverable record
            return False
        stream.seek(candidate + rec_size)
        body = stream.read(caplen)
        try:
            CapturedPacket.from_bytes(0.0, body)
        except ValueError:
            # plausible framing but not a packet: keep scanning (a
            # corrupt-bodied record would be skipped anyway)
            return False
        if end == eof:
            return True  # record ends exactly at EOF
        head = stream.read(rec_size)
        if len(head) < rec_size:
            # truncated successor: accept; the main loop counts it
            return True
        _s, fraction, next_caplen, next_origlen = self._record.unpack(head)
        return self._plausible(fraction, next_caplen, next_origlen)


#: chunked-write threshold for :func:`write_records` — large enough to
#: amortize syscalls, small enough to keep the buffer cache-resident.
_WRITE_CHUNK = 1 << 20


def write_records(
    path: Union[str, Path], items: Iterable[tuple]
) -> int:
    """Write ``(timestamp, wire_bytes)`` pairs to ``path`` as a pcap;
    returns the record count.

    The one pcap writer: one reused bytearray accumulates record headers
    and packet bytes and is flushed in ~1 MiB chunks, so the per-packet
    cost is two appends instead of two ``write`` calls.  Timestamps are
    rounded to microseconds, a rounding that reaches 1e6 carrying into
    the seconds field (``tests/test_pcap_bulk.py`` pins the layout).
    ``wire_bytes`` may be a borrowed/mutable buffer (e.g.
    ``genlane.wire_items``): it is copied into the chunk buffer before
    the next item is drawn.
    """
    count = 0
    pack = _RECORD.pack
    buffer = bytearray()
    with open(path, "wb") as stream:
        stream.write(_GLOBAL.pack(MAGIC_MICROS, 2, 4, 0, 0, SNAPLEN, LINKTYPE_RAW))
        for timestamp, data in items:
            seconds = int(timestamp)
            micros = int(round((timestamp - seconds) * 1e6))
            if micros >= 1_000_000:
                seconds += 1
                micros -= 1_000_000
            length = len(data)
            buffer += pack(seconds, micros, length, length)
            buffer += data
            count += 1
            if len(buffer) >= _WRITE_CHUNK:
                stream.write(buffer)
                buffer.clear()
        if buffer:
            stream.write(buffer)
    return count


def read_pcap(
    path: Union[str, Path], lenient: bool = False
) -> Iterator[CapturedPacket]:
    """Yield packets from a pcap file (file stays open while iterating)."""
    with open(path, "rb") as stream:
        yield from PcapReader(stream, lenient=lenient)


def read_pcap_batches(
    path: Union[str, Path], batch_size: int = BATCH_SIZE
) -> Iterator[list]:
    """Yield packets from a pcap file in time-ordered batches: the
    batch feed of the online monitor and the benchmark's capture
    workloads."""
    return batched(read_pcap(path), batch_size)

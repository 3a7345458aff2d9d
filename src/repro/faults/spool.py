"""Federation spool corruption — the frame-stream twin of
:mod:`repro.faults.pcap`.

Walks the :mod:`repro.federate.protocol` frame framing of a spooled
byte string and damages frames at a seeded per-frame rate, so the
lenient :class:`~repro.federate.protocol.FrameDecoder` skip-and-count
path can be exercised with a known answer: every corruption applied
here is recoverable and costs the decoder exactly one
``corrupt_frames`` tick, so a fully lenient read reports exactly the
returned count.
"""

from __future__ import annotations

from repro.federate.protocol import HEADER_SIZE, MAGIC, _CODE_KINDS, _HEADER
from repro.util.rng import SeededRng


def corrupt_frame_bytes(
    data: bytes,
    rng: SeededRng,
    rate: float = 0.1,
    kinds: tuple = ("header", "payload"),
    spare_kinds: tuple = (),
) -> tuple[bytes, int]:
    """Corrupt a federation frame stream in memory; returns ``(bytes, n)``.

    With probability ``rate`` per frame, applies one corruption drawn
    from ``kinds``:

    - ``"header"`` — clobber the protocol-version byte (the decoder
      rejects the header, drops the magic, and rescans);
    - ``"payload"`` — flip a payload byte (or, for empty payloads, a
      checksum byte) so the CRC no longer matches.

    Both are *countable*: the decoder charges exactly one corrupt
    frame per damaged frame, even for adjacent damage, so ``n`` is the
    exact expected ``corrupt_frames``.  Frames whose kind name is in
    ``spare_kinds`` are never touched — equivalence tests spare the
    ``final-state``/``bye`` frames and damage the ``hello``, keeping
    the merged result intact while the skip path still fires.
    """
    if not kinds:
        raise ValueError("kinds must name at least one corruption")
    out = bytearray(data)
    offset = 0
    corrupted = 0
    while offset + HEADER_SIZE <= len(data):
        magic, _version, code, _seq, length, _crc = _HEADER.unpack_from(
            data, offset
        )
        if magic != MAGIC:
            break  # already out of framing: leave the tail alone
        frame_end = offset + HEADER_SIZE + length
        if frame_end > len(data):
            break  # truncated tail frame: leave as-is
        kind = _CODE_KINDS.get(code)
        if kind not in spare_kinds and rng.random() < rate:
            choice = kinds[0] if len(kinds) == 1 else rng.choice(list(kinds))
            if choice == "header":
                out[offset + 4] = 0xFF  # impossible protocol version
            elif choice == "payload":
                if length:
                    out[offset + HEADER_SIZE] ^= 0xFF
                else:
                    out[offset + HEADER_SIZE - 1] ^= 0xFF  # last CRC byte
            else:
                raise ValueError(f"unknown corruption kind {choice!r}")
            corrupted += 1
        offset = frame_end
    return bytes(out), corrupted

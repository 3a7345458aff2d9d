"""Federation transports: file spool and TCP socket pair.

Two ways to move :mod:`repro.federate.protocol` frames from vantages
to the aggregator:

- **File spool** — each vantage appends its frames to
  ``<spool>/<name>.qsf``; the aggregator globs ``*.qsf`` and decodes
  each file as one stream.  No sockets, no ordering assumptions, works
  offline and in CI, and a half-written file just shows up as one
  truncated frame (counted, not raised).
- **TCP sockets** — the aggregator binds a listener (port ``0`` picks
  a free port), each vantage connects and streams its frames.
  Connection setup retries with seeded jittered backoff so a vantage
  started before the aggregator converges instead of dying.

Both sides share :class:`~repro.federate.protocol.FrameDecoder`, so
the lenient damage contract is identical: corrupt frames are counted
and skipped, never raised.
"""

from __future__ import annotations

import os
import socket
from typing import Callable, Iterator, Optional

from repro.federate.protocol import Frame, FrameDecoder
from repro.util.rng import SeededRng

#: spool file suffix — one file per vantage stream.
SPOOL_SUFFIX = ".qsf"


class TransportError(OSError):
    """Raised when a transport cannot be established (connect retries
    exhausted, spool path unusable) — never for in-stream damage."""


class SpoolWriter:
    """Append-only frame spool for one vantage stream."""

    def __init__(self, directory: str, name: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, name + SPOOL_SUFFIX)
        self.frames_written = 0
        self.bytes_written = 0
        self._file = open(self.path, "ab")

    def send(self, frame_bytes: bytes) -> None:
        self._file.write(frame_bytes)
        self.frames_written += 1
        self.bytes_written += len(frame_bytes)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "SpoolWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SpoolReader:
    """Decode every vantage stream spooled into a directory.

    ``streams()`` yields ``(stream_name, frames)`` per ``*.qsf`` file
    in sorted name order; ``corrupt_frames`` accumulates the lenient
    skip count across all files.
    """

    CHUNK = 1 << 16

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.corrupt_frames = 0
        self.frames_decoded = 0
        self.bytes_received = 0

    def stream_names(self) -> list:
        if not os.path.isdir(self.directory):
            raise TransportError(f"spool directory {self.directory!r} missing")
        return sorted(
            entry[: -len(SPOOL_SUFFIX)]
            for entry in os.listdir(self.directory)
            if entry.endswith(SPOOL_SUFFIX)
        )

    def read_stream(self, name: str) -> list:
        """All valid frames of one spooled stream, damage skipped."""
        decoder = FrameDecoder()
        frames: list = []
        with open(os.path.join(self.directory, name + SPOOL_SUFFIX), "rb") as fh:
            while True:
                chunk = fh.read(self.CHUNK)
                if not chunk:
                    break
                frames.extend(decoder.feed(chunk))
        decoder.finish()
        self.corrupt_frames += decoder.corrupt_frames
        self.frames_decoded += decoder.frames_decoded
        self.bytes_received += decoder.bytes_received
        return frames

    def streams(self) -> Iterator[tuple]:
        for name in self.stream_names():
            yield name, self.read_stream(name)


def connect_with_retry(
    host: str,
    port: int,
    attempts: int = 8,
    base_delay: float = 0.05,
    seed: int = 20210401,
    sleep: Callable[[float], None] = None,
) -> socket.socket:
    """Connect to the aggregator, retrying with jittered backoff.

    Vantages and aggregator start in arbitrary order; a refused
    connection sleeps ``base_delay * 2**attempt`` scaled by a seeded
    jitter in ``[0.5, 1.0)`` and tries again.  After ``attempts``
    failures the last error is re-raised as :class:`TransportError`.
    """
    import time

    if sleep is None:
        sleep = time.sleep
    rng = SeededRng(seed, f"federate-connect:{host}:{port}")
    last_error: Optional[Exception] = None
    for attempt in range(attempts):
        try:
            return socket.create_connection((host, port))
        except OSError as exc:
            last_error = exc
            if attempt + 1 < attempts:
                jitter = 0.5 + rng.random() / 2.0
                sleep(base_delay * (2.0 ** attempt) * jitter)
    raise TransportError(
        f"could not connect to {host}:{port} after {attempts} attempts"
    ) from last_error


class SocketSender:
    """Stream frames to the aggregator over one TCP connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.frames_written = 0
        self.bytes_written = 0

    def send(self, frame_bytes: bytes) -> None:
        self._sock.sendall(frame_bytes)
        self.frames_written += 1
        self.bytes_written += len(frame_bytes)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "SocketSender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FederationListener:
    """Aggregator-side listener accepting K vantage connections.

    Bind with ``port=0`` to let the kernel pick a free port (read it
    back from ``.port``).  ``accept_streams(k)`` accepts ``k``
    connections sequentially and decodes each connection's bytes to a
    frame list — vantage order is arrival order, which is why every
    stream self-identifies with its ``hello`` frame rather than
    relying on connection order.
    """

    CHUNK = 1 << 16

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._server.bind((host, port))
        except OSError as exc:
            self._server.close()
            raise TransportError(f"cannot bind {host}:{port}: {exc}") from exc
        self._server.listen()
        self.host, self.port = self._server.getsockname()[:2]
        self.corrupt_frames = 0
        self.frames_decoded = 0
        self.bytes_received = 0

    def accept_stream(self) -> list:
        """Accept one connection and decode it to completion."""
        conn, _addr = self._server.accept()
        decoder = FrameDecoder()
        frames: list = []
        with conn:
            while True:
                chunk = conn.recv(self.CHUNK)
                if not chunk:
                    break
                frames.extend(decoder.feed(chunk))
        decoder.finish()
        self.corrupt_frames += decoder.corrupt_frames
        self.frames_decoded += decoder.frames_decoded
        self.bytes_received += decoder.bytes_received
        return frames

    def accept_streams(self, count: int) -> Iterator[list]:
        for _ in range(count):
            yield self.accept_stream()

    def close(self) -> None:
        self._server.close()

    def __enter__(self) -> "FederationListener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

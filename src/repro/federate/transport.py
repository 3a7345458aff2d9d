"""Federation transports: file spool and TCP socket pair.

Two ways to move :mod:`repro.federate.protocol` frames from vantages
to the aggregator:

- **File spool** — each vantage's frames are written to
  ``<spool>/<name>.qsf``; the aggregator globs ``*.qsf`` and decodes
  each file as one stream.  No sockets, no ordering assumptions, works
  offline and in CI, and a half-written file just shows up as one
  truncated frame (counted, not raised).
- **TCP sockets** — the aggregator binds a listener (port ``0`` picks
  a free port), each vantage connects and sends its frames.
  Connection setup retries with seeded jittered backoff so a vantage
  started before the aggregator converges instead of dying.

Both sides share :class:`~repro.federate.protocol.FrameDecoder`, so
the lenient damage contract is identical: corrupt frames are counted
and skipped, never raised.
"""

from __future__ import annotations

import os
import socket
from functools import partial
from typing import Callable, Iterator, Optional

from repro.federate.protocol import FrameDecoder
from repro.util.rng import SeededRng

#: spool file suffix — one file per vantage stream.
SPOOL_SUFFIX = ".qsf"
#: bytes per read of a spool file or socket.
_CHUNK = 1 << 16


class TransportError(OSError):
    """Raised when a transport cannot be established (connect retries
    exhausted, spool path unusable) — never for in-stream damage."""


def _decode_stream(read) -> tuple:
    """Every valid frame of one stream, read by ``read(size)`` until it
    returns no bytes, and how many corrupt frames were skipped."""
    decoder = FrameDecoder()
    frames: list = []
    for chunk in iter(partial(read, _CHUNK), b""):
        frames.extend(decoder.feed(chunk))
    decoder.finish()
    return frames, decoder.corrupt_frames


class SpoolReader:
    """Decode every vantage stream spooled into a directory.

    ``streams()`` yields ``(stream_name, frames)`` per ``*.qsf`` file
    in sorted name order; ``corrupt_frames`` accumulates the lenient
    skip count across all files.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.corrupt_frames = 0

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
        with open(os.path.join(self.directory, name + SPOOL_SUFFIX), "rb") as fh:
            frames, corrupt = _decode_stream(fh.read)
        self.corrupt_frames += corrupt
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


class FederationListener:
    """Aggregator-side listener accepting K vantage connections.

    Bind with ``port=0`` to let the kernel pick a free port (read it
    back from ``.port``).  ``accept_streams(k)`` accepts ``k``
    connections sequentially and decodes each connection's bytes to a
    frame list — vantage order is arrival order, which is why every
    stream self-identifies with its ``hello`` frame rather than
    relying on connection order.
    """

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

    def accept_stream(self) -> list:
        """Accept one connection and decode it to completion."""
        conn, _addr = self._server.accept()
        with conn:
            frames, corrupt = _decode_stream(conn.recv)
        self.corrupt_frames += corrupt
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

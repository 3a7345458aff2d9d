"""Federation transport: the file spool.

Each vantage's :mod:`repro.federate.protocol` frames are written to
``<spool>/<name>.qsf``; the aggregator reads back exactly the streams
the run wrote, by name, and decodes each file as one stream.  No
sockets, no ordering assumptions, works offline and in CI, and a
half-written file just shows up as one truncated frame (counted, not
raised).  Every read goes through
:class:`~repro.federate.protocol.FrameDecoder`, so corrupt frames are
counted and skipped, never raised.
"""

from __future__ import annotations

import os
from functools import partial

from repro.federate.protocol import FrameDecoder

#: spool file suffix — one file per vantage stream.
SPOOL_SUFFIX = ".qsf"
#: bytes per read of a spool file.
_CHUNK = 1 << 16


class SpoolReader:
    """Decode vantage streams spooled into a directory, by name.

    ``corrupt_frames`` accumulates the lenient skip count across every
    stream read.  A stream whose file is missing raises
    :class:`FileNotFoundError`.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.corrupt_frames = 0

    def read_stream(self, name: str) -> list:
        """All valid frames of one spooled stream, damage skipped."""
        decoder = FrameDecoder()
        frames: list = []
        with open(os.path.join(self.directory, name + SPOOL_SUFFIX), "rb") as fh:
            for chunk in iter(partial(fh.read, _CHUNK), b""):
                frames.extend(decoder.feed(chunk))
        decoder.finish()
        self.corrupt_frames += decoder.corrupt_frames
        return frames

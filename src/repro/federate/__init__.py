"""Multi-telescope federation: distributed capture, one global result.

The paper measures one /9 telescope.  This package asks the follow-up
question: what would K *smaller* telescopes, each watching one tile of
the prefix, see — and can their observations be merged back into
exactly the single-telescope analysis?

A vantage is a ``--workers`` part whose tap is retargeted to one tile:
the serial fused loop over the tile's capture, one closed
:class:`~repro.core.pipeline.PartialState` and metrics snapshot out.

- :mod:`repro.federate.protocol` — the checksummed, versioned frame
  format, and :func:`encode_vantage`, the one encoding of a vantage's
  state and snapshot;
- :mod:`repro.federate.transport` — the file spool's reader, which
  reads back the streams a run wrote by name, with the lenient
  skip-and-count damage contract;
- :mod:`repro.federate.merge` — the destination tiles, and
  :func:`spool_vantages`, which runs K local vantages through the
  ``--workers`` process pool; vantage states merge through the
  pipeline's one merge (:func:`repro.core.pipeline.merge_states`);
- :mod:`repro.federate.aggregate` — the aggregator: global result,
  cross-telescope flood dedup, per-vantage differential, and the
  extrapolation check.

Design notes and the dedup semantics live in ``docs/FEDERATION.md``;
bit-exactness against a single telescope is pinned by
``tests/test_federation_equivalence.py``.
"""

from repro.federate.aggregate import (
    Aggregator,
    FederationResult,
    GlobalFlood,
    VantageStream,
)
from repro.federate.merge import spool_vantages, tile_prefixes
from repro.federate.protocol import (
    FRAME_KINDS,
    Frame,
    FrameDecoder,
    PROTOCOL_VERSION,
    ProtocolError,
    SCHEMA_VERSION,
    encode_frame,
    encode_vantage,
)
from repro.federate.transport import SpoolReader

__all__ = [
    "Aggregator",
    "FederationResult",
    "FRAME_KINDS",
    "Frame",
    "FrameDecoder",
    "GlobalFlood",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SCHEMA_VERSION",
    "SpoolReader",
    "VantageStream",
    "encode_frame",
    "encode_vantage",
    "spool_vantages",
    "tile_prefixes",
]

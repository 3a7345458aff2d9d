"""Multi-telescope federation: distributed capture, one global result.

The paper measures one /9 telescope.  This package asks the follow-up
question: what would K *smaller* telescopes, each watching one tile of
the prefix, see — and can their observations be merged back into
exactly the single-telescope analysis?

- :mod:`repro.federate.protocol` — the checksummed, versioned frame
  format vantages ship snapshots in;
- :mod:`repro.federate.transport` — file-spool and TCP transports with
  the lenient skip-and-count damage contract;
- :mod:`repro.federate.vantage` — one tile's local analysis run;
- :mod:`repro.federate.merge` — the destination tiles; vantage states
  merge through the pipeline's one merge
  (:func:`repro.core.pipeline.merge_states`);
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
from repro.federate.merge import tile_prefixes
from repro.federate.protocol import (
    FRAME_KINDS,
    Frame,
    FrameDecoder,
    PROTOCOL_VERSION,
    ProtocolError,
    SCHEMA_VERSION,
    encode_frame,
)
from repro.federate.transport import (
    FederationListener,
    SocketSender,
    SpoolReader,
    SpoolWriter,
    TransportError,
    connect_with_retry,
)
from repro.federate.vantage import Vantage, VantageConfig

__all__ = [
    "Aggregator",
    "FederationResult",
    "FederationListener",
    "FRAME_KINDS",
    "Frame",
    "FrameDecoder",
    "GlobalFlood",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SCHEMA_VERSION",
    "SocketSender",
    "SpoolReader",
    "SpoolWriter",
    "TransportError",
    "Vantage",
    "VantageConfig",
    "VantageStream",
    "connect_with_retry",
    "encode_frame",
    "tile_prefixes",
]

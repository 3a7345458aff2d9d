"""Online telescope monitoring: the streaming layer over the batch core.

The batch pipeline (:mod:`repro.core.pipeline`) answers "what happened
in this capture" once, at finalization.  This package answers it *as it
happens*: :class:`StreamAnalyzer` runs the same classification and
sessionization incrementally over an unbounded feed, closes sessions
behind an event-time watermark, raises typed
:class:`~repro.stream.events.FloodAlert` /
:class:`~repro.stream.events.AttackEnded` events the moment the Moore
thresholds are crossed, correlates vectors online against a sliding
flood window, and — in bounded mode — keeps memory proportional to
*active* sources instead of capture size.

On any finite capture the exact mode reproduces the batch
``PipelineResult`` bit for bit (``tests/test_stream_equivalence.py``),
the same way the parallel runner pins serial ≡ parallel.

``python -m repro watch`` is the CLI front end; its feeds are
``Scenario.live_batches`` (live simulator) and
:func:`repro.stream.feeds.follow_pcap` (tail-followed pcap).
"""

from repro.stream.analyzer import (
    STREAM_MODES,
    StreamAnalyzer,
    StreamConfig,
    StreamResultUnavailable,
    StreamTelemetry,
)
from repro.stream.correlate import LiveFlood, OnlineCorrelator
from repro.stream.events import AttackEnded, FloodAlert
from repro.stream.feeds import follow_pcap
from repro.stream.sketch import (
    CountMinSketch,
    HyperLogLog,
    SketchTier,
    SpaceSaving,
)

__all__ = [
    "AttackEnded",
    "CountMinSketch",
    "FloodAlert",
    "HyperLogLog",
    "LiveFlood",
    "OnlineCorrelator",
    "STREAM_MODES",
    "SketchTier",
    "SpaceSaving",
    "StreamAnalyzer",
    "StreamConfig",
    "StreamResultUnavailable",
    "StreamTelemetry",
    "follow_pcap",
]

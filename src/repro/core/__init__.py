"""QUICsand analysis core — the paper's contribution.

Pipeline stages, mirroring Section 4 of the paper:

1. :mod:`repro.core.classify` — select UDP/443 traffic, validate it
   with the from-scratch QUIC dissector (:mod:`repro.core.dissect`),
   split requests (dst 443) from responses/backscatter (src 443), and
   classify TCP/ICMP backscatter alongside.
2. :mod:`repro.core.sessions` — aggregate packets into per-source
   sessions under an inactivity timeout (Figure 4's knee at 5 min).
3. :mod:`repro.core.dos` — apply the Moore et al. thresholds
   (>25 packets, >60 s, >0.5 max-pps over 1-minute slots) to find
   flood events, with the threshold-weight sweep of Appendix B.
4. :mod:`repro.core.multivector` — correlate QUIC floods with TCP/ICMP
   floods per victim: concurrent / sequential / isolated, overlap
   shares and gaps (Figure 8, Appendix C).
5. :mod:`repro.core.victims` — victim attribution: census correlation,
   provider shares, attacks-per-victim distribution (Figures 6, 9).
6. :mod:`repro.core.scid` — connection-ID and spoofing analysis per
   attack (Figure 9).
7. :mod:`repro.core.retry_audit` — passive RETRY census plus active
   probing of top victims (Section 6).
8. :mod:`repro.core.pipeline` — single-pass streaming orchestration
   over a packet stream, producing a :class:`~repro.core.pipeline.
   PipelineResult` that the report renders from.
9. :mod:`repro.core.parallel` — partitioned parallel runs: each worker
   runs the serial loop over one part of a scenario's generation units
   and the parent merges the closed states once
   (:func:`~repro.core.pipeline.merge_states`), so serial and parallel
   runs produce identical results.

The package loads the serial path only: ``parallel`` (with
``multiprocessing``), ``export`` (``csv``), ``extrapolate`` and
``scanprofile`` load where a run imports them by name.
"""

from repro.core.classify import PacketClass, TrafficClassifier
from repro.core.dissect import DissectedPacket, QuicDissector
from repro.core.dos import DosDetector, DosThresholds, FloodAttack
from repro.core.multivector import MultiVectorAnalysis, correlate_attacks
from repro.core.pipeline import (
    AnalysisConfig,
    PartialState,
    PipelineResult,
    QuicsandPipeline,
    merge_states,
)
from repro.core.sessions import Session, Sessionizer, TimeoutSweep
from repro.core.report import build_report
from repro.core.victims import VictimAnalysis, analyze_victims

__all__ = [
    "PacketClass",
    "TrafficClassifier",
    "DissectedPacket",
    "QuicDissector",
    "DosDetector",
    "DosThresholds",
    "FloodAttack",
    "MultiVectorAnalysis",
    "correlate_attacks",
    "AnalysisConfig",
    "PartialState",
    "PipelineResult",
    "QuicsandPipeline",
    "merge_states",
    "Session",
    "Sessionizer",
    "TimeoutSweep",
    "build_report",
    "VictimAnalysis",
    "analyze_victims",
]

"""Scanner behaviour profiling (the reconnaissance half of the paper).

Section 5.1 separates the QUIC scanning ecosystem into periodic
full-IPv4 research sweeps (TUM, RWTH — "each Internet-wide,
single-packet scan sends 2^23 packets to the telescope") and
non-benign bot scans.  This module quantifies what distinguishes them,
in the style of Richter & Berger's "Scanning the Scanners":

- **coverage** — fraction of distinct telescope addresses a source hit;
  a full sweep approaches 1.0 (per sweep), a bot probing random
  addresses stays near zero;
- **sweep detection** — inter-probe silence splits a source's activity
  into sweeps; their count, size and spacing expose periodicity;
- **port discipline** — research tooling reuses narrow source-port
  ranges; bots use ephemeral ports per session.

The profiler is given the set of sources to track (the pipeline's
heavy hitters), so memory stays bounded no matter the capture size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.net.addresses import IPv4Network
from repro.net.packet import CapturedPacket
from repro.util.stats import median


@dataclass
class ScanProfile:
    """Aggregated behaviour of one scanning source."""

    source: int
    packet_count: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0
    unique_dsts: set = field(default_factory=set)
    src_ports: set = field(default_factory=set)
    sweep_boundaries: list = field(default_factory=list)
    #: seconds of *active* scanning (inter-sweep silences excluded).
    active_seconds: float = 0.0
    _last_packet_ts: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.last_ts - self.first_ts

    def coverage(self, telescope: IPv4Network) -> float:
        """Distinct telescope addresses hit / telescope size."""
        return len(self.unique_dsts) / telescope.size

    @property
    def sweep_count(self) -> int:
        return len(self.sweep_boundaries) + 1 if self.packet_count else 0

    def sweep_interval(self) -> Optional[float]:
        """Median spacing between sweep starts (None below 2 sweeps)."""
        if len(self.sweep_boundaries) < 1:
            return None
        starts = [self.first_ts] + [start for _end, start in self.sweep_boundaries]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        return median(gaps) if gaps else None

    @property
    def active_rate(self) -> float:
        """Probe rate while actually scanning — the per-sweep rate for
        periodic scanners, regardless of how long they sleep between
        sweeps."""
        if self.active_seconds <= 0:
            return float(self.packet_count)
        return self.packet_count / self.active_seconds


@dataclass
class ScanClassification:
    """Verdict for one source."""

    source: int
    profile: ScanProfile
    is_research_sweep: bool
    reasons: list


class ScanProfiler:
    """Builds :class:`ScanProfile` objects for selected sources."""

    def __init__(
        self,
        sources: Iterable[int],
        telescope: IPv4Network,
        sweep_gap: float = 3600.0,
    ) -> None:
        self.telescope = telescope
        self.sweep_gap = sweep_gap
        self._profiles = {source: ScanProfile(source=source) for source in sources}

    def observe(self, packet: CapturedPacket) -> None:
        profile = self._profiles.get(packet.src)
        if profile is None:
            return
        if profile.packet_count == 0:
            profile.first_ts = packet.timestamp
        elif profile._last_packet_ts is not None:
            gap = packet.timestamp - profile._last_packet_ts
            if gap > self.sweep_gap:
                profile.sweep_boundaries.append(
                    (profile._last_packet_ts, packet.timestamp)
                )
            else:
                profile.active_seconds += gap
        profile.last_ts = packet.timestamp
        profile._last_packet_ts = packet.timestamp
        profile.packet_count += 1
        profile.unique_dsts.add(packet.dst)
        if packet.src_port is not None:
            profile.src_ports.add(packet.src_port)

    def profile(self, source: int) -> Optional[ScanProfile]:
        return self._profiles.get(source)

    def profiles(self) -> list:
        return [p for p in self._profiles.values() if p.packet_count]

    def classify(
        self,
        source: int,
        min_coverage_per_sweep: float = 0.5,
        min_rate: float = 0.5,
    ) -> Optional[ScanClassification]:
        """Heuristic research-sweep verdict with human-readable reasons.

        A research sweep covers a large share of the telescope per
        sweep at a sustained rate; bots hit a few random addresses in
        short bursts.  ``min_coverage_per_sweep`` applies to the
        *sampled* address set when sweeps are subsampled — callers
        rescale by the known sampling weight.
        """
        profile = self._profiles.get(source)
        if profile is None or not profile.packet_count:
            return None
        reasons = []
        per_sweep_targets = len(profile.unique_dsts) / max(1, profile.sweep_count)
        coverage = per_sweep_targets / self.telescope.size
        wide = coverage >= min_coverage_per_sweep
        reasons.append(
            f"per-sweep coverage {coverage:.2%} "
            f"({'≥' if wide else '<'} {min_coverage_per_sweep:.0%})"
        )
        sustained = profile.active_rate >= min_rate
        reasons.append(
            f"active rate {profile.active_rate:.2f} pps "
            f"({'≥' if sustained else '<'} {min_rate})"
        )
        interval = profile.sweep_interval()
        if interval is not None:
            reasons.append(f"periodic: {profile.sweep_count} sweeps every {interval / 3600:.1f} h")
        return ScanClassification(
            source=source,
            profile=profile,
            is_research_sweep=wide and sustained,
            reasons=reasons,
        )

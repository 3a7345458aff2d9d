"""DoS flood detection with the Moore et al. thresholds (Section 5.2).

A backscatter session is an *attack* when it has (i) more than 25
packets, (ii) a duration above 60 seconds, and (iii) a maximum packet
rate above 0.5 pps computed over 1-minute slots.  Appendix B scales all
three thresholds by a weight ``w`` (w < 1 relaxed, w > 1 stricter) and
shows that detected attacks remain dominated by content providers even
at w = 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.sessions import Session
from repro.util.timeutil import MINUTE


@dataclass(frozen=True)
class DosThresholds:
    """The Moore et al. thresholds; ``weighted(w)`` scales all three."""

    min_packets: int = 25
    min_duration: float = 60.0
    min_max_pps: float = 0.5

    def weighted(self, weight: float) -> "DosThresholds":
        if weight <= 0:
            raise ValueError("threshold weight must be positive")
        return DosThresholds(
            min_packets=self.min_packets * weight,
            min_duration=self.min_duration * weight,
            min_max_pps=self.min_max_pps * weight,
        )

    def matches(self, session: Session) -> bool:
        return (
            session.packet_count > self.min_packets
            and session.duration > self.min_duration
            and session.max_pps > self.min_max_pps
        )


@dataclass
class FloodAttack:
    """A detected flood: the victim is the backscatter *source*."""

    victim_ip: int
    vector: str  # "quic" | "tcp" | "icmp"
    start: float
    end: float
    packet_count: int
    max_pps: float
    session: Session

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlap_seconds(self, other: "FloodAttack") -> float:
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))

    def overlaps(self, other: "FloodAttack", min_overlap: float = 1.0) -> bool:
        """The paper's concurrency test: ≥ 1 mutual second."""
        return self.overlap_seconds(other) >= min_overlap

    def gap_to(self, other: "FloodAttack") -> float:
        if self.overlap_seconds(other) > 0:
            return 0.0
        if self.end <= other.start:
            return other.start - self.end
        return self.start - other.end


_CLASS_TO_VECTOR = {
    "quic-response": "quic",
    "tcp-backscatter": "tcp",
    "icmp-backscatter": "icmp",
}


def _vector_of(session: Session) -> str:
    vector = _CLASS_TO_VECTOR.get(session.traffic_class)
    if vector is None:
        raise ValueError(f"session class {session.traffic_class!r} is not backscatter")
    return vector


class DosDetector:
    """Applies thresholds to backscatter sessions: closed ones, and
    the monitor's open ones a piece of a run at a time."""

    def __init__(self, thresholds: Optional[DosThresholds] = None) -> None:
        self.thresholds = thresholds or DosThresholds()
        self.attacks: list = []
        self.rejected_sessions: list = []

    def consider(self, session: Session) -> Optional[FloodAttack]:
        """Classify one closed session; returns the attack if detected."""
        vector = _vector_of(session)
        if not self.thresholds.matches(session):
            self.rejected_sessions.append(session)
            return None
        attack = FloodAttack(
            victim_ip=session.source,
            vector=vector,
            start=session.first_ts,
            end=session.last_ts,
            packet_count=session.packet_count,
            max_pps=session.max_pps,
            session=session,
        )
        self.attacks.append(attack)
        return attack

    def crossing(self, session: Session, stamps) -> Optional[FloodAttack]:
        """Streaming entry point: the attack snapshot as of the packet
        among ``stamps`` — the open ``session``'s next timestamps,
        non-decreasing, not landed yet — at which the session crosses
        the thresholds, or ``None``.

        All three Moore conditions are monotone over a session's life,
        so a session crosses in exactly one piece: the one before which
        ``thresholds.matches`` is false and after which it is true.
        Replaying that piece's stamps from the session's count and
        minute slots finds the crossing packet (``end`` is its
        timestamp); the cheap tests come first, so no other piece pays
        for a replay.  The closed session remains the authoritative
        record — hand it to :meth:`consider` when it ends.
        """
        vector = _vector_of(session)
        thresholds = self.thresholds
        count, first_ts = session.packet_count, session.first_ts
        if (
            count + len(stamps) <= thresholds.min_packets
            or stamps[-1] - first_ts <= thresholds.min_duration
            or thresholds.matches(session)
        ):
            return None
        slots = session.minute_slots
        peak = max(slots.values(), default=0)
        slot = in_slot = None
        for stamp in stamps:
            count += 1
            this = int(stamp // MINUTE)
            if this != slot:
                slot, in_slot = this, slots.get(this, 0)
            in_slot += 1
            peak = max(peak, in_slot)
            if (
                count > thresholds.min_packets
                and stamp - first_ts > thresholds.min_duration
                and peak / MINUTE > thresholds.min_max_pps
            ):
                return FloodAttack(
                    session.source, vector, first_ts, stamp, count, peak / MINUTE, session
                )
        return None

    def detect_all(self, sessions: Iterable[Session]) -> list:
        for session in sessions:
            self.consider(session)
        return self.attacks

    @property
    def detection_rate(self) -> float:
        """Fraction of considered sessions classified as attacks
        (the paper: 11% of response sessions)."""
        total = len(self.attacks) + len(self.rejected_sessions)
        return len(self.attacks) / total if total else 0.0


def weight_sweep(
    sessions: list,
    weights: Iterable[float],
    base: Optional[DosThresholds] = None,
) -> list:
    """Appendix B / Figure 10: re-detect attacks under scaled thresholds.

    Returns ``[(weight, detector)]`` so callers can extract both counts
    and per-weight victim compositions.
    """
    base = base or DosThresholds()
    out = []
    for weight in weights:
        detector = DosDetector(base.weighted(weight))
        detector.detect_all(sessions)
        out.append((weight, detector))
    return out

"""Online multi-vector correlation against a sliding flood window.

The batch pipeline classifies each QUIC flood against *every* TCP/ICMP
flood on the same victim across the whole capture (Section 5.2).  An
unbounded stream cannot keep every common flood forever, so the online
correlator keeps a per-victim window of recent common floods — active
ones (still-open alerted sessions) plus ended ones younger than a
``horizon`` — and classifies a QUIC flood the moment it ends.

Categories are therefore *provisional as-of-watermark*: a QUIC flood
classified isolated may retroactively be sequential once a later
common flood hits the same victim.  The equivalence tests pin the
authoritative categories to the batch correlation; the online ones are
the operator's early signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.multivector import CONCURRENT, ISOLATED, SEQUENTIAL, overlap_and_gap
from repro.core.sessions import Session
from repro.util.timeutil import HOUR


@dataclass
class LiveFlood:
    """One alerted flood tracked by the monitor."""

    victim_ip: int
    vector: str
    start: float
    #: while the flood is active its live end is the session's newest
    #: packet; once closed ``end`` is set and the session reference is
    #: dropped (bounded memory).
    session: Optional[Session] = None
    end: Optional[float] = None

    @property
    def current_end(self) -> float:
        if self.end is not None:
            return self.end
        return self.session.last_ts if self.session is not None else self.start


class OnlineCorrelator:
    """Sliding-window concurrent/sequential/isolated classification."""

    def __init__(self, horizon: float = 24 * HOUR, min_overlap: float = 1.0) -> None:
        if horizon <= 0:
            raise ValueError("correlation horizon must be positive")
        self.horizon = horizon
        self.min_overlap = min_overlap
        self._common: dict[int, list] = {}

    def register_common(self, flood: LiveFlood) -> None:
        """Track a TCP/ICMP flood from its alert onward."""
        self._common.setdefault(flood.victim_ip, []).append(flood)

    def classify(self, victim_ip: int, start: float, end: float):
        """Classify one ended QUIC flood against the window.

        Returns ``(category, partner_vectors, nearest_gap)`` mirroring
        the batch :func:`repro.core.multivector.correlate_attacks`
        fields.
        """
        partners = self._common.get(victim_ip, [])
        if not partners:
            return ISOLATED, (), None
        overlapping = []
        nearest: Optional[float] = None
        for partner in partners:
            overlap, gap = overlap_and_gap(start, end, partner.start, partner.current_end)
            if overlap >= self.min_overlap:
                overlapping.append(partner)
            elif nearest is None or gap < nearest:
                nearest = gap
        if overlapping:
            vectors = tuple(sorted({p.vector for p in overlapping}))
            return CONCURRENT, vectors, None
        vectors = tuple(sorted({p.vector for p in partners}))
        return SEQUENTIAL, vectors, nearest

    def prune(self, watermark: float) -> int:
        """Drop ended common floods older than the horizon; returns the
        number removed.  Active floods are never pruned."""
        floor = watermark - self.horizon
        removed = 0
        for victim in list(self._common):
            floods = self._common[victim]
            kept = [
                f for f in floods if f.end is None or f.end >= floor
            ]
            removed += len(floods) - len(kept)
            if kept:
                self._common[victim] = kept
            else:
                del self._common[victim]
        return removed

    @property
    def window_size(self) -> int:
        return sum(len(floods) for floods in self._common.values())

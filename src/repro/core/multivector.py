"""Multi-vector correlation (Section 5.2, Figure 8, Appendix C).

Each detected QUIC flood is classified against the TCP/ICMP floods on
the *same victim*:

- **concurrent** — at least one common flood overlaps it by ≥ 1 second
  (half of all QUIC floods; most overlap almost completely, Figure 12);
- **sequential** — the victim also saw common floods, but disjoint in
  time (Figure 13's gap distribution, hours to days);
- **isolated** — no common flood ever hit the victim in the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.core.dos import FloodAttack

CONCURRENT = "concurrent"
SEQUENTIAL = "sequential"
ISOLATED = "isolated"


def overlap_and_gap(
    start: float, end: float, other_start: float, other_end: float
) -> tuple:
    """Two intervals' mutual seconds (≥ 0) and the gap between them
    (0.0 when they overlap): the one rule behind the batch and the
    online multi-vector categories."""
    overlap = max(0.0, min(end, other_end) - max(start, other_start))
    if overlap > 0:
        return overlap, 0.0
    if end <= other_start:
        return overlap, other_start - end
    return overlap, start - other_end


@dataclass
class CorrelatedAttack:
    """One QUIC flood with its multi-vector classification."""

    attack: FloodAttack
    category: str
    #: for concurrent attacks: fraction of the QUIC flood's own duration
    #: covered by common floods (Figure 12; 1.0 = fully parallel).
    overlap_share: Optional[float] = None
    #: for sequential attacks: gap to the nearest common flood (s).
    nearest_gap: Optional[float] = None
    partners: list = field(default_factory=list)


@dataclass
class MultiVectorAnalysis:
    """Aggregate result of the correlation."""

    correlated: list = field(default_factory=list)

    def by_category(self) -> dict:
        counts = {CONCURRENT: 0, SEQUENTIAL: 0, ISOLATED: 0}
        for item in self.correlated:
            counts[item.category] += 1
        return counts

    def category_shares(self) -> dict:
        counts = self.by_category()
        total = sum(counts.values())
        if total == 0:
            return {key: 0.0 for key in counts}
        return {key: value / total for key, value in counts.items()}

    @property
    def overlap_shares(self) -> list:
        """Figure 12 sample: overlap share per concurrent QUIC flood."""
        return [
            c.overlap_share
            for c in self.correlated
            if c.category == CONCURRENT and c.overlap_share is not None
        ]

    @property
    def sequential_gaps(self) -> list:
        """Figure 13 sample: gap to nearest common flood, seconds."""
        return [
            c.nearest_gap
            for c in self.correlated
            if c.category == SEQUENTIAL and c.nearest_gap is not None
        ]

    def victim_timeline(self, victim_ip: int) -> list:
        """Figure 11: (vector, start, end, category) rows for one victim."""
        rows = []
        for item in self.correlated:
            if item.attack.victim_ip != victim_ip:
                continue
            rows.append(
                ("quic", item.attack.start, item.attack.end, item.category)
            )
            for partner in item.partners:
                rows.append((partner.vector, partner.start, partner.end, ""))
        # de-duplicate partners shared between several QUIC floods
        unique = sorted(set(rows), key=lambda r: r[1])
        return unique


def correlate_attacks(
    quic_attacks: list,
    common_attacks: list,
    min_overlap: float = 1.0,
) -> MultiVectorAnalysis:
    """Classify every QUIC flood against same-victim TCP/ICMP floods."""
    by_victim: dict[int, list] = {}
    for attack in common_attacks:
        by_victim.setdefault(attack.victim_ip, []).append(attack)

    analysis = MultiVectorAnalysis()
    for attack in quic_attacks:
        partners = by_victim.get(attack.victim_ip, [])
        if not partners:
            analysis.correlated.append(CorrelatedAttack(attack, ISOLATED))
            continue
        overlapping = [p for p in partners if attack.overlaps(p, min_overlap)]
        if overlapping:
            share = _overlap_share(attack, overlapping)
            analysis.correlated.append(
                CorrelatedAttack(
                    attack, CONCURRENT, overlap_share=share, partners=overlapping
                )
            )
            continue
        nearest = min(attack.gap_to(p) for p in partners)
        analysis.correlated.append(
            CorrelatedAttack(
                attack, SEQUENTIAL, nearest_gap=nearest, partners=partners
            )
        )
    return analysis


def _overlap_share(attack: FloodAttack, partners: list) -> float:
    """Covered fraction of the QUIC flood, merging partner intervals."""
    if attack.duration <= 0:
        return 1.0
    intervals = sorted(
        (max(attack.start, p.start), min(attack.end, p.end)) for p in partners
    )
    covered = 0.0
    cursor = attack.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return min(1.0, covered / attack.duration)

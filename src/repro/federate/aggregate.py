"""The federation aggregator: K vantage states → one global result.

The aggregator takes each vantage's closed
:class:`~repro.core.pipeline.PartialState` and metrics snapshot in
memory, as :func:`~repro.federate.merge.run_vantages` returns them, and
produces three things:

- the **global result** — the vantage states merged with
  :func:`repro.core.pipeline.merge_states` and finalized
  through the ordinary pipeline, bit-identical to a single telescope
  over the whole prefix (pinned by
  ``tests/test_federation_equivalence.py``);
- **per-vantage results** — each state finalized on its own, which is
  what a telescope operator who *doesn't* federate would publish;
- the **cross-telescope dedup** — the same flood backscatters into
  every tile whose addresses the victim's spoofed traffic covers, so
  per-vantage flood lists overcount.  Floods with the same victim and
  vector whose windows chain within the session timeout collapse into
  one :class:`GlobalFlood` carrying a per-vantage visibility map;
  every collapsed duplicate counts as a *dedup hit*.

The federation report renders the global section, a per-vantage
differential (what each tile saw alone, including floods *only* it
saw), and the extrapolation check: each vantage's packet count scaled
by its tile's share of the federation prefix, compared against the
federation's actual observation — the single-telescope extrapolation
the paper applies to the /9, validated against ground truth here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro import obs
from repro.core.pipeline import (
    PartialState,
    PipelineResult,
    QuicsandPipeline,
    merge_states,
)
from repro.core.report import build_report
from repro.net.addresses import IPv4Network, format_ipv4
from repro.util.render import format_table

M_MERGE = obs.histogram(
    "repro_federate_merge_seconds",
    "wall time of the federated state merge + global finalization",
)
M_DEDUP = obs.counter(
    "repro_federate_dedup_hits_total",
    "per-vantage flood sightings collapsed into an existing global flood",
)
M_LAG = obs.gauge(
    "repro_federate_vantage_lag_seconds",
    "event-time gap between a vantage's last packet and the federation horizon",
    labels=("vantage",),
)


@dataclass
class VantageStream:
    """One vantage: its name, its tile and its closed state."""

    name: str
    prefix: IPv4Network
    #: the global merge leaves it untouched, the vantage's own
    #: finalization then consumes it.
    final_state: PartialState


@dataclass
class GlobalFlood:
    """One deduplicated federation-wide flood."""

    vector: str
    victim_ip: int
    start: float
    end: float
    max_pps: float
    #: vantage name → packets that vantage's tile attributed to the
    #: flood (the visibility map; len > 1 means the dedup collapsed
    #: multiple sightings).
    vantages: Dict[str, int] = field(default_factory=dict)

    @property
    def packet_count(self) -> int:
        return sum(self.vantages.values())


@dataclass
class FederationResult:
    """Everything :meth:`Aggregator.federate` produces."""

    global_result: PipelineResult
    vantage_results: Dict[str, PipelineResult]
    streams: List[VantageStream]
    global_floods: List[GlobalFlood]
    dedup_hits: int
    merge_seconds: float
    #: vantage name → extrapolation check row (tile share, scaled
    #: estimate, estimate / federation observation).
    extrapolation: Dict[str, dict] = field(default_factory=dict)


class Aggregator:
    """Merge K vantage states into a federation result."""

    def __init__(
        self, pipeline: QuicsandPipeline, research_weight: float = 1.0
    ) -> None:
        self.pipeline = pipeline
        self.research_weight = research_weight

    def federate(self, vantages: Iterable[tuple]) -> FederationResult:
        """Merge the ``(name, tile, state, snapshot)`` of each vantage
        (:func:`~repro.federate.merge.run_vantages`) into the federation
        result.

        Each metrics snapshot that is not ``None`` is merged into the
        registry once, in vantage order, as ``--workers`` merges its
        parts'.  The states are consumed: finalizing a vantage's own
        result reuses the state the global merge read first.
        """
        streams = []
        for name, tile, state, snapshot in vantages:
            if snapshot is not None:
                obs.REGISTRY.merge_snapshot(snapshot)
            streams.append(VantageStream(name, tile, state))
        if not streams:
            raise ValueError("no vantages to federate")
        started = time.perf_counter()
        config = self.pipeline.config
        merged = merge_states([stream.final_state for stream in streams], config)
        global_result = self.pipeline.finalize_state(merged)
        vantage_results = {
            stream.name: self.pipeline.finalize_state(stream.final_state)
            for stream in streams
        }
        global_floods, dedup_hits = self._dedup(
            vantage_results, config.session_timeout
        )
        merge_seconds = time.perf_counter() - started
        extrapolation = self._extrapolation(
            streams, global_result, vantage_results
        )
        if obs.enabled():
            M_MERGE.observe(merge_seconds)
            if dedup_hits:
                M_DEDUP.inc(dedup_hits)
            horizon = global_result.window_end
            for stream in streams:
                result = vantage_results[stream.name]
                M_LAG.set(
                    max(0.0, horizon - result.window_end), vantage=stream.name
                )
        return FederationResult(
            global_result=global_result,
            vantage_results=vantage_results,
            streams=streams,
            global_floods=global_floods,
            dedup_hits=dedup_hits,
            merge_seconds=merge_seconds,
            extrapolation=extrapolation,
        )

    def _dedup(
        self, vantage_results: Dict[str, PipelineResult], timeout: float
    ) -> tuple:
        """Collapse per-vantage flood sightings into global floods.

        Two sightings are the same flood when vector and victim match
        and their windows chain within the session timeout — the same
        gap rule that splits sessions, applied across telescopes.
        """
        sightings: dict = {}
        for name in sorted(vantage_results):
            result = vantage_results[name]
            for attack in result.quic_attacks + result.common_attacks:
                key = (attack.vector, attack.victim_ip)
                sightings.setdefault(key, []).append((attack, name))
        floods: List[GlobalFlood] = []
        dedup_hits = 0
        for (vector, victim), seen in sightings.items():
            seen.sort(key=lambda pair: (pair[0].start, pair[1]))
            current: Optional[GlobalFlood] = None
            for attack, name in seen:
                if current is not None and attack.start - current.end <= timeout:
                    if name in current.vantages:
                        current.vantages[name] += attack.packet_count
                    else:
                        current.vantages[name] = attack.packet_count
                        dedup_hits += 1
                    current.end = max(current.end, attack.end)
                    current.start = min(current.start, attack.start)
                    current.max_pps = max(current.max_pps, attack.max_pps)
                else:
                    current = GlobalFlood(
                        vector=vector,
                        victim_ip=victim,
                        start=attack.start,
                        end=attack.end,
                        max_pps=attack.max_pps,
                        vantages={name: attack.packet_count},
                    )
                    floods.append(current)
        floods.sort(key=lambda f: (f.start, f.victim_ip, f.vector))
        return floods, dedup_hits

    def _extrapolation(
        self,
        streams: List[VantageStream],
        global_result: PipelineResult,
        vantage_results: Dict[str, PipelineResult],
    ) -> Dict[str, dict]:
        """Each tile's scaled packet estimate vs the federation total.

        The paper extrapolates /9 observations to the full address
        space by the prefix-share factor; the federation lets us test
        that logic one level down: scale each tile's count by
        ``federation size / tile size`` and compare with what the
        federation actually captured.
        """
        checks: Dict[str, dict] = {}
        federation_size = sum(stream.prefix.size for stream in streams)
        global_packets = global_result.total_packets
        for stream in streams:
            packets = vantage_results[stream.name].total_packets
            share = stream.prefix.size / federation_size
            estimate = packets / share
            checks[stream.name] = {
                "prefix": str(stream.prefix),
                "share": share,
                "packets": packets,
                "estimate": estimate,
                "ratio": (estimate / global_packets) if global_packets else 0.0,
            }
        return checks

    # -- rendering ---------------------------------------------------------

    def report(self, fed: FederationResult) -> str:
        """The federation report: global summary, dedup table,
        per-vantage differential, extrapolation check, then the full
        single-telescope report of the merged global result."""
        sections = [
            self._summary_section(fed),
            self._flood_section(fed),
            self._differential_section(fed),
            self._extrapolation_section(fed),
            build_report(fed.global_result, research_weight=self.research_weight),
        ]
        return ("\n" + "=" * 72 + "\n").join(s for s in sections if s)

    def _summary_section(self, fed: FederationResult) -> str:
        names = ", ".join(stream.name for stream in fed.streams)
        rows = [
            ["vantages", f"{len(fed.streams)}: {names}"],
            ["global floods", str(len(fed.global_floods))],
            ["dedup hits", str(fed.dedup_hits)],
            ["merge + finalize", f"{fed.merge_seconds:.3f}s"],
        ]
        return format_table(
            ["metric", "value"], rows, title="Federation overview"
        )

    def _flood_section(self, fed: FederationResult) -> str:
        if not fed.global_floods:
            return ""
        rows = []
        for flood in fed.global_floods:
            rows.append(
                [
                    flood.vector,
                    format_ipv4(flood.victim_ip),
                    f"{flood.end - flood.start:.0f}s",
                    f"{flood.packet_count:,}",
                    f"{flood.max_pps:.1f}",
                    ",".join(sorted(flood.vantages)),
                ]
            )
        return format_table(
            ["vector", "victim", "duration", "packets", "max pps", "seen by"],
            rows,
            title="Global floods (cross-telescope dedup)",
        )

    def _differential_section(self, fed: FederationResult) -> str:
        rows = []
        for stream in fed.streams:
            result = fed.vantage_results[stream.name]
            local = len(result.quic_attacks) + len(result.common_attacks)
            exclusive = sum(
                1
                for flood in fed.global_floods
                if set(flood.vantages) == {stream.name}
            )
            lag = fed.global_result.window_end - result.window_end
            rows.append(
                [
                    stream.name,
                    str(stream.prefix),
                    f"{result.total_packets:,}",
                    str(local),
                    str(exclusive),
                    f"{max(0.0, lag):.0f}s",
                ]
            )
        return format_table(
            ["vantage", "prefix", "packets", "floods", "exclusive", "lag"],
            rows,
            title="Per-vantage differential",
        )

    def _extrapolation_section(self, fed: FederationResult) -> str:
        rows = []
        for name, check in fed.extrapolation.items():
            rows.append(
                [
                    name,
                    check["prefix"],
                    f"{check['share'] * 100:.1f}%",
                    f"{check['packets']:,}",
                    f"{check['estimate']:,.0f}",
                    f"{check['ratio']:.2f}x",
                ]
            )
        return format_table(
            ["vantage", "prefix", "share", "packets", "estimate", "vs federation"],
            rows,
            title="Extrapolation check (tile estimate vs federation)",
        )

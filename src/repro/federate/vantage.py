"""One federated vantage: a telescope tile running its own analysis.

A :class:`Vantage` owns one tile of the telescope prefix (see
:func:`repro.federate.merge.tile_prefixes`), regenerates the shared
scenario under the **same seed** — the simulated Internet is identical
at every vantage, only the capture tap differs — and runs the
per-packet analysis phase locally: the serial fused loop
(:func:`~repro.core.pipeline.run_record_batches` over ``lane_batches``)
on its own tile, into an ordinary
:class:`~repro.core.pipeline.PartialState`.
Its product is a frame stream (:mod:`repro.federate.protocol`): a
``hello`` handshake, the closed ``final-state``, an optional ``obs``
metrics snapshot, and a ``bye`` manifest the aggregator checks the
stream against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.pipeline import AnalysisConfig, PartialState, run_record_batches
from repro.federate.protocol import (
    FINAL_STATE,
    OBS,
    bye_frame,
    hello_frame,
    pickle_frame,
)
from repro.telescope.workload import Scenario, ScenarioConfig
from repro import obs


@dataclass
class VantageConfig:
    """One vantage's identity and workload."""

    name: str
    #: CIDR tile to capture; ``None`` keeps the scenario's full prefix
    #: (a one-vantage federation).
    prefix: Optional[str] = None
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


class Vantage:
    """Run one tile's analysis and stream frames into a transport sink."""

    def __init__(self, config: VantageConfig) -> None:
        self.config = config
        self.scenario = Scenario(config.scenario)
        if config.prefix is not None:
            self.scenario.retarget(config.prefix)
        self.frames_sent = 0
        self._seq = 0

    # -- frame emission ----------------------------------------------------

    def _emit(self, sink, frame_bytes: bytes) -> None:
        sink.send(frame_bytes)
        self.frames_sent += 1
        self._seq += 1

    # -- the run -----------------------------------------------------------

    def run(self, sink) -> PartialState:
        """Analyze the tile and stream the frame sequence into ``sink``.

        Returns the final (closed) state; ``repro federate --connect``
        prints its packet count (the in-process path re-reads its spool
        like any aggregator).
        """
        config = self.config
        analysis = config.analysis
        self._emit(
            sink,
            hello_frame(
                config.name,
                str(self.scenario.telescope.prefix),
                self._seq,
            ),
        )
        state = run_record_batches(self.scenario.lane_batches(), analysis)
        self._emit(sink, pickle_frame(FINAL_STATE, state, self._seq))
        if obs.enabled():
            self._emit(
                sink,
                pickle_frame(
                    OBS, obs.REGISTRY.snapshot(run_collectors=False), self._seq
                ),
            )
        self._emit(sink, bye_frame(self.frames_sent + 1, state.total_packets, self._seq))
        return state

"""One federated vantage: a telescope tile running its own analysis.

A :class:`Vantage` owns one tile of the telescope prefix (see
:func:`repro.federate.merge.tile_prefixes`), regenerates the shared
scenario under the **same seed** — the simulated Internet is identical
at every vantage, only the capture tap differs — and runs the
per-packet analysis phase locally.  Its product is a frame stream
(:mod:`repro.federate.protocol`): a ``hello`` handshake, periodic
cumulative ``state`` snapshots, the closing ``final-state``, an
optional ``obs`` metrics snapshot, and a ``bye`` manifest the
aggregator checks the stream against.

The vantage accumulates an exact
:class:`~repro.core.pipeline.PartialState` with a
:class:`~repro.core.sessions.RecordingSweep`, because the federated
merge replays sweep timestamps to stay bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Iterable, Optional

from repro.core.batchlane import BatchLane
from repro.core.pipeline import AnalysisConfig, PartialState
from repro.core.sessions import RecordingSweep
from repro.federate.protocol import (
    FINAL_STATE,
    OBS,
    STATE,
    bye_frame,
    hello_frame,
    pickle_frame,
)
from repro.telescope.workload import Scenario, ScenarioConfig
from repro.util.batching import batched
from repro import obs


@dataclass
class VantageConfig:
    """One vantage's identity and cadence."""

    name: str
    #: CIDR tile to capture; ``None`` keeps the scenario's full prefix
    #: (a one-vantage federation).
    prefix: Optional[str] = None
    #: event-seconds between cumulative interim ``state`` frames;
    #: ``0`` ships only the final state.
    snapshot_every: float = 3600.0
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


class Vantage:
    """Run one tile's analysis and stream frames into a transport sink.

    ``run(sink)`` regenerates the tile's capture through the
    generation fast lane; ``run(sink, packets=...)`` instead filters a
    caller-provided packet iterable through the tile's telescope —
    the equivalence tests generate the full-prefix capture once and
    fan it out to K vantages without re-simulating K times.
    """

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

    def run(self, sink, packets: Optional[Iterable] = None) -> PartialState:
        """Analyze the tile and stream the frame sequence into ``sink``.

        Returns the final (closed) state, which the in-process CLI
        path reuses directly instead of re-decoding its own spool.
        """
        config = self.config
        analysis = config.analysis
        state = PartialState.initial(analysis)
        state.sweep = RecordingSweep()
        lane = BatchLane(dissect_payloads=analysis.dissect_payloads)

        self._emit(
            sink,
            hello_frame(
                config.name,
                str(self.scenario.telescope.prefix),
                self._seq,
            ),
        )

        next_snapshot: Optional[float] = None
        # the two feeds differ in representation only: lane records from
        # the scenario's own generator, packets when handed a stream
        if packets is None:
            batches = self.scenario.lane_batches(analysis.batch_size)
            observe, stamp = lane.observe_records, itemgetter(0)
        else:
            batches = batched(
                self.scenario.telescope.capture(iter(packets)),
                analysis.batch_size,
            )
            observe, stamp = lane.observe_packets, attrgetter("timestamp")
        for batch in batches:
            watermark = stamp(batch[-1])
            observations = observe(batch, state.malformed_counts)
            state.note_batch(stamp(batch[0]), watermark, len(batch))
            state.apply(observations)
            if config.snapshot_every:
                if next_snapshot is None:
                    next_snapshot = watermark + config.snapshot_every
                elif watermark >= next_snapshot:
                    self._emit(sink, pickle_frame(STATE, state, self._seq))
                    next_snapshot = watermark + config.snapshot_every

        state.record_classifier(lane)
        state.close()
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

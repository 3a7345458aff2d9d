"""Scenario composition: a full synthetic measurement campaign.

A :class:`Scenario` wires the Internet model and every traffic source
into one time-sorted packet stream, together with the *ground truth*
(planned floods, research sources, bot sessions) that tests compare
detector output against.  The default configuration is a
laptop-scale version of the paper's April 2021 month: per-event
statistics (durations, rates, session sizes) are at paper scale, event
*counts* are scaled by window length, and research sweeps are sampled
(see :mod:`repro.telescope.scanners`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Iterator, Optional

from repro.net.packet import CapturedPacket
from repro.telescope.genlane import LANE_FIELDS, wire_items
from repro.util.batching import BATCH_SIZE, batched
from repro.util.rng import SeededRng
from repro.util.timeutil import APRIL_1_2021, DAY
from repro.internet.topology import InternetModel, TopologyConfig
from repro.telescope.adversarial import AdversarialSpec, build_adversarial_model
from repro.telescope.attacks import (
    AttackPlan,
    AttackPlanConfig,
    AttackPlanner,
    AttackTrafficModel,
)
from repro.telescope.noise import MisconfigurationModel, StrayUdpModel
from repro.telescope.scanners import BotScannerModel, ResearchScannerModel, TcpScannerModel
from repro.telescope.telescope import Telescope, merge_chunks

#: simulated seconds sorted per step of the serial record merge: ≈ one BATCH_SIZE at the
#: default day's busiest rate (≈ 18.6 records/s over 300 s; its busiest 20 s hold 708)
_MERGE_WINDOW = 20.0


@dataclass
class ScenarioConfig:
    """Everything needed to regenerate a measurement campaign."""

    seed: int = 20210401
    start: float = APRIL_1_2021
    duration: float = 2 * DAY
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    attacks: AttackPlanConfig = field(default_factory=AttackPlanConfig)
    #: research sweep sampling (1/64 of telescope addresses per sweep).
    research_sample: float = 1.0 / 64.0
    research_sweep_interval: float = 43200.0
    research_sweep_duration: float = 21600.0
    bot_sessions_per_day: float = 1000.0
    tcp_scan_sessions_per_day: float = 800.0
    misconfig_sessions_per_day: float = 770.0
    stray_packets_per_day: float = 400.0
    include_research: bool = True
    include_bots: bool = True
    include_tcp_scans: bool = True
    include_attacks: bool = True
    include_misconfig: bool = True
    include_stray: bool = True
    #: adversarial traffic sources beyond the paper's IBR classes
    #: (:mod:`repro.telescope.adversarial`); a tuple of
    #: :class:`AdversarialSpec` so the config stays picklable for
    #: worker-process scenario rebuilds.
    adversarial: tuple = ()

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class ScenarioTruth:
    """Ground truth for detector validation."""

    plan: AttackPlan
    research_sources: frozenset
    research_weight: float
    bot_sources: frozenset


class Scenario:
    """A composed, reproducible telescope measurement campaign."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.rng = SeededRng(self.config.seed, "scenario")
        self.internet = InternetModel(self.rng.child("internet"), self.config.topology)
        self.telescope = Telescope(self.internet.telescope_net)

        self._research = [
            ResearchScannerModel(
                scanner=scanner,
                internet=self.internet,
                rng=self.rng.child(f"research:{i}"),
                sweep_interval=self.config.research_sweep_interval,
                sweep_duration=self.config.research_sweep_duration,
                sample=self.config.research_sample,
                phase=i * self.config.research_sweep_interval / 2,
            )
            for i, scanner in enumerate(self.internet.research_scanners)
        ]
        self._bots = BotScannerModel(
            internet=self.internet,
            rng=self.rng.child("bots"),
            sessions_per_day=self.config.bot_sessions_per_day,
        )
        self._tcp_scans = TcpScannerModel(
            internet=self.internet,
            rng=self.rng.child("tcp-scans"),
            sessions_per_day=self.config.tcp_scan_sessions_per_day,
        )
        self._misconfig = MisconfigurationModel(
            internet=self.internet,
            rng=self.rng.child("misconfig"),
            sessions_per_day=self.config.misconfig_sessions_per_day,
        )
        self._stray = StrayUdpModel(
            internet=self.internet,
            rng=self.rng.child("stray"),
            packets_per_day=self.config.stray_packets_per_day,
        )
        planner = AttackPlanner(
            self.internet, self.rng.child("planner"), self.config.attacks
        )
        self.plan: AttackPlan = (
            planner.plan(self.config.start, self.config.end)
            if self.config.include_attacks
            else AttackPlan()
        )
        self._attack_traffic = AttackTrafficModel(
            self.internet, self.rng.child("attack-traffic"), self.config.attacks
        )
        self.adversarial = [
            build_adversarial_model(
                spec, self.internet, self.rng.child(f"adversarial:{i}:{spec.kind}")
            )
            for i, spec in enumerate(self.config.adversarial)
        ]

    @property
    def truth(self) -> ScenarioTruth:
        return ScenarioTruth(
            plan=self.plan,
            research_sources=frozenset(
                s.address for s in self.internet.research_scanners
            ),
            research_weight=(
                self._research[0].weight if self._research else 1.0
            ),
            bot_sources=frozenset(b.address for b in self.internet.bot_hosts),
        )

    def packets(self) -> Iterator[CapturedPacket]:
        """The telescope's merged capture for the whole window.

        A packet view of :meth:`records`, the in-process ``simulate |
        analyze``: each record is stamped to wire bytes and parsed back,
        so each packet is what a capture of the same traffic would
        contain, reduced to the record's scalars (``total_length``
        filled, timestamp untouched).
        """
        from_bytes = CapturedPacket.from_bytes
        return (
            from_bytes(timestamp, bytes(wire))
            for timestamp, wire in wire_items(self.records())
        )

    def record_units(self) -> list:
        """Per-actor gen-record iterators, one per *generation unit*.

        The unit order is load-bearing: the tests' reference generator
        (``tests/reference/generator.py``) is a merge of per-source
        streams (with the attack stream itself a merge of per-flood
        streams), and ``heapq.merge`` breaks timestamp ties toward the
        earlier iterator.  Flattening that nested merge into
        one merge over these units — research sweeps, bots, TCP scans,
        each flood in plan order, misconfig, stray, then each
        adversarial source in spec order — preserves the
        lexicographic tie-break exactly, so ``records()`` (whose
        per-window stable sort fills each window in this order, see
        :func:`~repro.telescope.telescope.merge_chunks`) reproduces the
        reference's order bit for bit.
        """
        return [unit for _start, unit in self._timed_units()]

    def _timed_units(self) -> list:
        """:meth:`record_units` as ``(start, iterator)`` pairs: no record
        of a unit is earlier than its ``start`` (a flood's own start, the
        window's for every other unit)."""
        start, end = self.config.start, self.config.end
        units = []
        if self.config.include_research:
            units.extend((start, model.records(start, end)) for model in self._research)
        if self.config.include_bots:
            units.append((start, self._bots.records(start, end)))
        if self.config.include_tcp_scans:
            units.append((start, self._tcp_scans.records(start, end)))
        if self.config.include_attacks:
            units.extend(
                (flood.start, self._attack_traffic.flood_records(flood))
                for flood in self.plan.all_floods
            )
        if self.config.include_misconfig:
            units.append((start, self._misconfig.records(start, end)))
        if self.config.include_stray:
            units.append((start, self._stray.records(start, end)))
        units.extend((start, model.records(start, end)) for model in self.adversarial)
        return units

    def _captured_chunks(self, units: list) -> Iterator[list]:
        """The capture of ``units`` (``(start, iterator)`` pairs, a
        sub-list of :meth:`_timed_units`) as time-sorted lists of gen
        records: :func:`merge_chunks` sorts one ``_MERGE_WINDOW`` of
        every active unit at a time, the telescope keeps what its tap sees."""
        return self.telescope.capture_records(merge_chunks(units, _MERGE_WINDOW))

    def records(self, workers: int = 1) -> Iterator[tuple]:
        """The capture as flat gen records — the generation fast lane.

        Same packets as the tests' reference generator (same seeds, same
        draws, same order), emitted as ``genlane`` record tuples instead
        of :class:`CapturedPacket` objects.  ``workers`` is accepted and
        unused: the benchmark harness still passes it; parallel runs
        partition the units instead (:meth:`parts`).
        """
        return chain.from_iterable(self._captured_chunks(self._timed_units()))

    def lane_batches(self, batch_size: int = BATCH_SIZE) -> Iterator[list]:
        """Batched 11-field lane records for the analysis batch lane.

        The fused generate→analyze feed:
        ``QuicsandPipeline.process_record_batches`` consumes these
        directly, skipping wire serialization *and* dissection-side
        parsing entirely.
        """
        return _lane_batches(self._captured_chunks(self._timed_units()), batch_size)

    def parts(self, count: int, batch_size: int = BATCH_SIZE) -> list:
        """The capture split into up to ``count`` parts, for
        ``QuicsandPipeline.process_scenario`` on ``count`` workers.

        Part *i* is a picklable zero-argument feed of the
        :meth:`lane_batches` of units ``i::count``, which rebuilds this
        scenario from its config in whatever process calls it.
        Every unit draws from its own seeded stream, so a part's records
        are exactly the serial capture's records of its units, in serial
        order — a sub-sequence of the capture, which is all
        :func:`~repro.core.pipeline.merge_states` needs.
        """
        count = max(1, min(count, len(self.record_units())))
        return [
            partial(part_batches, self.config, index, count, batch_size)
            for index in range(count)
        ]

    def packet_batches(self, batch_size: int = BATCH_SIZE) -> Iterator[list]:
        """The capture's packet view (:meth:`packets`) as time-ordered
        batches: the live feed of the online monitor."""
        return batched(self.packets(), batch_size)

    def live_batches(
        self,
        batch_size: int = BATCH_SIZE,
        speed: Optional[float] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> Iterator[list]:
        """Drive the scenario as a *live* feed for the online monitor.

        With ``speed`` set (event-seconds per wall-second), each batch
        is released only once its newest packet's event time has
        "happened" under the speed-up — the telescope tap replayed in
        accelerated real time.  ``None``/``0`` releases batches as fast
        as they generate (``repro watch``'s default).
        """
        if not speed:
            yield from self.packet_batches(batch_size)
            return
        if speed < 0:
            raise ValueError("replay speed must be positive")
        wall_start = clock()
        event_start = self.config.start
        for batch in self.packet_batches(batch_size):
            due = (batch[-1].timestamp - event_start) / speed
            delay = due - (clock() - wall_start)
            if delay > 0:
                sleep(delay)
            yield batch


def _lane_batches(chunks: Iterator[list], batch_size: int) -> Iterator[list]:
    """Captured record chunks as batches of 11-field lane records."""
    stripped = ([record[:LANE_FIELDS] for record in chunk] for chunk in chunks)
    return batched(chain.from_iterable(stripped), batch_size)


def part_batches(config, index: int, count: int, batch_size: int = BATCH_SIZE):
    """Part ``index`` of :meth:`Scenario.parts`, drawn from a rebuilt
    scenario."""
    scenario = Scenario(config)
    units = scenario._timed_units()[index::count]
    return _lane_batches(scenario._captured_chunks(units), batch_size)

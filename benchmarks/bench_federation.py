"""Federation: merge throughput and vantage lag vs fleet size.

Engineering benchmark for :mod:`repro.federate` (not a paper figure).
K in-process vantages (K in {1, 2, 4}) tile the /9 by destination
prefix; each generates and analyzes its own tile with ``Vantage.run``
— the loop ``repro federate`` runs — and spools its frame stream to
disk, and the aggregator consumes and merges them.  We report, per K,

- vantage wall time (the K per-tile generation + analysis passes, run
  serially here so the number is comparable across K);
- spool decode rate (frames and MiB through ``SpoolReader``);
- merge throughput: global packets through
  ``merge_states`` + finalization per second;
- cross-telescope dedup hits and the worst per-vantage event-time lag
  behind the federation horizon.

The hard gate is the equivalence pin re-asserted from the bench seat:
every K must render the byte-identical global report.  Results append
to ``benchmarks/out/BENCH_federation.json``; ``REPRO_BENCH_QUICK=1``
shrinks the window for CI and skips the append.
"""

import json
import os
import time
from pathlib import Path

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig
from repro.core.report import build_report
from repro.federate import (
    Aggregator,
    SpoolWriter,
    Vantage,
    VantageConfig,
    tile_prefixes,
)
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR

TRAJECTORY = Path(__file__).parent / "out" / "BENCH_federation.json"
TRAJECTORY_SCHEMA = 1
#: every key a schema-1 row carries; older rows are backfilled with
#: nulls so consumers can index columns without per-row key checks.
TRAJECTORY_KEYS = (
    "unix_time",
    "seed",
    "hours",
    "packets",
    "fleets",
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SEED = 11
SCENARIO_HOURS = 1.0 if QUICK else 2.0
FLEETS = (1, 2, 4)

SCENARIO_KW = dict(
    seed=SEED,
    duration=SCENARIO_HOURS * HOUR,
    research_sample=1 / 2048,
)


def _aggregator(scenario):
    return Aggregator(
        QuicsandPipeline(
            registry=scenario.internet.registry,
            census=scenario.internet.census,
            greynoise=scenario.internet.greynoise,
            config=AnalysisConfig(),
        ),
        research_weight=scenario.truth.research_weight,
    )


def _append_trajectory(record):
    TRAJECTORY.parent.mkdir(exist_ok=True)
    runs = []
    if TRAJECTORY.exists():
        try:
            runs = json.loads(TRAJECTORY.read_text()).get("runs", [])
        except (ValueError, AttributeError):
            runs = []
    runs.append(record)
    runs = [
        {**{key: run.get(key) for key in TRAJECTORY_KEYS}, **run} for run in runs
    ]
    TRAJECTORY.write_text(
        json.dumps({"schema": TRAJECTORY_SCHEMA, "runs": runs}, indent=2) + "\n"
    )


def test_federation_merge_throughput(emit, tmp_path):
    fleets = []
    reports = {}
    for vantages in FLEETS:
        spool = tmp_path / f"k{vantages}"
        spool.mkdir()
        tiles = tile_prefixes("44.0.0.0/9", vantages)

        t0 = time.perf_counter()
        for index, tile in enumerate(tiles):
            vantage = Vantage(
                VantageConfig(
                    name=f"v{index}",
                    prefix=str(tile),
                    scenario=ScenarioConfig(**SCENARIO_KW),
                    analysis=AnalysisConfig(),
                )
            )
            with SpoolWriter(str(spool), f"v{index}") as writer:
                vantage.run(writer)
        vantage_seconds = time.perf_counter() - t0

        scenario = Scenario(ScenarioConfig(**SCENARIO_KW))
        aggregator = _aggregator(scenario)
        t0 = time.perf_counter()
        aggregator.consume_spool(str(spool))
        consume_seconds = time.perf_counter() - t0
        frames = sum(s.frames for s in aggregator.streams)
        spool_bytes = sum(p.stat().st_size for p in spool.glob("*.qsf"))

        fed = aggregator.federate()
        packets = fed.global_result.total_packets
        reports[vantages] = build_report(
            fed.global_result, research_weight=scenario.truth.research_weight
        )
        max_lag = max(
            fed.global_result.window_end - result.window_end
            for result in fed.vantage_results.values()
        )
        fleets.append(
            {
                "vantages": vantages,
                "vantage_seconds": round(vantage_seconds, 4),
                "consume_seconds": round(consume_seconds, 4),
                "spool_frames": frames,
                "spool_mib": round(spool_bytes / 2**20, 3),
                "merge_seconds": round(fed.merge_seconds, 4),
                "merge_pps": round(
                    fed.global_result.total_packets / fed.merge_seconds
                ),
                "dedup_hits": fed.dedup_hits,
                "global_floods": len(fed.global_floods),
                "max_lag_seconds": round(max_lag, 1),
            }
        )

    # the bench-seat equivalence gate: fleet size never changes a byte
    for vantages in FLEETS[1:]:
        assert reports[vantages] == reports[FLEETS[0]], (
            f"K={vantages} report diverges from K={FLEETS[0]}"
        )
    by_k = {row["vantages"]: row for row in fleets}
    assert by_k[1]["dedup_hits"] == 0, "a lone vantage has nothing to dedup"
    assert all(row["merge_pps"] > 0 for row in fleets)
    # hello, final-state and bye per vantage: nothing periodic on the wire
    assert all(row["spool_frames"] == 3 * row["vantages"] for row in fleets)

    lines = [
        f"seed: {SEED}  window: {SCENARIO_HOURS:g} h  "
        f"generated packets: {packets:,}",
        f"{'K':>3}  {'vantage s':>9}  {'decode s':>8}  {'frames':>6}  "
        f"{'MiB':>6}  {'merge s':>8}  {'merge pps':>9}  {'dedup':>5}  "
        f"{'lag s':>6}",
    ]
    for row in fleets:
        lines.append(
            f"{row['vantages']:>3}  {row['vantage_seconds']:>9.3f}  "
            f"{row['consume_seconds']:>8.3f}  {row['spool_frames']:>6}  "
            f"{row['spool_mib']:>6.2f}  {row['merge_seconds']:>8.4f}  "
            f"{row['merge_pps']:>9,}  {row['dedup_hits']:>5}  "
            f"{row['max_lag_seconds']:>6.1f}"
        )
    lines.append("global reports byte-identical across fleet sizes: yes")
    emit("federation_merge_throughput", "\n".join(lines))

    if not QUICK:
        _append_trajectory(
            {
                "unix_time": round(time.time()),
                "seed": SEED,
                "hours": SCENARIO_HOURS,
                "packets": packets,
                "fleets": fleets,
            }
        )

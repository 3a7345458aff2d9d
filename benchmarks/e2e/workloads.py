"""The four benchmark workloads, and the child process that times one.

``run.py`` starts ``python run.py --child`` once per workload with a JSON
spec on stdin, so ``ru_maxrss`` belongs to that workload alone.  The child
sets up, runs the timed repetitions single-threaded with the metrics
registry off, checks every repetition's output, and prints one JSON
result on stdout.  With ``"trace": true`` it runs the traced pass of
``layers.py`` instead of the repetitions.

Each workload function takes a ``trace`` (``spans.NullTrace`` when timing)
so the traced repetition runs the very same code as the timed ones.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro import obs  # noqa: E402
from repro.core import AnalysisConfig, QuicsandPipeline  # noqa: E402
from repro.core.report import build_report  # noqa: E402
from repro.net.pcap import PcapReader, read_pcap_batches, write_records  # noqa: E402
from repro.stream import StreamAnalyzer, StreamConfig  # noqa: E402
from repro.telescope import Scenario, ScenarioConfig  # noqa: E402
from repro.telescope.genlane import wire_items  # noqa: E402
from repro.util.timeutil import HOUR  # noqa: E402

from spans import NullTrace  # noqa: E402

BATCH = 512
#: a median of fewer repetitions is at the mercy of one slow one
MIN_REPS = 3
NULL = NullTrace()


class Workload(NamedTuple):
    reads_capture: bool
    mode: Optional[str]  # StreamConfig mode of the watch loop
    cold: int  # leading repetitions run but not kept


WORKLOADS = {
    "report-day": Workload(False, None, 0),
    "pcap-6h": Workload(True, None, 0),
    "watch-bounded-6h": Workload(True, "bounded", 1),
    "watch-sketch-6h": Workload(True, "sketch", 1),
}


def scenario_config(seed: int, hours: float) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, duration=hours * HOUR, research_sample=1 / 64)


def correlation(scenario) -> dict:
    return dict(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def quartiles(samples: list) -> tuple:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def batch_percentiles(batch_s: list) -> tuple:
    """(p50, p95) of per-batch seconds, in milliseconds."""
    cuts = statistics.quantiles(batch_s, n=20)
    return 1e3 * cuts[9], 1e3 * cuts[18]


# -- inputs -----------------------------------------------------------------


def build_pcap(path, config: ScenarioConfig) -> int:
    """What ``repro simulate`` does: generate, stamp, write.  Returns the
    packet count."""
    return write_records(path, wire_items(Scenario(config).records()))


# -- the timed operations ---------------------------------------------------


def report_fused(scenario, trace=NULL) -> dict:
    """``repro report`` on its default fused path."""
    fed = 0

    def counted(batches):
        nonlocal fed
        for batch in batches:
            fed += len(batch)
            yield batch

    pipeline = QuicsandPipeline(**correlation(scenario), config=AnalysisConfig())
    batches = counted(
        trace.iterate("telescope.lane_batches", scenario.lane_batches(BATCH))
    )
    with trace.span("core.pipeline.process_record_batches"):
        result = pipeline.process_record_batches(batches)
    with trace.span("core.report.build_report"):
        text = build_report(result, research_weight=scenario.truth.research_weight)
    return {"packets": result.total_packets, "expected": fed, "digest": sha(text)}


def analyze_pcap(scenario, path, trace=NULL, workers: int = 1) -> dict:
    """``repro analyze``: stream the capture file through the pipeline."""
    pipeline = QuicsandPipeline(
        **correlation(scenario), config=AnalysisConfig(workers=workers)
    )
    with open(path, "rb") as stream:
        packets = trace.iterate("net.pcap.read", iter(PcapReader(stream)))
        with trace.span("core.pipeline.process"):
            result = pipeline.process(packets)
    with trace.span("core.report.build_report"):
        text = build_report(result, research_weight=scenario.truth.research_weight)
    return {"packets": result.total_packets, "digest": sha(text)}


def watch(scenario, feed, mode: str, trace=NULL) -> dict:
    """``repro watch``: one ``process_batch`` per batch, each timed."""
    analyzer = StreamAnalyzer(
        **correlation(scenario),
        config=AnalysisConfig(),
        stream_config=StreamConfig(mode=mode),
    )
    batch_s = []
    tracked_peak = 0
    for batch in feed:
        start = perf_counter()
        analyzer.process_batch(batch)
        end = perf_counter()
        batch_s.append(end - start)
        trace.add("stream.analyzer.process_batch", start, end)
        if analyzer.telemetry.tracked_sources > tracked_peak:
            tracked_peak = analyzer.telemetry.tracked_sources
    with trace.span("stream.analyzer.finish"):
        analyzer.finish()
    with trace.span("stream.analyzer.stream_report"):
        text = analyzer.stream_report()
    alerts = sorted(
        (a.victim_ip, a.vector, a.start, a.crossed_at, a.packet_count)
        for a in analyzer.alerts
    )
    return {
        "packets": analyzer.telemetry.packets,
        "digest": sha(text),
        "alerts": len(alerts),
        "alerts_digest": sha(repr(alerts)),
        "batch_s": batch_s,
        "tracked_peak": tracked_peak,
        "telemetry": analyzer.telemetry,
    }


def own_config(spec: dict) -> ScenarioConfig:
    """The scenario the workload analyzes: the capture's, or its own day."""
    reads_capture = WORKLOADS[spec["workload"]].reads_capture
    return scenario_config(spec["seed"], spec["capture_hours" if reads_capture else "hours"])


def fresh_scenario(spec: dict) -> Scenario:
    """A repetition never reuses a scenario: drawing its traffic consumes
    the scenario's random streams."""
    return Scenario(own_config(spec))


def run_once(spec: dict, scenario, feed, trace=NULL) -> dict:
    """The timed operation of ``spec``'s workload."""
    workload = WORKLOADS[spec["workload"]]
    if not workload.reads_capture:
        return report_fused(scenario, trace)
    if workload.mode is None:
        return analyze_pcap(scenario, spec["pcap"], trace)
    return watch(scenario, feed, workload.mode, trace)


# -- correctness ------------------------------------------------------------


class Checks:
    """Each check is one attempted operation; a failed one keeps a reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def equal(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")


def check_rep(spec: dict, checks: Checks, outcome: dict, first: dict) -> None:
    """(a) repetitions agree with each other and with the generated count;
    (b)/(c) they agree with the cross-path reference built in set-up."""
    name = spec["workload"]
    reference = spec.get("reference") or {}
    checks.equal(f"{name} digest vs first rep", outcome["digest"], first["digest"])
    expected = outcome.get("expected", spec.get("pcap_packets"))
    checks.equal(f"{name} total_packets vs generated", outcome["packets"], expected)
    if "fused_digest" in reference:
        checks.equal(
            f"{name} digest vs fused lane", outcome["digest"], reference["fused_digest"]
        )
    if "alerts_digest" in reference:
        checks.equal(
            f"{name} alerts vs exact mode",
            (outcome["alerts"], outcome["alerts_digest"]),
            (reference["alerts"], reference["alerts_digest"]),
        )


# -- the child --------------------------------------------------------------


def materialise(iterable) -> list:
    """``list(iterable)`` with the cyclic GC paused, then frozen.

    Hundreds of thousands of live packet objects make every full
    collection walk them: sizing showed the naive ``list(PcapReader(f))``
    spends 4.1 s where draining the same reader takes 1.2 s.  Without this
    the harness would time its own garbage collector, during the load and
    in every repetition that runs while the list is alive.
    """
    gc.disable()
    try:
        return list(iterable)
    finally:
        gc.freeze()
        gc.enable()


def set_up(spec: dict):
    """What a run pays before its first timed operation, beyond imports:
    the scenario's Internet model and, for the watch loop, the capture as
    in-memory batches."""
    fresh_scenario(spec)
    if WORKLOADS[spec["workload"]].mode:
        return materialise(read_pcap_batches(spec["pcap"], BATCH))
    return None


def timed_reps(spec: dict, feed) -> dict:
    """Repeat the workload for ``spec["seconds"]`` (or ``spec["reps"]``
    times), dropping the cold repetitions the workload declares."""
    cold = WORKLOADS[spec["workload"]].cold
    seconds, reps = spec.get("seconds"), spec.get("reps")
    checks = Checks()
    walls, batch_s, first, rss_mb = [], [], None, None
    began = perf_counter()
    ran = 0
    while True:
        scenario = fresh_scenario(spec)
        start = perf_counter()
        outcome = run_once(spec, scenario, feed)
        wall = perf_counter() - start
        ran += 1
        if first is None:
            first = outcome
            # one cold run is what a CLI user's process peaks at; later
            # repetitions only add allocator drift
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_rep(spec, checks, outcome, first)
        if ran > cold:
            walls.append(wall)
            batch_s.extend(outcome.get("batch_s", ()))
        if reps is not None:
            if ran >= reps:
                break
        elif len(walls) >= MIN_REPS and perf_counter() - began >= seconds:
            break
    result = {
        "packets": first["packets"],
        "digest": first["digest"],
        "wall_s": walls,
        "peak_rss_mb": rss_mb,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }
    if batch_s:
        p50, p95 = batch_percentiles(batch_s)
        result["batch_ms"] = {"p50": p50, "p95": p95, "n": len(batch_s)}
    return result


def child_main() -> int:
    """``run.py --child``: one workload, spec on stdin, result on stdout."""
    spec = json.load(sys.stdin)
    import_s = time.time() - spec["spawned_at"]
    if spec["workload"] is None:  # the driver timing a start alone
        print(json.dumps({"import_s": import_s}))
        return 0
    obs.disable()
    setup_s, feed = [], None
    for _ in range(spec["setups"]):
        feed = None  # drop the last feed before loading the next
        start = perf_counter()
        feed = set_up(spec)
        setup_s.append(perf_counter() - start)
    if spec["trace"]:
        import layers

        result = layers.traced_pass(spec, feed)
    else:
        result = timed_reps(spec, feed)
    result.update(workload=spec["workload"], import_s=import_s, setup_s=setup_s)
    print(json.dumps(result))
    return 0

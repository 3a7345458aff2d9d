"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflow of the paper's toolchain:

- ``simulate`` — generate a telescope capture and write it to pcap;
- ``analyze``  — run the QUICsand pipeline over a pcap and print the
  full report (correlation data — AS registry, census, honeypot tags —
  is regenerated from the scenario seed, so pass the same ``--seed``
  used for ``simulate``);
- ``report``   — simulate + analyze in one go, no pcap on disk;
- ``watch``    — online monitor: stream a live simulator feed or a
  tail-followed pcap through the incremental analyzer, printing flood
  alerts as they fire (see :mod:`repro.stream`);
- ``table1``   — run the NGINX DoS-resiliency benchmark (Table 1);
- ``probe``    — actively probe census servers for RETRY (Section 6);
- ``profile``  — cProfile the generation and analysis hot paths and
  print the top functions (optionally dumping raw pstats data);
- ``stats``    — render the human summary of a metrics JSON file
  written by ``--metrics-out`` (see :mod:`repro.obs`).

Every scenario-driven command accepts ``--scenario NAME`` to start
from a preset in the named-scenario registry (the four isolated IBR
classes and the adversarial workloads — see ``docs/SCENARIOS.md``);
``--seed``/``--hours``/``--research-sample`` still override the preset
when given explicitly.

``analyze``, ``report`` and ``watch`` accept ``--metrics-out FILE``:
it enables the observability registry for the run and writes both the
Prometheus text exposition and the JSON export next to each other
(``FILE.prom`` + ``FILE.json``; see ``docs/METRICS.md`` for the metric
reference).

``main`` always *returns* an exit code (usage errors included — argparse
``SystemExit`` is caught), so embedders get ``0`` success, ``2`` usage.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional

import repro
from repro import obs
from repro.util.batching import BATCH_SIZE
from repro.util.render import format_table
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR


def _package_version() -> str:
    import importlib.metadata  # the email/zipfile stack: only for --version

    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:  # run from a source tree
        return repro.__version__


class _Version(argparse.Action):
    """``--version``, looking the version up only when asked."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"repro {_package_version()}")
        parser.exit()


def _checked(kind, holds, requirement: str):
    """An argparse ``type=``: parse with ``kind``, refuse what fails ``holds``."""

    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value" wording
    return parse


_positive_hours = _checked(float, lambda v: 0 < v < float("inf"), "finite and > 0")
_share = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_at_least_one = _checked(int, lambda v: v >= 1, ">= 1")
_non_negative = _checked(float, lambda v: v >= 0, ">= 0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QUICsand reproduction: telescope simulation and analysis",
    )
    parser.add_argument(
        "--version", action=_Version, nargs=0, help="show program's version number and exit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate a telescope capture pcap")
    _scenario_args(simulate)
    simulate.add_argument("--out", required=True, help="output pcap path")

    analyze = sub.add_parser("analyze", help="analyze a pcap capture")
    analyze.add_argument("pcap", help="input pcap path")
    _scenario_args(analyze)
    analyze.add_argument(
        "--no-correlation",
        action="store_true",
        help="run without AS registry / census / honeypot correlation",
    )
    analyze.add_argument("--report-out", help="also write the report to a file")
    analyze.add_argument("--export", help="write per-figure CSV/JSON data here")
    analyze.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-count corrupt pcap records instead of failing "
        "(count is printed and exported as "
        "repro_pcap_corrupt_records_total)",
    )
    _metrics_arg(analyze)
    _faults_args(analyze)

    report = sub.add_parser("report", help="simulate and analyze in one step")
    _scenario_args(report)
    report.add_argument("--report-out", help="also write the report to a file")
    report.add_argument("--export", help="write per-figure CSV/JSON data here")
    report.add_argument(
        "--workers",
        type=_at_least_one,
        default=1,
        help="worker processes: split the scenario's traffic sources into "
        "N parts, analyze each part in its own process and merge the "
        "results (the report is identical to --workers 1; not with "
        "--faults)",
    )
    _metrics_arg(report)
    _faults_args(report)

    watch = sub.add_parser("watch", help="online monitor: live flood alerts over a packet feed")
    _scenario_args(watch)
    watch.add_argument("--pcap", help="tail-follow this pcap instead of the live simulator feed")
    watch.add_argument(
        "--idle-timeout",
        type=_non_negative,
        default=0.0,
        help="stop once the pcap stops growing for this many seconds "
        "(0 = read a complete capture once and stop)",
    )
    watch.add_argument(
        "--speed",
        type=_non_negative,
        default=0.0,
        help="simulator pacing in event-seconds per wall-second "
        "(0 = unpaced)",
    )
    watch.add_argument(
        "--batch-size",
        type=_at_least_one,
        default=BATCH_SIZE,
        help="packets per analysis batch",
    )
    watch_mode = watch.add_mutually_exclusive_group()
    watch_mode.add_argument(
        "--exact",
        action="store_true",
        help="retain full state and print the batch-identical report at "
        "EOF (memory grows with the capture; default is the bounded, "
        "active-source-proportional mode)",
    )
    watch_mode.add_argument(
        "--sketch",
        action="store_true",
        help="constant-memory sketch tier: count-min source tallies, "
        "space-saving heavy-hitter flood detection and HyperLogLog "
        "cardinalities instead of exact per-source state (memory is "
        "independent of source count; see docs/ARCHITECTURE.md)",
    )
    watch.add_argument(
        "--status-every",
        type=_non_negative,
        default=1800.0,
        help="status-line interval in event-time seconds (0 = off)",
    )
    watch.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-count corrupt pcap records while tail-following "
        "(surfaced in the stream report and StreamTelemetry)",
    )
    _metrics_arg(watch)
    _faults_args(watch)

    stats = sub.add_parser(
        "stats",
        help="render a human summary of a --metrics-out JSON file",
        description="Renders the JSON metric export written by "
        "--metrics-out (schema in docs/METRICS.md).",
    )
    stats.add_argument(
        "metrics",
        help="metrics JSON file written by analyze/report/watch --metrics-out",
    )

    sub.add_parser("table1", help="run the NGINX Table 1 benchmark")

    profile = sub.add_parser("profile", help="cProfile the generate/analyze hot paths")
    _scenario_args(profile)
    profile.add_argument(
        "--stage",
        choices=["generate", "analyze", "both"],
        default="both",
        help="which stage of `repro report` to profile: record "
        "generation, the fused record-batch analysis, or both (default)",
    )
    profile.add_argument("--top", type=_at_least_one, default=25, help="print this many functions")
    profile.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "calls"],
        default="cumulative",
        help="pstats sort order",
    )
    profile.add_argument("--dump", help="also write the raw pstats data to this file")

    probe = sub.add_parser("probe", help="actively probe servers for RETRY")
    _scenario_args(probe)
    probe.add_argument("--count", type=_at_least_one, default=10, help="servers to probe")

    return parser


#: the _scenario_args defaults, filled in for a flag left off the
#: command line — a named --scenario keeps its preset knob instead.
_SCENARIO_ARG_DEFAULTS = dict(seed=20210401, hours=6.0, research_sample=1 / 256)


class _ScenarioNames:
    """``--scenario``'s choices: the preset registry, loaded only when read."""

    def __iter__(self):  # ``in`` falls back to iteration
        from repro.telescope.presets import scenario_names

        return iter(scenario_names())


def _scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=_ScenarioNames(),
        metavar="NAME",
        help="start from a named scenario preset (IBR classes and "
        "adversarial workloads, see docs/SCENARIOS.md): %(choices)s",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--hours", type=_positive_hours)
    parser.add_argument(
        "--research-sample",
        type=_share,
        help="fraction of each research sweep materialized (see DESIGN.md)",
    )


def _faults_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default="none",
        metavar="SPEC",
        help="inject deterministic faults into the packet stream, e.g. "
        "'bitflip=0.01,drop=0.005' ('none' disables; see "
        "docs/ROBUSTNESS.md for the grammar)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed for the fault injector (default: a fixed "
        "injector-specific seed, independent of --seed)",
    )


def _fault_injector(args, stream):
    """Build the injector from --faults/--fault-seed, or None.

    Returns the sentinel ``2`` (the usage exit code) on a bad spec.
    """
    from repro.faults import FaultInjector, FaultSpec, FaultSpecError
    from repro.faults.inject import DEFAULT_FAULT_SEED

    try:
        spec = FaultSpec.parse(getattr(args, "faults", "none") or "none")
    except FaultSpecError as exc:
        print(f"bad --faults spec: {exc}", file=stream)
        return 2
    if not spec.enabled():
        return None
    seed = args.fault_seed if args.fault_seed is not None else DEFAULT_FAULT_SEED
    return FaultInjector(spec, seed)


def _metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        help="enable the observability registry and write Prometheus "
        "text + JSON metric exports to this path (.prom/.json pair; "
        "render with `repro stats FILE.json`)",
    )


def _maybe_enable_metrics(args) -> None:
    if getattr(args, "metrics_out", None):
        obs.enable()


def _maybe_write_metrics(args, stream) -> None:
    if getattr(args, "metrics_out", None):
        files = obs.write_metrics(args.metrics_out)
        print(f"\nmetrics written to {' and '.join(files)}", file=stream)


def _flag(args: argparse.Namespace, name: str):
    """A scenario flag as given, else its CLI default."""
    value = getattr(args, name)
    return _SCENARIO_ARG_DEFAULTS[name] if value is None else value


def _scenario_config(args: argparse.Namespace):
    from repro.telescope import ScenarioConfig

    if getattr(args, "scenario", None):
        from repro.telescope.presets import scenario_config

        config = scenario_config(args.scenario)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.hours is not None:
            config = replace(config, duration=args.hours * HOUR)
        if args.research_sample is not None:
            config = replace(config, research_sample=args.research_sample)
        return config
    return ScenarioConfig(
        seed=_flag(args, "seed"),
        duration=_flag(args, "hours") * HOUR,
        research_sample=_flag(args, "research_sample"),
    )


def _scenario(args: argparse.Namespace):
    from repro.telescope import Scenario

    return Scenario(_scenario_config(args))


def _pipeline(scenario, workers: int = 1):
    from repro.core import AnalysisConfig, QuicsandPipeline

    if scenario is None:
        return QuicsandPipeline(config=AnalysisConfig(retry_probe_count=0))
    return QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(workers=workers),
    )


def _emit_report(result, scenario, out_path: Optional[str], stream) -> None:
    from repro.core.report import build_report

    weight = scenario.truth.research_weight if scenario else 1.0
    text = build_report(result, research_weight=weight)
    print(text, file=stream)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
        print(f"\nreport written to {out_path}", file=stream)


def cmd_simulate(args, stream) -> int:
    from repro.net.pcap import write_records
    from repro.telescope.genlane import wire_items

    scenario = _scenario(args)
    hours = scenario.config.duration / HOUR
    print(f"simulating {hours:.1f} h at telescope {scenario.telescope.prefix} ...", file=stream)
    count = write_records(args.out, wire_items(scenario.records()))
    print(
        f"wrote {count:,} packets to {args.out} "
        f"(planned QUIC floods: {len(scenario.plan.quic_floods)})",
        file=stream,
    )
    return 0


def cmd_analyze(args, stream) -> int:
    from repro.net.pcap import PcapFormatError, PcapReader

    _maybe_enable_metrics(args)
    injector = _fault_injector(args, stream)
    if injector == 2:
        return 2
    scenario = None if args.no_correlation else _scenario(args)
    pipeline = _pipeline(scenario)
    try:
        with open(args.pcap, "rb") as pcap_stream:
            reader = PcapReader(pcap_stream, lenient=args.lenient)
            packets = iter(reader)
            if injector is not None:
                packets = injector.wrap(packets)
            result = pipeline.process(packets)
    except (OSError, PcapFormatError) as exc:
        return _unreadable(args.pcap, exc, stream)
    if args.lenient and reader.corrupt_records:
        from repro.stream.feeds import note_corrupt_records

        note_corrupt_records(reader.corrupt_records)
        print(
            f"skipped {reader.corrupt_records} corrupt pcap record(s)",
            file=stream,
        )
    if injector is not None:
        print(injector.summary(), file=stream)
    _emit_report(result, scenario, args.report_out, stream)
    _maybe_export(result, args, stream)
    _maybe_write_metrics(args, stream)
    return 0


def cmd_report(args, stream) -> int:
    _maybe_enable_metrics(args)
    injector = _fault_injector(args, stream)
    if injector == 2:
        return 2
    if injector is not None and args.workers > 1:
        print(
            "--faults needs --workers 1: faults are defined over one "
            "packet stream, and --workers splits it",
            file=stream,
        )
        return 2
    scenario = _scenario(args)
    pipeline = _pipeline(scenario, workers=args.workers)
    if injector is None:
        # fused fast path: gen records feed the batch lane directly —
        # no CapturedPacket objects, no wire bytes, no dissection
        result = pipeline.process_scenario(scenario)
    else:
        # the injector takes packets: the same records, viewed as the
        # packets a capture of them would hold
        result = pipeline.process(injector.wrap(scenario.packets()))
    if injector is not None:
        print(injector.summary(), file=stream)
    _emit_report(result, scenario, args.report_out, stream)
    _maybe_export(result, args, stream)
    _maybe_write_metrics(args, stream)
    return 0


def cmd_stats(args, stream) -> int:
    try:
        print(obs.render_summary(args.metrics), file=stream)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot render {args.metrics}: {exc}", file=stream)
        return 2
    return 0


def _unreadable(path, exc, stream) -> int:
    """A capture that is missing or damaged: one line, exit 2."""
    print(f"cannot read {path}: {exc}; --lenient skips damaged records", file=stream)
    return 2


def _maybe_export(result, args, stream) -> None:
    if getattr(args, "export", None):
        from repro.core.export import export_results

        files = export_results(result, args.export)
        print(f"\nexported {len(files)} data files to {args.export}", file=stream)


def cmd_watch(args, stream) -> int:
    from repro.net.pcap import PcapFormatError
    from repro.stream import StreamAnalyzer, StreamConfig, follow_pcap

    _maybe_enable_metrics(args)
    scenario = _scenario(args)
    mode = "exact" if args.exact else "sketch" if args.sketch else "bounded"
    analyzer = StreamAnalyzer(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        stream_config=StreamConfig(mode=mode),
    )
    injector = _fault_injector(args, stream)
    if injector == 2:
        return 2
    if args.pcap:
        feed = follow_pcap(
            args.pcap,
            batch_size=args.batch_size,
            idle_timeout=args.idle_timeout,
            lenient=args.lenient,
            on_corrupt=analyzer.record_corrupt_records,
        )
        source = f"tail-following {args.pcap}"
    else:
        feed = scenario.live_batches(batch_size=args.batch_size, speed=args.speed or None)
        source = f"live simulator feed ({scenario.config.duration / HOUR:.1f} h planned)"
    if injector is not None:
        feed = injector.wrap_batches(feed, batch_size=args.batch_size)
    print(f"watching {source} [{mode} mode]", file=stream)
    next_status: Optional[float] = None
    try:
        for batch in feed:
            for event in analyzer.process_batch(batch):
                print(event.render(), file=stream)
            if args.status_every > 0:
                watermark = analyzer.telemetry.watermark
                if next_status is None:
                    next_status = watermark + args.status_every
                elif watermark >= next_status:
                    print(analyzer.status_line(), file=stream)
                    next_status = watermark + args.status_every
    except KeyboardInterrupt:
        print("interrupted — finalizing", file=stream)
    except (OSError, PcapFormatError) as exc:
        if not args.pcap:
            raise
        return _unreadable(args.pcap, exc, stream)
    for event in analyzer.finish():
        print(event.render(), file=stream)
    print(analyzer.status_line(), file=stream)
    if injector is not None:
        print(injector.summary(), file=stream)
    if args.exact:
        _emit_report(analyzer.result(), scenario, None, stream)
    else:
        print(analyzer.stream_report(), file=stream)
    _maybe_write_metrics(args, stream)
    return 0


def cmd_profile(args, stream) -> int:
    """cProfile what ``repro report`` runs: record generation and/or the
    fused record-batch analysis."""
    import cProfile
    import pstats
    import time

    scenario = _scenario(args)
    pipeline = _pipeline(scenario)
    profiler = cProfile.Profile()

    def timed(stage, work):
        """``(work(), seconds)``, profiled when ``stage`` was asked for."""
        start = time.perf_counter()
        out = profiler.runcall(work) if args.stage in (stage, "both") else work()
        return out, time.perf_counter() - start

    batches, generate_elapsed = timed("generate", lambda: list(scenario.lane_batches()))
    result, analyze_elapsed = timed("analyze", lambda: pipeline.process_record_batches(batches))

    count = sum(map(len, batches))
    print(
        f"profiled stage(s): {args.stage}  ({count:,} packets, "
        f"{len(scenario.plan.quic_floods)} planned QUIC floods)",
        file=stream,
    )
    print(
        f"generate: {generate_elapsed:.2f} s "
        f"({count / generate_elapsed:,.0f} pps)   "
        f"analyze: {analyze_elapsed:.2f} s "
        f"({count / analyze_elapsed:,.0f} pps)",
        file=stream,
    )
    print(f"analyzed packets: {result.total_packets:,}\n", file=stream)
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"pstats dump written to {args.dump}", file=stream)
    return 0


def cmd_table1(_args, stream) -> int:
    from repro.server import run_table1, table1_rows

    headers, rows = table1_rows(run_table1())
    print(format_table(headers, rows, title="Table 1 — NGINX DoS resiliency"), file=stream)
    return 0


def cmd_probe(args, stream) -> int:
    from repro.core.retry_audit import ActiveProber
    from repro.net.addresses import format_ipv4

    scenario = _scenario(args)
    prober = ActiveProber(scenario.internet.census, SeededRng(_flag(args, "seed"), "probe"))
    records = scenario.internet.census.all_records()[: args.count]
    rows = []
    for record in records:
        outcome = prober.probe(record.address)
        rows.append(
            [
                format_ipv4(record.address),
                record.provider,
                "yes" if outcome.handshake_completed else "no",
                "yes" if outcome.retry_received else "no",
                str(outcome.http_status) if outcome.http_status else "-",
            ]
        )
    print(
        format_table(
            ["server", "provider", "handshake", "retry", "HTTP"],
            rows,
            title="Active RETRY probes",
        ),
        file=stream,
    )
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "report": cmd_report,
    "watch": cmd_watch,
    "table1": cmd_table1,
    "probe": cmd_probe,
    "profile": cmd_profile,
    "stats": cmd_stats,
}


def main(argv: Optional[list] = None, stream=None) -> int:
    stream = stream or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on usage errors (missing/unknown subcommand,
        # bad flags) and 0 on --help/--version; surface that as a
        # return value so every path out of main is a plain int.
        code = exit_.code
        return code if isinstance(code, int) else 2
    return _COMMANDS[args.command](args, stream)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Full-text measurement report: every paper result in one document.

``build_report`` renders a :class:`~repro.core.pipeline.PipelineResult`
into the complete set of tables and ASCII figures the paper's
evaluation contains, assembled for humans.  Used by ``python -m repro analyze`` and the
``examples`` scripts.
"""

from __future__ import annotations


from repro.net.addresses import format_ipv4
from repro.util.render import cdf_points, format_table, sparkline
from repro.util.stats import EmpiricalCdf
from repro.util.timeutil import HOUR
from repro.core.pipeline import PipelineResult

_RULE = "=" * 72


def build_report(result: PipelineResult, research_weight: float = 1.0) -> str:
    """Render the full QUICsand report for one analyzed capture."""
    sections = [
        _overview(result, research_weight),
        _traffic_types(result),
        _sessions(result),
        _attacks(result),
        _multivector(result),
        _providers(result),
        _validity(result),
        _retry(result),
    ]
    return ("\n" + _RULE + "\n").join(s for s in sections if s)


def _overview(result: PipelineResult, research_weight: float) -> str:
    window_hours = (result.window_end - result.window_start) / HOUR
    research_full = result.research_packets * research_weight
    total_full = research_full + result.sanitized_quic_packets
    research_share = research_full / total_full if total_full else 0.0
    rows = [
        ["measurement window", f"{window_hours:.1f} hours"],
        ["packets captured", f"{result.total_packets:,}"],
        ["QUIC packets (port+dissector)", f"{result.research_packets + result.sanitized_quic_packets:,}"],
        ["dissector-rejected UDP/443", f"{result.dissection_failures:,}"],
        ["research scanner sources", str(len(result.research_sources))],
        ["research share (weight-adjusted)", f"{research_share * 100:.1f}%  (paper: 98.5%)"],
    ]
    return format_table(["metric", "value"], rows, title="Overview (Figure 2)")


def _traffic_types(result: PipelineResult) -> str:
    hours = sorted(set(result.hourly_requests) | set(result.hourly_responses))
    requests = [result.hourly_requests.get(h, 0) for h in hours]
    responses = [result.hourly_responses.get(h, 0) for h in hours]
    head = format_table(
        ["metric", "value"],
        [
            ["request share", f"{result.request_share * 100:.1f}%  (paper: 15%)"],
            ["response share", f"{(1 - result.request_share) * 100:.1f}%  (paper: 85%)"],
        ],
        title="Traffic types (Figure 3)",
    )
    series = (
        "requests/h : " + sparkline(requests) + "\n"
        "responses/h: " + sparkline(responses)
    )
    return head + "\n" + series


def _sessions(result: PipelineResult) -> str:
    sweep = result.timeout_sweep
    if sweep is None or sweep.source_count == 0:
        return ""
    rows = [
        [f"{minutes} min", sweep.sessions_at(minutes * 60)]
        for minutes in (1, 2, 5, 10, 30, 60)
    ]
    rows.append(["infinity", sweep.source_count])
    head = format_table(
        ["timeout", "sessions"],
        rows,
        title=f"Session timeout sweep (Figure 4) — knee at {sweep.knee_minutes():.0f} min (paper: ~5)",
    )
    request_types = {
        t.value: n for t, n in result.request_network_types.items() if n
    }
    response_types = {
        t.value: n for t, n in result.response_network_types.items() if n
    }
    types = format_table(
        ["network type", "request sessions", "response sessions"],
        [
            [name, request_types.get(name, 0), response_types.get(name, 0)]
            for name in sorted(set(request_types) | set(response_types))
        ],
        title="Source network types (Figure 5)",
    )
    greynoise = ""
    if result.greynoise_summary:
        greynoise = "\nGreyNoise on request sources: " + ", ".join(
            f"{k}={v}" for k, v in result.greynoise_summary.items()
        )
    countries = ""
    if result.request_country_counts:
        top = sorted(
            result.request_country_counts.items(), key=lambda kv: -kv[1]
        )[:5]
        total = sum(result.request_country_counts.values())
        countries = "\nrequest session origins: " + ", ".join(
            f"{c} {n / total * 100:.0f}%" for c, n in top
        )
    return head + "\n\n" + types + greynoise + countries


def _attacks(result: PipelineResult) -> str:
    if not result.quic_attacks:
        return "No QUIC flood attacks detected."
    analysis = result.victim_analysis
    window_hours = (result.window_end - result.window_start) / HOUR
    quic_durations = EmpiricalCdf([a.duration for a in result.quic_attacks])
    quic_pps = EmpiricalCdf([a.max_pps for a in result.quic_attacks])
    rows = [
        ["QUIC floods", f"{analysis.attack_count} ({analysis.attack_count / window_hours:.1f}/hour; paper ~4/hour)"],
        ["share of response sessions", f"{result.quic_detector.detection_rate * 100:.0f}%  (paper: 11%)"],
        ["unique victims", str(analysis.victim_count)],
        ["victims attacked once", f"{analysis.single_attack_victim_share * 100:.0f}%  (paper: >50%)"],
        ["attacks on known QUIC servers", f"{analysis.known_server_share * 100:.0f}%  (paper: 98%)"],
        ["median duration", f"{quic_durations.median_value:.0f} s  (paper: 255 s)"],
        ["median max pps", f"{quic_pps.median_value:.2f}  (paper: ~1)"],
    ]
    if result.common_attacks:
        common_durations = EmpiricalCdf([a.duration for a in result.common_attacks])
        rows.append(
            [
                "TCP/ICMP floods (median duration)",
                f"{len(result.common_attacks)} ({common_durations.median_value:.0f} s; paper: 1499 s)",
            ]
        )
    head = format_table(["metric", "value"], rows, title="DoS floods (Figures 6, 7)")
    cdf = "attacks-per-victim CDF:\n" + cdf_points(
        EmpiricalCdf(analysis.attacks_per_victim_sorted()).steps()
    )
    return head + "\n\n" + cdf


def _multivector(result: PipelineResult) -> str:
    if result.multivector is None or not result.multivector.correlated:
        return ""
    shares = result.multivector.category_shares()
    rows = [
        ["concurrent", f"{shares['concurrent'] * 100:.0f}%  (paper: 51%)"],
        ["sequential", f"{shares['sequential'] * 100:.0f}%  (paper: 40%)"],
        ["isolated", f"{shares['isolated'] * 100:.0f}%  (paper: 9%)"],
    ]
    overlap = result.multivector.overlap_shares
    if overlap:
        full = sum(1 for s in overlap if s >= 0.999) / len(overlap)
        mean = sum(overlap) / len(overlap)
        rows.append(["fully parallel (of concurrent)", f"{full * 100:.0f}%  (paper: 75%)"])
        rows.append(["mean overlap share", f"{mean * 100:.0f}%  (paper: 95%)"])
    gaps = result.multivector.sequential_gaps
    if gaps:
        over_hour = sum(1 for g in gaps if g > HOUR) / len(gaps)
        rows.append(["sequential gaps > 1 h", f"{over_hour * 100:.0f}%  (paper: 82%)"])
    return format_table(
        ["metric", "value"], rows, title="Multi-vector attacks (Figures 8, 12, 13)"
    )


def _providers(result: PipelineResult) -> str:
    interesting = [
        name for name in ("Google", "Facebook") if name in result.profiles
    ]
    if not interesting:
        return ""
    rows = []
    for name in interesting:
        profile = result.profiles[name]
        version, share = profile.dominant_version()
        rows.append(
            [
                name,
                profile.attack_count,
                f"{result.victim_analysis.provider_share(name) * 100:.0f}%",
                f"{profile.median('packet_count'):.0f}",
                f"{profile.median('unique_client_ips'):.0f}",
                f"{profile.median('unique_client_ports'):.0f}",
                f"{profile.median('unique_scids'):.0f}",
                f"{version} {share * 100:.0f}%",
            ]
        )
    return format_table(
        ["provider", "attacks", "share", "pkts", "IPs", "ports", "SCIDs", "version"],
        rows,
        title="Provider fingerprints (Figure 9) — medians per attack",
    )


def _validity(result: PipelineResult) -> str:
    shares = result.message_type_shares()
    if not shares:
        return ""
    rows = [
        [name, f"{share * 100:.1f}%"]
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ]
    rows.append(
        ["backscatter with DCID len 0", f"{result.empty_dcid_share * 100:.1f}%"]
    )
    return format_table(
        ["message type (response sessions)", "share"],
        rows,
        title="Attack pattern validity (Section 6) — paper: 31% Initial / 57% Handshake",
    )


def _retry(result: PipelineResult) -> str:
    audit = result.retry_audit
    if audit is None:
        return ""
    rows = [
        ["RETRY packets in backscatter", str(audit.passive_retry_packets)],
        [
            "active probes returning RETRY",
            f"{sum(1 for p in audit.probes if p.retry_received)} / {len(audit.probes)}",
        ],
        [
            "probes completing handshake + HTTP/3 GET",
            f"{sum(1 for p in audit.probes if p.handshake_completed and p.http_status == 200)} / {len(audit.probes)}",
        ],
        ["verdict", "RETRY NOT deployed" if not audit.retry_deployed else "RETRY seen!"],
    ]
    table = format_table(["metric", "value"], rows, title="RETRY audit (Section 6)")
    probe_rows = [
        [
            format_ipv4(p.address),
            p.provider,
            "yes" if p.retry_received else "no",
            str(p.http_status) if p.http_status else "-",
        ]
        for p in audit.probes[:10]
    ]
    if probe_rows:
        table += "\n\n" + format_table(
            ["victim", "provider", "retry", "HTTP"], probe_rows
        )
    return table

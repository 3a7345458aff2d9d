"""The paper's claims as one tolerance table, checked on five seeds.

Each row of ``CLAIMS`` is one claim: an id (figure, table, section or
ablation, plus a short name), the paper's value as printed, what is
measured, and the band the measurement must fall in.  A shape claim
(who dominates, by what factor, where a crossover falls) is measured as
a share, a difference or a ratio, so a one-sided band states it.

The substrate is a seeded simulator and the window is a day, not the
UCSD telescope's month, so absolute counts are not claims here; shares,
medians and orderings are.  One module-scoped fixture measures every
row:

- per seed in ``SEEDS``: the 24 h scenario at 1/64 research sampling
  through ``QuicsandPipeline.process_scenario``, which every figure row
  and A2 read, plus the ablations A1, A4 and A5 in their own smaller
  configurations drawn from the same seed;
- once: TAB1, D3 and A3, which have no scenario.

Every per-seed row is asserted on every seed.  Two rows do not follow
the paper on every seed, and their bands state what the seeds show
instead (EXPERIMENTS.md, *Known deviations*): FIG9's Google/Facebook
median packet ratio and FIG10's attack count at w = 10.

EXPERIMENTS.md's paper-vs-measured table is :func:`render` of the
measurements (median and min–max over the seeds).  After an intended
change, regenerate it with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_paper_claims.py
"""

from __future__ import annotations

import math
import multiprocessing
import os
import statistics
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.classify import PacketClass, TrafficClassifier
from repro.core.dos import DosDetector, DosThresholds
from repro.core.extrapolate import TelescopeExtrapolator
from repro.core.multivector import correlate_attacks
from repro.internet.asn import NetworkType
from repro.internet.topology import TopologyConfig
from repro.net.addresses import IPv4Network
from repro.quic import tls
from repro.quic.connection import ClientConnection, ServerConnection
from repro.quic.crypto import derive_initial_keys
from repro.quic.frames import CryptoFrame
from repro.quic.header import LongHeader, PacketType
from repro.quic.packet import PlainPacket, build_datagram
from repro.quic.resumption import SessionCache
from repro.quic.versions import QUIC_V1
from repro.server.benchmark import TABLE1_SETUPS, run_attack
from repro.server.nginx import AUTO_WORKERS, NginxConfig, NginxQuicServer
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.attacks import AttackPlanConfig
from repro.util.rng import SeededRng
from repro.util.stats import median
from repro.util.timeutil import HOUR, MINUTE

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
BEGIN = "<!-- claims table: rendered by tests/test_paper_claims.py -->"
END = "<!-- end of claims table -->"

#: the seed the figure benches were tuned on, then four more
SEEDS = (20210401, 1, 2, 3, 4)
#: claim-id prefixes measured once: they have no scenario
ONCE = ("TAB1", "D3", "A3")
NAN = math.nan


def _ratio(a: float, b: float) -> float:
    return a / b if b else NAN


def _median(values: list) -> float:
    return median(values) if values else NAN


def _max_rise(series: list) -> float:
    """Largest step up along ``series``: ≤ 0 means non-increasing."""
    return max(b - a for a, b in zip(series, series[1:]))


def _cov(series: list) -> float:
    mean = sum(series) / len(series) if series else 0.0
    if not mean:
        return 0.0
    return (sum((x - mean) ** 2 for x in series) / len(series)) ** 0.5 / mean


def _pipeline(scenario: Scenario, **config) -> QuicsandPipeline:
    internet = scenario.internet
    return QuicsandPipeline(
        registry=internet.registry,
        census=internet.census,
        greynoise=internet.greynoise,
        config=AnalysisConfig(**config),
    )


# -- per-seed measurements ---------------------------------------------------


def measure_seed(seed: int) -> dict:
    """Every figure row and A2, from one 24 h scenario."""
    scenario = Scenario(
        ScenarioConfig(seed=seed, duration=24 * HOUR, research_sample=1 / 64)
    )
    result = _pipeline(scenario).process_scenario(scenario)
    values = {}
    for part in (_traffic, _attacks, _providers, _multivector, _detection):
        values.update(part(result, scenario))
    return values


def measure_ablations(seed: int) -> dict:
    return {**_a1(seed), **_a4_a5(seed)}


def _traffic(result, scenario) -> dict:
    research = result.research_packets * scenario.truth.research_weight
    hours = sorted(set(result.hourly_requests) | set(result.hourly_responses))
    profile = [0] * 24
    for hour, count in result.hourly_requests.items():
        profile[int(hour % 24)] += count
    peaks = sorted(range(24), key=lambda h: profile[h], reverse=True)[:4]
    counts = [n for _minutes, n in result.timeout_sweep.sweep(range(1, 61))]
    s1, s5, s60 = counts[0], counts[4], counts[-1]

    def share(counts, kind):
        total = sum(counts.values())
        return counts.get(kind, 0) / total if total else 0.0

    return {
        "FIG2.research_share": _ratio(research, research + result.sanitized_quic_packets),
        "FIG3.request_share": result.request_share,
        "FIG3.cov_gap": _cov([result.hourly_responses.get(h, 0) for h in hours])
        - _cov([result.hourly_requests.get(h, 0) for h in hours]),
        "FIG3.peak_hours": len(set(peaks) & {5, 6, 7, 17, 18, 19}),
        "FIG4.s5_over_s1": _ratio(s5, s1),
        "FIG4.s60_over_s5": _ratio(s60, s5),
        "FIG4.floor_over_s60": _ratio(result.timeout_sweep.source_count, s60),
        "FIG4.tail_over_knee_drop": _ratio(s5 - s60, s1 - s5),
        "FIG4.knee": result.timeout_sweep.knee_minutes(),
        "FIG5.request_eyeball": share(result.request_network_types, NetworkType.EYEBALL),
        "FIG5.response_content": share(result.response_network_types, NetworkType.CONTENT),
    }


def _attacks(result, scenario) -> dict:
    victims = result.victim_analysis
    quic, common = result.quic_attacks, result.common_attacks
    shares = result.message_type_shares()
    initial = shares.get("initial", 0)
    audit = result.retry_audit
    return {
        "FIG6.single_attack_victims": victims.single_attack_victim_share if quic else NAN,
        "FIG6.known_server_share": victims.known_server_share if quic else NAN,
        "FIG7.duration_ratio": _ratio(
            _median([a.duration for a in quic]), _median([a.duration for a in common])
        ),
        "FIG7.quic_max_pps": _median([a.max_pps for a in quic]),
        "FIG7.common_max_pps": _median([a.max_pps for a in common]),
        "D1.initial_share": initial,
        "D1.handshake_over_initial": _ratio(shares.get("handshake", 0), initial),
        "D1.empty_dcid_share": result.empty_dcid_share,
        "D2.passive_retry_packets": audit.passive_retry_packets if audit else NAN,
        "D2.probes_with_retry": sum(p.retry_received for p in audit.probes) if audit else NAN,
        "D2.probes": len(audit.probes) if audit else NAN,
        "D2.probes_completed": (
            _ratio(sum(p.handshake_completed for p in audit.probes), len(audit.probes))
            if audit
            else NAN
        ),
    }


def _providers(result, scenario) -> dict:
    medians = {}
    for name in ("Google", "Facebook"):
        profile = result.profiles.get(name)
        if profile is not None and profile.attack_count:
            medians[name] = {
                key: profile.median(key)
                for key in ("packet_count", "unique_client_ips", "unique_client_ports", "unique_scids")
            }
            version, version_share = profile.dominant_version()
            medians[name]["version"] = (version, version_share)
    if set(medians) != {"Google", "Facebook"}:
        return {}  # every FIG9 row then fails with a missing value
    google, facebook = medians["Google"], medians["Facebook"]

    def dominant(profile, expected):
        version, version_share = profile["version"]
        return version_share if version == expected else 0.0

    victims = result.victim_analysis
    return {
        "FIG9.google_ports_over_ips": _ratio(google["unique_client_ports"], google["unique_client_ips"]),
        "FIG9.facebook_ports_over_ips": _ratio(
            facebook["unique_client_ports"], facebook["unique_client_ips"]
        ),
        "FIG9.scids_ratio": _ratio(google["unique_scids"], facebook["unique_scids"]),
        "FIG9.packets_ratio": _ratio(google["packet_count"], facebook["packet_count"]),
        "FIG9.google_draft29": dominant(google, "draft-29"),
        "FIG9.facebook_mvfst27": dominant(facebook, "mvfst-draft-27"),
        "FIG9.provider_share": victims.provider_share("Google") + victims.provider_share("Facebook"),
    }


def _multivector(result, scenario) -> dict:
    analysis = result.multivector
    shares = analysis.category_shares()
    overlaps = analysis.overlap_shares
    gaps = analysis.sequential_gaps
    best, best_score = None, -1
    for item in analysis.correlated:  # FIG11: the victim with the richest mix
        rows = analysis.victim_timeline(item.attack.victim_ip)
        quic = sum(1 for row in rows if row[0] == "quic")
        score = min(quic, 5) + 2 * min(len(rows) - quic, 3)
        if quic >= 2 and len(rows) > quic and score > best_score:
            best, best_score = rows, score
    a2 = []
    for min_overlap in (1.0, 10.0, 30.0, 60.0, 120.0):
        rule = correlate_attacks(result.quic_attacks, result.common_attacks, min_overlap=min_overlap)
        a2.append(rule.category_shares())
    isolated = [rule["isolated"] for rule in a2]
    return {
        "FIG8.concurrent": shares["concurrent"],
        "FIG8.sequential": shares["sequential"],
        "FIG8.isolated": shares["isolated"],
        "FIG8.concurrent_minus_isolated": shares["concurrent"] - shares["isolated"],
        "FIG11.quic_floods": sum(1 for row in best if row[0] == "quic") if best else NAN,
        "FIG11.common_floods": sum(1 for row in best if row[0] in ("tcp", "icmp")) if best else NAN,
        "FIG12.fully_parallel": _ratio(sum(1 for s in overlaps if s >= 0.999), len(overlaps)),
        "FIG12.mean_overlap": _ratio(sum(overlaps), len(overlaps)),
        "FIG13.gaps_over_hour": _ratio(sum(1 for g in gaps if g > HOUR), len(gaps)),
        "FIG13.median_gap": _median(gaps),
        "A2.strict_shrink": a2[0]["concurrent"] - a2[-1]["concurrent"],
        "A2.concurrent_at_60s": _ratio(a2[3]["concurrent"], a2[0]["concurrent"]),
        "A2.isolated_spread": max(isolated) - min(isolated),
    }


def _detection(result, scenario) -> dict:
    """FIG10: re-detect the response sessions under thresholds scaled by w."""
    base = DosThresholds()
    census = scenario.internet.census
    counts, content = {}, []
    for weight in (0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
        detector = DosDetector(
            DosThresholds(
                base.min_packets * weight, base.min_duration * weight, base.min_max_pps * weight
            )
        )
        detector.detect_all(result.response_sessions)
        counts[weight] = len(detector.attacks)
        if detector.attacks:
            known = sum(1 for a in detector.attacks if a.victim_ip in census)
            content.append(known / len(detector.attacks))
    return {
        "FIG10.count_rise": _max_rise(list(counts.values())),
        "FIG10.relaxed_over_default": _ratio(counts[0.1], counts[1.0]),
        "FIG10.attacks_at_w10": counts[10.0],
        "FIG10.min_content_share": min(content, default=NAN),
    }


def _a1(seed: int) -> dict:
    """Port-only vs port+dissector classification of a stray-heavy 2 h window."""
    scenario = Scenario(
        ScenarioConfig(
            seed=seed, duration=2 * HOUR, research_sample=1 / 1024, stray_packets_per_day=5000.0
        )
    )
    dissector = TrafficClassifier(dissect_payloads=True)
    port_only = TrafficClassifier(dissect_payloads=False)
    for packet in scenario.packets():
        dissector.classify(packet)
        port_only.classify(packet)

    def quic(classifier):
        return classifier.counters[PacketClass.QUIC_REQUEST] + classifier.counters[PacketClass.QUIC_RESPONSE]

    false_positives = dissector.counters[PacketClass.NON_QUIC_UDP443]
    return {
        "A1.identity": quic(port_only) - quic(dissector) - false_positives,
        "A1.false_positive_share": _ratio(false_positives, quic(port_only)),
    }


def _tile_estimates(batches: list, net: IPv4Network, prefix_len: int) -> list:
    """Each ``/prefix_len`` tile of ``net`` as a telescope of its own:
    its packets scaled to ``net`` by the two extrapolation factors, over
    the packets ``net`` captured (1 = the tile extrapolates exactly)."""
    shift = 32 - prefix_len
    counts = Counter(record[2] >> shift for batch in batches for record in batch)
    total = sum(counts.values())
    estimates = []
    for index in range(1 << (prefix_len - net.prefix_len)):
        tile = IPv4Network(net.network + (index << shift), prefix_len)
        scale = TelescopeExtrapolator(tile).factor / TelescopeExtrapolator(net).factor
        estimates.append(counts[tile.network >> shift] * scale / total)
    return estimates


def _iqr(values: list) -> float:
    low, _median, high = statistics.quantiles(values, n=4)
    return high - low


def _a4_a5(seed: int) -> dict:
    """One Internet-wide attack population seen by a /9, a /12 and a /16
    (A5); the /9 capture re-sessionized under five timeouts (A4); the /9
    capture's /12 and /16 tiles extrapolated to the /9 (A5)."""
    recall, values = {}, {}
    for prefix in (9, 12, 16):
        scale = 2.0 ** (9 - prefix)  # plan rates are calibrated for a /9
        base = AttackPlanConfig()
        attacks = replace(
            base,
            quic_rate_median=base.quic_rate_median * scale,
            quic_min_rate=base.quic_min_rate * scale,
            quic_max_rate=base.quic_max_rate * scale,
            common_rate_median=base.common_rate_median * scale,
            common_min_rate=base.common_min_rate * scale,
            common_max_rate=base.common_max_rate * scale,
            common_floods_per_hour=4.0,
        )
        scenario = Scenario(
            ScenarioConfig(
                seed=seed,
                duration=8 * HOUR,
                research_sample=1 / 4096,
                topology=TopologyConfig(telescope_cidr=f"44.0.0.0/{prefix}"),
                attacks=attacks,
            )
        )
        planned = len(scenario.plan.quic_floods)
        if prefix != 9:
            result = _pipeline(scenario, retry_probe_count=0).process_scenario(scenario)
            recall[prefix] = _ratio(len(result.quic_attacks), planned)
            continue
        batches = list(scenario.lane_batches())
        sessions, detected = [], {}
        for minutes in (0.5, 1.0, 5.0, 15.0, 60.0):
            pipeline = _pipeline(scenario, session_timeout=minutes * MINUTE, retry_probe_count=0)
            result = pipeline.process_record_batches(iter(batches))
            sessions.append(len(result.response_sessions))
            detected[minutes] = len(result.quic_attacks)
        recall[9] = _ratio(detected[5.0], planned)  # 5 min is the default timeout
        tiles_12 = _tile_estimates(batches, scenario.telescope.prefix, 12)
        tiles_16 = _tile_estimates(batches, scenario.telescope.prefix, 16)
        values = {
            "A4.session_rise": _max_rise(sessions),
            "A4.recall_at_5min": recall[9],
            "A4.detected_15_over_5": _ratio(detected[15.0], detected[5.0]),
            "A5.tile_estimate_12": _median(tiles_12),
            "A5.tile_spread_16_minus_12": _iqr(tiles_16) - _iqr(tiles_12),
        }
    return {
        **values,
        "A5.recall_9": recall[9],
        "A5.recall_9_minus_12": recall[9] - recall[12],
        "A5.recall_12_minus_16": recall[12] - recall[16],
        "A5.recall_16": recall[16],
    }


# -- measured once -----------------------------------------------------------


def measure_once() -> dict:
    return {**_d3(), **_a3()}


def measure_tab1(volume: int, retry: bool, workers: int, requests: int) -> dict:
    """One row of ``run_table1``: a replayed Initial flood against NGINX."""
    server = NginxQuicServer(NginxConfig(workers=workers, retry_enabled=retry))
    row = run_attack(server, rate_pps=volume, total_requests=requests)
    return {_tab1_id(volume, retry, workers): row.availability}


def _tab1_id(pps: int, retry: bool, workers: int) -> str:
    return f"TAB1.{pps}pps_{'retry' if retry else 'noretry'}_w{'auto' if workers == AUTO_WORKERS else workers}"


def _d3() -> dict:
    """Reflected bytes per spoofed byte against a worst-case server."""

    def spoofed_initial(rng, pad_to):
        dcid = rng.randbytes(8)
        client_keys, _ = derive_initial_keys(QUIC_V1, dcid)
        hello = tls.ClientHello(random=rng.randbytes(32), server_name="victim.example")
        header = LongHeader(
            packet_type=PacketType.INITIAL, version=QUIC_V1.value, dcid=dcid, scid=rng.randbytes(8)
        )
        packet = PlainPacket(header=header, packet_number=0, frames=[CryptoFrame(0, hello.serialize())])
        return build_datagram([(packet, client_keys)], pad_to=pad_to)

    def factors(retry_enabled, samples=12):
        rng = SeededRng(20210403 if retry_enabled else 20210402)
        out = []
        for size in (1200, 1500, 2000, 3000):
            server = ServerConnection(
                rng.child(f"server:{size}"),
                retry_enabled=retry_enabled,
                keepalive_pings=2,
                cert_chain_len=3000,  # worst case: uncompressed certificates
            )
            ratios = []
            for i in range(samples):
                request = spoofed_initial(rng.child(f"probe:{size}:{i}"), size)
                responses = server.handle_datagram(request, 100 + i, 200 + i, now=0.0)
                ratios.append(sum(len(r.data) for r in responses) / len(request))
            out.append(sum(ratios) / len(ratios))
        return out

    plain = factors(False)
    return {
        "D3.max_factor": max(plain),
        "D3.padding_rise": _max_rise(plain),
        "D3.max_retry_factor": max(factors(True)),
    }


def _a3(clients: int = 40) -> dict:
    """Handshake round-trips against a RETRY server: fresh, resumed, 0-RTT."""

    def run(client, server):
        pending = [client.initial_datagram()]
        for _ in range(8):
            nxt = []
            for datagram in pending:
                for response in server.handle_datagram(datagram, 0x0A000001, 4433, now=100.0):
                    nxt.extend(reply.data for reply in client.handle_datagram(response.data))
            pending = nxt
        return client.result()

    rng = SeededRng(33)
    server = ServerConnection(rng.child("server"), retry_enabled=True)
    cache = SessionCache()
    runs = {"fresh": [], "resumed": [], "early": []}
    for i in range(clients):
        name = "svc.example"
        runs["fresh"].append(run(ClientConnection(rng.child(f"fresh{i}"), server_name=name, session_cache=cache), server))
        state = cache.lookup(name)
        runs["resumed"].append(run(ClientConnection(rng.child(f"resumed{i}"), server_name=name, resumption=state), server))
        early = ClientConnection(
            rng.child(f"early{i}"), server_name=name, resumption=state, early_data=b"GET / HTTP/3"
        )
        runs["early"].append(run(early, server))
    everything = [r for results in runs.values() for r in results]

    def mean_rts(results):
        return sum(r.round_trips for r in results) / len(results)

    return {
        "A3.completed": sum(r.completed for r in everything) / len(everything),
        "A3.used_0rtt": sum(r.used_0rtt for r in runs["early"]) / clients,
        "A3.fresh_rts": mean_rts(runs["fresh"]),
        "A3.resumed_rts": mean_rts(runs["resumed"]),
        "A3.zero_rtt_rts": mean_rts(runs["early"]),
        "A3.zero_rtt_accepted": server.stats["zero_rtt_accepted"],
    }


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Band:
    """Accepted values: the open interval (low, high), or [low, high] if closed."""

    low: float = -math.inf
    high: float = math.inf
    closed: bool = False

    def holds(self, value: float) -> bool:
        if self.closed:
            return self.low <= value <= self.high
        return self.low < value < self.high

    def __str__(self) -> str:
        low, high = _fmt(self.low), _fmt(self.high)
        if self.low == self.high:
            return f"= {low}"
        if self.low == -math.inf:
            return f"{'≤' if self.closed else '<'} {high}"
        if self.high == math.inf:
            return f"{'≥' if self.closed else '>'} {low}"
        return f"[{low}, {high}]" if self.closed else f"({low}, {high})"


def above(x: float) -> Band:
    return Band(low=x)


def below(x: float) -> Band:
    return Band(high=x)


def at_least(x: float) -> Band:
    return Band(low=x, closed=True)


def at_most(x: float) -> Band:
    return Band(high=x, closed=True)


def exactly(x: float) -> Band:
    return Band(x, x, closed=True)


@dataclass(frozen=True)
class Claim:
    id: str
    paper: str
    measure: str
    band: Band


_TAB1_PAPER = {
    (10, False, 4): 1.00,
    (100, False, 4): 0.68,
    (1_000, False, 4): 0.07,
    (1_000, False, AUTO_WORKERS): 1.00,
    (10_000, False, AUTO_WORKERS): 0.26,
    (100_000, False, AUTO_WORKERS): 0.26,
    (1_000, True, 4): 1.00,
    (10_000, True, 4): 1.00,
    (100_000, True, 4): 1.00,
}

CLAIMS = (
    Claim("FIG2.research_share", "98.5%", "research share of QUIC packets, sweep-weight adjusted", above(0.9)),
    Claim("FIG3.request_share", "15%", "request share of sanitized QUIC packets", Band(0.05, 0.35)),
    Claim("FIG3.cov_gap", "responses erratic", "hourly CoV of responses minus that of requests", above(0)),
    Claim("FIG3.peak_hours", "peaks 06:00, 18:00 UTC", "top-4 request hours of day in 05–07 or 17–19", at_least(1)),
    Claim("FIG4.s5_over_s1", "drop to the knee", "sessions at 5 min / at 1 min", below(1)),
    Claim("FIG4.s60_over_s5", "flat after the knee", "sessions at 60 min / at 5 min", at_most(1)),
    Claim("FIG4.floor_over_s60", "floor at timeout = ∞", "sources / sessions at 60 min", at_most(1)),
    Claim("FIG4.tail_over_knee_drop", "knee at ~5 min", "drop 5→60 min / drop 1→5 min", below(1)),
    Claim("FIG4.knee", "~5 min", "knee of the session-count curve [min]", Band(2, 10, closed=True)),
    Claim("FIG5.request_eyeball", "requests ≈ eyeball", "eyeball share of request sessions", above(0.85)),
    Claim("FIG5.response_content", "responses ≈ content", "content share of response sessions", above(0.6)),
    Claim("FIG6.single_attack_victims", ">50%", "share of victims attacked once", above(0.4)),
    Claim("FIG6.known_server_share", "98%", "share of attacks on known QUIC servers", above(0.85)),
    Claim("FIG7.duration_ratio", "255 s / 1,499 s", "median QUIC / TCP-ICMP flood duration", below(1)),
    Claim("FIG7.quic_max_pps", "~1", "median QUIC flood max pps", Band(0.5, 4)),
    Claim("FIG7.common_max_pps", "~1", "median TCP/ICMP flood max pps", Band(0.5, 4)),
    Claim("FIG8.concurrent", "51%", "concurrent share of QUIC floods", above(0.35)),
    Claim("FIG8.sequential", "40%", "sequential share of QUIC floods", above(0.2)),
    Claim("FIG8.isolated", "9%", "isolated share of QUIC floods", below(0.3)),
    Claim("FIG8.concurrent_minus_isolated", "51% − 9%", "concurrent minus isolated share", above(0)),
    Claim("FIG9.google_ports_over_ips", "ports ≫ IPs", "Google: median spoofed ports / IPs", above(1)),
    Claim("FIG9.facebook_ports_over_ips", "ports ≫ IPs", "Facebook: median spoofed ports / IPs", above(1)),
    Claim("FIG9.scids_ratio", "Google more SCIDs", "median SCIDs, Google / Facebook", above(1)),
    Claim("FIG9.packets_ratio", "Google fewer packets", "median packets, Google / Facebook (seed-dependent)", below(1.5)),
    Claim("FIG9.google_draft29", "draft-29 78%", "Google's dominant-version share; 0 unless draft-29", above(0)),
    Claim("FIG9.facebook_mvfst27", "mvfst-draft-27 95%", "Facebook's dominant-version share; 0 unless mvfst-draft-27", above(0)),
    Claim("FIG9.provider_share", ">83%", "share of attacks on Google + Facebook", above(0.7)),
    *(
        Claim(
            _tab1_id(*key),
            f"{paper:.0%}",
            f"availability at {key[0]:,} pps, {'RETRY' if key[1] else 'no RETRY'}, "
            f"{'auto=128' if key[2] == AUTO_WORKERS else key[2]} workers",
            Band(round(paper - 0.12, 2), round(paper + 0.12, 2)),
        )
        for key, paper in _TAB1_PAPER.items()
    ),
    Claim("FIG10.count_rise", "fewer attacks as w grows", "largest rise in detected attacks from one w to the next", at_most(0)),
    Claim("FIG10.relaxed_over_default", "low-volume events at w ≤ 0.3", "detected attacks at w = 0.1 / at w = 1", above(1)),
    Claim("FIG10.attacks_at_w10", "attacks persist at w = 10", "detected attacks at w = 10 (seed-dependent)", Band(0, 2, closed=True)),
    Claim("FIG10.min_content_share", "content share high for all w", "lowest content-provider share over w", above(0.7)),
    Claim("FIG11.quic_floods", "5 sequential QUIC floods", "QUIC floods on the richest multi-vector victim", at_least(2)),
    Claim("FIG11.common_floods", "1 concurrent TCP/ICMP", "TCP/ICMP floods on that victim", at_least(1)),
    Claim("FIG12.fully_parallel", "75%", "share of concurrent attacks fully overlapped", above(0.5)),
    Claim("FIG12.mean_overlap", "95%", "mean overlap share of concurrent attacks", above(0.75)),
    Claim("FIG13.gaps_over_hour", "82%", "share of sequential gaps > 1 h", above(0.5)),
    Claim("FIG13.median_gap", "mean 36 h", "median sequential gap [s]", above(600)),
    Claim("D1.initial_share", "31%", "Initial share of DoS-event messages", Band(0.2, 0.45)),
    Claim("D1.handshake_over_initial", "57% / 31%", "Handshake / Initial share", above(1)),
    Claim("D1.empty_dcid_share", "all", "backscatter long headers with a zero-length DCID", above(0.99)),
    Claim("D2.passive_retry_packets", "0", "RETRY packets in the backscatter", exactly(0)),
    Claim("D2.probes_with_retry", "0 / 10", "active probes answered with RETRY", exactly(0)),
    Claim("D2.probes", "10", "active probes of the most-attacked servers", at_least(5)),
    Claim("D2.probes_completed", "all", "share of probes completing the handshake", exactly(1)),
    Claim("D3.max_factor", "≤ 3x (NTP 500x, DNS 60x)", "largest bytes amplification, no RETRY", at_most(3.0 + 1e-9)),
    Claim("D3.padding_rise", "padding does not help", "largest rise in amplification as the Initial grows", at_most(0)),
    Claim("D3.max_retry_factor", "RETRY stops reflection", "largest bytes amplification with RETRY", below(0.2)),
    Claim("A1.identity", "—", "port-only QUIC − dissector QUIC − false positives", exactly(0)),
    Claim("A1.false_positive_share", "false positives exist", "false positives / port-only QUIC packets", above(0)),
    Claim("A2.strict_shrink", "—", "concurrent share at ≥ 1 s minus at ≥ 120 s overlap", at_least(0)),
    Claim("A2.concurrent_at_60s", "51% robust", "concurrent share at ≥ 60 s / at ≥ 1 s", above(0.6)),
    Claim("A2.isolated_spread", "—", "spread of the isolated share across overlap rules", below(1e-9)),
    Claim("A3.completed", "—", "share of handshakes completed (fresh, resumed, 0-RTT)", exactly(1)),
    Claim("A3.used_0rtt", "—", "share of 0-RTT clients whose early data was used", exactly(1)),
    Claim("A3.fresh_rts", "+1 RTT with RETRY", "mean handshake round-trips, fresh client", exactly(2)),
    Claim("A3.resumed_rts", "resumption alleviates", "mean round-trips, NEW_TOKEN resumption", exactly(1)),
    Claim("A3.zero_rtt_rts", "resumption alleviates", "mean round-trips, resumption + 0-RTT", exactly(1)),
    Claim("A3.zero_rtt_accepted", "—", "0-RTT accepted by the server, of 40", exactly(40)),
    Claim("A4.session_rise", "—", "largest rise in response sessions as the timeout grows", at_most(0)),
    Claim("A4.recall_at_5min", "—", "detected / planned QUIC floods at 5 min", at_least(0.6)),
    Claim("A4.detected_15_over_5", "—", "detected attacks at 15 min / at 5 min", at_least(0.8)),
    Claim("A5.recall_9", "≥ 2‰ of any attack", "recall of planned QUIC floods, /9", above(0.6)),
    Claim("A5.recall_9_minus_12", "—", "recall /9 minus /12", above(0)),
    Claim("A5.recall_12_minus_16", "—", "recall /12 minus /16", above(0)),
    Claim("A5.recall_16", "—", "recall of planned QUIC floods, /16", below(0.25)),
    Claim("A5.tile_estimate_12", "a /9 sees 1/512", "median over the /9's eight /12 tiles of tile packets × 8 / /9 packets", Band(0.9, 1.1)),
    Claim("A5.tile_spread_16_minus_12", "—", "IQR of the 128 /16 tile estimates minus IQR of the eight /12", above(0)),
)


def _measured_once(claim: Claim) -> bool:
    return claim.id.split(".")[0] in ONCE


@pytest.fixture(scope="module")
def measured() -> dict:
    """{seed: {claim id: value}}, plus the once-measured rows under ``None``."""
    # (key, function, arguments), longest first so the workers pack evenly
    jobs = [
        *((seed, measure_seed, (seed,)) for seed in SEEDS),
        *((seed, measure_ablations, (seed,)) for seed in SEEDS),
        *((None, measure_tab1, setup) for setup in TABLE1_SETUPS),
        (None, measure_once, ()),
    ]
    workers = max(1, min(2, os.cpu_count() or 1))
    values = {key: {} for key in (*SEEDS, None)}
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        futures = [(key, pool.submit(function, *args)) for key, function, args in jobs]
        for key, future in futures:
            values[key].update(future.result())
    return values


def _fmt(value: float) -> str:
    if math.isnan(value):
        return "n/a"
    if math.isinf(value):
        return "∞" if value > 0 else "−∞"
    if value == int(value):
        return f"{int(value):,}"
    if abs(value) >= 100:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render(measured: dict) -> str:
    """EXPERIMENTS.md's paper-vs-measured table."""
    lines = [
        f"| Claim | Paper | Measure | Band | Median | Min–max over {len(SEEDS)} seeds |",
        "|---|---|---|---|---|---|",
    ]
    for claim in CLAIMS:
        if _measured_once(claim):
            value = measured[None].get(claim.id, NAN)
            middle, spread = _fmt(value), "(no scenario)"
        else:
            values = [measured[seed].get(claim.id, NAN) for seed in SEEDS]
            middle = _fmt(median(values))
            spread = f"{_fmt(min(values))} – {_fmt(max(values))}"
        lines.append(
            f"| {claim.id} | {claim.paper} | {claim.measure} | {claim.band} | {middle} | {spread} |"
        )
    return "\n".join(lines)


def _cases():
    for claim in CLAIMS:
        for seed in (None,) if _measured_once(claim) else SEEDS:
            yield pytest.param(claim, seed, id=f"{claim.id}-{seed or 'once'}")


@pytest.mark.parametrize("claim, seed", _cases())
def test_claim_holds(claim, seed, measured):
    value = measured[seed].get(claim.id, NAN)
    assert claim.band.holds(value), (
        f"{claim.id} (paper: {claim.paper}): {claim.measure} = {_fmt(value)} "
        f"on seed {seed}, outside {claim.band}"
    )


def test_every_measurement_has_a_claim(measured):
    ids = {claim.id for claim in CLAIMS}
    assert len(ids) == len(CLAIMS)
    for seed, values in measured.items():
        assert set(values) <= ids, sorted(set(values) - ids)


def test_experiments_table_is_the_render(measured):
    text = EXPERIMENTS.read_text()
    head, _, rest = text.partition(BEGIN)
    table, _, tail = rest.partition(END)
    assert head and tail, f"EXPERIMENTS.md lost its {BEGIN!r} / {END!r} markers"
    rendered = "\n" + render(measured) + "\n"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        EXPERIMENTS.write_text(head + BEGIN + rendered + END + tail)
        table = rendered
    assert table == rendered, (
        "EXPERIMENTS.md's claims table drifted from the measurements "
        "(REPRO_REGEN_GOLDEN=1 regenerates after an intended change)"
    )

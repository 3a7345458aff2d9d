"""The rich reference generator: the capture assembled from header objects.

``Scenario.records()`` is the one generator ``repro`` runs; this is the
oracle it is compared against (same seeds, same draws, same order),
emitting :class:`~repro.net.packet.CapturedPacket` objects built from
``IPv4Header``/``UdpHeader``/``TcpHeader``/``IcmpHeader`` dataclasses.

Every function here was a method of the traffic model it takes as its
first argument — still spelled ``self`` so each body is the method's,
unchanged but for calls to other moved methods (``self.session_packets(…)``
→ ``session_packets(self, …)``).  The per-model ``packets`` twins and the
three responders' ``respond`` are :func:`functools.singledispatch`
functions, which is what ``model.packets(…)`` / ``responder.respond(…)``
were.  What the twins always shared with the record path —
``_pool``, ``_response_schedule``, ``_respond_fields``,
``session_starts``, ``_policy_for`` — they still read from the models.
"""

from __future__ import annotations

import heapq
import math
from functools import singledispatch
from typing import Iterable, Iterator

from repro.net.icmp import IcmpHeader, IcmpType
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader
from repro.internet.topology import BotHost
from repro.telescope.adversarial import _AdversarialModel
from repro.telescope.attacks import (
    ICMP,
    QUIC,
    TCP,
    AttackPlan,
    AttackTrafficModel,
    FloodEvent,
)
from repro.telescope.backscatter import (
    _ICMP_PAYLOAD,
    IcmpVictimResponder,
    QuicVictimResponder,
    ResponderPolicy,
    TcpVictimResponder,
)
from repro.telescope.noise import MisconfigurationModel, StrayUdpModel
from repro.telescope.scanners import (
    BotScannerModel,
    ResearchScannerModel,
    TcpScannerModel,
    gquic_probe,
)
from repro.telescope.workload import Scenario


def merge_streams(*streams: Iterable[CapturedPacket]) -> Iterator[CapturedPacket]:
    """Merge per-source time-sorted packet streams into one tap feed."""
    return heapq.merge(*streams, key=lambda p: p.timestamp)


def rich_packets(self: Scenario) -> Iterator[CapturedPacket]:
    """The reference generator: the same capture assembled from
    header objects, one ``packets()`` twin per traffic model.

    The tests' oracle for :meth:`Scenario.records` (same seeds, same
    draws, same order).
    """
    start, end = self.config.start, self.config.end
    streams = []
    if self.config.include_research:
        streams.extend(packets(model, start, end) for model in self._research)
    if self.config.include_bots:
        streams.append(packets(self._bots, start, end))
    if self.config.include_tcp_scans:
        streams.append(packets(self._tcp_scans, start, end))
    if self.config.include_attacks:
        streams.append(attack_packets(self._attack_traffic, self.plan))
    if self.config.include_misconfig:
        streams.append(packets(self._misconfig, start, end))
    if self.config.include_stray:
        streams.append(packets(self._stray, start, end))
    streams.extend(packets(model, start, end) for model in self.adversarial)
    prefix = self.telescope.prefix
    return (packet for packet in merge_streams(*streams) if packet.dst in prefix)


@singledispatch
def packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
    """One traffic model's packets within [start, end), in time order."""
    raise TypeError(f"no reference generator for {type(self).__name__}")


# -- scanners (repro.telescope.scanners) -----------------------------------


@packets.register(ResearchScannerModel)
def research_packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
    """Probe packets within [start, end), in time order."""
    telescope = self.internet.telescope_net
    probes_per_sweep = max(1, int(telescope.size * self.sample))
    stride = max(1, telescope.size // probes_per_sweep)
    sweep_start = start + self.phase
    while sweep_start < end:
        spacing = self.sweep_duration / probes_per_sweep
        offset = self.rng.randint(0, stride - 1)
        for i in range(probes_per_sweep):
            timestamp = sweep_start + i * spacing
            if timestamp >= end:
                break
            if timestamp < start:
                continue
            dst = telescope.address_at((offset + i * stride) % telescope.size)
            yield CapturedPacket(
                timestamp=timestamp,
                ip=IPv4Header(
                    src=self.scanner.address, dst=dst, proto=IPProto.UDP
                ),
                transport=UdpHeader(
                    src_port=40000 + (i % 20000), dst_port=443
                ),
                payload=self._pool.next_probe(),
            )
        sweep_start += self.sweep_interval


def session_packets(self: BotScannerModel, session_start: float, bot: BotHost) -> list:
    """One scan session: a burst of Initials to random darknet addresses."""
    count = max(1, int(self.rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
    src_port = self.rng.randint(1024, 65535)
    legacy = self.rng.random() < self.gquic_fraction
    legacy_payload = gquic_probe(self.rng) if legacy else None
    packets = []
    t = session_start
    for _ in range(count):
        dst = self.internet.random_telescope_address(self.rng)
        packets.append(
            CapturedPacket(
                timestamp=t,
                ip=IPv4Header(src=bot.address, dst=dst, proto=IPProto.UDP),
                transport=UdpHeader(src_port=src_port, dst_port=443),
                payload=legacy_payload if legacy else self._pool.next_probe(),
            )
        )
        t += self.rng.expovariate(1.0 / self.mean_inter_packet_gap)
        if self.rng.random() < self.pause_probability:
            t += self.rng.uniform(45.0, self.pause_max)
    return packets


@packets.register(BotScannerModel)
def bot_packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
    """All bot scan packets in [start, end), time-sorted."""
    sessions = []
    for session_start, bot in self.session_starts(start, end):
        sessions.append(session_packets(self, session_start, bot))
    merged = sorted(
        (p for session in sessions for p in session), key=lambda p: p.timestamp
    )
    for packet in merged:
        if start <= packet.timestamp < end:
            yield packet


@packets.register(TcpScannerModel)
def tcp_scan_packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
    from repro.net.tcp import TcpFlags, TcpHeader

    peak = self.diurnal.peak_rate_factor()
    rate = self.sessions_per_day / 86400.0 * peak
    bots = self.internet.bot_hosts
    if not bots:
        return
    sessions = []
    t = start
    while True:
        t += self.rng.expovariate(rate)
        if t >= end:
            break
        if self.rng.random() >= self.diurnal.factor(t) / peak:
            continue
        bot = self.rng.choice(bots)
        port = self.rng.choice(self.target_ports)
        count = max(1, int(self.rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
        src_port = self.rng.randint(1024, 65535)
        session = []
        ts = t
        for _ in range(count):
            dst = self.internet.random_telescope_address(self.rng)
            session.append(
                CapturedPacket(
                    timestamp=ts,
                    ip=IPv4Header(src=bot.address, dst=dst, proto=IPProto.TCP),
                    transport=TcpHeader(
                        src_port=src_port,
                        dst_port=port,
                        seq=self.rng.randint(0, 2**32 - 1),
                        flags=TcpFlags.SYN,
                    ),
                )
            )
            ts += self.rng.expovariate(0.8)
        sessions.append(session)
    merged = sorted((p for s in sessions for p in s), key=lambda p: p.timestamp)
    for packet in merged:
        if start <= packet.timestamp < end:
            yield packet


# -- victim responders (repro.telescope.backscatter) -----------------------


@singledispatch
def respond(self, timestamp: float, spoofed_ip: int, spoofed_port: int) -> list:
    """Packets a flood victim sends to ``spoofed_ip`` for one request."""
    raise TypeError(f"no reference responder for {type(self).__name__}")


@respond.register(QuicVictimResponder)
def quic_respond(
    self, timestamp: float, spoofed_ip: int, spoofed_port: int
) -> list:
    """Packets sent to ``spoofed_ip`` in response to one Initial.

    Returns :class:`~repro.net.packet.CapturedPacket` records in
    time order.
    """
    return [
        _packet(self, timestamp + delay, spoofed_ip, spoofed_port, payload)
        for delay, payload in self._response_schedule(spoofed_ip)
    ]


def _packet(
    self: QuicVictimResponder,
    timestamp: float,
    dst_ip: int,
    dst_port: int,
    payload: bytes,
) -> CapturedPacket:
    return CapturedPacket(
        timestamp=timestamp,
        ip=IPv4Header(src=self.victim_ip, dst=dst_ip, proto=IPProto.UDP),
        transport=UdpHeader(src_port=443, dst_port=dst_port),
        payload=payload,
    )


@respond.register(TcpVictimResponder)
def tcp_respond(self, timestamp: float, spoofed_ip: int, spoofed_port: int) -> list:
    flags, seq, ack = self._respond_fields()
    packet = CapturedPacket(
        timestamp=timestamp,
        ip=IPv4Header(src=self.victim_ip, dst=spoofed_ip, proto=IPProto.TCP),
        transport=TcpHeader(
            src_port=self.service_port,
            dst_port=spoofed_port,
            seq=seq,
            ack=ack,
            flags=flags,
        ),
    )
    return [packet]


@respond.register(IcmpVictimResponder)
def icmp_respond(self, timestamp: float, spoofed_ip: int, _spoofed_port: int) -> list:
    self._sequence = (self._sequence + 1) & 0xFFFF
    packet = CapturedPacket(
        timestamp=timestamp,
        ip=IPv4Header(src=self.victim_ip, dst=spoofed_ip, proto=IPProto.ICMP),
        transport=IcmpHeader(
            IcmpType.ECHO_REPLY,
            identifier=self.rng.randint(0, 0xFFFF),
            sequence=self._sequence,
        ),
        payload=_ICMP_PAYLOAD,
    )
    return [packet]


# -- floods (repro.telescope.attacks) --------------------------------------


def flood_packets(self: AttackTrafficModel, flood: FloodEvent) -> Iterator:
    """Telescope packets for one flood, lazily, in time order.

    Requests are generated in order; each spawns a short response
    train, so a bounded reorder buffer suffices to emit a globally
    sorted stream without materializing the flood.
    """
    rng = self.rng.child(
        f"flood:{flood.vector}:{flood.victim_ip}:{flood.start:.3f}"
    )
    if flood.vector == QUIC:
        responder = QuicVictimResponder(
            flood.victim_ip, rng, self._policy_for(flood)
        )
    elif flood.vector == TCP:
        responder = TcpVictimResponder(flood.victim_ip, rng)
    else:
        responder = IcmpVictimResponder(flood.victim_ip, rng)
    pool = [
        self.internet.random_telescope_address(rng)
        for _ in range(flood.spoofed_pool_size)
    ]
    cfg = self.config
    buffer: list = []
    sequence = 0
    t = flood.start
    while True:
        t += rng.expovariate(flood.telescope_request_rate)
        if rng.random() < cfg.pulse_probability:
            # attacker pulse: a sub-timeout silence inside the flood
            t += min(
                rng.lognormvariate(math.log(cfg.pulse_median), cfg.pulse_sigma),
                cfg.pulse_max,
            )
        if t >= flood.end:
            break
        spoofed_ip = rng.choice(pool)
        spoofed_port = rng.randint(1024, 65535)
        for packet in respond(responder, t, spoofed_ip, spoofed_port):
            heapq.heappush(buffer, (packet.timestamp, sequence, packet))
            sequence += 1
        while buffer and buffer[0][0] <= t - self._TRAIN_SPAN:
            yield heapq.heappop(buffer)[2]
    while buffer:
        yield heapq.heappop(buffer)[2]


def attack_packets(self: AttackTrafficModel, plan: AttackPlan) -> Iterator:
    """Merged, time-sorted packet stream for every planned flood."""
    streams = [flood_packets(self, flood) for flood in plan.all_floods]
    return heapq.merge(*streams, key=lambda p: p.timestamp)


# -- noise (repro.telescope.noise) -----------------------------------------


@packets.register(MisconfigurationModel)
def misconfig_packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
    """All misconfiguration packets in [start, end), time-sorted."""
    rate = self.sessions_per_day / 86400.0
    sessions = []
    t = start
    while True:
        t += self.rng.expovariate(rate)
        if t >= end:
            break
        sessions.append(_session(self, t))
    merged = sorted(
        (p for session in sessions for p in session), key=lambda p: p.timestamp
    )
    for packet in merged:
        if start <= packet.timestamp < end:
            yield packet


def _session(self: MisconfigurationModel, session_start: float) -> list:
    """The packet arm of ``MisconfigurationModel._session_items``."""
    source = self._pick_source()
    responder = QuicVictimResponder(
        source,
        self.rng.child(f"noise:{source}:{session_start:.3f}"),
        ResponderPolicy(),
    )
    count = max(1, int(self.rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
    # 11 packets over ~7 s; each spoofed "request" yields a short
    # train, so scale the request count down by the train length.
    requests = max(1, count // 3)
    dst = self.internet.random_telescope_address(self.rng)
    dst_port = self.rng.randint(1024, 65535)
    packets = []
    t = session_start
    for _ in range(requests):
        packets.extend(respond(responder, t, dst, dst_port))
        t += self.rng.expovariate(requests / max(self.mean_duration, 1.0))
    packets.sort(key=lambda p: p.timestamp)
    return packets


@packets.register(StrayUdpModel)
def stray_packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
    rate = self.packets_per_day / 86400.0
    t = start
    while True:
        t += self.rng.expovariate(rate)
        if t >= end:
            break
        to_port_443 = self.rng.random() < 0.5
        # DTLS 1.2 ClientHello-ish or plain garbage — either way it
        # must fail QUIC dissection.
        if self.rng.random() < 0.5:
            payload = b"\x16\xfe\xfd" + self.rng.randbytes(45)
        else:
            payload = self.rng.randbytes(self.rng.randint(1, 25))
        source = self.internet.random_unrouted_address()
        dst = self.internet.random_telescope_address(self.rng)
        yield CapturedPacket(
            timestamp=t,
            ip=IPv4Header(src=source, dst=dst, proto=IPProto.UDP),
            transport=UdpHeader(
                src_port=443 if not to_port_443 else self.rng.randint(1024, 65535),
                dst_port=443 if to_port_443 else self.rng.randint(1024, 65535),
            ),
            payload=payload,
        )


# -- adversarial (repro.telescope.adversarial) -----------------------------


@packets.register(_AdversarialModel)
def adversarial_packets(self, start: float, end: float) -> Iterator[CapturedPacket]:
    """The record stream boxed as captured packets (same draws).

    All adversarial traffic is UDP, so unlike the scanner/flood
    models there is no separate rich generator to keep in lockstep:
    this *is* the record stream.
    """
    for r in self.records(start, end):
        yield CapturedPacket(
            timestamp=r[0],
            ip=IPv4Header(src=r[1], dst=r[2], proto=IPProto.UDP),
            transport=UdpHeader(src_port=r[6], dst_port=r[7]),
            payload=r[10],
        )

"""Traffic classification: the Section 4.1 method.

QUIC traffic is selected by transport-layer properties — UDP with
source or destination port 443 — then validated by payload dissection
to exclude false positives.  Packets with destination port 443 are
*requests* (scans); packets with source port 443 are *responses*
(backscatter).  The two sets are disjoint by construction and, as the
paper observes, no packet carries 443 on both sides in practice.

TCP and ICMP are classified the classical backscatter way: SYNs are
scan requests; SYN-ACK/RST and echo-reply/unreachable/time-exceeded
are responses of victims to spoofed traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.icmp import IcmpHeader
from repro.net.packet import CapturedPacket
from repro.net.tcp import TcpFlags, TcpHeader
from repro.core.dissect import Dissection, QuicDissector

QUIC_PORT = 443


class PacketClass(enum.Enum):
    QUIC_REQUEST = "quic-request"
    QUIC_RESPONSE = "quic-response"
    NON_QUIC_UDP443 = "non-quic-udp443"  # failed dissection
    OTHER_UDP = "other-udp"
    TCP_REQUEST = "tcp-request"
    TCP_BACKSCATTER = "tcp-backscatter"
    TCP_OTHER = "tcp-other"
    ICMP_BACKSCATTER = "icmp-backscatter"
    ICMP_OTHER = "icmp-other"
    OTHER = "other"

    @property
    def is_backscatter(self) -> bool:
        return self in (
            PacketClass.QUIC_RESPONSE,
            PacketClass.TCP_BACKSCATTER,
            PacketClass.ICMP_BACKSCATTER,
        )


@dataclass
class ClassifiedPacket:
    """A packet with its class and (for QUIC) its dissection."""

    packet: CapturedPacket
    packet_class: PacketClass
    dissection: Optional[Dissection] = None


class TrafficClassifier:
    """Port + dissector classification with false-positive counters."""

    def __init__(self, dissect_payloads: bool = True) -> None:
        self.dissector = QuicDissector()
        self.dissect_payloads = dissect_payloads
        self.counters = {cls: 0 for cls in PacketClass}

    def classify(self, packet: CapturedPacket) -> ClassifiedPacket:
        result = self._classify(packet)
        self.counters[result.packet_class] += 1
        return result

    def classify_batch(self, packets) -> list:
        """Classify a batch of packets in one call.

        Semantically identical to calling :meth:`classify` per packet;
        the batch form keeps the dispatch machinery in local variables,
        which matters on the pipeline's per-packet hot path.
        """
        classify = self._classify
        counters = self.counters
        out = []
        append = out.append
        for packet in packets:
            result = classify(packet)
            counters[result.packet_class] += 1
            append(result)
        return out

    @property
    def cache_hits(self) -> int:
        return self.dissector.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.dissector.cache_misses

    def _classify(self, packet: CapturedPacket) -> ClassifiedPacket:
        if packet.is_udp:
            return self._classify_udp(packet)
        if packet.is_tcp:
            return ClassifiedPacket(packet, self._classify_tcp(packet.transport))
        if packet.is_icmp:
            return ClassifiedPacket(packet, self._classify_icmp(packet.transport))
        return ClassifiedPacket(packet, PacketClass.OTHER)

    def _classify_udp(self, packet: CapturedPacket) -> ClassifiedPacket:
        src443 = packet.src_port == QUIC_PORT
        dst443 = packet.dst_port == QUIC_PORT
        if not src443 and not dst443:
            return ClassifiedPacket(packet, PacketClass.OTHER_UDP)
        if src443 and dst443:
            # never observed in the paper's data; treat as non-QUIC to
            # keep requests and responses disjoint
            return ClassifiedPacket(packet, PacketClass.NON_QUIC_UDP443)
        if self.dissect_payloads:
            dissection = self.dissector.dissect(packet.payload)
            if not dissection.valid:
                return ClassifiedPacket(
                    packet, PacketClass.NON_QUIC_UDP443, dissection
                )
        else:
            dissection = None
        packet_class = (
            PacketClass.QUIC_RESPONSE if src443 else PacketClass.QUIC_REQUEST
        )
        return ClassifiedPacket(packet, packet_class, dissection)

    @staticmethod
    def _classify_tcp(tcp: Optional[TcpHeader]) -> PacketClass:
        if tcp is None:
            return PacketClass.TCP_OTHER
        if tcp.is_syn_ack or tcp.is_rst:
            return PacketClass.TCP_BACKSCATTER
        if tcp.flags & TcpFlags.SYN:
            return PacketClass.TCP_REQUEST
        return PacketClass.TCP_OTHER

    @staticmethod
    def _classify_icmp(icmp: Optional[IcmpHeader]) -> PacketClass:
        if icmp is None:
            return PacketClass.ICMP_OTHER
        if icmp.is_backscatter:
            return PacketClass.ICMP_BACKSCATTER
        return PacketClass.ICMP_OTHER

"""Packet substrate: the flat packet record and pcap files.

The telescope simulator stamps gen records into real IPv4 wire bytes
(``repro.telescope.genlane.WireStamper``, correct Internet checksums);
pcaps carry those bytes, and :meth:`CapturedPacket.from_bytes` reduces
each packet to the scalar fields the classification and dissection
stages read — the fields the paper's toolchain read from its pcaps.
"""

from repro.net.addresses import (
    IPv4Network,
    format_ipv4,
    parse_ipv4,
)
from repro.net.packet import CapturedPacket, IcmpType, IPProto, TcpFlags
from repro.net.pcap import (
    PcapReader,
    read_pcap,
    read_pcap_batches,
)

__all__ = [
    "IPv4Network",
    "format_ipv4",
    "parse_ipv4",
    "IcmpType",
    "IPProto",
    "CapturedPacket",
    "PcapReader",
    "read_pcap",
    "read_pcap_batches",
    "TcpFlags",
]

"""Packet substrate: IPv4/UDP/TCP/ICMP headers and pcap files.

The telescope simulator emits, and the analysis core consumes, packets
built from these classes.  Headers serialize to and parse from real wire
bytes (with correct Internet checksums), so the classification and
dissection stages of the pipeline operate on the same representation
the paper's toolchain saw in pcaps.
"""

from repro.net.addresses import (
    IPv4Network,
    format_ipv4,
    parse_ipv4,
)
from repro.net.checksum import internet_checksum
from repro.net.icmp import IcmpHeader, IcmpType
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.pcap import (
    PcapReader,
    read_pcap,
    read_pcap_batches,
)
from repro.net.tcp import TcpFlags, TcpHeader
from repro.net.udp import UdpHeader

__all__ = [
    "IPv4Network",
    "format_ipv4",
    "parse_ipv4",
    "internet_checksum",
    "IcmpHeader",
    "IcmpType",
    "IPProto",
    "IPv4Header",
    "CapturedPacket",
    "PcapReader",
    "read_pcap",
    "read_pcap_batches",
    "TcpFlags",
    "TcpHeader",
    "UdpHeader",
]

"""IPv4 addresses as plain integers.

The simulator routinely touches millions of addresses (full-IPv4
research sweeps, randomly spoofed flood sources), so addresses are
represented as ``int`` throughout and only formatted to dotted quads at
the presentation edge.  :class:`IPv4Network` provides the prefix
arithmetic the telescope (/9 capture filter) and the AS registry
(prefix allocation, longest-prefix match) need.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_IPV4 = (1 << 32) - 1


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad notation to an integer address.

    >>> parse_ipv4("10.0.0.1")
    167772161
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 octet {part!r} in {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(address: int) -> str:
    """Format an integer address as a dotted quad."""
    if not 0 <= address <= MAX_IPV4:
        raise ValueError(f"address {address} outside IPv4 range")
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class IPv4Network:
    """A CIDR prefix, e.g. ``IPv4Network.from_cidr("44.0.0.0/9")``.

    The network address is normalized (host bits cleared).
    """

    network: int
    prefix_len: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"invalid prefix length {self.prefix_len}")
        mask = self.netmask
        if self.network & ~mask & MAX_IPV4:
            object.__setattr__(self, "network", self.network & mask)

    @classmethod
    def from_cidr(cls, text: str) -> "IPv4Network":
        addr_text, _, len_text = text.partition("/")
        if not len_text:
            raise ValueError(f"missing prefix length in {text!r}")
        return cls(parse_ipv4(addr_text), int(len_text))

    @property
    def netmask(self) -> int:
        return (MAX_IPV4 << (32 - self.prefix_len)) & MAX_IPV4

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.prefix_len)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network | (~self.netmask & MAX_IPV4)

    def __contains__(self, address: int) -> bool:
        return (address & self.netmask) == self.network

    def address_at(self, offset: int) -> int:
        """The ``offset``-th address inside the prefix."""
        if not 0 <= offset < self.size:
            raise ValueError(f"offset {offset} outside /{self.prefix_len}")
        return self.network + offset

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.prefix_len}"

"""Autonomous systems and PeeringDB-style network types.

The paper maps each telescope session's source address to an AS and to
the AS's *network type* from PeeringDB, concluding that scan requests
come from eyeball networks while backscatter comes from content
networks (Figure 5).  :class:`AsRegistry` provides that mapping over a
longest-prefix-match trie.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.net.addresses import IPv4Network
from repro.internet.prefix_trie import PrefixTrie


class NetworkType(enum.Enum):
    """PeeringDB ``info_type`` categories used in Figure 5."""

    EYEBALL = "Cable/DSL/ISP"
    CONTENT = "Content"
    NSP = "NSP"
    EDUCATION = "Educational/Research"
    ENTERPRISE = "Enterprise"
    NON_PROFIT = "Non-Profit"
    UNKNOWN = "Not Disclosed"


@dataclass
class AutonomousSystem:
    """One AS with its registered prefixes and PeeringDB metadata."""

    asn: int
    name: str
    network_type: NetworkType
    country: str = "ZZ"
    prefixes: list = field(default_factory=list)

    def __str__(self) -> str:
        return f"AS{self.asn} ({self.name}, {self.network_type.value})"


class AsRegistry:
    """Registry of ASes with IP → AS longest-prefix-match resolution."""

    def __init__(self) -> None:
        self._by_asn: dict[int, AutonomousSystem] = {}
        self._trie: PrefixTrie = PrefixTrie()

    def __len__(self) -> int:
        return len(self._by_asn)

    def __iter__(self):
        return iter(self._by_asn.values())

    def register(
        self,
        asn: int,
        name: str,
        network_type: NetworkType,
        country: str = "ZZ",
        prefixes: Iterable[IPv4Network] = (),
    ) -> AutonomousSystem:
        """Create (or extend) an AS and announce its prefixes."""
        if asn in self._by_asn:
            system = self._by_asn[asn]
        else:
            system = AutonomousSystem(asn, name, network_type, country)
            self._by_asn[asn] = system
        for prefix in prefixes:
            self.announce(asn, prefix)
        return system

    def announce(self, asn: int, prefix: IPv4Network) -> None:
        """Announce an additional prefix for a registered AS."""
        system = self._by_asn.get(asn)
        if system is None:
            raise KeyError(f"AS{asn} is not registered")
        existing = self._trie.lookup_exact(prefix)
        if existing is not None and existing.asn != asn:
            raise ValueError(f"{prefix} already announced by AS{existing.asn}")
        system.prefixes.append(prefix)
        self._trie.insert(prefix, system)

    def get(self, asn: int) -> Optional[AutonomousSystem]:
        return self._by_asn.get(asn)

    def lookup(self, address: int) -> Optional[AutonomousSystem]:
        """The AS originating ``address``, or ``None`` for unrouted space."""
        return self._trie.lookup(address)

    def network_type_of(self, address: int) -> NetworkType:
        """Network type for an address; UNKNOWN when unrouted."""
        system = self.lookup(address)
        return system.network_type if system else NetworkType.UNKNOWN

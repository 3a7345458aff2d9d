"""Active QUIC server census, modeled after Rüth et al. (PAM 2018).

The paper correlates flood victims against active scans of the IPv4
space ("2 million QUIC servers in 2021") and finds that 98% of attacks
hit *known* QUIC servers.  Here the census is produced by actively
scanning the simulated Internet: every content server registered in the
topology answers a QUIC handshake probe, so the census is exactly what
a scanner à la ZMap+quiche would have recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.net.addresses import format_ipv4


@dataclass(frozen=True)
class QuicServerRecord:
    """One QUIC-speaking endpoint discovered by the census."""

    address: int
    asn: int
    provider: str
    versions: tuple[str, ...]
    server_name: str = ""
    supports_retry: bool = False
    sends_retry: bool = False

    def __str__(self) -> str:
        return f"{format_ipv4(self.address)} ({self.provider}, {','.join(self.versions)})"


class ActiveScanCensus:
    """The set of known QUIC servers at measurement time."""

    def __init__(self, records: Iterable[QuicServerRecord] = ()) -> None:
        self._by_address: dict[int, QuicServerRecord] = {}
        for record in records:
            self.add(record)

    def add(self, record: QuicServerRecord) -> None:
        self._by_address[record.address] = record

    def __len__(self) -> int:
        return len(self._by_address)

    def __contains__(self, address: int) -> bool:
        return address in self._by_address

    def get(self, address: int) -> Optional[QuicServerRecord]:
        return self._by_address.get(address)

    def is_known_quic_server(self, address: int) -> bool:
        return address in self._by_address

    def by_provider(self, provider: str) -> list:
        return [r for r in self._by_address.values() if r.provider == provider]

    def all_records(self) -> list:
        return list(self._by_address.values())

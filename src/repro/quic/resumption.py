"""Session resumption state: address tokens, tickets, and the cache.

Section 6 of the paper argues the RETRY performance penalty "could be
alleviated by the session resumption feature in QUIC" for frequently
used services.  This module provides the client-side machinery to test
that claim (rows ``A3.*`` of ``tests/test_paper_claims.py``):

- after a completed handshake the server issues a **NEW_TOKEN** address
  token (RFC 9000 §8.1.3) and a TLS **NewSessionTicket** over 1-RTT;
- a returning client presents the token in its Initial (proving its
  address without a Retry round-trip) and the ticket as a PSK identity,
  unlocking **0-RTT** early data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.quic.crypto import PacketKeys, hkdf_extract, keys_from_secret
from repro.quic.versions import QuicVersion


@dataclass
class ResumptionState:
    """What a client remembers about a server after one connection."""

    server_name: str
    version: QuicVersion
    address_token: bytes = b""
    session_ticket: bytes = b""

def early_data_keys(ticket: bytes) -> PacketKeys:
    """0-RTT packet protection keys, derived from the session ticket.

    Both endpoints know the ticket (the client stores it, the server can
    authenticate it), and nobody else does — the ticket only ever
    travels inside 1-RTT-protected packets — so keys derived from it are
    shared secrets.  A telescope observing a 0-RTT long header cannot
    decrypt it, matching reality.
    """
    if not ticket:
        raise ValueError("cannot derive early-data keys from an empty ticket")
    return keys_from_secret(hkdf_extract(b"quic 0rtt", ticket))


class SessionCache:
    """Client-side cache of resumption state, keyed by server identity."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("cache needs at least one slot")
        self._entries: dict[str, ResumptionState] = {}
        self._max_entries = max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, state: ResumptionState) -> None:
        if state.server_name in self._entries:
            self._entries[state.server_name] = state
            return
        if len(self._entries) >= self._max_entries:
            # drop the oldest entry (insertion order)
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[state.server_name] = state

    def lookup(self, server_name: str) -> Optional[ResumptionState]:
        return self._entries.get(server_name)

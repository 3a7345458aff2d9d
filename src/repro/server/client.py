"""Attack and probe clients for the server benchmark.

The paper records 500,000 packets with quiche (Cloudflare's reference
client) and replays *only the client Initial messages* at varying rates
— replaying real traffic avoids hand-crafting bias.  The replay client
mirrors that: it records distinct flows (5-tuple hashes standing in for
the recorded pcap) and replays them at a constant packet rate.  A replay
never holds a *fresh* Retry token, which is precisely why RETRY defeats
it.

:class:`LegitimateClient` issues low-rate genuine handshakes to measure
service availability from a real user's perspective; with RETRY on it
pays the extra round-trip (the paper's "Extra RTT" column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.util.rng import SeededRng


@dataclass
class ReplayedInitial:
    """One replayed client Initial."""

    timestamp: float
    flow_hash: int


class ReplayClient:
    """Replays recorded client Initials at a fixed packet rate."""

    def __init__(self, rng: SeededRng, recorded_flows: int = 500_000) -> None:
        if recorded_flows < 1:
            raise ValueError("need at least one recorded flow")
        self.rng = rng.child("replay-client")
        # The recording: distinct flows with distinct 5-tuples/DCIDs.
        self._flow_hashes = [
            self.rng.randint(0, 2**32 - 1) for _ in range(recorded_flows)
        ]

    def replay(
        self, rate_pps: float, total_packets: int, start: float = 0.0
    ) -> Iterator[ReplayedInitial]:
        """Yield replayed Initials at ``rate_pps`` in time order."""
        if rate_pps <= 0:
            raise ValueError("replay rate must be positive")
        count = min(total_packets, len(self._flow_hashes))
        spacing = 1.0 / rate_pps
        for i in range(count):
            yield ReplayedInitial(
                timestamp=start + i * spacing, flow_hash=self._flow_hashes[i]
            )

@dataclass
class ProbeOutcome:
    """Result of one legitimate handshake attempt."""

    timestamp: float
    served: bool
    round_trips: int


class LegitimateClient:
    """Low-rate genuine client used to sample service availability."""

    def __init__(self, rng: SeededRng) -> None:
        self.rng = rng.child("legit-client")

    def probe(self, server, now: float) -> ProbeOutcome:
        """One genuine connection attempt against the model server."""
        flow_hash = self.rng.randint(0, 2**32 - 1)
        if server.config.retry_enabled:
            # First Initial earns a Retry; the client echoes the token.
            first = server.handle_initial(now, flow_hash, has_valid_token=False)
            if first == 0:
                return ProbeOutcome(now, served=False, round_trips=1)
            second = server.handle_initial(
                now + 0.001, flow_hash, has_valid_token=True
            )
            served = second > 0
            if served:
                server.complete_handshake(now + 0.002, flow_hash)
            return ProbeOutcome(now, served=served, round_trips=2)
        datagrams = server.handle_initial(now, flow_hash)
        served = datagrams > 0
        if served:
            server.complete_handshake(now + 0.001, flow_hash)
        return ProbeOutcome(now, served=served, round_trips=1)

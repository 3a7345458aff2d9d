"""A lossy-link harness with PTO-style retransmission (RFC 9002-lite).

The handshake endpoints in :mod:`repro.quic.connection` are pure state
machines: datagrams in, datagrams out.  Real networks lose packets, and
QUIC recovers with probe timeouts (PTO) that double on each expiry —
which is also why flood victims retransmit their flights into the
telescope (the responder's ``retransmit_probability`` models exactly
that behaviour at population scale).

This module closes the loop for *individual* connections:

- :class:`LossyLink` — a deterministic, seeded link with loss, delay
  and jitter per direction;
- :class:`ConnectionRunner` — drives a client/server pair over the
  link on a virtual clock, re-sending the client's last flight on PTO
  with exponential backoff (RFC 9002 §6.2) until the handshake
  completes or the attempt times out.

Used by tests to show handshakes survive heavy loss; no command,
example or bench drives it, so it lives with the tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from repro.util.rng import SeededRng

#: RFC 9002 §6.2.2: initial PTO before any RTT sample (we keep the
#: conservative 1 s the RFC recommends, scaled for simulation speed).
INITIAL_PTO = 1.0
MAX_PTO_COUNT = 7


@dataclass
class LossyLink:
    """A one-way link: loss probability plus delay with jitter."""

    rng: SeededRng
    loss: float = 0.0
    delay: float = 0.05
    jitter: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss probability {self.loss} outside [0, 1)")
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay and jitter must be non-negative")

    def transit(self) -> Optional[float]:
        """Delivery latency for one datagram, or ``None`` when lost."""
        if self.rng.random() < self.loss:
            return None
        return self.delay + self.rng.uniform(0.0, self.jitter)


@dataclass
class RunStats:
    """Observability for one connection attempt."""

    datagrams_sent: int = 0
    datagrams_lost: int = 0
    retransmissions: int = 0
    pto_count: int = 0
    completed_at: Optional[float] = None


class ConnectionRunner:
    """Runs one client/server handshake over lossy links."""

    def __init__(
        self,
        client,
        server,
        rng: SeededRng,
        loss: float = 0.0,
        delay: float = 0.05,
        client_ip: int = 0x0A000001,
        client_port: int = 50000,
    ) -> None:
        self.client = client
        self.server = server
        self.uplink = LossyLink(rng.child("uplink"), loss=loss, delay=delay)
        self.downlink = LossyLink(rng.child("downlink"), loss=loss, delay=delay)
        self.client_ip = client_ip
        self.client_port = client_port
        self.stats = RunStats()
        self._events: list = []
        self._sequence = 0
        self._now = 0.0
        self._last_client_flight: list = []

    # -- event plumbing ----------------------------------------------------

    def _push(self, when: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (when, self._sequence, kind, payload))
        self._sequence += 1

    def _send_to_server(self, datagrams: list) -> None:
        if datagrams:
            self._last_client_flight = list(datagrams)
        for datagram in datagrams:
            self.stats.datagrams_sent += 1
            latency = self.uplink.transit()
            if latency is None:
                self.stats.datagrams_lost += 1
                continue
            self._push(self._now + latency, "to-server", datagram)

    def _send_to_client(self, scheduled) -> None:
        for item in scheduled:
            self.stats.datagrams_sent += 1
            latency = self.downlink.transit()
            if latency is None:
                self.stats.datagrams_lost += 1
                continue
            self._push(self._now + item.delay + latency, "to-client", item.data)

    # -- the run ------------------------------------------------------------

    def run(self, timeout: float = 60.0) -> RunStats:
        """Drive the handshake to completion or timeout; returns stats."""
        pto = INITIAL_PTO
        self._send_to_server([self.client.initial_datagram()])
        self._push(self._now + pto, "pto", None)

        while self._events:
            when, _seq, kind, payload = heapq.heappop(self._events)
            self._now = when
            if self._now > timeout:
                break
            if kind == "to-server":
                responses = self.server.handle_datagram(
                    payload, self.client_ip, self.client_port, now=self._now
                )
                self._send_to_client(responses)
            elif kind == "to-client":
                replies = self.client.handle_datagram(payload)
                if self.client.state == "connected":
                    # keep draining so in-flight datagrams (the server's
                    # post-handshake NEW_TOKEN / session ticket) arrive,
                    # but record completion now
                    if self.stats.completed_at is None:
                        self.stats.completed_at = self._now
                self._send_to_server([r.data for r in replies])
            elif kind == "pto":
                if self.client.state in ("connected", "failed"):
                    continue  # no re-arm: the PTO chain ends here
                if self.stats.pto_count >= MAX_PTO_COUNT:
                    break
                self.stats.pto_count += 1
                self.stats.retransmissions += len(self._last_client_flight) or 1
                # RFC 9002 probe: re-elicit the server by resending the
                # last client flight.
                self._send_to_server(list(self._last_client_flight))
                pto *= 2
                self._push(self._now + pto, "pto", None)
        if self.client.state == "connected" and self.stats.completed_at is None:
            self.stats.completed_at = self._now
        return self.stats

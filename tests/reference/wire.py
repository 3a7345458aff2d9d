"""Wire-level NGINX worker pool: the DES's ground truth.

:mod:`repro.server.nginx` models Table 1 at packet-rate level for
speed.  This module is the *slow but real* counterpart: a worker pool
that terminates actual QUIC datagrams with
:class:`~repro.quic.connection.ServerConnection` instances — real
Initial decryption, real Retry tokens, real response trains — under the
same resource policy (per-worker connection tables, periodic idle
sweeps).  Tests replay identical workloads through both and assert the
abstract model's availability matches the wire behaviour, which is what
licenses running Table 1 at 500k packets on the fast model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.util.rng import SeededRng
from repro.quic.connection import Datagram, ServerConnection
from repro.server.nginx import NginxConfig


@dataclass
class _WireWorker:
    """One worker: a real QUIC endpoint plus a bounded state table."""

    endpoint: ServerConnection
    capacity: int
    #: original-DCID -> creation timestamp, insertion-ordered.
    created_at: dict = field(default_factory=dict)

    @property
    def table_full(self) -> bool:
        return len(self.created_at) >= self.capacity

    def sweep(self, cutoff: float) -> None:
        for odcid in [k for k, t in self.created_at.items() if t <= cutoff]:
            del self.created_at[odcid]
            self.endpoint.connections.pop(odcid, None)


class WireNginxServer:
    """A pool of real QUIC-terminating workers with NGINX's limits."""

    def __init__(
        self,
        config: Optional[NginxConfig] = None,
        rng: Optional[SeededRng] = None,
        keepalive_pings: int = 2,
    ) -> None:
        self.config = config or NginxConfig()
        rng = rng or SeededRng(1)
        self._workers = [
            _WireWorker(
                endpoint=ServerConnection(
                    rng.child(f"worker:{i}"),
                    retry_enabled=self.config.retry_enabled,
                    keepalive_pings=keepalive_pings,
                    issue_session_state=False,
                ),
                capacity=self.config.connections_per_worker,
            )
            for i in range(self.config.workers)
        ]
        # Workers share the listening socket's token secrets: a Retry
        # token minted by one worker validates at any other.
        for worker in self._workers[1:]:
            worker.endpoint.token_minter = self._workers[0].endpoint.token_minter
            worker.endpoint.address_token_minter = (
                self._workers[0].endpoint.address_token_minter
            )
            worker.endpoint.ticket_minter = self._workers[0].endpoint.ticket_minter
        self._next_cleanup = self.config.cleanup_interval
        self.dropped_table_full = 0

    def _run_cleanups(self, now: float) -> None:
        while now >= self._next_cleanup:
            cutoff = self._next_cleanup - self.config.min_idle
            for worker in self._workers:
                worker.sweep(cutoff)
            self._next_cleanup += self.config.cleanup_interval

    def _worker_for(self, client_ip: int, client_port: int) -> _WireWorker:
        return self._workers[(client_ip * 31 + client_port) % len(self._workers)]

    def handle_datagram(
        self, data: bytes, client_ip: int, client_port: int, now: float
    ) -> list:
        """Terminate one datagram; returns real response datagrams."""
        self._run_cleanups(now)
        worker = self._worker_for(client_ip, client_port)
        known = set(worker.endpoint.connections)
        if worker.table_full and not self.config.retry_enabled:
            # a full accept table drops new handshakes before crypto
            self.dropped_table_full += 1
            return []
        responses: list[Datagram] = worker.endpoint.handle_datagram(
            data, client_ip, client_port, now
        )
        for odcid in set(worker.endpoint.connections) - known:
            if worker.table_full:
                # raced past capacity inside one datagram: evict newest
                worker.endpoint.connections.pop(odcid, None)
                self.dropped_table_full += 1
                return []
            worker.created_at[odcid] = now
        return responses

    @property
    def stats(self) -> dict:
        """Aggregated worker statistics (ServerConnection counters)."""
        totals: dict[str, int] = {}
        for worker in self._workers:
            for key, value in worker.endpoint.stats.items():
                totals[key] = totals.get(key, 0) + value
        totals["dropped_table_full"] = self.dropped_table_full
        return totals

    @property
    def open_states(self) -> int:
        return sum(len(w.created_at) for w in self._workers)

"""The NGINX-like QUIC server model.

What makes a QUIC handshake flood effective (Section 3, Table 1) is the
*stateful* first round-trip: the server answers an unverified Initial
with cryptographic work **and** a connection context that lingers while
the (spoofed) client never completes.  The model captures exactly the
resources that bind in the paper's benchmark:

- **per-worker connection tables** — ``workers x connections_per_worker``
  slots (the paper uses 1024 per worker, twice the NGINX default);
  a spoofed handshake holds its slot until the server's periodic
  idle-state cleanup fires (a timer that sweeps connections idle for
  more than ``min_idle`` every ``cleanup_interval`` ≈ 60 s).  This
  batched reclamation is what produces Table 1's characteristic
  ``capacity x ceil(duration / cleanup)`` service pattern: 68% at
  100 pps, 7% at 1000 pps on 4 workers, and the twin 26% rows at
  10k/100k pps on 128 workers (the test ends before the first sweep);
- **per-worker crypto CPU** — each accepted Initial costs
  ``crypto_cost`` seconds of its worker's time (certificate signing +
  key schedule); a worker whose backlog exceeds ``max_cpu_backlog``
  drops packets like a full accept queue;
- **RETRY short-circuit** — with retry on, a token-less Initial gets a
  stateless ~HMAC-priced Retry and no slot; replayed floods never
  produce valid tokens, so they die before touching the table.

This reproduces Table 1's structure: the 4-worker table (4096 slots /
60 s ≈ 68 handshakes/s sustainable) collapses at 100-1000 pps, auto=128
workers (131k slots) survives 1000 pps but saturates at 10k+ pps, and
RETRY keeps availability at 100% for one extra round-trip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

AUTO_WORKERS = 128  # the paper's 128-core machine


@dataclass
class NginxConfig:
    """Server configuration mirroring the Table 1 setups."""

    workers: int = 4
    connections_per_worker: int = 1024  # twice the NGINX default, as in the paper
    retry_enabled: bool = False
    #: CPU seconds per accepted Initial (cert + key schedule).
    crypto_cost: float = 230e-6
    #: CPU seconds per stateless Retry.
    retry_cost: float = 12e-6
    #: period of the idle-connection sweep (handshake timeout timer).
    cleanup_interval: float = 60.0
    #: a connection must be idle at least this long to be swept.
    min_idle: float = 10.0
    #: a worker drops packets once its CPU backlog exceeds this.
    max_cpu_backlog: float = 0.5
    #: datagrams per successful handshake response (Initial + Handshake
    #: + two keep-alive PINGs in the paper's setup).
    responses_per_handshake: int = 4

    @classmethod
    def auto(cls, **kwargs) -> "NginxConfig":
        """The ``worker_processes auto;`` configuration (128 workers)."""
        kwargs.setdefault("workers", AUTO_WORKERS)
        return cls(**kwargs)

    @property
    def table_capacity(self) -> int:
        return self.workers * self.connections_per_worker

    @property
    def sustainable_handshake_rate(self) -> float:
        """Long-run handshakes/s once the table cycles with the sweep."""
        return self.table_capacity / self.cleanup_interval


@dataclass
class _Worker:
    """One NGINX worker process: a connection table plus a CPU."""

    capacity: int
    slots: deque = field(default_factory=deque)  # insertion timestamps
    busy_until: float = 0.0

    def sweep(self, cutoff: float) -> None:
        """Batched idle cleanup: drop states created at or before cutoff."""
        while self.slots and self.slots[0] <= cutoff:
            self.slots.popleft()

    @property
    def table_full(self) -> bool:
        return len(self.slots) >= self.capacity


@dataclass
class ServerStats:
    """Counters the Table 1 harness reads."""

    initials_received: int = 0
    handshakes_served: int = 0
    retries_sent: int = 0
    dropped_table_full: int = 0
    dropped_cpu: int = 0
    responses_sent: int = 0


class NginxQuicServer:
    """Packet-rate-level model of the QUIC terminating server."""

    def __init__(self, config: Optional[NginxConfig] = None) -> None:
        self.config = config or NginxConfig()
        self._workers = [
            _Worker(capacity=self.config.connections_per_worker)
            for _ in range(self.config.workers)
        ]
        self._next_cleanup = self.config.cleanup_interval
        self.stats = ServerStats()

    def _worker_for(self, flow_hash: int) -> _Worker:
        return self._workers[flow_hash % len(self._workers)]

    def _run_cleanups(self, now: float) -> None:
        """Fire every idle sweep due at or before ``now``."""
        while now >= self._next_cleanup:
            cutoff = self._next_cleanup - self.config.min_idle
            for worker in self._workers:
                worker.sweep(cutoff)
            self._next_cleanup += self.config.cleanup_interval

    def handle_initial(
        self, now: float, flow_hash: int, has_valid_token: bool = False
    ) -> int:
        """Process one client Initial; returns the datagrams sent back.

        ``has_valid_token`` models a client that echoed a fresh Retry
        token (a replay never has one).
        """
        cfg = self.config
        stats = self.stats
        stats.initials_received += 1
        self._run_cleanups(now)
        worker = self._worker_for(flow_hash)

        if cfg.retry_enabled and not has_valid_token:
            backlog = worker.busy_until - now
            if backlog > cfg.max_cpu_backlog:
                stats.dropped_cpu += 1
                return 0
            worker.busy_until = max(worker.busy_until, now) + cfg.retry_cost
            stats.retries_sent += 1
            stats.responses_sent += 1
            return 1

        backlog = worker.busy_until - now
        if backlog > cfg.max_cpu_backlog:
            stats.dropped_cpu += 1
            return 0
        if worker.table_full:
            stats.dropped_table_full += 1
            return 0
        worker.busy_until = max(worker.busy_until, now) + cfg.crypto_cost
        worker.slots.append(now)
        stats.handshakes_served += 1
        stats.responses_sent += cfg.responses_per_handshake
        return cfg.responses_per_handshake

    def complete_handshake(self, now: float, flow_hash: int) -> None:
        """A legitimate client finished: its slot is released early."""
        worker = self._worker_for(flow_hash)
        if worker.slots:
            worker.slots.popleft()

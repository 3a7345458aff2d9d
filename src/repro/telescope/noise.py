"""Misconfiguration noise: the low-volume backscatter the paper excludes.

Appendix B characterizes the response sessions *below* the DoS
thresholds: median 0.18 max-pps, 7 s long, 11 packets — traffic from
misconfigured resolvers/load balancers and one-off spoofing, not
attacks.  Modeling it matters because the detector must *reject* it
(the paper classifies only 11% of response sessions as attacks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.util.rng import SeededRng
from repro.internet.topology import InternetModel
from repro.telescope.backscatter import QuicVictimResponder, ResponderPolicy
from repro.telescope.telescope import in_time_order


@dataclass
class MisconfigurationModel:
    """Short, slow QUIC response bursts from random content hosts."""

    internet: InternetModel
    rng: SeededRng
    sessions_per_day: float = 770.0
    mean_packets_per_session: float = 11.0
    mean_duration: float = 7.0

    def __post_init__(self) -> None:
        self.rng = self.rng.child("misconfig")

    def _pick_source(self) -> int:
        """A random routed content/enterprise host dribbling responses."""
        servers = self.internet.all_quic_servers
        if servers and self.rng.random() < 0.8:
            return self.rng.choice(servers).address
        systems = list(self.internet.registry)
        system = self.rng.choice(systems)
        prefix = self.rng.choice(system.prefixes)
        return prefix.address_at(self.rng.randint(1, prefix.size - 2))

    def _session_items(self, session_start: float) -> list:
        """One session's gen records, train after train (trains overlap;
        :func:`in_time_order` sorts them)."""
        source = self._pick_source()
        responder = QuicVictimResponder(
            source,
            self.rng.child(f"noise:{source}:{session_start:.3f}"),
            ResponderPolicy(),
        )
        count = max(1, int(self.rng.expovariate(1.0 / self.mean_packets_per_session)) + 1)
        # 11 packets over ~7 s; each spoofed "request" yields a short
        # train, so scale the request count down by the train length.
        requests = max(1, count // 3)
        dst = self.internet.random_telescope_address(self.rng)
        dst_port = self.rng.randint(1024, 65535)
        records = []
        t = session_start
        for _ in range(requests):
            records.extend(responder.respond_records(t, dst, dst_port))
            t += self.rng.expovariate(requests / max(self.mean_duration, 1.0))
        return records

    def records(self, start: float, end: float) -> Iterator[tuple]:
        """All misconfiguration records in [start, end), time-sorted,
        streamed session by session (:func:`in_time_order`)."""
        return in_time_order(self._sessions(start, end), start, end)

    def _sessions(self, start: float, end: float) -> Iterator[tuple]:
        rate = self.sessions_per_day / 86400.0
        t = start
        while True:
            t += self.rng.expovariate(rate)
            if t >= end:
                return
            yield t, self._session_items(t)


@dataclass
class StrayUdpModel:
    """Non-QUIC UDP/443 traffic: DTLS probes, garbage, misrouted flows.

    These exercise the classifier's dissector step — port-based
    selection alone would wrongly count them as QUIC (Section 4.1).
    """

    internet: InternetModel
    rng: SeededRng
    packets_per_day: float = 400.0

    def __post_init__(self) -> None:
        self.rng = self.rng.child("stray-udp")

    def records(self, start: float, end: float) -> Iterator[tuple]:
        """Stray UDP/443 records in [start, end), in time order.

        DTLS 1.2 ClientHello-ish or plain garbage — either way it must
        fail QUIC dissection.  Note the ``random_unrouted_address()`` call draws from the
        *shared* topology RNG — this stream must therefore stay a single
        generation unit (see ``Scenario.parts``), which keeps
        partitioned runs exact.
        """
        rate = self.packets_per_day / 86400.0
        t = start
        while True:
            t += self.rng.expovariate(rate)
            if t >= end:
                break
            to_port_443 = self.rng.random() < 0.5
            if self.rng.random() < 0.5:
                payload = b"\x16\xfe\xfd" + self.rng.randbytes(45)
            else:
                payload = self.rng.randbytes(self.rng.randint(1, 25))
            source = self.internet.random_unrouted_address()
            dst = self.internet.random_telescope_address(self.rng)
            src_port = 443 if not to_port_443 else self.rng.randint(1024, 65535)
            dst_port = 443 if to_port_443 else self.rng.randint(1024, 65535)
            plen = len(payload)
            yield (t, source, dst, 28 + plen, 17, 1, src_port, dst_port, 0, plen, payload)

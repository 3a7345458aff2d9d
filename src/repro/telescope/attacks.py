"""Flood planning and attack traffic generation.

The planner reproduces the *event structure* reported in Section 5.2
and the appendices:

- QUIC floods arrive at ~4 per hour Internet-wide (the headline),
  targeting known QUIC servers 98% of the time, with provider shares
  Google 58% / Facebook 25% (Figure 9) and a heavy-tailed attacks-per-
  victim distribution where more than half the victims are hit once
  (Figure 6);
- flood durations are lognormal with a QUIC median of ~255 s vs
  ~1499 s for TCP/ICMP, at similar telescope max-pps (Figure 7);
- each QUIC flood is *concurrent* with a TCP/ICMP flood on the same
  victim (51%), *sequential* to one (40%), or isolated (9%)
  (Figure 8), with the overlap-share and gap distributions of
  Figures 12 and 13;
- attackers spoof from a limited IP pool but randomize source ports,
  which drives the SCID counts of Figure 9.

Planning (event-level) is separated from traffic generation
(packet-level) so the ground truth is available to tests independent
of the packet stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.net.packet import TcpFlags
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR
from repro.internet.topology import InternetModel
from repro.telescope.backscatter import QuicVictimResponder, census_policy
from repro.telescope.telescope import in_time_order

QUIC = "quic"
TCP = "tcp"
ICMP = "icmp"

CONCURRENT = "concurrent"
SEQUENTIAL = "sequential"
ISOLATED = "isolated"

#: TCP/ICMP backscatter, one record per request: a SYN-ACK from the
#: service port (a RST-ACK for the share its accept queue gives up on),
#: or an echo reply with 32 zero bytes (one shared object).
TCP_SERVICE_PORT = 443
TCP_RST_SHARE = 0.15
_SYN_ACK = int(TcpFlags.SYN | TcpFlags.ACK)
_RST_ACK = int(TcpFlags.RST | TcpFlags.ACK)
ICMP_ECHO_PAYLOAD = b"\x00" * 32


@dataclass
class FloodEvent:
    """One planned flood, described at the event level."""

    victim_ip: int
    vector: str  # quic | tcp | icmp
    start: float
    duration: float
    #: spoofed requests per second whose spoofed source falls inside the
    #: telescope prefix (i.e. the observable request rate).
    telescope_request_rate: float
    provider: Optional[str] = None
    category: Optional[str] = None  # for QUIC floods: multi-vector class
    partner: Optional["FloodEvent"] = None
    spoofed_pool_size: int = 16

    @property
    def end(self) -> float:
        return self.start + self.duration

@dataclass
class AttackPlanConfig:
    """Event-level knobs; defaults follow the paper's statistics."""

    quic_floods_per_hour: float = 4.0
    #: attack share per target class (98% hit known QUIC servers).
    provider_shares: tuple = (
        ("Google", 0.58),
        ("Facebook", 0.25),
        ("other-census", 0.15),
        ("unknown", 0.02),
    )
    #: probability that a flood opens a new victim instead of re-hitting
    #: one (preferential attachment drives the Figure 6 tail).
    new_victim_probability: float = 0.55
    #: category mix (Figure 8).
    category_shares: tuple = (
        (CONCURRENT, 0.51),
        (SEQUENTIAL, 0.40),
        (ISOLATED, 0.09),
    )
    #: QUIC flood duration: lognormal around a 255 s median.
    quic_duration_median: float = 255.0
    quic_duration_sigma: float = 0.9
    #: TCP/ICMP flood duration: lognormal around a 1499 s median.
    common_duration_median: float = 1499.0
    common_duration_sigma: float = 1.0
    min_duration: float = 70.0
    #: telescope-visible spoofed-request rate (median ≈ 0.5/s leads to
    #: ≈1 max response-pps with the two-datagram train).
    quic_rate_median: float = 0.5
    quic_rate_sigma: float = 0.8
    quic_min_rate: float = 0.35
    quic_max_rate: float = 8.0
    common_rate_median: float = 0.9
    common_rate_sigma: float = 0.9
    common_min_rate: float = 0.6
    common_max_rate: float = 25.0
    #: probability per request that the attacker pauses (pulsed floods;
    #: pauses stay below the 5-minute session timeout, which is what
    #: bends the Figure 4 curve between 1 and 5 minutes).
    pulse_probability: float = 0.008
    pulse_median: float = 90.0
    pulse_sigma: float = 0.6
    pulse_max: float = 280.0
    #: background TCP/ICMP floods per hour (paper: ~390/h; scaled so a
    #: laptop scenario stays tractable — scale shares, not shapes).
    common_floods_per_hour: float = 8.0
    #: fully-parallel share of concurrent attacks (Figure 12: 75% at 100%).
    full_overlap_probability: float = 0.75
    #: sequential gaps: lognormal, median ≈ 4 h, heavy tail (Figure 13).
    sequential_gap_median: float = 4 * HOUR
    sequential_gap_sigma: float = 1.3
    min_sequential_gap: float = 60.0
    #: spoofed source pool sizes visible at the telescope.
    spoofed_pool_min: int = 4
    spoofed_pool_max: int = 48


@dataclass
class AttackPlan:
    """The planner's ground truth."""

    quic_floods: list = field(default_factory=list)
    common_floods: list = field(default_factory=list)

    @property
    def all_floods(self) -> list:
        return self.quic_floods + self.common_floods


class AttackPlanner:
    """Plans flood events over a measurement window."""

    def __init__(
        self,
        internet: InternetModel,
        rng: SeededRng,
        config: AttackPlanConfig | None = None,
    ) -> None:
        self.internet = internet
        self.rng = rng.child("attack-planner")
        self.config = config or AttackPlanConfig()
        self._attacked: dict[str, list] = {}  # provider -> [(victim_ip, count)]

    # -- distributions ------------------------------------------------------

    def _lognormal(self, median: float, sigma: float) -> float:
        return self.rng.lognormvariate(math.log(median), sigma)

    def _duration(self, vector: str, window: float) -> float:
        cfg = self.config
        if vector == QUIC:
            raw = self._lognormal(cfg.quic_duration_median, cfg.quic_duration_sigma)
        else:
            raw = self._lognormal(cfg.common_duration_median, cfg.common_duration_sigma)
        return min(max(raw, cfg.min_duration), window / 3.0)

    def _rate(self, vector: str) -> float:
        cfg = self.config
        if vector == QUIC:
            raw = self._lognormal(cfg.quic_rate_median, cfg.quic_rate_sigma)
            return min(max(raw, cfg.quic_min_rate), cfg.quic_max_rate)
        raw = self._lognormal(cfg.common_rate_median, cfg.common_rate_sigma)
        return min(max(raw, cfg.common_min_rate), cfg.common_max_rate)

    # -- victim selection -----------------------------------------------------

    def _pick_target_class(self) -> str:
        names = [n for n, _w in self.config.provider_shares]
        weights = [w for _n, w in self.config.provider_shares]
        return names[self.rng.weighted_index(weights)]

    def _pick_victim(self, target_class: str) -> tuple:
        """Returns ``(victim_ip, provider_name_or_None)``."""
        if target_class == "unknown":
            return self.internet.random_unrouted_address(), None
        if target_class == "other-census":
            candidates = [
                r
                for r in self.internet.census.all_records()
                if r.provider not in ("Google", "Facebook")
            ]
            provider_key = "other-census"
        else:
            candidates = self.internet.census.by_provider(target_class)
            provider_key = target_class
        attacked = self._attacked.setdefault(provider_key, [])
        reuse = attacked and self.rng.random() > self.config.new_victim_probability
        if reuse:
            weights = [count for _ip, count in attacked]
            index = self.rng.weighted_index(weights)
            ip, count = attacked[index]
            attacked[index] = (ip, count + 1)
            record = self.internet.census.get(ip)
            return ip, record.provider if record else None
        record = self.rng.choice(candidates)
        for i, (ip, count) in enumerate(attacked):
            if ip == record.address:
                attacked[i] = (ip, count + 1)
                return record.address, record.provider
        attacked.append((record.address, 1))
        return record.address, record.provider

    # -- planning ---------------------------------------------------------

    def plan(self, start: float, end: float) -> AttackPlan:
        """Plan all floods for the window [start, end)."""
        window = end - start
        plan = AttackPlan()
        count = max(1, int(round(self.config.quic_floods_per_hour * window / HOUR)))
        categories = [c for c, _w in self.config.category_shares]
        weights = [w for _c, w in self.config.category_shares]
        for _ in range(count):
            duration = self._duration(QUIC, window)
            flood_start = start + self.rng.uniform(0, max(1.0, window - duration))
            target_class = self._pick_target_class()
            victim_ip, provider = self._pick_victim(target_class)
            rate = self._rate(QUIC)
            if provider == "Google":
                rate *= 0.7  # Figure 9: fewer packets per Google attack
            category = categories[self.rng.weighted_index(weights)]
            quic_flood = FloodEvent(
                victim_ip=victim_ip,
                vector=QUIC,
                start=flood_start,
                duration=duration,
                telescope_request_rate=rate,
                provider=provider,
                category=category,
                spoofed_pool_size=self.rng.randint(
                    self.config.spoofed_pool_min, self.config.spoofed_pool_max
                ),
            )
            plan.quic_floods.append(quic_flood)
            partner = self._plan_partner(quic_flood, start, end)
            if partner is not None:
                quic_flood.partner = partner
                plan.common_floods.append(partner)
        self._plan_background(plan, start, end)
        return plan

    def _plan_partner(
        self, quic_flood: FloodEvent, start: float, end: float
    ) -> Optional[FloodEvent]:
        cfg = self.config
        window = end - start
        vector = self.rng.choice([TCP, TCP, ICMP])  # TCP floods dominate
        if quic_flood.category == CONCURRENT:
            duration = self._duration(vector, window)
            if self.rng.random() < cfg.full_overlap_probability:
                # Fully parallel: the common flood covers the QUIC flood.
                duration = max(duration, quic_flood.duration * 1.05)
                partner_start = quic_flood.start - 0.025 * quic_flood.duration
            else:
                share = self.rng.uniform(0.05, 0.95)
                overlap = share * quic_flood.duration
                if self.rng.random() < 0.5:
                    partner_start = quic_flood.start - (duration - overlap)
                else:
                    partner_start = quic_flood.end - overlap
            partner_start = max(start, partner_start)
        elif quic_flood.category == SEQUENTIAL:
            duration = self._duration(vector, window)
            gap = max(
                cfg.min_sequential_gap,
                self._lognormal(cfg.sequential_gap_median, cfg.sequential_gap_sigma),
            )
            before = self.rng.random() < 0.5
            if before:
                partner_start = quic_flood.start - gap - duration
            else:
                partner_start = quic_flood.end + gap
            # Keep the partner inside the window; flip side if needed.
            if partner_start < start:
                partner_start = quic_flood.end + gap
            if partner_start + duration > end:
                gap = min(gap, (end - quic_flood.end) / 2)
                partner_start = min(quic_flood.end + max(gap, cfg.min_sequential_gap), end - duration)
                if partner_start <= quic_flood.end:
                    # Window too small for any gap: degrade to a short
                    # trailing flood right at the window edge.
                    partner_start = min(
                        quic_flood.end + cfg.min_sequential_gap, end - cfg.min_duration
                    )
                    duration = min(duration, end - partner_start)
            if duration < cfg.min_duration:
                return None
            partner_start = max(start, partner_start)
        else:  # ISOLATED: no partner
            return None
        # Attacks do not respect measurement windows, but the scenario
        # only materializes what the telescope records, so clamp to the
        # window.  Full-overlap partners still cover the QUIC flood
        # because the QUIC flood itself ends inside the window.
        partner_start = max(start, partner_start)
        duration = min(duration, end - partner_start)
        if duration < cfg.min_duration:
            return None
        return FloodEvent(
            victim_ip=quic_flood.victim_ip,
            vector=vector,
            start=partner_start,
            duration=duration,
            telescope_request_rate=self._rate(vector),
            provider=quic_flood.provider,
            spoofed_pool_size=self.rng.randint(
                cfg.spoofed_pool_min, cfg.spoofed_pool_max
            ),
        )

    def _plan_background(self, plan: AttackPlan, start: float, end: float) -> None:
        """TCP/ICMP floods against victims without QUIC attacks."""
        window = end - start
        quic_victims = {f.victim_ip for f in plan.quic_floods}
        count = int(round(self.config.common_floods_per_hour * window / HOUR))
        for _ in range(count):
            vector = self.rng.choice([TCP, TCP, TCP, ICMP])
            while True:
                victim_ip = self._background_victim()
                if victim_ip not in quic_victims:
                    break
            duration = self._duration(vector, window)
            flood_start = start + self.rng.uniform(0, max(1.0, window - duration))
            plan.common_floods.append(
                FloodEvent(
                    victim_ip=victim_ip,
                    vector=vector,
                    start=flood_start,
                    duration=duration,
                    telescope_request_rate=self._rate(vector),
                    spoofed_pool_size=self.rng.randint(
                        self.config.spoofed_pool_min, self.config.spoofed_pool_max
                    ),
                )
            )

    def _background_victim(self) -> int:
        """Any routed host: enterprises, transit customers, web servers."""
        systems = list(self.internet.registry)
        system = self.rng.choice(systems)
        prefix = self.rng.choice(system.prefixes)
        return prefix.address_at(self.rng.randint(1, prefix.size - 2))


class AttackTrafficModel:
    """Turns planned floods into the telescope's packet stream."""

    def __init__(
        self,
        internet: InternetModel,
        rng: SeededRng,
        config: AttackPlanConfig | None = None,
    ) -> None:
        self.internet = internet
        self.rng = rng.child("attack-traffic")
        self.config = config or AttackPlanConfig()

    def flood_records(self, flood: FloodEvent) -> Iterator:
        """One flood's telescope records, lazily, in time order.

        A TCP or ICMP victim answers each request with one record at the
        request time, so :meth:`_answers` yields those records as they
        are.  A QUIC victim answers with a train that outlasts the
        request, so :meth:`_answers` yields ``(request time, train)``
        sessions and :func:`~repro.telescope.telescope.in_time_order`
        interleaves the trains.
        """
        answers = self._answers(flood)
        if flood.vector == QUIC:
            answers = in_time_order(answers, flood.start, math.inf)
        yield from answers

    def _answers(self, flood: FloodEvent) -> Iterator:
        """The victim's answer to each of one flood's requests.

        One request loop draws every flood's arrivals, pulses and spoofed
        (address, port) pairs.  A TCP or ICMP answer is one record drawn
        from the victim's own child stream; a QUIC answer is a
        ``(request time, train)`` session.

        The loop inlines its draws — ``expovariate`` is
        ``-log(1 - random()) / rate``, and ``choice`` / ``randint`` bottom
        out in ``_randbelow``'s rejection loop over ``getrandbits`` —
        consuming the generator exactly as those :class:`random.Random`
        methods do while skipping two or three frames per draw.  The
        tests' reference (``tests/reference/generator.py``) draws the
        same streams with the textbook methods and builds packet objects.
        """
        rng = self.rng.child(
            f"flood:{flood.vector}:{flood.victim_ip}:{flood.start:.3f}"
        )
        victim = flood.victim_ip
        tcp = flood.vector == TCP
        icmp = flood.vector == ICMP
        if tcp or icmp:
            responder_rng = rng.child(f"{flood.vector}-responder:{victim}")
            rrandom = responder_rng.random
            rbits = responder_rng.getrandbits
        else:
            respond = QuicVictimResponder(
                victim, rng, census_policy(self.internet, victim)
            ).respond_records
        pool = [
            self.internet.random_telescope_address(rng)
            for _ in range(flood.spoofed_pool_size)
        ]
        cfg = self.config
        t = flood.start
        random = rng.random
        getrandbits = rng.getrandbits
        log = math.log
        rate = flood.telescope_request_rate
        end = flood.end
        pulse_probability = cfg.pulse_probability
        pulse_mu = log(cfg.pulse_median)
        pulse_sigma = cfg.pulse_sigma
        pulse_max = cfg.pulse_max
        lognormvariate = rng.lognormvariate
        pool_size = len(pool)
        pool_bits = pool_size.bit_length()
        echo_sequence = 0
        while True:
            t += -log(1.0 - random()) / rate
            if random() < pulse_probability:
                # attacker pulse: a sub-timeout silence inside the flood
                t += min(lognormvariate(pulse_mu, pulse_sigma), pulse_max)
            if t >= end:
                break
            r = getrandbits(pool_bits)
            while r >= pool_size:
                r = getrandbits(pool_bits)
            spoofed_ip = pool[r]
            # randint(1024, 65535) == 1024 + _randbelow(64512); 64512
            # needs 16 bits, so the rejection threshold is fixed
            port = getrandbits(16)
            while port >= 64512:
                port = getrandbits(16)
            if tcp:
                flags = _RST_ACK if rrandom() < TCP_RST_SHARE else _SYN_ACK
                # randint(0, 2**32 - 1) == _randbelow(2**32): 33-bit
                # words, the top half rejected
                seq = rbits(33)
                while seq >= 4294967296:
                    seq = rbits(33)
                ack = rbits(33)
                while ack >= 4294967296:
                    ack = rbits(33)
                yield (
                    t, victim, spoofed_ip, 40, 6, 2,
                    TCP_SERVICE_PORT, 1024 + port, flags, 0, b"", seq, ack,
                )
            elif icmp:
                # f1/f2 carry the echo reply's type/code (0/0), x1/x2
                # its identifier and sequence; randint(0, 0xFFFF) ==
                # _randbelow(65536)
                echo_sequence = (echo_sequence + 1) & 0xFFFF
                identifier = rbits(17)
                while identifier >= 65536:
                    identifier = rbits(17)
                yield (
                    t, victim, spoofed_ip, 60, 1, 3,
                    0, 0, 0, 32, ICMP_ECHO_PAYLOAD, identifier, echo_sequence,
                )
            else:
                yield t, respond(t, spoofed_ip, 1024 + port)

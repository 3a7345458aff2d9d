"""Scenario presets and the named-scenario registry.

Sizing presets (window/scale knobs for the default workload):

- :func:`demo` — minutes-scale, for examples and interactive use;
- :func:`paper_month` — the full April 2021 window at the paper's event
  rates.  At the default 1/64 sweep sampling this is ≈ 29M packets; it
  exists so the full-scale numbers are *reproducible* (ROADMAP item 1
  makes it a benchmark workload).

All presets accept keyword overrides that are applied on top.

Named scenarios (:data:`SCENARIOS`) are the discoverable registry the
test matrix, docs/SCENARIOS.md, and ``report --scenario`` all
enumerate: the paper's four IBR traffic classes in
isolation plus the adversarial workloads from
:mod:`repro.telescope.adversarial`.  Every entry is deliberately small
(sub-hour windows) so the full equivalence battery stays cheap; rates
and durations are chosen so each scenario's *detector-relevant*
behaviour (flood alerts firing, or honestly not firing) is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.telescope.adversarial import AdversarialSpec
from repro.telescope.workload import ScenarioConfig
from repro.util.timeutil import APRIL_1_2021, HOUR, MAY_1_2021


def demo(**overrides) -> ScenarioConfig:
    """A three-hour window with light research sampling."""
    config = ScenarioConfig(
        duration=3 * HOUR,
        research_sample=1.0 / 512,
    )
    return replace(config, **overrides)


def paper_month(**overrides) -> ScenarioConfig:
    """April 1-30, 2021 at the paper's event rates.

    Event counts then land at paper scale: ~2900 QUIC floods, ~390
    victims, two research scanners sweeping twice a day.  Research
    sweeps stay sampled at 1/64 (8.4M -> 131k packets per sweep,
    524,288 research records a day): ≈ 29M packets for the month.
    ``research_sample=1.0`` is ≈ 33.5M research packets a day, ≈ 1.0B
    for the month — not the paper's 92M-packet April, which corresponds
    to a sample of ≈ 1/13.
    """
    config = ScenarioConfig(
        start=APRIL_1_2021,
        duration=MAY_1_2021 - APRIL_1_2021,
        research_sample=1.0 / 64.0,
    )
    return replace(config, **overrides)


# --------------------------------------------------------------------------
# the named-scenario registry
# --------------------------------------------------------------------------

#: every include_* flag off — named scenarios opt traffic classes back in.
_ALL_OFF = dict(
    include_research=False,
    include_bots=False,
    include_tcp_scans=False,
    include_attacks=False,
    include_misconfig=False,
    include_stray=False,
)


def _isolated(duration=HOUR, **on) -> ScenarioConfig:
    flags = dict(_ALL_OFF)
    flags.update(on)
    return ScenarioConfig(
        duration=duration, research_sample=1.0 / 2048, **flags
    )


@dataclass(frozen=True)
class ScenarioPreset:
    """One registered scenario: a name, its traffic, and what the
    pipeline is expected to make of it."""

    name: str
    description: str
    #: traffic vectors the scenario emits (doc/table slugs).
    vectors: tuple
    #: expected pipeline classification, one phrase — "uncategorized"
    #: is a legitimate honest answer for request-class attacks.
    expected: str
    adversarial: bool
    build: object  # zero-arg ScenarioConfig factory

    def config(self, **overrides) -> ScenarioConfig:
        return replace(self.build(), **overrides)


SCENARIOS: dict = {}


def _register(preset: ScenarioPreset) -> ScenarioPreset:
    SCENARIOS[preset.name] = preset
    return preset


# -- the paper's four IBR classes, each in isolation -----------------------

_register(
    ScenarioPreset(
        name="ibr-research",
        description="periodic full-IPv4 research sweeps (sampled)",
        vectors=("quic-request",),
        expected="research scan sessions, identified and rate-excluded",
        adversarial=False,
        build=lambda: _isolated(include_research=True),
    )
)
_register(
    ScenarioPreset(
        name="ibr-scanners",
        description="bot QUIC recon plus background TCP scanning",
        vectors=("quic-request", "tcp-syn"),
        expected="request/scan sessions; no flood attacks",
        adversarial=False,
        build=lambda: _isolated(include_bots=True, include_tcp_scans=True),
    )
)
_register(
    ScenarioPreset(
        name="ibr-backscatter",
        description="spoofed-flood backscatter from the planner's floods",
        vectors=("quic-response", "tcp-backscatter", "icmp-backscatter"),
        expected="QUIC and TCP/ICMP flood attacks with victim analysis",
        adversarial=False,
        build=lambda: _isolated(include_attacks=True),
    )
)
_register(
    ScenarioPreset(
        name="ibr-noise",
        description="misconfiguration traffic and stray UDP noise",
        vectors=("udp-misconfig", "udp-stray"),
        expected="mostly malformed/uncategorized; no flood attacks",
        adversarial=False,
        build=lambda: _isolated(include_misconfig=True, include_stray=True),
    )
)

# -- adversarial workloads beyond the paper --------------------------------

_register(
    ScenarioPreset(
        name="adv-optimistic-ack",
        description="optimistic-ACK amplification: victim sprays near-MTU "
        "1-RTT datagrams at spoofed addresses",
        vectors=("quic-response",),
        expected="one QUIC flood attack with anomalously high bytes/packet",
        adversarial=True,
        build=lambda: _isolated(
            duration=HOUR / 2,
            adversarial=(
                AdversarialSpec(kind="optimistic-ack", rate=0.5, burst=8),
            ),
        ),
    )
)
_register(
    ScenarioPreset(
        name="adv-h3-flood",
        description="HTTP/3 request flood: coalesced Initial + 0-RTT "
        "HEADERS datagrams sprayed across the prefix",
        vectors=("quic-request", "h3"),
        expected="request sessions only — honestly uncategorized, no flood",
        adversarial=True,
        build=lambda: _isolated(
            duration=HOUR / 2,
            adversarial=(AdversarialSpec(kind="h3-flood", rate=3.0),),
        ),
    )
)
_register(
    ScenarioPreset(
        name="adv-h3-slowloris",
        description="Slowloris-style HTTP/3: sources drip one request "
        "chunk every few dozen seconds",
        vectors=("quic-request", "h3"),
        expected="long low-rate request sessions — uncategorized, no flood",
        adversarial=True,
        build=lambda: _isolated(
            duration=HOUR / 2,
            adversarial=(
                AdversarialSpec(
                    kind="h3-slowloris", duration=1200.0, sources=12
                ),
            ),
        ),
    )
)
_register(
    ScenarioPreset(
        name="adv-pulse-wave",
        description="pulse-wave flood: bursts separated by silences "
        "longer than the session timeout",
        vectors=("quic-response",),
        expected="several QUIC flood attacks against a single victim",
        adversarial=True,
        build=lambda: _isolated(
            duration=HOUR / 2,
            adversarial=(AdversarialSpec(kind="pulse-wave", rate=1.5),),
        ),
    )
)
_register(
    ScenarioPreset(
        name="adv-carpet-bomb",
        description="carpet bombing: every host of a census server's /24 "
        "flooded simultaneously",
        vectors=("quic-response",),
        expected="many single-attack victims with a low known-server share",
        adversarial=True,
        build=lambda: _isolated(
            duration=HOUR / 2,
            adversarial=(
                AdversarialSpec(
                    kind="carpet-bomb", duration=300.0, rate=0.6, victims=12
                ),
            ),
        ),
    )
)
_register(
    ScenarioPreset(
        name="adv-vn-retry",
        description="version-negotiation / RETRY deflection backscatter "
        "with valid integrity tags",
        vectors=("quic-response", "version-negotiation", "retry"),
        expected="QUIC flood attack plus a non-zero passive-RETRY counter",
        adversarial=True,
        build=lambda: _isolated(
            duration=HOUR / 2,
            adversarial=(AdversarialSpec(kind="vn-retry", rate=1.2),),
        ),
    )
)


def scenario_names() -> tuple:
    """Every registered scenario name, in registration order."""
    return tuple(SCENARIOS)


def get_scenario(name: str) -> ScenarioPreset:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None


def scenario_config(name: str, **overrides) -> ScenarioConfig:
    """The named scenario's config with keyword overrides applied."""
    return get_scenario(name).config(**overrides)

"""Connection-ID and spoofing analysis per attack (Figure 9).

The SCID is the QUIC-specific backscatter feature: every connection
context a victim allocates shows up as a distinct Source Connection ID
in its responses, so SCID counts proxy the *server-side load* a flood
induced.  The paper contrasts this with the spoofed client addresses
(few) and ports (many): port randomization, not address randomization,
drives state allocation — and Google's per-request CID policy yields
more SCIDs than Facebook's despite fewer packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.internet.activescan import ActiveScanCensus
from repro.util.stats import EmpiricalCdf


@dataclass
class AttackFingerprint:
    """Per-attack feature vector for Figure 9."""

    victim_ip: int
    provider: Optional[str]
    packet_count: int
    unique_client_ips: int
    unique_client_ports: int
    unique_scids: int
    version_mix: dict


@dataclass
class ProviderProfile:
    """Distribution summary of attack features for one provider."""

    provider: str
    fingerprints: list = field(default_factory=list)

    def _cdf(self, attribute: str) -> EmpiricalCdf:
        values = [getattr(f, attribute) for f in self.fingerprints]
        return EmpiricalCdf(values)

    @property
    def attack_count(self) -> int:
        return len(self.fingerprints)

    def median(self, attribute: str) -> float:
        return self._cdf(attribute).median_value

    def dominant_version(self) -> tuple:
        """(version_name, share) across all the provider's attacks."""
        totals: dict[str, int] = {}
        for fingerprint in self.fingerprints:
            for name, count in fingerprint.version_mix.items():
                totals[name] = totals.get(name, 0) + count
        if not totals:
            return ("unknown", 0.0)
        top = max(totals.items(), key=lambda kv: kv[1])
        return top[0], top[1] / sum(totals.values())


def fingerprint_attacks(
    attacks: list, census: Optional[ActiveScanCensus] = None
) -> list:
    """Build fingerprints from detected QUIC flood attacks.

    The spoofed *client* side of a backscatter session is its
    destination side: dst IPs are the spoofed addresses, dst ports the
    randomized client ports, and the session's SCID set is what the
    victim allocated.
    """
    fingerprints = []
    for attack in attacks:
        session = attack.session
        provider = None
        if census is not None:
            record = census.get(attack.victim_ip)
            provider = record.provider if record else None
        fingerprints.append(
            AttackFingerprint(
                victim_ip=attack.victim_ip,
                provider=provider,
                packet_count=session.packet_count,
                unique_client_ips=len(session.dst_ips),
                unique_client_ports=len(session.dst_ports),
                unique_scids=len(session.scids),
                version_mix=dict(session.version_names),
            )
        )
    return fingerprints


def provider_profiles(fingerprints: list) -> dict:
    """Group fingerprints per provider (None → "unknown")."""
    profiles: dict[str, ProviderProfile] = {}
    for fingerprint in fingerprints:
        name = fingerprint.provider or "unknown"
        profile = profiles.setdefault(name, ProviderProfile(name))
        profile.fingerprints.append(fingerprint)
    return profiles

#!/usr/bin/env python3
"""A custom measurement campaign with pcap round-trip.

Demonstrates the workflow a darknet operator would use with this
library on *real* captures:

1. configure a campaign (window, telescope size, attack intensity);
2. record the telescope feed to a pcap file — real wire bytes with
   correct checksums, readable by any pcap tool;
3. re-read the pcap and run the pipeline on it (proving the analysis
   is agnostic to whether packets come from the simulator or a file);
4. report per-figure results and dump the detected attack list.

Usage:  python examples/telescope_campaign.py [output.pcap]
"""

import sys
import tempfile
from pathlib import Path

from repro.core import QuicsandPipeline
from repro.net.addresses import format_ipv4
from repro.net.pcap import read_pcap, write_records
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.attacks import AttackPlanConfig
from repro.telescope.genlane import wire_items
from repro.util.render import format_table
from repro.util.timeutil import HOUR


def main() -> None:
    if len(sys.argv) > 1:
        pcap_path = Path(sys.argv[1])
    else:
        pcap_path = Path(tempfile.gettempdir()) / "quicsand_campaign.pcap"

    # An intense three-hour campaign: double the paper's flood rate.
    config = ScenarioConfig(
        seed=7,
        duration=3 * HOUR,
        research_sample=1 / 512,
        attacks=AttackPlanConfig(quic_floods_per_hour=8.0, common_floods_per_hour=10.0),
    )
    scenario = Scenario(config)

    print(f"recording capture to {pcap_path} ...")
    count = write_records(pcap_path, wire_items(scenario.records()))
    size_mb = pcap_path.stat().st_size / 1e6
    print(f"wrote {count:,} packets ({size_mb:.1f} MB)")

    print("re-reading pcap and analyzing ...")
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )
    result = pipeline.process(read_pcap(pcap_path))

    print()
    print(
        format_table(
            ["class", "packets"],
            sorted(result.class_counts.items(), key=lambda kv: -kv[1]),
            title="Packet classification (port + dissector)",
        )
    )

    rows = []
    for attack in sorted(result.quic_attacks, key=lambda a: a.start)[:15]:
        record = scenario.internet.census.get(attack.victim_ip)
        rows.append(
            [
                format_ipv4(attack.victim_ip),
                record.provider if record else "unknown",
                f"{attack.duration:.0f}s",
                attack.packet_count,
                f"{attack.max_pps:.2f}",
                f"{attack.max_pps * scenario.telescope.extrapolation_factor:.0f}",
            ]
        )
    print()
    print(
        format_table(
            ["victim", "provider", "duration", "packets", "max pps", "est. Internet pps"],
            rows,
            title=f"Detected QUIC floods (first 15 of {len(result.quic_attacks)})",
        )
    )
    print(f"\npcap kept at {pcap_path}")


if __name__ == "__main__":
    main()

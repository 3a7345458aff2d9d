"""Telescope substrate: the /9 darknet and the traffic that reaches it.

Internet background radiation at a telescope has four constituents,
each with its own generator:

- :mod:`repro.telescope.scanners` — research sweeps (TUM/RWTH-style,
  98.5% of QUIC IBR) and malicious bot scans from eyeball networks;
- :mod:`repro.telescope.attacks` — the flood planner: QUIC floods
  against content providers plus TCP/ICMP floods, orchestrated into
  concurrent / sequential / isolated multi-vector patterns;
- :mod:`repro.telescope.backscatter` — victim response models that turn
  planned floods into the packets a telescope actually sees;
- :mod:`repro.telescope.noise` — low-volume misconfiguration traffic.

Beyond the paper, :mod:`repro.telescope.adversarial` generates attack
shapes the 2021 telescope never saw (optimistic-ACK amplification,
HTTP/3 request floods, pulse waves, carpet bombing, VN/RETRY
deflection); :data:`repro.telescope.presets.SCENARIOS` is the named
registry the test matrix and ``report --scenario`` enumerate, loaded
only by what imports it by name.

:mod:`repro.telescope.workload` composes them into a full scenario and
:mod:`repro.telescope.telescope` merges the sorted per-source streams
into one capture, exactly like a darknet's packet tap.
"""

from repro.telescope.adversarial import AdversarialSpec, ADVERSARIAL_KINDS
from repro.telescope.diurnal import DiurnalModel
from repro.telescope.telescope import Telescope
from repro.telescope.workload import Scenario, ScenarioConfig, ScenarioTruth

__all__ = [
    "AdversarialSpec",
    "ADVERSARIAL_KINDS",
    "DiurnalModel",
    "Telescope",
    "Scenario",
    "ScenarioConfig",
    "ScenarioTruth",
]

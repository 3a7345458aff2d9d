"""Deterministic fault injection for robustness testing.

A telescope pipeline must survive arbitrary Internet garbage; this
package *manufactures* that garbage reproducibly.  A
:class:`~repro.faults.spec.FaultSpec` describes per-packet corruption
rates (bit/byte flips, truncation, zeroed payloads, garbage UDP/443
datagrams, duplicates, drops, reorders, mid-stream interruption) and a
:class:`~repro.faults.inject.FaultInjector` applies them to any packet
stream or batch feed, driven entirely by labelled
:class:`~repro.util.rng.SeededRng` children — the same spec and seed
always yield the same faulted stream, which is what lets
``tests/test_faults_equivalence.py`` assert bit-identical results
across the serial, parallel, and streaming analysis paths.

:mod:`repro.faults.pcap` corrupts pcap *container* bytes (record
headers and bodies) to exercise the lenient reader's skip-and-count
path.  The CLI exposes all of it via ``--faults`` / ``--fault-seed``
on ``analyze``/``report``/``watch`` (see ``docs/ROBUSTNESS.md``).
"""

from repro.faults.inject import FaultInjector
from repro.faults.pcap import corrupt_pcap_bytes
from repro.faults.spec import FAULT_KINDS, FaultSpec, FaultSpecError

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "FaultSpecError",
    "corrupt_pcap_bytes",
]

"""Server substrate: the Table 1 DoS-resiliency experiment.

The paper benchmarks NGINX's QUIC stack on a 128-core machine: client
Initial floods at 10-100,000 pps against worker pools of 4 or 128,
with and without RETRY.  This package rebuilds that testbed as a
discrete-event simulation:

- :mod:`repro.server.nginx` — the worker-pool server model (per-worker
  connection tables, handshake-state lingering, crypto service times,
  RETRY short-circuit),
- :mod:`repro.server.client` — the replaying attack client (quiche-
  style recorded Initials) and the legitimate probe client,
- :mod:`repro.server.benchmark` — the Table 1 harness.
"""

from repro.server.benchmark import BenchmarkRow, run_attack, run_table1, table1_rows
from repro.server.client import LegitimateClient, ReplayClient
from repro.server.nginx import NginxConfig, NginxQuicServer

__all__ = [
    "BenchmarkRow",
    "run_attack",
    "run_table1",
    "table1_rows",
    "LegitimateClient",
    "ReplayClient",
    "NginxConfig",
    "NginxQuicServer",
]

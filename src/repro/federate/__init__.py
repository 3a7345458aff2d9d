"""Multi-telescope federation: distributed capture, one global result.

The paper measures one /9 telescope.  This package asks the follow-up
question: what would K *smaller* telescopes, each watching one tile of
the prefix, see — and can their observations be merged back into
exactly the single-telescope analysis?

A vantage is a ``--workers`` part whose tap is retargeted to one tile:
the serial fused loop over the tile's capture, one closed
:class:`~repro.core.pipeline.PartialState` and metrics snapshot out,
handed back in memory.

- :mod:`repro.federate.merge` — the destination tiles, and
  :func:`run_vantages`, which runs K local vantages through the
  ``--workers`` process pool; vantage states merge through the
  pipeline's one merge (:func:`repro.core.pipeline.merge_states`);
- :mod:`repro.federate.aggregate` — the aggregator: global result,
  cross-telescope flood dedup, per-vantage differential, and the
  extrapolation check.

Design notes and the dedup semantics live in ``docs/FEDERATION.md``;
bit-exactness against a single telescope is pinned by
``tests/test_federation_equivalence.py``.
"""

from repro.federate.aggregate import (
    Aggregator,
    FederationResult,
    GlobalFlood,
    VantageStream,
)
from repro.federate.merge import run_vantages, tile_prefixes

__all__ = [
    "Aggregator",
    "FederationResult",
    "GlobalFlood",
    "VantageStream",
    "run_vantages",
    "tile_prefixes",
]

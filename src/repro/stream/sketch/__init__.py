"""Constant-memory sketches for million-source streams.

The exact and bounded monitor modes keep per-source dicts and session
objects, so memory scales with source cardinality — fine for a
capture, wrong for a production telescope watching millions of
sources.  This package trades exactness for a *fixed* memory ceiling
with one-sided, quantified error:

- :class:`~repro.stream.sketch.countmin.CountMinSketch` — seeded,
  conservative-update; overestimate-only per-source packet/byte counts
  with the ``epsilon * N`` / ``delta`` bounds;
- :class:`~repro.stream.sketch.spacesaving.SpaceSaving` — top-k heavy
  hitters with guaranteed recall above ``N / k`` and a per-key lower
  bound that can never exceed the true count;
- :class:`~repro.stream.sketch.hll.HyperLogLog` — distinct-source and
  distinct-victim cardinality at ``1.04 / sqrt(m)`` relative error;
- :class:`~repro.stream.sketch.tier.SketchTier` — wires all three into
  the monitor's update path behind ``StreamConfig(mode="sketch")``,
  firing Moore-threshold flood alerts off the space-saving lower bound.

Every structure is seeded (deterministic across runs and processes)
and picklable.  The exact mode is the ground truth:
``benchmarks/bench_sketch_accuracy.py`` measures alert precision/
recall and count error against it across scenario seeds.
"""

from repro.stream.sketch.countmin import CountMinSketch
from repro.stream.sketch.hashing import mix64
from repro.stream.sketch.hll import HyperLogLog
from repro.stream.sketch.spacesaving import SpaceSaving
from repro.stream.sketch.tier import (
    EXACT_TALLY_BYTES_PER_SOURCE,
    FloodEpisode,
    SketchTier,
    VECTORS,
)

__all__ = [
    "CountMinSketch",
    "EXACT_TALLY_BYTES_PER_SOURCE",
    "FloodEpisode",
    "HyperLogLog",
    "SketchTier",
    "SpaceSaving",
    "VECTORS",
    "mix64",
]

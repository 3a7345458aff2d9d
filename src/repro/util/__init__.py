"""Shared utilities for the QUICsand reproduction.

This package contains small, dependency-free building blocks used across
the substrates and the analysis core:

- :mod:`repro.util.varint` — QUIC variable-length integers (RFC 9000 §16).
- :mod:`repro.util.rng` — deterministic, stream-splittable random sources.
- :mod:`repro.util.timeutil` — epoch constants and interval helpers.
- :mod:`repro.util.stats` — empirical CDFs and percentiles.
- :mod:`repro.util.render` — plain-text tables and charts for the report.
- :mod:`repro.util.batching` — chunked iteration over packet streams and
  the bound every memo shares.
"""

from repro.util.batching import batched
from repro.util.varint import (
    VarintError,
    decode_varint,
    encode_varint,
    varint_length,
)
from repro.util.rng import SeededRng, derive_seed
from repro.util.stats import EmpiricalCdf, percentile
from repro.util.timeutil import HOUR, MINUTE

__all__ = [
    "batched",
    "VarintError",
    "decode_varint",
    "encode_varint",
    "varint_length",
    "SeededRng",
    "derive_seed",
    "EmpiricalCdf",
    "percentile",
    "HOUR",
    "MINUTE",
]

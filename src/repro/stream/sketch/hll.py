"""HyperLogLog distinct-count estimation (Flajolet et al. 2007).

``m = 2 ** precision`` one-byte registers; a key's seeded
:func:`~repro.stream.sketch.hashing.mix64` hash routes on its top
``precision`` bits and contributes the leading-zero rank of the rest.
The standard relative error is ``1.04 / sqrt(m)`` (~1.6% at the
default ``precision=12`` — 4 KiB of registers for cardinalities the
telescope never exceeds).  The small-range linear-counting correction
is applied below ``2.5 * m``; the 32-bit large-range correction is
unnecessary because ranks come from a 64-bit hash.

:meth:`~HyperLogLog.estimate` is O(1): :meth:`~HyperLogLog.add` keeps
the harmonic sum ``Σ 2**-r`` as the exact integer ``Σ 2**(64 - r)``
and the zero-register count up to date whenever a register rises, so
no call walks the registers (only construction and unpickling do).
Python's int/int division is correctly rounded, so the estimate equals
the float walk ``sum(2.0 ** -r for r in registers)`` whenever that walk
is exact — every register at most ``53 - precision`` (41 at the
default precision; a rank above 41 has probability ``2**-40`` per key).

A ``bytearray`` register file keeps instances picklable and exactly
``m`` bytes big regardless of how many keys were added.
"""

from __future__ import annotations

import math
import sys

from repro.stream.sketch.hashing import mix64
from repro.util.rng import derive_seed


def _alpha(m: int) -> float:
    if m >= 128:
        return 0.7213 / (1.0 + 1.079 / m)
    if m == 64:
        return 0.709
    if m == 32:
        return 0.697
    return 0.673  # m == 16, the minimum precision


class HyperLogLog:
    """Seeded HLL cardinality estimator over integer keys."""

    _PICKLED = ("precision", "seed", "updates", "_salt", "_registers")
    __slots__ = _PICKLED + ("_sum", "_zeros")

    def __init__(self, precision: int = 12, seed: int = 0) -> None:
        if not 4 <= precision <= 18:
            raise ValueError("HLL precision must be in [4, 18]")
        self.precision = precision
        self.seed = seed
        self.updates = 0
        self._salt = derive_seed(seed, "hll")
        self._registers = bytearray(1 << precision)
        self._rebuild()

    def _rebuild(self) -> None:
        """Derive ``_sum`` (``Σ 2**(64 - r)``) and ``_zeros`` from the
        registers: the one register walk, never pickled."""
        registers = self._registers
        self._sum = sum(1 << (64 - value) for value in registers)
        self._zeros = registers.count(0)

    def add(self, key: int, count: int = 1) -> None:
        """Observe ``key``, ``count`` times over (registers are idempotent)."""
        precision = self.precision
        hashed = mix64(key ^ self._salt)
        index = hashed >> (64 - precision)
        tail_bits = 64 - precision
        tail = hashed & ((1 << tail_bits) - 1)
        rank = tail_bits - tail.bit_length() + 1
        old = self._registers[index]
        if rank > old:
            self._registers[index] = rank
            self._sum -= (1 << (64 - old)) - (1 << (64 - rank))
            if not old:
                self._zeros -= 1
        self.updates += count

    def estimate(self) -> float:
        m = len(self._registers)
        raw = _alpha(m) * m * m / (self._sum / 2**64)
        zeros = self._zeros if raw <= 2.5 * m else 0
        return m * math.log(m / zeros) if zeros else raw

    def memory_bytes(self) -> int:
        """Bytes held by the register file — constant in key count."""
        return sys.getsizeof(self._registers)

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self._PICKLED}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._rebuild()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HyperLogLog(precision={self.precision}, "
            f"estimate={self.estimate():.0f})"
        )

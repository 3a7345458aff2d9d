"""Seeded count-min sketch with conservative update.

The tally behind the sketch tier's per-source packet/byte counts:
``depth`` rows of ``width`` 64-bit cells, each row hashing through an
independently salted :func:`~repro.stream.sketch.hashing.mix64`.
Estimates never undercount (``estimate(key) >= true count``, always)
and overcount by at most ``epsilon * total`` per row with failure
probability ``delta`` — the classic Cormode–Muthukrishnan bounds with
``epsilon = e / width`` and ``delta = e ** -depth``.  Conservative
update (only raise the cells that *must* rise to keep the minimum
consistent) tightens the overcount substantially in practice without
weakening either guarantee.

Memory is ``depth * width * 8`` bytes regardless of how many distinct
keys pass through — the whole point of the sketch tier.

Plain attributes keep instances picklable.
"""

from __future__ import annotations

import sys
from array import array

from repro.stream.sketch.hashing import mix64
from repro.util.rng import derive_seed


class CountMinSketch:
    """Conservative-update count-min sketch over integer keys."""

    __slots__ = ("width", "depth", "seed", "total", "updates", "_salts", "_rows")

    def __init__(self, width: int = 2048, depth: int = 4, seed: int = 0) -> None:
        if width < 1:
            raise ValueError("count-min width must be >= 1")
        if depth < 1:
            raise ValueError("count-min depth must be >= 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        #: sum of all update increments (the N of the epsilon*N bound).
        self.total = 0
        #: updates applied, a folded run counted in full (telemetry only).
        self.updates = 0
        self._salts = tuple(
            derive_seed(seed, f"cms-row-{row}") for row in range(depth)
        )
        self._rows = [array("Q", bytes(8 * width)) for _ in range(depth)]

    # -- updates -----------------------------------------------------------

    def cells(self, key: int) -> list:
        """``key``'s ``(row, index)`` per hash row: hash once, update often."""
        width = self.width
        return [
            (row, mix64(key ^ salt) % width)
            for row, salt in zip(self._rows, self._salts)
        ]

    def update_cells(self, cells: list, count: int = 1, updates: int = 1) -> int:
        """Conservative update of one key's :meth:`cells` by ``count``,
        standing for ``updates`` back-to-back per-packet updates (their
        increments summed: with no other key interleaved the cells end
        up identical); returns the new estimate."""
        if count < 1:
            raise ValueError("count-min increments must be positive")
        raised = min(row[index] for row, index in cells) + count
        for row, index in cells:
            if row[index] < raised:
                row[index] = raised
        self.total += count
        self.updates += updates
        return raised

    def update(self, key: int, count: int = 1) -> int:
        """Add ``count`` to ``key``; returns the new estimate."""
        return self.update_cells(self.cells(key), count)

    def estimate(self, key: int) -> int:
        """The (over-)estimate of ``key``'s total count."""
        return min(row[index] for row, index in self.cells(key))

    # -- bounds and sizing -------------------------------------------------

    def memory_bytes(self) -> int:
        """Actual bytes held by the tally rows — constant in key count."""
        return sum(sys.getsizeof(row) for row in self._rows)

    # -- pickling (arrays carry their typecode, but keep the protocol
    # explicit so __slots__ classes round-trip on every pickle level) ------

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountMinSketch(width={self.width}, depth={self.depth}, "
            f"total={self.total})"
        )

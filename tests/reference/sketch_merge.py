"""Sketch composition: the merges a split sketch-mode monitor would need.

Count-min rows add, HLL registers max, space-saving summaries
union-and-truncate, and :class:`~repro.stream.sketch.tier.SketchTier`
composes the three under source-IP sharding.  No command, example or
bench ever merged a sketch, so the methods left ``repro.stream.sketch``;
their law tests (``tests/test_sketch.py``, ``tests/test_stream_sketch.py``)
keep them honest here until a command merges sketches, or go with them.
Bodies are the methods', unchanged but for ``a.merge(b)`` → ``merge(a, b)``.
"""

from functools import singledispatch

from repro.stream.sketch.countmin import CountMinSketch
from repro.stream.sketch.hll import HyperLogLog
from repro.stream.sketch.spacesaving import SpaceSaving
from repro.stream.sketch.tier import VECTORS, SketchTier


@singledispatch
def merge(self, other) -> None:
    """Fold ``other`` into ``self`` (same sizing and seed)."""
    raise TypeError(f"no merge for {type(self).__name__}")


@merge.register(CountMinSketch)
def merge_countmin(self, other: CountMinSketch) -> None:
    """Element-wise add ``other`` into self (same geometry + seed)."""
    if (self.width, self.depth, self.seed) != (
        other.width,
        other.depth,
        other.seed,
    ):
        raise ValueError(
            "count-min merge needs identical width/depth/seed: "
            f"{(self.width, self.depth, self.seed)} vs "
            f"{(other.width, other.depth, other.seed)}"
        )
    for mine, theirs in zip(self._rows, other._rows):
        for index, value in enumerate(theirs):
            if value:
                mine[index] += value
    self.total += other.total
    self.updates += other.updates


@merge.register(HyperLogLog)
def merge_hll(self, other: HyperLogLog) -> None:
    """Register-wise max of ``other`` into self (same p + seed)."""
    if (self.precision, self.seed) != (other.precision, other.seed):
        raise ValueError(
            "HLL merge needs identical precision/seed: "
            f"{(self.precision, self.seed)} vs "
            f"{(other.precision, other.seed)}"
        )
    mine = self._registers
    for index, value in enumerate(other._registers):
        if value > mine[index]:
            mine[index] = value
    self._rebuild()
    self.updates += other.updates


@merge.register(SpaceSaving)
def merge_spacesaving(self, other: SpaceSaving) -> None:
    """Combine ``other`` into self (equal capacities required)."""
    if self.capacity != other.capacity:
        raise ValueError(
            "space-saving merge needs equal capacities: "
            f"{self.capacity} vs {other.capacity}"
        )
    combined = {
        key: list(entry) for key, entry in self._entries.items()
    }
    for key, entry in other._entries.items():
        mine = combined.get(key)
        if mine is None:
            combined[key] = list(entry)
        else:
            mine[0] += entry[0]
            mine[1] += entry[1]
    if len(combined) > self.capacity:
        ranked = sorted(
            combined.items(), key=lambda item: (-item[1][0], item[0])
        )
        combined = dict(ranked[: self.capacity])
        self.evictions += len(ranked) - self.capacity
    self._entries = combined
    self.total += other.total
    self.evictions += other.evictions


def _merge_tallies(self: SketchTier, other: SketchTier) -> None:
    """What both merges share — everything but the live episodes:
    count-min rows add, HLL registers max, space-saving summaries
    union, hourly buckets add."""
    if (self.width, self.depth, self.capacity, self.precision, self.seed) != (
        other.width,
        other.depth,
        other.capacity,
        other.precision,
        other.seed,
    ):
        raise ValueError("sketch tier merge needs identical sizing + seed")
    merge(self.packet_counts, other.packet_counts)
    merge(self.byte_counts, other.byte_counts)
    merge(self.sources, other.sources)
    merge(self.victims, other.victims)
    for vector in VECTORS:
        merge(self.heavy[vector], other.heavy[vector])
    for mine, theirs in (
        (self.hourly_requests, other.hourly_requests),
        (self.hourly_responses, other.hourly_responses),
    ):
        for hour, count in theirs.items():
            mine[hour] = mine.get(hour, 0) + count


@merge.register(SketchTier)
def merge_tier(self, other: SketchTier) -> None:
    """Fold a shard's tier into this one.

    Valid under the parallel pipeline's source-IP sharding: key
    sets are disjoint, so the tallies merge exactly (space-saving
    until capacity) and live episodes transfer without collisions.
    """
    _merge_tallies(self, other)
    for vector in VECTORS:
        mine = self._episodes[vector]
        theirs = other._episodes[vector]
        overlap = mine.keys() & theirs.keys()
        if overlap:
            raise ValueError(
                f"sketch tier merge with overlapping {vector} episode "
                f"sources: {sorted(overlap)[:3]}"
            )
        mine.update(theirs)

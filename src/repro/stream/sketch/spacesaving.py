"""Space-saving top-k heavy hitters (Metwally, Agrawal, El Abbadi).

At most ``capacity`` keys are monitored.  A hit on an unmonitored key
when the table is full displaces the minimum-count entry: the new key
inherits the displaced count as both its count and its error term, so
``count - error`` (the :meth:`lower_bound`) never exceeds the key's
true count while ``count`` never falls below it.  The classic
guarantees follow: ``min_count <= total / capacity``, every key whose
true count exceeds ``total / capacity`` is monitored, and a key with
``lower_bound > t`` *provably* has true count above ``t`` — which is
exactly what the sketch tier needs to fire Moore-threshold flood
alerts without false positives from sketch error.

Eviction breaks count ties on the smaller key, so runs are
deterministic regardless of dict iteration history.  Plain-dict
state keeps instances picklable.
"""

from __future__ import annotations

import sys


class SpaceSaving:
    """Deterministic space-saving summary over integer keys."""

    __slots__ = ("capacity", "total", "evictions", "_entries")

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("space-saving capacity must be >= 1")
        self.capacity = capacity
        #: sum of all update increments seen (the N of the N/k bound).
        self.total = 0
        #: monitored keys displaced so far.
        self.evictions = 0
        #: key -> [count, error]; insertion-ordered like any dict.
        self._entries: dict = {}

    # -- updates -----------------------------------------------------------

    def update(self, key: int, count: int = 1):
        """Count a hit; returns ``(count, error, displaced_key)``.

        ``displaced_key`` is the key evicted to make room (or ``None``)
        so callers keeping per-key side state (the sketch tier's flood
        episodes) can drop theirs in lockstep.
        """
        if count < 1:
            raise ValueError("space-saving increments must be positive")
        self.total += count
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            entry[0] += count
            return entry[0], entry[1], None
        if len(entries) < self.capacity:
            entries[key] = [count, 0]
            return count, 0, None
        displaced = min(entries.items(), key=lambda item: (item[1][0], item[0]))
        floor = displaced[1][0]
        del entries[displaced[0]]
        entries[key] = [floor + count, floor]
        self.evictions += 1
        return floor + count, floor, displaced[0]

    # -- queries -----------------------------------------------------------

    def estimate(self, key: int):
        """``(count, error)`` for a monitored key, else ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        return entry[0], entry[1]

    def lower_bound(self, key: int) -> int:
        """Guaranteed-at-least true count (0 for unmonitored keys)."""
        entry = self._entries.get(key)
        if entry is None:
            return 0
        return entry[0] - entry[1]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def items(self):
        """``(key, count, error)`` for every monitored key."""
        return [
            (key, entry[0], entry[1]) for key, entry in self._entries.items()
        ]

    def top(self, n: int):
        """The ``n`` heaviest monitored keys, (count desc, key asc)."""
        ranked = sorted(
            self._entries.items(), key=lambda item: (-item[1][0], item[0])
        )
        return [(key, entry[0], entry[1]) for key, entry in ranked[:n]]

    #: amortized dict-slot cost per entry; the live allocation wobbles
    #: with CPython resize history under eviction churn, so the report
    #: uses a fixed per-slot figure to stay deterministic.
    _DICT_SLOT_BYTES = 72

    def memory_bytes(self) -> int:
        """Deterministic resident-size ceiling: a full table of
        ``capacity`` ``[count, error]`` cells plus amortized dict
        slots — a function of the sizing knob alone, never of how many
        keys churned through."""
        per_entry = sys.getsizeof([0, 0]) + 2 * 28  # list + two boxed ints
        return sys.getsizeof({}) + self.capacity * (
            per_entry + self._DICT_SLOT_BYTES
        )

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceSaving(capacity={self.capacity}, monitored={len(self)}, "
            f"total={self.total})"
        )

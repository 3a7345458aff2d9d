"""Deterministic random sources.

Every stochastic component in the reproduction (scanner schedules,
attack arrivals, spoofed address choices, server jitter) draws from a
:class:`SeededRng`.  Components never share a generator: each derives a
child seed from its parent seed plus a label, so adding a new traffic
source does not perturb the random stream of existing sources.  This is
what makes reports reproducible across runs and machines.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a stable 64-bit child seed from ``parent_seed`` and ``label``."""
    digest = hashlib.sha256(f"{parent_seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng:
    """A labelled, splittable wrapper around :class:`random.Random`.

    >>> rng = SeededRng(7)
    >>> child = rng.child("scanner:tum")
    >>> child2 = SeededRng(7).child("scanner:tum")
    >>> child.randint(0, 10**9) == child2.randint(0, 10**9)
    True
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = seed
        self.label = label
        self._split_labels: set[str] = set()
        rng = self._random = random.Random(seed)
        # Per-draw delegates are bound once instead of defined as
        # wrapper methods: the generators draw tens of thousands of
        # times per simulated hour and the extra call frame is pure
        # overhead.  The draws themselves are unchanged, so streams
        # stay identical.
        self.random = rng.random
        self.randint = rng.randint
        self.getrandbits = rng.getrandbits
        self.uniform = rng.uniform
        self.expovariate = rng.expovariate
        self.lognormvariate = rng.lognormvariate
        self.gauss = rng.gauss
        self.choice = rng.choice
        self.sample = rng.sample
        self.shuffle = rng.shuffle

    def child(self, label: str) -> "SeededRng":
        """Return an independent generator derived from this one's seed."""
        return SeededRng(derive_seed(self.seed, label), label)

    def split(self, label: str) -> "SeededRng":
        """Split off an independent child stream, refusing label reuse.

        The derivation is identical to :meth:`child` — seed-based, so the
        child's stream depends only on ``(parent seed, label)``, never on
        how many draws the parent (or any sibling) has made.  The extra
        contract over ``child`` is that splitting the *same* label twice
        from one parent raises, which catches the one way two components
        can accidentally end up sharing a stream.  Partitioned runs
        (``Scenario.parts``) lean on this: every worker re-splits the
        same labels from the same scenario seed and provably gets the
        same streams.
        """
        if label in self._split_labels:
            raise ValueError(
                f"label {label!r} already split from {self.label!r}; "
                "reusing it would alias two random streams"
            )
        self._split_labels.add(label)
        return self.child(label)

    # -- remaining delegating helpers --------------------------------------

    def randbytes(self, n: int) -> bytes:
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def weighted_index(self, weights: Iterable[float]) -> int:
        """Pick an index proportionally to ``weights``."""
        weights = list(weights)
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        target = self._random.random() * total
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if target < acc:
                return index
        return len(weights) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self.seed}, label={self.label!r})"

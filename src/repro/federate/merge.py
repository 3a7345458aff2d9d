"""Distributed state merge for destination-partitioned telescopes.

Federated vantages tile the telescope prefix by *destination*, so —
unlike the source-sharded ``--workers`` path — the same source shows
up at several vantages and the sessionizers' disjoint-source merge
raises.  This module provides the overlap-aware alternative:

- :func:`tile_prefixes` splits the telescope net into K tiles (K need
  not be a power of two — the largest tile is halved repeatedly, so
  K=3 over a /9 yields one /10 and two /11s);
- :func:`merge_federated_states` rebuilds the exact single-telescope
  :class:`~repro.core.pipeline.PartialState` from the per-vantage
  states: additive counters ride
  :meth:`~repro.core.pipeline.PartialState.merge_counts`, session
  fragments are rejoined by
  :func:`~repro.core.sessions.chain_merge_sessions` (exactness proof
  in its docstring), and the timeout sweeps join per-source runs by
  the same rule in :meth:`~repro.core.sessions.TimeoutSweep.merge`,
  the one merge ``--workers`` uses too.

Bit-exactness against the serial pipeline is pinned by
``tests/test_federation_equivalence.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.pipeline import AnalysisConfig, PartialState
from repro.core.sessions import chain_merge_sessions
from repro.net.addresses import IPv4Network


def tile_prefixes(base, count: int) -> list:
    """Split ``base`` into ``count`` tiles covering it exactly.

    Repeatedly halves the largest (shortest-prefix) tile, breaking
    ties toward the lowest network address, then returns the tiles in
    address order.  Powers of two give equal tiles; other counts give
    the flattest possible split (K=3 → ``[/10, /11, /11]`` of a /9).
    """
    if isinstance(base, str):
        base = IPv4Network.from_cidr(base)
    if count < 1:
        raise ValueError("need at least one tile")
    if count > 2 ** (32 - base.prefix_len):
        raise ValueError(f"cannot split {base} into {count} tiles")
    tiles = [base]
    while len(tiles) < count:
        widest = min(tiles, key=lambda net: (net.prefix_len, net.network))
        tiles.remove(widest)
        tiles.extend(widest.subnets(widest.prefix_len + 1))
    tiles.sort(key=lambda net: net.network)
    return tiles


def _merge_sessionizers(
    merged: PartialState, states: Sequence[PartialState], timeout: float
) -> None:
    for packet_class, target in merged.sessionizers.items():
        fragments: list = []
        seen: set = set()
        for state in states:
            source = state.sessionizers.get(packet_class)
            if source is None:
                continue
            if source.timeout != timeout:
                raise ValueError(
                    "cannot merge vantage sessionizers with different timeouts"
                )
            fragments.extend(source.closed)
            fragments.extend(source.open_sessions())
            seen |= source._seen_sources
        target.closed = chain_merge_sessions(fragments, timeout)
        target._seen_sources = seen
        target.source_count = len(seen)


def merge_federated_states(
    states: Iterable[PartialState], config: AnalysisConfig
) -> PartialState:
    """The global state of K destination-partitioned vantage states.

    Any :class:`~repro.core.pipeline.PartialState` merges; the inputs
    should already be closed — open sessions are treated as fragments,
    so an unflushed state still merges, but the bit-exactness pin
    assumes end-of-window flushes.  The inputs are not mutated.
    """
    states = list(states)
    if not states:
        raise ValueError("nothing to merge: no vantage states")
    merged = PartialState.initial(config)
    for state in states:
        merged.merge_counts(state)
        merged.sweep.merge(state.sweep)
    _merge_sessionizers(merged, states, config.session_timeout)
    return merged

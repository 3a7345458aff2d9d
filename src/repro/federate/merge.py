"""Destination tiles for federated telescopes, and the local vantages
that capture them.

:func:`tile_prefixes` splits the telescope net into K tiles (K need not
be a power of two — the largest tile is halved repeatedly, so K=3 over
a /9 yields one /10 and two /11s).  Each vantage captures one tile, so
the same source shows up at several vantages; the vantage states are a
partition of the single-telescope capture into sub-sequences, which
:func:`repro.core.pipeline.merge_states` — the one merge ``--workers``
uses too — rejoins exactly.  Bit-exactness against the serial pipeline
is pinned by ``tests/test_federation_equivalence.py``.

:func:`run_vantages` runs the K vantages of a local federation as K
``--workers`` parts (:func:`repro.core.parallel.run_pool`), one tile
each, and hands each part's closed state and metrics snapshot back in
memory.
"""

from __future__ import annotations

from functools import partial

from repro.core.parallel import run_pool
from repro.net.addresses import IPv4Network
from repro.telescope.workload import part_batches


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


def run_vantages(scenario, config, count: int) -> list:
    """Capture ``count`` tiles of ``scenario``'s telescope prefix on
    ``count`` cores.

    A tile's feed is :func:`~repro.telescope.workload.part_batches` with
    every generation unit on the tile's prefix — the ``lane_batches`` of
    a retargeted scenario, rebuilt in the worker.  Each worker starts
    from an empty metrics registry, so a vantage's snapshot counts that
    tile's packets only.  Returns ``(name, tile, state, snapshot)`` per
    vantage, in tile order: what :meth:`Aggregator.federate
    <repro.federate.aggregate.Aggregator.federate>` takes.
    """
    tiles = tile_prefixes(scenario.telescope.prefix, count)
    parts = run_pool(
        [partial(part_batches, scenario.config, str(tile), 0, 1) for tile in tiles],
        config,
    )
    return [
        (f"vantage-{index}", tile, state, snapshot)
        for index, (tile, (state, snapshot)) in enumerate(zip(tiles, parts))
    ]

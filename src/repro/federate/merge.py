"""Destination tiles for federated telescopes.

:func:`tile_prefixes` splits the telescope net into K tiles (K need not
be a power of two — the largest tile is halved repeatedly, so K=3 over
a /9 yields one /10 and two /11s).  Each vantage captures one tile, so
the same source shows up at several vantages; the vantage states are a
partition of the single-telescope capture into sub-sequences, which
:func:`repro.core.pipeline.merge_states` — the one merge ``--workers``
uses too — rejoins exactly.  Bit-exactness against the serial pipeline
is pinned by ``tests/test_federation_equivalence.py``.
"""

from __future__ import annotations

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

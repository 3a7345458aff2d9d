"""Chunked iteration over packet streams.

The pipeline's per-packet phase dispatches work in batches — one lane
call per batch instead of per packet — and every feed (packets, lane
records, pcap reads) is cut into them with :func:`batched`, by default
into :data:`BATCH_SIZE` items.  :data:`MEMO_ENTRIES` is the other
size every hot path shares: the bound of each payload, template and
crypto memo.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

#: packets (or lane records) per dispatch batch, wherever a caller does
#: not choose: every feed's default and ``watch --batch-size``'s.
BATCH_SIZE = 512

#: entries per memo, wherever a payload, wire template or key schedule
#: is memoized (``functools.lru_cache(maxsize=MEMO_ENTRIES)``): scan
#: templates recur and are kept, backscatter never recurs and falls out.
MEMO_ENTRIES = 256


def batched(iterable: Iterable, size: int) -> Iterator[list]:
    """Yield consecutive lists of up to ``size`` items, preserving order."""
    if size <= 0:
        raise ValueError("batch size must be positive")
    iterator = iter(iterable)
    while True:
        batch = list(islice(iterator, size))
        if not batch:
            return
        yield batch

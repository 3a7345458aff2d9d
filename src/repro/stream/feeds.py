"""Packet feeds for the online monitor.

Two sources drive :class:`~repro.stream.analyzer.StreamAnalyzer`:

- :func:`follow_pcap` — tail-follow a (possibly still growing) pcap
  file using the reader's lenient tail mode: a truncated trailing
  record means "not yet written", so the feed polls until the file
  stops growing for ``idle_timeout`` seconds (``0`` reads a complete
  capture once and stops; ``None`` follows forever).
- :meth:`repro.telescope.workload.Scenario.live_batches` — the
  telescope simulator driven as a live generator, optionally paced
  against the wall clock.

Both yield non-empty, time-ordered packet batches.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro import obs
from repro.net.pcap import PcapReader
from repro.util.batching import BATCH_SIZE

_M_CORRUPT = obs.counter(
    "repro_pcap_corrupt_records_total",
    "corrupt pcap records skipped by lenient readers (bad record "
    "header, unparseable body, or truncated final record)",
)


def note_corrupt_records(count: int) -> None:
    """Publish corrupt-record skips to the registry (used by lenient
    pcap consumers outside this module, e.g. the analyze CLI)."""
    if count and obs.enabled():
        _M_CORRUPT.inc(count)


def follow_pcap(
    path: Union[str, Path],
    *,
    batch_size: int = BATCH_SIZE,
    poll_interval: float = 0.2,
    idle_timeout: Optional[float] = 0.0,
    sleep=time.sleep,
    lenient: bool = False,
    on_corrupt: Optional[Callable[[int], None]] = None,
) -> Iterator[list]:
    """Yield packet batches from a pcap file as it is written.

    Partial batches are flushed whenever the file is momentarily
    exhausted so alerts are never starved behind a batch boundary.

    ``lenient=True`` survives interior corruption (see
    :class:`~repro.net.pcap.PcapReader`): corrupt records are skipped
    and counted, and each newly observed skip is reported as a delta to
    ``on_corrupt`` (wire it to
    :meth:`~repro.stream.analyzer.StreamAnalyzer.record_corrupt_records`)
    plus the ``repro_pcap_corrupt_records_total`` counter.
    """
    if batch_size <= 0:
        raise ValueError("batch size must be positive")
    if poll_interval <= 0:
        raise ValueError("poll interval must be positive")
    with open(path, "rb") as stream:
        reader = PcapReader(stream, tail=True, lenient=lenient)
        pending: list = []
        idle = 0.0
        seen_corrupt = 0

        def flush_corrupt() -> None:
            nonlocal seen_corrupt
            delta = reader.corrupt_records - seen_corrupt
            if delta:
                seen_corrupt = reader.corrupt_records
                note_corrupt_records(delta)
                if on_corrupt is not None:
                    on_corrupt(delta)

        while True:
            got = 0
            for packet in reader:
                pending.append(packet)
                got += 1
                if len(pending) >= batch_size:
                    yield pending
                    pending = []
            if lenient:
                flush_corrupt()
            if got:
                idle = 0.0
                if pending:
                    yield pending
                    pending = []
            else:
                if idle_timeout is not None and idle >= idle_timeout:
                    break
                sleep(poll_interval)
                idle += poll_interval
        if pending:
            yield pending

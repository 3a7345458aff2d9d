"""Partitioned parallel analysis: split the input, run serially, merge once.

:func:`~repro.core.pipeline.merge_states` rebuilds the serial state
from the states of *any* partition of the time-ordered stream into
sub-sequences.  So a parallel run needs no transport: each worker
process draws one part of the stream itself — a zero-argument *feed*
of lane-record batches, ``Scenario.parts`` hands out one per group of
generation units — runs the serial fused loop over it
(:func:`~repro.core.pipeline.run_record_batches`) and returns the
closed :class:`~repro.core.pipeline.PartialState`.  The parent only
folds the states in part order and finalizes.  Nothing per packet
crosses a process boundary; each part's closed state does, once.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable

from repro import obs
from repro.core.pipeline import _M_MERGE, _M_PART_PACKETS, _M_PART_SECONDS, _M_WORKERS
from repro.core.pipeline import (
    AnalysisConfig,
    PartialState,
    merge_states,
    run_record_batches,
)

# Workers publish into their own (reset-after-fork) registry and ship one
# snapshot back with their state; the parent merges each snapshot exactly
# once, in part order, so parallel metric totals equal serial totals
# (tests/test_obs_parallel.py).  The families live in repro.core.pipeline.


def _run_part(index: int, feed: Callable, config: AnalysisConfig, metrics: bool):
    """One worker: the serial fused loop over ``feed()``, returning the
    closed state and this worker's own metrics (its registry is reset
    first — a forked child starts with a copy of the parent's)."""
    obs.REGISTRY.reset()
    obs.set_enabled(metrics)
    start = time.perf_counter()
    state = run_record_batches(feed(), config)
    if not metrics:
        return state, None
    _M_PART_SECONDS.set(time.perf_counter() - start, worker=str(index))
    _M_PART_PACKETS.inc(state.total_packets, worker=str(index))
    return state, obs.REGISTRY.snapshot(run_collectors=False)


def run_parts(feeds: Iterable[Callable], config: AnalysisConfig) -> PartialState:
    """Run each picklable zero-argument ``feed`` (an iterable of lane
    record batches) through the fused loop in a worker process of its
    own, and fold the parts' closed states into one as they are handed
    over, in part order, each part's metrics snapshot merged once.

    A feed that raises fails the run with an error naming its part,
    chained to the worker's traceback; a worker that dies fails it with
    ``BrokenProcessPool``.  Either way the pool is shut down and no
    worker outlives the call.
    """
    feeds = list(feeds)
    # fork where the platform has it: a child starts without re-importing
    # the package, and the pool forks every worker before it starts its
    # own manager thread
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(len(feeds), mp_context=context) as pool:
        futures = [
            pool.submit(_run_part, index, feed, config, obs.enabled())
            for index, feed in enumerate(feeds)
        ]
        waited = 0.0

        def part_state(index: int) -> PartialState:
            # a future holds its result: drop it, so the state lives
            # only until it is folded
            nonlocal waited
            future, futures[index] = futures[index], None
            start = time.perf_counter()
            try:
                state, snapshot = future.result()
            except BrokenProcessPool:
                raise
            except Exception as exc:
                raise RuntimeError(f"part {index} of {len(feeds)} failed: {exc!r}") from exc
            waited += time.perf_counter() - start
            if snapshot is not None:
                obs.REGISTRY.merge_snapshot(snapshot)
            return state

        _M_WORKERS.set(len(feeds))
        start = time.perf_counter()
        merged = merge_states((part_state(index) for index in range(len(feeds))), config)
        # the fold's own seconds, not the wait for the later parts
        _M_MERGE.observe(time.perf_counter() - start - waited)
    return merged

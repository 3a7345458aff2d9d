"""Tier-1 asserts behaviour, never speed.

A timing inequality passes or fails with the host's core count and
load, not with the code (ROADMAP: the sharded-run speedup test was red
on every multi-core box and skipped on the 1-core CI container).
Speed lives in ``benchmarks/``; this guard keeps clock reads out of
``tests/`` so the next such assertion cannot be written.
"""

import pathlib
import re

GUARD = pathlib.Path(__file__).resolve()

CLOCK = re.compile(r"perf_counter|time\.time|monotonic")


def test_no_test_reads_a_clock():
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(GUARD.parent.glob("*.py"))
        if path != GUARD
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if CLOCK.search(line)
    ]
    assert not offenders, "wall-clock reads under tests/:\n" + "\n".join(offenders)

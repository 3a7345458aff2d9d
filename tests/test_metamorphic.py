"""Metamorphic relations: how the report must change when the input
changes in a known way.  No second implementation is needed — the
relation itself is the oracle.

Research-sample invariance: the simulator thins the research scanners'
sweeps by ``--research-sample`` and the analysis weights them back
(``research_weight``), so the sample may move only the lines that count
captured research packets.  Every other line — the research share, the
sessions, the attacks — is the same at any sample.
"""

import io

import pytest

from repro.cli import main

SEEDS = (20210401, 7, 11)
SAMPLES = ("0.0005", "0.002")
#: the report lines that count the captured research packets
RESEARCH_VOLUME = ("packets captured", "QUIC packets (port+dissector)")


def report_lines(seed: int, sample: str) -> list:
    out = io.StringIO()
    argv = ["report", "--hours", "3", "--seed", str(seed), "--research-sample", sample]
    assert main(argv, stream=out) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("seed", SEEDS)
def test_research_sample_moves_only_the_research_volume_lines(seed):
    sparse, dense = (report_lines(seed, sample) for sample in SAMPLES)
    assert len(sparse) == len(dense)
    moved = [a for a, b in zip(sparse, dense) if a != b]
    assert len(moved) == len(RESEARCH_VOLUME), moved
    assert all(line.startswith(label) for line, label in zip(moved, RESEARCH_VOLUME)), moved

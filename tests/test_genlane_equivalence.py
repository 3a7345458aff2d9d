"""Gen-lane equivalence: the generation fast lane is invisible too.

The acceptance contract of the columnar generation lane
(:mod:`repro.telescope.genlane`), mirroring
``tests/test_lane_equivalence.py`` for the analysis lane:

- the wire bytes stamped from mutable templates
  (``write_records(wire_items(scenario.records()))``) produce a pcap
  byte-identical to the rich per-packet object path
  (``pcap_bytes(rich_packets(scenario))``: ``tests/oracle.py`` packs
  the packets ``tests/reference/generator.py`` builds);
- the record stream does not depend on the ``workers`` argument
  ``records()`` still accepts (generation runs in one process; parallel
  runs partition the units, ``Scenario.parts``);
- the stamper's template memos are bounded lru caches that keep what
  hits, and bytes stamped through them equal an unbounded memo's;
- the fused generate→analyze path
  (``process_record_batches(scenario.lane_batches())``) produces a
  :class:`PipelineResult` identical to the rich reference walker
  (``tests/oracle.py``) over the rich packet stream.
"""

import functools

import pytest

from repro.net.pcap import write_records
from repro.telescope import Scenario, ScenarioConfig, genlane
from repro.telescope.genlane import WireStamper, wire_items
from repro.util.batching import MEMO_ENTRIES
from repro.util.timeutil import HOUR
from tests.oracle import assert_identical, make_pipeline, pcap_bytes, rich_result
from tests.reference.generator import rich_packets

SCENARIO_KW = dict(seed=11, duration=HOUR, research_sample=1 / 2048)


def scenario():
    # a fresh Scenario per call: generation consumes its RNG streams
    return Scenario(ScenarioConfig(**SCENARIO_KW))


@pytest.fixture(scope="module")
def rich_pcap_bytes():
    data = pcap_bytes(rich_packets(scenario()))
    assert len(data) > 24
    return data


def test_gen_lane_pcap_bytes_identical_to_rich(tmp_path, rich_pcap_bytes):
    """Serial fast generation writes the exact pcap the object path does."""
    path = tmp_path / "fast.pcap"
    s = scenario()
    write_records(path, wire_items(s.records()))
    assert path.read_bytes() == rich_pcap_bytes


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_parallel_generation_bit_identical(tmp_path, rich_pcap_bytes, workers):
    """``records(workers=N)`` writes the exact serial bytes."""
    path = tmp_path / f"workers{workers}.pcap"
    s = scenario()
    write_records(path, wire_items(s.records(workers=workers)))
    assert path.read_bytes() == rich_pcap_bytes


def test_parallel_record_stream_identical():
    """Not just the bytes: the flat gen records themselves match
    whatever ``workers`` is passed."""
    serial = list(scenario().records())
    assert serial
    parallel = list(scenario().records(workers=2))
    assert parallel == serial


def test_stamper_memos_keep_the_hits(tmp_path):
    """The bound binds, and keeps what hits: a 2 h capture holds far
    more distinct UDP payloads than the memo keeps (backscatter never
    recurs), but the hits come from recurring scan probes, and an
    unbounded memo adds almost none.  Counts and bytes only, no clock."""
    bounded, unbounded = WireStamper(), WireStamper()
    unbounded._udp = functools.lru_cache(maxsize=None)(genlane._udp_template)
    captures = []
    for name, stamper in (("bounded", bounded), ("unbounded", unbounded)):
        records = Scenario(ScenarioConfig(duration=2 * HOUR, research_sample=1 / 64)).records()
        path = tmp_path / f"{name}.pcap"
        write_records(path, ((record[0], stamper.wire(record)) for record in records))
        captures.append(path.read_bytes())
    kept, possible = (stamper._udp.cache_info() for stamper in (bounded, unbounded))
    assert possible.currsize > 4 * MEMO_ENTRIES
    assert kept.currsize <= MEMO_ENTRIES
    assert bounded._icmp.cache_info().currsize <= MEMO_ENTRIES
    assert len(bounded) <= 2 * MEMO_ENTRIES + 1
    assert kept.hits >= 0.99 * possible.hits
    assert captures[0] == captures[1]


def test_fused_record_path_matches_rich_pipeline():
    """generate→analyze without packets or wire bytes: lane_batches into
    process_record_batches equals the full dissection pipeline."""
    s_rich = scenario()
    reference = rich_result(s_rich, rich_packets(s_rich))

    s_fused = scenario()
    pipeline = make_pipeline(s_fused)
    fused = pipeline.process_record_batches(s_fused.lane_batches())
    assert_identical(reference, fused, s_rich, "fused")

"""Unit tests for the ``repro.obs`` metrics core.

Everything but the last section runs against private ``Registry``
instances, never the process-wide ``REGISTRY``, so the suite cannot
leak state between tests (or into the instrumented modules); the
instrumented-path case at the end resets ``REGISTRY`` both ways.
"""

import json

import pytest

from repro import obs
from repro.core import AnalysisConfig
from repro.obs.export import (
    metrics_dict,
    render_json,
    render_prometheus,
    render_summary,
    write_metrics,
)
from repro.obs.metrics import Registry
from repro.obs.timers import span
from repro.stream import StreamAnalyzer, StreamConfig
from repro.telescope import Scenario, ScenarioConfig
from repro.util.batching import batched
from repro.util.timeutil import HOUR


@pytest.fixture
def reg():
    return Registry(enabled=True)


# --------------------------------------------------------------------------
# Counters / gauges / histograms
# --------------------------------------------------------------------------


def test_counter_inc_and_value(reg):
    c = reg.counter("repro_t_total", "help")
    assert c.value() == 0
    c.inc()
    c.inc(4)
    assert c.value() == 5


def test_counter_labels_are_independent(reg):
    c = reg.counter("repro_t_total", "help", labels=("klass",))
    c.inc(klass="a")
    c.inc(2, klass="b")
    assert c.value(klass="a") == 1
    assert c.value(klass="b") == 2
    assert c.value(klass="missing") == 0


def test_counter_rejects_wrong_labels(reg):
    c = reg.counter("repro_t_total", "help", labels=("klass",))
    with pytest.raises(ValueError):
        c.inc(wrong="x")
    with pytest.raises(ValueError):
        c.inc()  # label required


def test_gauge_set_inc_dec(reg):
    g = reg.gauge("repro_g", "help")
    g.set(10)
    g.inc(5)
    g.inc(-2)
    assert g.value() == 13


def test_histogram_buckets_sum_count(reg):
    h = reg.histogram("repro_h_seconds", "help", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count() == 3
    assert h.sum() == pytest.approx(55.5)


def test_disabled_registry_is_inert():
    reg = Registry(enabled=False)
    c = reg.counter("repro_t_total", "help")
    h = reg.histogram("repro_h_seconds", "help")
    c.inc(100)
    h.observe(1.0)
    assert c.value() == 0
    assert h.count() == 0


# --------------------------------------------------------------------------
# Registry semantics
# --------------------------------------------------------------------------


def test_get_or_create_returns_same_metric(reg):
    a = reg.counter("repro_t_total", "help")
    b = reg.counter("repro_t_total", "other help ignored")
    assert a is b


def test_type_conflict_raises(reg):
    reg.counter("repro_t_total", "help")
    with pytest.raises(ValueError):
        reg.gauge("repro_t_total", "help")


def test_label_conflict_raises(reg):
    reg.counter("repro_t_total", "help", labels=("a",))
    with pytest.raises(ValueError):
        reg.counter("repro_t_total", "help", labels=("b",))


def test_reset_zeroes_but_keeps_families(reg):
    c = reg.counter("repro_t_total", "help")
    c.inc(7)
    reg.reset()
    assert c.value() == 0
    assert [m.name for m in reg.families()] == ["repro_t_total"]


def test_collectors_run_at_snapshot_time(reg):
    c = reg.counter("repro_cache_hits_total", "help")
    pulls = []

    def collect():
        pulls.append(1)
        c.set_total(42)

    reg.add_collector(collect)
    reg.add_collector(collect)  # deduplicated
    snap = reg.snapshot()
    assert pulls == [1]
    assert snap["repro_cache_hits_total"][4][()] == 42
    reg.snapshot(run_collectors=False)
    assert pulls == [1]


# --------------------------------------------------------------------------
# Snapshot / merge (the multiprocessing contract)
# --------------------------------------------------------------------------


def test_snapshot_merge_counters_add(reg):
    c = reg.counter("repro_t_total", "help", labels=("k",))
    c.inc(3, k="x")
    child = Registry(enabled=True)
    cc = child.counter("repro_t_total", "help", labels=("k",))
    cc.inc(4, k="x")
    cc.inc(1, k="y")
    reg.merge_snapshot(child.snapshot())
    assert c.value(k="x") == 7
    assert c.value(k="y") == 1


def test_snapshot_merge_histograms_add_bucketwise(reg):
    h = reg.histogram("repro_h_seconds", "help", buckets=(1.0,))
    h.observe(0.5)
    child = Registry(enabled=True)
    ch = child.histogram("repro_h_seconds", "help", buckets=(1.0,))
    ch.observe(2.0)
    reg.merge_snapshot(child.snapshot())
    assert h.count() == 2
    assert h.sum() == pytest.approx(2.5)


def test_snapshot_merge_gauges_overwrite(reg):
    g = reg.gauge("repro_g", "help")
    g.set(1)
    child = Registry(enabled=True)
    child.gauge("repro_g", "help").set(9)
    reg.merge_snapshot(child.snapshot())
    assert g.value() == 9


def test_snapshot_merge_bucket_mismatch_raises(reg):
    reg.histogram("repro_h_seconds", "help", buckets=(1.0,))
    child = Registry(enabled=True)
    child.histogram("repro_h_seconds", "help", buckets=(2.0,))
    child.histogram("repro_h_seconds", "help", buckets=(2.0,)).observe(0.1)
    with pytest.raises(ValueError):
        reg.merge_snapshot(child.snapshot())


def test_snapshot_is_picklable(reg):
    import pickle

    reg.counter("repro_t_total", "help", labels=("k",)).inc(k="x")
    snap = reg.snapshot()
    assert pickle.loads(pickle.dumps(snap)) == snap


# --------------------------------------------------------------------------
# Timers
# --------------------------------------------------------------------------


def test_span_records_into_histogram(reg):
    h = reg.histogram("repro_h_seconds", "help", buckets=obs.TIME_BUCKETS)
    with span(h):
        pass
    assert h.count() == 1
    assert h.sum() >= 0.0


def test_span_disabled_is_null(reg):
    dis = Registry(enabled=False)
    h = dis.histogram("repro_h_seconds", "help")
    with span(h):
        pass
    assert h.count() == 0


# --------------------------------------------------------------------------
# Exposition
# --------------------------------------------------------------------------


def _populated():
    reg = Registry(enabled=True)
    reg.counter("repro_a_total", "a counter", labels=("k",)).inc(3, k='q"x')
    reg.gauge("repro_b", "a gauge").set(2.5)
    h = reg.histogram("repro_c_seconds", "a histogram", buckets=(1.0, 10.0))
    h.observe(0.5)
    h.observe(5.0)
    return reg


def test_prometheus_rendering():
    text = render_prometheus(_populated())
    assert "# HELP repro_a_total a counter\n" in text
    assert "# TYPE repro_a_total counter\n" in text
    assert 'repro_a_total{k="q\\"x"} 3\n' in text
    assert "repro_b 2.5\n" in text
    # cumulative buckets + sum/count
    assert 'repro_c_seconds_bucket{le="1"} 1\n' in text
    assert 'repro_c_seconds_bucket{le="10"} 2\n' in text
    assert 'repro_c_seconds_bucket{le="+Inf"} 2\n' in text
    assert "repro_c_seconds_sum 5.5\n" in text
    assert "repro_c_seconds_count 2\n" in text
    assert text.endswith("\n")


def test_json_rendering_round_trips():
    reg = _populated()
    data = json.loads(render_json(reg))
    by_name = {m["name"]: m for m in data["metrics"]}
    assert by_name["repro_b"]["samples"][0]["value"] == 2.5
    assert by_name["repro_a_total"]["type"] == "counter"
    assert by_name["repro_a_total"]["samples"][0]["labels"] == {"k": 'q"x'}
    hist = by_name["repro_c_seconds"]["samples"][0]
    # JSON buckets are raw per-bucket counts (the .prom side is cumulative)
    assert hist["count"] == 2 and sum(hist["buckets"].values()) == 2
    assert metrics_dict(reg)["version"] == data["version"]


def test_write_metrics_pair(tmp_path):
    reg = _populated()
    paths = write_metrics(str(tmp_path / "run.json"), registry=reg)
    prom, js = paths
    assert prom.endswith(".prom") and js.endswith(".json")
    assert "repro_a_total" in open(prom).read()
    json.loads(open(js).read())


def test_render_summary_from_registry_and_path(tmp_path):
    reg = _populated()
    text = render_summary(reg)
    assert "repro_a_total" in text and "repro_c_seconds" in text
    _, js = write_metrics(str(tmp_path / "m.json"), registry=reg)
    assert "repro_b" in render_summary(js)
    assert "no metrics" in render_summary(Registry(enabled=True))


# --------------------------------------------------------------------------
# Process-wide switches
# --------------------------------------------------------------------------


def test_enable_disable_roundtrip():
    before = obs.enabled()
    try:
        obs.enable()
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()
    finally:
        obs.set_enabled(before)


# --------------------------------------------------------------------------
# Instrumented paths: what a monitor run publishes
# --------------------------------------------------------------------------

#: published from the classifier's tallies, whatever the sink
CLASSIFIER_FAMILIES = (
    "repro_pipeline_packets_total",
    "repro_pipeline_batches_total",
    "repro_pipeline_classified_total",
    "repro_dissect_cache_hits_total",
    "repro_dissect_cache_misses_total",
    "repro_batchlane_fast_total",
    "repro_batchlane_fallback_total",
    "repro_malformed_packets_total",
)


def test_sketch_mode_publishes_the_classifier_families():
    """``watch --sketch --metrics-out`` used to read 0 for all of these:
    the tier's own walker tallied nothing and ``finish()`` folded
    nothing.  Same feed, same classifier, same numbers as bounded mode."""
    packets = list(Scenario(ScenarioConfig(seed=7, duration=HOUR / 2)).packets())
    was = obs.enabled()
    published = {}
    try:
        obs.enable()
        for mode in ("bounded", "sketch"):
            obs.REGISTRY.reset()
            analyzer = StreamAnalyzer(
                config=AnalysisConfig(), stream_config=StreamConfig(mode=mode)
            )
            for batch in batched(iter(packets), 512):
                analyzer.process_batch(batch)
            analyzer.finish()
            snapshot = obs.REGISTRY.snapshot(run_collectors=False)
            published[mode] = {
                name: snapshot[name][4] for name in CLASSIFIER_FAMILIES
            }
    finally:
        obs.REGISTRY.reset()
        obs.set_enabled(was)
    bounded = published["bounded"]
    assert bounded["repro_pipeline_packets_total"] == {(): len(packets)}
    assert sum(bounded["repro_pipeline_classified_total"].values()) == len(packets)
    assert bounded["repro_dissect_cache_hits_total"][()] > 0
    assert bounded["repro_malformed_packets_total"]
    assert published["sketch"] == bounded

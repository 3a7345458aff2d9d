"""The rich reference walker, driven from the test side.

``PartialState.consume`` + ``TrafficClassifier`` (per-packet
``ClassifiedPacket``/``Dissection`` objects into ``Sessionizer.add``)
is the implementation the fast lane is checked against.  Nothing under
``src/repro`` calls it — there is no flag that ships it — so the lane,
generation and matrix suites reach it through :func:`rich_result`, and
compare with :func:`assert_identical`.
"""

import dataclasses

from repro.core import QuicsandPipeline
from repro.core.classify import TrafficClassifier
from repro.core.pipeline import AnalysisConfig, PartialState
from repro.core.report import build_report
from repro.util.batching import batched

#: result fields holding helper objects without value equality;
#: everything they influence is covered by the compared fields, the
#: sweep comparison and the rendered report.
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


def make_pipeline(scenario, **config_kw):
    return QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(**config_kw),
    )


def run(scenario, packets, **config_kw):
    """Analyze ``packets`` the way users do: ``QuicsandPipeline.process``."""
    return make_pipeline(scenario, **config_kw).process(iter(packets))


def rich_result(scenario, packets, **config_kw):
    """Analyze ``packets`` through the reference walker."""
    pipeline = make_pipeline(scenario, **config_kw)
    config = pipeline.config
    state = PartialState.initial(config)
    classifier = TrafficClassifier(dissect_payloads=config.dissect_payloads)
    for batch in batched(iter(packets), config.batch_size):
        state.consume(batch, classifier)
    state.record_classifier(classifier)
    state.close()
    return pipeline.finalize_state(state)


def assert_identical(reference, other, scenario, label):
    for field in dataclasses.fields(reference):
        if field.name in _IDENTITY_FIELDS:
            continue
        assert getattr(reference, field.name) == getattr(
            other, field.name
        ), (label, field.name)
    assert reference.timeout_sweep.sweep(range(1, 61)) == other.timeout_sweep.sweep(
        range(1, 61)
    ), label
    weight = scenario.truth.research_weight
    assert build_report(reference, research_weight=weight) == build_report(
        other, research_weight=weight
    ), label

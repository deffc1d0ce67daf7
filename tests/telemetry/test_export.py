"""Tests for metrics/span export (repro.telemetry.export).

The headline contract is losslessness: a registry exported to
Prometheus text format (or JSONL) and parsed back must be
**bit-identical** under ``as_dict()`` -- including counter label
ordering, saturation state, integer-vs-float bucket bounds, and
histogram min/max.  A Hypothesis property test pins it over arbitrary
registries.
"""

from hypothesis import given, settings, strategies as st

from repro.telemetry.export import (
    parse_jsonl,
    parse_prometheus,
    registry_from_prometheus,
    to_jsonl,
    to_prometheus,
    write_metrics_export,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer


def sample_registry():
    registry = MetricsRegistry()
    registry.counter("campaign.shards_completed").add(7)
    registry.counter("evictions", limit=10).add(25)  # saturates
    registry.counter("zeta.last").add(1)
    registry.counter("alpha.first").add(2)
    histogram = registry.histogram("acts_per_interval", bounds=(1, 8, 64))
    for value in (0, 3, 3, 9, 100):
        histogram.record(value)
    registry.histogram("empty", bounds=(0.5, 2.5))
    registry.add_time("simulate", 1.25)
    registry.add_time("simulate", 0.75)
    registry.add_time("trace", 0.5)
    return registry


def sample_summary():
    spans = SpanTracer(id_seed="cfg")
    with spans.span("campaign", engine="fused"):
        for seed in (0, 1):
            with spans.span("shard", seed=seed):
                pass
    return spans.summary()


class TestPrometheusRoundTrip:
    def test_bit_identical_as_dict(self):
        registry = sample_registry()
        text = to_prometheus(registry)
        assert registry_from_prometheus(text).as_dict() == registry.as_dict()

    def test_span_paths_survive(self):
        text = to_prometheus(sample_registry(), sample_summary())
        parsed = parse_prometheus(text)
        assert parsed["span_paths"] == {
            "campaign": 1, "campaign/shard": 2,
        }

    def test_buckets_are_cumulative_with_inf(self):
        text = to_prometheus(sample_registry())
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_histogram_bucket")
            and 'name="acts_per_interval"' in line
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        assert 'le="+Inf"' in bucket_lines[-1]
        assert counts[-1] == 5

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter('tricky"name\\with\nstuff').add(3)
        back = registry_from_prometheus(to_prometheus(registry))
        assert back.as_dict() == registry.as_dict()

    def test_saturated_counter_state_survives(self):
        back = registry_from_prometheus(to_prometheus(sample_registry()))
        counter = back.counters["evictions"]
        assert counter.value == 10
        assert counter.limit == 10
        assert counter.saturated


class TestJsonlRoundTrip:
    def test_bit_identical_as_dict(self):
        registry = sample_registry()
        parsed = parse_jsonl(to_jsonl(registry))
        assert MetricsRegistry.from_dict(
            {k: parsed[k] for k in ("counters", "histograms", "timers")}
        ).as_dict() == registry.as_dict()

    def test_span_paths_match_prometheus(self):
        registry, summary = sample_registry(), sample_summary()
        assert parse_jsonl(to_jsonl(registry, summary))["span_paths"] == \
            parse_prometheus(to_prometheus(registry, summary))["span_paths"]


class TestWriteMetricsExport:
    def test_suffix_selects_format(self, tmp_path):
        registry = sample_registry()
        prom = write_metrics_export(tmp_path / "m.prom", registry)
        jsonl = write_metrics_export(tmp_path / "m.jsonl", registry)
        assert prom.read_text().startswith("# HELP")
        assert jsonl.read_text().startswith("{")
        assert registry_from_prometheus(prom.read_text()).as_dict() == \
            registry.as_dict()

    def test_creates_parent_directories(self, tmp_path):
        path = write_metrics_export(
            tmp_path / "nested" / "dir" / "m.prom", MetricsRegistry()
        )
        assert path.is_file()


# -- property test: arbitrary registries survive both round trips ------

metric_names = st.text(
    st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=20,
).filter(lambda s: s.strip())

counters = st.lists(
    st.tuples(metric_names, st.integers(0, 10**9),
              st.one_of(st.none(), st.integers(1, 10**9))),
    max_size=6, unique_by=lambda c: c[0],
)

bounds = st.lists(
    st.one_of(st.integers(1, 10**6),
              st.floats(0.001, 10**6, allow_nan=False)),
    min_size=1, max_size=5, unique=True,
).map(sorted)

histograms = st.lists(
    st.tuples(metric_names, bounds,
              st.lists(st.one_of(st.integers(0, 10**7),
                                 st.floats(0, 10**7, allow_nan=False)),
                       max_size=8)),
    max_size=4, unique_by=lambda h: h[0],
)

timers = st.lists(
    st.tuples(metric_names, st.floats(0, 10**4, allow_nan=False)),
    max_size=4, unique_by=lambda t: t[0],
)


def build_registry(counter_specs, histogram_specs, timer_specs):
    registry = MetricsRegistry()
    for name, value, limit in counter_specs:
        registry.counter(name, limit=limit).add(value)
    for name, histogram_bounds, observations in histogram_specs:
        histogram = registry.histogram(name, bounds=histogram_bounds)
        for value in observations:
            histogram.record(value)
    for name, seconds in timer_specs:
        registry.add_time(name, seconds)
    return registry


@settings(max_examples=60, deadline=None)
@given(counter_specs=counters, histogram_specs=histograms,
       timer_specs=timers)
def test_prometheus_round_trip_property(
    counter_specs, histogram_specs, timer_specs
):
    registry = build_registry(counter_specs, histogram_specs, timer_specs)
    back = registry_from_prometheus(to_prometheus(registry))
    assert back.as_dict() == registry.as_dict()


@settings(max_examples=60, deadline=None)
@given(counter_specs=counters, histogram_specs=histograms,
       timer_specs=timers)
def test_jsonl_round_trip_property(
    counter_specs, histogram_specs, timer_specs
):
    registry = build_registry(counter_specs, histogram_specs, timer_specs)
    parsed = parse_jsonl(to_jsonl(registry))
    back = MetricsRegistry.from_dict(
        {k: parsed[k] for k in ("counters", "histograms", "timers")}
    )
    assert back.as_dict() == registry.as_dict()

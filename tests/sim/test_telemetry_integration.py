"""Telemetry threaded through the engines: transparency and content.

Two invariants:

* **transparency** -- enabling a tracer + metrics registry must leave
  the ``SimResult`` field-for-field unchanged on *both* engines (the
  hooks only observe; they never draw from the RNG streams);
* **content** -- the emitted stream is well-formed: known kinds,
  non-decreasing ``time_ns``, and metric counters that reconcile with
  the result's own totals.

The two engines' event streams legitimately differ (the fused engine
emits ``rng-block`` events and batches skipped-interval rollovers), so
only the result and the reconcilable aggregates are compared.
"""

from __future__ import annotations

import pytest

from repro.config import small_test_config
from repro.mitigations.registry import make_factory
from repro.sim.engine import get_engine
from repro.telemetry import (
    EVENT_KINDS,
    NullTracer,
    Profiler,
)
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace, paper_mixed_workload

from tests.harness import assert_telemetry_transparent

CONFIG = small_test_config()
TOTAL_INTERVALS = 48


def _mixed(seed):
    return lambda: paper_mixed_workload(
        CONFIG, total_intervals=TOTAL_INTERVALS, seed=seed
    )


def _flooding(seed):
    row = CONFIG.geometry.rows_per_bank // 2
    return lambda: build_trace(
        CONFIG,
        TOTAL_INTERVALS,
        attacks=(
            AttackSpec(bank=0, aggressors=(row,), acts_per_interval=40,
                       start_interval=3),
        ),
        seed=seed,
    )


@pytest.mark.parametrize("engine", ["reference", "fused"])
@pytest.mark.parametrize(
    "technique", ["LoLiPRoMi", "PARA", "TWiCe", None], ids=str
)
def test_telemetry_is_transparent(engine, technique):
    factory = make_factory(technique) if technique else None
    assert_telemetry_transparent(
        CONFIG, _mixed(1), factory, seed=1, engine=engine
    )


@pytest.mark.parametrize("engine", ["reference", "fused"])
def test_telemetry_transparent_on_flooding_with_skips(engine):
    # flooding traces exercise the fused engine's interval-skip path
    assert_telemetry_transparent(
        CONFIG, _flooding(2), make_factory("LiPRoMi"), seed=2, engine=engine
    )


@pytest.mark.parametrize("engine", ["reference", "fused"])
def test_event_stream_is_well_formed(engine):
    _result, tracer, _metrics = assert_telemetry_transparent(
        CONFIG, _mixed(0), make_factory("LoLiPRoMi"), seed=0, engine=engine
    )
    assert tracer.events, "an active run must emit events"
    last_time = None
    for event in tracer.events:
        assert event["kind"] in EVENT_KINDS
        if last_time is not None:
            assert event["time_ns"] >= last_time, (
                f"time went backwards: {event}"
            )
        last_time = event["time_ns"]


@pytest.mark.parametrize("engine", ["reference", "fused"])
def test_metrics_reconcile_with_result(engine):
    result, tracer, metrics = assert_telemetry_transparent(
        CONFIG, _mixed(3), make_factory("LoLiPRoMi"), seed=3, engine=engine
    )
    counters = metrics.counters
    assert counters["activations"].value == result.normal_activations
    assert counters["attack_activations"].value == result.attack_activations
    assert counters["triggers"].value == result.mitigation_triggers
    assert counters["mitigating_refreshes"].value == result.mitigation_triggers
    assert counters["extra_activations"].value == result.extra_activations
    assert counters["fp_extra_activations"].value == result.fp_extra_activations
    assert counters["intervals"].value == result.intervals_simulated
    assert len(tracer.of_kind("trigger")) == result.mitigation_triggers
    assert metrics.histograms["trigger_weight"].count == result.mitigation_triggers


def test_engines_agree_on_aggregate_counters():
    """Per-event streams differ, but the reconcilable totals match."""
    outcomes = {}
    for engine in ("reference", "fused"):
        _result, _tracer, metrics = assert_telemetry_transparent(
            CONFIG, _mixed(4), make_factory("LoLiPRoMi"), seed=4,
            engine=engine,
        )
        outcomes[engine] = {
            name: counter.value
            for name, counter in metrics.counters.items()
            # the fused engine alone accounts its draws and its grid
            if not name.startswith(("rng_", "fused."))
        }
    assert outcomes["reference"] == outcomes["fused"]


def test_fused_engine_reports_rng_blocks():
    _result, tracer, metrics = assert_telemetry_transparent(
        CONFIG, _flooding(1), make_factory("LoLiPRoMi"), seed=1, engine="fused"
    )
    blocks = tracer.of_kind("rng-block")
    assert blocks, "bulk draws must be accounted"
    assert metrics.counters["rng_draws"].value == sum(
        event["count"] for event in blocks
    )


def test_null_tracer_is_equivalent_to_no_tracer():
    run = get_engine("fused")
    bare = run(CONFIG, _mixed(0)(), make_factory("PARA"), seed=0)
    nulled = run(
        CONFIG, _mixed(0)(), make_factory("PARA"), seed=0,
        tracer=NullTracer(),
    )
    assert bare.as_dict() == nulled.as_dict()


@pytest.mark.parametrize("engine, sections", [
    ("reference", {"engine:setup", "engine:replay", "engine:drain"}),
    ("fused", {"engine:decode", "engine:setup", "engine:replay",
               "engine:drain"}),
], ids=["reference", "fused"])
def test_profiler_sections_cover_the_run(engine, sections):
    profiler = Profiler()
    run = get_engine(engine)
    run(CONFIG, _mixed(0)(), make_factory("PARA"), seed=0, profiler=profiler)
    assert set(profiler.sections) == sections
    assert profiler.total_seconds > 0.0


def test_history_events_fire_under_pressure():
    """A tiny history table forces hits and evictions."""
    from dataclasses import replace

    config = replace(small_test_config(), history_table_entries=2)
    row = config.geometry.rows_per_bank // 2
    trace = lambda: build_trace(  # noqa: E731
        config,
        TOTAL_INTERVALS,
        attacks=(
            AttackSpec(bank=0, aggressors=(row, row + 2, row + 4, row + 6),
                       acts_per_interval=120, start_interval=1),
        ),
        seed=0,
    )
    for engine in ("reference", "fused"):
        _result, tracer, metrics = assert_telemetry_transparent(
            config, trace, make_factory("LoLiPRoMi"), seed=0, engine=engine
        )
        assert metrics.counters["history_evictions"].value == len(
            tracer.of_kind("history-evict")
        )
        assert metrics.counters["history_evictions"].value > 0, engine

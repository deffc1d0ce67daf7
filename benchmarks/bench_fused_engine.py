"""Fused-engine throughput vs the reference engine on flooding traces.

Two speed floors, both on one full-rate single-row flood (the Section
IV attack shape):

* **solo** -- each technique as one fused run against one reference
  run; the probabilistic TiVaPRoMi variants must be >= 3x faster;
* **campaign** -- the whole nine-technique grid (plus the unmitigated
  baseline) over seeds and the pbase axis, once as solo reference runs
  per ``(technique, seed, pbase)`` cell and once as a single fused grid
  call that decodes the trace once and fans it out across every cell;
  the grid must be >= 14x faster.

Results must be field-for-field identical, re-asserted here at
benchmark scale (the differential tests pin it at test scale).

Scale with ``REPRO_BENCH_INTERVALS`` / ``REPRO_BENCH_SEEDS`` as usual.
"""

from __future__ import annotations

import time

from benchmarks.conftest import (
    BENCH_INTERVALS,
    BENCH_SEEDS,
    run_once,
    write_bench_output,
)
from repro.analysis.report import render_table
from repro.mitigations.registry import make_factory, technique_names
from repro.sim.engine import run_simulation
from repro.sim.fused_engine import grid_cells, run_simulation_fused, run_simulation_grid
from repro.telemetry import MetricsRegistry, NullTracer
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace

#: the paper's pbase ablation axis, scaled around the configured value
PBASE_SCALES = (0.5, 1.0, 2.0)
#: one decode+replay of the trace must beat per-cell reference replays
#: by this much
SPEEDUP_FLOOR = 14.0
#: techniques held to the solo floor (the paper's probabilistic variants)
SOLO_FLOOR_TECHNIQUES = ("LiPRoMi", "LoPRoMi", "LoLiPRoMi")
#: measured and reported, but not held to the solo floor
SOLO_REPORTED_TECHNIQUES = ("PARA", "TWiCe", "CaPRoMi", "none")
#: a solo fused run must beat the reference engine by this much
SOLO_SPEEDUP_FLOOR = 3.0


def _flooding_trace(config):
    row = config.geometry.rows_per_bank // 2
    acts = config.timing.max_acts_per_interval
    return build_trace(
        config,
        BENCH_INTERVALS,
        attacks=(
            AttackSpec(bank=0, aggressors=(row,), acts_per_interval=acts),
        ),
        seed=3,
        materialize=True,
    )


def _measure_solo(config, trace, technique):
    factory = make_factory(technique) if technique != "none" else None
    started = time.perf_counter()
    reference = run_simulation(config, trace, factory, seed=3)
    mid = time.perf_counter()
    # the fused run carries a NullTracer, so the floor below also
    # certifies that the disabled telemetry layer costs nothing
    fused = run_simulation_fused(
        config, trace, factory, seed=3, tracer=NullTracer()
    )
    ended = time.perf_counter()
    assert reference.as_dict() == fused.as_dict(), technique
    return mid - started, ended - mid


def test_fused_engine_speedup(benchmark, paper_config):
    trace = _flooding_trace(paper_config)

    def compute():
        return {
            technique: _measure_solo(paper_config, trace, technique)
            for technique in SOLO_FLOOR_TECHNIQUES + SOLO_REPORTED_TECHNIQUES
        }

    timings = run_once(benchmark, compute)
    rows = []
    for technique, (ref_seconds, fused_seconds) in timings.items():
        speedup = ref_seconds / fused_seconds
        benchmark.extra_info[technique] = round(speedup, 2)
        rows.append(
            (technique, f"{ref_seconds:.3f}s", f"{fused_seconds:.3f}s",
             f"{speedup:.1f}x")
        )
    report = (
        f"=== solo fused engine vs reference, flooding trace "
        f"({trace.count():,} records, {BENCH_INTERVALS} intervals) ===\n"
        + render_table(("technique", "reference", "fused", "speedup"), rows)
    )
    print("\n" + report)
    write_bench_output("fused_engine_solo_speedup", report)

    for technique in SOLO_FLOOR_TECHNIQUES:
        ref_seconds, fused_seconds = timings[technique]
        assert ref_seconds / fused_seconds >= SOLO_SPEEDUP_FLOOR, (
            f"{technique}: {ref_seconds / fused_seconds:.2f}x "
            f"< {SOLO_SPEEDUP_FLOOR}x floor"
        )


def test_fused_campaign_speedup(benchmark, paper_config):
    techniques = technique_names() + [None]
    cells = grid_cells(
        techniques, BENCH_SEEDS, pbase_scales=PBASE_SCALES,
        config=paper_config,
    )
    trace = _flooding_trace(paper_config)

    def compute():
        started = time.perf_counter()
        solo = []
        for cell in cells:
            cell_config = cell.config or paper_config
            factory = make_factory(cell.technique) if cell.technique else None
            solo.append(
                run_simulation(cell_config, trace, factory, seed=cell.seed)
            )
        mid = time.perf_counter()
        metrics = MetricsRegistry()
        fused = run_simulation_grid(
            paper_config, trace, cells, metrics=metrics
        )
        ended = time.perf_counter()
        return mid - started, ended - mid, solo, fused, metrics

    solo_s, fused_s, solo, fused, metrics = run_once(benchmark, compute)

    mismatched = [
        cell
        for cell, solo_result, fused_result in zip(cells, solo, fused)
        if solo_result.as_dict() != fused_result.as_dict()
    ]
    assert not mismatched, (
        f"fused grid diverged at benchmark scale for {len(mismatched)} "
        f"cells, first: {mismatched[0]}"
    )

    speedup = solo_s / fused_s
    computed = metrics.counters["fused.cells_computed"].value
    deduped = metrics.counters["fused.cells_deduped"].value
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cells"] = len(cells)
    benchmark.extra_info["cells_deduped"] = deduped
    report = (
        f"=== fused grid vs per-cell reference engine, flooding trace "
        f"({trace.count():,} records, {BENCH_INTERVALS} intervals) ===\n"
        + render_table(
            ("cells", "computed", "deduped", "reference", "fused", "speedup"),
            [(
                str(len(cells)), str(computed), str(deduped),
                f"{solo_s:.3f}s", f"{fused_s:.3f}s", f"{speedup:.1f}x",
            )],
        )
    )
    print("\n" + report)
    write_bench_output("fused_engine_speedup", report)

    assert speedup >= SPEEDUP_FLOOR, (
        f"fused campaign speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x floor"
    )


#: per-technique fused replay floors for the modern tracker families,
#: in trace records per second.  Local runs clock ~3M rec/s; the floor
#: leaves a ~20x margin for slow CI runners while still catching an
#: accidental de-batching (losing ``observe_run`` costs well over 20x
#: on a flooding trace).
MODERN_THROUGHPUT_FLOORS = {
    "LoadedDice": 150_000,
    "RVC": 150_000,
    "PVAC": 150_000,
    "PRAC": 150_000,
    "PRACtical": 150_000,
    "ProbTracker": 150_000,
}


def test_modern_technique_throughput_floors(benchmark, paper_config):
    """Each modern family must hold its fused-replay throughput floor.

    A solo fused run per technique over the flooding benchmark trace,
    best-of-3 to damp scheduler noise.  The floor is the guard that the
    run-batched ``observe_run`` paths stay wired up: falling back to
    per-record dispatch on a flooding trace costs orders of magnitude.
    """
    trace = _flooding_trace(paper_config)
    records = trace.count()

    def compute():
        rates = {}
        for name in sorted(MODERN_THROUGHPUT_FLOORS):
            best = None
            for _ in range(3):
                started = time.perf_counter()
                run_simulation_fused(
                    paper_config, trace, make_factory(name), seed=0
                )
                elapsed = time.perf_counter() - started
                if best is None or elapsed < best:
                    best = elapsed
            rates[name] = records / best
        return rates

    rates = run_once(benchmark, compute)
    rows = [
        (name, f"{rates[name]:,.0f}", f"{floor:,}")
        for name, floor in sorted(MODERN_THROUGHPUT_FLOORS.items())
    ]
    report = (
        f"=== modern-technique fused replay throughput, flooding trace "
        f"({records:,} records, {BENCH_INTERVALS} intervals) ===\n"
        + render_table(("technique", "records/s", "floor"), rows)
    )
    print("\n" + report)
    write_bench_output("modern_technique_throughput", report)
    for name, floor in MODERN_THROUGHPUT_FLOORS.items():
        benchmark.extra_info[f"{name}_records_per_s"] = round(rates[name])
        assert rates[name] >= floor, (
            f"{name}: {rates[name]:,.0f} records/s < {floor:,} floor"
        )


#: a NullTracer run may be at most this much slower than a plain run
#: (ratio bound, plus an absolute epsilon to absorb timer noise on the
#: reduced CI scale)
NULL_TRACER_OVERHEAD_RATIO = 1.02
NULL_TRACER_OVERHEAD_EPSILON_S = 0.05


def test_fused_null_tracer_overhead(benchmark, paper_config):
    """Disabled telemetry must not regress the fused engine.

    ``NullTracer`` collapses to ``telemetry=None`` at engine entry, so
    a single-cell fused run with one costs nothing beyond the collapse
    plus per-interval ``if tele is not None`` checks.  Best-of-3 timings keep the
    comparison robust against scheduler noise.
    """
    trace = _flooding_trace(paper_config)

    def best_of(runs, **kwargs):
        best = None
        for _ in range(runs):
            started = time.perf_counter()
            result = run_simulation_fused(
                paper_config, trace, make_factory("LoLiPRoMi"), seed=3,
                **kwargs,
            )
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best[0]:
                best = (elapsed, result)
        return best

    def compute():
        plain = best_of(3)
        nulled = best_of(3, tracer=NullTracer())
        return plain, nulled

    (plain_s, plain_result), (null_s, null_result) = run_once(
        benchmark, compute
    )
    assert plain_result.as_dict() == null_result.as_dict()
    benchmark.extra_info["overhead_pct"] = round(
        100.0 * (null_s / plain_s - 1.0), 2
    )
    print(f"\nNullTracer overhead (fused): plain={plain_s:.3f}s "
          f"null={null_s:.3f}s ({100.0 * (null_s / plain_s - 1.0):+.2f}%)")
    assert null_s <= plain_s * NULL_TRACER_OVERHEAD_RATIO + \
        NULL_TRACER_OVERHEAD_EPSILON_S, (
        f"NullTracer regressed the fused engine: {plain_s:.3f}s -> "
        f"{null_s:.3f}s"
    )


def test_campaign_disabled_observability_overhead(benchmark, paper_config):
    """Disabled spans + no status bus must not regress ``run_campaign``.

    The observability plane threads span tracers, heartbeats, and
    progress dispatch through every campaign path; this guard (the
    ``NullTracer`` guard's sibling) pins the disabled-path cost: a
    campaign handed a disabled :class:`SpanTracer` and no
    :class:`StatusBus` must run as fast as one with no observability
    arguments at all, and produce identical aggregates.
    """
    from repro.sim.parallel import run_campaign
    from repro.telemetry import SpanTracer

    techniques = ("PARA", "LoLiPRoMi")
    kwargs = dict(
        total_intervals=BENCH_INTERVALS,
        techniques=techniques,
        seeds=tuple(BENCH_SEEDS),
        workers=0,
        engine="fused",
    )

    def best_of(runs, **extra):
        best = None
        for _ in range(runs):
            started = time.perf_counter()
            result = run_campaign(paper_config, **kwargs, **extra)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best[0]:
                best = (elapsed, result)
        return best

    def compute():
        plain = best_of(3)
        disabled = best_of(3, spans=SpanTracer(enabled=False), status=None)
        return plain, disabled

    (plain_s, plain_result), (off_s, off_result) = run_once(
        benchmark, compute
    )
    for technique in techniques:
        plain_dicts = [r.as_dict() for r in plain_result[technique].results]
        off_dicts = [r.as_dict() for r in off_result[technique].results]
        assert plain_dicts == off_dicts
    benchmark.extra_info["overhead_pct"] = round(
        100.0 * (off_s / plain_s - 1.0), 2
    )
    print(f"\ndisabled-observability overhead (campaign): "
          f"plain={plain_s:.3f}s disabled={off_s:.3f}s "
          f"({100.0 * (off_s / plain_s - 1.0):+.2f}%)")
    assert off_s <= plain_s * NULL_TRACER_OVERHEAD_RATIO + \
        NULL_TRACER_OVERHEAD_EPSILON_S, (
        f"disabled observability regressed run_campaign: {plain_s:.3f}s -> "
        f"{off_s:.3f}s"
    )

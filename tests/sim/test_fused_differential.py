"""Differential equivalence: fused grid engine vs reference engine.

The fused engine replays one decoded trace for a whole
``(technique, seed, pbase)`` cell grid at once, with cross-cell
deduplication.  Its license to exist is this suite: every cell of a
fused grid must be field-for-field identical (flips included) to a solo
reference-engine run of that cell, across all registered techniques,
three seeds, a pbase grid, engine-kwarg variants, the device variants
the lanes branch on (refresh policies, Half-Double coupling, remapped
rows, flipping thresholds, several refresh windows), and an ingested
DRAMSim capture.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import ddr4_paper_config, small_test_config
from repro.dram.refresh import all_policies
from repro.dram.remap import random_remap_geometry
from repro.mitigations.registry import (
    MODERN_TECHNIQUES,
    technique_class,
    technique_names,
)
from repro.sim.fused_engine import GridCell, grid_cells, run_simulation_grid
from repro.telemetry.metrics import MetricsRegistry
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace, paper_mixed_workload

from tests.harness import assert_grid_equivalent

CONFIG = small_test_config()
TOTAL_INTERVALS = 48
SEEDS = (0, 1, 2)
#: the paper's pbase ablation axis, scaled around the configured value
PBASE_SCALES = (0.5, 1.0, 2.0)
#: all nine Table III techniques plus the unmitigated baseline
TECHNIQUES = technique_names() + [None]
#: the modern tracker families
MODERN = list(MODERN_TECHNIQUES)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "traces"


def _mixed(seed, config=CONFIG):
    return lambda: paper_mixed_workload(
        config, total_intervals=TOTAL_INTERVALS, seed=seed
    )


def _flooding(seed, config=CONFIG):
    row = config.geometry.rows_per_bank // 2
    return lambda: build_trace(
        config,
        TOTAL_INTERVALS,
        attacks=(
            AttackSpec(
                bank=0,
                aggressors=(row,),
                acts_per_interval=40,
                start_interval=3,
            ),
        ),
        seed=seed,
    )


def _variants():
    """Device variants the lanes branch on, beyond the default model.

    Each is ``(id, config, engine kwargs)``: the three non-sequential
    refresh policies, Half-Double coupling, physically remapped rows, a
    flip threshold low enough that the traces actually flip, and a
    refresh window short enough that the traces cross several.
    """
    policies = all_policies(CONFIG.geometry, seed=1)[1:]
    variants = [
        (policy.name, CONFIG, {"refresh_policy": policy})
        for policy in policies
    ]
    variants.append(("distance2", CONFIG.scaled(distance2_rate=0.5), {}))
    remapped = replace(
        CONFIG, geometry=random_remap_geometry(CONFIG.geometry, pairs=16)
    )
    variants.append(("row-remap", remapped, {}))
    variants.append(("flips", CONFIG.scaled(flip_threshold=300), {}))
    # RefInt 16: the 48-interval traces span three refresh windows
    variants.append(("windows", small_test_config(rows_per_bank=128), {}))
    return variants


#: the default model keeps the bare technique id and the full seed x
#: pbase plane; variants append their id and run a 2 x 2 plane
GRID_CASES = [
    pytest.param(technique, CONFIG, {}, SEEDS, PBASE_SCALES, id=str(technique))
    for technique in TECHNIQUES
] + [
    pytest.param(
        technique, config, kwargs, SEEDS[:2], PBASE_SCALES[1:],
        id=f"{technique}-{name}",
    )
    for name, config, kwargs in _variants()
    for technique in TECHNIQUES
]


@pytest.mark.parametrize("technique, config, kwargs, seeds, scales", GRID_CASES)
def test_mixed_grid_equivalence(technique, config, kwargs, seeds, scales):
    """Full seed x pbase plane of each technique vs per-cell reference."""
    cells = grid_cells([technique], seeds, pbase_scales=scales, config=config)
    assert_grid_equivalent(config, _mixed(0, config=config), cells, **kwargs)


@pytest.mark.parametrize("technique, config, kwargs, seeds, scales", GRID_CASES)
def test_flooding_grid_equivalence(technique, config, kwargs, seeds, scales):
    cells = grid_cells([technique], seeds, pbase_scales=scales, config=config)
    assert_grid_equivalent(
        config, _flooding(1, config=config), cells, **kwargs
    )


@pytest.mark.fused_smoke
def test_bounded_smoke_grid():
    """The CI fused-smoke job: every technique, one bounded mixed grid.

    One grid call covering the whole technique axis (two seeds, two
    pbase points) against per-cell reference runs -- small enough for
    every push, wide enough that any decider regression trips it.
    """
    cells = grid_cells(
        TECHNIQUES, (0, 1), pbase_scales=(1.0, 2.0), config=CONFIG
    )
    assert_grid_equivalent(CONFIG, _mixed(2), cells)


@pytest.mark.parametrize("technique", MODERN)
def test_modern_grid_equivalence(technique):
    """Modern techniques: full seed x pbase plane vs per-cell reference."""
    cells = grid_cells(
        [technique], SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    assert_grid_equivalent(CONFIG, _mixed(0), cells)
    assert_grid_equivalent(CONFIG, _flooding(1), cells)


def test_modern_multi_subarray_grid_equivalence():
    """One fused grid over every modern family on a two-bank,
    four-subarray geometry, checked cell-by-cell against reference."""
    config = small_test_config(num_banks=2, subarrays_per_bank=4)
    cells = grid_cells(MODERN + [None], (0, 1), config=config)
    assert_grid_equivalent(config, _mixed(0, config=config), cells)


@pytest.mark.mitigation_matrix
def test_mitigation_matrix_smoke():
    """The CI mitigation-matrix job: every registered technique -- the
    nine paper rows, the extended trackers and the modern families --
    in one tiny fused campaign grid, each cell pinned to a solo
    reference run."""
    all_names = technique_names(include_extended=True, include_modern=True)
    cells = grid_cells(all_names + [None], (0,), config=CONFIG)
    assert_grid_equivalent(CONFIG, _mixed(3), cells)


def test_modern_dedup_collapses_deterministic_lanes():
    """RVC/PVAC/PRAC/PRACtical consume neither rng nor pbase, so a
    seed x pbase plane collapses to one lane each; LoadedDice and
    ProbTracker keep one lane per seed."""
    techniques = MODERN
    cells = grid_cells(
        techniques, SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    metrics = MetricsRegistry()
    trace = _mixed(1)().materialize()
    run_simulation_grid(CONFIG, trace, cells, metrics=metrics)
    requested = metrics.counters["fused.cells_requested"].value
    computed = metrics.counters["fused.cells_computed"].value
    assert requested == len(cells) == 6 * len(SEEDS) * len(PBASE_SCALES)
    # 4 deterministic families keep 1 lane; 2 rng families keep one
    # lane per seed
    assert computed == 4 + 2 * len(SEEDS)


def test_grid_dedup_is_invisible():
    """Dedup collapses cells yet every replica still matches reference.

    TWiCe/CRA collapse both axes, PARA/ProHit/MRLoc the pbase axis; the
    metrics registry proves the collapse actually happened while the
    harness proves the replicated results are still per-cell exact.
    """
    techniques = ["TWiCe", "CRA", "PARA", "ProHit", "MRLoc", None]
    cells = grid_cells(
        techniques, SEEDS, pbase_scales=PBASE_SCALES, config=CONFIG
    )
    metrics = MetricsRegistry()
    trace = _mixed(1)().materialize()
    run_simulation_grid(CONFIG, trace, cells, metrics=metrics)
    requested = metrics.counters["fused.cells_requested"].value
    computed = metrics.counters["fused.cells_computed"].value
    deduped = metrics.counters["fused.cells_deduped"].value
    assert requested == len(cells) == 54
    # TWiCe, CRA and the baseline keep 1 lane each; PARA/ProHit/MRLoc
    # keep one lane per seed
    assert computed == 3 + 3 * len(SEEDS)
    assert requested == computed + deduped
    assert_grid_equivalent(CONFIG, _mixed(1), cells)


def test_dedup_traits_match_registry():
    """Every registered technique declares the dedup traits explicitly
    or inherits the conservative default; the deterministic counter
    techniques must have opted out of both axes for the dedup to fire."""
    for name in technique_names(include_extended=True):
        cls = technique_class(name)
        assert isinstance(cls.consumes_rng, bool)
        assert isinstance(cls.consumes_pbase, bool)
    for name in ("TWiCe", "CRA", "CounterTree"):
        cls = technique_class(name)
        assert not cls.consumes_rng and not cls.consumes_pbase
    for name in ("LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"):
        cls = technique_class(name)
        assert cls.consumes_rng and cls.consumes_pbase
    for name in ("PARA", "ProHit", "MRLoc"):
        cls = technique_class(name)
        assert cls.consumes_rng and not cls.consumes_pbase
    for name in ("RVC", "PVAC", "PRAC", "PRACtical"):
        cls = technique_class(name)
        assert not cls.consumes_rng and not cls.consumes_pbase
    for name in ("LoadedDice", "ProbTracker"):
        cls = technique_class(name)
        assert cls.consumes_rng and not cls.consumes_pbase


@pytest.mark.parametrize(
    "technique", ["PARA", "LiPRoMi", "LoLiPRoMi", "CaPRoMi", "MRLoc"]
)
def test_stop_after_first_trigger_grid(technique):
    row = CONFIG.geometry.rows_per_bank // 2
    heavy = lambda: build_trace(  # noqa: E731
        CONFIG,
        TOTAL_INTERVALS,
        attacks=(
            AttackSpec(
                bank=0, aggressors=(row,), acts_per_interval=120,
                start_interval=3,
            ),
        ),
        seed=1,
    )
    cells = grid_cells([technique], SEEDS, config=CONFIG)
    results = assert_grid_equivalent(
        CONFIG, heavy, cells, stop_after_first_trigger=True
    )
    assert any(
        result.first_trigger_activation is not None for result in results
    )


@pytest.mark.parametrize("limit", [1, 137, 500])
def test_max_activations_grid(limit):
    cells = grid_cells(
        ["PARA", "LiPRoMi", "TWiCe", None], (2,), config=CONFIG
    )
    results = assert_grid_equivalent(
        CONFIG, _mixed(2), cells, max_activations=limit
    )
    assert all(result.normal_activations <= limit for result in results)


def test_exact_refresh_mapping_grid():
    """TiVaPRoMi lanes given the policy's exact inverse mapping
    (``refresh_slot_fn``, the Section IV mapping ablation) instead of
    the sequential ``f_r = r / RowsPI`` assumption."""
    policy = all_policies(CONFIG.geometry, seed=1)[2]
    kwargs = (("refresh_slot_fn", policy.refresh_slot_of),)
    cells = [
        GridCell(technique=technique, seed=seed, kwargs=kwargs)
        for technique in ("LiPRoMi", "LoPRoMi", "LoLiPRoMi")
        for seed in SEEDS[:2]
    ]
    assert_grid_equivalent(CONFIG, _mixed(1), cells, refresh_policy=policy)


def test_multi_bank_grid_equivalence(two_bank_config):
    cells = grid_cells(
        ["LoLiPRoMi", "PARA", "MRLoc", "CaPRoMi"], (0, 1),
        config=two_bank_config,
    )
    assert_grid_equivalent(
        two_bank_config, _mixed(0, config=two_bank_config), cells
    )


def test_ingested_dramsim_grid_equivalence():
    """The gzipped DRAMSim capture replays grid-identically.

    Ingested traces have irregular timing and multi-bank interleaving
    the synthetic workloads never produce; the fused tape must segment
    them exactly like the per-record reference loop.
    """
    from repro.traces.ingest import ingest_trace

    config = ddr4_paper_config()
    ingested = ingest_trace(
        FIXTURES / "mini_dramsim.trace.gz", config, clock_ns=45.0
    )
    trace = ingested.trace.materialize()
    cells = grid_cells(
        TECHNIQUES, (0, 1), pbase_scales=(1.0, 2.0), config=config
    )
    assert_grid_equivalent(config, lambda: trace, cells)


def test_mismatched_cell_geometry_rejected():
    other = small_test_config(rows_per_bank=1024)
    cells = [GridCell(technique="PARA", seed=0, config=other)]
    with pytest.raises(ValueError):
        run_simulation_grid(CONFIG, _mixed(0)(), cells)


def test_tracer_requires_single_cell():
    from repro.telemetry import RecordingTracer

    cells = grid_cells(["PARA", "TWiCe"], (0,), config=CONFIG)
    with pytest.raises(ValueError):
        run_simulation_grid(
            CONFIG, _mixed(0)(), cells, tracer=RecordingTracer()
        )


def test_single_cell_tracer_matches_solo_fast_engine():
    """A one-cell grid with telemetry equals the solo fast engine's."""
    from repro.sim.fast_engine import run_simulation_fast
    from repro.mitigations.registry import make_factory
    from repro.telemetry import RecordingTracer

    trace = _mixed(0)().materialize()
    solo_tracer, grid_tracer = RecordingTracer(), RecordingTracer()
    solo = run_simulation_fast(
        CONFIG, trace, make_factory("LiPRoMi"), seed=0, tracer=solo_tracer
    )
    [gridded] = run_simulation_grid(
        CONFIG, trace, [GridCell(technique="LiPRoMi", seed=0)],
        tracer=grid_tracer,
    )
    assert solo.as_dict() == gridded.as_dict()
    assert solo_tracer.events == grid_tracer.events

"""The benchmark's workloads: inputs, operations, oracle cells and layer probes.

Every workload drives the program through the public entry points the
CLI uses, always on ``engine="fused"``:

* ``paper-table3``   -- ``compare_techniques`` + ``table3_resources`` /
  ``render_table3`` on the paper's mixed workload (``repro table3``);
* ``flood-grid``     -- ``build_trace`` + ``run_simulation_grid`` over a
  10 technique x 2 seed x 3 pbase grid on a single-row flooding trace;
* ``campaign-spool`` -- ``run_durable_campaign`` on the local process
  pool (``repro campaign --executor pool``);
* ``campaign-queue`` -- the same campaign through ``QueueExecutor``
  (``repro campaign --executor queue``).

A workload object is built once per process (that is part of the
benchmark's set-up time) and then runs its operation repeatedly.  An
operation returns its ``SimResult`` objects keyed by *cell keys*: a
JSON description of the inputs -- which trace, which technique, which
mitigation seed, which pbase scale -- from which :func:`reference_digests`
recomputes the same cell on the reference engine.  Digests are taken
after the timer stops, so the oracle never runs inside a timed region.

The traced variant of an operation passes the program's own
``Profiler``, ``MetricsRegistry`` and ``SpanTracer`` in, and
:meth:`Workload.layers` turns what they recorded, plus timings taken
from outside around public calls, into the per-layer metrics.
Nothing here changes code under ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy  # noqa: F401  -- the fused engine's scans; imported during set-up

from repro.analysis.area import table3_resources
from repro.analysis.report import render_table3
from repro.campaign import CampaignStore, QueueExecutor, run_durable_campaign
from repro.config import SimConfig
from repro.mitigations.registry import make_factory, technique_names
from repro.rng import derive_seed
from repro.sim.engine import get_engine
from repro.sim.experiment import (
    TechniqueAggregate,
    compare_techniques,
    default_trace_factory,
)
from repro.sim.fused_engine import GridCell, grid_cells, run_simulation_grid
from repro.sim.metrics import SimResult
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import Profiler
from repro.telemetry.spans import SpanTracer
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace, paper_mixed_workload
from repro.traces.record import Trace
from repro.traces.trace_io import load_trace_npz, save_trace_npz

#: refresh intervals of every generated trace (the paper runs 8192 per
#: refresh window; 128 keeps one operation near a second on one core)
INTERVALS = 128
#: seeds of one campaign operation (each seed is one spooled trace)
CAMPAIGN_SEEDS = 8
#: pool / queue workers of the campaign workloads (the host has 2 cores)
WORKERS = 2
#: the pbase ablation axis of the flooding grid
PBASE_SCALES = (0.5, 1.0, 2.0)
#: repetitions of each single-cell probe (the median is reported)
PROBE_REPEATS = 3

#: the nine paper techniques, in registry order
PAPER_TECHNIQUES = tuple(technique_names())

#: profiler sections that are leaves: ``technique:*`` sections enclose
#: the ``engine:*`` ones, so summing every section double-counts
ENGINE_SECTIONS = ("engine:decode", "engine:setup", "engine:replay", "engine:drain")


# ---------------------------------------------------------------------------
# inputs, cell keys and digests
# ---------------------------------------------------------------------------


def paper_trace_id(seed: int) -> list:
    """The paper mixed workload that ``compare_techniques`` and the
    campaign runner generate for result seed *seed*."""
    return ["paper", INTERVALS, seed]


def flood_trace_id(row: int) -> list:
    """A single-aggressor flood of *row* at the per-interval activation cap."""
    return ["flood", INTERVALS, row]


def make_trace(config: SimConfig, trace_id: Sequence) -> Trace:
    """Build (and materialize) the trace a trace id describes."""
    kind, intervals, value = trace_id
    if kind == "paper":
        return paper_mixed_workload(
            config, intervals, seed=derive_seed(value, "trace")
        ).materialize()
    if kind == "flood":
        attack = AttackSpec(
            bank=0, aggressors=(value,),
            acts_per_interval=config.timing.max_acts_per_interval,
        )
        return build_trace(config, intervals, attacks=(attack,), materialize=True)
    raise ValueError(f"unknown trace kind {kind!r}")


def cell_key(trace_id: Sequence, technique: Optional[str], seed: int,
             scale: float = 1.0) -> str:
    return json.dumps([list(trace_id), technique, seed, scale])


def table_key(trace_id: Sequence, seed: int) -> str:
    return json.dumps(["table3", list(trace_id), seed])


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_result(result: SimResult) -> str:
    """Digest of ``SimResult.as_dict()`` -- wall time excluded, exactly
    the dict the differential tests compare."""
    return digest_text(json.dumps(result.as_dict(), sort_keys=True))


def cell_config(config: SimConfig, scale: float) -> SimConfig:
    """The per-cell config ``grid_cells`` builds for a pbase scale."""
    return config if scale == 1.0 else config.scaled(pbase=config.pbase * scale)


def trace_properties(trace: Trace) -> Dict[str, int]:
    """Records, attacker records and identical-record runs of a trace.

    A run is a maximal stretch of records with the same bank, row,
    attack flag and refresh interval -- the segments the fused engine
    batches.
    """
    interval_ns = trace.meta.interval_ns
    records = attacks = segments = 0
    previous = None
    for time_ns, bank, row, is_attack in trace:
        key = (bank, row, is_attack, time_ns // interval_ns)
        if key != previous:
            segments += 1
            previous = key
        records += 1
        attacks += bool(is_attack)
    return {"records": records, "attacks": attacks, "segments": segments}


def reference_digests(config: SimConfig, keys: Sequence[str]):
    """The oracle: recompute every key on the reference engine.

    Returns ``(digests, properties)``: one digest per key, and the
    :func:`trace_properties` of every trace the keys name.
    """
    reference = get_engine("reference")
    traces: Dict[str, Trace] = {}
    properties: Dict[str, Dict[str, int]] = {}

    def trace_for(trace_id) -> Trace:
        name = json.dumps(trace_id)
        if name not in traces:
            traces[name] = make_trace(config, trace_id)
            properties[name] = trace_properties(traces[name])
        return traces[name]

    def run_cell(trace_id, technique, seed, scale) -> SimResult:
        factory = make_factory(technique) if technique else None
        return reference(
            cell_config(config, scale), trace_for(trace_id), factory, seed=seed
        )

    digests: Dict[str, str] = {}
    for key in keys:
        parsed = json.loads(key)
        if parsed[0] == "table3":
            _, trace_id, seed = parsed
            comparison = {
                name: TechniqueAggregate(
                    technique=name,
                    results=[run_cell(trace_id, name, seed, 1.0)],
                )
                for name in PAPER_TECHNIQUES
            }
            digests[key] = digest_text(
                render_table3(config, comparison, table3_resources(config))
            )
        else:
            digests[key] = digest_result(run_cell(*parsed))
    return digests, properties


# ---------------------------------------------------------------------------
# telemetry bundle and per-operation outcome
# ---------------------------------------------------------------------------


@dataclass
class Telemetry:
    """What a traced operation passes in and what it times from outside."""

    profiler: Profiler = field(default_factory=Profiler)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    spans: SpanTracer = field(default_factory=lambda: SpanTracer("perfbench"))
    #: seconds of blocking steps timed from outside, by layer section
    timers: Dict[str, float] = field(default_factory=dict)

    def section(self, name: str) -> float:
        entry = self.profiler.sections.get(name)
        return entry["seconds"] if entry else 0.0

    def count(self, name: str) -> int:
        counter = self.metrics.counters.get(name)
        return counter.value if counter else 0


@dataclass
class Outcome:
    """One operation's results, keyed by cell key, and its work size."""

    results: Dict[str, SimResult]
    #: simulated activations: trace records x cells requested
    acts: int
    texts: Dict[str, str] = field(default_factory=dict)
    #: scratch directory removed after the operation (campaigns)
    scratch: Optional[Path] = None

    def digests(self) -> Dict[str, str]:
        out = {key: digest_result(result) for key, result in self.results.items()}
        out.update({key: digest_text(text) for key, text in self.texts.items()})
        return out


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


class Probes:
    """Per-layer probes: public calls timed from outside a workload op.

    Every probe result is keyed like an operation result, so the
    oracle checks probes too.
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.results: Dict[str, SimResult] = {}

    def cells(self, trace_id, trace: Trace, seed: int) -> Dict[str, float]:
        """``mitigations.*`` and ``dram.*`` from single-cell grid calls."""
        out: Dict[str, float] = {}
        cell_s: Dict[Optional[str], float] = {}
        decode_s = 0.0
        for technique in (None,) + PAPER_TECHNIQUES:
            walls, decodes = [], []
            for _ in range(PROBE_REPEATS):
                tele = Telemetry()
                (result,), wall = _timed(
                    run_simulation_grid, self.config, trace,
                    [GridCell(technique=technique, seed=seed)],
                    metrics=tele.metrics, profiler=tele.profiler,
                )
                walls.append(wall)
                decodes.append(tele.section("engine:decode"))
            self.results[cell_key(trace_id, technique, seed)] = result
            cell_s[technique] = median(walls)
            if technique is None:
                decode_s = median(decodes)
                out["dram.max_disturbance"] = result.max_disturbance
                out["dram.flips"] = len(result.flips)
            else:
                out[f"mitigations.{technique}.triggers"] = tele.count("triggers")
        out["dram.device_s"] = cell_s[None] - decode_s
        for technique in PAPER_TECHNIQUES:
            out[f"mitigations.{technique}.cell_s"] = cell_s[technique]
            out[f"mitigations.{technique}.decide_s"] = (
                cell_s[technique] - cell_s[None]
            )
        return out

    def spool(self, traces: Sequence[Trace], directory: Path):
        """``trace_io.*``: save every trace as npz, then load every file."""
        paths = [directory / f"probe-{index}.npz" for index in range(len(traces))]
        save_s = load_s = 0.0
        records = 0
        for trace, path in zip(traces, paths):
            records += trace.count()
            save_s += _timed(save_trace_npz, trace, path)[1]
        for path in paths:
            load_s += _timed(load_trace_npz, path)[1]
        return {
            "trace_io.save_s": save_s,
            "trace_io.load_s": load_s,
            "trace_io.spool_bytes": sum(path.stat().st_size for path in paths),
            "trace_io.load_records_per_s": records / load_s,
        }, paths


def campaign_layers(tele: Telemetry, checkpoint: Path, dispatch_section: str,
                    workers: int) -> Dict[str, float]:
    """``campaign.*`` and ``executors.*`` of one traced campaign.

    Executor busy time is the union, per worker process, of its
    ``shard`` spans: inside a fused block every cell's shard span covers
    the whole block, so summing spans would count a block once per cell.
    The store's canonical aggregation is timed from outside on the
    finished checkpoint.
    """
    intervals: Dict[int, List[Tuple[float, float]]] = {}
    for span in tele.spans.spans:
        if span.name == "shard" and span.wall_seconds is not None:
            intervals.setdefault(span.pid, []).append(
                (span.started_mono, span.ended_mono)
            )
    block_s = 0.0
    for spans in intervals.values():
        spans.sort()
        start, end = spans[0]
        for span_start, span_end in spans[1:]:
            if span_start > end:
                block_s += end - start
                start = span_start
            end = max(end, span_end)
        block_s += end - start
    store = CampaignStore(checkpoint)
    aggregate_s = _timed(store.partial_aggregates, degrade_missing=True)[1]
    dispatch_s = tele.section(dispatch_section)
    return {
        "campaign.spool_s": tele.timers.get(
            "campaign:spool", tele.section("campaign:traces")
        ),
        "campaign.dispatch_s": dispatch_s,
        "campaign.aggregate_s": aggregate_s,
        "campaign.checkpoint_bytes": sum(
            path.stat().st_size for path in checkpoint.rglob("*")
            if path.is_file()
        ),
        "executors.block_s": block_s,
        "executors.worker_idle_s": workers * dispatch_s - block_s,
        "executors.shards_completed": tele.count("campaign.shards_completed"),
        "executors.shard_retries": tele.count("campaign.shard_retries"),
    }


def durable_campaign(config: SimConfig, checkpoint: Path,
                    tele: Optional[Telemetry], **kwargs):
    """``run_durable_campaign`` on the fused engine, with *tele* passed in.

    The campaign's wall time is always taken from outside: the durable
    runner rebuilds its root ``campaign`` span after the run, so that
    span lasts about 0 s.
    """
    return run_durable_campaign(
        config, INTERVALS, checkpoint, engine="fused",
        metrics=tele and tele.metrics, profiler=tele and tele.profiler,
        spans=tele and tele.spans, **kwargs,
    )


def engine_layers(tele: Telemetry) -> Dict[str, float]:
    """``fused_engine.*`` from the engine's profiler sections and counters."""
    records = tele.count("fused.records")
    segments = tele.count("fused.segments")
    return {
        "fused_engine.decode_s": tele.section("engine:decode"),
        "fused_engine.replay_s": tele.section("engine:replay"),
        "fused_engine.records": records,
        "fused_engine.segments": segments,
        "fused_engine.run_length": records / segments,
        "fused_engine.cells_requested": tele.count("fused.cells_requested"),
        "fused_engine.cells_computed": tele.count("fused.cells_computed"),
        "fused_engine.rng_draws": tele.count("rng_draws"),
        "fused_engine.history_hits": tele.count("history_hits"),
    }


def _attack_share(traces: Sequence[Trace]) -> float:
    records = attacks = 0
    for trace in traces:
        props = trace_properties(trace)
        records += props["records"]
        attacks += props["attacks"]
    return 100.0 * attacks / records


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One benchmark workload, set up for one ``--seed``."""

    name = ""

    def __init__(self, config: SimConfig, seed: int) -> None:
        self.config = config
        self.seed = seed

    def run(self, tele: Optional[Telemetry] = None) -> Outcome:
        """The timed operation; *tele* turns on the program's telemetry."""
        raise NotImplementedError

    def blocking(self, tele: Telemetry, layers: Dict[str, float]) -> Dict[str, float]:
        """Seconds of every step the traced operation blocked on."""
        raise NotImplementedError

    def layers(self, tele: Telemetry, outcome: Outcome, workdir: Path):
        """Per-layer metrics of one traced operation, plus the results
        of the probes it ran (keyed for the oracle)."""
        raise NotImplementedError

    @staticmethod
    def cleanup(outcome: Outcome) -> None:
        if outcome.scratch is not None:
            shutil.rmtree(outcome.scratch, ignore_errors=True)


def _technique(name: str) -> Optional[str]:
    return None if name == "none" else name


def _serial_campaign(config, tele, checkpoint, trace_id, seeds, **kwargs):
    """The workload's grid through ``run_durable_campaign`` on the serial
    lane (``repro campaign --workers 0``): off an in-process workload's
    blocking path, it gives that workload's campaign and executor layers."""
    aggregates = durable_campaign(
        config, checkpoint, tele, techniques=PAPER_TECHNIQUES, seeds=seeds,
        include_unmitigated=True, workers=0, **kwargs,
    )
    results = {}
    for name, aggregate in aggregates.items():
        for result in aggregate.results:
            results[cell_key(trace_id, _technique(name), result.seed)] = result
    return results


class PaperTable3(Workload):
    """``repro table3``: nine paper techniques plus unmitigated, one seed.

    The paper's own workload.  Its mean run length is about 1, so the
    per-record decision pass dominates and run batching cannot help.
    """

    name = "paper-table3"

    def __init__(self, config: SimConfig, seed: int) -> None:
        super().__init__(config, seed)
        # registry set-up: every technique resolved before the first op
        self.factories = {name: make_factory(name) for name in PAPER_TECHNIQUES}
        self.trace_factory = default_trace_factory(config, INTERVALS)
        self.trace_id = paper_trace_id(seed)

    def run(self, tele=None) -> Outcome:
        comparison = compare_techniques(
            self.config, self.trace_factory, techniques=PAPER_TECHNIQUES,
            seeds=(self.seed,), include_unmitigated=True, engine="fused",
            metrics=tele and tele.metrics, profiler=tele and tele.profiler,
        )
        started = time.perf_counter()
        results = {name: agg.results[0] for name, agg in comparison.items()}
        comparison.pop("none")
        text = render_table3(self.config, comparison, table3_resources(self.config))
        if tele is not None:
            tele.timers["analysis:render"] = time.perf_counter() - started
        return Outcome(
            results={
                cell_key(self.trace_id, _technique(name), self.seed): result
                for name, result in results.items()
            },
            acts=results["none"].normal_activations * len(results),
            texts={table_key(self.trace_id, self.seed): text},
        )

    def blocking(self, tele, layers):
        out = {name: tele.section(name) for name in ("trace:grid",) + ENGINE_SECTIONS}
        out["analysis:render"] = layers["analysis.render_s"]
        return out

    def layers(self, tele, outcome, workdir):
        trace = make_trace(self.config, self.trace_id)
        probes = Probes(self.config)
        out = engine_layers(tele)
        out["traces.gen_s"] = tele.section("trace:grid")
        out["traces.records"] = trace.count()
        out["analysis.render_s"] = tele.timers["analysis:render"]
        out.update(probes.cells(self.trace_id, trace, self.seed))
        out.update(probes.spool([trace], workdir)[0])
        camp = Telemetry()
        checkpoint = workdir / "checkpoint"
        probes.results.update(_serial_campaign(
            self.config, camp, checkpoint, self.trace_id, (self.seed,)
        ))
        out.update(campaign_layers(camp, checkpoint, "campaign:inline", 1))
        out["workload.attack_share"] = _attack_share([trace])
        return out, probes.results


class FloodGrid(Workload):
    """A 60-cell ``run_simulation_grid`` on a single-row flooding trace.

    Run length is about the activation cap per interval and 27 of the
    60 cells deduplicate, so run batching and grid fan-out show here.
    """

    name = "flood-grid"

    def __init__(self, config: SimConfig, seed: int) -> None:
        super().__init__(config, seed)
        rows = config.geometry.rows_per_bank
        self.trace_id = flood_trace_id(
            random.Random(seed).randrange(rows // 4, 3 * rows // 4)
        )
        techniques = list(PAPER_TECHNIQUES) + [None]
        self.seeds = (2 * seed, 2 * seed + 1)
        self.cells = grid_cells(
            techniques, self.seeds, pbase_scales=PBASE_SCALES, config=config
        )
        # grid_cells order: technique-major, then seed, then scale
        self.axes = [
            (technique, cell_seed, scale)
            for technique in techniques
            for cell_seed in self.seeds
            for scale in PBASE_SCALES
        ]
        self.factories = {name: make_factory(name) for name in PAPER_TECHNIQUES}

    def run(self, tele=None) -> Outcome:
        trace, gen_s = _timed(make_trace, self.config, self.trace_id)
        results = run_simulation_grid(
            self.config, trace, self.cells,
            metrics=tele and tele.metrics, profiler=tele and tele.profiler,
        )
        if tele is not None:
            tele.timers["traces:gen"] = gen_s
        return Outcome(
            results={
                cell_key(self.trace_id, *axis): result
                for axis, result in zip(self.axes, results)
            },
            acts=trace.count() * len(self.cells),
        )

    def blocking(self, tele, layers):
        out = {name: tele.section(name) for name in ENGINE_SECTIONS}
        out["traces:gen"] = layers["traces.gen_s"]
        return out

    def layers(self, tele, outcome, workdir):
        trace = make_trace(self.config, self.trace_id)
        probes = Probes(self.config)
        out = engine_layers(tele)
        out["traces.gen_s"] = tele.timers["traces:gen"]
        out["traces.records"] = trace.count()
        out.update(probes.cells(self.trace_id, trace, self.seeds[0]))
        spool, (npz,) = probes.spool([trace], workdir)
        out.update(spool)
        # off the blocking path: the grid's pbase-1 cells as Table III
        comparison = {
            name: TechniqueAggregate(technique=name, results=[
                outcome.results[cell_key(self.trace_id, name, seed)]
                for seed in self.seeds
            ])
            for name in PAPER_TECHNIQUES
        }
        out["analysis.render_s"] = _timed(
            render_table3, self.config, comparison, table3_resources(self.config)
        )[1]
        # an external-trace campaign spools with the caller's
        # save_trace_npz, as ``repro campaign --trace-file`` does
        camp = Telemetry()
        camp.timers["campaign:spool"] = _timed(save_trace_npz, trace, npz)[1]
        checkpoint = workdir / "checkpoint"
        probes.results.update(_serial_campaign(
            self.config, camp, checkpoint, self.trace_id, self.seeds,
            trace_path=str(npz),
        ))
        out.update(campaign_layers(camp, checkpoint, "campaign:inline", 1))
        out["workload.attack_share"] = _attack_share([trace])
        return out, probes.results


class Campaign(Workload):
    """A durable LiPRoMi-plus-unmitigated campaign over many seeds."""

    lane = ""
    executor_section = ""

    def __init__(self, config: SimConfig, seed: int) -> None:
        super().__init__(config, seed)
        self.seeds = tuple(range(seed * CAMPAIGN_SEEDS, (seed + 1) * CAMPAIGN_SEEDS))
        self.techniques = ("LiPRoMi",)
        self.factories = {name: make_factory(name) for name in self.techniques}

    def executor(self, scratch: Path):
        raise NotImplementedError

    def run(self, tele=None) -> Outcome:
        scratch = Path(tempfile.mkdtemp(prefix="perfbench-"))
        aggregates = durable_campaign(
            self.config, scratch / "checkpoint", tele,
            techniques=self.techniques, seeds=self.seeds,
            include_unmitigated=True, workers=WORKERS,
            executor=self.executor(scratch),
        )
        results = {}
        acts = 0
        for name, aggregate in aggregates.items():
            for result in aggregate.results:
                results[cell_key(
                    paper_trace_id(result.seed), _technique(name), result.seed
                )] = result
                acts += result.normal_activations
        return Outcome(results=results, acts=acts, scratch=scratch)

    def blocking(self, tele, layers):
        # the runner's own final aggregation is the same call as the
        # one timed on the finished checkpoint
        return {
            name: layers[name]
            for name in ("campaign.spool_s", "campaign.dispatch_s",
                         "campaign.aggregate_s")
        }

    def layers(self, tele, outcome, workdir):
        probes = Probes(self.config)
        ids = [paper_trace_id(seed) for seed in self.seeds]
        traces, gen_s = [], 0.0
        for trace_id in ids:
            trace, seconds = _timed(make_trace, self.config, trace_id)
            traces.append(trace)
            gen_s += seconds
        out = {
            "traces.gen_s": gen_s,
            "traces.records": sum(trace.count() for trace in traces),
        }
        spool, paths = probes.spool(traces, workdir)
        out.update(spool)
        # the workers' engine work, replayed in-process decode by decode:
        # a pool block decodes once for both cells, a queue shard per cell
        engine = Profiler()
        names = (None,) + self.techniques
        groups = [names] if self.lane == "pool" else [(name,) for name in names]
        for seed, path in zip(self.seeds, paths):
            for group in groups:
                run_simulation_grid(
                    self.config, load_trace_npz(path),
                    [GridCell(technique=name, seed=seed) for name in group],
                    profiler=engine,
                )
        out.update(engine_layers(tele))
        out["fused_engine.decode_s"] = engine.sections["engine:decode"]["seconds"]
        out["fused_engine.replay_s"] = engine.sections["engine:replay"]["seconds"]
        out.update(probes.cells(ids[0], traces[0], self.seeds[0]))
        # off the blocking path: the first seed's cells as Table III
        comparison = {
            name: TechniqueAggregate(technique=name, results=[
                probes.results[cell_key(ids[0], name, self.seeds[0])]
            ])
            for name in PAPER_TECHNIQUES
        }
        out["analysis.render_s"] = _timed(
            render_table3, self.config, comparison, table3_resources(self.config)
        )[1]
        out.update(campaign_layers(
            tele, outcome.scratch / "checkpoint", self.executor_section, WORKERS
        ))
        out["workload.attack_share"] = _attack_share(traces)
        return out, probes.results


class CampaignSpool(Campaign):
    """``repro campaign --executor pool --workers 2``: the trace plane.

    Generation, ``save_trace_npz``, ``load_trace_npz``, decode and
    checkpoints, with one fused block (two cells) per seed.
    """

    name = "campaign-spool"
    lane = "pool"
    executor_section = "campaign:pool"

    def executor(self, scratch):
        return "pool"


class CampaignQueue(Campaign):
    """``repro campaign --executor queue --queue-workers 2``.

    The filesystem work queue: one ticket, lease and result file per
    cell, two spawned ``campaign-worker`` processes polling the queue.
    """

    name = "campaign-queue"
    lane = "queue"
    executor_section = "campaign:queue"

    def executor(self, scratch):
        return QueueExecutor(scratch / "queue", workers=WORKERS)


WORKLOADS = {
    cls.name: cls for cls in (PaperTable3, FloodGrid, CampaignSpool, CampaignQueue)
}

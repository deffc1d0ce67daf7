"""Differential test harness for the simulation engines.

The fused engine (:mod:`repro.sim.fused_engine`) is only allowed to exist
because this harness pins it field-for-field to the reference engine:
every comparison runs both engines over *identically generated* traces
and asserts that the two :class:`~repro.sim.metrics.SimResult` objects
agree on every field except ``wall_seconds``.

Traces are requested through a zero-argument factory rather than passed
as values: lazily generated traces are one-shot iterators, so handing
the same object to both engines would silently feed the second engine
an empty trace.  The factory is called once per engine, and determinism
of the generators makes the two traces identical.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.sim.engine import run_simulation
from repro.sim.fused_engine import run_simulation_fused
from repro.sim.metrics import SimResult
from repro.traces.record import Trace

TraceFactory = Callable[[], Trace]


def diff_results(
    reference: SimResult, candidate: SimResult
) -> Dict[str, Tuple[Any, Any]]:
    """Fields on which the two results disagree (``wall_seconds`` excluded).

    Returns ``{field: (reference_value, candidate_value)}`` -- empty
    when the results are equivalent.
    """
    ref = reference.as_dict()
    cand = candidate.as_dict()
    return {
        key: (ref[key], cand[key])
        for key in ref
        if ref[key] != cand[key]
    }


def assert_engines_equivalent(
    config,
    trace_factory: TraceFactory,
    mitigation_factory,
    seed: int = 0,
    **engine_kwargs,
) -> SimResult:
    """Run both engines and assert result equivalence.

    ``engine_kwargs`` (``refresh_policy``, ``stop_after_first_trigger``,
    ``max_activations``) are forwarded to both engines.  Returns the
    reference result so callers can make further assertions on it.
    """
    reference = run_simulation(
        config, trace_factory(), mitigation_factory, seed=seed, **engine_kwargs
    )
    fused = run_simulation_fused(
        config, trace_factory(), mitigation_factory, seed=seed, **engine_kwargs
    )
    differences = diff_results(reference, fused)
    assert not differences, (
        f"engines diverged for technique={reference.technique!r} "
        f"seed={seed} kwargs={engine_kwargs!r}:\n"
        + "\n".join(
            f"  {field}: reference={ref!r} fused={cand!r}"
            for field, (ref, cand) in differences.items()
        )
    )
    return reference


def assert_grid_equivalent(
    config,
    trace_factory: TraceFactory,
    cells,
    reference_engine=run_simulation,
    **engine_kwargs,
):
    """Run a fused cell grid and pin every cell to a solo reference run.

    ``cells`` is a sequence of :class:`repro.sim.fused_engine.GridCell`.
    The trace is materialised once and shared -- exactly the fused
    engine's contract (one grid call, one fixed trace) -- then each
    cell's fused result is diffed field-for-field (flips included)
    against ``reference_engine`` run solo with that cell's config, seed
    and mitigation factory.  ``engine_kwargs`` (``refresh_policy``,
    ``stop_after_first_trigger``, ``max_activations``) are forwarded to
    both sides.  Returns the fused results for further assertions.
    """
    from repro.mitigations.registry import make_factory
    from repro.sim.fused_engine import run_simulation_grid

    trace = trace_factory().materialize()
    fused = run_simulation_grid(config, trace, cells, **engine_kwargs)
    assert len(fused) == len(cells)
    for cell, candidate in zip(cells, fused):
        cell_config = cell.config if cell.config is not None else config
        mitigation_factory = (
            make_factory(cell.technique, **dict(cell.kwargs))
            if cell.technique
            else None
        )
        reference = reference_engine(
            cell_config, trace, mitigation_factory, seed=cell.seed,
            **engine_kwargs,
        )
        differences = diff_results(reference, candidate)
        assert not differences, (
            f"fused grid diverged from {reference_engine.__name__} at "
            f"cell technique={cell.technique!r} seed={cell.seed} "
            f"pbase={cell_config.pbase} kwargs={engine_kwargs!r}:\n"
            + "\n".join(
                f"  {field}: reference={ref!r} fused={cand!r}"
                for field, (ref, cand) in differences.items()
            )
        )
    return fused


def assert_telemetry_transparent(
    config,
    trace_factory: TraceFactory,
    mitigation_factory,
    seed: int = 0,
    engine: str = "reference",
    **engine_kwargs,
):
    """Assert that enabled telemetry does not perturb the result.

    Runs *engine* twice over identically generated traces -- once bare,
    once with a :class:`RecordingTracer` and a fresh
    :class:`MetricsRegistry` -- and asserts the two ``SimResult``\\ s are
    field-for-field identical.  Telemetry only observes (it never draws
    from the RNG streams or mutates simulation state), so any
    divergence here is a hook placed on the decision path.

    Returns ``(result, tracer, metrics)`` from the instrumented run for
    further assertions on the event stream.
    """
    from repro.sim.engine import get_engine
    from repro.telemetry import MetricsRegistry, RecordingTracer

    run = get_engine(engine)
    bare = run(
        config, trace_factory(), mitigation_factory, seed=seed, **engine_kwargs
    )
    tracer = RecordingTracer()
    metrics = MetricsRegistry()
    observed = run(
        config, trace_factory(), mitigation_factory, seed=seed,
        tracer=tracer, metrics=metrics, **engine_kwargs
    )
    differences = diff_results(bare, observed)
    assert not differences, (
        f"telemetry perturbed the {engine} engine for "
        f"technique={bare.technique!r} seed={seed}:\n"
        + "\n".join(
            f"  {field}: bare={ref!r} observed={cand!r}"
            for field, (ref, cand) in differences.items()
        )
    )
    return observed, tracer, metrics

"""Golden-result regression tests.

A committed fixture trace plus the expected ``SimResult`` of all nine
techniques (and the unmitigated baseline) pin the end-to-end simulation
semantics: any change to disturbance accounting, RNG discipline, or
mitigation behaviour shows up here as a concrete field-level diff.

If a change is *intentional*, regenerate the fixtures with
``PYTHONPATH=src python tests/fixtures/make_golden.py`` and explain the
semantic change in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.mitigations.registry import make_factory
from repro.sim.engine import get_engine
from repro.sim.metrics import SimResult
from repro.traces.trace_io import load_trace

from tests.fixtures.make_golden import (
    RESULTS_PATH,
    SEED,
    TRACE_PATH,
    golden_config,
)

GOLDEN = json.loads(Path(RESULTS_PATH).read_text())


def _expected(technique: str) -> dict:
    return GOLDEN["results"][technique]


# The "fast" case feeds the fused engine a lazy trace that streams from
# disk in one pass, so the on-demand tape pulls every block as the
# decision walk reaches it. The id keeps the name of the engine that
# used to own this streaming path.
@pytest.mark.parametrize(
    "engine, lazy",
    [("reference", False), ("fused", False), ("fused", True)],
    ids=["reference", "fused", "fast"],
)
@pytest.mark.parametrize("technique", sorted(GOLDEN["results"]))
def test_golden_result(technique, engine, lazy):
    config = golden_config()
    assert load_trace(TRACE_PATH).count() == GOLDEN["records"]
    trace = load_trace(TRACE_PATH, lazy=lazy)
    factory = make_factory(technique) if technique != "none" else None
    result = get_engine(engine)(config, trace, factory, seed=SEED)
    assert result.as_dict() == _expected(technique), (
        "golden drift -- if intentional, regenerate via "
        "tests/fixtures/make_golden.py"
    )


def test_golden_covers_all_techniques():
    from repro.mitigations.registry import technique_names

    assert sorted(GOLDEN["results"]) == sorted(technique_names() + ["none"])
    assert sorted(GOLDEN["campaign"]) == sorted(technique_names() + ["none"])


@pytest.mark.parametrize("engine", ["reference", "fused"])
def test_golden_campaign_aggregates(engine):
    """Canonical per-cell campaign aggregates are engine-invariant.

    The fused engine runs the campaign as whole-grid blocks (one trace
    decode per seed); every per-(technique, seed) cell must still equal
    the committed per-cell reference aggregates field-for-field.
    """
    from tests.fixtures.make_golden import CAMPAIGN_SEEDS, golden_campaign

    campaign = golden_campaign(engine)
    assert sorted(campaign) == sorted(GOLDEN["campaign"])
    for technique, aggregate in campaign.items():
        assert [r.seed for r in aggregate.results] == list(CAMPAIGN_SEEDS)
        assert [
            result.as_dict() for result in aggregate.results
        ] == GOLDEN["campaign"][technique], (
            f"campaign golden drift for {technique!r} on the {engine} "
            "engine -- if intentional, regenerate via "
            "tests/fixtures/make_golden.py"
        )


def test_golden_roundtrips_through_from_dict():
    """The serialised golden results reconstruct into SimResult objects."""
    for technique, payload in GOLDEN["results"].items():
        result = SimResult.from_dict(payload)
        assert result.as_dict() == payload
        assert result.technique == (technique if technique != "none" else "none")

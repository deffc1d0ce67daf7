"""Hypothesis properties of the fused engine's per-cell state.

The fused deciders mirror each mitigation's tables with batched /
vectorised updates; these properties pin the structural invariants the
bit-exact differential suite cannot name individually:

* weight-table normalisation -- every probability a TiVaPRoMi lane
  computes or caches stays in ``[0, 1]`` whatever the activation stream;
* history-FIFO eviction order -- the insertion-ordered dict mirroring
  the paper's FIFO history table evicts exactly the oldest entry and
  never exceeds capacity;
* counter-table monotonicity -- CaPRoMi counter entries only grow
  between refreshes, locks never release, drops never decrease, and the
  TWiCe lifetime counters stay strictly below the trigger threshold;
* cell slicing -- any cell of a fused grid equals a solo
  reference-engine run with the same (technique, seed, pbase);
* device-pass agreement -- the columnar device pass and the scalar
  device function give the same flips and ``max_disturbance`` for any
  tape and any sparse list of mitigating ACTs.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import small_test_config
from repro.dram.refresh import all_policies
from repro.mitigations.base import (
    ActivateNeighbors,
    RecoveryRefresh,
    RefreshRow,
)
from repro.mitigations.registry import (
    make_factory,
    make_mitigation,
    technique_names,
)
from repro.sim.engine import run_simulation
from repro.sim.fused_engine import (
    _CaPRoMiDecider,
    _Lane,
    _Shared,
    _Tape,
    _TiVaPRoMiDecider,
    _TWiCeDecider,
    _device_columnar,
    _device_scalar,
    grid_cells,
)
from repro.traces.attacker import AttackSpec
from repro.traces.mixer import build_trace
from repro.traces.record import Trace, TraceMeta, TraceRecord
from repro.traces.workload import WorkloadParams

CONFIG = small_test_config()
ROWS = CONFIG.geometry.rows_per_bank

#: one batched decision: activate ``row`` ``count`` times in ``interval``
runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=ROWS - 1),  # row
        st.integers(min_value=0, max_value=3),         # interval step
        st.integers(min_value=1, max_value=12),        # run length
    ),
    min_size=1,
    max_size=60,
)

tiva_techniques = st.sampled_from(["LiPRoMi", "LoPRoMi", "LoLiPRoMi"])


def _drive(decider, stream):
    """Feed a Hypothesis run stream; yield after every decision."""
    interval = 0
    for row, step, count in stream:
        interval += step
        decider.decide_run(row, interval, count)
        yield interval


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(technique=tiva_techniques, seed=st.integers(0, 50), stream=runs)
def test_weight_table_normalisation(technique, seed, stream):
    """Every cached slot probability and every live query is in [0, 1]."""
    decider = _TiVaPRoMiDecider(
        make_mitigation(technique, CONFIG, bank=0, seed=seed)
    )
    for interval in _drive(decider, stream):
        assert all(0.0 <= p <= 1.0 for p in decider._slot_p.values())
        for row, _, _ in stream[:5]:
            assert 0.0 <= decider._probability(row, interval) <= 1.0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(technique=tiva_techniques, seed=st.integers(0, 50), stream=runs)
def test_history_fifo_eviction_order(technique, seed, stream):
    """The history table is a capacity-bounded FIFO: re-triggering a
    resident row updates it in place, inserting a new row at capacity
    evicts exactly the oldest resident."""
    decider = _TiVaPRoMiDecider(
        make_mitigation(technique, CONFIG, bank=0, seed=seed)
    )
    capacity = decider.capacity
    model: dict = {}
    interval = 0
    for row, step, _ in stream:
        interval += step
        decider._record_trigger(row, interval)
        if row in model:
            model[row] = interval % decider.refint
        else:
            if len(model) >= capacity:
                del model[next(iter(model))]
            model[row] = interval % decider.refint
        assert len(decider.table) <= capacity
        assert list(decider.table.items()) == list(model.items())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50), stream=runs)
def test_counter_table_monotonicity(seed, stream):
    """Between refreshes, a resident CaPRoMi counter never decreases, a
    locked entry never unlocks (and is never evicted), and the drop
    counter never decreases."""
    decider = _CaPRoMiDecider(
        make_mitigation("CaPRoMi", CONFIG, bank=0, seed=seed)
    )
    counters = decider.mitigation.counters
    snapshot: dict = {}
    dropped = 0
    for _ in _drive(decider, stream):
        present = {entry.row: entry for entry in counters.entries()}
        assert len(present) <= counters.capacity
        for row in list(snapshot):
            if row not in present:
                # only unlocked entries are evictable
                assert not snapshot[row][1]
                del snapshot[row]
        for row, entry in present.items():
            previous = snapshot.get(row)
            if previous is not None:
                count_before, locked_before = previous
                assert entry.count >= count_before
                assert entry.locked or not locked_before
            if entry.locked:
                assert entry.count >= counters.lock_threshold
            snapshot[row] = (entry.count, entry.locked)
        assert counters.dropped >= dropped
        dropped = counters.dropped


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 50), stream=runs)
def test_twice_counters_stay_below_threshold(seed, stream):
    """The TWiCe bulk update preserves the per-record invariant:
    stored lifetime counts are always strictly below the trigger
    threshold (a count reaching it fires and resets inside the run)."""
    decider = _TWiCeDecider(
        make_mitigation("TWiCe", CONFIG, bank=0, seed=seed)
    )
    threshold = decider.mitigation.trigger_threshold
    for _ in _drive(decider, stream):
        table = decider.mitigation._table
        assert all(entry.count < threshold for entry in table.values())


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    technique=st.sampled_from(technique_names()),
    seed=st.integers(min_value=0, max_value=100),
    rate=st.integers(min_value=1, max_value=60),
    aggressor=st.integers(min_value=1, max_value=ROWS - 2),
)
def test_fused_cell_slice_equals_solo_reference_run(
    technique, seed, rate, aggressor
):
    """Slicing a fused grid at any cell gives exactly the solo reference
    engine's result for that (technique, seed, pbase)."""
    from repro.sim.fused_engine import run_simulation_grid

    trace = build_trace(
        CONFIG,
        16,
        benign_params=WorkloadParams(avg_acts_per_interval=8),
        attacks=[
            AttackSpec(
                bank=0, aggressors=(aggressor,), acts_per_interval=rate,
                name="prop",
            )
        ],
        seed=seed,
    ).materialize()
    cells = grid_cells(
        [technique, None], (seed, seed + 1),
        pbase_scales=(1.0, 2.0), config=CONFIG,
    )
    results = run_simulation_grid(CONFIG, trace, cells)
    for cell, result in zip(cells, results):
        cell_config = cell.config or CONFIG
        solo = run_simulation(
            cell_config, trace,
            make_factory(cell.technique) if cell.technique else None,
            seed=cell.seed,
        )
        assert solo.as_dict() == result.as_dict()


#: one run of identical records: bank, row, length, attack flag and the
#: number of refresh intervals to advance before it
device_runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),   # bank (mod num_banks)
        st.integers(min_value=0, max_value=63),  # row
        st.integers(min_value=1, max_value=25),  # run length
        st.booleans(),                           # is_attack
        st.integers(min_value=0, max_value=3),   # interval step
    ),
    min_size=1,
    max_size=40,
)

#: one buffered mitigating action: where it lands (a fraction of the
#: tape and of the interval span allowed there) and what it activates
device_actions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),  # tape position
        st.floats(min_value=0.0, max_value=1.0),  # interval within reach
        st.integers(min_value=0, max_value=2),    # bank
        st.sampled_from(["row", "neighbors", "recovery"]),
        st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                 max_size=3),
    ),
    max_size=12,
)


def _device_input(config, policy, runs, actions, prefix, tail):
    """A tape plus a decision lane holding a consistent sparse ACT list.

    Each action is applied at a tape position *pos* in an interval the
    lane can be in there: from the interval of record ``pos - 1`` to that
    of record ``pos`` (a ``ref`` tick in between), or up to the last
    interval after the tape.  The lane replays the first *prefix*
    fraction of the records, like a cell stopped early.
    """
    geometry = config.geometry
    interval_ns = 1_000
    records = []
    interval = 0
    for bank, row, length, is_attack, step in runs:
        interval += step
        offset = records[-1].time_ns + 1 if records and not step else (
            interval * interval_ns
        )
        for index in range(length):
            time_ns = min(offset + index, (interval + 1) * interval_ns - 1)
            records.append(TraceRecord(
                time_ns, bank % geometry.num_banks, row, is_attack
            ))
    total = interval + 1 + tail
    trace = Trace(TraceMeta(total, interval_ns, geometry.num_banks), records)
    tape = _Tape(trace)
    tape.read()
    shared = _Shared(geometry, policy, tape, False, None)
    lane = _Lane(shared, None, 0, config, None)
    done = round(prefix * len(records))
    lane.activation_index = done
    times = shared.times
    intervals = [time_ns // interval_ns for time_ns in times]
    applied = []
    for where, when, bank, kind, rows in actions:
        pos = round(where * done)
        low = intervals[pos - 1] if pos else 0
        high = intervals[pos] if pos < done else total - 1
        applied.append((pos, low + round(when * (high - low)), bank, kind, rows))
    applied.sort(key=lambda action: action[:2])
    for pos, at_interval, bank, kind, rows in applied:
        if kind == "row":
            action = RefreshRow(row=rows[0], trigger_row=rows[-1])
        elif kind == "neighbors":
            action = ActivateNeighbors(row=rows[0])
        else:
            action = RecoveryRefresh(rows=tuple(rows), trigger_row=rows[0])
        if pos < done and at_interval == intervals[pos]:
            time_ns = times[pos]
        else:
            time_ns = times[pos - 1] if pos else 0
        for row in shared.activated_rows(action):
            lane.extras.append(
                (pos, at_interval, bank % geometry.num_banks, row, time_ns)
            )
    return shared, lane


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    banks=st.integers(min_value=1, max_value=3),
    subarrays=st.sampled_from([1, 4]),
    threshold=st.integers(min_value=3, max_value=40),
    policy_index=st.integers(min_value=0, max_value=3),
    runs=device_runs,
    actions=device_actions,
    prefix=st.sampled_from([1.0, 1.0, 0.5]),
    tail=st.integers(min_value=0, max_value=20),
)
def test_columnar_device_pass_equals_scalar(
    banks, subarrays, threshold, policy_index, runs, actions, prefix, tail
):
    """Multi-bank tapes whose runs cross the flip threshold mid-run, with
    mitigating ACTs on both sides of ``ref`` ticks (``RecoveryRefresh``
    fan-out included), on subarray-split geometries under every refresh
    policy: the numpy segmented counts equal the per-ACT counter dicts."""
    config = small_test_config(
        rows_per_bank=64, rows_per_interval=4, num_banks=banks,
        flip_threshold=threshold, subarrays_per_bank=subarrays,
    )
    policy = all_policies(config.geometry, seed=3)[policy_index]
    shared, lane = _device_input(config, policy, runs, actions, prefix, tail)
    peak, flips = _device_columnar(shared, lane)
    scalar_peak, scalar_flips = _device_scalar(shared, lane)
    assert peak == scalar_peak
    assert flips == scalar_flips

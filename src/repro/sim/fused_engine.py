"""Structure-of-arrays fused engine: one trace pass, a whole cell grid.

The production engine, kept field-for-field result-identical to the
pure-python reference loop of :mod:`repro.sim.engine`.  The paper's
headline numbers are *campaigns*: the same activation trace replayed
under nine techniques, several seeds, and a pbase grid.  This engine
decodes the trace **once** into structure-of-arrays form and evaluates
the entire ``(technique, seed, pbase)`` cell grid against it; a single
run is the one-cell grid.

Layout and strategy
-------------------

* **SoA trace tape** -- the record stream is decoded into parallel
  record columns plus a precomputed run-length *segment schedule*
  (maximal runs of identical records, split at refresh-interval
  boundaries).  Segmentation is cell-independent: the refresh clock is
  driven purely by record timestamps, so every cell shares one tape.
  A run that may stop early (``stop_after_first_trigger``,
  ``max_activations``) decodes the tape in blocks as its lanes reach
  them, so a lazy trace generates only what the run reads.
* **Decision pass** -- mitigations see only the ACT stream and ``ref``
  ticks, never device state, so each computed cell's *lane* walks the
  segment schedule driving only its deciders.  It keeps the mitigation
  counts (triggers, extra and false-positive ACTs, buffer occupancy,
  first trigger) and records every mitigating ACT it applies -- bank,
  row, timestamp and its position among the records and ``ref`` ticks.
  Per-cell RNG streams derive from the existing
  ``derive_seed(seed, "mitigation", bank)`` scheme, so every lane is
  bit-identical to a solo reference-engine run.  Empty intervals are
  skipped in one step when every decider's ``on_refresh`` is
  decision-free.
* **Device pass** -- flips and ``max_disturbance`` follow afterwards
  from the tape plus that sparse ACT list.  A victim's disturbance is
  the run-weighted number of neighbour ACTs since its last restore (its
  own ACT or the periodic refresh of its slot).  This is a columnar
  pass of segmented counts over the run-weighted segments, one bank at
  a time: the unmitigated baseline is computed once per tape and each
  lane recounts only the victims its mitigating ACTs touch.  Under
  Half-Double coupling (``distance2_rate > 0``, whose fractional counts
  accumulate one ACT at a time) and for runs that stop early (whose
  tape is read block by block), one scalar device function replays the
  same input through counter dicts.
* **Cell dedup** -- mitigation classes declare ``consumes_rng`` /
  ``consumes_pbase`` traits.  TWiCe and CRA consume neither, so their
  seed x pbase plane collapses to one computed cell; PARA, ProHit and
  MRLoc ignore ``pbase``, collapsing that axis.  Results are replicated
  to the requested cells with the ``seed`` field fixed up.
* **Batched deciders** -- the probabilistic techniques pre-draw their
  Mersenne-Twister ``random()`` values in blocks (the *k*-th draw is the
  same value eagerly or batched; PARA rewinds its generator before the
  ``randrange`` of a trigger) and scan them as numpy arrays.  A run of
  identical records is decided in one step: a row's trigger
  probability is constant between triggers within an interval.  On
  short runs PARA and the three TiVaPRoMi variants scan a bank's whole
  record stream at once and take one scalar step per trigger, and the
  unmitigated lane skips the decision walk altogether.  The table-based
  techniques (TWiCe, CRA, CaPRoMi) collapse a run of ``n`` identical
  activations into one arithmetic update; ProHit and MRLoc detect their
  steady table state and scan the remaining draws in bulk.  Any other
  technique runs as its real ``Mitigation`` object, one record at a
  time.

Exact equivalence to the reference engine on every cell is the
non-negotiable invariant, enforced by ``tests/sim/test_fused_differential.py``
via :func:`tests.harness.assert_grid_equivalent`; the two device passes
are pinned to each other by a Hypothesis property in
``tests/sim/test_fused_properties.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import islice
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as _np

from repro.config import DRAMGeometry, SimConfig
from repro.controller.controller import MitigationFactory
from repro.core.capromi import CaPRoMi
from repro.core.tivapromi import LiPRoMi, LoLiPRoMi, LoPRoMi, TiVaPRoMiBase
from repro.core.weights import linear_weight, log_weight, trigger_probability
from repro.dram.disturbance import FlipEvent
from repro.dram.refresh import RefreshPolicy, SequentialRefresh
from repro.mitigations.base import (
    ActivateNeighbors,
    Mitigation,
    RecoveryRefresh,
    RefreshRow,
)
from repro.mitigations.cra import CRA
from repro.mitigations.mrloc import MRLoc
from repro.mitigations.para import PARA
from repro.mitigations.prohit import ProHit
from repro.mitigations.registry import (
    make_factory,
    resolve_technique,
    technique_class,
)
from repro.mitigations.twice import TWiCe, _Entry
from repro.rng import derive_seed
from repro.sim.metrics import SimResult
from repro.telemetry.hooks import EngineTelemetry
from repro.telemetry.profiler import section_of
from repro.traces.record import Trace

#: block size for the pre-drawn ``random()`` buffers of the deciders
_BLOCK = 4096

#: PARA's block: a trigger replays the consumed part of the block to
#: rewind its generator, so a short block keeps that replay cheap
_PARA_BLOCK = 256

#: records decoded per tape read (and per chunk of a whole-trace
#: decode): a run that stops early reads at most one block past the run
#: of records it stops in
_TAPE_BLOCK = 32

#: draw spans shorter than this are scanned in Python, where numpy's
#: per-call overhead would exceed the loop
_NUMPY_SCAN_MIN = 64

#: minimum number of empty intervals before the span short-circuit is
#: cheaper than ticking through them
_SKIP_THRESHOLD = 4

#: mean records per segment below which lanes scan whole banks in bulk:
#: on one-record runs (the paper's mixed workload, 1.002) a bulk scan
#: beats a per-segment walk; on long runs (flooding, ~165) the walk's
#: one ``decide_run`` per run is cheaper than scanning every record
_BULK_RUN_LENGTH = 2

#: sentinel pbase used to canonicalise configs of techniques that do not
#: consume ``pbase`` when building dedup keys (any valid value works --
#: it only has to be the *same* value for every such cell)
_PBASE_DONT_CARE = 0.5


# ---------------------------------------------------------------------------
# public cell grid specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    """One requested cell of the fused campaign grid.

    ``technique`` is a registry name (``None`` = unmitigated baseline);
    ``config`` optionally overrides the base config (typically only
    ``pbase`` differs); ``kwargs`` are extra mitigation-factory keyword
    arguments as a sorted tuple of pairs.
    """

    technique: Optional[str]
    seed: int = 0
    config: Optional[SimConfig] = None
    kwargs: Tuple[Tuple[str, Any], ...] = ()


def grid_cells(
    techniques: Sequence[Optional[str]],
    seeds: Sequence[int],
    pbase_scales: Sequence[float] = (1.0,),
    config: Optional[SimConfig] = None,
) -> List[GridCell]:
    """Build the full ``technique x seed x pbase`` cell grid.

    ``pbase_scales`` multiply ``config.pbase``; duplicate scales (after
    float coercion, so ``"0.1"`` and ``"1e-1"`` collapse) are dropped.
    ``config=None`` leaves per-cell configs unset (the grid call's base
    config applies), which requires ``pbase_scales == (1.0,)``.
    """
    scales: List[float] = []
    for scale in pbase_scales:
        value = float(scale)
        if value not in scales:
            scales.append(value)
    cells = []
    for technique in techniques:
        for seed in seeds:
            for scale in scales:
                if scale == 1.0:
                    cell_config = config
                elif config is None:
                    raise ValueError(
                        "pbase_scales != 1.0 require an explicit config"
                    )
                else:
                    cell_config = config.scaled(pbase=config.pbase * scale)
                cells.append(
                    GridCell(technique=technique, seed=seed, config=cell_config)
                )
    return cells


@dataclass
class _Plan:
    """Internal resolved cell: factory + config + dedup key."""

    factory: Optional[MitigationFactory]
    seed: int
    config: SimConfig
    key: Optional[Tuple]  # None = never deduplicated


def _plan_cell(cell: GridCell, base_config: SimConfig) -> _Plan:
    config = cell.config if cell.config is not None else base_config
    if cell.technique is None:
        # the unmitigated baseline consumes neither RNG nor pbase
        key = (None, cell.kwargs, None, replace(config, pbase=_PBASE_DONT_CARE))
        return _Plan(None, cell.seed, config, key)
    name = resolve_technique(cell.technique)
    cls = technique_class(name)
    factory = make_factory(name, **dict(cell.kwargs))
    consumes_rng = getattr(cls, "consumes_rng", True)
    consumes_pbase = getattr(cls, "consumes_pbase", True)
    eff_seed = cell.seed if consumes_rng else None
    eff_config = (
        config if consumes_pbase else replace(config, pbase=_PBASE_DONT_CARE)
    )
    key = (name, cell.kwargs, eff_seed, eff_config)
    return _Plan(factory, cell.seed, config, key)


# ---------------------------------------------------------------------------
# SoA trace tape
# ---------------------------------------------------------------------------


class _Columns(NamedTuple):
    """The segment schedule as numpy columns, one entry per segment."""

    starts: Any
    lengths: Any
    banks: Any
    rows: Any
    attacks: Any
    intervals: Any


class _Tape:
    """The decoded trace: record timestamps plus the segment schedule.

    ``segments`` is a list of ``(start, end, bank, row, is_attack,
    interval)`` tuples -- maximal runs of identical records that never
    cross a refresh-interval boundary.  ``interval`` is the running
    maximum of the record intervals: the interval a lane is in while it
    replays the segment (a lane's refresh clock never runs backwards).

    Records are decoded on demand: :meth:`walk` reads blocks of
    ``_TAPE_BLOCK`` records as a decision walk reaches them, so a run
    that stops early makes a lazy trace generate only the blocks it
    reads, and :meth:`read` with no count decodes everything left.  The
    last run read stays *open* -- out of ``segments`` -- until a
    differing record or the end of the trace closes it, so the schedule
    never depends on where the blocks fall.  A tape decoded whole also
    keeps the schedule as ``columns`` for the bulk scans and the
    columnar device pass.
    """

    __slots__ = (
        "times", "segments", "interval_ns", "total_intervals", "_records",
        "_banks", "_rows", "_attacks", "_scanned", "_open", "_key",
        "_ceiling", "columns",
    )

    def __init__(self, trace: Trace):
        meta = trace.meta
        self.interval_ns = meta.interval_ns
        self.total_intervals = meta.total_intervals
        self._records: Optional[Iterator] = iter(trace)
        self.times: List[int] = []
        self._banks: List[int] = []
        self._rows: List[int] = []
        self._attacks: List[bool] = []
        self.segments: List[Tuple[int, int, int, int, bool, int]] = []
        self._scanned = 0  # records segmented so far
        self._open = 0  # first record of the open run
        self._key: Optional[Tuple] = None  # its (bank, row, attack, interval)
        self._ceiling = 0  # its running-maximum interval
        self.columns: Optional[_Columns] = None

    @property
    def complete(self) -> bool:
        """Whether every record is decoded and every segment closed."""
        return self._records is None

    def read(self, count: Optional[int] = None) -> bool:
        """Decode up to *count* more records (everything left when
        ``None``); ``False`` once the tape is complete."""
        records = self._records
        if records is None:
            return False
        fresh = not self.times
        while True:
            want = _TAPE_BLOCK if count is None else count
            block = list(islice(records, want))
            if block:
                times, banks, rows, attacks = zip(*block)
                self.times.extend(times)
                self._banks.extend(banks)
                self._rows.extend(rows)
                self._attacks.extend(attacks)
            if len(block) < want:
                self._records = None
                break
            if count is not None:
                break
        if fresh and self._records is None:
            self._segment_columns()
        else:
            self._segment()
        if self._records is None:
            # the closed segments share these decoded int objects
            self._banks = self._rows = self._attacks = []
        return True

    def walk(self):
        """The segment schedule, read block by block as it is walked."""
        if self.complete:
            return iter(self.segments)
        return self._walk()

    def _walk(self):
        k = 0
        while True:
            # a read that ends the trace may rebuild ``segments`` whole
            if k < len(self.segments):
                yield self.segments[k]
                k += 1
            elif not self.read(_TAPE_BLOCK):
                return

    def _segment(self) -> None:
        """Extend the schedule over the records read since the last
        call, closing every run a later record (or the end of the trace)
        bounds."""
        times = self.times
        n = len(times)
        scanned = self._scanned
        interval_ns = self.interval_ns
        segments = self.segments
        start = self._open
        key = self._key
        if key is None:
            bank = row = attack = interval = None
        else:
            bank, row, attack, interval = key
        ceiling = self._ceiling
        for i, b, r, a, time_ns in zip(
            range(scanned, n), self._banks[scanned:], self._rows[scanned:],
            self._attacks[scanned:], times[scanned:],
        ):
            iv = time_ns // interval_ns
            if b != bank or r != row or a != attack or iv != interval:
                if i:  # close the previous run
                    segments.append((start, i, bank, row, attack, ceiling))
                    if iv > ceiling:
                        ceiling = iv
                else:
                    ceiling = iv
                start = i
                bank, row, attack, interval = b, r, a, iv
        if start < n and self.complete:
            segments.append((start, n, bank, row, attack, ceiling))
            start = n
        self._scanned = n
        self._open = start
        if n:
            self._key = (bank, row, attack, interval)
        self._ceiling = ceiling

    def _segment_columns(self) -> None:
        """:meth:`_segment` of a whole trace decoded at once, vectorised."""
        times = self.times
        n = len(times)
        ta = _np.asarray(times, dtype=_np.int64)
        ba = _np.asarray(self._banks, dtype=_np.int32)
        ra = _np.asarray(self._rows, dtype=_np.int32)
        aa = _np.asarray(self._attacks, dtype=bool)
        iv = ta // self.interval_ns
        change = _np.ones(n, dtype=bool)
        change[1:] = (
            (ba[1:] != ba[:-1])
            | (ra[1:] != ra[:-1])
            | (aa[1:] != aa[:-1])
            | (iv[1:] != iv[:-1])
        )
        starts = _np.flatnonzero(change)
        intervals = _np.maximum.accumulate(iv[starts]).astype(_np.int32)
        self.columns = _Columns(
            starts, _np.diff(_np.append(starts, n)).astype(_np.int32),
            ba[starts], ra[starts], aa[starts], intervals,
        )
        begins = starts.tolist()
        banks = self._banks
        rows = self._rows
        attacks = self._attacks
        self.segments = [
            (start, end, banks[start], rows[start], attacks[start], interval)
            for start, end, interval in zip(
                begins, begins[1:] + [n], intervals.tolist()
            )
        ]
        self._scanned = self._open = n


# ---------------------------------------------------------------------------
# deciders (all bit-exact ports -- see tests/sim/test_fused_differential)
# ---------------------------------------------------------------------------


class _GenericDecider:
    """Adapter driving a real :class:`Mitigation` object.

    Used for techniques without a specialised decider (any user-supplied
    factory, and the base of the table deciders): decisions are made by
    the reference implementation itself, so equivalence is by
    construction.
    """

    __slots__ = ("mitigation", "trivial_refresh")

    def __init__(self, mitigation: Mitigation):
        self.mitigation = mitigation
        # a mitigation that inherits the base no-op on_refresh has no
        # refresh-time state at all, so empty intervals can be skipped
        self.trivial_refresh = (
            type(mitigation).on_refresh is Mitigation.on_refresh
        )

    def attach_telemetry(self, telemetry) -> None:
        # the wrapped reference mitigation owns the technique hooks
        self.mitigation.telemetry = telemetry

    @property
    def name(self) -> str:
        return self.mitigation.name

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return getattr(self.mitigation, "table_occupancy", None)

    def on_activation(self, row: int, interval: int):
        return self.mitigation.on_activation(row, interval)

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)

    def clear_window(self) -> None:
        # only reachable when trivial_refresh, i.e. on_refresh is the
        # stateless base no-op: nothing to clear
        pass


class _RunMethodDecider(_GenericDecider):
    """Run-batching adapter for techniques exposing ``observe_run``.

    A technique that can consume a run of identical activations in one
    step (the modern counter families) implements
    ``observe_run(row, interval, count) -> (clean, actions)`` with the
    same contract as :meth:`_TiVaPRoMiDecider.decide_run`; this adapter
    simply forwards, keeping the batching arithmetic inside the
    technique module while decisions remain the reference object's own.
    """

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        return self.mitigation.observe_run(row, interval, count)


class _DrawScan:
    """Scans over a pre-drawn ``random()`` block ``self._buf``."""

    __slots__ = ()

    def _mirror(self):
        """Lazy numpy mirror of the current block."""
        buf = self._buf
        if self._arr_src is not buf:
            self._arr = _np.asarray(buf)
            self._arr_src = buf
        return self._arr

    def _first_below(self, start: int, end: int, p: float) -> Optional[int]:
        """Index of the first draw in ``_buf[start:end]`` below *p*."""
        if end - start < _NUMPY_SCAN_MIN:
            buf = self._buf
            for index in range(start, end):
                if buf[index] < p:
                    return index
            return None
        hits = _np.flatnonzero(self._mirror()[start:end] < p)
        return start + int(hits[0]) if hits.size else None


class _TiVaPRoMiDecider(_DrawScan):
    """LiPRoMi / LoPRoMi / LoLiPRoMi.

    Mirrors :class:`repro.core.tivapromi.TiVaPRoMiBase` exactly: one
    ``random()`` per activation (bulk-drawn: the *k*-th Mersenne-Twister
    draw is the same value whether taken eagerly or pre-drawn, and this
    mitigation never interleaves other generator calls), the FIFO
    history table as an insertion-ordered dict, and per-interval
    ``slot -> probability`` vectors computed with
    :func:`trigger_probability`.
    """

    __slots__ = (
        "name", "mitigation", "weighting", "pbase", "capacity", "refint",
        "slot_fn", "_rand", "_buf", "_pos", "table", "_slots", "_slot_p",
        "_p_interval", "telemetry", "_arr", "_arr_src",
    )

    trivial_refresh = True

    def __init__(self, mitigation: TiVaPRoMiBase):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self.weighting = type(mitigation).weighting
        self.pbase = mitigation.pbase
        self.capacity = mitigation.history.capacity
        self.refint = mitigation.refint
        self.slot_fn = mitigation.refresh_slot_fn
        self._rand = mitigation._rng.random
        self._buf: List[float] = []
        self._pos = 0
        self._arr = None
        self._arr_src = None
        #: FIFO history-table mirror: dict preserves insertion order,
        #: in-place update keeps position, eviction removes the oldest
        self.table: Dict[int, int] = {}
        self._slots: Dict[int, int] = {}
        self._slot_p: Dict[int, float] = {}
        self._p_interval: Optional[int] = None

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self) -> int:
        return len(self.table)

    def _refill(self) -> None:
        rand = self._rand
        self._buf = [rand() for _ in range(_BLOCK)]
        self._pos = 0
        if self.telemetry is not None:
            self.telemetry.on_rng_block(self.mitigation.bank, _BLOCK)

    def on_activation(self, row: int, interval: int):
        if self._pos >= len(self._buf):
            self._refill()
        draw = self._buf[self._pos]
        self._pos += 1
        if draw >= self._probability(row, interval):
            return ()
        return self._record_trigger(row, interval)

    def _probability(self, row: int, interval: int) -> float:
        """Current trigger probability of *row* (no draw consumed).

        The weight of a row not in the history table depends only on
        its refresh slot, so those probabilities are cached as a
        per-interval ``slot -> p`` vector built lazily from
        :func:`trigger_probability`.  Table hits inline the same Eq. 1 /
        Eq. 2 arithmetic (both the stored and the current interval are
        window-relative by construction, so the reference's range
        validation cannot fire).
        """
        window_now = interval % self.refint
        stored = self.table.get(row)
        if stored is None:
            if interval != self._p_interval:
                self._p_interval = interval
                self._slot_p = {}
            slot = self._slots.get(row)
            if slot is None:
                slot = self._slots[row] = self.slot_fn(row)
            p = self._slot_p.get(slot)
            if p is None:
                p = self._slot_p[slot] = trigger_probability(
                    window_now, slot, self.refint, self.pbase,
                    self.weighting, in_table=False,
                )
            return p
        weight = window_now - stored
        if weight < 0:
            weight += self.refint
        if self.weighting == "log":
            weight = 1 << weight.bit_length()
        p = weight * self.pbase
        return p if p < 1.0 else 1.0

    def _weight_of(self, row: int, interval: int, hit: bool) -> int:
        """Effective (uncapped) weight, telemetry only -- never on the
        decision path, which uses the cached :meth:`_probability`."""
        window_now = interval % self.refint
        if hit:
            weight = window_now - self.table[row]
            if weight < 0:
                weight += self.refint
            # a history hit is weighted linearly except under pure 'log'
            return log_weight(weight) if self.weighting == "log" else weight
        slot = self._slots.get(row)
        if slot is None:
            slot = self._slots[row] = self.slot_fn(row)
        weight = linear_weight(window_now, slot, self.refint)
        # both 'log' and 'loli' quantise rows missing from the table
        return weight if self.weighting == "linear" else log_weight(weight)

    def _record_trigger(self, row: int, interval: int):
        table = self.table
        telemetry = self.telemetry
        if telemetry is not None:
            hit = row in table
            telemetry.on_trigger_weight(
                self.mitigation.bank, row, interval,
                self._weight_of(row, interval, hit), hit,
            )
        if row in table:
            table[row] = interval % self.refint
        else:
            if len(table) >= self.capacity:
                oldest = next(iter(table))
                del table[oldest]
                if telemetry is not None:
                    telemetry.on_history_evict(
                        self.mitigation.bank, oldest, interval
                    )
            table[row] = interval % self.refint
        return (ActivateNeighbors(row=row),)

    def decide_run(self, row: int, interval: int, count: int):
        """Decide *count* consecutive activations of *row* in one go.

        Returns ``(clean, actions)``: ``clean`` is the number of
        non-trigger decisions before the first trigger.  ``clean ==
        count`` means no trigger (exactly *count* draws consumed);
        otherwise ``clean + 1`` draws were consumed and *actions* is the
        trigger's action tuple.  Exact because the probability of a row
        is constant between triggers within one interval and the draws
        are a fixed pre-buffered sequence.
        """
        p = self._probability(row, interval)
        clean = 0
        while clean < count:
            if self._pos >= len(self._buf):
                self._refill()
            pos = self._pos
            end = min(pos + count - clean, len(self._buf))
            hit = self._first_below(pos, end, p) if p > 0.0 else None
            if hit is not None:
                self._pos = hit + 1
                return clean + hit - pos, self._record_trigger(row, interval)
            clean += end - pos
            self._pos = end
        return count, ()

    def on_refresh(self, interval: int):
        if interval % self.refint == 0:
            self.table.clear()
        return ()

    def clear_window(self) -> None:
        self.table.clear()

    def _p_of(self, weights, log: bool):
        """Vectorised Eq. 1 / Eq. 2 probabilities of integer *weights*
        (``2 ** bit_length`` is exact via ``frexp``; the products are
        the same IEEE values the scalar ``weight * pbase`` yields)."""
        weights = weights.astype(_np.float64)
        if log:
            weights = _np.ldexp(1.0, _np.frexp(weights)[1])
        return _np.minimum(weights * self.pbase, 1.0)

    def _slots_of(self, rows):
        """Assumed refresh slot ``f_r`` of every row in *rows*."""
        slot_fn = self.slot_fn
        if getattr(slot_fn, "__func__", None) is DRAMGeometry.refresh_interval_of:
            return rows // slot_fn.__self__.rows_per_interval
        unique, inverse = _np.unique(rows, return_inverse=True)
        slots = [slot_fn(row) for row in unique.tolist()]
        return _np.asarray(slots, dtype=_np.int64)[inverse]

    def scan(self, rows, intervals):
        """Decide every record of this bank in bulk.

        *rows* and *intervals* are the bank's records in tape order.
        Between triggers and window starts the history table is fixed,
        so each record's trigger probability is known up front; the
        pre-drawn block is compared against it and the first hit takes
        one scalar step.  Yields ``(j, actions)`` per triggering record
        *j*.
        """
        slots = self._slots_of(rows)
        refint = self.refint
        window = intervals // refint
        now = intervals % refint
        free_p = self._p_of((now - slots) % refint, self.weighting != "linear")
        table_log = self.weighting == "log"
        n = len(rows)
        current = None
        j = 0
        while j < n:
            if window[j] != current:
                current = window[j]
                self.table.clear()  # the window-start ``ref`` tick
            if self._pos >= len(self._buf):
                self._refill()
            pos = self._pos
            end = min(
                j + len(self._buf) - pos,
                int(_np.searchsorted(window, current, side="right")),
            )
            p = free_p[j:end]
            if self.table:
                p = p.copy()
                chunk = rows[j:end]
                for row, stored in self.table.items():
                    at = _np.flatnonzero(chunk == row)
                    if at.size:
                        p[at] = self._p_of(
                            (now[j:end][at] - stored) % refint, table_log
                        )
            hits = _np.flatnonzero(self._mirror()[pos:pos + end - j] < p)
            if hits.size:
                hit = int(hits[0])
                self._pos = pos + hit
                j += hit
                yield j, self.on_activation(int(rows[j]), int(intervals[j]))
                j += 1
            else:
                self._pos = pos + end - j
                j = end


class _PARADecider(_DrawScan):
    """PARA: buffered draws, cached assumed adjacency.

    Implements the same rewind-on-interleave protocol as
    :class:`repro.rng.BufferedRandom` with the buffer inlined as plain
    fields: a trigger's ``randrange`` must consume the generator right
    after the draws handed out so far, so the generator is restored to
    the block's start state and the consumed draws are replayed.  A
    modest block size keeps that replay cheap.  The probability is a
    constant, so runs and whole banks scan a block for its first draw
    below it.
    """

    __slots__ = (
        "name", "mitigation", "probability", "_rng", "_buf", "_pos",
        "_state", "geometry", "_neighbors", "telemetry", "_arr", "_arr_src",
    )

    trivial_refresh = True

    def __init__(self, mitigation: PARA):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self.probability = mitigation.probability
        self._rng = mitigation._rng
        self._buf: List[float] = []
        self._pos = 0
        self._state: object = None
        self._arr = None
        self._arr_src = None
        self.geometry = mitigation.config.geometry
        self._neighbors: Dict[int, Tuple[int, ...]] = {}

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return None  # PARA is stateless

    def _refill(self) -> None:
        rng = self._rng
        self._state = rng.getstate()
        rand = rng.random
        self._buf = [rand() for _ in range(_PARA_BLOCK)]
        self._pos = 0
        if self.telemetry is not None:
            self.telemetry.on_rng_block(self.mitigation.bank, _PARA_BLOCK)

    def _trigger(self, row: int, consumed: int):
        """Pick the victim of a trigger after *consumed* block draws."""
        rng = self._rng
        rng.setstate(self._state)
        for _ in range(consumed):
            rng.random()
        self._buf = []
        self._pos = 0
        neighbors = self._neighbors.get(row)
        if neighbors is None:
            neighbors = self._neighbors[row] = self.geometry.assumed_neighbors(row)
        victim = neighbors[rng.randrange(len(neighbors))]
        return (RefreshRow(row=victim, trigger_row=row),)

    def on_activation(self, row: int, interval: int):
        if self._pos >= len(self._buf):
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        if self._buf[pos] >= self.probability:
            return ()
        return self._trigger(row, pos + 1)

    def decide_run(self, row: int, interval: int, count: int):
        """Bulk-decide *count* consecutive activations (see
        :meth:`_TiVaPRoMiDecider.decide_run` for the contract)."""
        clean = 0
        while clean < count:
            if self._pos >= len(self._buf):
                self._refill()
            pos = self._pos
            end = min(pos + count - clean, len(self._buf))
            hit = self._first_below(pos, end, self.probability)
            if hit is not None:
                return clean + hit - pos, self._trigger(row, hit + 1)
            clean += end - pos
            self._pos = end
        return count, ()

    def scan(self, rows, intervals):
        """Decide every record of this bank in bulk (see
        :meth:`_TiVaPRoMiDecider.scan`)."""
        n = len(rows)
        j = 0
        while j < n:
            if self._pos >= len(self._buf):
                self._refill()
            pos = self._pos
            end = min(len(self._buf), pos + n - j)
            hit = self._first_below(pos, end, self.probability)
            if hit is None:
                self._pos = end
                j += end - pos
            else:
                j += hit - pos
                yield j, self._trigger(int(rows[j]), hit + 1)
                j += 1

    def on_refresh(self, interval: int):
        return ()

    def clear_window(self) -> None:
        pass


class _BufferedVictimDecider(_DrawScan):
    """Shared plumbing for the ProHit / MRLoc fused deciders.

    Owns *every* draw of the wrapped mitigation's RNG stream through a
    pre-filled block buffer (the mitigations only ever call ``random()``,
    so eager block draws preserve the exact sequence), plus the cached
    assumed-neighbour lookups.
    """

    __slots__ = (
        "mitigation", "telemetry", "name", "_rand", "_buf", "_arr",
        "_arr_src", "_pos", "_victims",
    )

    def __init__(self, mitigation: Mitigation):
        self.mitigation = mitigation
        self.telemetry = None
        self.name = mitigation.name
        self._rand = mitigation._rng.random
        self._buf: List[float] = []
        self._arr = None
        self._arr_src = None
        self._pos = 0
        self._victims: Dict[int, Tuple[int, ...]] = {}

    def attach_telemetry(self, telemetry) -> None:
        self.telemetry = telemetry
        self.mitigation.telemetry = telemetry

    @property
    def table_bytes(self) -> int:
        return self.mitigation.table_bytes

    @property
    def table_occupancy(self):
        return getattr(self.mitigation, "table_occupancy", None)

    def _refill(self) -> None:
        rand = self._rand
        self._buf = [rand() for _ in range(_BLOCK)]
        self._pos = 0
        self._arr_src = None
        if self.telemetry is not None:
            self.telemetry.on_rng_block(self.mitigation.bank, _BLOCK)

    def _draw(self) -> float:
        if self._pos >= len(self._buf):
            self._refill()
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def _neighbors(self, row: int) -> Tuple[int, ...]:
        victims = self._victims.get(row)
        if victims is None:
            victims = self._victims[row] = (
                self.mitigation.config.geometry.assumed_neighbors(row)
            )
        return victims

    def clear_window(self) -> None:
        # only reachable for trivial_refresh deciders, whose reference
        # counterpart keeps its state across window boundaries
        pass


class _ProHitDecider(_BufferedVictimDecider):
    """ProHit with run batching.

    ``on_activation`` never issues actions (all ProHit refreshes come
    from ``on_refresh``), so a run always decides clean.  Acts are
    replayed scalar until the hot/cold tables reach a fixed point; the
    remaining acts then consume ``len(missing)`` draws each against the
    constant insert probability and are scanned in bulk for the first
    successful insertion.
    """

    __slots__ = ()

    trivial_refresh = False  # ProHit refreshes its top hot entry per ref

    def _observe(self, victim: int, trigger_row: int) -> None:
        # exact port of ProHit._observe_victim with buffered draws
        m = self.mitigation
        m._trigger[victim] = trigger_row
        hot = m._hot
        if victim in hot:
            index = hot.index(victim)
            if index > 0:
                hot[index - 1], hot[index] = hot[index], hot[index - 1]
            return
        cold = m._cold
        if victim in cold:
            index = cold.index(victim)
            if index == 0:
                m._promote(victim)
            else:
                cold[index - 1], cold[index] = cold[index], cold[index - 1]
            return
        if self._draw() < m.insert_probability:
            if len(cold) >= m.cold_entries:
                dropped = cold.pop()
                m._trigger.pop(dropped, None)
            cold.append(victim)

    def on_activation(self, row: int, interval: int):
        for victim in self._neighbors(row):
            self._observe(victim, row)
        return ()

    def on_refresh(self, interval: int):
        return self.mitigation.on_refresh(interval)  # draw-free

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        victims = self._neighbors(row)
        hot = m._hot
        cold = m._cold
        p = m.insert_probability
        i = 0
        while i < count:
            before = (tuple(hot), tuple(cold))
            for victim in victims:
                self._observe(victim, row)
            i += 1
            if i >= count:
                break
            if (tuple(hot), tuple(cold)) != before:
                continue
            # Fixed point: the previous act changed nothing, so every
            # further act is identical until an insertion draw succeeds.
            missing = 0
            for victim in victims:
                if victim not in hot and victim not in cold:
                    missing += 1
            if missing == 0:
                # no draws at all -> pure no-ops (the _trigger writes
                # are idempotent re-assignments of the same value)
                i = count
                break
            # consume whole clean acts from the current block; the act
            # containing the first success (or straddling a block
            # boundary) is replayed scalar at the top of the loop
            while i < count:
                if self._pos >= len(self._buf):
                    self._refill()
                avail = (len(self._buf) - self._pos) // missing
                span = min(avail, count - i)
                if span <= 0:
                    break
                start = self._pos
                stop = start + span * missing
                hits = _np.flatnonzero(self._mirror()[start:stop] < p)
                if hits.size:
                    clean_acts = int(hits[0]) // missing
                    self._pos = start + clean_acts * missing
                    i += clean_acts
                    break
                self._pos = stop
                i += span
        return count, ()


class _MRLocDecider(_BufferedVictimDecider):
    """MRLoc with run batching.

    Every victim lookup draws exactly once, so a run consumes a fixed
    number of draws per act.  Once the recency queue reaches its steady
    cycle (one scalar act leaves it unchanged) the per-victim
    probabilities are constant and the draws are scanned in bulk for the
    first refresh trigger.
    """

    __slots__ = ()

    trivial_refresh = True  # MRLoc inherits the no-op on_refresh

    def _act(self, row: int, victims: Tuple[int, ...]):
        # exact port of MRLoc.on_activation with buffered draws
        m = self.mitigation
        queue = m._queue
        base = m.base_probability
        boost = m.max_boost
        actions = None
        for victim in victims:
            probability = base
            if victim in queue:
                recency = (queue.index(victim) + 1) / len(queue)
                probability = base * (1.0 + (boost - 1.0) * recency)
                if probability > 1.0:
                    probability = 1.0
                queue.remove(victim)
            if self._pos >= len(self._buf):
                self._refill()
            draw = self._buf[self._pos]
            self._pos += 1
            if draw < probability:
                if actions is None:
                    actions = []
                actions.append(RefreshRow(row=victim, trigger_row=row))
            queue.append(victim)
        return tuple(actions) if actions else ()

    def on_activation(self, row: int, interval: int):
        victims = self._victims.get(row)
        if victims is None:
            victims = self._neighbors(row)
        return self._act(row, victims)

    def on_refresh(self, interval: int):
        return ()

    def _steady_pattern(self, victims: Tuple[int, ...]) -> List[float]:
        """Per-victim probabilities of one act in the steady state."""
        m = self.mitigation
        queue = list(m._queue)
        base = m.base_probability
        boost = m.max_boost
        pattern = []
        for victim in victims:
            length = len(queue)
            probability = base
            if length:
                try:
                    position = queue.index(victim)
                except ValueError:
                    position = -1
                if position >= 0:
                    recency = (position + 1) / length
                    probability = base * (1.0 + (boost - 1.0) * recency)
                    if probability > 1.0:
                        probability = 1.0
            pattern.append(probability)
            if victim in queue:
                queue.remove(victim)
            queue.append(victim)
        return pattern

    def decide_run(self, row: int, interval: int, count: int):
        victims = self._neighbors(row)
        queue = self.mitigation._queue
        width = len(victims)
        i = 0
        while i < count:
            before = tuple(queue)
            actions = self._act(row, victims)
            i += 1
            if actions:
                return i - 1, actions
            if i >= count:
                break
            if tuple(queue) != before:
                continue
            pattern = _np.asarray(self._steady_pattern(victims))
            # consume whole clean acts; the act containing the first
            # trigger draw (or straddling a block) replays scalar above
            while i < count:
                if self._pos >= len(self._buf):
                    self._refill()
                avail = (len(self._buf) - self._pos) // width
                span = min(avail, count - i)
                if span <= 0:
                    break
                start = self._pos
                stop = start + span * width
                window = self._mirror()[start:stop].reshape(span, width)
                hits = _np.flatnonzero((window < pattern).ravel())
                if hits.size:
                    clean_acts = int(hits[0]) // width
                    self._pos = start + clean_acts * width
                    i += clean_acts
                    break
                self._pos = stop
                i += span
        return count, ()


class _TWiCeDecider(_GenericDecider):
    """TWiCe run batching: a counter either stays below the trigger
    threshold for the whole run (one ``+= n``) or crosses it at an
    arithmetically recoverable act."""

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        table = m._table
        entry = table.get(row)
        if entry is None:
            entry = _Entry()
            table[row] = entry
            if len(table) > m.max_occupancy:
                m.max_occupancy = len(table)
        need = m.trigger_threshold - entry.count
        if need > count:
            entry.count += count
            return count, ()
        entry.count = 0
        return need - 1, (ActivateNeighbors(row=row),)


class _CRADecider(_GenericDecider):
    """CRA run batching (same arithmetic as TWiCe, sparse counters)."""

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        counters = m._counters
        current = counters.get(row, 0)
        need = m.trigger_threshold - current
        if need > count:
            counters[row] = current + count
            return count, ()
        counters.pop(row, None)
        return need - 1, (ActivateNeighbors(row=row),)


class _CaPRoMiDecider(_GenericDecider):
    """CaPRoMi run batching.

    Activations only observe (no draws, no actions): the first
    observation of a run inserts/evicts exactly like the reference, the
    rest collapse into one count update.  The history link is constant
    across the run (the history table only changes at ``ref``) and
    re-assignments are idempotent.
    """

    __slots__ = ()

    def decide_run(self, row: int, interval: int, count: int):
        m = self.mitigation
        link = m.history.lookup_index(row)
        entry = m.counters.observe(row, history_link=link)
        if count > 1:
            if entry is None:
                # table full of locked entries: every further observe of
                # this row drops too (no draws -- nothing is unlocked)
                m.counters.dropped += count - 1
            else:
                entry.count += count - 1
                if entry.count >= m.counters.lock_threshold:
                    entry.locked = True
        return count, ()


def _make_decider(mitigation: Mitigation):
    kind = type(mitigation)
    if kind in (LiPRoMi, LoPRoMi, LoLiPRoMi):
        return _TiVaPRoMiDecider(mitigation)
    if kind is PARA:
        return _PARADecider(mitigation)
    if kind is ProHit:
        return _ProHitDecider(mitigation)
    if kind is MRLoc:
        return _MRLocDecider(mitigation)
    if kind is TWiCe:
        return _TWiCeDecider(mitigation)
    if kind is CRA:
        return _CRADecider(mitigation)
    if kind is CaPRoMi:
        return _CaPRoMiDecider(mitigation)
    if hasattr(mitigation, "observe_run"):
        # modern counter families batch runs through their own
        # observe_run arithmetic (same contract as decide_run)
        return _RunMethodDecider(mitigation)
    # unknown techniques run as real Mitigation objects: equivalence by
    # construction, per-record replay (no run batching)
    return _GenericDecider(mitigation)


# ---------------------------------------------------------------------------
# the shared tape context and per-cell decision lanes
# ---------------------------------------------------------------------------


class _Shared:
    """Read-only state shared by every lane of one grid call, plus the
    caches the device passes share (neighbour tables, refresh slots and
    the unmitigated baseline of each bank)."""

    __slots__ = (
        "geometry", "policy", "sequential", "refint", "rows_per_interval",
        "tape", "times", "interval_ns", "total_intervals", "neighbors_of",
        "second_of", "stop_after_first_trigger", "max_activations",
        "_refresh_rows", "_slots", "_bank_records", "_first_attack",
        "_attacks_seen", "_baselines",
    )

    def __init__(self, geometry, policy, tape, stop_after_first_trigger,
                 max_activations):
        self.geometry = geometry
        self.policy = policy
        self.sequential = type(policy) is SequentialRefresh
        self.refint = geometry.refint
        self.rows_per_interval = geometry.rows_per_interval
        self.tape = tape
        self.times = tape.times
        self.interval_ns = tape.interval_ns
        self.total_intervals = tape.total_intervals
        self.neighbors_of: Dict[int, Tuple[int, ...]] = {}
        self.second_of: Dict[int, List[int]] = {}
        self.stop_after_first_trigger = stop_after_first_trigger
        self.max_activations = max_activations
        self._refresh_rows: Dict[int, List[int]] = {}
        self._slots: Dict[int, int] = {}
        self._bank_records: Optional[List[Tuple]] = None
        self._first_attack: Dict[Tuple[int, int], int] = {}
        self._attacks_seen = 0  # segments _first_attack covers
        self._baselines: Dict[Tuple[int, Any], List] = {}

    def refresh_rows(self, slot: int) -> List[int]:
        rows = self._refresh_rows.get(slot)
        if rows is None:
            rows = self._refresh_rows[slot] = list(
                self.policy.rows_for_interval(slot)
            )
        return rows

    def neighbors(self, row: int) -> Tuple[int, ...]:
        neighbors = self.neighbors_of.get(row)
        if neighbors is None:
            neighbors = self.neighbors_of[row] = self.geometry.neighbors(row)
        return neighbors

    def seconds(self, row: int) -> List[int]:
        """Distance-2 victims of *row* (Half-Double coupling)."""
        seconds = self.second_of.get(row)
        if seconds is None:
            seconds = self.second_of[row] = [
                second
                for neighbor in self.neighbors(row)
                for second in self.geometry.neighbors(neighbor)
                if second != row
            ]
        return seconds

    def activated_rows(self, action) -> Tuple[int, ...]:
        """Rows one mitigating action activates, in device order."""
        if isinstance(action, RefreshRow):
            return (action.row,)
        if isinstance(action, ActivateNeighbors):
            return self.neighbors(action.row)
        if isinstance(action, RecoveryRefresh):
            return tuple(
                victim
                for aggressor in action.rows
                for victim in self.neighbors(aggressor)
            )
        raise TypeError(f"unknown mitigation action {action!r}")

    # -- columnar helpers ----------------------------------------------

    def neighbor_table(self, rows):
        """``(len(rows), k)`` neighbour matrix of *rows*, ``-1``-padded."""
        geometry = self.geometry
        if type(geometry).neighbors is DRAMGeometry.neighbors:
            # the plain N+-1 adjacency, cut at subarray edges
            low = rows - rows % geometry.rows_per_subarray
            high = low + geometry.rows_per_subarray - 1
            return _np.stack((
                _np.where(rows > low, rows - 1, -1),
                _np.where(rows < high, rows + 1, -1),
            ), axis=1)
        unique, inverse = _np.unique(rows, return_inverse=True)
        lists = [self.neighbors(row) for row in unique.tolist()]
        width = max((len(victims) for victims in lists), default=0)
        table = _np.full((len(lists), width), -1, dtype=_np.int32)
        for index, victims in enumerate(lists):
            table[index, :len(victims)] = victims
        return table[inverse]

    def slots_of(self, rows):
        """Refresh slot of every row in *rows* under the device policy."""
        if self.sequential:
            return rows // self.rows_per_interval
        unique, inverse = _np.unique(rows, return_inverse=True)
        cache = self._slots
        slot_of = self.policy.refresh_slot_of
        slots = []
        for row in unique.tolist():
            slot = cache.get(row)
            if slot is None:
                slot = cache[row] = slot_of(row)
            slots.append(slot)
        return _np.asarray(slots, dtype=_np.int32)[inverse]

    def bank_records(self, bank: int):
        """Per-record ``(index, row, interval)`` columns of one bank, for
        the bulk decision scans."""
        if self._bank_records is None:
            cols = self.tape.columns
            banks = _np.repeat(cols.banks, cols.lengths)
            rows = _np.repeat(cols.rows, cols.lengths)
            intervals = _np.repeat(cols.intervals, cols.lengths)
            columns = []
            for index in range(self.geometry.num_banks):
                at = _np.flatnonzero(banks == index)
                columns.append((at, rows[at], intervals[at]))
            self._bank_records = columns
        return self._bank_records[bank]

    def end_decisions(self) -> None:
        """Free what only the decision pass reads (the per-record bank
        columns of the bulk scans)."""
        self._bank_records = None

    def first_attack(self) -> Dict[Tuple[int, int], int]:
        """First record index of every attacking ``(bank, row)`` among
        the segments decoded so far."""
        segments = self.tape.segments
        if self._attacks_seen < len(segments):
            first_attack = self._first_attack
            for start, _, bank, row, is_attack, _ in segments[self._attacks_seen:]:
                if is_attack and (bank, row) not in first_attack:
                    first_attack[bank, row] = start
            self._attacks_seen = len(segments)
        return self._first_attack


class _Lane:
    """One computed cell's decision pass.

    The lane walks the shared segment schedule and drives only its
    deciders; it never touches device state.  Every mitigating ACT it
    applies is recorded in ``extras`` as ``(pos, interval, bank, row,
    time_ns)``, where ``pos`` is the number of trace records replayed
    before it.  The device pass (:func:`_device_columnar` or
    :func:`_device_scalar`) turns the tape plus that sparse list into
    flips and ``max_disturbance`` afterwards.
    """

    __slots__ = (
        "sh", "seed", "deciders", "tele", "technique",
        "flip_threshold", "distance2", "all_trivial", "can_batch", "bulk",
        "extras", "extra_activations", "fp_extra_activations",
        "mitigation_triggers", "max_occupancy", "pending",
        "current_interval", "activation_index", "attack_activations",
        "first_trigger", "table_bytes",
    )

    def __init__(self, shared: _Shared, factory, seed: int,
                 config: SimConfig, tele):
        self.sh = shared
        self.seed = seed
        num_banks = shared.geometry.num_banks
        if factory is None:
            self.deciders: List = []
        else:
            self.deciders = [
                _make_decider(
                    factory(config, bank, derive_seed(seed, "mitigation", bank))
                )
                for bank in range(num_banks)
            ]
        self.tele = tele
        if tele is not None:
            for decider in self.deciders:
                decider.attach_telemetry(tele)
        self.technique = self.deciders[0].name if self.deciders else "none"
        self.flip_threshold = config.flip_threshold
        self.distance2 = config.distance2_rate
        self.all_trivial = all(d.trivial_refresh for d in self.deciders)
        self.can_batch = all(hasattr(d, "decide_run") for d in self.deciders)
        # whole-bank scans need no early stop (so a complete tape),
        # short runs, every decider to support them and no per-record
        # observer
        tape = shared.tape
        self.bulk = (
            shared.max_activations is None
            and not shared.stop_after_first_trigger
            and len(tape.times) < _BULK_RUN_LENGTH * len(tape.segments)
            and tele is None
            and all(hasattr(d, "scan") for d in self.deciders)
        )
        self.extras: List[Tuple[int, int, int, int, int]] = []
        self.extra_activations = 0
        self.fp_extra_activations = 0
        self.mitigation_triggers = 0
        self.max_occupancy = 0
        self.pending: List[Tuple[int, object, bool]] = []
        self.current_interval = -1
        self.activation_index = 0
        self.attack_activations = 0
        self.first_trigger: Optional[int] = None

    # -- mitigation bookkeeping -----------------------------------------

    def apply_pending(self, at_record: bool) -> None:
        """Apply the buffered actions, before the next record when
        *at_record* (at its timestamp), else at a ``ref`` tick or the
        end of the trace (at the last replayed record's timestamp)."""
        sh = self.sh
        tele = self.tele
        pos = self.activation_index
        if at_record:
            time_ns = sh.times[pos]
        else:
            time_ns = sh.times[pos - 1] if pos else 0
        interval = self.current_interval
        extras = self.extras
        for bank, action, was_attack in self.pending:
            self.mitigation_triggers += 1
            rows = sh.activated_rows(action)
            for row in rows:
                extras.append((pos, interval, bank, row, time_ns))
            cost = len(rows)
            self.extra_activations += cost
            if not was_attack:
                self.fp_extra_activations += cost
            if tele is not None:
                tele.on_apply(bank, action.row, interval, cost, not was_attack)
        self.pending.clear()

    def enqueue(self, bank: int, actions) -> None:
        """Buffer *actions*; a trigger row counts as an aggressor once an
        attack record of it has been replayed."""
        tele = self.tele
        first_attack = self.sh.first_attack()
        pending = self.pending
        for action in actions:
            first = first_attack.get((bank, action.trigger_row))
            was_attack = first is not None and first < self.activation_index
            pending.append((bank, action, was_attack))
            if tele is not None:
                tele.on_trigger(
                    bank, action.row, self.current_interval,
                    type(action).__name__,
                )
        if len(pending) > self.max_occupancy:
            self.max_occupancy = len(pending)

    def refresh_tick(self) -> None:
        if self.pending:
            self.apply_pending(False)
        self.current_interval += 1
        for bank, decider in enumerate(self.deciders):
            actions = decider.on_refresh(self.current_interval)
            if actions:
                self.enqueue(bank, actions)
        if self.pending:
            self.apply_pending(False)
        if self.tele is not None:
            self.tele.on_interval(
                self.current_interval,
                self.current_interval * self.sh.interval_ns,
                self.activation_index,
                self.attack_activations,
                [decider.table_occupancy for decider in self.deciders],
            )

    def skip_to(self, target: int) -> None:
        """Jump over empty intervals (only when every ``ref`` is a
        no-op for the deciders; the device pass does the refreshes)."""
        if self.pending:
            self.apply_pending(False)
        first_skipped = self.current_interval + 1
        refint = self.sh.refint
        if target - self.current_interval >= refint:
            boundary = True
        else:
            lo = (self.current_interval + 1) % refint
            boundary = lo > target % refint or lo == 0
        if boundary:
            for decider in self.deciders:
                decider.clear_window()
        self.current_interval = target
        if self.tele is not None:
            self.tele.on_interval_skip(
                first_skipped, target, target * self.sh.interval_ns
            )

    def advance_to(self, interval: int) -> None:
        if interval <= self.current_interval:
            return
        if self.all_trivial and interval - self.current_interval > _SKIP_THRESHOLD:
            self.skip_to(interval)
        else:
            while self.current_interval < interval:
                self.refresh_tick()

    # -- the decision pass ----------------------------------------------

    def decide(self) -> None:
        """Replay the tape through this lane's deciders, reading it only
        as far as the lane goes."""
        if self.bulk:
            self.scan()
            return
        sh = self.sh
        times = sh.times
        tele = self.tele
        max_acts = sh.max_activations
        deciders = self.deciders
        can_batch = self.can_batch
        for start, end, bank, row, is_attack, interval in sh.tape.walk():
            if interval > self.current_interval:
                self.advance_to(interval)
            decider = deciders[bank] if deciders else None
            i = start
            while i < end:
                if tele is not None:
                    tele.now = times[i]
                if self.pending:
                    self.apply_pending(True)
                remaining = end - i
                if (
                    remaining >= 2
                    and can_batch
                    and (self.first_trigger is not None
                         or self.mitigation_triggers == 0)
                ):
                    room = -1 if max_acts is None else max_acts - self.activation_index
                    if room != 1:
                        length = (
                            remaining if room < 0 or remaining <= room else room
                        )
                        if decider is not None:
                            clean, actions = decider.decide_run(
                                row, self.current_interval, length
                            )
                            done = length if clean == length else clean + 1
                        else:
                            actions = ()
                            done = length
                        if is_attack:
                            self.attack_activations += done
                        self.activation_index += done
                        if tele is not None:
                            tele.now = times[i + done - 1]
                        if actions:
                            self.enqueue(bank, actions)
                        i += done
                        if max_acts is not None and self.activation_index >= max_acts:
                            return
                        continue
                # per-record path
                if is_attack:
                    self.attack_activations += 1
                self.activation_index += 1
                if decider is not None:
                    actions = decider.on_activation(row, self.current_interval)
                    if actions:
                        self.enqueue(bank, actions)
                if self.first_trigger is None and self.mitigation_triggers > 0:
                    self.first_trigger = self.activation_index
                    if sh.stop_after_first_trigger:
                        return
                if max_acts is not None and self.activation_index >= max_acts:
                    return
                i += 1

    def scan(self) -> None:
        """The bulk decision pass: each bank's decider scans its whole
        record stream at once (banks never share decider state), then
        the triggers are applied in tape order.

        Every trigger is one record's actions, applied before the next
        record -- at that record's timestamp when it lies in the same
        interval, otherwise at the ``ref`` tick in between.
        """
        sh = self.sh
        cols = sh.tape.columns
        triggers = []
        for bank, decider in enumerate(self.deciders):
            index, rows, intervals = sh.bank_records(bank)
            if not len(index):
                continue
            for j, actions in decider.scan(rows, intervals):
                triggers.append((int(index[j]), bank, actions))
        triggers.sort(key=lambda trigger: trigger[0])
        records = len(sh.times)

        def interval_of(k: int) -> int:
            segment = int(_np.searchsorted(cols.starts, k, side="right")) - 1
            return int(cols.intervals[segment])

        for k, bank, actions in triggers:
            self.current_interval = interval_of(k)
            self.activation_index = k + 1
            self.enqueue(bank, actions)
            self.apply_pending(
                k + 1 < records and interval_of(k + 1) == self.current_interval
            )
        if triggers and triggers[0][0] + 1 < records:
            # the record after the first application sets it
            self.first_trigger = triggers[0][0] + 2
        self.activation_index = records
        self.attack_activations = int(cols.lengths[cols.attacks].sum())
        if len(cols.intervals):
            self.current_interval = int(cols.intervals[-1])

    def drain(self) -> None:
        sh = self.sh
        if not (sh.stop_after_first_trigger and self.first_trigger):
            if (
                self.all_trivial
                and sh.total_intervals - 1 - self.current_interval
                > _SKIP_THRESHOLD
            ):
                self.skip_to(sh.total_intervals - 1)
            else:
                while self.current_interval < sh.total_intervals - 1:
                    self.refresh_tick()
        if self.pending:
            self.apply_pending(False)
        if self.tele is not None:
            self.tele.finish(self.activation_index, self.attack_activations)
        # the decision pass is over: keep its outcome, drop decider state
        self.table_bytes = self.deciders[0].table_bytes if self.deciders else 0
        self.deciders = []

    def result(self, max_disturbance: int, flips: List[FlipEvent]) -> SimResult:
        out = SimResult(
            technique=self.technique,
            seed=self.seed,
            flip_threshold=self.flip_threshold,
        )
        out.normal_activations = self.activation_index
        out.attack_activations = self.attack_activations
        out.extra_activations = self.extra_activations
        out.fp_extra_activations = self.fp_extra_activations
        out.mitigation_triggers = self.mitigation_triggers
        out.flips = flips
        out.max_disturbance = max_disturbance
        out.intervals_simulated = self.current_interval + 1
        out.first_trigger_activation = self.first_trigger
        out.max_rh_buffer_occupancy = self.max_occupancy
        out.table_bytes = self.table_bytes
        return out


# ---------------------------------------------------------------------------
# the device pass: flips and max_disturbance from the tape + sparse ACTs
# ---------------------------------------------------------------------------


def _device_scalar(sh: _Shared, lane: _Lane) -> Tuple[int, List[FlipEvent]]:
    """The scalar device pass: one counter dict per bank.

    Replays the records the lane consumed and its mitigating ACTs in
    tape order.  A victim's disturbance is the (run-weighted) number of
    neighbour ACTs since its last restore -- its own ACT or the periodic
    refresh of its slot.  Serves Half-Double coupling (whose fractional
    counts must accumulate one ACT at a time) and runs that stopped
    early on a tape read block by block.
    """
    times = sh.times
    num_banks = sh.geometry.num_banks
    refint = sh.refint
    counters: List[Dict[int, float]] = [{} for _ in range(num_banks)]
    bank_flips: List[List[FlipEvent]] = [[] for _ in range(num_banks)]
    threshold = lane.flip_threshold
    distance2 = lane.distance2
    #: ``(victim, coupling)`` pairs each row's ACT disturbs
    victims_of: Dict[int, Tuple[Tuple[int, float], ...]] = {}
    peak = 0.0
    current = -1

    def advance(target: int) -> None:
        nonlocal current
        if target - current >= refint:
            for c in counters:
                c.clear()
        else:
            for interval in range(current + 1, target + 1):
                rows = sh.refresh_rows(interval % refint)
                for c in counters:
                    if c:
                        for row in rows:
                            c.pop(row, None)
        current = target

    def activate(bank: int, row: int, count: int, first: Optional[int],
                 time_ns: int) -> None:
        """*count* ACTs of *row*: records from index *first* on, or one
        mitigating ACT at *time_ns* (``first is None``)."""
        nonlocal peak
        victims = victims_of.get(row)
        if victims is None:
            victims = victims_of[row] = tuple(
                [(victim, 1.0) for victim in sh.neighbors(row)]
                + ([(victim, distance2) for victim in sh.seconds(row)]
                   if distance2 > 0.0 else [])
            )
        c = counters[bank]
        c.pop(row, None)
        crossed = None
        for victim, coupling in victims:
            before = c.get(victim, 0.0)
            after = before + coupling * count
            c[victim] = after
            if after > peak:
                peak = after
            if before < threshold <= after:
                offset = threshold - int(before) - 1  # the crossing ACT
                if crossed is None:
                    crossed = []
                crossed.append((
                    offset, victim, threshold if count > 1 else int(after),
                    time_ns if first is None else times[first + offset],
                ))
        if crossed:
            # several victims crossing inside one run flip in ACT order
            crossed.sort(key=lambda flip: flip[0])
            bank_flips[bank].extend(
                FlipEvent(bank=bank, row=victim, count=whole, time_ns=at)
                for _, victim, whole, at in crossed
            )

    extras = lane.extras
    x = 0
    done = lane.activation_index
    # tape position of the next mitigating ACT (``done`` once none is
    # left before the end of the replay)
    next_at = extras[0][0] if extras else done
    for start, end, bank, row, _, interval in sh.tape.segments:
        if start >= done:
            break
        if end > done:
            end = done
        while start < end:
            while next_at <= start:
                _, at_interval, at_bank, at_row, time_ns = extras[x]
                if at_interval > current:
                    advance(at_interval)
                activate(at_bank, at_row, 1, None, time_ns)
                x += 1
                next_at = extras[x][0] if x < len(extras) else done
            if interval > current:
                advance(interval)
            stop = next_at if next_at < end else end
            if distance2 > 0.0:
                for index in range(start, stop):
                    activate(bank, row, 1, index, 0)
            else:
                activate(bank, row, stop - start, start, 0)
            start = stop
    for _, at_interval, at_bank, at_row, time_ns in extras[x:]:
        if at_interval > current:
            advance(at_interval)
        activate(at_bank, at_row, 1, None, time_ns)
    flips = [flip for events in bank_flips for flip in events]
    return int(peak), flips


def _count_disturbance(sh: _Shared, threshold, pos, weight, row, interval,
                       seq, time_ns, keep=None):
    """Segmented counts over one bank's ACT events -- the columnar
    device pass.

    Event *e* is ``weight[e]`` ACTs of ``row[e]`` in ``interval[e]``:
    a run of records starting at tape index ``pos[e]`` (``seq[e] < 0``)
    or one mitigating ACT applied before record ``pos[e]`` at
    ``time_ns[e]`` (``seq[e]`` its application order).  Each event
    restores its own row and adds its weight to every neighbour; a
    victim's count also restarts at each refresh of its slot.  A
    threshold crossing inside a run gets its record arithmetically.

    Only victims in *keep* are counted when it is given.  Returns
    ``(victims, peaks, flips)``: the sorted victims, each one's peak
    disturbance, and one ``(order, seq, neighbour, victim, time_ns)``
    sort key per flip.
    """
    if not len(pos):
        return pos, pos, []
    is_run = seq < 0
    if not is_run.all():
        # runs come first and extras in application order, so a stable
        # sort on the tape position keeps same-position extras in order
        order = _np.argsort(2 * pos + is_run, kind="stable")
        pos, weight, row, interval, seq, is_run, time_ns = (
            column[order]
            for column in (pos, weight, row, interval, seq, is_run, time_ns)
        )
    # entry (e, c): column 0 restores row[e], column c > 0 bumps its
    # (c - 1)-th neighbour; row-major order is tape order
    victims = _np.concatenate((row[:, None], sh.neighbor_table(row)), axis=1)
    valid = victims >= 0
    if keep is not None:
        valid &= _np.isin(victims, keep)
    width = victims.shape[1]
    index = _np.flatnonzero(valid)
    victim = victims.ravel()[index]
    del victims, valid
    event = (index // width).astype(_np.int32)
    neighbour = (index % width - 1).astype(_np.int8)
    del index
    order = _np.argsort(victim, kind="stable")  # keeps tape order
    victim, event, neighbour = victim[order], event[order], neighbour[order]
    del order
    if not len(victim):
        return victim, victim, []
    # a count restarts at its victim's first entry, at every restore and
    # at every refresh of the victim's slot (a new refresh epoch)
    epoch = interval[event]
    epoch -= sh.slots_of(victim)
    epoch //= sh.refint
    fresh = neighbour < 0
    fresh[0] = True
    fresh[1:] |= (victim[1:] != victim[:-1]) | (epoch[1:] != epoch[:-1])
    del epoch
    amount = weight[event]
    amount[neighbour < 0] = 0
    after = _np.cumsum(amount, dtype=_np.int64)
    starts = _np.flatnonzero(fresh)
    del fresh
    after -= _np.repeat(
        after[starts] - amount[starts], _np.diff(_np.append(starts, len(after)))
    )
    firsts = _np.flatnonzero(_np.concatenate(([True], victim[1:] != victim[:-1])))
    peaks = _np.maximum.reduceat(after, firsts)
    crossed = _np.flatnonzero(after >= threshold)
    crossed = crossed[after[crossed] - amount[crossed] < threshold]
    flips = []
    times = sh.times
    for k in crossed.tolist():
        e = int(event[k])
        before = int(after[k] - amount[k])
        if is_run[e]:
            index = int(pos[e]) + threshold - before - 1
            flips.append((2 * index + 1, -1, int(neighbour[k]),
                          int(victim[k]), times[index]))
        else:
            flips.append((2 * int(pos[e]), int(seq[e]), int(neighbour[k]),
                          int(victim[k]), int(time_ns[e])))
    flips.sort()
    return victim[firsts], peaks, flips


def _bank_runs(sh: _Shared, bank: int, done: int):
    """The record runs of *bank* among the first *done* records."""
    cols = sh.tape.columns
    at = _np.flatnonzero((cols.banks == bank) & (cols.starts < done))
    pos = cols.starts[at]
    weight = (_np.minimum(pos + cols.lengths[at], done) - pos).astype(_np.int32)
    return pos, weight, cols.rows[at], cols.intervals[at]


def _baseline(sh: _Shared, done: int, threshold):
    """Per-bank unmitigated device results over the first *done* records,
    shared by every lane of the grid that replayed that many.

    Each bank's entry is ``(runs, (victims, peaks, flips))``, its
    record runs being ``(pos, weight, row, interval)``.
    """
    key = (done, threshold)
    cached = sh._baselines.get(key)
    if cached is None:
        cached = []
        for bank in range(sh.geometry.num_banks):
            runs = _bank_runs(sh, bank, done)
            no_seq = _np.full(len(runs[0]), -1, dtype=_np.int32)
            counted = _count_disturbance(sh, threshold, *runs, no_seq, no_seq)
            cached.append((runs, counted))
        sh._baselines[key] = cached
    return cached


def _split_runs(pos, weight, cuts):
    """Split sorted runs ``[pos, pos + weight)`` at every cut strictly
    inside one; returns the new ``(pos, weight, parent run index)``."""
    if not len(pos):
        return pos, weight, pos
    parent = _np.searchsorted(pos, cuts, side="right") - 1
    inside = (parent >= 0) & (cuts > pos[parent]) & (
        cuts < pos[parent] + weight[parent]
    )
    cuts = _np.unique(cuts[inside])
    owner = _np.searchsorted(pos, cuts, side="right") - 1
    starts = _np.insert(pos, owner + 1, cuts)
    parent = _np.insert(_np.arange(len(pos)), owner + 1, owner)
    ends = pos[parent] + weight[parent]
    ends[:-1] = _np.minimum(ends[:-1], starts[1:])
    return starts, (ends - starts).astype(_np.int32), parent


#: column dtypes of a lane's ``(pos, interval, row, time_ns, seq)`` ACTs
_EXTRA_DTYPES = ("int64", "int32", "int32", "int64", "int32")


def _device_columnar(sh: _Shared, lane: _Lane) -> Tuple[int, List[FlipEvent]]:
    """The columnar device pass (distance-1 model).

    Starts from the shared unmitigated baseline of each bank and
    recounts only the victims the lane's mitigating ACTs touch -- the
    activated rows and their neighbours -- over the record runs that
    reach them, split wherever a mitigating ACT lands inside a run.
    """
    threshold = lane.flip_threshold
    baseline = _baseline(sh, lane.activation_index, threshold)
    by_bank: Dict[int, List[Tuple[int, int, int, int, int]]] = {}
    for seq, (pos, interval, bank, row, time_ns) in enumerate(lane.extras):
        by_bank.setdefault(bank, []).append((pos, interval, row, time_ns, seq))
    peak = 0
    flips: List[FlipEvent] = []
    for bank, (runs, counted) in enumerate(baseline):
        victims, peaks, bank_flips = counted
        extras = by_bank.get(bank)
        if extras:
            x_pos, x_interval, x_row, x_time, x_seq = (
                _np.asarray(column, dtype=dtype)
                for column, dtype in zip(zip(*extras), _EXTRA_DTYPES)
            )
            touched = _np.union1d(x_row, sh.neighbor_table(x_row))
            touched = touched[touched >= 0]
            kept = ~_np.isin(victims, touched)
            if kept.any():
                peak = max(peak, int(peaks[kept].max()))
            recounted = set(touched.tolist())
            bank_flips = [
                flip for flip in bank_flips if flip[3] not in recounted
            ]
            pos, weight, row, interval = runs
            at = _np.flatnonzero(
                _np.isin(row, touched)
                | _np.isin(sh.neighbor_table(row), touched).any(axis=1)
            )
            pos, weight, parent = _split_runs(pos[at], weight[at], x_pos)
            row, interval = row[at][parent], interval[at][parent]
            split = len(pos)
            _, more_peaks, more_flips = _count_disturbance(
                sh, threshold,
                _np.concatenate((pos, x_pos)),
                _np.concatenate((weight, _np.ones(len(x_pos), dtype=_np.int32))),
                _np.concatenate((row, x_row)),
                _np.concatenate((interval, x_interval)),
                _np.concatenate((_np.full(split, -1, dtype=_np.int32), x_seq)),
                _np.concatenate((_np.zeros(split, dtype=_np.int64), x_time)),
                keep=touched,
            )
            if len(more_peaks):
                peak = max(peak, int(more_peaks.max()))
            bank_flips = sorted(bank_flips + more_flips)
        elif len(peaks):
            peak = max(peak, int(peaks.max()))
        flips.extend(
            FlipEvent(bank=bank, row=victim, count=threshold, time_ns=time_ns)
            for _, _, _, victim, time_ns in bank_flips
        )
    return peak, flips


# ---------------------------------------------------------------------------
# grid runner
# ---------------------------------------------------------------------------


def _run_plans(
    config: SimConfig,
    trace: Trace,
    plans: List[_Plan],
    refresh_policy: Optional[RefreshPolicy],
    stop_after_first_trigger: bool,
    max_activations: Optional[int],
    tracer,
    metrics,
    profiler,
) -> List[SimResult]:
    started = time.perf_counter()
    geometry = config.geometry
    policy = (
        refresh_policy if refresh_policy is not None
        else SequentialRefresh(geometry)
    )
    if policy.geometry is not geometry:
        raise ValueError("refresh policy geometry differs from device geometry")
    if tracer is not None and getattr(tracer, "enabled", True) and len(plans) > 1:
        raise ValueError(
            "a tracer records one event stream; attach it to a single-cell "
            "run (use metrics for fused multi-cell aggregation)"
        )
    for plan in plans:
        if plan.config.geometry != geometry:
            raise ValueError(
                "fused cells must share the base geometry "
                f"(cell technique={plan.factory and getattr(plan.factory, 'technique_name', '?')})"
            )
        if plan.config.timing != config.timing:
            raise ValueError("fused cells must share the base timing")

    with section_of(profiler, "engine:decode"):
        tape = _Tape(trace)
        if not stop_after_first_trigger and max_activations is None:
            tape.read()  # no lane can stop early: decode everything now
    shared = _Shared(
        geometry, policy, tape, stop_after_first_trigger, max_activations
    )

    with section_of(profiler, "engine:setup"):
        lanes: List[_Lane] = []
        assign: List[int] = []
        owners: Dict[Tuple, int] = {}
        for plan in plans:
            if plan.key is not None and plan.key in owners:
                assign.append(owners[plan.key])
                continue
            tele = EngineTelemetry.create(
                tracer if len(plans) == 1 else None, metrics
            )
            lane = _Lane(shared, plan.factory, plan.seed, plan.config, tele)
            index = len(lanes)
            lanes.append(lane)
            if plan.key is not None:
                owners[plan.key] = index
            assign.append(index)

    # the decision pass, lane by lane
    replay_s = drain_s = 0.0
    for lane in lanes:
        mark = time.perf_counter()
        lane.decide()
        decided = time.perf_counter()
        lane.drain()
        replay_s += decided - mark
        drain_s += time.perf_counter() - decided
    if metrics is not None:
        metrics.counter("fused.cells_requested").add(len(plans))
        metrics.counter("fused.cells_computed").add(len(lanes))
        metrics.counter("fused.cells_deduped").add(len(plans) - len(lanes))
        metrics.counter("fused.segments").add(len(tape.segments))
        metrics.counter("fused.records").add(len(tape.times))
    # the device pass, from the tape columns and each lane's sparse ACTs
    mark = time.perf_counter()
    shared.end_decisions()
    computed: List[SimResult] = []
    for lane in lanes:
        # a tape read block by block has no columns: its runs stopped
        # early, and on their short prefixes the scalar pass is cheaper
        # than building them
        if tape.columns is not None and lane.distance2 == 0.0:
            outcome = _device_columnar(shared, lane)
        else:
            outcome = _device_scalar(shared, lane)
        computed.append(lane.result(*outcome))
    replay_s += time.perf_counter() - mark
    if profiler is not None:
        profiler.add("engine:replay", replay_s)
        profiler.add("engine:drain", drain_s)

    wall = time.perf_counter() - started
    results: List[SimResult] = []
    for plan, index in zip(plans, assign):
        base = computed[index]
        if base.seed == plan.seed and all(
            j == index or computed[j] is not base for j in range(len(computed))
        ) and assign.count(index) == 1:
            result = base
        else:
            # deduplicated replica: same simulation outcome, the cell's
            # own seed, and a private flips list
            result = replace(base, seed=plan.seed, flips=list(base.flips))
        result.wall_seconds = wall
        results.append(result)
    return results


def run_simulation_grid(
    config: SimConfig,
    trace: Trace,
    cells: Sequence[GridCell],
    refresh_policy: Optional[RefreshPolicy] = None,
    stop_after_first_trigger: bool = False,
    max_activations: Optional[int] = None,
    tracer=None,
    metrics=None,
    profiler=None,
) -> List[SimResult]:
    """Evaluate every grid *cell* in a single decode+replay of *trace*.

    Returns one :class:`SimResult` per cell, in cell order, each
    bit-identical (except ``wall_seconds``, which carries the wall time
    of the whole grid call) to a solo :func:`repro.sim.engine.run_simulation`
    of that cell.  The trace is consumed at most once, so lazy traces
    are safe; the *seed* axis only re-seeds the mitigations -- callers
    whose traces vary per seed must issue one grid call per trace.
    """
    plans = [_plan_cell(cell, config) for cell in cells]
    return _run_plans(
        config, trace, plans, refresh_policy, stop_after_first_trigger,
        max_activations, tracer, metrics, profiler,
    )


def run_simulation_fused(
    config: SimConfig,
    trace: Trace,
    mitigation_factory: Optional[MitigationFactory],
    seed: int = 0,
    refresh_policy: Optional[RefreshPolicy] = None,
    stop_after_first_trigger: bool = False,
    max_activations: Optional[int] = None,
    tracer=None,
    metrics=None,
    profiler=None,
) -> SimResult:
    """Single-cell fused run -- the ``--engine fused`` entry point.

    Drop-in compatible with :func:`repro.sim.engine.run_simulation`; the
    grid machinery degenerates to one lane.  Accepts arbitrary
    mitigation factories (unknown techniques replay per-record through
    the real ``Mitigation`` object).  With ``stop_after_first_trigger``
    or ``max_activations`` a lazy trace is read only a block past the
    records the run replays.
    """
    plans = [_Plan(mitigation_factory, seed, config, None)]
    return _run_plans(
        config, trace, plans, refresh_policy, stop_after_first_trigger,
        max_activations, tracer, metrics, profiler,
    )[0]

"""Tests for the TiVaPRoMi history table."""

import pytest
from hypothesis import given, strategies as st

from repro.core.history_table import HistoryTable


def make(entries=4, refint=64):
    return HistoryTable(entries=entries, refint=refint)


class TestBasics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            make(entries=0)

    def test_lookup_miss_returns_none(self):
        assert make().lookup(5) is None

    def test_record_then_lookup(self):
        table = make()
        table.record(5, 10)
        assert table.lookup(5) == 10

    def test_record_validates_interval(self):
        with pytest.raises(ValueError):
            make(refint=64).record(5, 64)

    def test_update_in_place(self):
        table = make()
        table.record(5, 10)
        table.record(5, 20)
        assert table.lookup(5) == 20
        assert len(table) == 1

    def test_clear(self):
        table = make()
        table.record(5, 10)
        table.clear()
        assert table.lookup(5) is None
        assert len(table) == 0


class TestFIFO:
    def test_oldest_evicted_at_capacity(self):
        table = make(entries=2)
        table.record(1, 0)
        table.record(2, 1)
        table.record(3, 2)
        assert table.lookup(1) is None
        assert table.lookup(2) == 1
        assert table.lookup(3) == 2

    def test_update_does_not_refresh_fifo_position(self):
        """The paper's table is plain FIFO: updating a row's interval
        keeps its queue position."""
        table = make(entries=2)
        table.record(1, 0)
        table.record(2, 1)
        table.record(1, 5)  # update in place
        table.record(3, 2)  # evicts row 1 (still oldest)
        assert table.lookup(1) is None
        assert table.lookup(2) == 1

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=100))
    def test_capacity_never_exceeded(self, rows):
        table = make(entries=4)
        for index, row in enumerate(rows):
            table.record(row, index % 64)
        assert len(table) <= 4


class TestSearch:
    def test_sequential_search_steps_counted(self):
        table = make()
        table.record(1, 0)
        table.record(2, 0)
        table.lookup(2)
        assert table.last_search_steps == 2

    def test_lookup_index(self):
        table = make()
        table.record(7, 3)
        table.record(9, 4)
        assert table.lookup_index(9) == 1
        assert table.lookup_index(8) == -1

    def test_entry_at(self):
        table = make()
        table.record(7, 3)
        entry = table.entry_at(0)
        assert entry.row == 7 and entry.interval == 3
        assert table.entry_at(5) is None


class TestStorage:
    def test_paper_size_is_120_bytes(self):
        """32 entries x (17-bit row + 13-bit interval) = 120 B (Section IV)."""
        table = HistoryTable(entries=32, refint=8192)
        assert table.table_bytes == 120

    def test_interval_bits(self):
        assert HistoryTable(entries=1, refint=8192).interval_bits == 13
        assert HistoryTable(entries=1, refint=64).interval_bits == 6

class TestFIFOProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=63),
            ),
            max_size=120,
        )
    )
    def test_matches_insertion_ordered_dict_model(self, ops):
        """The table behaves exactly like an insertion-ordered dict with
        oldest-first eviction: update-in-place keeps an entry's position,
        a new entry at capacity evicts the head.  The fused engine's
        history-table mirror relies on precisely this equivalence."""
        capacity = 4
        table = HistoryTable(entries=capacity, refint=64)
        model = {}
        for row, interval in ops:
            table.record(row, interval)
            if row in model:
                model[row] = interval
            else:
                if len(model) >= capacity:
                    del model[next(iter(model))]
                model[row] = interval
            assert len(table) == len(model)
            entries = [table.entry_at(i) for i in range(len(table))]
            assert [(e.row, e.interval) for e in entries] == list(model.items())
        for row in range(16):
            assert table.lookup(row) == model.get(row)

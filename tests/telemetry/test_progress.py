"""Tests for the unified progress event plane (repro.telemetry.progress)."""

from repro.telemetry.progress import ProgressDispatcher, ProgressEvent


class TestProgressEvent:
    def test_fraction_and_complete(self):
        event = ProgressEvent(kind="parallel_map", done=3, total=4)
        assert event.fraction == 0.75
        assert not event.complete
        assert ProgressEvent(kind="x", done=4, total=4).complete
        assert ProgressEvent(kind="x", done=0, total=0).fraction is None

    def test_as_dict_carries_attrs(self):
        event = ProgressEvent(
            kind="adversary", done=8, total=64, unit="evaluations",
            attrs={"generation": 2},
        )
        data = event.as_dict()
        assert data["kind"] == "adversary"
        assert data["unit"] == "evaluations"
        assert data["attrs"] == {"generation": 2}


class TestProgressDispatcher:
    def test_fans_out_to_every_listener(self):
        dispatcher = ProgressDispatcher("parallel_map", unit="items")
        first, events = [], []
        dispatcher.add_listener(lambda event: first.append(event.done))
        dispatcher.add_listener(events.append)
        dispatcher.emit(1, 3)
        dispatcher.emit(2, 3, chunk=1)
        assert first == [1, 2]
        assert [e.done for e in events] == [1, 2]
        assert events[0].kind == "parallel_map"
        assert events[0].unit == "items"
        assert events[1].attrs == {"chunk": 1}

    def test_bool_reflects_listeners(self):
        dispatcher = ProgressDispatcher("x")
        assert not dispatcher
        dispatcher.add_listener(None)  # ignored
        assert not dispatcher
        dispatcher.add_listener(lambda event: None)
        assert dispatcher

    def test_listener_exceptions_are_swallowed(self):
        dispatcher = ProgressDispatcher("x")
        seen = []

        def bad(event):
            raise RuntimeError("observer crashed")

        dispatcher.add_listener(bad)
        dispatcher.add_listener(seen.append)
        dispatcher.emit(1, 2)
        assert [e.done for e in seen] == [1]

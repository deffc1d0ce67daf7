"""Tests for hierarchical span recording (repro.telemetry.spans)."""

from repro.telemetry.spans import Span, SpanTracer, span_id_for, span_of


def small_tree(seed="cfg"):
    tracer = SpanTracer(id_seed=seed)
    with tracer.span("campaign", engine="fused"):
        with tracer.span("shard", technique="PARA", seed=0):
            with tracer.span("trace"):
                pass
            with tracer.span("simulate"):
                pass
        with tracer.span("shard", technique="PARA", seed=1):
            pass
    return tracer


class TestSpanIdentity:
    def test_ids_are_deterministic_across_runs(self):
        first = small_tree()
        second = small_tree()
        assert [s.span_id for s in first.spans] == \
            [s.span_id for s in second.spans]

    def test_ids_depend_on_seed_path_and_ordinal(self):
        assert span_id_for("a", "x", 0) != span_id_for("b", "x", 0)
        assert span_id_for("a", "x", 0) != span_id_for("a", "y", 0)
        assert span_id_for("a", "x", 0) != span_id_for("a", "x", 1)

    def test_repeated_paths_get_distinct_ids(self):
        tracer = small_tree()
        shards = [s for s in tracer.spans if s.name == "shard"]
        assert len(shards) == 2
        assert shards[0].span_id != shards[1].span_id
        assert shards[0].path == shards[1].path == "campaign/shard"

    def test_ids_never_derive_from_clocks(self):
        tracer = small_tree()
        for span in tracer.spans:
            assert span.span_id == span_id_for(
                tracer.id_seed, span.path,
                [s.span_id for s in tracer.spans
                 if s.path == span.path].index(span.span_id),
            )


class TestRecording:
    def test_paths_and_parentage(self):
        tracer = small_tree()
        by_path = {}
        for span in tracer.spans:
            by_path.setdefault(span.path, span)
        root = by_path["campaign"]
        assert root.parent_id is None
        assert by_path["campaign/shard"].parent_id == root.span_id
        assert by_path["campaign/shard/trace"].parent_id == \
            by_path["campaign/shard"].span_id

    def test_timing_is_populated(self):
        tracer = small_tree()
        for span in tracer.spans:
            assert span.finished
            assert span.wall_seconds >= 0.0
            assert span.cpu_seconds >= 0.0

    def test_start_finish_without_with_block(self):
        tracer = SpanTracer(id_seed="x")
        root = tracer.start("campaign")
        with tracer.span("shard"):
            pass
        finished = tracer.finish()
        assert finished is root
        assert root.finished
        assert tracer.current is None

    def test_set_attributes_after_open(self):
        tracer = SpanTracer(id_seed="x")
        with tracer.span("work") as span:
            span.set_attributes(items=3)
        assert tracer.spans[0].attributes == {"items": 3}

    def test_disabled_tracer_is_a_noop(self):
        tracer = SpanTracer(id_seed="x", enabled=False)
        with tracer.span("campaign") as span:
            assert span is None
        assert tracer.start("x") is None
        assert tracer.finish() is None
        assert len(tracer) == 0
        assert tracer.adopt(small_tree().as_dict()) == 0

    def test_span_of_accepts_none_and_disabled(self):
        with span_of(None, "x"):
            pass
        with span_of(SpanTracer(enabled=False), "x"):
            pass
        tracer = SpanTracer(id_seed="s")
        with span_of(tracer, "x", k=1):
            pass
        assert tracer.spans[0].attributes == {"k": 1}


class TestSerialisation:
    def test_round_trip_preserves_everything(self):
        tracer = small_tree()
        clone = SpanTracer.from_dict(tracer.as_dict())
        assert clone.as_dict() == tracer.as_dict()

    def test_span_from_dict_defaults(self):
        span = Span.from_dict({"name": "x", "span_id": "abc"})
        assert span.path == "x"
        assert span.parent_id is None
        assert not span.finished


class TestAdopt:
    def test_reparents_remote_roots_and_prefixes_paths(self):
        worker = SpanTracer(id_seed="cfg|PARA__s0")
        with worker.span("shard", technique="PARA", seed=0):
            with worker.span("simulate"):
                pass
        runner = SpanTracer(id_seed="cfg")
        root = runner.start("campaign")
        adopted = runner.adopt(worker.as_dict())
        runner.finish()
        assert adopted == 2
        shard = next(s for s in runner.spans if s.name == "shard")
        simulate = next(s for s in runner.spans if s.name == "simulate")
        assert shard.parent_id == root.span_id
        assert shard.path == "campaign/shard"
        assert simulate.path == "campaign/shard/simulate"
        # ids survive adoption verbatim: they carry the worker's seed
        assert shard.span_id == worker.spans[0].span_id
        # the child kept its original parent link
        assert simulate.parent_id == shard.span_id

    def test_explicit_parent_works_after_finish(self):
        worker = SpanTracer(id_seed="w")
        with worker.span("shard"):
            pass
        runner = SpanTracer(id_seed="r")
        root = runner.start("campaign")
        runner.finish()
        runner.adopt(worker.as_dict(), parent=root)
        assert runner.spans[-1].parent_id == root.span_id

    def test_adopt_none_or_empty_is_zero(self):
        runner = SpanTracer(id_seed="r")
        assert runner.adopt(None) == 0
        assert runner.adopt({"spans": []}) == 0


class TestSummary:
    def test_summary_has_no_clock_readings(self):
        summary = small_tree().summary()
        flat = repr(summary)
        assert "mono" not in flat and "cpu" not in flat
        assert summary["paths"]["campaign/shard"] == {
            "count": 2, "attribute_keys": ["seed", "technique"],
        }

    def test_summary_is_adoption_order_independent(self):
        workers = []
        for seed in (0, 1, 2):
            worker = SpanTracer(id_seed=f"cfg|PARA__s{seed}")
            with worker.span("shard", technique="PARA", seed=seed):
                with worker.span("simulate"):
                    pass
            workers.append(worker.as_dict())

        def merged(order):
            runner = SpanTracer(id_seed="cfg")
            root = runner.start("campaign")
            for data in order:
                runner.adopt(data, parent=root)
            runner.finish()
            return runner.summary()

        assert merged(workers) == merged(list(reversed(workers)))

    def test_timing_report_totals_per_path(self):
        report = small_tree().timing_report()
        entry = next(e for e in report if e["path"] == "campaign/shard")
        assert entry["count"] == 2
        assert entry["wall_seconds"] >= 0.0

"""Profiler section accumulation and the null fast path."""

from contextlib import nullcontext

from repro.telemetry.profiler import Profiler, section_of


class TestProfiler:
    def test_sections_accumulate_seconds_and_calls(self):
        profiler = Profiler()
        profiler.add("replay", 1.0)
        profiler.add("replay", 0.5)
        profiler.add("setup", 0.25)
        assert profiler.sections["replay"] == {"seconds": 1.5, "calls": 2}
        assert profiler.total_seconds == 1.75

    def test_section_context_manager_times_the_block(self):
        profiler = Profiler()
        with profiler.section("work"):
            pass
        entry = profiler.sections["work"]
        assert entry["calls"] == 1
        assert entry["seconds"] >= 0.0

    def test_report_lists_every_section(self):
        profiler = Profiler()
        profiler.add("engine:replay", 2.0)
        profiler.add("engine:setup", 1.0)
        report = profiler.report()
        assert "engine:replay" in report
        assert "engine:setup" in report
        assert "total" in report

    def test_total_counts_only_outermost_sections(self):
        profiler = Profiler()
        with profiler.section("technique:grid"):
            with profiler.section("engine:decode"):
                pass
            profiler.add("engine:replay", 2.0)
        # the 2.0 s added inside the open section is not counted twice
        outer = profiler.sections["technique:grid"]["seconds"]
        assert profiler.total_seconds == outer
        assert profiler.sections["engine:replay"] == {
            "seconds": 2.0, "calls": 1,
        }
        assert profiler.sections["engine:decode"]["calls"] == 1
        profiler.add("campaign:aggregate", 0.5)  # no section open
        assert profiler.total_seconds == outer + 0.5
        assert profiler.report().splitlines()[-1].split() == [
            "total", f"{outer + 0.5:.3f}",
        ]

    def test_as_dict_copies(self):
        profiler = Profiler()
        profiler.add("a", 1.0)
        snapshot = profiler.as_dict()
        snapshot["a"]["seconds"] = 99.0
        assert profiler.sections["a"]["seconds"] == 1.0


class TestSectionOf:
    def test_none_profiler_yields_nullcontext(self):
        assert isinstance(section_of(None, "x"), nullcontext)

    def test_real_profiler_records(self):
        profiler = Profiler()
        with section_of(profiler, "x"):
            pass
        assert profiler.sections["x"]["calls"] == 1

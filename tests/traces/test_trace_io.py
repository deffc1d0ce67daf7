"""Tests for trace serialisation."""

import pytest

from repro.config import small_test_config
from repro.traces.mixer import build_trace
from repro.traces.record import Trace, TraceMeta, TraceRecord
from repro.traces.trace_io import TraceFormatError, load_trace, save_trace
from repro.traces.workload import WorkloadParams


def sample_trace():
    meta = TraceMeta(total_intervals=4, interval_ns=7800, num_banks=2)
    records = [
        TraceRecord(0, 0, 10, False),
        TraceRecord(100, 1, 20, True),
        TraceRecord(7900, 0, 30, False),
    ]
    return Trace(meta=meta, records=records)


class TestRoundtrip:
    def test_save_returns_count(self, tmp_path):
        path = tmp_path / "trace.txt"
        assert save_trace(sample_trace(), path) == 3

    def test_roundtrip_preserves_everything(self, tmp_path):
        path = tmp_path / "trace.txt"
        original = sample_trace()
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.meta == original.meta
        assert list(loaded) == list(original)

    def test_lazy_load_streams(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        loaded = load_trace(path, lazy=True)
        assert not isinstance(loaded.records, list)
        assert len(list(loaded)) == 3

    def test_generated_trace_roundtrip(self, tmp_path):
        config = small_test_config()
        trace = build_trace(
            config,
            total_intervals=8,
            benign_params=WorkloadParams(avg_acts_per_interval=10),
            seed=2,
        ).materialize()
        path = tmp_path / "gen.txt"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert list(loaded) == list(trace)


class TestErrors:
    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)

    def test_reports_bad_record_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("bad,line\n")
        with pytest.raises(ValueError, match="bad record"):
            load_trace(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("\n\n")
        assert load_trace(path).count() == 3


class TestTraceFormatError:
    """The typed error carries path + line number for precise reports."""

    def test_is_a_value_error(self):
        # pre-existing `except ValueError` call sites keep working
        assert issubclass(TraceFormatError, ValueError)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="empty file"):
            load_trace(path)

    def test_wrong_header_prefix_points_at_line_1(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        error = excinfo.value
        assert error.path == str(path)
        assert error.line_no == 1
        assert "not a repro trace" in error.reason
        assert f"{path}:1" in str(error)

    def test_malformed_header_json(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("#repro-trace:{broken\n")
        with pytest.raises(TraceFormatError, match="malformed header JSON"):
            load_trace(path)

    def test_header_must_be_object(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("#repro-trace:[1, 2]\n")
        with pytest.raises(TraceFormatError, match="JSON object"):
            load_trace(path)

    @pytest.mark.parametrize(
        "missing", ["total_intervals", "interval_ns", "num_banks"]
    )
    def test_header_missing_field_named(self, tmp_path, missing):
        import json

        header = {"total_intervals": 4, "interval_ns": 7800, "num_banks": 2}
        del header[missing]
        path = tmp_path / "trace.txt"
        path.write_text(f"#repro-trace:{json.dumps(header)}\n")
        with pytest.raises(TraceFormatError, match=missing):
            load_trace(path)

    @pytest.mark.parametrize("bad", ["0", "-3", '"four"', "null"])
    def test_header_field_must_be_positive_integer(self, tmp_path, bad):
        path = tmp_path / "trace.txt"
        path.write_text(
            '#repro-trace:{"total_intervals": ' + bad +
            ', "interval_ns": 7800, "num_banks": 2}\n'
        )
        with pytest.raises(TraceFormatError, match="total_intervals"):
            load_trace(path)

    def test_bad_record_carries_exact_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)  # header + 3 records
        with path.open("a") as handle:
            handle.write("bad,line\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.line_no == 5
        assert "bad record" in excinfo.value.reason

    def test_non_integer_record_field(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("100,0,ten,0\n")
        with pytest.raises(TraceFormatError, match="integer fields"):
            load_trace(path)

    def test_lazy_load_raises_on_iteration(self, tmp_path):
        path = tmp_path / "trace.txt"
        save_trace(sample_trace(), path)
        with path.open("a") as handle:
            handle.write("bad,line\n")
        trace = load_trace(path, lazy=True)  # header is fine; no error yet
        with pytest.raises(TraceFormatError):
            list(trace)


class TestNpzRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        from repro.traces.trace_io import load_trace_npz, save_trace_npz

        path = tmp_path / "trace.npz"
        original = sample_trace()
        assert save_trace_npz(original, path) == 3
        loaded = load_trace_npz(path)
        assert loaded.meta == original.meta
        assert list(loaded) == list(original)

    def test_npz_smaller_than_text(self, tmp_path):
        from repro.traces.trace_io import save_trace_npz

        config = small_test_config()
        trace = build_trace(
            config,
            total_intervals=64,
            benign_params=WorkloadParams(avg_acts_per_interval=40),
            seed=2,
        ).materialize()
        text_path = tmp_path / "t.txt"
        npz_path = tmp_path / "t.npz"
        save_trace(trace, text_path)
        save_trace_npz(trace, npz_path)
        assert npz_path.stat().st_size < text_path.stat().st_size

    def test_generated_trace_roundtrip(self, tmp_path):
        from repro.traces.trace_io import load_trace_npz, save_trace_npz

        config = small_test_config()
        trace = build_trace(
            config,
            total_intervals=8,
            benign_params=WorkloadParams(avg_acts_per_interval=10),
            seed=3,
        ).materialize()
        path = tmp_path / "gen.npz"
        save_trace_npz(trace, path)
        assert list(load_trace_npz(path)) == list(trace)


class TestNpzErrors:
    """``load_trace_npz`` names malformed archives instead of misreading
    them."""

    @staticmethod
    def rewrite(path, **replace):
        """Rewrite the npz at *path*, replacing (``bytes``) or dropping
        (``None``) the members named in *replace*."""
        import zipfile

        with zipfile.ZipFile(path) as archive:
            members = {
                name: archive.read(name) for name in archive.namelist()
            }
        for name, data in replace.items():
            if data is None:
                del members[f"{name}.npy"]
            else:
                members[f"{name}.npy"] = data
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():
                archive.writestr(name, data)

    def saved(self, tmp_path):
        from repro.traces.trace_io import save_trace_npz

        path = tmp_path / "trace.npz"
        save_trace_npz(sample_trace(), path)
        return path

    def test_rejects_truncated_member(self, tmp_path):
        import zipfile

        from repro.traces.trace_io import load_trace_npz

        path = self.saved(tmp_path)
        with zipfile.ZipFile(path) as archive:
            times = archive.read("times.npy")
        self.rewrite(path, times=times[:-4])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace_npz(path)

    def test_rejects_corrupt_member(self, tmp_path):
        import zipfile

        from repro.traces.trace_io import load_trace_npz

        path = self.saved(tmp_path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("times.npy")
        # flip every byte of the member's deflate stream
        start = info.header_offset + 30 + len(info.filename) + len(info.extra)
        data = bytearray(path.read_bytes())
        for offset in range(start, start + info.compress_size):
            data[offset] ^= 0x5A
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="corrupt"):
            load_trace_npz(path)

    def test_rejects_non_zip(self, tmp_path):
        from repro.traces.trace_io import load_trace_npz

        path = tmp_path / "bogus.npz"
        path.write_bytes(b"definitely not a zip archive")
        with pytest.raises(TraceFormatError, match="unreadable npz"):
            load_trace_npz(path)

    @pytest.mark.parametrize("member", ["times", "attacks", "meta"])
    def test_rejects_missing_member(self, tmp_path, member):
        from repro.traces.trace_io import load_trace_npz

        path = self.saved(tmp_path)
        self.rewrite(path, **{member: None})
        with pytest.raises(TraceFormatError, match=f"missing member '{member}'"):
            load_trace_npz(path)

    def test_rejects_float_column(self, tmp_path):
        """A float ``times`` column would load as values truncated by
        ``int()``; its dtype is named instead."""
        import io

        import numpy as np

        from repro.traces.trace_io import load_trace_npz

        path = self.saved(tmp_path)
        buffer = io.BytesIO()
        np.save(buffer, np.array([1e-300, 2e-300, 3e-300]))
        self.rewrite(path, times=buffer.getvalue())
        with pytest.raises(TraceFormatError, match="dtype '<f8'"):
            load_trace_npz(path)

    def test_rejects_inconsistent_lengths(self, tmp_path):
        import io

        import numpy as np

        from repro.traces.trace_io import load_trace_npz

        path = self.saved(tmp_path)
        buffer = io.BytesIO()
        np.save(buffer, np.array([0, 1], dtype=np.int32))
        self.rewrite(path, rows=buffer.getvalue())
        with pytest.raises(TraceFormatError, match="inconsistent lengths"):
            load_trace_npz(path)

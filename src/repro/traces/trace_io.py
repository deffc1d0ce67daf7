"""Trace serialisation.

Two formats:

* **text** (:func:`save_trace` / :func:`load_trace`) -- a JSON header
  line followed by one CSV line per record; easy to inspect, diff, and
  stream.  This is the interchange point where externally captured
  traces (e.g. converted gem5 output) enter the pipeline.
* **npz** (:func:`save_trace_npz` / :func:`load_trace_npz`) -- columnar
  numpy arrays; ~10x smaller and far faster for the multi-million-
  record traces of full-scale runs.  Ingest caches and campaign spools
  use this format.

Externally captured traces in foreign formats (DRAMSim-style command
logs, litex-rowhammer-tester payload dumps) enter through
:mod:`repro.traces.ingest`, which reuses the parsing helpers here for
the native format and raises the same :class:`TraceFormatError` on
malformed input.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union

import numpy as np

from repro.traces.record import Trace, TraceMeta, TraceRecord

_HEADER_PREFIX = "#repro-trace:"

#: header fields every native trace must declare
_HEADER_KEYS = ("total_intervals", "interval_ns", "num_banks")

#: the members of an npz trace, in the order :func:`load_trace_npz` reads
_NPZ_COLUMNS = ("times", "banks", "rows", "attacks", "meta")


class TraceFormatError(ValueError):
    """A trace file violates its format contract.

    Carries the offending ``path`` and (when known) 1-based ``line_no``
    so callers -- and the ``--on-parse-error`` policy of the ingest
    pipeline -- can point at the exact input line.  Subclasses
    :class:`ValueError` so pre-existing ``except ValueError`` callers
    keep working.
    """

    def __init__(self, path, message: str, line_no: Optional[int] = None):
        location = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = message


def parse_trace_header(line: str, path) -> TraceMeta:
    """Parse and validate the ``#repro-trace:`` header line.

    Raises :class:`TraceFormatError` (pointing at line 1 of *path*)
    when the prefix is missing, the JSON payload does not parse, a
    required field is absent, or a field is not a positive integer.
    """
    if not line:
        raise TraceFormatError(
            path, "empty file (expected a '#repro-trace:' header line)"
        )
    if not line.startswith(_HEADER_PREFIX):
        raise TraceFormatError(
            path,
            "not a repro trace file (first line must start with "
            f"{_HEADER_PREFIX!r})",
            line_no=1,
        )
    try:
        header = json.loads(line[len(_HEADER_PREFIX):])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            path, f"malformed header JSON: {exc}", line_no=1
        ) from exc
    if not isinstance(header, dict):
        raise TraceFormatError(
            path, f"header must be a JSON object, got {type(header).__name__}",
            line_no=1,
        )
    values = {}
    for key in _HEADER_KEYS:
        if key not in header:
            raise TraceFormatError(
                path, f"header missing required field {key!r}", line_no=1
            )
        try:
            values[key] = int(header[key])
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(
                path,
                f"header field {key!r} must be an integer, "
                f"got {header[key]!r}",
                line_no=1,
            ) from exc
        if values[key] < 1:
            raise TraceFormatError(
                path, f"header field {key!r} must be positive, "
                      f"got {values[key]}", line_no=1
            )
    return TraceMeta(**values)


def parse_trace_record(line: str, path, line_no: int) -> TraceRecord:
    """Parse one ``time_ns,bank,row,is_attack`` record line.

    Raises :class:`TraceFormatError` with *path* and *line_no* on a
    field-count or integer-conversion failure.
    """
    try:
        time_ns, bank, row, is_attack = line.split(",")
        return TraceRecord(
            int(time_ns), int(bank), int(row), bool(int(is_attack))
        )
    except ValueError as exc:
        raise TraceFormatError(
            path,
            f"bad record {line!r} (expected 'time_ns,bank,row,is_attack' "
            "with integer fields)",
            line_no=line_no,
        ) from exc


def read_trace_stream(handle: TextIO, path) -> Iterator[TraceRecord]:
    """Yield the records of an already-opened native trace *handle*.

    Assumes the header line has been consumed.  Blank lines are
    ignored; anything else must parse as a record.
    """
    for line_no, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        yield parse_trace_record(line, path, line_no)


def save_trace(trace: Trace, path: Union[str, Path]) -> int:
    """Write *trace* to *path*; returns the number of records written."""
    path = Path(path)
    count = 0
    header = {
        "total_intervals": trace.meta.total_intervals,
        "interval_ns": trace.meta.interval_ns,
        "num_banks": trace.meta.num_banks,
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(_HEADER_PREFIX + json.dumps(header) + "\n")
        for record in trace:
            handle.write(
                f"{record.time_ns},{record.bank},{record.row},"
                f"{int(record.is_attack)}\n"
            )
            count += 1
    return count


def load_trace(path: Union[str, Path], lazy: bool = False) -> Trace:
    """Read a trace written by :func:`save_trace`.

    With ``lazy=True`` records stream from disk on iteration (one pass
    only); otherwise they are materialised into a list.  Malformed
    input raises :class:`TraceFormatError` naming the file and line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
    meta = parse_trace_header(header_line, path)

    def read_records() -> Iterator[TraceRecord]:
        with path.open("r", encoding="utf-8") as handle:
            handle.readline()  # header
            yield from read_trace_stream(handle, path)

    trace = Trace(meta=meta, records=read_records())
    if not lazy:
        trace.materialize()
    return trace


def save_trace_npz(trace: Trace, path: Union[str, Path]) -> int:
    """Write *trace* as columnar numpy arrays; returns the record count."""
    trace.materialize()
    records = trace.records
    count = len(records)
    times = np.fromiter((r.time_ns for r in records), dtype=np.int64, count=count)
    banks = np.fromiter((r.bank for r in records), dtype=np.int16, count=count)
    rows = np.fromiter((r.row for r in records), dtype=np.int32, count=count)
    attacks = np.fromiter(
        (r.is_attack for r in records), dtype=np.bool_, count=count
    )
    np.savez_compressed(
        Path(path),
        times=times,
        banks=banks,
        rows=rows,
        attacks=attacks,
        meta=np.array(
            [trace.meta.total_intervals, trace.meta.interval_ns,
             trace.meta.num_banks],
            dtype=np.int64,
        ),
    )
    return count


def _npz_column(data, name: str, path) -> np.ndarray:
    """Member *name* of an open npz archive, checked to be of an integer
    or bool dtype."""
    try:
        column = data[name]
    except KeyError as exc:
        raise TraceFormatError(
            path, f"unreadable npz archive: missing member {name!r}"
        ) from exc
    except (
        ValueError, EOFError, OSError, zipfile.BadZipFile, zlib.error
    ) as exc:
        raise TraceFormatError(
            path, f"npz member {name!r} is truncated or corrupt: {exc}"
        ) from exc
    if column.dtype.kind not in "biu":
        raise TraceFormatError(
            path, f"npz member {name!r} has dtype {column.dtype.str!r}, "
                  "expected an integer or bool column"
        )
    return column


def load_trace_npz(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace_npz`.

    Raises :class:`TraceFormatError` when *path* is not a zip archive,
    or a member is missing, truncated, not of an integer or bool dtype,
    or of the wrong length.
    """
    path = Path(path)
    with path.open("rb") as handle:
        if not zipfile.is_zipfile(handle):
            raise TraceFormatError(
                path, "unreadable npz archive: not a zip file"
            )
    with np.load(path) as data:
        times, banks, rows, attacks, header = (
            _npz_column(data, name, path) for name in _NPZ_COLUMNS
        )
        if len(header) != 3 or not (
            len(times) == len(banks) == len(rows) == len(attacks)
        ):
            raise TraceFormatError(
                path, "npz columns have inconsistent lengths"
            )
        total_intervals, interval_ns, num_banks = (int(v) for v in header)
        records = [
            TraceRecord(int(t), int(b), int(r), bool(a))
            for t, b, r, a in zip(times, banks, rows, attacks)
        ]
    meta = TraceMeta(
        total_intervals=total_intervals,
        interval_ns=interval_ns,
        num_banks=num_banks,
    )
    return Trace(meta=meta, records=records)

"""Tracer implementations: where telemetry events go.

The engines accept any object satisfying the :class:`Tracer` protocol.
``enabled`` is checked **once** at engine start: a disabled tracer
(:class:`NullTracer`, the default behaviour of ``tracer=None``) costs
nothing on the hot path because the engine never constructs events at
all.  Enabled tracers receive every event as a plain dict (see
:mod:`repro.telemetry.events` for the schema).
"""

from __future__ import annotations

import json
from typing import IO, List, Optional

try:  # pragma: no cover - Protocol exists on every supported Python
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


from repro.telemetry.events import Event


@runtime_checkable
class Tracer(Protocol):
    """Anything that can receive telemetry events."""

    #: engines skip event construction entirely when this is False
    enabled: bool

    def emit(self, event: Event) -> None:
        """Receive one event dict (never mutated after emission)."""


class NullTracer:
    """The zero-cost default: claims to be disabled, drops everything.

    Passing ``tracer=NullTracer()`` is exactly equivalent to passing
    ``tracer=None`` -- the engines see ``enabled`` is False and never
    build a single event (a guarantee pinned by the overhead guard in
    ``benchmarks/bench_fused_engine.py``).
    """

    enabled = False

    def emit(self, event: Event) -> None:  # pragma: no cover - never called
        pass


class RecordingTracer:
    """Keeps every event in memory; the workhorse of tests and notebooks."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        return [event["kind"] for event in self.events]

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)


class JsonlTracer:
    """Streams events to a file, one compact JSON object per line.

    Usable as a context manager; :meth:`close` is idempotent.  The
    output is append-ordered, so ``time_ns`` is non-decreasing down the
    file and line-oriented tools (``grep``, ``jq``, ``wc -l``) work
    directly on partial traces of interrupted runs.
    """

    enabled = True

    def __init__(self, path: str) -> None:
        self.path = path
        self.events_written = 0
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")

    def emit(self, event: Event) -> None:
        if self._fh is None:
            raise ValueError(f"tracer for {self.path} is closed")
        self._fh.write(json.dumps(event, separators=(",", ":")))
        self._fh.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl_events(path: str) -> List[Event]:
    """Load a JSONL event trace back into a list of event dicts."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events

"""One progress vocabulary for every long-running loop.

``parallel_map``, ``run_campaign``/``run_durable_campaign`` and the
adversary ``run_search`` report progress as :class:`ProgressEvent`
records to an ``on_event`` listener.  An event carries *what kind of
unit* is being counted and arbitrary context attributes -- which is
what the status bus and the ``campaign-status --follow`` view need to
render heterogeneous producers uniformly.

Producers build a :class:`ProgressDispatcher`, hand it their
listeners, and emit once per step; the dispatcher fans out and never
lets a listener's exception kill the producing loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: a listener receiving the full event record
ProgressListener = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """A point-in-time progress report from one producing loop.

    ``kind`` names the producer (``"campaign"``, ``"parallel_map"``,
    ``"adversary"``, ...), ``unit`` names what ``done``/``total``
    count (``"cells"``, ``"shards"``, ``"evaluations"``).
    """

    kind: str
    done: int
    total: int
    unit: str = "items"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def fraction(self) -> Optional[float]:
        if self.total <= 0:
            return None
        return min(1.0, self.done / self.total)

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.done >= self.total

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "done": self.done,
            "total": self.total,
            "unit": self.unit,
            "attrs": dict(self.attrs),
        }


class ProgressDispatcher:
    """Fans one stream of :class:`ProgressEvent` out to many listeners.

    Listener exceptions are swallowed so observability can never abort
    the work it is observing.
    """

    def __init__(self, kind: str, unit: str = "items") -> None:
        self.kind = kind
        self.unit = unit
        self._listeners: List[ProgressListener] = []

    def add_listener(self, listener: Optional[ProgressListener]) -> None:
        if listener is not None:
            self._listeners.append(listener)

    def __bool__(self) -> bool:
        return bool(self._listeners)

    def emit(self, done: int, total: int, **attrs: Any) -> ProgressEvent:
        event = ProgressEvent(
            kind=self.kind, done=done, total=total, unit=self.unit,
            attrs=attrs,
        )
        for listener in self._listeners:
            try:
                listener(event)
            except Exception:  # noqa: BLE001 - observers must not kill work
                continue
        return event

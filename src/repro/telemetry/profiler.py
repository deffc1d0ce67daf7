"""Phase profiling hooks (`--profile` on the CLI).

A :class:`Profiler` accumulates named ``time.perf_counter`` sections.
The engines open a handful of coarse sections per run (setup, replay,
drain), the experiment layer adds per-technique and trace-generation
sections, and the CLI renders the breakdown after the run.  Sections
nest (``technique:grid`` encloses the engine's ``engine:*`` sections),
so the total counts only outermost ones.  Passing ``profiler=None``
(the default) keeps every call site on a ``nullcontext`` fast path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Dict, Optional


class Profiler:
    """Accumulates wall-clock time per named phase."""

    def __init__(self) -> None:
        #: ``name -> {"seconds": float, "calls": int}``, insertion-ordered
        self.sections: Dict[str, Dict[str, float]] = {}
        self._depth = 0  # sections open right now
        self._outermost = 0.0  # seconds of sections opened at depth 0

    @contextmanager
    def section(self, name: str):
        started = time.perf_counter()
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            self.add(name, time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        """Record *seconds* under *name*; counted toward the total unless
        a section is open, which then encloses them."""
        entry = self.sections.setdefault(name, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += seconds
        entry["calls"] += 1
        if self._depth == 0:
            self._outermost += seconds

    @property
    def total_seconds(self) -> float:
        """Seconds of the outermost sections: nested ones are inside."""
        return self._outermost

    def as_dict(self) -> Dict[str, Any]:
        return {name: dict(entry) for name, entry in self.sections.items()}

    def report(self) -> str:
        """Phase breakdown table, slowest phase first."""
        total = self.total_seconds or 1.0
        lines = ["phase                          seconds    calls   share",
                 "-----                          -------    -----   -----"]
        ordered = sorted(
            self.sections.items(), key=lambda item: -item[1]["seconds"]
        )
        for name, entry in ordered:
            lines.append(
                f"{name:<30} {entry['seconds']:>8.3f} {entry['calls']:>8d}"
                f"  {100.0 * entry['seconds'] / total:>5.1f}%"
            )
        lines.append(
            f"{'total':<30} {self.total_seconds:>8.3f}"
        )
        return "\n".join(lines)


def section_of(profiler: Optional[Profiler], name: str) -> ContextManager:
    """``profiler.section(name)`` or a free ``nullcontext``.

    Lets call sites write ``with section_of(profiler, "engine:replay"):``
    without branching on whether profiling is enabled.
    """
    if profiler is None:
        return nullcontext()
    return profiler.section(name)

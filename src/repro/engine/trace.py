"""Protocol / execution tracing.

Tracing is opt-in: the :class:`NullTracer` used by default turns every
trace call into a single attribute lookup + truth test, keeping the hot
path cheap.  A real :class:`Tracer` records structured records that tests
and debugging sessions can assert against or dump as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    time: int
    category: str
    node: int
    event: str
    detail: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in self.detail)
        return f"[{self.time:>10}] n{self.node:<2} {self.category}:{self.event} {kv}"


class NullTracer:
    """A tracer that records nothing (the default)."""

    enabled = False

    def record(self, time: int, category: str, node: int, event: str,
               **detail: Any) -> None:
        pass

    def records(self) -> List[TraceEvent]:
        return []


class Tracer(NullTracer):
    """Records structured trace records, optionally filtered by category.

    Parameters
    ----------
    categories:
        If given, only records whose category is in this set are kept.
    sink:
        Optional callable invoked with each record as it is created
        (e.g. ``print``).
    limit:
        Maximum number of records to retain (protects long runs).
    """

    enabled = True

    def __init__(self, categories: Optional[set] = None,
                 sink: Optional[Callable[[TraceEvent], None]] = None,
                 limit: int = 1_000_000) -> None:
        self._records: List[TraceEvent] = []
        self._categories = categories
        self._sink = sink
        self._limit = limit
        self.dropped = 0

    def record(self, time: int, category: str, node: int, event: str,
               **detail: Any) -> None:
        if self._categories is not None and category not in self._categories:
            return
        if len(self._records) >= self._limit:
            self.dropped += 1
            return
        rec = TraceEvent(time, category, node, event,
                          tuple(sorted(detail.items())))
        self._records.append(rec)
        if self._sink is not None:
            self._sink(rec)

    def records(self) -> List[TraceEvent]:
        return list(self._records)

    def filter(self, category: Optional[str] = None,
               event: Optional[str] = None,
               node: Optional[int] = None) -> Iterator[TraceEvent]:
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if event is not None and rec.event != event:
                continue
            if node is not None and rec.node != node:
                continue
            yield rec

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rec in self._records:
            key = f"{rec.category}:{rec.event}"
            out[key] = out.get(key, 0) + 1
        return out

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

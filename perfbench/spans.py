"""Spans around calls into the program, and the statistics drawn from them.

A traced run wraps each public call in a span that records its name, start,
end, the span that caused it and the op it belongs to. Spans stay in memory
until the run writes them out. An untraced run calls the program through
``direct``, which adds one Python call and records nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

# A tail percentile is named only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def direct(name, fn, *args):
    """Call fn untraced; the signature matches Tracer.call."""
    return fn(*args)


def no_span(name):
    """Untraced counterpart of Tracer.span."""
    return nullcontext()


class Tracer:
    """Records one span per call, grouped into ops; nothing leaves memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.groups: dict[int, str] = {}
        self.op = -1
        self._next_id = 0
        self._open: list[int] = []

    def start_op(self, group: str) -> None:
        """Spans recorded from now on belong to a new op of the given group."""
        self.op += 1
        self.groups[self.op] = group

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, name, self.op, parent, start, end))

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def ops(self, group: str) -> set[int]:
        return {op for op, g in self.groups.items() if g == group}

    def dump(self) -> list[dict]:
        return [asdict(s) | {"group": self.groups.get(s.op)} for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.id] = s.seconds - covered
    return result


def per_op_totals(spans: list[Span], seconds=None) -> dict[str, dict[int, float]]:
    """{span name: {op: summed seconds}}; seconds maps a span to its time."""
    totals: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        totals[s.name][s.op] += s.seconds if seconds is None else seconds[s.id]
    return totals


def embed_self(embed_s: float, validate_s: float, sites_s: float) -> float:
    """Time embed spends outside carrier validation and site selection."""
    return embed_s - validate_s - sites_s


def tail_min_samples(pct: int) -> int:
    """Fewest samples for which the pct-th percentile has TAIL_MIN_BEYOND beyond it."""
    return -(-TAIL_MIN_BEYOND * 100 // (100 - pct))


def percentile(samples, pct: int) -> float:
    """Nearest-rank pct-th percentile of a tail; refuses one too thin to name."""
    xs = sorted(samples)
    rank = -(-pct * len(xs) // 100)
    if len(xs) - rank < TAIL_MIN_BEYOND:
        raise ValueError(
            f"p{pct} needs {TAIL_MIN_BEYOND} samples beyond it; "
            f"{len(xs)} samples leave {len(xs) - rank}"
        )
    return xs[rank - 1]

"""Span tracer that wraps the program's public functions from outside.

Each wrapper is installed at the name where the caller looks the function
up: `bridge.py` calls its own imported `encode`, so `bridge.encode` is
wrapped as well as `span_model.encode`. A span records its name, start,
end, parent span, question id and benchmark section. Spans stay in memory
until the run ends. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Span names starting with this prefix are the tracer's own work (per-call
# hooks such as counting tape nodes); they are reported as overhead, never
# as a layer.
OWN = "trace."


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    qid: str | None
    section: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    samples: dict = field(default_factory=lambda: defaultdict(list))
    qid: str | None = None
    section: str = ""
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.qid, self.section))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.section, key)] += value

    def sample(self, key: str, value: float) -> None:
        self.samples[(self.section, key)].append(value)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace owner.attr with a wrapper recording a span per call.

        name is the span name, or a callable (args, kwargs) -> name. after,
        when given, is called as after(tracer, args, kwargs, result) once the
        call returns; its cost is recorded under its own overhead span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                hook = tracer._open(OWN + "hook")
                try:
                    after(tracer, args, kwargs, result)
                finally:
                    tracer._close(hook)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_count(self, owner, attr: str, key: str) -> None:
        """Replace owner.attr with a wrapper that only counts calls (for
        functions called per candidate, where a span each would cost more
        than the call)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.section, key)] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- analysis ----------------------------------------------------------

    def self_times(self, section: str | None = None) -> dict[str, float]:
        """Seconds of self time per span name (optionally one section only)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        totals: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if section is None or s.section == section:
                totals[s.name] += s.duration - child_time[i]
        return dict(totals)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                         "qid": s.qid, "section": s.section}
                    )
                    + "\n"
                )

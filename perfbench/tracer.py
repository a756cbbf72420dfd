"""In-memory span tracer that wraps library functions from outside.

A span is recorded around each call of a wrapped function: its name, an
id, the id of the enclosing span, and start and end times from
``time.perf_counter_ns``.  Hooks attach attributes before the call and
counts after it, so counts are taken at the same boundaries as the
spans.  Nothing is written until ``write_jsonl`` is called.

Wrapping happens at the attribute a caller resolves: ``isogeny.roots``
rather than ``ffield.roots`` for a call made inside ``isogeny``, and the
class attribute for a method.  ``close`` restores every original.
"""

import functools
import json
from time import perf_counter_ns


def add_counts(into: dict, counts: dict):
    """Sum counts into a running total; keys ending in ``_max`` keep the
    maximum instead."""
    for key, value in counts.items():
        if key.endswith("_max"):
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value


class Span:
    __slots__ = ("name", "id", "parent", "start", "end", "attrs", "counts")

    def __init__(self, name, span_id, parent, attrs):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.attrs = attrs
        self.counts = None
        self.start = self.end = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans and counts for the functions passed to ``wrap``."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._originals = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``before(args, kwargs)`` returns the span's attributes (or None);
        ``after(attrs, args, kwargs, result)`` returns counts to add.
        Neither runs inside the span's timed interval.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            stack = tracer._stack
            span = Span(name, len(tracer.spans),
                        stack[-1] if stack else None, attrs)
            tracer.spans.append(span)
            stack.append(span.id)
            span.start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if after:
                span.counts = after(attrs, args, kwargs, result)
                add_counts(tracer.counts, span.counts)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def close(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def ancestors(self, span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span

    def totals(self) -> tuple:
        """(seconds, calls) per span name.  Seconds count only the
        outermost span of a name, so recursion is not counted twice."""
        seconds, calls = {}, {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            if all(a.name != s.name for a in self.ancestors(s)):
                seconds[s.name] = seconds.get(s.name, 0.0) + s.duration / 1e9
        return seconds, calls

    def write_jsonl(self, path):
        own = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "id": s.id, "parent": s.parent,
                    "start_ns": s.start, "end_ns": s.end,
                    "self_ns": own[s.id], "attrs": s.attrs,
                    "counts": s.counts}) + "\n")
            fh.write(json.dumps({"name": "counts",
                                 "counts": self.counts}) + "\n")

"""In-memory spans around calls into the program, and self-time arithmetic.

A span records one call: its name, start and end on the monotonic clock,
the span that was open on the same thread when it began (its parent), and
attributes computed from the call's arguments and result.  Spans stay in
memory until the traced process ends and writes them out.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time


class Tracer:
    """Wraps functions so that every call records a span."""

    def __init__(self, trace_id: str, clock=time.perf_counter):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` recording a span per call.

        ``attrs(args, kwargs, result)``, if given, returns a dict stored on
        the span; it runs after the span has ended.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "trace": self.trace_id,
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "thread": threading.get_ident(),
                "start": self._clock(),
                "end": None,
                "attrs": {},
            }
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self._clock()
                stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def _children(spans: list[dict]) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def self_times(spans: list[dict]) -> dict:
    """Map span id to self time: its duration minus the part of its
    interval that the union of its child spans covers."""
    kids = _children(spans)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(kids.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out


def nesting_violations(spans: list[dict]) -> list[str]:
    """Spans whose children's self times add up to more than the span itself."""
    kids = _children(spans)
    own = self_times(spans)
    bad = []
    for s in spans:
        total = sum(own[c["id"]] for c in kids.get(s["id"], ()))
        if total > duration(s) + 1e-9:
            bad.append(f"{s['name']}#{s['id']}: children {total:.6f} s > span {duration(s):.6f} s")
    return bad

"""In-memory span tracer installed from outside the program.

The traced run wraps public functions of ``coderag_ray`` modules by
patching the attribute their callers resolve at call time (a module
global or a class attribute).  Each call records one span: name,
start, end, parent span and the id of the client request it served.
Spans stay in memory and are written out once, at exit.

A span's self time is its duration minus the part of its interval that
its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request: int | None = None

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Tag every span opened inside with ``request_id``."""
        prev, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = prev

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sid = len(self.spans)
            sp = Span(sid, name, self._clock(), 0.0,
                      stack[-1] if stack else None, self._request)
            self.spans.append(sp)
        stack.append(sid)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = self._clock()

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace ``owner.attr`` with a traced version; returns an undo
        callable.  ``on_result(result)`` sees every return value."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            with self.span(name):
                out = raw(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, name[, on_result])`` for the block."""
        undo = []
        try:
            for t in targets:
                undo.append(self.wrap(*t))
            yield self
        finally:
            for u in reversed(undo):
                u()

    # -- reading -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Per-span self time of every span called ``name``."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        return [(s.end - s.start) - covered(kids.get(s.id, ()), s.start, s.end)
                for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")

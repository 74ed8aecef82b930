"""Span recorder that wraps functions from outside the package.

A :class:`Tracer` replaces an attribute of a module or class (for
example ``tokenhier.ssl.stain_augment`` or ``RngStream.gaussian``) with
a wrapper that records one span per call: name, start, end, parent span
and thread.  The wrapper goes into the namespace of the *calling*
module, because the package binds its imports by name.  Spans stay in
memory until :meth:`Tracer.write_jsonl`; :meth:`Tracer.restore` puts
every replaced attribute back exactly as it was.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; use as a context manager so
    the wrappers are removed even when the traced code raises."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []   # (owner, attr, value found in owner.__dict__)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span (sizes, modes, validity of the result).  Methods are
        wrapped on the class, so ``args[0]`` is the instance.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            error = True
            result = None
            try:
                result = original(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and not error else {}
                tracer.spans.append(Span(span_id, name, start, end, parent,
                                         threading.get_ident(), error, extra))

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, found = self._patches.pop()
            if found is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, found)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def named(self, *names) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def self_times(self) -> dict:
        """Span id -> own duration minus the time its children cover.

        Children run on the parent's thread one after another, so their
        durations do not overlap and can simply be summed."""
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.dur
        return {s.id: s.dur - child_time.get(s.id, 0.0) for s in self.spans}

    def write_jsonl(self, fh, origin: float = 0.0, **tags) -> None:
        """One JSON object per span to an open text file, times in
        seconds from ``origin``, each record extended by ``tags``."""
        for s in sorted(self.spans, key=lambda s: s.start):
            rec = dict(tags, id=s.id, name=s.name, parent=s.parent,
                       thread=s.thread, start=round(s.start - origin, 9),
                       end=round(s.end - origin, 9))
            if s.error:
                rec["error"] = True
            if s.attrs:
                rec["attrs"] = s.attrs
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

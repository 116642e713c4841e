"""In-memory spans recorded by wrappers around the program's functions.

A wrapper is installed where the caller looks a name up (a module
attribute or a class attribute) and records one span per call: op id,
span id, parent span id, name, start and end.  The current span travels
in a context variable, so spans opened on asyncio tasks and executor
threads that copy the context still link to their parent.  Spans stay in
memory until the run ends (``dump``); ``busy`` and ``self_time`` fold
them into per-layer numbers.  Nothing here knows the program: the layer
map lives in ``layers.py``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple, Union

#: (span id, op id, name) of the innermost open span
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

# op id, span id, parent span id (0 = root), name, start, end
Span = Tuple[int, int, int, str, float, float]

NameFn = Union[str, Callable[..., str]]
#: (args, result, seconds) -> counter increments
AfterFn = Callable[[tuple, object, float], Dict[str, float]]

_MISSING = object()


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: free-form counters the wrappers' ``after`` hooks accumulate
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str):
        """Start a span under the current one; None inside a same-name span.

        A layer that re-enters itself (a method calling its own public
        sibling) is counted once, by its outermost call.
        """
        parent = _CURRENT.get()
        if parent is not None and parent[2] == name:
            return None
        span_id = next(self._ids)
        op_id = parent[1] if parent is not None else span_id
        token = _CURRENT.set((span_id, op_id, name))
        return (op_id, span_id, parent[0] if parent is not None else 0, name,
                time.perf_counter(), token)

    def close(self, handle) -> None:
        if handle is None:
            return
        op_id, span_id, parent_id, name, t0, token = handle
        t1 = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append((op_id, span_id, parent_id, name, t0, t1))

    def record(self, name: str, t0: float, t1: float, parent: Optional[tuple]) -> None:
        """Add a finished span whose start was captured earlier."""
        span_id = next(self._ids)
        if parent is None:
            self.spans.append((span_id, span_id, 0, name, t0, t1))
        else:
            self.spans.append((parent[1], span_id, parent[0], name, t0, t1))

    def count(self, increments: Dict[str, float]) -> None:
        for key, amount in increments.items():
            self.counts[key] += amount

    @staticmethod
    def current() -> Optional[tuple]:
        return _CURRENT.get()

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: NameFn,
             after: Optional[AfterFn] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name or a function of the call's arguments
        returning it.  ``after(args, result, seconds)`` runs once the call
        returns and gives counter increments (bytes, rows, requests).
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _MISSING)
            target = getattr(owner, attr) if original is _MISSING else original
        else:
            original = getattr(owner, attr)
            target = original
        tracer = self

        def span_name(args, kwargs) -> str:
            return name if isinstance(name, str) else name(*args, **kwargs)

        if inspect.iscoroutinefunction(target):
            @functools.wraps(target)
            async def wrapper(*args, **kwargs):
                handle = tracer.open(span_name(args, kwargs))
                t0 = time.perf_counter()
                try:
                    result = await target(*args, **kwargs)
                finally:
                    tracer.close(handle)
                if after is not None:
                    tracer.count(after(args, result, time.perf_counter() - t0))
                return result
        else:
            @functools.wraps(target)
            def wrapper(*args, **kwargs):
                handle = tracer.open(span_name(args, kwargs))
                t0 = time.perf_counter()
                try:
                    result = target(*args, **kwargs)
                finally:
                    tracer.close(handle)
                if after is not None:
                    tracer.count(after(args, result, time.perf_counter() - t0))
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def hook(self, owner: object, attr: str, before: Callable[[tuple], object],
             after: Callable[[object, tuple, object], None]) -> None:
        """Wrap ``owner.attr`` with plain callbacks and no span of its own.

        ``before(args)`` returns a token handed to ``after(token, args,
        result)``; for work measured across two calls (submit -> result)
        or around another wrapper (file size before and after).
        """
        original = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr)
        target = getattr(owner, attr) if original is _MISSING else original

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            token = before(args)
            result = target(*args, **kwargs)
            after(token, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- folding ---------------------------------------------------------------

    def busy(self, name: str) -> float:
        """Summed duration of every ``name`` span (seconds)."""
        return sum(t1 - t0 for _o, _s, _p, n, t0, t1 in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[3] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus what their children cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _o, _s, parent, _n, t0, t1 in self.spans:
            if parent:
                children[parent].append((t0, t1))
        total = 0.0
        for _o, span_id, _p, n, t0, t1 in self.spans:
            if n != name:
                continue
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(span_id, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            total += (t1 - t0) - covered
        return total

    def ops(self) -> int:
        return len({span[0] for span in self.spans})

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for op_id, span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "op": op_id, "span": span_id, "parent": parent,
                    "name": name, "start": t0, "end": t1,
                }) + "\n")

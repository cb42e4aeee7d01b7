"""The benchmark's span recorder and the wrappers that feed it.

A span has a name, a start and end (``perf_counter_ns``), the span that
caused it (its parent on the same thread) and the end-to-end operation it
belongs to.  Spans are kept in memory and written out when the run ends.
A span's *self time* is its duration minus the time its child spans
cover, accumulated on exit so no post-pass is needed.  Counts and free
samples are recorded at the same boundaries and attributed to the same
operation.

Operations are the roots: :meth:`Tracer.op` opens one on the calling
thread and every span below it on that thread belongs to it.  A span
opened on a thread with no operation (the daemon's job-log thread, its
event loop) is *unattributed*; per-op figures for those are totals
divided by the number of operations.

The wrappers replace public functions and methods of ``repro`` from
here, in the benchmark's own files; :meth:`Instrumentation.restore` puts
every original back.  With the tracer inactive each wrapper costs one
attribute load and a branch.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

now_ns = time.perf_counter_ns


@dataclass
class _Frame:
    span_id: int
    parent: int
    op: int
    name: str
    start: int
    child_ns: int = 0


@dataclass
class Op:
    op_id: int
    kind: str
    key: Any
    start: int
    end: int = 0


@dataclass
class Tracer:
    """In-memory spans, counts and samples for one traced run."""

    active: bool = False
    #: (span_id, parent, op, name, start_ns, end_ns, self_ns, thread)
    spans: List[Tuple] = field(default_factory=list)
    ops: Dict[int, Op] = field(default_factory=dict)
    #: (op, name) -> summed count
    counts: Dict[Tuple[int, str], float] = field(default_factory=dict)
    #: name -> free samples (waits, sizes) not tied to a span
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> int:
        stack = self._stack()
        return stack[-1].op if stack else 0

    def enter(self, name: str, op: Optional[int] = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(
            span_id=next(self._ids),
            parent=parent.span_id if parent else 0,
            op=op if op is not None else (parent.op if parent else 0),
            name=name, start=now_ns())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> int:
        end = now_ns()
        stack = self._stack()
        # a generator abandoned mid-iteration can exit out of order: pop
        # down to (and including) this frame
        while stack:
            if stack.pop() is frame:
                break
        duration = end - frame.start
        if stack:
            stack[-1].child_ns += duration
        self.spans.append((frame.span_id, frame.parent, frame.op,
                           frame.name, frame.start, end,
                           duration - frame.child_ns,
                           threading.get_ident()))
        return duration

    def open_op(self, kind: str, key: Any = None) -> _Frame:
        op_id = next(self._ids)
        with self._lock:
            self.ops[op_id] = Op(op_id, kind, key, now_ns())
        return self.enter(f"op.{kind}", op=op_id)

    def close_op(self, frame: _Frame) -> None:
        self.exit(frame)
        self.ops[frame.op].end = now_ns()

    def leaf(self, name: str, ns: int) -> None:
        """A call too frequent for its own span: its time is charged to
        the enclosing span as child time and summed per op under
        ``name#ns``."""
        stack = self._stack()
        if stack:
            stack[-1].child_ns += ns
        self.count(f"{name}#ns", ns)

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.current_op(), name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # -- read-out ----------------------------------------------------------

    def ops_of(self, kinds: Optional[Tuple[str, ...]]) -> List[Op]:
        return [op for op in self.ops.values()
                if op.end and (kinds is None or op.kind in kinds)]

    def self_ms_by_op(self, names: Tuple[str, ...]) -> Dict[int, float]:
        """op id -> summed self time (ms) of spans named ``names``."""
        wanted = set(names)
        found: Dict[int, float] = {}
        for span in self.spans:
            if span[3] in wanted:
                found[span[2]] = found.get(span[2], 0.0) + span[6] / 1e6
        leaves = {f"{name}#ns" for name in names}
        for (op, name), ns in self.counts.items():
            if name in leaves:
                found[op] = found.get(op, 0.0) + ns / 1e6
        return found

    def total_ms_by_op(self, names: Tuple[str, ...]) -> Dict[int, float]:
        """op id -> summed inclusive time (ms) of spans named ``names``."""
        wanted = set(names)
        found: Dict[int, float] = {}
        for span in self.spans:
            if span[3] in wanted:
                found[span[2]] = (found.get(span[2], 0.0)
                                  + (span[5] - span[4]) / 1e6)
        return found

    def count_by_op(self, name: str) -> Dict[int, float]:
        return {op: value for (op, counted), value in self.counts.items()
                if counted == name}

    def dump(self, path: str) -> None:
        """Write every span, op and count as JSON lines."""
        with open(path, "w") as handle:
            for op in self.ops.values():
                handle.write(json.dumps({"op": op.op_id, "kind": op.kind,
                                         "key": str(op.key),
                                         "start": op.start,
                                         "end": op.end}) + "\n")
            for (span_id, parent, op, name, start, end, self_ns,
                 thread) in self.spans:
                handle.write(json.dumps({
                    "span": span_id, "parent": parent, "op": op,
                    "name": name, "start": start, "end": end,
                    "self": self_ns, "thread": thread}) + "\n")
            for (op, name), value in sorted(self.counts.items(),
                                            key=lambda item: str(item)):
                handle.write(json.dumps({"count": name, "op": op,
                                         "value": value}) + "\n")


# -- instrumentation ----------------------------------------------------------


def _repro_modules() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Instrumentation:
    """Installs span wrappers on ``repro`` functions; undone by
    :meth:`restore`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- patch primitives --------------------------------------------------

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def function(self, module: Any, attr: str, wrap: Callable) -> None:
        """Replace ``module.attr`` and every ``repro`` module's binding
        of the same function object (``from x import f`` copies)."""
        original = getattr(module, attr)
        wrapped = functools.wraps(original)(wrap(original))
        for candidate in _repro_modules():
            if candidate.__dict__.get(attr) is original:
                self._rebind(candidate, attr, wrapped)

    def method(self, cls: type, attr: str, wrap: Callable) -> None:
        original = cls.__dict__[attr]
        self._rebind(cls, attr, functools.wraps(original)(wrap(original)))

    # -- wrapper factories -------------------------------------------------

    def spanned(self, name: str,
                after: Optional[Callable[..., None]] = None,
                leaf: bool = False) -> Callable:
        """A wrapper factory timing each call as span ``name``;
        ``after(result, args, kwargs)`` records counts inside it.  A
        ``leaf`` call (one that opens no spans) is summed, not spanned."""
        tracer = self.tracer

        def factory(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                if leaf:
                    started = now_ns()
                    result = original(*args, **kwargs)
                    tracer.leaf(name, now_ns() - started)
                    if after is not None:
                        after(result, args, kwargs)
                    return result
                frame = tracer.enter(name)
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(result, args, kwargs)
                    return result
                finally:
                    tracer.exit(frame)
            return wrapper
        return factory

    def spanned_cm(self, name: str) -> Callable:
        """Like :meth:`spanned` for a context-manager factory: the span
        covers the whole ``with`` body."""
        tracer = self.tracer

        def factory(original: Callable) -> Callable:
            @contextlib.contextmanager
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    with original(*args, **kwargs) as value:
                        yield value
                    return
                frame = tracer.enter(name)
                try:
                    with original(*args, **kwargs) as value:
                        yield value
                finally:
                    tracer.exit(frame)
            return wrapper
        return factory

    def spanned_stream(self, name: str,
                       classify: Callable[..., Optional[Tuple[str, Any]]]
                       ) -> Callable:
        """For a call returning an iterator: the span runs from the call
        until the iterator is exhausted, and is an operation root of the
        kind ``classify(*args)`` names (``None``: a plain span)."""
        tracer = self.tracer

        def factory(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                op = classify(*args, **kwargs)
                frame = tracer.open_op(*op) if op else tracer.enter(name)
                inner = tracer.enter(name) if op else None
                try:
                    stream = original(*args, **kwargs)
                except BaseException:
                    _close(inner, frame, op)
                    raise
                return _drain(stream, inner, frame, op)

            def _close(inner, frame, op) -> None:
                if inner is not None:
                    tracer.exit(inner)
                if op:
                    tracer.close_op(frame)
                else:
                    tracer.exit(frame)

            def _drain(stream, inner, frame, op):
                try:
                    yield from stream
                finally:
                    _close(inner, frame, op)
            return wrapper
        return factory

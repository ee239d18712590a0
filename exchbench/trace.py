"""In-memory spans around calls into the program's layers (traced mode).

:class:`Recorder` replaces public functions and methods with timed
wrappers for the traced part of a run and puts the originals back
afterwards.  Each span keeps its name, start, end, parent span and the
request id current in its thread or task (a ``contextvars`` variable the
gateway workload sets per request).  Spans are held in per-thread arrays
and written out as JSONL when the run ends.  A span's self time is its
duration minus the time its child spans cover; children of one span run
one after another in one thread, so that is the sum of their durations.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from concurrent.futures import Executor
from typing import Dict, Iterable, Iterator, List, Tuple

#: The id of the gateway request being served (0: none).
REQUEST = contextvars.ContextVar("exchbench_request", default=0)


class _Buffer:
    """One thread's spans, column by column."""

    def __init__(self, thread: str):
        self.thread = thread
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.rids = array("q")
        self.stack: List[Tuple[int, int]] = []  # (span id, name id)


class Recorder:
    """Spans of one traced run, and the wrappers that record them."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._next = itertools.count(1)
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer(threading.current_thread().name)
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    # -- recording ------------------------------------------------------------

    def timed(self, name: str, func, skip_inside: Iterable[str] = ()):
        """``func`` wrapped in a span; no span while one of ``skip_inside``
        is open in the same thread (outermost call of a recursion only)."""
        nid = self.name_id(name)
        skip = frozenset(self.name_id(other) for other in skip_inside)
        clock = time.perf_counter
        buffer_of = self._buffer
        new_id = self._next

        def wrapper(*args, **kwargs):
            buffer = buffer_of()
            stack = buffer.stack
            if skip and any(entry[1] in skip for entry in stack):
                return func(*args, **kwargs)
            entry = (next(new_id), nid)
            stack.append(entry)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                buffer.ids.append(entry[0])
                buffer.names.append(nid)
                buffer.starts.append(started)
                buffer.ends.append(ended)
                buffer.parents.append(stack[-1][0] if stack else 0)
                buffer.rids.append(REQUEST.get())

        return wrapper

    def flat(self, name: str, started: float, ended: float, rid: int = 0) -> None:
        """Record a span that nests in nothing (client-side requests,
        which interleave on one event loop)."""
        buffer = self._buffer()
        buffer.ids.append(next(self._next))
        buffer.names.append(self.name_id(name))
        buffer.starts.append(started)
        buffer.ends.append(ended)
        buffer.parents.append(0)
        buffer.rids.append(rid)

    def patch(self, owner, attr: str, name: str, skip_inside: Iterable[str] = ()) -> None:
        """Replace ``owner.attr`` by its timed wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(self.timed(name, original.__func__, skip_inside)))
        else:
            setattr(owner, attr, self.timed(name, original, skip_inside))
        self._undo.append((owner, attr, original))

    def replace(self, owner, attr: str, value) -> None:
        """Swap in an untimed replacement until :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def spans(self, since: float = 0.0) -> Iterator[tuple]:
        """``(id, name, start, end, parent, rid, thread)`` of every closed
        span that started at or after ``since``."""
        for buffer in list(self._buffers):
            columns = (buffer.ids, buffer.names, buffer.starts, buffer.ends,
                       buffer.parents, buffer.rids)
            for sid, nid, start, end, parent, rid in zip(*columns):
                if start >= since:
                    yield sid, self.names[nid], start, end, parent, rid, buffer.thread

    def totals(self, since: float = 0.0) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: total seconds, self seconds and count."""
        total: Dict[str, float] = defaultdict(float)
        child: Dict[int, float] = defaultdict(float)
        count: Dict[str, int] = defaultdict(int)
        names: Dict[int, str] = {}
        for sid, name, start, end, parent, _rid, _thread in self.spans(since):
            total[name] += end - start
            count[name] += 1
            names[sid] = name
            if parent:
                child[parent] += end - start
        own: Dict[str, float] = defaultdict(float)
        for sid, name in names.items():
            own[name] -= child.get(sid, 0.0)
        for name, seconds in total.items():
            own[name] += seconds
        return total, own, count

    def write_jsonl(self, path: str) -> int:
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, rid, thread in self.spans():
                out.write(json.dumps({
                    "id": sid, "name": name,
                    "start": round(start - self.origin, 7),
                    "end": round(end - self.origin, 7),
                    "parent": parent or None, "request": rid or None,
                    "thread": thread,
                }, separators=(",", ":")) + "\n")
                written += 1
        return written


class ContextPool(Executor):
    """An executor that runs each job in the submitter's ``contextvars``
    context, so pool-thread spans carry the request id."""

    def __init__(self, inner: Executor):
        self.inner = inner

    def submit(self, fn, /, *args, **kwargs):
        return self.inner.submit(contextvars.copy_context().run, fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        self.inner.shutdown(wait=wait, cancel_futures=cancel_futures)


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

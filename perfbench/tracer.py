"""In-memory span recorder and the hooks that feed it.

A span is (name, start, end, parent span, request id).  Spans are kept in
flat typed arrays rather than objects, because a traced run records up to
a few million of them.  Hooks replace a module attribute with a wrapper
that opens a span around each call; callers that look the name up at call
time (``module.fn(...)`` or a module-global reference) are traced, and
each function is hooked in its *calling* module's namespace so a nested
call through another module's global is not counted twice.
"""

import importlib
import math
import time
from array import array

import numpy as np


class Tracer:
    """Spans held in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.counts = {}
        self.request_id = -1
        self._stack = []

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        sid = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid):
        self.end[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("spans closed out of order")

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def save(self, path):
        view = SpanView(self)
        np.savez(path, names=np.array(view.names, dtype=str), name=view.name,
                 start=view.start, end=view.end, parent=view.parent,
                 request=view.request)


class SpanView:
    """Read-only numpy view of a finished trace, for deriving metrics."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = np.asarray(tracer.name, dtype=np.int64)
        self.start = np.asarray(tracer.start)
        self.end = np.asarray(tracer.end)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.request = np.asarray(tracer.request, dtype=np.int64)
        self.dur = self.end - self.start
        self.counts = dict(tracer.counts)

    def ids(self, name, request=None):
        """Ids of the spans called ``name``; request=True/False keeps only
        spans inside/outside a scoring request."""
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0, dtype=np.int64)
        mask = self.name == nid
        if request is not None:
            mask &= (self.request >= 0) == request
        return np.flatnonzero(mask)

    def children(self, parent_name, name):
        """Ids of the spans called ``name`` whose direct parent is called
        ``parent_name``."""
        kids = self.ids(name)
        pid = self._ids.get(parent_name)
        if pid is None:
            return kids[:0]
        par = self.parent[kids]
        return kids[(par >= 0) & (self.name[np.maximum(par, 0)] == pid)]

    def total(self, name, request=None):
        return float(self.dur[self.ids(name, request)].sum())

    def self_time(self, only=None):
        """Per-span duration minus the time its direct children cover
        (only children whose name is in ``only``, when given).

        Spans nest strictly (one stack per thread), so the direct children
        of a span are disjoint intervals inside it and their durations add.
        """
        mask = self.parent >= 0
        if only is not None:
            wanted = [self._ids[n] for n in only if n in self._ids]
            mask &= np.isin(self.name, wanted)
        covered = np.bincount(self.parent[mask], weights=self.dur[mask],
                              minlength=len(self.dur))
        return self.dur - covered


def percentile(values, q):
    """Nearest-rank q-quantile, or None unless at least ten samples lie
    beyond it (so a p99 needs 1,000 samples and a p50 needs 20)."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < 10:
        return None
    return sorted(values)[rank - 1]


class Hook:
    """Where to wrap: ``module.attr`` becomes a span named by ``label``.

    ``label`` is a span name or a function (args, kwargs, call_index) ->
    name.  ``note`` optionally maps (args, kwargs, result) to counts that
    are added to the tracer when the call returns.
    """

    def __init__(self, module, attr, label, note=None):
        self.module, self.attr, self.label, self.note = module, attr, label, note

    @property
    def where(self):
        return f"{self.module}.{self.attr}"


def _wrap(tracer, fn, hook):
    calls = [0]

    # A label or note that cannot read the call (the hooked function's
    # signature or result changed) degrades to the hook's own name or no
    # count rather than failing the traced call.
    def traced(*args, **kwargs):
        label = hook.label
        if callable(label):
            try:
                label = label(args, kwargs, calls[0])
            except (LookupError, AttributeError, TypeError):
                label = hook.where
        calls[0] += 1
        sid = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook.note is not None:
            try:
                counts = hook.note(args, kwargs, result)
            except (LookupError, AttributeError, TypeError):
                counts = {}
            for name, value in counts.items():
                tracer.count(name, value)
        return result

    traced.__wrapped__ = fn
    return traced


class Hooks:
    """Context manager that installs hooks and restores the originals.

    A hook whose module attribute no longer exists is listed in
    ``missing`` and skipped, so a renamed function shows up as a missing
    layer metric instead of a crash.
    """

    def __init__(self, tracer, hooks):
        self.tracer = tracer
        self.hooks = hooks
        self.missing = []
        self._saved = []

    def __enter__(self):
        for hook in self.hooks:
            module = importlib.import_module(hook.module)
            fn = getattr(module, hook.attr, None)
            if fn is None:
                self.missing.append(hook.where)
                continue
            self._saved.append((module, hook.attr, fn))
            setattr(module, hook.attr, _wrap(self.tracer, fn, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

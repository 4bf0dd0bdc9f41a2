"""Span and call-count recording for the traced benchmark run.

The child process wraps public superrotor functions with a Tracer before it
enters ``cli.main``.  Every wrapped call becomes a span (id, parent, name,
start, end, op id) held in memory and written out when the child ends; a few
cheap, very frequent functions are only counted.  The parent process turns
the spans of one op into per-layer numbers with ``LayerSummary``.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span and call-count recorder for one child process."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.attrs = {}
        self.calls = defaultdict(int)
        self.keys = defaultdict(set)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread (the sweep pool) starts with an empty stack: the
        # span open on the main thread, which is waiting for it, caused it.
        main = self._main_stack
        return main[-1] if main else None

    def _count(self, name, key, args, kwargs):
        k = key(*args, **kwargs) if key else None
        with self._lock:
            self.calls[name] += 1
            if key:
                self.keys[name].add(k)
            return next(self._ids)

    def count(self, name, fn, key=None):
        """Wrap fn so that calls (and distinct keys) are counted, no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(name, key, args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def span(self, name, fn, key=None, attrs=None):
        """Wrap fn so that each call records a span.

        key(*args, **kwargs) gives the identity used for distinct-call
        ratios; attrs(result, *args, **kwargs) gives per-span numbers.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = self._count(name, key, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, start, end, self.op_id))
            if attrs:
                extra = attrs(out, *args, **kwargs)
                with self._lock:
                    self.attrs[sid] = extra
            return out

        return traced

    def dump(self):
        """JSON-ready record of everything seen."""
        with self._lock:
            return {
                "spans": list(self.spans),
                "attrs": {str(k): v for k, v in self.attrs.items()},
                "calls": dict(self.calls),
                "distinct": {k: len(v) for k, v in self.keys.items()},
            }


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
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


class LayerSummary:
    """Per-layer totals over the child dumps of one op.

    A layer's self time is its spans' duration minus the part of each span
    that its child spans cover; children that ran concurrently on pool
    threads are merged before they are subtracted.
    """

    def __init__(self, dumps):
        self.calls = defaultdict(int)
        self.distinct = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.attrs = defaultdict(list)
        for dump in dumps:
            for name, n in dump["calls"].items():
                self.calls[name] += n
            # distinct keys are per process: a cache could only share
            # work inside one process
            for name, n in dump["distinct"].items():
                self.distinct[name] += n
            children = defaultdict(list)
            for sid, parent, _name, start, end, _op in dump["spans"]:
                children[parent].append((start, end))
            for sid, _parent, name, start, end, _op in dump["spans"]:
                self.total_s[name] += end - start
                self.self_s[name] += end - start - _covered(children.get(sid, ()), start, end)
                extra = dump["attrs"].get(str(sid))
                if extra:
                    self.attrs[name].append(extra)

    def metric(self, name):
        """Value of a '<layer>.<quantity>' metric; 0 when the layer never ran."""
        layer, quantity = name.rsplit(".", 1)
        calls = self.calls.get(layer, 0)
        if quantity == "calls":
            return calls
        if quantity == "self_s":
            return self.self_s.get(layer, 0.0)
        if quantity == "s":
            return self.total_s.get(layer, 0.0)
        if quantity == "unique_ratio":
            return self.distinct.get(layer, 0) / calls if calls else 0.0
        values = [a[quantity] for a in self.attrs.get(layer, ()) if quantity in a]
        if quantity == "drift":
            return max(values, default=0.0)
        if quantity == "bytes":
            return sum(values)
        if quantity == "useful_ratio":
            return sum(values) / len(values) if values else 0.0
        raise KeyError("unknown per-layer quantity in %r" % name)

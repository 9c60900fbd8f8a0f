"""Timing spans recorded from outside nrange, plus numpy.linalg kernel counters.

Workload code routes every call into an nrange module through ``call(name,
fn, ...)``.  The untraced run passes ``NULL`` (a bare call); the traced run
passes a ``Tracer``, which records one span per call and, while a request is
open, counts and times the ``numpy.linalg`` entry points that nrange reaches
through ``np.linalg.<name>``.  Spans stay in memory until ``write`` is
called at the end of the run.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# numpy.linalg entry points nrange calls; all count towards kernel time,
# and the benchmark reports call counts for eigh, svd and qr.
KERNELS = ("eigh", "eigvals", "eigvalsh", "norm", "qr", "svd")


class _Null:
    """Untraced calls: no spans, no counters."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    call_tracking_memory = call


NULL = _Null()


class Tracer:
    """In-memory span recorder for one traced run.

    A span is ``(name, start, end, parent, request)`` where ``parent`` is the
    index of the enclosing span (-1 for a request's root span).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._request = None
        self.kernel_calls: Counter = Counter()
        self.kernel_s = 0.0
        self.peak_bytes: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        with self._span(name):
            return fn(*args, **kwargs)

    def call_tracking_memory(self, name, fn, *args, **kwargs):
        """``call`` that also adds the call's peak traced allocation (numpy
        buffers included) to ``peak_bytes[name]``."""
        tracemalloc.start()
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            self.peak_bytes[name] += tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    @contextmanager
    def _span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._request)

    @contextmanager
    def request(self, request_id):
        """Root span of one request; numpy.linalg is wrapped only inside it."""
        originals = {name: getattr(np.linalg, name) for name in KERNELS}
        for name, fn in originals.items():
            setattr(np.linalg, name, self._wrap(name, fn))
        self._request = request_id
        try:
            with self._span("request"):
                yield
        finally:
            self._request = None
            for name, fn in originals.items():
                setattr(np.linalg, name, fn)

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.kernel_s += perf_counter() - start
                self.kernel_calls[name] += 1

        return timed

    def totals(self):
        """Per span name: (call count, total duration, total self time).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")

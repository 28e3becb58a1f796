"""Span recording for the traced run, and the per-layer figures it yields.

The benchmark calls every library function through ``call(name, fn, ...)``
on a tracer. The untraced run uses ``NullTracer``, which only calls the
function; the traced run uses ``Tracer``, which records one span per call
around the call site in the benchmark's own code. Nothing in the library
is patched or wrapped.
"""

import json
import time


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Calls straight through; used for the untraced (end-to-end) run."""

    traced = False

    def call(self, name, fn, *args, probe=False, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, op):
        return _NO_SPAN

    def count(self, name, amount=1):
        pass


class Tracer:
    """Keeps spans in memory: [name, start_ns, end_ns, parent, op, probe, raised].

    ``parent`` is the index of the enclosing span (None at the top), ``op``
    the step id shared by every span of one closed-loop step, ``probe``
    marks a stage probe (a second, separate call the benchmark makes to
    time one stage of an operation it cannot see inside), and ``raised``
    the exception class name when the call raised.
    """

    traced = True

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._op = None

    def _open(self, name, probe):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0, 0, parent, self._op, probe, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec, exc):
        rec[2] = time.perf_counter_ns()
        if exc is not None:
            rec[6] = type(exc).__name__
        self._stack.pop()

    def call(self, name, fn, *args, probe=False, **kwargs):
        rec = self._open(name, probe)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(rec, exc)
            raise
        self._close(rec, None)
        return result

    def span(self, name, op):
        """Context manager: a span that starts operation `op` (a step or a
        set-up); the calls inside it share that op id."""
        return _Span(self, name, op)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def drain(self):
        """Hand over the spans recorded so far and start an empty list."""
        assert not self._stack, "drain() inside an open span"
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans, path):
    """Write spans as JSON lines, times in ns from the first span's start."""
    base = spans[0][1] if spans else 0
    with open(path, "w", encoding="utf-8") as out:
        for i, (name, start, end, parent, op, probe, raised) in enumerate(spans):
            out.write(
                json.dumps(
                    {
                        "id": i,
                        "name": name,
                        "start_ns": start - base,
                        "end_ns": end - base,
                        "parent": parent,
                        "op": op,
                        "probe": probe,
                        "raised": raised,
                    }
                )
                + "\n"
            )


class _Span:
    def __init__(self, tracer, name, op):
        self._tracer = tracer
        self._name = name
        self._op = op
        self._rec = None

    def __enter__(self):
        self._tracer._op = self._op
        self._rec = self._tracer._open(self._name, False)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._close(self._rec, exc)
        return False


def span_stats(spans, stats):
    """Add to stats, per span name: calls, busy and self time in ns, and
    the exceptions raised.

    Busy time is the sum of the span durations (a name never nests inside
    itself, so the sum is the time covered). Self time subtracts the part
    covered by child spans, except probes: a probe is a separate call made
    for measurement, so it is not part of its parent's work.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, op, probe, raised in spans:
        if parent is not None and not probe:
            covered[parent] += end - start
    for i, (name, start, end, parent, op, probe, raised) in enumerate(spans):
        st = stats.get(name)
        if st is None:
            st = stats[name] = {"calls": 0, "busy_ns": 0, "self_ns": 0, "raised": {}}
        st["calls"] += 1
        st["busy_ns"] += end - start
        st["self_ns"] += end - start - covered[i]
        if raised is not None:
            st["raised"][raised] = st["raised"].get(raised, 0) + 1
    return stats

"""Shared pieces of the benchmark: span tracer, run accounting, timing and statistics.

Everything here is stdlib only and single-threaded.  Spans are recorded
around calls made from the benchmark's own files (plus the five public
insertion functions, see ``traced_insertion``) and kept in memory until the
run ends.  Timed samples are scaled to a reference speed (see ``Acc``).
"""
from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager

now = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, key, n=1):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is a shared no-op."""

    def span(self, name):
        return _NULL_SPAN

    def new_request(self):
        pass


class Tracer:
    """Spans in memory.  Each record is
    [name, start, end, parent index or None, request id, failed, counts or None].
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.request = 0

    def span(self, name):
        return _Span(self, name)

    def new_request(self):
        self.request += 1


class _Span:
    __slots__ = ("_tracer", "_rec")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._rec = [name, 0.0, 0.0, None, tracer.request, False, None]

    def __enter__(self):
        tracer, rec = self._tracer, self._rec
        rec[3] = tracer._open[-1] if tracer._open else None
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(rec)
        rec[1] = now()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._rec[2] = now()
        self._rec[5] = exc_type is not None
        self._tracer._open.pop()
        return False

    def count(self, key, n=1):
        counts = self._rec[6]
        if counts is None:
            counts = self._rec[6] = {}
        counts[key] = counts.get(key, 0) + n


def layer_totals(spans) -> dict:
    """Per span name: calls, busy time, self time (busy minus the time its
    direct child spans cover), failures and summed counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, _req, failed, counts) in enumerate(spans):
        agg = out.get(name)
        if agg is None:
            agg = out[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0,
                               "counts": Counter()}
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["failed"] += failed
        if counts:
            agg["counts"].update(counts)
    return out


@contextmanager
def traced_insertion(tracer):
    """Wrap the five public insertion functions so that calls reaching them
    through ``monoids.canonical`` (and ``bst.p_baxt``) are recorded as spans.
    The originals are restored on exit.  Only used when tracing is on."""
    from plactic_lab import bst, tableaux

    targets = [(tableaux, "p_stal"), (tableaux, "p_taig"), (bst, "p_sylv"),
               (bst, "p_sylv_sharp"), (bst, "p_baxt")]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in targets]

    def wrap(name, fn):
        def traced(w):
            with tracer.span(name) as sp:
                sp.count("letters", len(w))
                return fn(w)
        return traced

    try:
        for mod, attr, fn in saved:
            setattr(mod, attr, wrap(f"{mod.__name__.rsplit('.', 1)[1]}.{attr}", fn))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


class Tally:
    """Operations attempted and failed; every failure is kept by name.

    A failure is either a crash (the call raised or the process died) or a
    wrong answer (an output that differs from the reference); only wrong
    answers make a run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = Counter()

    def ok(self):
        self.attempted += 1

    def fail(self, name, why, wrong=False):
        self.attempted += 1
        self.failed += 1
        self.wrong += wrong
        self.failures[f"{name}: {why}"] += 1

    def check(self, passed, name, why="wrong output"):
        """Count one checked operation; a wrong output is a failure."""
        if passed:
            self.attempted += 1
        else:
            self.fail(name, why, wrong=True)
        return passed


# On a shared box the CPU speed drifts by +-20% over seconds to minutes, and
# process CPU time drifts with it.  A fixed pure-Python loop, timed between
# the workload's calls, tracks that drift (correlation 0.65-0.8 with
# insertion calls), so every timed sample is scaled by REF_NOMINAL_S over the
# reference times measured just before and after it.  Values then read as on
# a box where the loop takes REF_NOMINAL_S; unscaled values are kept as well.
REF_LOOP = 100_000
REF_NOMINAL_S = 0.010
SLICE_S = 0.2          # timed seconds between two reference measurements


def reference_seconds() -> float:
    t0 = now()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return now() - t0


class Acc:
    """Timed samples of one pass, kept per unit of work.

    Every round repeats the same units, so each unit collects one sample per
    round.  ``main`` and ``side`` samples carry the work a unit does (objects,
    letters, calls) for the two throughputs; ``latency`` samples are the
    per-unit times behind the percentiles.  Samples are scaled to the
    reference speed in slices of about SLICE_S timed seconds.
    """

    def __init__(self):
        self.samples = {"main": {}, "side": {}, "latency": {}}
        self.raw = {"main": {}, "side": {}, "latency": {}}
        self.work = {"main": {}, "side": {}}
        self.refs = [reference_seconds()]
        self._pending = []
        self._pending_s = 0.0

    def main(self, key, seconds, work):
        self.work["main"][key] = work
        self._add("main", key, seconds)

    def side(self, key, seconds, work):
        self.work["side"][key] = work
        self._add("side", key, seconds)

    def latency(self, key, seconds):
        self._add("latency", key, seconds)

    def _add(self, kind, key, seconds):
        self._pending.append((kind, key, seconds))
        self._pending_s += seconds
        if self._pending_s >= SLICE_S:
            self.flush()

    def flush(self):
        """Scale the pending samples by the reference times around them."""
        if not self._pending:
            return
        self.refs.append(reference_seconds())
        scale = REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)
        for kind, key, seconds in self._pending:
            self.samples[kind].setdefault(key, []).append(seconds * scale)
            self.raw[kind].setdefault(key, []).append(seconds)
        self._pending = []
        self._pending_s = 0.0

    def busy(self) -> float:
        """All timed seconds of the pass, scaled."""
        return sum(sum(v) for kind in ("main", "side") for v in self.samples[kind].values())

    def rate(self, kind, scaled=True) -> float:
        """Work per second, each unit timed by the median of its samples."""
        samples = (self.samples if scaled else self.raw)[kind]
        busy = sum(statistics.median(v) for v in samples.values())
        return sum(self.work[kind].values()) / busy if busy else 0.0

    def latencies(self, scaled=True) -> list:
        samples = (self.samples if scaled else self.raw)["latency"]
        return [s for v in samples.values() for s in v]


def exc_name(exc: BaseException) -> str:
    return type(exc).__name__


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """90th percentile (exclusive method); the median for tiny samples."""
    if len(values) < 10:
        return median(values)
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    """Largest peak RSS of any finished child process, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def length_profile(lengths) -> dict:
    """Count and length quantiles of a set of inputs."""
    if not lengths:
        return {"count": 0}
    q = statistics.quantiles(lengths, n=4) if len(lengths) > 1 else lengths * 3
    return {"count": len(lengths), "min": min(lengths), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(lengths)}

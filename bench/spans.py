"""Spans around the library's layers, recorded from outside the library.

`Tracer.patched()` swaps module attributes for wrappers while a traced
round runs.  Each wrapped call records a span [name, start, end, parent
index]; spans stay in memory until the run ends.  The patch points are the
names callers look up at call time: `reducer.free_color`, not
`kempe.free_color`, because the reducer imported it by name.

`matching.match_at` runs millions of times per icosphere round, so it
gets a bare counter instead of a span, installed only while the reducer's
`find_reducible` span is open.  That keeps the audit's own matcher probe
out of the count, and keeps the per-probe cost to one closure call.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict


def _walk_len(tracer, args, result):
    tracer.peak("embedding.fill_walk.walk_len.max", len(args[1]))


def _chain_size(tracer, args, result):
    tracer.counts["kempe.chain.verts.sum"] += len(result)
    tracer.peak("kempe.chain.verts.max", len(result))


def _transfer_count(tracer, args, result):
    tracer.counts["discharge.transfers.count"] += len(result.transfers)


# (module, attribute, span name, observer of (args, result) or None)
SPANS = (
    ("fivecolor.instances", "read", "instances.read", None),
    ("fivecolor.instances", "build", "embedding.build", None),
    ("fivecolor.reducer", "fill_walk", "embedding.fill_walk", _walk_len),
    ("fivecolor.reducer", "reduce_once", "reducer.reduce_once", None),
    ("fivecolor.reducer", "select_fifth", "reducer.select_fifth", None),
    ("fivecolor.reducer", "free_color", "kempe.free_color", None),
    ("fivecolor.kempe", "chain", "kempe.chain", _chain_size),
    ("fivecolor.kempe", "swap", "kempe.swap", None),
    ("fivecolor.discharge", "transfers", "discharge.transfers", _transfer_count),
    ("fivecolor.discharge", "final_charges", "discharge.final_charges", None),
)
SCAN = ("fivecolor.reducer", "find_reducible", "matching.find_reducible")
PROBE = ("fivecolor.matching", "match_at")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # indices of open spans
        self.counts = Counter()
        self.missing = set()  # what the library no longer has, as wrapped

    def peak(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        spans, stack = self.spans, self.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _span_wrapper(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.missing.add(f"{name} arguments or result")
            return result

        return wrapper

    def _scan_wrapper(self, name, fn, probe_mod):
        """A span around each scan, with match_at counted inside it."""
        probe = getattr(probe_mod, PROBE[1])
        tally = [0, 0]  # probes, hits

        def counted(*args, **kwargs):
            result = probe(*args, **kwargs)
            tally[0] += 1
            if result is not None:
                tally[1] += 1
            return result

        def wrapper(*args, **kwargs):
            setattr(probe_mod, PROBE[1], counted)
            try:
                return self.call(name, fn, *args, **kwargs)
            finally:
                setattr(probe_mod, PROBE[1], probe)
                self.counts["matching.match_at.calls"] += tally[0]
                self.counts["matching.match_at.hits"] += tally[1]
                tally[0] = tally[1] = 0

        return wrapper

    def _patch_points(self):
        for modname, attr, name, observe in SPANS:
            yield modname, attr, lambda fn, n=name, o=observe: self._span_wrapper(n, fn, o)
        modname, attr, name = SCAN
        probe_mod = importlib.import_module(PROBE[0])
        if hasattr(probe_mod, PROBE[1]):
            yield modname, attr, lambda fn: self._scan_wrapper(name, fn, probe_mod)
        else:
            self.missing.add(".".join(PROBE))
            yield modname, attr, lambda fn: self._span_wrapper(name, fn, None)

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for modname, attr, wrap in self._patch_points():
                mod = importlib.import_module(modname)
                if not hasattr(mod, attr):
                    self.missing.add(f"{modname}.{attr}")
                    continue
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrap(fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def mark(self):
        """Start a new accounting window; returns its first span index."""
        self.counts.clear()
        return len(self.spans)

    def summary(self, start):
        """Totals over spans[start:]: (seconds, calls, self seconds).

        Seconds and calls are keyed by span name.  Self seconds (a span's
        duration minus its children's) are keyed by root span name, then
        span name; summed over one root they give back the root's total.
        """
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        root = list(range(len(spans)))
        for i, (_, t0, t1, parent) in enumerate(spans):
            if parent >= start:
                child[parent - start] += t1 - t0
                root[i] = root[parent - start]
        seconds, calls = Counter(), Counter()
        own = defaultdict(Counter)
        for i, (name, t0, t1, _) in enumerate(spans):
            seconds[name] += t1 - t0
            calls[name] += 1
            own[spans[root[i]][0]][name] += t1 - t0 - child[i]
        return seconds, calls, own

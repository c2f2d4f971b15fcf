"""Spans recorded from outside the program, and the per-layer arithmetic.

The benchmark never edits the code under test.  :meth:`Tracer.patch`
replaces a public method (or a module attribute the pipeline calls) with a
wrapper that records one span per call, and :meth:`Tracer.restore` puts the
original back.  Spans stay in memory; the caller writes them out at exit.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Within one tree whose spans nest, the self times add
up to the root's duration; :func:`partition_error` reports how far they
miss (float rounding).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: One clock for every span.  On Linux ``perf_counter`` reads
#: CLOCK_MONOTONIC, which is system-wide, so spans recorded in the server
#: process nest inside the client's request spans.
clock = time.perf_counter


class Span:
    """One timed call: name, interval, parent, request id, work counts."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "n", "m")

    def __init__(self, sid, name, start, end=0.0, parent=None, rid=None, n=0, m=0):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.n = n
        self.m = m

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.rid, self.n, self.m]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """In-memory span recorder with method patching."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else None
        span = Span(next(self._ids), name, 0.0, parent=parent)
        stack.append(span)
        span.start = clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, count=None, rid=None):
        """``fn`` with a span around every call.

        ``count(args, kwargs, result)`` returns ``n`` or ``(n, m)`` work
        counts for the span; ``rid(args)`` reads a request id once the
        call returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                counts = count(args, kwargs, result)
                if isinstance(counts, tuple):
                    span.n, span.m = counts
                else:
                    span.n = counts
            if rid is not None:
                span.rid = rid(args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr`` (defined on ``owner`` itself) in place."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, **options))
        else:
            replacement = self.wrap(original, name, **options)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path, spans) -> None:
    """Save spans as JSON rows ``[sid, name, start, end, parent, rid, n, m]``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([s.as_list() for s in spans]))


# ----------------------------------------------------------------------
# Arithmetic over recorded spans
# ----------------------------------------------------------------------
def covered_length(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``sid -> self time``: duration minus the union of its children,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.sid]
        ]
        out[span.sid] = span.duration - covered_length(clipped)
    return out


def roots_of(spans) -> dict:
    """``sid -> sid of the tree's root``."""
    by_id = {s.sid: s for s in spans}
    root = {}
    for span in spans:
        path = []
        cur = span
        while cur.sid not in root and cur.parent is not None and cur.parent in by_id:
            path.append(cur.sid)
            cur = by_id[cur.parent]
        top = root.get(cur.sid, cur.sid)
        root[cur.sid] = top
        for sid in path:
            root[sid] = top
    return root


def partition_error(spans, selfs=None) -> float:
    """Largest ``|sum of self times in a tree - root duration|``."""
    selfs = self_times(spans) if selfs is None else selfs
    root = roots_of(spans)
    by_id = {s.sid: s for s in spans}
    sums = defaultdict(float)
    for sid, top in root.items():
        sums[top] += selfs[sid]
    return max(
        (abs(total - by_id[top].duration) for top, total in sums.items()),
        default=0.0,
    )


def aggregate(spans, selfs, root_names) -> dict:
    """Per span name: ``{"self", "total", "calls", "n", "m"}`` summed over
    the trees whose root is named in ``root_names``."""
    root = roots_of(spans)
    by_id = {s.sid: s for s in spans}
    out = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0, "n": 0, "m": 0})
    for span in spans:
        if by_id[root[span.sid]].name not in root_names:
            continue
        agg = out[span.name]
        agg["self"] += selfs[span.sid]
        agg["total"] += span.duration
        agg["calls"] += 1
        agg["n"] += span.n
        agg["m"] += span.m
    return out


# ----------------------------------------------------------------------
# The layers: which public call is timed under which span name
# ----------------------------------------------------------------------
def _size(position: int):
    return lambda args, kwargs, result: (
        len(args[position]) if len(args) > position else 0
    )


def install_layers(tracer: Tracer) -> None:
    """Patch the ingest and read paths of every layer the benchmark names."""
    from repro.core.estimator import SketchEstimator
    from repro.covariance import pipeline
    from repro.covariance.pipeline import CovarianceSketcher
    from repro.covariance.running import SparseMoments
    from repro.hashing.families import MultiTableHasher
    from repro.serving.engine import QueryEngine
    from repro.serving.snapshot import SketchSnapshot
    from repro.sketch.count_sketch import CountSketch
    from repro.sketch.topk import TopKTracker

    p = tracer.patch
    p(CovarianceSketcher, "fit_sparse", "covariance.fit")
    p(SparseMoments, "update_batch", "covariance.moments")
    p(pipeline, "sparse_batch_pairs", "covariance.expand",
      count=lambda a, k, r: len(r[0]))
    p(pipeline, "aggregate_pair_updates", "covariance.dedup",
      count=lambda a, k, r: (len(r[0]), sum(len(x) for x in a[0])))
    p(SketchEstimator, "ingest", "core.ingest", count=_size(1))
    p(MultiTableHasher, "bucket_sign_u64", "sketch.hash", count=_size(1))
    p(CountSketch, "insert", "sketch.insert", count=_size(1))
    p(CountSketch, "insert_and_query", "sketch.insert", count=_size(1))
    p(CountSketch, "query", "sketch.query", count=_size(1))
    p(TopKTracker, "offer", "sketch.topk_offer", count=_size(1))
    p(SketchSnapshot, "from_sketcher", "serving.snapshot_build")
    p(SketchSnapshot, "query_keys", "serving.gather", count=_size(1))
    p(QueryEngine, "query_pair", "serving.engine_pair")
    p(QueryEngine, "query_keys", "serving.engine_query", count=_size(1))
    p(QueryEngine, "top_pairs", "serving.engine_top")
    p(QueryEngine, "pairs_above", "serving.engine_above")


def install_server_layers(tracer: Tracer, handler_class, engines: list) -> None:
    """The serving write side, durability and the HTTP front end.

    Every engine a refresh installs is appended to ``engines`` so the
    caller can read their cache counters at exit.
    """
    from http.server import BaseHTTPRequestHandler

    from repro.durability.durable import DurableSketcher
    from repro.durability.journal import IngestJournal
    from repro.serving.live import ServingEstimator

    def request_id(args):
        headers = getattr(args[0], "headers", None)
        value = headers.get("X-Request-Id") if headers is not None else None
        return int(value) if value else None

    def keep_engine(args, kwargs, engine):
        engines.append(engine)
        return 1

    written = {}

    def wal_counts(args, kwargs, result):
        # (samples, bytes this append wrote): bytes_written is cumulative.
        journal = args[0]
        before = written.get(id(journal), 0)
        written[id(journal)] = journal.bytes_written
        return len(args[1]), journal.bytes_written - before

    p = tracer.patch
    install_layers(tracer)
    p(ServingEstimator, "ingest_sparse", "serving.ingest", count=_size(1))
    p(ServingEstimator, "refresh", "serving.refresh")
    p(ServingEstimator, "install", "serving.install", count=keep_engine)
    p(DurableSketcher, "fit_sparse", "durability.fit")
    p(DurableSketcher, "checkpoint", "durability.checkpoint")
    p(IngestJournal, "append", "durability.wal_append", count=wal_counts)
    p(IngestJournal, "sync", "durability.sync")
    p(BaseHTTPRequestHandler, "parse_request", "http.parse", rid=request_id)
    p(handler_class, "do_GET", "http.handler", rid=request_id)
    p(handler_class, "do_POST", "http.handler", rid=request_id)


# ----------------------------------------------------------------------
# Span aggregates -> the per-layer metrics of BENCHMARK.json
# ----------------------------------------------------------------------
INGEST_ROOTS = frozenset({"bench.pass", "client.write"})
READ_ROOTS = frozenset({"bench.reads", "client.read"})

#: Per-layer metrics the runners add to :func:`layer_metrics`: they come
#: from the program's own counters or from the client, not from spans.
RUNNER_METRICS = (
    "core.accept_ratio",
    "serving.cache_hit_ratio",
    "gen.lag_ms",
    "trace.overhead_ratio",
    "trace.rows",
)


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced run (zeros for absent layers)."""
    selfs = self_times(spans)
    w = aggregate(spans, selfs, INGEST_ROOTS)
    r = aggregate(spans, selfs, READ_ROOTS)
    dedup = w["covariance.dedup"]
    client = r["client.read"]
    roots = [s for s in spans if s.parent is None]
    root_total = sum(s.duration for s in roots)
    root_self = sum(selfs[s.sid] for s in roots)
    return {
        "covariance.fit_self_s": w["covariance.fit"]["self"],
        "covariance.moments_s": w["covariance.moments"]["self"],
        "covariance.expand_s": w["covariance.expand"]["self"],
        "covariance.expand_pairs": w["covariance.expand"]["n"],
        "covariance.dedup_s": dedup["self"],
        "covariance.dedup_ratio": dedup["n"] / dedup["m"] if dedup["m"] else 0.0,
        "core.ingest_self_s": w["core.ingest"]["self"],
        "sketch.hash_s": w["sketch.hash"]["self"],
        "sketch.insert_s": w["sketch.insert"]["self"],
        "sketch.keys_inserted": w["sketch.insert"]["n"],
        "sketch.query_s": w["sketch.query"]["self"],
        "sketch.keys_queried": w["sketch.query"]["n"],
        "sketch.topk_offer_s": w["sketch.topk_offer"]["self"],
        "sketch.topk_offered": w["sketch.topk_offer"]["n"],
        "serving.snapshot_build_s": w["serving.snapshot_build"]["total"],
        "serving.refresh_self_s": w["serving.refresh"]["self"],
        "serving.swap_s": w["serving.install"]["total"],
        "serving.swaps": w["serving.install"]["calls"],
        "serving.ingest_wait_s": w["serving.ingest"]["self"],
        "serving.engine_pair_s": r["serving.engine_pair"]["self"],
        "serving.engine_query_s": r["serving.engine_query"]["self"],
        "serving.engine_top_s": r["serving.engine_top"]["self"],
        "serving.engine_above_s": r["serving.engine_above"]["self"],
        "serving.gather_s": r["serving.gather"]["total"],
        "serving.read_sketch_query_s": r["sketch.query"]["self"],
        "http.parse_s": r["http.parse"]["self"],
        "http.handler_s": r["http.handler"]["self"],
        "http.reads": client["calls"],
        "http.client_s": client["total"],
        "http.client_gap_s": client["self"],
        "http.client_gap_share": client["self"] / client["total"] if client["total"] else 0.0,
        "durability.fit_self_s": w["durability.fit"]["self"],
        "durability.wal_append_s": w["durability.wal_append"]["self"],
        "durability.wal_bytes": w["durability.wal_append"]["m"],
        "durability.sync_s": w["durability.sync"]["self"],
        "durability.checkpoint_s": w["durability.checkpoint"]["self"],
        "durability.checkpoints": w["durability.checkpoint"]["calls"],
        "trace.spans": len(spans),
        "trace.wall_s": root_total,
        "trace.unattributed_share": root_self / root_total if root_total else 0.0,
        "trace.partition_error_s": partition_error(spans, selfs),
    }

"""Stdlib-only HTTP front end for the serving query engine.

A :class:`ServingHTTPServer` (``http.server.ThreadingHTTPServer``) exposes
a JSON API over a :class:`~repro.serving.QueryEngine`,
:class:`~repro.serving.SketchSnapshot` or — for the full concurrent
ingest/serve loop — a :class:`~repro.serving.ServingEstimator`:

========================  ====================================================
``GET  /health``          liveness + degradation probe (see below)
``GET  /stats``           engine/cache/serving/HTTP counters
``GET  /metrics``         Prometheus text exposition of the whole stack
``GET  /pair?i=&j=``      one pair's estimate
``GET  /neighbors?i=&k=`` feature ``i``'s best candidate partners
``GET  /top?k=``          the ``k`` best indexed pairs
``GET  /above?threshold=&limit=``  thresholded range query (open-world
                          on hierarchical snapshots — see below)
``POST /query``           batched pairs/keys (single-gather planned)
``POST /ingest``          sparse samples into the write side (serving only)
``POST /refresh``         snapshot + atomic swap (serving only)
========================  ====================================================

Requests run in per-connection threads and reads are **not** serialized
with each other: snapshot swaps are atomic reference rebinds, the engine's
LRU cache is thread-safe, and write routes (``/ingest``, ``/refresh``)
serialize on the serving estimator's own write lock.  Writes have
priority: while one runs (from after its body is parsed until the write
side returns), a read route that starts waits for it, but never longer
than :data:`READ_YIELD_SECONDS` — the two would otherwise split the
interpreter lock and stretch the write.  A hung write therefore delays
reads by that bound and no more; ``/health`` and ``/metrics`` never wait.
The wait counts in the route's ``repro_http_request_seconds``.

Each reply leaves in one socket write (headers and body together) with
Nagle's algorithm off, so a keep-alive client never waits on its own
delayed ACK before the tail of a reply arrives.  JSON floats round-trip
exactly (``repr`` shortest-form), so HTTP answers are bit-identical to
in-process queries.

Ranked endpoints (``/top``, ``/neighbors``, ``/above``) order and
threshold by **rank**: ``|estimate|`` on two-sided snapshots, the signed
estimate otherwise — the returned ``estimates`` stay signed either way.
Bad parameters (negative ``k``/``limit``, NaN thresholds, inverted
ranges) are 400s, and every list response is bounded by the server's
``max_response_pairs`` with a ``truncated`` flag — a low threshold can
no longer serialize an entire index into one body.  On a snapshot backed
by a :class:`~repro.sketch.HierarchicalCountSketch`, ``/above`` answers
over the full pair space by sketch descent even with no materialized
index (see ``SketchSnapshot.pairs_above``).

Request framing is checked before any route runs: a malformed or
negative ``Content-Length`` is a 400, a ``Transfer-Encoding`` body a
411 and a body over :data:`MAX_BODY_BYTES` a 413, each closing the
connection with the body unread.  Socket reads and writes time out after
``_Handler.timeout`` seconds, so a stalled body gets a 408 instead of
pinning a handler thread.  Indices in ``/query`` and ``/ingest`` bodies
must be integers that fit int64; a float or a larger integer is a 400,
never truncated.

Degradation model
-----------------
When the server fronts a :class:`ServingEstimator`, ``GET /health``
returns the estimator's full degradation probe: ``status`` flips to
``"degraded"`` when the last refresh failed or the ingest circuit
breaker is open, and the payload carries ``stale_samples``,
``stale_seconds``, ``refresh_failures``, ``last_refresh_error``,
``breaker`` and (for a durable write side) ``wal_lag`` — reads keep
being answered from the last good snapshot throughout.  The server
applies **admission control**: at most ``max_inflight`` requests run
concurrently, and excess load is shed with ``503`` +  a ``Retry-After``
header instead of queueing unboundedly (``/health`` bypasses the gate so
probes still answer under overload).  An open ingest circuit breaker
surfaces as ``503`` + ``Retry-After`` on ``POST /ingest``.

:class:`ServingClient` is the matching ``urllib``-based client; it
applies socket timeouts to every call and retries **idempotent**
requests (all GETs and ``POST /query``) on connection failures and 503s
with bounded exponential backoff — ``POST /ingest`` and
``POST /refresh`` are never retried, so a lost response cannot double
apply a batch.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.durability.breaker import CircuitOpenError
from repro.obs.metrics import MetricsRegistry, render_exposition
from repro.serving.engine import QueryEngine
from repro.serving.live import ServingEstimator
from repro.serving.snapshot import SketchSnapshot

__all__ = [
    "MAX_BODY_BYTES",
    "READ_YIELD_SECONDS",
    "ServingHTTPServer",
    "ServingClient",
    "serve_in_background",
]

#: Largest request body the server accepts.  A longer ``Content-Length``
#: is refused with 413 and the connection closed with the body unread.
MAX_BODY_BYTES = 64 << 20

#: Longest a read route waits for in-flight writes before it runs anyway.
#: Above the slowest write measured (an ``/ingest`` that also writes a
#: checkpoint, ~190 ms), so a read normally waits a write out, while a hung
#: write cannot stop reads (the last snapshot keeps serving).
READ_YIELD_SECONDS = 0.25

#: Content type of the ``/metrics`` body (Prometheus text format 0.0.4).
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _TextResponse:
    """A route result rendered verbatim instead of as JSON (``/metrics``)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: str, content_type: str = "text/plain"):
        self.body = body
        self.content_type = content_type


class _HTTPError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


#: Sentinel for required query parameters (see ``_Handler._param``).
_REQUIRED = object()

#: Routes exempt from admission control: liveness probes and metric
#: scrapes must answer while the server is saturated.
_UNGATED_ROUTES = frozenset({("GET", "/health"), ("GET", "/metrics")})

#: Routes that change the write side; every other admitted route is a read
#: that yields to them (see ``ServingHTTPServer._yield_to_writes``).
_WRITE_ROUTES = frozenset({("POST", "/ingest"), ("POST", "/refresh")})


class _Handler(BaseHTTPRequestHandler):
    # The handler is stateless; everything lives on self.server.
    protocol_version = "HTTP/1.1"
    #: Seconds any socket read or write may block.  A body that stalls
    #: past it gets a 408 instead of pinning a handler thread, and an
    #: idle keep-alive connection is closed.
    timeout = 60.0
    #: TCP_NODELAY: a reply's last partial segment goes out at once instead
    #: of waiting for the client to ACK the one before it.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test/bench output clean

    # ------------------------------------------------------------------
    def _drain_body(self) -> None:
        """Consume any unread request body before replying.

        An error reply sent while body bytes sit unread in the socket
        desyncs HTTP/1.1 keep-alive: the leftover bytes get parsed as the
        next request line.  ``_body()`` marks the body consumed; every
        reply path drains the remainder first.
        """
        remaining = self._body_remaining
        self._body_remaining = 0
        try:
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
        except TimeoutError:
            # Still answer; the unread rest makes the connection unusable.
            self.close_connection = True

    def _reply(
        self, payload, status: int = 200, headers: dict | None = None
    ) -> None:
        self._drain_body()
        if isinstance(payload, _TextResponse):
            body = payload.body.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        # One write for the blank line and the body too: a body written
        # after the headers waits for the client's delayed ACK of them.
        self._headers_buffer.extend((b"\r\n", body))
        # Counted before the write, so a client holding this reply finds
        # it in /stats and /metrics.
        self.server._count_request(self._route_label, status)
        self.flush_headers()

    def _param(self, query: dict, name: str, cast, default=_REQUIRED):
        # A sentinel (not None) marks required params, so optional params
        # can default to None and explicit 0 is never collapsed away.
        if name not in query:
            if default is _REQUIRED:
                raise _HTTPError(400, f"missing query parameter {name!r}")
            return default
        try:
            return cast(query[name][0])
        except (TypeError, ValueError):
            raise _HTTPError(400, f"bad value for parameter {name!r}")

    def _content_length(self) -> int:
        """The request's ``Content-Length``, refusing a body it cannot frame.

        A malformed or negative value is a 400, one above
        :data:`MAX_BODY_BYTES` a 413, and a ``Transfer-Encoding`` body
        (chunked; never read here) a 411.  Each time the body stays
        unread, so the connection closes after the reply: where the next
        request starts is unknown.
        """
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise _HTTPError(411, "send the body with a Content-Length")
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise _HTTPError(400, "Content-Length must be a non-negative integer")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _HTTPError(
                413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )
        return length

    def _body(self) -> dict:
        length = self._body_remaining
        if length <= 0:
            raise _HTTPError(400, "JSON body required")
        self._body_remaining = 0
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            raise _HTTPError(408, "request body timed out")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            raise _HTTPError(400, "invalid JSON body")
        if not isinstance(payload, dict):
            raise _HTTPError(400, "JSON body must be an object")
        return payload

    def _dispatch(self, method: str) -> None:
        server: "ServingHTTPServer" = self.server  # type: ignore[assignment]
        parsed = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        self._body_remaining = 0
        route_key = (method, parsed.path)
        # Known routes get their own count and latency series; everything
        # else is pooled under "other" so junk paths cannot explode
        # cardinality.
        route = parsed.path if route_key in server.routes else "other"
        self._route_label = f"{method} {route}"
        try:
            self._body_remaining = self._content_length()
        except _HTTPError as exc:
            self._reply({"error": str(exc)}, status=exc.status)
            return
        # Admission control: shed excess load with 503 + Retry-After
        # instead of queueing unboundedly.  /health and /metrics bypass
        # the gate — liveness probes and metric scrapes must keep
        # answering while the server is saturated (that is precisely when
        # they matter most).
        gated = route_key not in _UNGATED_ROUTES
        if gated and not server._admit():
            self._reply(
                {"error": "server saturated; retry later"},
                status=503,
                headers={"Retry-After": server._retry_after_header()},
            )
            return
        hist = server._route_hists.get(route_key, server._other_hist)
        server._inflight.inc()
        started = time.perf_counter()
        try:
            handler = server.routes.get(route_key)
            if handler is None:
                raise _HTTPError(404, f"no route {method} {parsed.path}")
            if gated and route_key not in _WRITE_ROUTES:
                server._yield_to_writes()
            self._reply(handler(server, query, self))
        except _HTTPError as exc:
            self._reply({"error": str(exc)}, status=exc.status)
        except CircuitOpenError as exc:
            # The ingest circuit breaker is open: tell the client when the
            # half-open probe becomes available.
            self._reply(
                {"error": str(exc)},
                status=503,
                headers={"Retry-After": max(1, math.ceil(exc.retry_after))},
            )
        except ValueError as exc:
            # The query layers validate inputs with ValueError (bad pair
            # indices, out-of-range keys) — and the durability tier's
            # IntegrityError subclasses it — those are client errors.
            self._reply({"error": str(exc)}, status=400)
        except Exception as exc:  # noqa: BLE001 - must answer, not hang up
            # A handler bug must surface as a 500 JSON error, not a closed
            # connection with no response.
            self._reply(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )
        finally:
            server._inflight.dec()
            hist.observe(time.perf_counter() - started)
            if gated:
                server._release()

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._dispatch("POST")


# ----------------------------------------------------------------------
# Route implementations (module-level so the table reads declaratively)
# ----------------------------------------------------------------------
def _route_health(server, query, handler) -> dict:
    # Side-effect-free liveness: must not trigger the serving estimator's
    # auto-snapshot build (load-balancer probes expect instant answers).
    # With a ServingEstimator target this is the full degradation probe
    # (status/degraded/stale_samples/stale_seconds/refresh_failures/
    # last_refresh_error/breaker/wal_lag); a frozen snapshot is always ok.
    if server.serving is not None:
        payload = server.serving.health()
        payload["rejected_requests"] = server.rejected_requests
        return payload
    return {
        "status": "ok",
        "snapshot_id": server.engine.snapshot.snapshot_id,
        "writable": False,
        "rejected_requests": server.rejected_requests,
    }


def _route_stats(server, query, handler) -> dict:
    # The HTTP block reconciles /stats with /health: rejected_requests and
    # the per-route request tallies are views over the same registry
    # counters the /metrics exposition serves — the numbers cannot
    # disagree between surfaces.
    if server.serving is not None:
        payload = server.serving.stats()
    else:
        payload = server.engine.stats()
    payload["http"] = server.http_stats()
    return payload


def _route_metrics(server, query, handler) -> _TextResponse:
    """Prometheus text exposition over every registry in the stack."""
    return _TextResponse(
        render_exposition(server._metric_registries()),
        content_type=_METRICS_CONTENT_TYPE,
    )


def _route_pair(server, query, handler) -> dict:
    engine = server.engine
    i = handler._param(query, "i", int)
    j = handler._param(query, "j", int)
    return {
        "i": i,
        "j": j,
        "estimate": engine.query_pair(i, j),
        "snapshot_id": engine.snapshot.snapshot_id,
    }


def _route_neighbors(server, query, handler) -> dict:
    """Feature ``i``'s best candidate partners, rank-desc.

    Rank is ``|estimate|`` on two-sided snapshots, the signed estimate
    otherwise.  Negative ``k`` is a 400; responses are capped at the
    server's ``max_response_pairs`` (``truncated: true`` flags a cut).
    """
    engine = server.engine
    i = handler._param(query, "i", int)
    k = handler._param(query, "k", int, default=10)
    effective, cap = server._capped(k)
    partners, estimates = engine.top_neighbors(i, effective)
    return {
        "i": i,
        "partners": partners.tolist(),
        "estimates": estimates.tolist(),
        "truncated": cap is not None and k > cap and partners.size == cap,
        "snapshot_id": engine.snapshot.snapshot_id,
    }


def _route_top(server, query, handler) -> dict:
    """The ``k`` best indexed pairs, rank-desc.

    Rank is ``|estimate|`` on two-sided snapshots, the signed estimate
    otherwise.  Negative ``k`` is a 400; responses are capped at the
    server's ``max_response_pairs`` (``truncated: true`` flags a cut).
    """
    engine = server.engine
    k = handler._param(query, "k", int, default=10)
    effective, cap = server._capped(k)
    i, j, estimates = engine.top_pairs(effective)
    return {
        "i": i.tolist(),
        "j": j.tolist(),
        "estimates": estimates.tolist(),
        "truncated": cap is not None and k > cap and i.size == cap,
        "snapshot_id": engine.snapshot.snapshot_id,
    }


def _route_above(server, query, handler) -> dict:
    """All pairs with rank ``>= threshold``, rank-desc.

    Rank is ``|estimate|`` on two-sided snapshots, the signed estimate
    otherwise.  NaN thresholds and negative limits are 400s.  The response
    is always bounded: at most ``min(limit, max_response_pairs)`` rows are
    serialized, with ``truncated: true`` when the cap cut real rows —
    before the cap, a low threshold with no ``limit`` would serialize the
    whole index into one JSON body.
    """
    engine = server.engine
    threshold = handler._param(query, "threshold", float)
    limit = handler._param(query, "limit", int, default=None)
    if limit is not None and limit < 0:
        raise _HTTPError(400, f"limit must be >= 0, got {limit}")
    cap = server.max_response_pairs if server.max_response_pairs > 0 else None
    truncated = False
    if cap is not None and (limit is None or limit > cap):
        # Ask for one row beyond the cap: its presence proves a cut
        # without materializing the unbounded tail.
        i, j, estimates = engine.pairs_above(threshold, limit=cap + 1)
        truncated = i.size > cap
        i, j, estimates = i[:cap], j[:cap], estimates[:cap]
    else:
        i, j, estimates = engine.pairs_above(threshold, limit=limit)
    return {
        "i": i.tolist(),
        "j": j.tolist(),
        "estimates": estimates.tolist(),
        "truncated": truncated,
        "snapshot_id": engine.snapshot.snapshot_id,
    }


def _as_index_array(raw, what: str) -> np.ndarray:
    """Coerce a JSON field to an int64 array, as a *client* error on junk.

    Only integers pass: a float such as ``1.5`` would silently truncate,
    and an integer past int64 would overflow, so a non-empty array whose
    inferred dtype is not a signed integer is refused.
    """
    try:
        array = np.asarray(raw)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None or (array.size and array.dtype.kind != "i"):
        raise _HTTPError(400, f"{what} must be a flat list of int64 integers")
    return array.astype(np.int64, copy=False)


def _route_query(server, query, handler) -> dict:
    engine = server.engine
    body = handler._body()
    if "keys" in body:
        estimates = engine.query_keys(_as_index_array(body["keys"], "'keys'"))
    elif "i" in body and "j" in body:
        estimates = engine.query_pairs(
            _as_index_array(body["i"], "'i'"),
            _as_index_array(body["j"], "'j'"),
        )
    else:
        raise _HTTPError(400, "body must contain 'keys' or both 'i' and 'j'")
    return {
        "estimates": estimates.tolist(),
        "snapshot_id": engine.snapshot.snapshot_id,
    }


def _route_ingest(server, query, handler) -> dict:
    serving = server.require_serving()
    body = handler._body()
    raw = body.get("samples")
    if not isinstance(raw, list):
        raise _HTTPError(400, "body must contain 'samples': [[indices, values], ...]")
    try:
        samples = [
            (_as_index_array(idx, "indices"), np.asarray(val, dtype=np.float64))
            for idx, val in raw
        ]
    except (TypeError, ValueError, OverflowError):
        raise _HTTPError(
            400, "each sample must be an [indices, values] pair of flat lists"
        )
    with server._writing():
        serving.ingest_sparse(samples)
    return {
        "ingested": len(samples),
        "write_samples_seen": serving.sketcher.samples_seen,
    }


def _route_refresh(server, query, handler) -> dict:
    serving = server.require_serving()
    with server._writing():
        snapshot = serving.refresh()
    return {
        "snapshot_id": snapshot.snapshot_id,
        "swap_count": serving.swap_count,
        "swap_seconds": serving.last_swap_seconds,
    }


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded JSON front end over an engine, snapshot or serving estimator.

    Parameters
    ----------
    target:
        A :class:`ServingEstimator` (write endpoints enabled), a
        :class:`QueryEngine`, or a bare :class:`SketchSnapshot` (wrapped in
        a default engine).
    address:
        ``(host, port)``; port 0 picks a free ephemeral port — read it back
        from :attr:`port`.
    max_inflight:
        Admission-control bound: at most this many requests execute
        concurrently; excess requests are shed with ``503`` +
        ``Retry-After`` (``GET /health`` is exempt).  ``0`` disables the
        gate.
    retry_after:
        The ``Retry-After`` value (seconds) sent with admission-control
        rejections.
    max_response_pairs:
        Hard bound on the rows any list endpoint (``/top``, ``/neighbors``,
        ``/above``) serializes into one JSON body.  Requests asking for
        more (or ``/above`` with no ``limit`` matching more) get the first
        ``max_response_pairs`` rows plus ``"truncated": true`` — page with
        ``limit`` + a tighter threshold for the rest.  ``0`` disables the
        cap (trusted in-process clients only).
    registry:
        The server's own :class:`repro.obs.MetricsRegistry` for HTTP-layer
        instruments (per-route latency histograms, the in-flight gauge,
        the admission-rejection counter); a fresh one when omitted.
        ``GET /metrics`` renders it merged with the target's registries.
    """

    daemon_threads = True
    allow_reuse_address = True

    routes = {
        ("GET", "/health"): _route_health,
        ("GET", "/stats"): _route_stats,
        ("GET", "/metrics"): _route_metrics,
        ("GET", "/pair"): _route_pair,
        ("GET", "/neighbors"): _route_neighbors,
        ("GET", "/top"): _route_top,
        ("GET", "/above"): _route_above,
        ("POST", "/query"): _route_query,
        ("POST", "/ingest"): _route_ingest,
        ("POST", "/refresh"): _route_refresh,
    }

    def __init__(
        self,
        target,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        max_inflight: int = 64,
        retry_after: float = 1.0,
        max_response_pairs: int = 10_000,
        registry: MetricsRegistry | None = None,
    ):
        if isinstance(target, SketchSnapshot):
            target = QueryEngine(target)
        if isinstance(target, ServingEstimator):
            self.serving: ServingEstimator | None = target
            self._fixed_engine: QueryEngine | None = None
        elif isinstance(target, QueryEngine):
            self.serving = None
            self._fixed_engine = target
        else:
            raise TypeError(
                "target must be a ServingEstimator, QueryEngine or "
                f"SketchSnapshot, got {type(target).__name__}"
            )
        self.max_inflight = int(max_inflight)
        self.retry_after = float(retry_after)
        if int(max_response_pairs) < 0:
            raise ValueError(
                f"max_response_pairs must be >= 0, got {max_response_pairs}"
            )
        self.max_response_pairs = int(max_response_pairs)
        self._admission = (
            threading.BoundedSemaphore(self.max_inflight)
            if self.max_inflight > 0
            else None
        )
        self._serve_thread: threading.Thread | None = None
        self._served = False  # serve_forever entered at least once
        # In-flight /ingest and /refresh calls; reads wait for zero.
        self._write_gate = threading.Condition(threading.Lock())
        self._writes_in_flight = 0
        # The server's own registry holds the HTTP-layer instruments; the
        # /metrics exposition renders it merged with the target stack's
        # registries (serving estimator / engine / durable write side).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._rejected_total = self.registry.counter(
            "repro_http_rejected_total",
            "requests shed by admission control",
        )
        self._inflight = self.registry.gauge(
            "repro_http_inflight", "requests currently executing"
        )
        self._route_hists = {
            (method, path): self.registry.histogram(
                "repro_http_request_seconds",
                "request latency by route",
                labels={"route": f"{method} {path}"},
            )
            for method, path in self.routes
        }
        self._other_hist = self.registry.histogram(
            "repro_http_request_seconds",
            "request latency by route",
            labels={"route": "other"},
        )
        super().__init__(address, _Handler)

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self) -> bool:
        if self._admission is None:
            return True
        if self._admission.acquire(blocking=False):
            return True
        self._rejected_total.inc()
        return False

    def _release(self) -> None:
        if self._admission is not None:
            self._admission.release()

    # ------------------------------------------------------------------
    # Write priority
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _writing(self):
        """Count a write in flight for the duration of the block."""
        with self._write_gate:
            self._writes_in_flight += 1
        try:
            yield
        finally:
            with self._write_gate:
                self._writes_in_flight -= 1
                if not self._writes_in_flight:
                    self._write_gate.notify_all()

    def _yield_to_writes(self) -> None:
        """Wait until no write is in flight, at most READ_YIELD_SECONDS."""
        with self._write_gate:
            self._write_gate.wait_for(
                lambda: not self._writes_in_flight, timeout=READ_YIELD_SECONDS
            )

    @property
    def rejected_requests(self) -> int:
        """Requests shed by admission control (view over the registry
        counter — /health, /stats and /metrics all read this one value)."""
        return int(self._rejected_total.value)

    def _retry_after_header(self) -> int:
        return max(1, math.ceil(self.retry_after))

    def _count_request(self, route_label: str, status: int) -> None:
        self.registry.counter(
            "repro_http_requests_total",
            "requests answered by route and status code",
            labels={"route": route_label, "code": str(status)},
        ).inc()

    # ------------------------------------------------------------------
    # Telemetry surfaces
    # ------------------------------------------------------------------
    def _metric_registries(self) -> list[MetricsRegistry]:
        """Every registry in this stack, HTTP layer first.

        The serving estimator's registry covers the swapped-in engines,
        the breaker and (for a durable write side) the WAL/checkpoint
        instruments, because those components share it at construction; a
        fixed engine contributes its own (a NullRegistry renders empty).
        """
        registries = [self.registry]
        if self.serving is not None:
            # Side-effect-free: the estimator's registry is reused by every
            # swapped engine, so there is no need to touch the `engine`
            # property (which would auto-build a snapshot on first access).
            if self.serving.registry not in registries:
                registries.append(self.serving.registry)
        elif (
            self._fixed_engine is not None
            and self._fixed_engine.registry not in registries
        ):
            registries.append(self._fixed_engine.registry)
        return registries

    def http_stats(self) -> dict:
        """JSON view of the HTTP-layer instruments (the /stats ``http``
        block): per-route request counts and latency summaries, in-flight
        and rejection tallies."""
        requests: dict[str, dict] = {}
        for instrument in self.registry.instruments():
            if instrument.name != "repro_http_requests_total":
                continue
            labels = dict(instrument.labels)
            route = labels.get("route", "other")
            by_code = requests.setdefault(route, {})
            by_code[labels.get("code", "?")] = int(instrument.value)
        return {
            "rejected_requests": self.rejected_requests,
            "inflight": int(self._inflight.value),
            "max_inflight": self.max_inflight,
            "requests": requests,
            "latency": {
                f"{method} {path}": hist.stats()
                for (method, path), hist in self._route_hists.items()
                if hist.count
            },
        }

    def _capped(self, k: int) -> tuple[int, int | None]:
        """``(effective_k, cap)`` under ``max_response_pairs``.

        Negative ``k`` passes through untouched so the query layer raises
        its own ValueError (mapped to a 400) instead of the cap hiding it.
        """
        cap = self.max_response_pairs if self.max_response_pairs > 0 else None
        if cap is None or k < 0:
            return k, cap
        return min(k, cap), cap

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._served = True
        super().serve_forever(poll_interval)

    def stop(self, timeout: float | None = 5.0) -> None:
        """Shut down, join the background serve thread (if any), close.

        Bounded: ``timeout`` caps the join so a hung in-flight handler
        cannot wedge interpreter shutdown (threads are daemonic anyway).
        A server that never served is only closed: ``shutdown()`` waits
        for a ``serve_forever`` loop to exit and would wait forever.
        """
        thread = self._serve_thread
        if self._served or thread is not None:
            self.shutdown()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout)
        self.server_close()

    @property
    def engine(self) -> QueryEngine:
        if self.serving is not None:
            return self.serving.engine
        return self._fixed_engine

    def require_serving(self) -> ServingEstimator:
        if self.serving is None:
            raise _HTTPError(
                405, "this server fronts a frozen snapshot; ingest/refresh "
                "need a ServingEstimator target"
            )
        return self.serving

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_in_background(
    target, address: tuple[str, int] = ("127.0.0.1", 0), **server_options
) -> tuple[ServingHTTPServer, threading.Thread]:
    """Start a server on a daemon thread.

    Stop it with ``server.stop(timeout)`` (bounded shutdown + join) or the
    legacy ``server.shutdown()``.  Extra keyword arguments
    (``max_inflight``, ``retry_after``, ``max_response_pairs``) pass
    through to :class:`ServingHTTPServer`.
    """
    server = ServingHTTPServer(target, address, **server_options)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serving-http", daemon=True
    )
    server._serve_thread = thread
    thread.start()
    return server, thread


class ServingClient:
    """``urllib``-based client with timeouts, retries and backoff.

    All methods raise :class:`urllib.error.HTTPError` on non-2xx responses
    (the JSON error body is attached by the stdlib).

    Every request carries a socket ``timeout`` — a hung server surfaces as
    a timely error, never a stuck client thread.  **Idempotent** requests
    (all GETs and ``POST /query`` — pure reads whose replay cannot change
    server state) are retried up to ``retries`` times on connection
    failures, timeouts and 503s, sleeping a bounded exponential backoff
    with jitter between attempts and honouring the server's
    ``Retry-After`` (capped at ``backoff_max``).  ``POST /ingest`` and
    ``POST /refresh`` are **never retried**: a response lost after the
    server applied the write would make a retry double-ingest or
    double-swap — the caller decides, with batch counters in hand.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``http://127.0.0.1:8321``.
    timeout:
        Per-request socket timeout (seconds).
    retries:
        Extra attempts for idempotent requests (0 disables retrying).
    backoff / backoff_max:
        Base and cap of the exponential backoff (seconds); actual sleeps
        are jittered uniformly in ``[backoff/2, backoff] * 2**attempt``.
    opener / sleep_fn / seed:
        Injection points for tests: the ``urlopen``-compatible callable,
        the sleep function, and the jitter RNG seed.
    """

    #: HTTP statuses worth retrying for idempotent requests — overload or
    #: open-breaker shedding, by construction transient.
    retry_statuses = frozenset({503})

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.1,
        backoff_max: float = 2.0,
        opener=urllib.request.urlopen,
        sleep_fn=time.sleep,
        seed: int | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.backoff_max = float(backoff_max)
        self._opener = opener
        self._sleep = sleep_fn
        self._rng = random.Random(seed)
        self.retried_requests = 0

    # ------------------------------------------------------------------
    def _backoff_delay(self, attempt: int, retry_after: float | None) -> float:
        delay = min(self.backoff_max, self.backoff * (2.0**attempt))
        delay *= self._rng.uniform(0.5, 1.0)  # jitter: desynchronize clients
        if retry_after is not None:
            # Honour the server's hint, but never beyond our own cap.
            delay = min(max(delay, retry_after), self.backoff_max)
        return delay

    def _request(self, request, *, idempotent: bool, parse_json: bool = True):
        attempts = 1 + (self.retries if idempotent else 0)
        for attempt in range(attempts):
            last = attempt == attempts - 1
            try:
                with self._opener(request, timeout=self.timeout) as response:
                    raw = response.read()
                    return json.loads(raw) if parse_json else raw.decode("utf-8")
            except urllib.error.HTTPError as exc:
                # Subclasses URLError — must be caught first.  Non-retryable
                # statuses (4xx, 500) propagate immediately.
                if last or int(exc.code) not in self.retry_statuses:
                    raise
                try:
                    retry_after = float(exc.headers.get("Retry-After"))
                except (TypeError, ValueError):
                    retry_after = None
                exc.close()
            except (urllib.error.URLError, OSError):
                # Dropped connection, refused socket, timeout.
                if last:
                    raise
                retry_after = None
            self.retried_requests += 1
            self._sleep(self._backoff_delay(attempt, retry_after))
        raise AssertionError("unreachable")  # pragma: no cover

    def _get(self, path: str, **params) -> dict:
        query = urllib.parse.urlencode(
            {k: v for k, v in params.items() if v is not None}
        )
        url = f"{self.base_url}{path}" + (f"?{query}" if query else "")
        return self._request(url, idempotent=True)

    def _post(self, path: str, payload: dict, *, idempotent: bool = False) -> dict:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._request(request, idempotent=idempotent)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._get("/health")

    def stats(self) -> dict:
        """The /stats payload — includes the server's ``http`` block
        (per-route request counts, latency summaries, rejected_requests),
        so HTTP-layer telemetry is visible without a Prometheus scrape."""
        return self._get("/stats")

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        return self._request(
            f"{self.base_url}/metrics", idempotent=True, parse_json=False
        )

    def pair(self, i: int, j: int) -> float:
        return float(self._get("/pair", i=int(i), j=int(j))["estimate"])

    def query_pairs(self, i, j) -> np.ndarray:
        payload = {
            "i": np.asarray(i, dtype=np.int64).tolist(),
            "j": np.asarray(j, dtype=np.int64).tolist(),
        }
        return np.asarray(
            self._post("/query", payload, idempotent=True)["estimates"]
        )

    def query_keys(self, keys) -> np.ndarray:
        payload = {"keys": np.asarray(keys, dtype=np.int64).tolist()}
        return np.asarray(
            self._post("/query", payload, idempotent=True)["estimates"]
        )

    def neighbors(self, i: int, k: int = 10) -> tuple[np.ndarray, np.ndarray]:
        data = self._get("/neighbors", i=int(i), k=int(k))
        return (
            np.asarray(data["partners"], dtype=np.int64),
            np.asarray(data["estimates"]),
        )

    def top(self, k: int = 10) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        data = self._get("/top", k=int(k))
        return (
            np.asarray(data["i"], dtype=np.int64),
            np.asarray(data["j"], dtype=np.int64),
            np.asarray(data["estimates"]),
        )

    def above(
        self, threshold: float, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        data = self._get("/above", threshold=float(threshold), limit=limit)
        return (
            np.asarray(data["i"], dtype=np.int64),
            np.asarray(data["j"], dtype=np.int64),
            np.asarray(data["estimates"]),
        )

    def ingest(self, samples) -> dict:
        payload = {
            "samples": [
                [
                    np.asarray(idx, dtype=np.int64).tolist(),
                    np.asarray(val, dtype=np.float64).tolist(),
                ]
                for idx, val in samples
            ]
        }
        return self._post("/ingest", payload)

    def refresh(self) -> dict:
        return self._post("/refresh", {})

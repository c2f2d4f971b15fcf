"""Tests for the stdlib HTTP front end (server + client round trips)."""

from __future__ import annotations

import http.client
import json
import re
import socket
import statistics
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.serving import (
    QueryEngine,
    ServingClient,
    ServingEstimator,
    serve_in_background,
)
from repro.serving import http as serving_http
from repro.sketch.count_sketch import CountSketch

DIM = 40


def _make_samples(n, rng, nnz=5):
    return [
        (
            np.sort(rng.choice(DIM, size=nnz, replace=False)).astype(np.int64),
            rng.standard_normal(nnz),
        )
        for _ in range(n)
    ]


def _make_serving(rng) -> ServingEstimator:
    estimator = SketchEstimator(
        CountSketch(3, 512, seed=31), total_samples=1000, track_top=128
    )
    sketcher = CovarianceSketcher(DIM, estimator, mode="covariance", batch_size=16)
    serving = ServingEstimator(sketcher, top_index=64, cache_size=256)
    serving.ingest_sparse(_make_samples(64, rng))
    serving.refresh()
    return serving


@pytest.fixture
def serving_server(rng):
    serving = _make_serving(rng)
    server, thread = serve_in_background(serving)
    yield serving, server, ServingClient(server.url)
    server.shutdown()
    server.server_close()


class TestReadEndpoints:
    def test_health(self, serving_server):
        serving, _, client = serving_server
        health = client.health()
        assert health["status"] == "ok"
        assert health["snapshot_id"] == serving.snapshot.snapshot_id
        assert health["writable"] is True

    def test_pair_round_trips_exactly(self, serving_server):
        serving, _, client = serving_server
        # JSON floats are repr-round-trip exact, so HTTP == in-process.
        assert client.pair(0, 3) == serving.query_pair(0, 3)

    def test_batch_query_pairs(self, serving_server, rng):
        serving, _, client = serving_server
        i = rng.integers(0, DIM - 1, size=50)
        j = rng.integers(i + 1, DIM, size=50)
        np.testing.assert_array_equal(
            client.query_pairs(i, j), serving.query_pairs(i, j)
        )

    def test_batch_query_keys(self, serving_server):
        serving, _, client = serving_server
        keys = np.arange(30, dtype=np.int64)
        np.testing.assert_array_equal(
            client.query_keys(keys), serving.query_keys(keys)
        )

    def test_neighbors(self, serving_server):
        serving, _, client = serving_server
        feature = int(serving.snapshot.index_i[0])
        partners, estimates = client.neighbors(feature, k=5)
        local_p, local_e = serving.top_neighbors(feature, 5)
        np.testing.assert_array_equal(partners, local_p)
        np.testing.assert_array_equal(estimates, local_e)

    def test_top_and_above(self, serving_server):
        serving, _, client = serving_server
        i, j, est = client.top(5)
        np.testing.assert_array_equal(est, serving.top_pairs(5)[2])
        ai, aj, aest = client.above(float(est[-1]))
        assert aest.size >= est.size

    def test_above_limit_zero_means_zero(self, serving_server):
        _, _, client = serving_server
        i, j, est = client.above(-1e9, limit=0)
        assert est.size == 0

    def test_health_has_no_side_effects_before_first_refresh(self, rng):
        estimator = SketchEstimator(
            CountSketch(3, 512, seed=41), total_samples=100
        )
        sketcher = CovarianceSketcher(DIM, estimator, mode="covariance")
        serving = ServingEstimator(sketcher, top_index=16)
        server, _ = serve_in_background(serving)
        try:
            health = ServingClient(server.url).health()
            assert health["snapshot_id"] is None
            assert serving.swap_count == 0  # the probe built nothing
        finally:
            server.shutdown()
            server.server_close()

    def test_stats(self, serving_server):
        serving, _, client = serving_server
        client.pair(0, 1)
        stats = client.stats()
        assert stats["swap_count"] == serving.swap_count
        assert stats["engine"]["cache"]["capacity"] == 256


class TestWriteEndpoints:
    def test_ingest_then_refresh_changes_served_snapshot(
        self, serving_server, rng
    ):
        serving, _, client = serving_server
        before_id = serving.snapshot.snapshot_id
        result = client.ingest(_make_samples(8, rng))
        assert result["ingested"] == 8
        # Served snapshot unchanged until refresh...
        assert serving.snapshot.snapshot_id == before_id
        refreshed = client.refresh()
        assert refreshed["snapshot_id"] > before_id
        assert serving.snapshot.snapshot_id == refreshed["snapshot_id"]


class TestErrorsAndReadOnlyTargets:
    def test_bad_pair_is_400(self, serving_server):
        _, server, _ = serving_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/pair?i=5&j=5")
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_missing_param_is_400(self, serving_server):
        _, server, _ = serving_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/pair?i=5")
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_unknown_route_is_404(self, serving_server):
        _, server, _ = serving_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope")
        assert excinfo.value.code == 404
        excinfo.value.close()

    def test_malformed_samples_is_json_error_not_hangup(self, serving_server):
        _, server, _ = serving_server
        request = urllib.request.Request(
            f"{server.url}/ingest",
            data=json.dumps({"samples": [1, 2]}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code in (400, 500)
        assert "error" in json.loads(excinfo.value.read())
        excinfo.value.close()

    def test_ingest_index_past_dim_is_400(self, rng):
        """A sample index >= dim is the client's mistake in either value
        mode, refused before any write-side state changes."""
        estimator = SketchEstimator(CountSketch(3, 512, seed=31), total_samples=1000)
        sketcher = CovarianceSketcher(DIM, estimator, mode="correlation")
        serving = ServingEstimator(sketcher, top_index=64)
        server, _ = serve_in_background(serving)
        try:
            request = urllib.request.Request(
                f"{server.url}/ingest",
                data=json.dumps({"samples": [[[1, 5000], [1.0, 2.0]]]}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            excinfo.value.close()
            assert sketcher.sparse_moments.count == 0
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize(
        "bad", ["nan-literal", "bad-last-row", "float-index", "index-past-int64"]
    )
    def test_refused_ingest_changes_no_stats(self, bad, rng):
        """A refused ``/ingest`` is a 400 that applies nothing: a ``NaN``
        literal (``json.loads`` accepts it), a 40-row body whose last
        row names an index past ``dim``, two batches of 32 after the
        first would have applied, or an index that is not an int64 (a
        float would truncate to a valid index, an int past int64 would
        overflow)."""
        estimator = SketchEstimator(CountSketch(3, 512, seed=31), total_samples=1000)
        sketcher = CovarianceSketcher(DIM, estimator, batch_size=32)
        serving = ServingEstimator(sketcher, top_index=64)
        server, _ = serve_in_background(serving)
        client = ServingClient(server.url)
        rows = [[idx.tolist(), val.tolist()] for idx, val in _make_samples(40, rng)]
        if bad == "nan-literal":
            rows[7][1][2] = float("nan")
        elif bad == "bad-last-row":
            rows[-1][0][-1] = DIM
        elif bad == "float-index":
            rows[7][0][-1] += 0.5
        else:
            rows[7][0][-1] = 2**70
        body = json.dumps({"samples": rows})
        assert ("NaN" in body) == (bad == "nan-literal")

        def write_side():
            # Everything but the request tallies and the clock: a refusal
            # is no write failure, so the breaker's counts stay too.
            stats = client.stats()
            for key in ("http", "stale_seconds"):
                stats.pop(key)
            return stats

        try:
            client.ingest(_make_samples(8, rng))
            before = write_side()
            table = estimator.sketch.table.copy()
            request = urllib.request.Request(
                f"{server.url}/ingest",
                data=body.encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            excinfo.value.close()
            assert write_side() == before
            assert before["write_samples_seen"] == 8
            np.testing.assert_array_equal(estimator.sketch.table, table)
        finally:
            server.shutdown()
            server.server_close()

    def test_out_of_range_keys_is_400(self, serving_server):
        _, server, _ = serving_server
        request = urllib.request.Request(
            f"{server.url}/query",
            data=json.dumps({"keys": [-5]}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        excinfo.value.close()

    @pytest.mark.parametrize("bad", [2**70, 1.5])
    @pytest.mark.parametrize("field", ["keys", "i"])
    def test_query_indices_must_be_int64(self, serving_server, field, bad):
        # 1.5 used to truncate to 1 and answer; 2**70 overflowed into a 500.
        _, server, _ = serving_server
        body = {"keys": [0, bad]} if field == "keys" else {"i": [0, bad], "j": [3, 4]}
        request = urllib.request.Request(
            f"{server.url}/query",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "int64" in json.loads(excinfo.value.read())["error"]
        excinfo.value.close()

    def test_bad_json_body_is_400(self, serving_server):
        _, server, _ = serving_server
        request = urllib.request.Request(
            f"{server.url}/query", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())
        excinfo.value.close()

    def test_snapshot_target_serves_reads_but_rejects_writes(self, rng):
        serving = _make_serving(rng)
        snapshot = serving.snapshot
        server, thread = serve_in_background(QueryEngine(snapshot))
        try:
            client = ServingClient(server.url)
            assert client.health()["writable"] is False
            np.testing.assert_array_equal(
                client.query_keys(np.arange(10, dtype=np.int64)),
                snapshot.query_keys(np.arange(10, dtype=np.int64)),
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.refresh()
            assert excinfo.value.code == 405
            excinfo.value.close()
        finally:
            server.shutdown()
            server.server_close()


def _connect(server):
    """A raw keep-alive connection: ``(socket, buffered reader)``."""
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    return sock, sock.makefile("rb")


def _read_reply(reader):
    """``(status, headers, body)`` of the next response on a raw
    connection, or ``None`` once the server has closed it."""
    try:
        status_line = reader.readline()
    except ConnectionResetError:
        return None
    if not status_line:
        return None
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


class TestRequestFraming:
    """Raw-socket requests: a body the handler cannot frame is refused
    and its connection closed; one it can frame keeps the connection."""

    def _refused(self, server, request: bytes, status: int) -> None:
        sock, reader = _connect(server)
        with sock, reader:
            sock.sendall(request)
            reply = _read_reply(reader)
            assert reply is not None, "no reply before the connection closed"
            assert reply[0] == status
            assert reply[1]["connection"] == "close"
            assert "error" in json.loads(reply[2])
            assert _read_reply(reader) is None

    @pytest.mark.parametrize("length", ["abc", "-5", "0x10"])
    def test_malformed_content_length_is_400(self, serving_server, length):
        _, server, client = serving_server
        self._refused(
            server,
            b"POST /query HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n",
            400,
        )
        assert client.stats()["http"]["requests"]["POST /query"] == {"400": 1}

    def test_oversized_body_is_413_unread(self, serving_server, monkeypatch):
        # The body is never sent: a server that tried to read it would
        # block past the client's timeout instead of answering.
        monkeypatch.setattr(serving_http, "MAX_BODY_BYTES", 1024)
        _, server, _ = serving_server
        self._refused(
            server,
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1025\r\n\r\n",
            413,
        )

    def test_chunked_body_is_411(self, serving_server):
        _, server, _ = serving_server
        self._refused(
            server,
            b"POST /query HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n",
            411,
        )

    @pytest.mark.parametrize("route, status", [("/query", 408), ("/nope", 404)])
    def test_stalled_body_times_out(self, serving_server, monkeypatch, route, status):
        # /query reads the body (408); /nope only drains it, answers its
        # own error, and closes since the rest never came.
        monkeypatch.setattr(serving_http._Handler, "timeout", 0.3)
        _, server, _ = serving_server
        self._refused(
            server,
            f"POST {route} HTTP/1.1\r\nHost: t\r\n".encode()
            + b"Content-Length: 100\r\n\r\n"
            + b'{"keys": [1',
            status,
        )

    def test_pipelined_requests_are_all_answered(self, serving_server):
        serving, server, _ = serving_server
        sock, reader = _connect(server)
        with sock, reader:
            sock.sendall(
                b"GET /pair?i=0&j=3 HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            first, second = _read_reply(reader), _read_reply(reader)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["estimate"] == serving.query_pair(0, 3)
        assert json.loads(second[2])["status"] == "ok"

    def test_connection_survives_errors_with_unread_bodies(self, serving_server):
        _, server, _ = serving_server
        sock, reader = _connect(server)
        with sock, reader:
            for request, status in (
                (b"POST /nope", 404),
                (b"GET /pair?i=5", 400),
                (b"GET /health", 200),
            ):
                sock.sendall(
                    request + b" HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 5\r\n\r\nhello"
                )
                reply = _read_reply(reader)
                assert reply is not None and reply[0] == status
                assert "connection" not in reply[1]


def _exchange(conn, method, path, payload=None):
    """One request on a persistent ``http.client`` connection:
    ``(status, body bytes)``."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


class TestKeepAlive:
    """Requests on one persistent connection, as a keep-alive client sends
    them.  A reply written in two pieces with Nagle's algorithm on holds
    its tail until the client ACKs the head, which a client delays by
    about 40 ms; each reply must arrive without that wait."""

    READS = 48

    @pytest.fixture
    def conn(self, serving_server):
        _, server, _ = serving_server
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        yield conn
        conn.close()

    def _read_session(self, conn, rng):
        """Client-side seconds per ``GET /pair``, and for all reads, on one
        connection mixing ``/pair``, ``/query`` and ``/ingest``."""
        pair_seconds, read_seconds = [], []
        for n in range(self.READS):
            if n % 8 == 7:
                samples = [
                    [idx.tolist(), val.tolist()] for idx, val in _make_samples(4, rng)
                ]
                status, _ = _exchange(conn, "POST", "/ingest", {"samples": samples})
                assert status == 200
            started = time.perf_counter()
            if n % 2:
                status, _ = _exchange(conn, "GET", f"/pair?i={n % 20}&j=30")
            else:
                status, _ = _exchange(conn, "POST", "/query", {"keys": [n, n + 1]})
            elapsed = time.perf_counter() - started
            assert status == 200
            read_seconds.append(elapsed)
            if n % 2:
                pair_seconds.append(elapsed)
        return pair_seconds, read_seconds

    def test_keep_alive_reads_do_not_wait_for_delayed_acks(self, conn, rng):
        _, read_seconds = self._read_session(conn, rng)
        assert statistics.median(read_seconds) < 0.020

    def test_server_latency_matches_what_the_client_sees(self, conn, rng):
        # The handler times a request and records it after the reply, so
        # /stats is asked on the same connection: the last read is in.
        # With no reply stall left, the client waits only a loopback
        # round trip longer.
        pair_seconds, _ = self._read_session(conn, rng)
        status, body = _exchange(conn, "GET", "/stats")
        assert status == 200
        served = json.loads(body)["http"]["latency"]["GET /pair"]
        assert served["count"] == len(pair_seconds)
        assert abs(served["p50"] - statistics.median(pair_seconds)) < 0.010


class TestObservabilityEndpoints:
    def test_metrics_route_serves_prometheus_text(self, serving_server):
        _, server, client = serving_server
        client.pair(0, 1)
        client.query_keys(np.arange(5, dtype=np.int64))
        with urllib.request.urlopen(f"{server.url}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode("utf-8")
        # Serving, HTTP and breaker families all ride one exposition.
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_http_inflight",
            "repro_serving_swaps_total",
            "repro_serving_query_seconds",
            "repro_serving_cache_hit_ratio",
            "repro_breaker_rejections_total",
        ):
            assert f"# TYPE {family}" in text, family
        # Histogram families carry the full bucket/sum/count triplet.
        assert re.search(
            r'repro_http_request_seconds_bucket\{[^}]*le="\+Inf"\}', text
        )
        assert "repro_http_request_seconds_sum" in text
        assert "repro_http_request_seconds_count" in text

    def test_client_metrics_returns_raw_text(self, serving_server):
        _, _, client = serving_server
        client.pair(0, 1)
        # The server counts a request before its reply leaves, so the
        # scrape already holds the /pair count.
        text = client.metrics()
        assert isinstance(text, str)
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{code="200",route="GET /pair"} 1' in text
        assert "# TYPE repro_http_rejected_total counter" in text

    def test_requests_counted_by_route_and_code(self, serving_server):
        _, server, client = serving_server
        client.pair(0, 1)
        client.pair(0, 2)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope")
        excinfo.value.close()
        http = client.stats()["http"]
        assert http["requests"]["GET /pair"]["200"] >= 2
        # Unknown paths pool under "other" so junk cannot explode cardinality.
        assert http["requests"]["GET other"]["404"] >= 1
        assert "GET /pair" in http["latency"]
        assert http["latency"]["GET /pair"]["count"] >= 2

    def test_stats_reports_rejected_requests(self, serving_server):
        """Satellite: /stats must surface the HTTP admission counters the
        old plain-int implementation dropped."""
        _, server, client = serving_server
        http = client.stats()["http"]
        assert http["rejected_requests"] == 0
        assert http["rejected_requests"] == server.rejected_requests
        # inflight counts the /stats request observing itself.
        assert http["inflight"] == 1

    def test_metrics_scrape_has_no_side_effects(self, rng):
        """A scrape must never build a snapshot on a never-refreshed target."""
        estimator = SketchEstimator(
            CountSketch(3, 512, seed=47), total_samples=100
        )
        sketcher = CovarianceSketcher(DIM, estimator, mode="covariance")
        serving = ServingEstimator(sketcher, top_index=16)
        server, thread = serve_in_background(serving)
        try:
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert response.status == 200
            assert serving.swap_count == 0
        finally:
            server.shutdown()
            server.server_close()

    def test_rejected_requests_counted_when_saturated(self, rng):
        serving = _make_serving(rng)
        server, thread = serve_in_background(serving, max_inflight=1)
        try:
            client = ServingClient(server.url)
            # Hold the only admission slot, then hit a gated route.
            acquired = server._admit()
            assert acquired
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"{server.url}/pair?i=0&j=1")
                assert excinfo.value.code == 503
                excinfo.value.close()
            finally:
                server._release()
            assert server.rejected_requests == 1
            assert client.stats()["http"]["rejected_requests"] == 1
            # /metrics is ungated: it must answer even at saturation.
            assert "repro_http_rejected_total 1" in client.metrics()
        finally:
            server.shutdown()
            server.server_close()

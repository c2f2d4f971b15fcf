"""Degradation-aware serving: breaker, backoff, admission, stale reads.

The serving layer's failure contract, exercised end to end with the
deterministic fault injectors:

* the **client** retries idempotent requests through dropped connections
  and 503s with bounded backoff, and never retries writes;
* the **server** sheds load (admission control -> 503 + ``Retry-After``)
  and maps an open ingest circuit breaker the same way;
* the **estimator** keeps serving the last good snapshot through failing
  or hung refreshes (stale-but-available), reporting staleness and the
  failure through ``health()`` and ``/health``.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance import InvalidBatchError
from repro.covariance.pipeline import CovarianceSketcher
from repro.distributed.shard import ShardSpec
from repro.durability.breaker import CircuitBreaker, CircuitOpenError
from repro.durability.faults import Flaky
from repro.serving import ServingEstimator, SketchSnapshot
from repro.serving import http as serving_http
from repro.serving.http import ServingClient, ServingHTTPServer, serve_in_background
from repro.sketch.count_sketch import CountSketch

pytestmark = pytest.mark.faults

DIM = 40


@pytest.fixture
def rng():
    return np.random.default_rng(4242)


def _make_samples(n, rng, nnz=5):
    return [
        (
            np.sort(rng.choice(DIM, size=nnz, replace=False)).astype(np.int64),
            rng.standard_normal(nnz),
        )
        for _ in range(n)
    ]


def _make_serving(rng, **kwargs) -> ServingEstimator:
    estimator = SketchEstimator(
        CountSketch(3, 512, seed=31), total_samples=1000, track_top=128
    )
    sketcher = CovarianceSketcher(DIM, estimator, mode="covariance", batch_size=16)
    serving = ServingEstimator(sketcher, top_index=64, cache_size=256, **kwargs)
    serving.ingest_sparse(_make_samples(64, rng))
    serving.refresh()
    return serving


def _no_sleep(_seconds):
    pass


#: One sample each that the batch checks refuse: NaN and ±inf values, an
#: index past ``DIM``, an index repeated within the sample.
REFUSED_BATCHES = [
    (np.asarray([1, 4]), np.asarray([1.0, np.nan])),
    (np.asarray([1, 4]), np.asarray([np.inf, 2.0])),
    (np.asarray([1, 4]), np.asarray([1.0, -np.inf])),
    (np.asarray([0, DIM]), np.asarray([1.0, 2.0])),
    (np.asarray([4, 1, 4]), np.asarray([1.0, 2.0, 3.0])),
]


def _ingest_body(rng, n) -> dict:
    return {
        "samples": [[idx.tolist(), val.tolist()] for idx, val in _make_samples(n, rng)]
    }


def _keep_alive(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)


def _exchange(conn, method, path, payload=None):
    """One request on a persistent connection: ``(status, body bytes)``."""
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def _hang(method, entered, release):
    """``method``, blocked until ``release`` is set; ``entered`` marks the call."""

    def hung(*args):
        entered.set()
        release.wait(timeout=30.0)
        return method(*args)

    return hung


def _fail_writes(serving, *, times):
    """Make the write side's next ``times`` ingests raise ``OSError``."""
    serving.sketcher.fit_sparse = Flaky(
        serving.sketcher.fit_sparse,
        failures=times,
        exc_factory=lambda: OSError("injected: disk full"),
    )


# ----------------------------------------------------------------------
# Circuit breaker unit behaviour
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _clocked(self, **kwargs):
        clock = [0.0]
        breaker = CircuitBreaker(time_fn=lambda: clock[0], **kwargs)
        return breaker, clock

    def test_trips_after_threshold_and_recovers(self):
        breaker, clock = self._clocked(failure_threshold=3, reset_after=10.0)
        for _ in range(3):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call()
        assert excinfo.value.retry_after == pytest.approx(10.0)
        clock[0] = 11.0  # cooldown elapsed -> half-open probe allowed
        assert breaker.state == "half-open"
        breaker.before_call()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker, clock = self._clocked(failure_threshold=1, reset_after=5.0)
        breaker.before_call()
        breaker.record_failure()
        clock[0] = 6.0
        breaker.before_call()  # the probe
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_success_resets_failure_streak(self):
        breaker, _ = self._clocked(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # never two *consecutive* failures

    def test_refusal_counts_neither_way(self):
        breaker, clock = self._clocked(failure_threshold=2, reset_after=5.0)
        breaker.record_failure()
        breaker.record_refusal()
        assert breaker.stats()["consecutive_failures"] == 1
        breaker.record_failure()
        assert breaker.state == "open"
        clock[0] = 6.0
        breaker.before_call()  # the probe, refused
        breaker.record_refusal()
        assert breaker.state == "half-open"
        breaker.before_call()  # the slot is free for the next probe
        breaker.record_success()
        assert breaker.state == "closed"

    def test_call_wrapper_counts(self):
        breaker, _ = self._clocked(failure_threshold=2)
        assert breaker.call(lambda: 7) == 7
        with pytest.raises(RuntimeError):
            breaker.call(self._boom)
        stats = breaker.stats()
        assert stats["consecutive_failures"] == 1
        assert stats["state"] == "closed"

    @staticmethod
    def _boom():
        raise RuntimeError("injected")


# ----------------------------------------------------------------------
# Estimator-level degradation (no HTTP)
# ----------------------------------------------------------------------
class TestStaleButAvailable:
    def test_failing_auto_refresh_marks_degraded_keeps_serving(
        self, rng, monkeypatch
    ):
        serving = _make_serving(rng)
        serving.refresh_every = 8
        served_before = serving.served_snapshot_id
        probe = serving.query_pair(0, 3)

        def broken(*args, **kwargs):
            raise RuntimeError("injected: snapshot build failed")

        monkeypatch.setattr(serving, "_refresh_locked", broken)
        # The ingest crossing the threshold must SUCCEED despite the
        # broken refresh behind it.
        serving.ingest_sparse(_make_samples(16, rng))
        assert serving.degraded
        assert serving.refresh_failures == 1
        assert "snapshot build failed" in serving.last_refresh_error
        assert serving.served_snapshot_id == served_before  # stale, alive
        assert serving.query_pair(0, 3) == probe
        health = serving.health()
        assert health["status"] == "degraded"
        assert health["stale_samples"] >= 16

    def test_successful_refresh_clears_degradation(self, rng, monkeypatch):
        serving = _make_serving(rng)
        serving.refresh_every = 8
        broken = {"on": True}
        real = serving._refresh_locked

        def flaky_refresh(*args, **kwargs):
            if broken["on"]:
                raise RuntimeError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(serving, "_refresh_locked", flaky_refresh)
        serving.ingest_sparse(_make_samples(16, rng))
        assert serving.degraded
        broken["on"] = False
        serving.ingest_sparse(_make_samples(16, rng))
        assert not serving.degraded
        assert serving.last_refresh_error is None
        assert serving.health()["status"] == "ok"

    def test_explicit_refresh_failure_propagates_but_records(
        self, rng, monkeypatch
    ):
        serving = _make_serving(rng)

        def broken(*args, **kwargs):
            raise RuntimeError("injected: build failed")

        monkeypatch.setattr(serving, "_refresh_locked", broken)
        with pytest.raises(RuntimeError, match="injected"):
            serving.refresh()
        assert serving.degraded
        assert serving.refresh_failures == 1

    def test_hung_refresh_does_not_stall_ingest(self, rng):
        serving = _make_serving(rng)
        serving.refresh_every = 8
        hung = threading.Event()
        release = threading.Event()

        def hanging_refresh():
            with serving._refresh_lock:
                hung.set()
                assert release.wait(timeout=10.0)

        hanger = threading.Thread(target=hanging_refresh, daemon=True)
        hanger.start()
        assert hung.wait(timeout=5.0)
        # A refresh is "in flight" (hung): the threshold-crossing ingest
        # must return promptly instead of queueing on the refresh lock.
        done = threading.Event()

        def ingest():
            serving.ingest_sparse(_make_samples(16, rng))
            done.set()

        worker = threading.Thread(target=ingest, daemon=True)
        worker.start()
        assert done.wait(timeout=5.0), "ingest stalled behind a hung refresh"
        release.set()
        hanger.join(timeout=5.0)

    def test_breaker_opens_on_repeated_ingest_failures(self, rng):
        clock = [0.0]
        serving = _make_serving(
            rng,
            breaker=CircuitBreaker(
                failure_threshold=2, reset_after=30.0, time_fn=lambda: clock[0]
            ),
        )
        _fail_writes(serving, times=2)
        for _ in range(2):
            with pytest.raises(OSError):
                serving.ingest_sparse(_make_samples(4, rng))
        assert serving.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            serving.ingest_sparse(_make_samples(4, rng))
        assert serving.health()["status"] == "degraded"
        assert serving.stats()["breaker"]["rejections"] == 1
        # Reads keep working while ingest is shed.
        serving.query_pair(0, 3)
        clock[0] = 31.0  # cooldown -> half-open; a good batch closes it
        serving.ingest_sparse(_make_samples(4, rng))
        assert serving.breaker.state == "closed"
        assert serving.health()["status"] == "ok"

    def test_refused_batches_leave_the_breaker_closed(self, rng):
        """A batch its checks refuse is the caller's fault, not the write
        path's: five in a row (the default threshold) open nothing, and
        a refusal between two write failures does not reset their run."""
        clock = [0.0]
        serving = _make_serving(rng, breaker=CircuitBreaker(time_fn=lambda: clock[0]))
        assert serving.breaker.failure_threshold == 5
        seen = serving.sketcher.samples_seen
        for bad in REFUSED_BATCHES:
            with pytest.raises(InvalidBatchError):
                serving.ingest_sparse(_make_samples(3, rng) + [bad])
        assert serving.breaker.stats()["consecutive_failures"] == 0
        assert serving.breaker.state == "closed"
        assert serving.sketcher.samples_seen == seen

        _fail_writes(serving, times=4)
        for _ in range(4):
            with pytest.raises(OSError):
                serving.ingest_sparse(_make_samples(4, rng))
        with pytest.raises(InvalidBatchError):
            serving.ingest_sparse([REFUSED_BATCHES[0]])
        assert serving.breaker.stats()["consecutive_failures"] == 4
        _fail_writes(serving, times=1)
        with pytest.raises(OSError):
            serving.ingest_sparse(_make_samples(4, rng))
        assert serving.breaker.state == "open"

    @pytest.mark.parametrize("stack", ["memory", "durable", "windowed"])
    def test_wrong_width_dense_batches_leave_the_breaker_closed(
        self, stack, tmp_path, rng
    ):
        """Dense rows of the wrong width are the caller's fault too: six
        such batches open nothing, and the next good batch lands."""
        spec = ShardSpec(dim=20, total_samples=1000, num_tables=3, num_buckets=512)
        durable = stack == "durable"
        if durable:
            serving = ServingEstimator.durable(tmp_path, spec)
        elif stack == "windowed":
            serving = ServingEstimator.windowed(spec, num_panes=2, pane_samples=32)
        else:
            serving = ServingEstimator(spec.build_sketcher())
        try:
            for _ in range(6):
                with pytest.raises(InvalidBatchError, match=r"shape \(n, 20\)"):
                    serving.ingest_dense(rng.standard_normal((4, 19)))
            assert serving.breaker.state == "closed"
            assert serving.breaker.stats()["consecutive_failures"] == 0
            serving.ingest_dense(rng.standard_normal((4, 20)))
            assert serving.sketcher.samples_seen == 4
        finally:
            if durable:
                serving.sketcher.close()

    def test_a_refused_probe_frees_the_half_open_slot(self, rng):
        clock = [0.0]
        serving = _make_serving(
            rng,
            breaker=CircuitBreaker(
                failure_threshold=1, reset_after=30.0, time_fn=lambda: clock[0]
            ),
        )
        _fail_writes(serving, times=1)
        with pytest.raises(OSError):
            serving.ingest_sparse(_make_samples(4, rng))
        clock[0] = 31.0
        with pytest.raises(InvalidBatchError):
            serving.ingest_sparse([REFUSED_BATCHES[0]])
        assert serving.breaker.state == "half-open"
        serving.ingest_sparse(_make_samples(4, rng))
        assert serving.breaker.state == "closed"


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class TestClientRetries:
    @pytest.fixture
    def server(self, rng):
        serving = _make_serving(rng)
        server, _thread = serve_in_background(serving)
        yield serving, server
        server.stop(timeout=5.0)

    def test_idempotent_get_retries_through_dropped_connections(
        self, rng, server
    ):
        _, srv = server
        flaky = Flaky(urllib.request.urlopen, failures=2)
        client = ServingClient(
            srv.url, retries=2, opener=flaky, sleep_fn=_no_sleep, seed=0
        )
        assert client.health()["status"] == "ok"
        assert flaky.faults == 2
        assert client.retried_requests == 2

    def test_retries_exhausted_raises_the_underlying_error(self, rng, server):
        _, srv = server
        flaky = Flaky(urllib.request.urlopen, failures=10)
        client = ServingClient(
            srv.url, retries=2, opener=flaky, sleep_fn=_no_sleep, seed=0
        )
        with pytest.raises(ConnectionResetError):
            client.health()
        assert flaky.calls == 3  # 1 try + 2 retries, then give up

    def test_ingest_is_never_retried(self, rng, server):
        _, srv = server
        flaky = Flaky(urllib.request.urlopen, failures=1)
        client = ServingClient(
            srv.url, retries=5, opener=flaky, sleep_fn=_no_sleep, seed=0
        )
        with pytest.raises(ConnectionResetError):
            client.ingest(_make_samples(2, rng))
        assert flaky.calls == 1  # one attempt, no blind replay of a write
        assert client.retried_requests == 0

    def test_post_query_is_idempotent_and_retried(self, rng, server):
        _, srv = server
        flaky = Flaky(urllib.request.urlopen, failures=1)
        client = ServingClient(
            srv.url, retries=2, opener=flaky, sleep_fn=_no_sleep, seed=0
        )
        estimates = client.query_pairs([0, 1], [3, 4])
        assert estimates.shape == (2,)
        assert flaky.faults == 1

    def test_backoff_honours_retry_after_within_cap(self, rng):
        sleeps = []
        client = ServingClient(
            "http://127.0.0.1:9", retries=0,
            backoff=0.1, backoff_max=2.0,
            sleep_fn=sleeps.append, seed=0,
        )
        assert client._backoff_delay(0, 100.0) == 2.0  # capped
        assert client._backoff_delay(0, 1.5) == 1.5  # honoured
        jittered = client._backoff_delay(3, None)
        assert 0.4 <= jittered <= 0.8  # 0.1 * 2**3, jittered in [1/2, 1]

    def test_503_is_retried_with_retry_after(self, rng, server):
        serving, srv = server
        # Trip the breaker so reads still work but ingest 503s.
        for _ in range(serving.breaker.failure_threshold):
            serving.breaker.record_failure()
        sleeps = []
        client = ServingClient(
            srv.url, retries=1, sleep_fn=sleeps.append, seed=0
        )
        # /stats is idempotent; it is NOT gated by the breaker, so it
        # answers fine — the breaker only sheds ingest.
        assert client.stats()["breaker"]["state"] == "open"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            client.ingest(_make_samples(2, rng))  # write: no retry
        assert excinfo.value.code == 503
        assert excinfo.value.headers.get("Retry-After") is not None
        excinfo.value.close()


class TestServerDegradation:
    def test_open_breaker_maps_to_503_with_retry_after(self, rng):
        clock = [0.0]
        serving = _make_serving(
            rng,
            breaker=CircuitBreaker(
                failure_threshold=1, reset_after=30.0, time_fn=lambda: clock[0]
            ),
        )
        server, _thread = serve_in_background(serving)
        try:
            client = ServingClient(server.url, retries=0)
            _fail_writes(serving, times=1)
            with pytest.raises(OSError):
                serving.ingest_sparse(_make_samples(2, rng))
            assert serving.breaker.state == "open"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.ingest(_make_samples(2, rng))
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            excinfo.value.close()
            health = client.health()
            assert health["status"] == "degraded"
            assert health["breaker"] == "open"
        finally:
            server.stop(timeout=5.0)

    def test_admission_control_sheds_excess_load(self, rng):
        serving = _make_serving(rng)
        server, _thread = serve_in_background(
            serving, max_inflight=1, retry_after=3.0
        )
        try:
            # Saturate the only slot from the outside, then probe.
            assert server._admit()
            client = ServingClient(server.url, retries=0)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.stats()
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "3"
            excinfo.value.close()
            # /health bypasses admission: probes answer under overload,
            # and report the shed requests.
            health = client.health()
            assert health["status"] == "ok"
            assert health["rejected_requests"] == 1
            server._release()
            assert client.stats()["swap_count"] >= 1  # slot free again
        finally:
            server.stop(timeout=5.0)

    def test_degraded_health_over_http(self, rng, monkeypatch):
        serving = _make_serving(rng)
        server, _thread = serve_in_background(serving)
        try:
            client = ServingClient(server.url, retries=0)

            def broken(*args, **kwargs):
                raise RuntimeError("injected: hung table scan")

            monkeypatch.setattr(serving, "_refresh_locked", broken)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                client.refresh()  # explicit refresh: the caller hears it
            assert excinfo.value.code == 500
            excinfo.value.close()
            health = client.health()
            assert health["status"] == "degraded"
            assert "hung table scan" in health["last_refresh_error"]
            assert health["refresh_failures"] == 1
            # Stale reads still answer.
            assert client.pair(0, 3) == serving.query_pair(0, 3)
        finally:
            server.stop(timeout=5.0)

    def test_stop_is_bounded_and_idempotent_shutdown_still_works(self, rng):
        serving = _make_serving(rng)
        server, thread = serve_in_background(serving)
        server.stop(timeout=5.0)
        assert not thread.is_alive()

    def test_stop_returns_on_a_server_that_never_served(self, rng):
        # shutdown() waits for a serve_forever loop to exit; with none
        # ever started it would wait forever.
        server = ServingHTTPServer(_make_serving(rng).snapshot)
        stopper = threading.Thread(
            target=server.stop, kwargs={"timeout": 1.0}, daemon=True
        )
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() blocked on a never-served server"
        assert server.socket.fileno() == -1  # closed


class TestWritePriority:
    """Reads yield to in-flight writes, for at most ``READ_YIELD_SECONDS``."""

    def test_hung_writes_delay_reads_by_the_bound_only(self, rng, monkeypatch):
        serving = _make_serving(rng)
        probe = serving.query_pair(0, 3)
        bound = serving_http.READ_YIELD_SECONDS
        # Each write route blocks inside the write side until released.
        gates = {
            name: (threading.Event(), threading.Event())
            for name in ("ingest_sparse", "refresh")
        }
        for name, (entered, release) in gates.items():
            monkeypatch.setattr(
                serving, name, _hang(getattr(serving, name), entered, release)
            )
        server, _thread = serve_in_background(serving)
        conns = {name: _keep_alive(server) for name in ("ingest", "refresh", "read")}
        replies = {}

        def send(name, path, payload=None):
            replies[name] = _exchange(conns[name], "POST", path, payload)

        writers = {
            "ingest": threading.Thread(
                target=send,
                args=("ingest", "/ingest", _ingest_body(rng, 4)),
                daemon=True,
            ),
            "refresh": threading.Thread(
                target=send, args=("refresh", "/refresh"), daemon=True
            ),
        }

        def read_seconds():
            started = time.perf_counter()
            status, body = _exchange(conns["read"], "GET", "/pair?i=0&j=3")
            assert status == 200
            assert json.loads(body)["estimate"] == probe  # stale, available
            return time.perf_counter() - started

        try:
            for writer in writers.values():
                writer.start()
            for entered, _ in gates.values():
                assert entered.wait(timeout=5.0)
            # Two writes in flight: a read waits out the bound, then answers.
            assert bound * 0.9 <= read_seconds() < bound + 2.0
            for path in ("/health", "/metrics"):
                started = time.perf_counter()
                status, _ = _exchange(conns["read"], "GET", path)
                assert status == 200
                assert time.perf_counter() - started < bound, path
            # The wait is part of the route's latency series (recorded after
            # the reply, so read once the connection has moved on).
            assert server.http_stats()["latency"]["GET /pair"]["sum"] >= bound * 0.9
            # One write done, one still in flight: reads still yield.
            gates["refresh"][1].set()
            writers["refresh"].join(timeout=10.0)
            assert not writers["refresh"].is_alive()
            assert replies["refresh"][0] == 200
            assert read_seconds() >= bound * 0.9
            # The last write out lets reads through at once.
            gates["ingest_sparse"][1].set()
            writers["ingest"].join(timeout=10.0)
            assert not writers["ingest"].is_alive()
            assert replies["ingest"][0] == 200
            assert read_seconds() < bound
            # So does a write that fails: a refused batch is a 400.
            refused = {"samples": [[[0, DIM], [1.0, 2.0]]]}
            assert _exchange(conns["ingest"], "POST", "/ingest", refused)[0] == 400
            assert read_seconds() < bound
            assert server._writes_in_flight == 0
        finally:
            for _, release in gates.values():
                release.set()
            for conn in conns.values():
                conn.close()
            server.stop(timeout=5.0)

    def test_reads_and_overlapping_writes_under_contention(self, rng):
        # More threads than cores, each on its own keep-alive connection,
        # with a short switch interval to interleave the gate's updates.
        serving = _make_serving(rng)
        server, _thread = serve_in_background(serving)
        rows_before = serving.sketcher.samples_seen
        ingests = [[_ingest_body(rng, 4) for _ in range(10)] for _ in range(2)]
        reads = [
            ("GET", "/pair?i=0&j=3", None),
            ("POST", "/query", {"keys": list(range(16))}),
            ("GET", "/top?k=5", None),
        ]
        plans = [[("POST", "/ingest", body) for body in own] for own in ingests]
        plans.append([("POST", "/refresh", None)] * 8)
        plans += [reads * 10 for _ in range(4)]
        statuses, acks = [], []

        def run(plan):
            conn = _keep_alive(server)
            try:
                for method, path, payload in plan:
                    status, body = _exchange(conn, method, path, payload)
                    statuses.append(status)
                    if path == "/ingest" and status == 200:
                        acks.append(json.loads(body)["write_samples_seen"])
            finally:
                conn.close()

        threads = [threading.Thread(target=run, args=(p,), daemon=True) for p in plans]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert statuses == [200] * sum(len(plan) for plan in plans)
            assert server._writes_in_flight == 0
            rows = rows_before + sum(len(b["samples"]) for own in ingests for b in own)
            assert max(acks) == serving.sketcher.samples_seen == rows
            conn = _keep_alive(server)
            try:
                assert _exchange(conn, "POST", "/refresh")[0] == 200
                keys = np.arange(serving.sketcher.num_pairs, dtype=np.int64)
                payload = {"keys": keys.tolist()}
                status, body = _exchange(conn, "POST", "/query", payload)
            finally:
                conn.close()
            assert status == 200
            expected = SketchSnapshot.from_sketcher(serving.sketcher).query_keys(keys)
            assert serving.snapshot.samples_seen == rows
            served = json.loads(body)["estimates"]
            assert list(map(repr, served)) == list(map(repr, expected.tolist()))
        finally:
            server.stop(timeout=5.0)

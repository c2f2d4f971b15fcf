"""Tests for the observability tier (repro.obs).

Covers the metric primitives under concurrency, the Prometheus text
exposition format, span tracing, structured logging, the accuracy probe
against the theory SNR model, and the cache-stats snapshot regression.
"""

from __future__ import annotations

import io
import json
import re
import threading

import numpy as np
import pytest

from repro.obs.log import configure, get_logger
from repro.obs.metrics import MetricsRegistry, NullRegistry, render_exposition
from repro.obs.probe import AccuracyProbe
from repro.obs.tracing import Tracer
from repro.serving.cache import LRUCache
from repro.theory.snr import model_stream_snr


class TestCounterAndGauge:
    def test_counter_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        assert reg.counter("x_total", labels={"a": "1"}) is not reg.counter(
            "x_total", labels={"a": "2"}
        )

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_gauge_fn_evaluates_at_collect_time(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.gauge_fn("g", lambda: state["v"])
        state["v"] = 7.0
        assert reg.get("g").value == 7.0

    def test_gauge_fn_rebinds(self):
        reg = MetricsRegistry()
        reg.gauge_fn("g", lambda: 1.0)
        reg.gauge_fn("g", lambda: 2.0)
        assert reg.get("g").value == 2.0

    def test_gauge_fn_exception_reads_nan(self):
        reg = MetricsRegistry()
        reg.gauge_fn("g", lambda: 1 / 0)
        assert np.isnan(reg.get("g").value)


class TestHistogram:
    def test_counts_and_sum(self):
        h = MetricsRegistry().histogram("h_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        _, total, count = h.snapshot()
        assert count == 3
        assert total == pytest.approx(5.55)

    def test_percentile_interpolates_within_buckets(self):
        h = MetricsRegistry().histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        p50 = h.percentile(0.5)
        assert 1.0 <= p50 <= 2.0

    def test_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h_seconds", buckets=(1.0, 3.0))

    def test_timer_context_manager_observes(self):
        h = MetricsRegistry().histogram("h_seconds")
        with h.time():
            pass
        assert h.stats()["count"] == 1


class TestRegistryThreadHammer:
    """ISSUE acceptance: 8 writer threads, final counts exact."""

    THREADS = 8
    PER_THREAD = 10_000

    def test_counter_exact_under_contention(self):
        reg = MetricsRegistry()
        c = reg.counter("hammer_total")
        h = reg.histogram("hammer_seconds", buckets=(0.5,))
        start = threading.Barrier(self.THREADS)

        def work():
            start.wait()
            for _ in range(self.PER_THREAD):
                c.inc()
                h.observe(0.25)

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = self.THREADS * self.PER_THREAD
        assert c.value == expected
        counts, total, count = h.snapshot()
        assert count == expected
        assert counts[0] == expected
        assert total == pytest.approx(0.25 * expected)

    def test_get_or_create_race_yields_one_instrument(self):
        reg = MetricsRegistry()
        seen = []
        start = threading.Barrier(self.THREADS)

        def work():
            start.wait()
            seen.append(reg.counter("raced_total"))

        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in seen}) == 1


class TestExpositionFormat:
    def test_golden_render(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", "jobs processed", labels={"kind": "a"}).inc(3)
        reg.gauge("depth", "queue depth").set(2.5)
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert reg.render() == (
            "# HELP jobs_total jobs processed\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{kind="a"} 3\n'
            "# HELP depth queue depth\n"
            "# TYPE depth gauge\n"
            "depth 2.5\n"
            "# HELP lat_seconds latency\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 3\n'
            "lat_seconds_sum 5.55\n"
            "lat_seconds_count 3\n"
        )

    def test_every_line_is_valid_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help", labels={"x": "y"}).inc()
        reg.histogram("b_seconds", "help").observe(0.01)
        reg.gauge_fn("c", lambda: 1.0, "help")
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
            r"[^ ]+$"
        )
        text = reg.render()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            else:
                assert line_re.match(line), line

    def test_families_merge_across_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared_total", "help", labels={"src": "a"}).inc()
        b.counter("shared_total", "help", labels={"src": "b"}).inc(2)
        text = render_exposition([a, b])
        assert text.count("# TYPE shared_total counter") == 1
        assert 'shared_total{src="a"} 1' in text
        assert 'shared_total{src="b"} 2' in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", labels={"p": 'a"b\\c'}).inc()
        assert 'esc_total{p="a\\"b\\\\c"} 1' in reg.render()


class TestNullRegistry:
    def test_everything_is_a_cheap_noop(self):
        reg = NullRegistry()
        c = reg.counter("x")
        c.inc()
        assert c.value == 0
        h = reg.histogram("y")
        with h.time():
            pass
        h.observe(1.0)
        assert h.stats()["count"] == 0
        g = reg.gauge_fn("z", lambda: 1 / 0)
        g.set(3.0)
        assert reg.instruments() == []


class TestTracer:
    def test_span_tree_nesting(self):
        tracer = Tracer(slow_threshold=0.0)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                child.note(rows=3)
        assert root.duration >= 0
        tree = root.to_dict()
        assert tree["name"] == "root"
        assert tree["children"][0]["name"] == "child"
        assert tree["children"][0]["fields"] == {"rows": 3}

    def test_slow_ring_captures_and_bounds(self):
        tracer = Tracer(slow_threshold=0.0, ring=2)
        for i in range(5):
            with tracer.span(f"op{i}"):
                pass
        slow = tracer.slow_traces()
        assert len(slow) == 2
        assert [t["name"] for t in slow] == ["op3", "op4"]

    def test_fast_spans_not_retained(self):
        tracer = Tracer(slow_threshold=10.0)
        with tracer.span("quick"):
            pass
        assert tracer.slow_traces() == []
        assert tracer.stats()["traces_started"] == 1
        assert tracer.stats()["traces_slow"] == 0

    def test_decorator(self):
        tracer = Tracer(slow_threshold=0.0)

        @tracer.trace("fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        assert tracer.slow_traces()[0]["name"] == "fn"


class TestStructuredLog:
    def test_event_renders_one_json_line(self):
        stream = io.StringIO()
        configure(level="info", stream=stream, logger_name="repro.obstest")
        log = get_logger("obstest.unit")
        log.event("wal.rotate", segment="wal-1", seconds=0.5)
        payload = json.loads(stream.getvalue().strip())
        assert payload["event"] == "wal.rotate"
        assert payload["segment"] == "wal-1"
        assert payload["seconds"] == 0.5
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.obstest.unit"

    def test_silenced_by_default(self, capsys):
        get_logger("obstest.silent").event("noisy", level="info")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_configure_is_idempotent(self):
        import logging

        s1, s2 = io.StringIO(), io.StringIO()
        configure(level="info", stream=s1, logger_name="repro.obstest2")
        configure(level="info", stream=s2, logger_name="repro.obstest2")
        handlers = [
            h
            for h in logging.getLogger("repro.obstest2").handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(handlers) == 1
        get_logger("obstest2").event("once")
        assert s1.getvalue() == "" and s2.getvalue() != ""

    def test_non_serialisable_fields_reprd(self):
        stream = io.StringIO()
        configure(level="info", stream=stream, logger_name="repro.obstest3")
        get_logger("obstest3").event("ev", arr=np.arange(2))
        payload = json.loads(stream.getvalue().strip())
        assert "array" in payload["arr"]


class TestModelStreamSnr:
    def test_formula(self):
        # alpha*(u^2+sigma^2) / ((1-alpha)*sigma^2)
        assert model_stream_snr(0.5, 2.0, 1.0) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            model_stream_snr(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            model_stream_snr(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            model_stream_snr(0.5, 1.0, 0.0)


class TestAccuracyProbe:
    def _drive_model_stream(self, probe, alpha, u, sigma, n, seed=7):
        """Feed the observer hook the paper's product-stream model: each
        update is a signal key w.p. alpha with value N(u, sigma^2), else a
        noise key with value N(0, sigma^2)."""
        rng = np.random.default_rng(seed)
        signal = probe._signal_keys
        for t in range(1, n + 1):
            if rng.random() < alpha:
                key = int(rng.choice(signal))
                value = u + sigma * rng.standard_normal()
            else:
                key = int(rng.integers(1000, 100_000))
                value = sigma * rng.standard_normal()
            probe(
                t,
                np.array([key], dtype=np.int64),
                np.array([value]),
                np.array([True]),
            )

    def test_rosnr_gauge_tracks_theory(self):
        """ISSUE acceptance: the ROSNR gauge reads ~1 when the observed
        stream matches the theory model it is baselined against."""
        alpha, u, sigma = 0.05, 5.0, 1.0
        theory = model_stream_snr(alpha, u, sigma)
        probe = AccuracyProbe(
            np.arange(8, dtype=np.int64),
            window=50_000,
            baseline_snr=theory,
            seed=3,
        )
        self._drive_model_stream(probe, alpha, u, sigma, 40_000)
        probe.flush()
        snr = probe.snr_gauge.value
        rosnr = probe.rosnr_gauge.value
        assert snr == pytest.approx(theory, rel=0.15)
        assert rosnr == pytest.approx(1.0, rel=0.15)
        assert probe.windows_counter.value >= 1

    def test_relative_baseline_from_first_window(self):
        probe = AccuracyProbe(np.array([1]), window=10, baseline_snr=None)
        for t in range(1, 21):
            probe(
                t,
                np.array([1, 500 + t], dtype=np.int64),
                np.array([3.0, 1.0]),
                np.array([True, True]),
            )
        # Both windows identical, so relative ROSNR reads exactly 1.
        assert probe.windows_counter.value == 2
        assert probe.rosnr_gauge.value == pytest.approx(1.0)

    def test_reservoir_holds_noise_keys_only(self):
        probe = AccuracyProbe(np.array([1, 2]), reservoir=16)
        for t in range(1, 101):
            probe(
                t,
                np.array([1, 100 + t], dtype=np.int64),
                np.array([1.0, 1.0]),
                np.array([True, True]),
            )
        noise = probe.noise_keys
        assert 0 < noise.size <= 16
        assert not set(noise.tolist()) & {1, 2}

    def test_sentinels_exclude_signal_keys(self):
        probe = AccuracyProbe(
            np.arange(10, dtype=np.int64),
            collision_probes=32,
            key_space=1000,
        )
        sentinels = probe.sentinel_keys
        assert sentinels.size == 32
        assert not set(sentinels.tolist()) & set(range(10))

    def test_sample_refreshes_read_side_gauges(self):
        probe = AccuracyProbe(
            np.array([1, 2], dtype=np.int64),
            collision_probes=8,
            key_space=100,
        )
        for t in range(1, 31):
            probe(
                t,
                np.array([1, 40 + t], dtype=np.int64),
                np.array([5.0, 1.0]),
                np.array([True, True]),
            )
        est = {1: 5.0, 2: 5.0}
        out = probe.sample(
            lambda keys: np.array([est.get(int(k), 0.1) for k in keys])
        )
        assert out["estimate_snr"] > 1.0
        assert out["collision_energy"] == pytest.approx(0.01)
        assert probe.samples_counter.value == 1

    def test_topk_churn(self):
        probe = AccuracyProbe(np.array([1]), topk=4)
        query = lambda keys: np.ones(len(keys))
        first = probe.sample(query, top_keys=np.array([1, 2, 3, 4]))
        assert "topk_churn" not in first  # no previous set yet
        second = probe.sample(query, top_keys=np.array([3, 4, 5, 6]))
        # union 6, kept 2 -> churn 1 - 2/6
        assert second["topk_churn"] == pytest.approx(1.0 - 2.0 / 6.0)
        third = probe.sample(query, top_keys=np.array([3, 4, 5, 6]))
        assert third["topk_churn"] == 0.0


class TestCacheStatsSnapshot:
    """Regression: stats() must be one consistent point-in-time snapshot
    taken under the cache lock, never a torn read across counters."""

    def test_snapshot_consistent_under_concurrent_mutation(self):
        cache = LRUCache(capacity=64)
        stop = threading.Event()
        GETS_PER_WORKER = 30_000

        def churn(seed):
            rng = np.random.default_rng(seed)
            for _ in range(GETS_PER_WORKER):
                key = int(rng.integers(0, 256))
                if cache.get(key) is None:
                    cache.put(key, float(key))

        workers = [
            threading.Thread(target=churn, args=(seed,)) for seed in range(4)
        ]
        snapshots = []

        def poll():
            while not stop.is_set():
                snapshots.append(cache.stats())

        poller = threading.Thread(target=poll)
        poller.start()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stop.set()
        poller.join()
        final = cache.stats()
        # Every get is exactly one hit or one miss.
        assert final.hits + final.misses == 4 * GETS_PER_WORKER
        assert final.size <= final.capacity
        for snap in snapshots:
            assert snap.size <= snap.capacity
            assert 0.0 <= snap.hit_rate <= 1.0
        # Counters are monotone across successive snapshots.
        for prev, cur in zip(snapshots, snapshots[1:]):
            assert cur.hits >= prev.hits
            assert cur.misses >= prev.misses
            assert cur.evictions >= prev.evictions

    def test_stats_as_dict_round_trip(self):
        cache = LRUCache(capacity=2)
        cache.put(1, 1.0)
        cache.get(1)
        cache.get(2)
        d = cache.stats().as_dict()
        assert d == {
            "capacity": 2,
            "size": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
        }

"""Tests for repro.serving.engine and the LRU result cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.hashing.pairs import pair_to_index
from repro.serving import LRUCache, QueryEngine, SketchSnapshot
from repro.sketch.count_sketch import CountSketch

DIM = 50


@pytest.fixture
def snapshot(rng):
    estimator = SketchEstimator(
        CountSketch(3, 1024, seed=21), total_samples=150, track_top=128
    )
    sketcher = CovarianceSketcher(DIM, estimator, mode="covariance", batch_size=16)
    samples = [
        (
            np.sort(rng.choice(DIM, size=5, replace=False)).astype(np.int64),
            rng.standard_normal(5),
        )
        for _ in range(150)
    ]
    sketcher.fit_sparse(iter(samples))
    return SketchSnapshot.from_sketcher(sketcher, top_index=64)


class TestLRUCache:
    def test_eviction_at_capacity(self):
        cache = LRUCache(3)
        for key in (1, 2, 3):
            cache.put(key, float(key))
        cache.get(1)  # 1 becomes most-recent; 2 is now LRU
        cache.put(4, 4.0)  # evicts 2
        assert 2 not in cache
        assert all(k in cache for k in (1, 3, 4))
        assert len(cache) == 3
        assert cache.evictions == 1

    def test_put_refresh_does_not_evict(self):
        cache = LRUCache(2)
        cache.put(1, 1.0)
        cache.put(2, 2.0)
        cache.put(1, 1.5)  # refresh, not insert
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get(1) == 1.5

    def test_stats_counters(self):
        cache = LRUCache(2)
        assert cache.get(9) is None
        cache.put(9, 0.25)
        assert cache.get(9) == 0.25
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        assert stats.as_dict()["capacity"] == 2

    def test_get_many_put_many_match_singles(self):
        batched, singles = LRUCache(4), LRUCache(4)
        items = [(1, 1.0), (2, 2.0), (3, 3.0)]
        batched.put_many(items)
        for key, value in items:
            singles.put(key, value)
        probe = [1, 9, 3]
        assert batched.get_many(probe) == [singles.get(k) for k in probe]
        assert batched.stats() == singles.stats()
        # Eviction parity at capacity through the batched path.
        batched.put_many([(4, 4.0), (5, 5.0)])
        for key, value in [(4, 4.0), (5, 5.0)]:
            singles.put(key, value)
        assert batched.stats().evictions == singles.stats().evictions
        assert len(batched) == len(singles) == 4

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put(1, 1.0)
        assert cache.get(1) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestCacheCorrectness:
    """Cached and uncached answers must be bit-identical."""

    def test_cached_vs_uncached_bit_identity(self, snapshot, rng):
        cached = QueryEngine(snapshot, cache_size=4096, cache_batch_limit=None)
        uncached = QueryEngine(snapshot, cache_size=0)
        keys = rng.integers(0, snapshot.num_pairs, size=500)
        first = cached.query_keys(keys)
        second = cached.query_keys(keys)  # all hits
        raw = uncached.query_keys(keys)
        np.testing.assert_array_equal(first, raw)
        np.testing.assert_array_equal(second, raw)
        assert cached.cache.stats().hits >= keys.size

    def test_identity_across_eviction_churn(self, snapshot, rng):
        # Tiny cache + unlimited batch caching: constant eviction churn.
        engine = QueryEngine(snapshot, cache_size=32, cache_batch_limit=None)
        reference = QueryEngine(snapshot, cache_size=0)
        for _ in range(10):
            keys = rng.integers(0, snapshot.num_pairs, size=100)
            np.testing.assert_array_equal(
                engine.query_keys(keys), reference.query_keys(keys)
            )
        assert engine.cache.stats().evictions > 0
        assert len(engine.cache) <= 32

    def test_scalar_matches_vector_path(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=64)
        i, j = 3, 17
        scalar = engine.query_pair(i, j)
        vector = engine.query_pairs(np.asarray([i]), np.asarray([j]))[0]
        direct = snapshot.query_keys(
            pair_to_index(np.asarray([i]), np.asarray([j]), DIM)
        )[0]
        assert scalar == vector == direct

    def test_scalar_validates_pair(self, snapshot):
        engine = QueryEngine(snapshot)
        with pytest.raises(ValueError):
            engine.query_pair(5, 5)
        with pytest.raises(ValueError):
            engine.query_pair(3, DIM)


class TestSingleGatherPlanner:
    def test_duplicate_keys_one_gather(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=1024)
        keys = np.asarray([7, 7, 9, 7, 9, 11], dtype=np.int64)
        values = engine.query_keys(keys)
        assert engine.gathers == 1
        assert engine.gathered_keys == 3  # deduplicated misses
        assert values[0] == values[1] == values[3]
        np.testing.assert_array_equal(
            values, QueryEngine(snapshot, cache_size=0).query_keys(keys)
        )

    def test_warm_batch_issues_no_gather(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=1024)
        keys = np.arange(50, dtype=np.int64)
        engine.query_keys(keys)
        gathers_before = engine.gathers
        engine.query_keys(keys)
        assert engine.gathers == gathers_before

    def test_query_batches_single_gather(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=1024)
        batches = [
            np.arange(0, 20, dtype=np.int64),
            np.arange(10, 40, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        ]
        answers = engine.query_batches(batches)
        assert engine.gathers == 1
        assert [a.size for a in answers] == [20, 30, 0]
        reference = QueryEngine(snapshot, cache_size=0)
        for batch, answer in zip(batches, answers):
            np.testing.assert_array_equal(answer, reference.query_keys(batch))

    def test_empty_inputs(self, snapshot):
        engine = QueryEngine(snapshot)
        assert engine.query_keys(np.empty(0, dtype=np.int64)).size == 0
        assert engine.query_batches([]) == []

    def test_large_batches_bypass_cache(self, snapshot, rng):
        engine = QueryEngine(snapshot, cache_size=4096, cache_batch_limit=64)
        keys = rng.integers(0, snapshot.num_pairs, size=500)
        values = engine.query_keys(keys)  # over the limit: straight gather
        assert len(engine.cache) == 0
        assert engine.cache.stats().misses == 0
        np.testing.assert_array_equal(
            values, QueryEngine(snapshot, cache_size=0).query_keys(keys)
        )
        engine.query_keys(keys[:10])  # under the limit: cached as usual
        assert len(engine.cache) > 0


class TestIndexBackedQueries:
    def test_top_pairs_and_neighbors_delegate(self, snapshot):
        engine = QueryEngine(snapshot)
        i, j, est = engine.top_pairs(5)
        np.testing.assert_array_equal(est, snapshot.top_pairs(5)[2])
        feature = int(snapshot.index_i[0])
        partners, nbr_est = engine.top_neighbors(feature, 3)
        np.testing.assert_array_equal(
            nbr_est, snapshot.top_neighbors(feature, 3)[1]
        )

    def test_stats_shape(self, snapshot):
        engine = QueryEngine(snapshot, cache_size=16)
        engine.query_keys(np.arange(4, dtype=np.int64))
        engine.top_pairs(3)
        stats = engine.stats()
        assert stats["queries"] == 2
        assert stats["cache"]["capacity"] == 16
        assert stats["snapshot"]["snapshot_id"] == snapshot.snapshot_id

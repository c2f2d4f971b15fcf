"""Merge-law tests for sharded ingestion (repro.distributed + sketch merges).

Property-based (seeded randomized) laws:

* CS counter merge — for random streams split into 1..8 shards, the
  merged sketch answers queries **bit-for-bit** like the unsharded sketch.
  Values are integer-valued floats so every partial sum is exactly
  representable: float addition is then associative over the regrouping a
  merge performs, turning "equal up to summation order" into exact
  equality.  A float-valued variant checks the regrouping error stays at
  the ulp level.
* Top-k tracker merge — union + one re-query against the merged sketch.
* Moments merge — exact accumulator sums.
* ASCS end-to-end — merged top-k retrieval F1 stays within a stated
  tolerance of the unsharded run (the selection of accepted updates is
  shard-local, so this law is approximate by design; see
  repro/distributed/reduce.py).

Plus the satellite negative tests: every sketch class raises a clear
``ValueError`` when merged across different seeds/families/shapes.
"""

import numpy as np
import pytest

from repro.core.schedule import ThresholdSchedule
from repro.covariance.running import SparseMoments
from repro.distributed import fit_sparse_sharded, merge_shard_results, sketch_shard
from repro.distributed.shard import ShardSpec, extract_shard_result
from repro.sketch.augmented import AugmentedSketch
from repro.sketch.count_sketch import CountSketch
from repro.sketch.topk import TopKTracker


def _integer_stream(rng, n, key_space=10**9, lo=-50, hi=50):
    """Random keys with integer-valued float64 values (exact summation)."""
    keys = rng.integers(0, key_space, size=n).astype(np.int64)
    values = rng.integers(lo, hi, size=n).astype(np.float64)
    return keys, values


def _split(arrays, num_shards, rng):
    """Split parallel arrays into ``num_shards`` contiguous random slices."""
    n = arrays[0].size
    cuts = (
        np.sort(rng.integers(0, n + 1, size=num_shards - 1)) if num_shards > 1 else []
    )
    bounds = [0, *map(int, cuts), n]
    return [
        tuple(a[bounds[i] : bounds[i + 1]] for a in arrays)
        for i in range(num_shards)
    ]


class TestCountSketchMergeLaw:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
    def test_merged_queries_bit_identical(self, num_shards):
        rng = np.random.default_rng(100 + num_shards)
        keys, values = _integer_stream(rng, 4000)
        reference = CountSketch(5, 512, seed=11)
        reference.insert(keys, values)

        merged = None
        for shard_keys, shard_values in _split((keys, values), num_shards, rng):
            worker = CountSketch(5, 512, seed=11)
            worker.insert(shard_keys, shard_values)
            merged = worker if merged is None else merged.merge(worker)

        probe = rng.integers(0, 10**9, size=1000).astype(np.int64)
        np.testing.assert_array_equal(merged.table, reference.table)
        np.testing.assert_array_equal(merged.query(probe), reference.query(probe))
        np.testing.assert_array_equal(merged.query(keys), reference.query(keys))

    @pytest.mark.parametrize("trial", range(5))
    def test_merged_queries_bit_identical_random_trials(self, trial):
        rng = np.random.default_rng(9000 + trial)
        num_shards = int(rng.integers(1, 9))
        keys, values = _integer_stream(rng, int(rng.integers(100, 3000)))
        reference = CountSketch(3, 256, seed=trial)
        reference.insert(keys, values)
        merged = None
        for shard_keys, shard_values in _split((keys, values), num_shards, rng):
            worker = CountSketch(3, 256, seed=trial)
            worker.insert(shard_keys, shard_values)
            merged = worker if merged is None else merged.merge(worker)
        np.testing.assert_array_equal(merged.query(keys), reference.query(keys))

    def test_float_values_merge_at_ulp_level(self, rng):
        keys = rng.integers(0, 10**9, size=4000).astype(np.int64)
        values = rng.standard_normal(4000)
        reference = CountSketch(5, 512, seed=11)
        reference.insert(keys, values)
        merged = None
        for shard_keys, shard_values in _split((keys, values), 4, rng):
            worker = CountSketch(5, 512, seed=11)
            worker.insert(shard_keys, shard_values)
            merged = worker if merged is None else merged.merge(worker)
        np.testing.assert_allclose(
            merged.table, reference.table, rtol=1e-12, atol=1e-12
        )


class TestTrackerMergeLaw:
    def test_union_requery_against_merged_sketch(self, rng):
        sketch = CountSketch(5, 4096, seed=3)
        keys = np.arange(600, dtype=np.int64)
        sketch.insert(keys, np.linspace(1.0, 60.0, keys.size))

        left, right = TopKTracker(50), TopKTracker(50)
        left.offer(keys[:400], rng.standard_normal(400))  # stale shard estimates
        right.offer(keys[250:], rng.standard_normal(350))
        # The law operates on the *current* pools (already pruned under
        # their stale shard-local estimates).
        union = np.unique(
            np.concatenate([left.candidates(), right.candidates()])
        )
        left.merge(right, sketch=sketch)

        merged_keys, merged_ests = left.top_k(50)
        # The law: pool = union of candidates ranked by the *merged* sketch.
        expect = TopKTracker(50)
        expect.offer(union, sketch.query(union))
        expect_keys, expect_ests = expect.top_k(50)
        np.testing.assert_array_equal(np.sort(merged_keys), np.sort(expect_keys))
        np.testing.assert_allclose(np.sort(merged_ests), np.sort(expect_ests))

    def test_merge_without_sketch_keeps_other_latest(self):
        left, right = TopKTracker(10), TopKTracker(10)
        left.offer(np.array([1, 2]), np.array([5.0, 1.0]))
        right.offer(np.array([2, 3]), np.array([9.0, 2.0]))
        left.merge(right)
        keys, ests = left.top_k(10)
        assert dict(zip(keys.tolist(), ests.tolist())) == {1: 5.0, 2: 9.0, 3: 2.0}

    def test_sidedness_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sidedness"):
            TopKTracker(4).merge(TopKTracker(4, two_sided=True))


class TestMomentsMergeLaw:
    @pytest.mark.parametrize("num_shards", [1, 3, 8])
    def test_sparse_moments_merge_exact(self, num_shards, rng):
        dim = 200
        idx = rng.integers(0, dim, size=5000).astype(np.int64)
        val = rng.integers(-30, 30, size=5000).astype(np.float64)
        reference = SparseMoments(dim)
        reference.update_batch(idx, val, num_samples=500)

        merged = SparseMoments(dim)
        per_shard = _split((idx, val), num_shards, rng)
        for k, (si, sv) in enumerate(per_shard):
            shard = SparseMoments(dim)
            extra = (k == 0) * (500 % num_shards)
            shard.update_batch(si, sv, num_samples=500 // num_shards + extra)
            merged.merge(shard)
        assert merged.count == reference.count
        np.testing.assert_array_equal(merged._sum, reference._sum)
        np.testing.assert_array_equal(merged._sumsq, reference._sumsq)
        np.testing.assert_array_equal(merged.std(floor=1e-6), reference.std(floor=1e-6))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mergeable"):
            SparseMoments(4).merge(SparseMoments(5))


class TestDenseShards:
    """Dense rows are full-width samples: shards of them merge like any."""

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_dense_shards_merge_to_one_dense_fit(self, num_shards, rng):
        spec = ShardSpec(
            dim=30,
            total_samples=256,
            num_tables=3,
            num_buckets=256,
            seed=4,
            batch_size=16,
            track_top=32,
        )
        rows = rng.integers(-5, 6, size=(256, 30)).astype(np.float64)
        bounds = np.linspace(0, 256, num_shards + 1).astype(int)
        results = [
            extract_shard_result(
                spec.build_sketcher().fit_dense(rows[lo:hi]),
                spec,
                shard_index=k,
                num_shards=num_shards,
                start=int(lo),
            )
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]
        merged = merge_shard_results(results)
        whole = spec.build_sketcher().fit_dense(rows)
        assert merged.samples_seen == whole.samples_seen == 256
        np.testing.assert_array_equal(
            merged.estimator.sketch.table, whole.estimator.sketch.table
        )
        np.testing.assert_array_equal(
            merged.sparse_moments._sum, whole.sparse_moments._sum
        )
        np.testing.assert_array_equal(
            merged.sparse_moments._sumsq, whole.sparse_moments._sumsq
        )


def _sparse_block_stream(n, dim, rng, signal_pairs=6, rho=12.0):
    """Sparse samples with planted co-occurring heavy pairs.

    Features ``(2k, 2k+1)`` for ``k < signal_pairs`` fire together with a
    large shared value; the rest is background noise — giving the top-k
    retrieval an unambiguous ground truth.
    """
    samples = []
    for _ in range(n):
        idx = np.sort(rng.choice(dim, size=10, replace=False)).astype(np.int64)
        val = rng.standard_normal(10)
        k = int(rng.integers(0, signal_pairs))
        shared = rho * (1.0 + 0.1 * rng.standard_normal())
        sig_idx = np.array([2 * k, 2 * k + 1], dtype=np.int64)
        idx = np.concatenate([sig_idx, idx[idx >= 2 * signal_pairs]])
        val = np.concatenate([np.array([shared, shared]), val[: idx.size - 2]])
        order = np.argsort(idx)
        samples.append((idx[order], val[order]))
    return samples


class TestASCSShardedRetrieval:
    """Merged ASCS top-k retrieval vs the unsharded run (stated tolerance)."""

    TOLERANCE_F1 = 0.8

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_merged_f1_within_tolerance(self, num_shards):
        rng = np.random.default_rng(77)
        dim, n, k = 120, 960, 6
        samples = _sparse_block_stream(n, dim, rng, signal_pairs=k)
        schedule = ThresholdSchedule(
            exploration_length=n // 8, tau0=1e-4, theta=1e-3, total_samples=n
        )
        common = dict(
            method="ascs",
            schedule=schedule,
            num_tables=5,
            num_buckets=2048,
            seed=13,
            track_top=64,
            batch_size=32,
            mode="covariance",
        )
        reference = fit_sparse_sharded(samples, dim, backend="serial", **common)
        ref_i, ref_j, _ = reference.top_pairs(k, scan=False)

        spec = reference.spec
        results = []
        bounds = np.linspace(0, n, num_shards + 1).astype(int)
        for w in range(num_shards):
            results.append(
                sketch_shard(
                    spec,
                    samples[bounds[w] : bounds[w + 1]],
                    shard_index=w,
                    num_shards=num_shards,
                    start=int(bounds[w]),
                )
            )
        merged = merge_shard_results(results)
        mi, mj, _ = merged.top_pairs(k, scan=False)

        ref_set = set(zip(ref_i.tolist(), ref_j.tolist()))
        merged_set = set(zip(mi.tolist(), mj.tolist()))
        f1 = 2 * len(ref_set & merged_set) / (len(ref_set) + len(merged_set))
        assert f1 >= self.TOLERANCE_F1, (ref_set, merged_set)

    def test_merged_sampler_state_rederived_from_totals(self):
        rng = np.random.default_rng(5)
        dim, n = 60, 320
        samples = _sparse_block_stream(n, dim, rng, signal_pairs=3)
        schedule = ThresholdSchedule(
            exploration_length=64, tau0=1e-4, theta=1e-3, total_samples=n
        )
        spec = ShardSpec(
            dim=dim,
            total_samples=n,
            method="ascs",
            num_tables=3,
            num_buckets=512,
            seed=1,
            schedule=(64, 1e-4, 1e-3, n),
        )
        halves = [
            sketch_shard(spec, samples[:160], shard_index=0, num_shards=2, start=0),
            sketch_shard(spec, samples[160:], shard_index=1, num_shards=2, start=160),
        ]
        merged = merge_shard_results(halves)
        est = merged.estimator
        assert est.samples_seen == n
        assert est.updates_examined == sum(h.updates_examined for h in halves)
        assert est.updates_accepted == sum(h.updates_accepted for h in halves)
        # Threshold position re-derived from the total ingested count.
        assert est.current_threshold == pytest.approx(schedule.threshold(n))
        assert not est.in_exploration


class TestMergeCompatibility:
    """Satellite: mismatched seeds/shapes raise clear ValueErrors."""

    def test_count_sketch_mismatches(self):
        base = CountSketch(3, 128, seed=1)
        for other in (
            CountSketch(4, 128, seed=1),
            CountSketch(3, 256, seed=1),
            CountSketch(3, 128, seed=2),
        ):
            with pytest.raises(ValueError, match="mergeable"):
                base.merge(other)

    def test_count_sketch_dtype_mismatch(self):
        base = CountSketch(3, 128, seed=1)
        with pytest.raises(ValueError, match="dtype"):
            base.merge(CountSketch(3, 128, seed=1, dtype=np.float32))

    def test_count_sketch_cross_class(self):
        with pytest.raises(ValueError, match="mergeable"):
            CountSketch(3, 128, seed=1).merge(AugmentedSketch(3, 128, seed=1))

    def test_augmented_mismatches(self):
        base = AugmentedSketch(3, 128, seed=1, filter_capacity=8)
        with pytest.raises(ValueError, match="mergeable"):
            base.merge(AugmentedSketch(3, 128, seed=1, filter_capacity=16))
        with pytest.raises(ValueError, match="mergeable"):
            base.merge(AugmentedSketch(3, 128, seed=2, filter_capacity=8))
        with pytest.raises(ValueError, match="mergeable"):
            base.merge(AugmentedSketch(3, 256, seed=1, filter_capacity=8))

    def test_augmented_merge_combines_state(self):
        left = AugmentedSketch(3, 512, seed=1, filter_capacity=2)
        right = AugmentedSketch(3, 512, seed=1, filter_capacity=2)
        # Seed the exact filters directly: filter entries are exact mass
        # *excluded* from the backing sketch.
        left._filter = {10: 5.0}
        right._filter = {10: 3.0, 20: 2.0}
        right.sketch.insert(
            np.array([30], dtype=np.int64), np.array([7.0], dtype=np.float64)
        )
        left.merge(right)
        # Key 10 stays exact (masses add); 20 fills the free slot; 30 stays
        # sketched — and the merged structure answers all three.
        assert left._filter == {10: 8.0, 20: 2.0}
        queries = left.query(np.array([10, 20, 30], dtype=np.int64))
        np.testing.assert_allclose(queries, [8.0, 2.0, 7.0])

    def test_augmented_merge_promotes_sketched_mass_of_adopted_key(self):
        """Regression: adopting a key from other's filter must pull the
        destination's sketched mass for that key into the exact slot —
        queries return filter values verbatim, so mass left in the sketch
        would become invisible."""
        left = AugmentedSketch(3, 512, seed=1, filter_capacity=2)
        right = AugmentedSketch(3, 512, seed=1, filter_capacity=2)
        left.sketch.insert(
            np.array([20], dtype=np.int64), np.array([4.0], dtype=np.float64)
        )
        right._filter = {20: 2.0}
        left.merge(right)
        assert left.query_single(20) == pytest.approx(6.0)

    def test_augmented_merge_spills_overflowing_filter_to_sketch(self):
        left = AugmentedSketch(3, 512, seed=1, filter_capacity=1)
        right = AugmentedSketch(3, 512, seed=1, filter_capacity=1)
        left._filter = {10: 5.0}
        right._filter = {20: 2.0}
        left.merge(right)
        # No slot free for key 20: its exact mass demotes into the sketch.
        assert left._filter == {10: 5.0}
        np.testing.assert_allclose(
            left.query(np.array([10, 20], dtype=np.int64)), [5.0, 2.0]
        )

    def test_shard_result_spec_mismatch(self, rng):
        samples = [
            (np.array([1, 4], dtype=np.int64), np.array([1.0, 2.0]))
            for _ in range(8)
        ]
        a = sketch_shard(
            ShardSpec(dim=10, total_samples=8, num_tables=3, num_buckets=64, seed=1),
            samples,
            shard_index=0,
        )
        b = sketch_shard(
            ShardSpec(dim=10, total_samples=8, num_tables=3, num_buckets=64, seed=2),
            samples,
            shard_index=1,
        )
        with pytest.raises(ValueError, match="seed"):
            merge_shard_results([a, b])

    def test_duplicate_shard_indices_rejected(self):
        spec = ShardSpec(dim=10, total_samples=4, num_tables=3, num_buckets=64)
        samples = [(np.array([1, 2], dtype=np.int64), np.array([1.0, 1.0]))] * 4
        a = sketch_shard(spec, samples, shard_index=0)
        b = sketch_shard(spec, samples, shard_index=0)
        with pytest.raises(ValueError, match="duplicate"):
            merge_shard_results([a, b])

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError, match="zero shard"):
            merge_shard_results([])

    @pytest.mark.parametrize("second_start", [40, 20])  # gap / overlap
    def test_noncontiguous_coverage_rejected(self, second_start):
        spec = ShardSpec(dim=10, total_samples=64, num_tables=3, num_buckets=64)
        samples = [(np.array([1, 2], dtype=np.int64), np.array([1.0, 1.0]))] * 32
        a = sketch_shard(spec, samples, shard_index=0, num_shards=2, start=0)
        b = sketch_shard(
            spec, samples, shard_index=1, num_shards=2, start=second_start
        )
        with pytest.raises(ValueError, match="tile the stream"):
            merge_shard_results([a, b])

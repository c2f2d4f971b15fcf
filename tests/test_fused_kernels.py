"""Equivalence tests: fused kernels vs. the legacy per-table/per-sample
reference implementations (repro.reference).

The fused layer promises *bit-identical* results for identical seeds, so
every assertion here is exact equality — no tolerances.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ascs import ActiveSamplingCountSketch
from repro.core.estimator import SketchEstimator
from repro.core.schedule import ThresholdSchedule
from repro.covariance.updates import sparse_batch_pairs, sparse_sample_pairs
from repro.hashing.families import MultiplyShiftHash, MultiTableHasher, SignHash
from repro.hashing.pairs import MAX_DIMENSION, pair_to_index
from repro.reference import (
    LegacyCountSketch,
    LegacyTopKTracker,
    legacy_sparse_batch_pairs,
)
from repro.sketch.base import ValueSketch, scatter_add_flat
from repro.sketch.count_sketch import CountSketch
from repro.sketch.hierarchical import HierarchicalCountSketch
from repro.sketch.kernels import available_backends, numba_available
from repro.sketch.kernels.numpy_ref import apply_sign, median
from repro.sketch.topk import TopKTracker

needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba is not importable"
)


@pytest.fixture(params=available_backends())
def kernel_leg(request, pin_kernels):
    """Repeat the dependent test on every importable kernel implementation.

    The sketches the test builds run on the pinned kernels.  Locally this
    may collapse to the numpy path alone; the numba leg runs both.
    """
    pin_kernels(request.param)
    return request.param


def _key_batches(rng, num_batches=4):
    """Mixed batches: empty, tiny (add.at path), large (bincount path)."""
    batches = [
        (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)),
        (rng.integers(0, 10**12, size=7), rng.standard_normal(7)),
        (rng.integers(0, 10**12, size=300), rng.standard_normal(300)),
        (rng.integers(0, 10**12, size=9000), rng.standard_normal(9000)),
    ]
    return batches[:num_batches]


# ----------------------------------------------------------------------
# Hash layer
# ----------------------------------------------------------------------
class TestMultiTableHasher:
    """Row ``j`` of the fused ``(2K, n)`` broadcast is table ``j``'s own
    :class:`MultiplyShiftHash` and :class:`SignHash`, bit for bit, and a
    ``select``ed hasher's rows are the selected tables'."""

    @pytest.mark.parametrize("num_buckets", [1024, 1000])  # pow2 and not
    @pytest.mark.parametrize(
        "num_tables, rows", [(1, None), (3, None), (5, [4, 1, 2])]
    )
    def test_rows_match_per_table_hashes(self, num_tables, rows, num_buckets, rng):
        seeds, sign_seeds = [11, 22, 33, 44, 55], [9, 8, 7, 6, 5]
        hasher = MultiTableHasher(
            num_buckets, seeds[:num_tables], sign_seeds[:num_tables]
        )
        if rows is None:
            rows = range(num_tables)
        else:
            hasher = hasher.select(rows)
        keys = rng.integers(-(2**63), 2**63 - 1, size=500, dtype=np.int64)
        buckets, bits = hasher.bucket_sign_u64(keys)
        assert buckets.shape == bits.shape == (len(rows), keys.size)
        for j, e in enumerate(rows):
            bucket_hash = MultiplyShiftHash(num_buckets, seeds[e])
            np.testing.assert_array_equal(buckets[j].view(np.int64), bucket_hash(keys))
            np.testing.assert_array_equal(
                np.where(bits[j], -1.0, 1.0), SignHash(sign_seeds[e])(keys)
            )


# ----------------------------------------------------------------------
# Sketch layer
# ----------------------------------------------------------------------
class TestCountSketchEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("num_tables", [1, 5])
    def test_insert_query_bit_identical(self, dtype, num_tables, kernel_leg, rng):
        fused = CountSketch(num_tables, 2048, seed=7, dtype=dtype)
        legacy = LegacyCountSketch(num_tables, 2048, seed=7, dtype=dtype)
        for keys, values in _key_batches(rng):
            fused.insert(keys, values)
            legacy.insert(keys, values)
        np.testing.assert_array_equal(fused.table, legacy.table)
        probe = rng.integers(0, 10**12, size=777).astype(np.int64)
        np.testing.assert_array_equal(fused.query(probe), legacy.query(probe))
        np.testing.assert_array_equal(
            fused.query_per_table(probe), legacy.query_per_table(probe)
        )

    @pytest.mark.parametrize("num_tables", [2, 4])
    def test_even_table_counts_match(self, num_tables, rng):
        # Even K exercises the np.median fallback (mean of two middles).
        fused = CountSketch(num_tables, 512, seed=3)
        legacy = LegacyCountSketch(num_tables, 512, seed=3)
        keys = rng.integers(0, 10**9, size=4000)
        values = rng.standard_normal(4000)
        fused.insert(keys, values)
        legacy.insert(keys, values)
        np.testing.assert_array_equal(fused.table, legacy.table)
        np.testing.assert_array_equal(fused.query(keys[:100]), legacy.query(keys[:100]))

    def test_non_power_of_two_buckets(self, kernel_leg, rng):
        fused = CountSketch(3, 1000, seed=5)
        legacy = LegacyCountSketch(3, 1000, seed=5)
        keys = rng.integers(0, 10**12, size=5000)
        values = rng.standard_normal(5000)
        fused.insert(keys, values)
        legacy.insert(keys, values)
        np.testing.assert_array_equal(fused.table, legacy.table)

    def test_cached_keys_bit_identical(self, kernel_leg, rng):
        keys = np.arange(3000, dtype=np.int64)
        values = rng.standard_normal(3000)
        fused = CountSketch(5, 1024, seed=9)
        fused.cache_keys(keys)
        legacy = LegacyCountSketch(5, 1024, seed=9)
        fused.insert(keys, values)
        legacy.insert(keys.copy(), values)
        np.testing.assert_array_equal(fused.table, legacy.table)
        np.testing.assert_array_equal(fused.query(keys), legacy.query(keys.copy()))
        np.testing.assert_array_equal(
            fused.query_per_table(keys), legacy.query_per_table(keys.copy())
        )

    def test_empty_batch_noop(self):
        fused = CountSketch(5, 256, seed=1)
        fused.insert(np.empty(0, dtype=np.int64), np.empty(0))
        assert not fused.table.any()
        assert fused.query(np.empty(0, dtype=np.int64)).size == 0
        assert fused.query_per_table(np.empty(0, dtype=np.int64)).shape == (5, 0)

    def test_flat_view_shares_table_memory(self):
        sk = CountSketch(3, 64, seed=0)
        sk.insert(np.array([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        assert sk._flat.base is sk.table or sk._flat.base is sk.table.base
        sk.reset()
        assert not sk._flat.any()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CountSketch(3, 256, seed=5),
            lambda: HierarchicalCountSketch(3, 256, key_space=10**9, seed=5),
        ],
        ids=["CountSketch", "HierarchicalCountSketch"],
    )
    def test_pickle_rebuilds_flat_view(self, make, kernel_leg, rng):
        import pickle

        sk = make()
        keys = rng.integers(0, 10**9, size=100)
        values = np.abs(rng.standard_normal(100))
        sk.insert(keys, values)
        clone = pickle.loads(pickle.dumps(sk))
        np.testing.assert_array_equal(clone.table, sk.table)
        # Inserts after unpickling must stay visible through .table (the
        # flat working view has to alias the unpickled table, not a copy).
        clone.insert(keys, values)
        sk.insert(keys, values)
        np.testing.assert_array_equal(clone.table, sk.table)
        np.testing.assert_array_equal(clone.query(keys), sk.query(keys))
        clone.reset()
        assert not clone.query(keys).any()


def _cs_hash_args(sk):
    """The flat kernel argument tuple for a count sketch."""
    mask = sk._hasher._bucket_mask
    return (
        sk._hasher._combined_a.ravel(),
        sk._hasher._combined_b.ravel(),
        sk._offsets_u64.ravel(),
        np.uint64(sk.num_buckets),
        np.uint64(0) if mask is None else mask,
        mask is not None,
    )


@needs_numba
class TestNumbaModuleParity:
    """The compiled kernels must replicate the numpy path ``CountSketch``
    runs, bit for bit: both accumulation strategies, both bucket-range
    reductions, every median network — same flat layout, same summation
    order.  The numpy side is a ``CountSketch`` pinned to numpy."""

    @pytest.mark.parametrize("num_buckets", [512, 500])
    @pytest.mark.parametrize("num_tables", [1, 3, 5])
    def test_cs_kernels_bit_identical(self, num_tables, num_buckets, rng, pin_kernels):
        from repro.sketch.kernels import numba_jit

        pin_kernels("numpy")
        sk = CountSketch(num_tables, num_buckets, seed=23)
        a, b, off, r_u64, mask, use_mask = _cs_hash_args(sk)
        flat_nb = np.zeros(num_tables * num_buckets)
        for keys, values in _key_batches(rng):
            flat_indices, bits = sk._hash_batch(keys)
            signed = apply_sign(bits, values).ravel()
            args = (keys.view(np.uint64), values, a, b, off, r_u64, mask)
            # Force both strategies regardless of batch size: strategy
            # choice is the caller's, the kernels must agree under either.
            for use_bincount in (False, True):
                scatter_add_flat(
                    sk._flat, flat_indices.ravel(), signed, use_bincount=use_bincount
                )
                numba_jit.cs_insert(flat_nb, *args, use_mask, use_bincount)
                np.testing.assert_array_equal(flat_nb, sk._flat)
        probe = rng.integers(0, 10**12, size=777)
        out_nb = np.empty(probe.size)
        query_args = (probe.view(np.uint64), a, b, off, r_u64, mask, use_mask)
        numba_jit.cs_query(flat_nb, *query_args, out_nb)
        np.testing.assert_array_equal(out_nb, sk.query(probe))
        # insert_and_query on the compiled path is these two kernel calls.
        live_keys = rng.integers(0, 10**12, size=300)
        live_values = rng.standard_normal(300)
        live_u64 = live_keys.view(np.uint64)
        live_nb = np.empty(live_keys.size)
        numba_jit.cs_insert(
            flat_nb, live_u64, live_values, a, b, off, r_u64, mask, use_mask, True
        )
        numba_jit.cs_query(flat_nb, live_u64, a, b, off, r_u64, mask, use_mask, live_nb)
        live_np = sk.insert_and_query(live_keys, live_values)
        np.testing.assert_array_equal(flat_nb, sk._flat)
        np.testing.assert_array_equal(live_nb, live_np)

    def test_median_networks_handle_ties_and_nans(self, rng, pin_kernels):
        from repro.sketch.kernels import numba_jit

        # Tie-heavy and NaN-poisoned tables: the scalar min/max pairs in
        # the compiled networks must pick the same operand numpy does.
        pin_kernels("numpy")
        for num_tables in (1, 3, 5):
            sk = CountSketch(num_tables, 64, seed=31)
            a, b, off, r_u64, mask, use_mask = _cs_hash_args(sk)
            flat = rng.integers(-2, 3, size=num_tables * 64).astype(np.float64)
            flat[rng.integers(0, flat.size, size=5)] = np.nan
            sk.load_table(flat)
            probe = rng.integers(0, 10**12, size=200)
            out_nb = np.empty(probe.size)
            query_args = (probe.view(np.uint64), a, b, off, r_u64, mask, use_mask)
            numba_jit.cs_query(flat, *query_args, out_nb)
            np.testing.assert_array_equal(out_nb, sk.query(probe))


#: ±0, ±inf, NaN of either sign and a NaN with a payload.
SIGN_SPECIALS = np.concatenate(
    [
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
        np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64),
    ]
)


class TestSignKernel:
    """``apply_sign`` flips the IEEE sign bit and nothing else, at every
    size: the bytes of ``np.where(bits, -x, x)``, which is what the
    compiled kernels' ``-value`` writes."""

    @staticmethod
    def _assert_negation_bytes(bits, x):
        out = apply_sign(bits, x)
        assert out.dtype == np.float64 and out.shape == bits.shape
        np.testing.assert_array_equal(
            out.view(np.uint64), np.where(bits, -x, x).view(np.uint64)
        )

    @pytest.mark.parametrize("n", [1, 8192, 8193, 29000])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_bytes_match_negation_at_every_size(self, k, n, rng):
        specials = np.tile(SIGN_SPECIALS, 2)
        flips = np.repeat(np.array([0, 1], dtype=np.uint64), SIGN_SPECIALS.size)
        planted = rng.choice(n, size=min(n, specials.size), replace=False)
        bits = rng.integers(0, 2, size=(k, n)).astype(np.uint64)
        bits[:, planted] = flips[: planted.size]
        row = rng.standard_normal(n)
        row[planted] = specials[: planted.size]
        matrix = rng.standard_normal((k, n))
        matrix[:, planted] = specials[: planted.size]
        self._assert_negation_bytes(bits, row)
        self._assert_negation_bytes(bits, matrix)

    def test_every_special_value_under_both_bits(self):
        x = np.tile(SIGN_SPECIALS, 2)
        bits = np.repeat(np.array([0, 1], dtype=np.uint64), SIGN_SPECIALS.size)
        self._assert_negation_bytes(bits[None, :], x)
        self._assert_negation_bytes(bits[None, :], x[None, :])


class TestMedianKernel:
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_np_median_odd(self, k, rng):
        est = rng.standard_normal((k, 513))
        np.testing.assert_array_equal(median(est), np.median(est, axis=0))

    def test_matches_np_median_with_ties(self, rng):
        est = rng.integers(-2, 3, size=(5, 400)).astype(np.float64)
        np.testing.assert_array_equal(median(est), np.median(est, axis=0))

    @pytest.mark.parametrize("k", [2, 4])
    def test_even_k_falls_back_to_average(self, k, rng):
        est = rng.standard_normal((k, 100))
        np.testing.assert_array_equal(median(est), np.median(est, axis=0))


# ----------------------------------------------------------------------
# Tracker layer
# ----------------------------------------------------------------------
class TestTrackerEquivalence:
    @pytest.mark.parametrize("two_sided", [False, True])
    def test_offer_prune_topk_identical(self, two_sided, rng):
        fused = TopKTracker(50, slack=1.5, two_sided=two_sided)
        legacy = LegacyTopKTracker(50, slack=1.5, two_sided=two_sided)
        for _ in range(30):
            n = int(rng.integers(0, 40))
            keys = rng.integers(0, 200, size=n)  # small space: many refreshes
            ests = rng.standard_normal(n)
            fused.offer(keys, ests)
            legacy.offer(keys, ests)
            assert len(fused) == len(legacy)
        np.testing.assert_array_equal(fused.candidates(), legacy.candidates())
        fk, fe = fused.top_k(20)
        lk, le = legacy.top_k(20)
        np.testing.assert_array_equal(fk, lk)
        np.testing.assert_array_equal(fe, le)

    def test_duplicate_keys_in_one_batch_keep_last(self):
        fused = TopKTracker(10)
        legacy = LegacyTopKTracker(10)
        keys = np.array([5, 5, 5, 2])
        ests = np.array([1.0, 3.0, 2.0, 9.0])
        fused.offer(keys, ests)
        legacy.offer(keys, ests)
        fk, fe = fused.top_k(10)
        lk, le = legacy.top_k(10)
        np.testing.assert_array_equal(fk, lk)
        np.testing.assert_array_equal(fe, le)

    def test_offers_of_ascending_runs_identical(self, rng):
        """Offers shaped like the expanded route's: many short ascending
        runs whose keys repeat within and across offers, in buffers of
        thousands of entries."""
        fused = TopKTracker(500)
        legacy = LegacyTopKTracker(500)
        for _ in range(20):
            runs = [np.sort(rng.integers(0, 3000, size=60)) for _ in range(32)]
            keys = np.concatenate(runs)
            ests = rng.standard_normal(keys.size)
            fused.offer(keys, ests)
            legacy.offer(keys, ests)
            assert len(fused) == len(legacy)
            np.testing.assert_array_equal(fused.candidates(), legacy.candidates())
        fk, fe = fused.top_k(100)
        lk, le = legacy.top_k(100)
        np.testing.assert_array_equal(fk, lk)
        np.testing.assert_array_equal(fe, le)

    @pytest.mark.parametrize("two_sided", [False, True])
    def test_narrow_shaped_offers_with_heavy_ties_identical(self, two_sided, rng):
        """Offers shaped like ``ingest_narrow``'s: 32 strictly ascending
        runs of ~900 keys into a 300-key pool, so every offer compacts and
        prunes.  Estimates are a few multiples of 1/8192, as binary rows
        give, so ranks tie heavily; some are NaN.  The pool must match the
        dict after every offer, in insertion order and in rank order."""
        fused = TopKTracker(300, two_sided=two_sided)
        legacy = LegacyTopKTracker(300, two_sided=two_sided)
        for _ in range(12):
            keys = np.concatenate(
                [
                    np.sort(rng.choice(20_000, size=int(m), replace=False))
                    for m in rng.integers(850, 950, size=32)
                ]
            )
            ests = rng.integers(-3, 8, size=keys.size) / 8192
            ests[rng.random(keys.size) < 0.01] = np.nan
            fused.offer(keys, ests)
            legacy.offer(keys, ests)
            assert len(fused) == len(legacy)
            np.testing.assert_array_equal(fused.candidates(), legacy.candidates())
            fk, fe = fused.top_k(len(legacy))
            lk, le = legacy.top_k(len(legacy))
            np.testing.assert_array_equal(fk, lk)
            assert fe.tobytes() == le.tobytes()

    def test_requery_against_sketch_identical(self, rng):
        sketch = CountSketch(5, 1024, seed=6)
        keys = rng.integers(0, 10**9, size=500)
        sketch.insert(keys, rng.standard_normal(500))
        fused = TopKTracker(30)
        legacy = LegacyTopKTracker(30)
        fused.offer(keys[:100], np.zeros(100))
        legacy.offer(keys[:100], np.zeros(100))
        fk, fe = fused.top_k(10, sketch=sketch)
        lk, le = legacy.top_k(10, sketch=sketch)
        np.testing.assert_array_equal(fk, lk)
        np.testing.assert_array_equal(fe, le)

    def test_buffer_growth_beyond_initial_capacity(self, rng):
        tracker = TopKTracker(5000, slack=2.0)
        keys = rng.integers(0, 10**12, size=9000)
        tracker.offer(keys, rng.standard_normal(9000))
        assert len(tracker) == np.unique(keys).size

    def test_reset_clears(self):
        tracker = TopKTracker(5)
        tracker.offer(np.array([1]), np.array([1.0]))
        tracker.reset()
        assert len(tracker) == 0
        assert tracker.candidates().size == 0

    def test_nan_estimates_rank_worst_like_legacy(self):
        # NaN estimates must not poison the prune: the dict-era argsort
        # ranked them worst and kept `capacity` candidates.
        fused = TopKTracker(5, slack=1.2)
        legacy = LegacyTopKTracker(5, slack=1.2)
        keys = np.arange(20)
        ests = np.full(20, np.nan)
        ests[3] = 2.0
        ests[11] = 1.0
        for tr in (fused, legacy):
            tr.offer(keys, ests)
        assert len(fused) == len(legacy)
        fk, _ = fused.top_k(2)
        lk, _ = legacy.top_k(2)
        np.testing.assert_array_equal(fk, lk)
        assert fk.tolist() == [3, 11]


# ----------------------------------------------------------------------
# Pipeline layer
# ----------------------------------------------------------------------
def _random_sparse_batch(rng, num_samples, dim, max_nnz):
    lengths, idx_parts, val_parts = [], [], []
    for _ in range(num_samples):
        m = int(rng.integers(0, max_nnz + 1))
        feats = rng.choice(dim, size=m, replace=False)
        lengths.append(m)
        idx_parts.append(feats.astype(np.int64))
        val_parts.append(rng.standard_normal(m))
    indices = (
        np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=np.int64)
    )
    values = np.concatenate(val_parts) if val_parts else np.empty(0)
    return indices, values, np.asarray(lengths, dtype=np.int64)


class TestSparseBatchPairs:
    def test_matches_per_sample_loop(self, rng):
        dim = 3000
        indices, values, lengths = _random_sparse_batch(rng, 20, dim, 30)
        fused = sparse_batch_pairs(indices, values, lengths, dim)
        legacy = legacy_sparse_batch_pairs(indices, values, lengths, dim)
        np.testing.assert_array_equal(fused[0], legacy[0])
        np.testing.assert_array_equal(fused[1], legacy[1])

    def test_empty_and_singleton_samples(self):
        dim = 100
        indices = np.array([7, 3, 50, 9], dtype=np.int64)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        lengths = np.array([0, 1, 3, 0], dtype=np.int64)  # only one pairful sample
        keys, products = sparse_batch_pairs(indices, values, lengths, dim)
        ref_keys, ref_products = sparse_sample_pairs(
            indices[1:4], values[1:4], dim
        )
        np.testing.assert_array_equal(keys, ref_keys)
        np.testing.assert_array_equal(products, ref_products)

    def test_all_empty(self):
        keys, products = sparse_batch_pairs(
            np.empty(0, dtype=np.int64), np.empty(0), np.zeros(4, dtype=np.int64), 10
        )
        assert keys.size == 0 and products.size == 0

    def test_unsorted_indices_match_loop(self, rng):
        dim = 500
        indices = np.array([40, 3, 17, 2, 499, 250], dtype=np.int64)
        values = rng.standard_normal(6)
        lengths = np.array([3, 3], dtype=np.int64)
        fused = sparse_batch_pairs(indices, values, lengths, dim)
        legacy = legacy_sparse_batch_pairs(indices, values, lengths, dim)
        np.testing.assert_array_equal(fused[0], legacy[0])
        np.testing.assert_array_equal(fused[1], legacy[1])

    def test_shuffled_samples_match_ascending_ones(self, rng):
        """Ascending samples skip the within-sample sort; a within-sample
        shuffle of them takes it and must expand to the same output."""
        dim = 3000
        indices, values, lengths = _random_sparse_batch(rng, 20, dim, 30)
        starts = np.cumsum(lengths) - lengths
        ascending = np.concatenate(
            [s + np.argsort(indices[s : s + m]) for s, m in zip(starts, lengths)]
        )
        shuffled = np.concatenate(
            [s + rng.permutation(m) for s, m in zip(starts, lengths)]
        )
        assert not np.array_equal(indices[ascending], indices[shuffled])
        fused = sparse_batch_pairs(indices[ascending], values[ascending], lengths, dim)
        reshuffled = sparse_batch_pairs(
            indices[shuffled], values[shuffled], lengths, dim
        )
        np.testing.assert_array_equal(fused[0], reshuffled[0])
        np.testing.assert_array_equal(fused[1], reshuffled[1])

    def test_unsorted_samples_of_every_length_match_loop(self, rng):
        """Samples of 0 and 1 non-zeros between unsorted longer ones."""
        dim = 10_000
        lengths = np.array([0, 5, 1, 0, 9, 1, 2, 0, 30, 1], dtype=np.int64)
        indices = np.concatenate(
            [rng.choice(dim, size=m, replace=False) for m in lengths]
        ).astype(np.int64)
        values = rng.standard_normal(indices.size)
        fused = sparse_batch_pairs(indices, values, lengths, dim)
        legacy = legacy_sparse_batch_pairs(indices, values, lengths, dim)
        np.testing.assert_array_equal(fused[0], legacy[0])
        assert fused[1].tobytes() == legacy[1].tobytes()

    def test_largest_dimension_matches_loop(self, rng):
        """Indices next to ``MAX_DIMENSION - 1``: the int64 key arithmetic
        at its widest."""
        dim = MAX_DIMENSION
        near_end = dim - 1 - rng.choice(64, size=24, replace=False)
        indices = np.concatenate([near_end, [0, dim - 2, dim - 1]]).astype(np.int64)
        values = rng.standard_normal(indices.size)
        lengths = np.array([10, 14, 3], dtype=np.int64)
        fused = sparse_batch_pairs(indices, values, lengths, dim)
        legacy = legacy_sparse_batch_pairs(indices, values, lengths, dim)
        np.testing.assert_array_equal(fused[0], legacy[0])
        assert fused[1].tobytes() == legacy[1].tobytes()
        assert fused[0].max() == dim * (dim - 1) // 2 - 1

    @pytest.mark.parametrize(
        "indices, lengths",
        [
            ([3, 100], [2]),  # an index >= d in a 2-element sample
            ([5, 9, 2, 400], [2, 2]),  # ... in the second of two samples
            ([4, -1, 7], [3]),  # a negative index
            ([8, 3, 8], [3]),  # an index repeated in an unsorted sample
            ([1, 2, 2, 6], [1, 3]),  # ... repeated among ascending ones
        ],
    )
    def test_refusals_match_pair_to_index(self, indices, lengths):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.ones(indices.size)
        lengths = np.asarray(lengths, dtype=np.int64)
        for expand in (sparse_batch_pairs, legacy_sparse_batch_pairs):
            with pytest.raises(ValueError, match=r"0 <= i < j < d"):
                expand(indices, values, lengths, 100)

    def test_dimension_past_the_maximum_is_refused(self):
        indices = np.array([0, 1], dtype=np.int64)
        lengths = np.array([2], dtype=np.int64)
        for expand in (sparse_batch_pairs, legacy_sparse_batch_pairs):
            with pytest.raises(ValueError, match="MAX_DIMENSION"):
                expand(indices, np.ones(2), lengths, MAX_DIMENSION + 1)

    def test_a_one_element_sample_forms_no_pair_to_refuse(self):
        """An index out of range in a sample of one non-zero forms no pair,
        so nothing checks it (as ``pair_to_index`` never saw it)."""
        indices = np.array([500, -3, 2, 7], dtype=np.int64)
        values = np.arange(1.0, 5.0)
        lengths = np.array([1, 1, 2], dtype=np.int64)
        for expand in (sparse_batch_pairs, legacy_sparse_batch_pairs):
            keys, products = expand(indices, values, lengths, 100)
            assert keys.tolist() == [pair_to_index(2, 7, 100)]
            assert products.tolist() == [12.0]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths"):
            sparse_batch_pairs(
                np.arange(5, dtype=np.int64),
                np.ones(5),
                np.array([2, 2], dtype=np.int64),
                10,
            )


class TestEndToEndSparsePipeline:
    def test_fused_pipeline_matches_legacy_expansion(self, rng):
        """A full fit_sparse run must leave exactly the same sketch state as
        the legacy per-sample expansion feeding the same estimator its
        per-sample pair stream."""
        from repro.covariance.pipeline import CovarianceSketcher

        dim, n = 400, 64
        samples = []
        for _ in range(n):
            m = int(rng.integers(2, 12))
            feats = np.sort(rng.choice(dim, size=m, replace=False)).astype(np.int64)
            samples.append((feats, rng.standard_normal(m)))

        est_fused = SketchEstimator(CountSketch(5, 4096, seed=12), n, track_top=64)
        pipe = CovarianceSketcher(dim, est_fused, mode="covariance", batch_size=16)
        pipe.fit_sparse(iter(samples))

        est_ref = SketchEstimator(LegacyCountSketch(5, 4096, seed=12), n)
        for start in range(0, n, 16):
            chunk = samples[start : start + 16]
            lengths = np.asarray([feats.size for feats, _ in chunk])
            keys, products = legacy_sparse_batch_pairs(
                np.concatenate([feats for feats, _ in chunk]),
                np.concatenate([vals for _, vals in chunk]),
                lengths,
                dim,
            )
            est_ref.ingest(keys, products, num_samples=len(chunk))

        np.testing.assert_array_equal(
            est_fused.sketch.table, est_ref.sketch.table
        )

    def test_ascs_tracker_reuses_gate_estimates(self, rng):
        """During sampling the tracker must hold the gate's (pre-insert)
        estimates rather than issuing a second query."""
        n = 40
        sketch = CountSketch(3, 512, seed=8)
        schedule = ThresholdSchedule(
            total_samples=n, exploration_length=10, tau0=0.0, theta=0.0
        )
        est = ActiveSamplingCountSketch(
            sketch, n, schedule, track_top=32, name="ASCS"
        )
        keys = rng.integers(0, 10**6, size=20)
        values = np.abs(rng.standard_normal(20)) + 1.0
        est.ingest(keys, values, num_samples=20)  # exploration
        gate_est = sketch.query(np.asarray(keys, dtype=np.int64))
        est.ingest(keys, values, num_samples=20)  # sampling: gate accepts all
        cand, cand_est = est.tracker.top_k(32)
        lookup = dict(zip(cand.tolist(), cand_est.tolist()))
        expect = dict(
            zip(np.asarray(keys, dtype=np.int64).tolist(), gate_est.tolist())
        )
        assert lookup == {k: v for k, v in expect.items()}


# ----------------------------------------------------------------------
# ASCS's staged gate
# ----------------------------------------------------------------------
class _DefaultGate(CountSketch):
    """A ``CountSketch`` whose gate is the default: query, then compare."""

    gate = ValueSketch.gate


def _ascs_pair_stream(rng, *, batches=16, samples=10, size=600, keys=4000):
    """Pair-update-like batches: a few keys carry a steady positive (or,
    for some, negative) signal among zero-mean noise, repeats included."""
    signal = rng.choice(keys, size=40, replace=False)
    sign = np.where(np.arange(signal.size) % 4 == 0, -1.0, 1.0)
    out = []
    for _ in range(batches):
        pick = rng.integers(0, signal.size, size=size // 5)
        noise = rng.integers(0, keys, size=size - pick.size)
        batch_keys = np.concatenate([signal[pick], noise]) * 7919 + 13
        signal_values = sign[pick] * rng.uniform(0.5, 2.0, pick.size)
        values = np.concatenate([signal_values, rng.standard_normal(noise.size)])
        order = rng.permutation(size)
        out.append((batch_keys[order].astype(np.int64), values[order], samples))
    return out


def _run_ascs(sketch, stream, *, two_sided):
    total = sum(samples for _, _, samples in stream)
    schedule = ThresholdSchedule(
        total_samples=total, exploration_length=total // 4, tau0=2e-3, theta=0.02
    )
    est = ActiveSamplingCountSketch(
        sketch, total, schedule, track_top=48, two_sided=two_sided
    )
    for keys, values, samples in stream:
        est.ingest(keys, values, num_samples=samples)
    return est


def _assert_same_ascs(fused, reference):
    table, reference_table = fused.sketch.table, reference.sketch.table
    assert np.asarray(table).tobytes() == np.asarray(reference_table).tobytes()
    for got, want in zip(fused.tracker.snapshot(), reference.tracker.snapshot()):
        np.testing.assert_array_equal(got, want)
    assert fused.updates_examined == reference.updates_examined
    assert fused.updates_accepted == reference.updates_accepted


class TestStagedGate:
    """``CountSketch.gate`` settles most keys on (K+1)/2 tables and must
    decide and estimate exactly as querying every key would."""

    @pytest.fixture(autouse=True)
    def _numpy_kernels(self, pin_kernels):
        # The compiled leg keeps the default gate; the staged one is numpy.
        pin_kernels("numpy")

    @pytest.mark.parametrize("two_sided", [False, True])
    @pytest.mark.parametrize("num_tables", [1, 3, 4, 5, 7])
    def test_ascs_matches_the_legacy_full_query_gate(self, rng, num_tables, two_sided):
        stream = _ascs_pair_stream(rng)
        fused = _run_ascs(
            CountSketch(num_tables, 512, seed=4), stream, two_sided=two_sided
        )
        legacy = _run_ascs(
            LegacyCountSketch(num_tables, 512, seed=4), stream, two_sided=two_sided
        )
        _assert_same_ascs(fused, legacy)
        # The gate ran and refused some updates, but not all.
        assert 0 < fused.updates_accepted < fused.updates_examined
        assert fused.updates_accepted > sum(k.size for k, _, _ in stream) // 4

    @pytest.mark.parametrize("two_sided", [False, True])
    def test_int16_storage_matches_the_default_gate(self, rng, two_sided):
        stream = _ascs_pair_stream(rng)
        staged = CountSketch(5, 512, seed=4, dtype="int16", quantum=2.0**-12)
        default = _DefaultGate(5, 512, seed=4, dtype="int16", quantum=2.0**-12)
        _assert_same_ascs(
            _run_ascs(staged, stream, two_sided=two_sided),
            _run_ascs(default, stream, two_sided=two_sided),
        )
        assert staged.storage_dtype == default.storage_dtype

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_tables=st.sampled_from([1, 3, 5, 7]),
        seed=st.integers(0, 2**31 - 1),
        tau_level=st.integers(-4, 4),
        two_sided=st.booleans(),
        nans=st.integers(0, 40),
    )
    def test_gate_equals_query_then_compare(
        self, num_tables, seed, tau_level, two_sided, nans
    ):
        """Counters on a coarse grid put many estimates exactly on tau,
        and NaN counters in the first (K+1)/2 tables never pass."""
        rng = np.random.default_rng(seed)
        sketch = CountSketch(num_tables, 64, seed=seed % 97)
        table = rng.integers(-4, 5, size=(num_tables, 64)) * 0.5
        h = (num_tables + 1) // 2
        table[rng.integers(0, h, nans), rng.integers(0, 64, nans)] = np.nan
        sketch.load_table(table)
        keys = rng.integers(0, 10**9, size=int(rng.integers(0, 300)))
        tau = tau_level * 0.5
        mask, estimates = sketch.gate(keys, tau, two_sided=two_sided)
        want_mask, want_estimates = ValueSketch.gate(
            sketch, keys, tau, two_sided=two_sided
        )
        np.testing.assert_array_equal(mask, want_mask)
        assert estimates.tobytes() == want_estimates.tobytes()

    @pytest.mark.parametrize("num_tables", [4, 6])
    def test_even_tables_and_cached_keys_take_the_default(
        self, rng, monkeypatch, num_tables
    ):
        """Both query the whole batch once, then compare."""
        keys = rng.integers(0, 10**9, size=500)
        even, odd = CountSketch(num_tables, 256, seed=2), CountSketch(5, 256, seed=2)
        odd.cache_keys(keys)
        for sketch, batch in ((even, keys), (odd, odd._cached_keys)):
            sketch.insert(batch, rng.standard_normal(500))
            want_mask, want_estimates = ValueSketch.gate(sketch, batch, 0.0)
            queried = []

            def query(k, *, sketch_query=sketch.query, queried=queried):
                queried.append(k.size)
                return sketch_query(k)

            monkeypatch.setattr(sketch, "query", query)
            mask, estimates = sketch.gate(batch, 0.0)
            assert queried == [batch.size]
            np.testing.assert_array_equal(mask, want_mask)
            np.testing.assert_array_equal(estimates, want_estimates)

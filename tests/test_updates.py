"""Tests for pair-product updates (repro.covariance.updates)."""

import numpy as np
import pytest

from repro.covariance.updates import (
    InvalidBatchError,
    aggregate_pair_updates,
    dense_batch_products,
    dense_rows_as_samples,
    sparse_batch_pairs,
    sparse_sample_pairs,
    triu_pair_values,
    union_pair_keys,
    validate_sparse_batch,
)
from repro.hashing.pairs import pair_to_index


class TestTriuPairValues:
    def test_alignment_with_pair_keys(self):
        # triu extraction must match the canonical flat pair ordering.
        d = 6
        mat = np.arange(d * d, dtype=float).reshape(d, d)
        flat = triu_pair_values(mat)
        for i in range(d):
            for j in range(i + 1, d):
                key = int(pair_to_index(i, j, d))
                assert flat[key] == mat[i, j]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            triu_pair_values(np.ones((2, 3)))

    def test_length(self):
        assert triu_pair_values(np.eye(10)).size == 45


class TestDenseBatchProducts:
    def test_matches_manual_sum(self, rng):
        batch = rng.standard_normal((7, 5))
        got = dense_batch_products(batch)
        manual = np.zeros(10)
        for row in batch:
            manual += triu_pair_values(np.outer(row, row))
        np.testing.assert_allclose(got, manual, atol=1e-10)

    def test_single_row(self, rng):
        row = rng.standard_normal(4)
        got = dense_batch_products(row)
        np.testing.assert_allclose(got, triu_pair_values(np.outer(row, row)))


class TestUnionPairKeys:
    def test_full_cover_is_every_key_in_order(self):
        d = 9
        np.testing.assert_array_equal(
            union_pair_keys(np.arange(d), d), np.arange(d * (d - 1) // 2)
        )

    def test_aligned_with_products_over_the_union(self, rng):
        d = 50
        union = np.array([2, 7, 8, 31, 49])
        block = rng.standard_normal((4, union.size))
        keys = union_pair_keys(union, d)
        rows, cols = np.triu_indices(union.size, k=1)
        np.testing.assert_array_equal(
            keys, pair_to_index(union[rows], union[cols], d)
        )
        full = np.zeros((4, d))
        full[:, union] = block
        np.testing.assert_allclose(
            dense_batch_products(block),
            dense_batch_products(full)[keys],
            rtol=0,
            atol=1e-12,
        )


class TestDenseRowsAsSamples:
    def test_each_row_becomes_a_full_width_sample(self, rng):
        rows = rng.standard_normal((5, 7))
        samples = dense_rows_as_samples(rows, 7)
        assert len(samples) == 5
        for (features, values), row in zip(samples, rows):
            assert features.dtype == np.int64
            np.testing.assert_array_equal(features, np.arange(7))
            np.testing.assert_array_equal(values, row)

    def test_samples_share_one_index_array(self, rng):
        samples = dense_rows_as_samples(rng.standard_normal((3, 4)), 4)
        assert all(features is samples[0][0] for features, _ in samples)

    def test_one_row_is_a_batch_of_one(self, rng):
        row = rng.standard_normal(6)
        [(features, values)] = dense_rows_as_samples(row, 6)
        np.testing.assert_array_equal(features, np.arange(6))
        np.testing.assert_array_equal(values, row)

    def test_integer_rows_become_float64(self):
        [(_, values)] = dense_rows_as_samples(np.array([[1, 2, 3]]), 3)
        assert values.dtype == np.float64
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])

    def test_no_rows_are_no_samples(self):
        assert dense_rows_as_samples(np.empty((0, 5)), 5) == []

    @pytest.mark.parametrize("shape", [(4, 19), (4, 21), (2, 4, 20)])
    def test_any_other_shape_is_an_invalid_batch(self, shape):
        with pytest.raises(InvalidBatchError, match=r"expected shape \(n, 20\)"):
            dense_rows_as_samples(np.ones(shape), 20)
        assert issubclass(InvalidBatchError, ValueError)

    def test_non_finite_values_are_refused_with_the_batch(self, rng):
        rows = rng.standard_normal((3, 4))
        rows[2, 1] = np.nan
        # Checked whole before any sample exists, so a writer that applies
        # the samples batch by batch still refuses all of them.
        with pytest.raises(InvalidBatchError, match="finite"):
            dense_rows_as_samples(rows, 4)

    def test_expanded_pairs_sum_to_the_dense_products(self, rng):
        d = 8
        rows = rng.standard_normal((6, d))
        indices, values, lengths = validate_sparse_batch(
            dense_rows_as_samples(rows, d), d
        )
        np.testing.assert_array_equal(lengths, np.full(6, d))
        expanded_keys, expanded = sparse_batch_pairs(indices, values, lengths, d)
        keys, products = aggregate_pair_updates([expanded_keys], [expanded])
        np.testing.assert_array_equal(keys, np.arange(d * (d - 1) // 2))
        np.testing.assert_allclose(
            products, dense_batch_products(rows), rtol=0, atol=1e-12
        )


class TestSparseSamplePairs:
    def test_matches_dense_products(self, rng):
        d = 30
        idx = np.array([3, 11, 27, 8])
        vals = rng.standard_normal(4)
        keys, products = sparse_sample_pairs(idx, vals, d)
        dense = np.zeros(d)
        dense[idx] = vals
        full = dense_batch_products(dense)
        expected_keys = np.nonzero(full)[0]
        assert sorted(keys.tolist()) == sorted(expected_keys.tolist())
        lookup = dict(zip(keys.tolist(), products.tolist()))
        for key in expected_keys:
            assert lookup[int(key)] == pytest.approx(full[key])

    def test_unsorted_input_handled(self):
        keys1, vals1 = sparse_sample_pairs(
            np.array([9, 2, 5]), np.array([1.0, 2.0, 3.0]), 20
        )
        keys2, vals2 = sparse_sample_pairs(
            np.array([2, 5, 9]), np.array([2.0, 3.0, 1.0]), 20
        )
        order1, order2 = np.argsort(keys1), np.argsort(keys2)
        np.testing.assert_array_equal(keys1[order1], keys2[order2])
        np.testing.assert_allclose(vals1[order1], vals2[order2])

    def test_fewer_than_two_nonzeros(self):
        keys, vals = sparse_sample_pairs(np.array([5]), np.array([1.0]), 10)
        assert keys.size == 0 and vals.size == 0

    def test_pair_count(self):
        m = 9
        keys, _ = sparse_sample_pairs(
            np.arange(m) * 3, np.ones(m), 100
        )
        assert keys.size == m * (m - 1) // 2

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="align"):
            sparse_sample_pairs(np.array([1, 2]), np.array([1.0]), 10)


class TestAggregatePairUpdates:
    def test_sums_duplicates(self):
        keys, sums = aggregate_pair_updates(
            [np.array([5, 9]), np.array([9, 2])],
            [np.array([1.0, 2.0]), np.array([3.0, 4.0])],
        )
        lookup = dict(zip(keys.tolist(), sums.tolist()))
        assert lookup == {2: 4.0, 5: 1.0, 9: 5.0}

    def test_keys_sorted_unique(self, rng):
        lists = [rng.integers(0, 50, size=30) for _ in range(4)]
        vals = [rng.standard_normal(30) for _ in range(4)]
        keys, _ = aggregate_pair_updates(lists, vals)
        assert (np.diff(keys) > 0).all()

    def test_empty_inputs(self):
        keys, sums = aggregate_pair_updates([], [])
        assert keys.size == 0 and sums.size == 0
        keys, sums = aggregate_pair_updates(
            [np.empty(0, dtype=np.int64)], [np.empty(0)]
        )
        assert keys.size == 0 and sums.size == 0

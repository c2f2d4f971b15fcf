"""Tests for the streaming moment tracker (repro.covariance.running)."""

import numpy as np
import pytest

from repro.covariance.running import SparseMoments
from repro.covariance.updates import dense_rows_as_samples, validate_sparse_batch


def _fold_rows(moments, rows):
    """Feed dense rows the way every writer does: as full-width samples."""
    indices, values, lengths = validate_sparse_batch(
        dense_rows_as_samples(rows, moments.dim), moments.dim
    )
    moments.update_batch(indices, values, lengths.size)


class TestSparseMoments:
    def test_matches_dense_welford(self, rng):
        d = 20
        dense = np.zeros((100, d))
        sparse_mom = SparseMoments(d)
        for row in range(100):
            nnz = rng.integers(1, 6)
            idx = rng.choice(d, size=nnz, replace=False)
            vals = rng.standard_normal(nnz)
            dense[row, idx] = vals
            sparse_mom.update_batch(idx, vals, 1)
        np.testing.assert_allclose(sparse_mom.mean, dense.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(sparse_mom.variance(), dense.var(axis=0), atol=1e-10)

    def test_batched_update(self):
        mom = SparseMoments(5)
        # Two samples at once: indices concatenated.
        mom.update_batch(np.array([0, 1, 0]), np.array([1.0, 2.0, 3.0]), 2)
        assert mom.count == 2
        np.testing.assert_allclose(mom.mean, [2.0, 1.0, 0, 0, 0])

    def test_validation(self):
        mom = SparseMoments(5)
        with pytest.raises(ValueError, match="align"):
            mom.update_batch(np.array([1]), np.array([1.0, 2.0]), 1)
        with pytest.raises(ValueError, match="non-negative"):
            mom.update_batch(np.array([1]), np.array([1.0]), -1)

    def test_variance_clamped_non_negative(self):
        mom = SparseMoments(2)
        mom.update_batch(np.array([0]), np.array([1.0]), 1)
        assert (mom.variance() >= 0).all()

    def test_empty_state(self):
        mom = SparseMoments(3)
        assert (mom.mean == 0).all()
        assert np.isnan(mom.variance()).all()

    def test_invalid_dim(self):
        with pytest.raises(ValueError, match="dim"):
            SparseMoments(0)

    def test_full_width_samples_match_numpy(self, rng):
        rows = rng.standard_normal((300, 6)) * np.arange(1, 7) + 0.03
        mom = SparseMoments(6)
        _fold_rows(mom, rows)
        assert mom.count == 300
        np.testing.assert_allclose(mom.mean, rows.mean(axis=0), rtol=0, atol=1e-13)
        np.testing.assert_allclose(mom.variance(), rows.var(axis=0), rtol=1e-12)
        np.testing.assert_allclose(mom.std(), rows.std(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_any_batch_split_is_equivalent(self, batch, rng):
        """Plain sums of integer values: every split is exact."""
        rows = rng.integers(-9, 10, size=(64, 5)).astype(np.float64)
        whole, split = SparseMoments(5), SparseMoments(5)
        _fold_rows(whole, rows)
        for start in range(0, rows.shape[0], batch):
            _fold_rows(split, rows[start : start + batch])
        assert split.count == whole.count
        np.testing.assert_array_equal(split._sum, whole._sum)
        np.testing.assert_array_equal(split._sumsq, whole._sumsq)

    def test_empty_batch_noop(self):
        mom = SparseMoments(4)
        mom.update_batch(np.array([1, 2]), np.array([2.0, -1.0]), 1)
        sums, sumsq = mom._sum.copy(), mom._sumsq.copy()
        mom.update_batch(np.empty(0, dtype=np.int64), np.empty(0), 0)
        assert mom.count == 1
        np.testing.assert_array_equal(mom._sum, sums)
        np.testing.assert_array_equal(mom._sumsq, sumsq)

    def test_samples_without_non_zeros_still_count(self):
        """An absent feature is an observed zero: it dilutes the mean."""
        mom = SparseMoments(3)
        mom.update_batch(np.array([0]), np.array([6.0]), 1)
        mom.update_batch(np.empty(0, dtype=np.int64), np.empty(0), 2)
        assert mom.count == 3
        np.testing.assert_allclose(mom.mean, [2.0, 0.0, 0.0])
        np.testing.assert_allclose(mom.variance(), [8.0, 0.0, 0.0])

    def test_single_sample_has_zero_variance(self, rng):
        row = rng.standard_normal(5)
        mom = SparseMoments(5)
        _fold_rows(mom, row)
        np.testing.assert_array_equal(mom.mean, row)
        np.testing.assert_allclose(mom.variance(), 0.0, atol=1e-15)

    def test_std_floor(self):
        mom = SparseMoments(3)
        _fold_rows(mom, np.array([[1.0, 5.0, 0.0], [3.0, 5.0, 0.0]]))
        np.testing.assert_allclose(mom.std(), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(mom.std(floor=0.5), [1.0, 0.5, 0.5])

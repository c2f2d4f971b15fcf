"""Edge-case and cross-feature tests not covered by the per-module suites."""

import numpy as np
import pytest

from repro.covariance.pipeline import CovarianceSketcher
from repro.core.estimator import SketchEstimator
from repro.data.streams import ShuffleBuffer, SparseSample
from repro.data.url_like import URLLikeStream
from repro.sketch.augmented import AugmentedSketch
from repro.sketch.count_sketch import CountSketch


class TestCorrelationWithRunningCentering:
    def test_combined_modes_estimate_correlations(self, rng):
        """correlation mode + running centering: shifted, scaled data."""
        d, n = 12, 4000
        data = rng.standard_normal((n, d)) * np.arange(1, d + 1) + 50.0
        data[:, 4] = 0.75 * (data[:, 2] - 50) / 3 * 5 + 0.66 * (data[:, 4] - 50) + 50
        est = SketchEstimator(CountSketch(5, 4096, seed=2), n)
        sk = CovarianceSketcher(
            d, est, mode="correlation", centering="running", batch_size=100
        )
        sk.fit_dense(data)
        truth = np.corrcoef(data.T)
        i, j, vals = sk.top_pairs(1, scan=True)
        true_top = np.unravel_index(
            np.argmax(np.abs(np.triu(truth, k=1))), truth.shape
        )
        assert {int(i[0]), int(j[0])} == set(true_top)

    def test_exact_centering_with_correlation_mode(self, rng):
        d, n = 8, 64
        data = rng.standard_normal((n, d)) + 7.0
        est = SketchEstimator(CountSketch(5, 4096, seed=3), n)
        sk = CovarianceSketcher(
            d, est, mode="correlation", centering="exact", batch_size=16
        )
        sk.fit_dense(data)
        keys = np.arange(d * (d - 1) // 2)
        got = sk.estimate_keys(keys)
        assert np.isfinite(got).all()
        assert np.abs(got).max() <= 1.5  # correlation-scale values


class TestAugmentedExchangeCadence:
    def test_delayed_exchange_still_converges(self):
        asx = AugmentedSketch(
            3, 512, filter_capacity=2, seed=4, exchange_every=5
        )
        for _ in range(25):
            asx.insert(np.array([7]), np.array([4.0]))
        assert asx.query_single(7) == pytest.approx(100.0, rel=0.05)
        assert 7 in asx.filter_keys.tolist()


class TestShuffleBufferWithSparseSamples:
    def test_samples_survive_shuffling_intact(self):
        stream = URLLikeStream(dim=200, num_samples=40, num_groups=3,
                               group_size=4, background_nnz=5, seed=6)
        original = list(iter(stream))
        shuffled = list(ShuffleBuffer(original, buffer_size=16, seed=7))
        assert len(shuffled) == len(original)
        assert all(isinstance(s, SparseSample) for s in shuffled)
        total_in = sum(s.values.sum() for s in original)
        total_out = sum(s.values.sum() for s in shuffled)
        assert total_out == pytest.approx(total_in)


class TestFloat32Sketch:
    def test_float32_tables_work_end_to_end(self, rng):
        sketch = CountSketch(3, 1024, seed=8, dtype=np.float32)
        est = SketchEstimator(sketch, 100)
        keys = np.arange(50)
        for _ in range(100):
            est.ingest(keys, rng.standard_normal(50))
        out = est.estimate(keys)
        assert out.dtype == np.float64  # queries always return float64
        assert np.isfinite(out).all()
        # memory_floats is the paper's budget unit; memory_bytes reports
        # the actual residency of the storage tier (4 bytes per float32).
        assert sketch.memory_floats == 3 * 1024
        assert sketch.memory_bytes == 3 * 1024 * 4


class TestSingleSampleStreams:
    def test_one_sample_dense(self):
        est = SketchEstimator(CountSketch(3, 256, seed=9), 1)
        sk = CovarianceSketcher(5, est, mode="covariance", batch_size=4)
        sk.fit_dense(np.ones((1, 5)))
        assert sk.samples_seen == 1
        np.testing.assert_allclose(sk.estimate_keys(np.arange(10)), 1.0, atol=1e-9)

    def test_one_sample_sparse(self):
        est = SketchEstimator(CountSketch(3, 256, seed=9), 1)
        sk = CovarianceSketcher(5, est, mode="covariance", batch_size=4)
        sk.fit_sparse(iter([(np.array([0, 2]), np.array([2.0, 3.0]))]))
        key = 1  # pair (0, 2) in d=5: index = 0*4 - 0 + (2-0-1) = 1
        assert est.estimate(np.array([key]))[0] == pytest.approx(6.0)

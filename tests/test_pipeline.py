"""Tests for the streaming pipeline (repro.covariance.pipeline)."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ascs import ActiveSamplingCountSketch
from repro.core.estimator import SketchEstimator
from repro.core.schedule import ThresholdSchedule
from repro.covariance.pipeline import CovarianceSketcher
from repro.covariance.updates import (
    InvalidBatchError,
    dense_batch_products,
    triu_pair_values,
)
from repro.distributed.shard import ShardSpec, extract_shard_result, restore_sketcher
from repro.sketch.augmented import AugmentedSketch
from repro.sketch.count_sketch import CountSketch


def make_estimator(total, *, tables=5, buckets=8192, seed=0, track=0):
    return SketchEstimator(
        CountSketch(tables, buckets, seed=seed), total, track_top=track
    )


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CovarianceSketcher(10, None, mode="magic")

    def test_bad_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            CovarianceSketcher(10, None, batch_size=0)

    def test_wrong_shape(self):
        sk = CovarianceSketcher(10, make_estimator(5))
        with pytest.raises(ValueError, match="expected shape"):
            sk.fit_dense(np.ones((5, 9)))

    def test_wrong_shape_is_refused_before_any_state_changes(self, rng):
        sk = CovarianceSketcher(10, make_estimator(8), batch_size=4)
        sk.fit_dense(rng.standard_normal((4, 10)))
        table = sk.estimator.sketch.table.copy()
        with pytest.raises(InvalidBatchError, match=r"expected shape \(n, 10\)"):
            sk.fit_dense(rng.standard_normal((4, 11)))
        assert sk.samples_seen == 4
        assert sk.sparse_moments.count == 4
        np.testing.assert_array_equal(sk.estimator.sketch.table, table)


class TestDenseCovarianceAccuracy:
    def test_uncentered_estimates_match_second_moments(self, rng):
        # Zero-mean data: E[YaYb] == Cov(Ya, Yb); wide sketch -> near-exact.
        d, n = 12, 600
        data = rng.standard_normal((n, d))
        est = make_estimator(n)
        sk = CovarianceSketcher(d, est, mode="covariance", batch_size=50)
        sk.fit_dense(data)
        truth = triu_pair_values(data.T @ data / n)
        got = sk.estimate_keys(np.arange(truth.size))
        np.testing.assert_allclose(got, truth, atol=1e-8)

    def test_correlation_mode_estimates_correlations(self, rng):
        d, n = 10, 4000
        scales = np.linspace(1, 10, d)
        data = rng.standard_normal((n, d)) * scales
        data[:, 1] = data[:, 0] * 0.8 + data[:, 1] * 0.6  # plant corr ~0.8
        est = make_estimator(n)
        sk = CovarianceSketcher(d, est, mode="correlation", batch_size=100)
        sk.fit_dense(data)
        truth = triu_pair_values(np.corrcoef(data.T))
        got = sk.estimate_keys(np.arange(truth.size))
        assert np.abs(got - truth).max() < 0.1
        # the planted pair is clearly the top estimate
        assert np.argmax(got) == np.argmax(truth)


def _rows(rng):
    """256 Gaussian rows of 24 features: one planted pair, small means."""
    data = rng.standard_normal((256, 24)) + rng.uniform(-0.05, 0.05, size=24)
    data[:, 5] = 0.8 * data[:, 2] + 0.6 * data[:, 5]
    return data


def _spec(method):
    schedule = (64, 0.01, 0.1, 256) if method == "ascs" else None
    return ShardSpec(
        dim=24,
        total_samples=256,
        method=method,
        num_tables=3,
        num_buckets=128,
        seed=9,
        mode="correlation",
        track_top=16,
        schedule=schedule,
    )


def _state(sketcher):
    est = sketcher.estimator
    keys = np.arange(sketcher.num_pairs)
    return (
        est.sketch.table.tobytes(),
        sketcher.estimate_keys(keys).tobytes(),
        sketcher.sparse_moments._sum.tobytes(),
        sketcher.sparse_moments._sumsq.tobytes(),
        sketcher.samples_seen,
        est.updates_examined,
        est.updates_accepted,
    )


class TestOneIngestPath:
    """Dense rows are full-width samples: whatever the route they take
    into a sketcher, the state is the same."""

    @pytest.mark.parametrize("method", ["cs", "ascs"])
    def test_dense_fit_resumed_from_a_shard_matches_one_fit(self, method, rng):
        data = _rows(rng)
        spec = _spec(method)
        whole = spec.build_sketcher().fit_dense(data)

        first = spec.build_sketcher().fit_dense(data[:128])
        resumed = restore_sketcher(extract_shard_result(first, spec))
        resumed.fit_dense(data[128:])
        assert _state(resumed) == _state(whole)

    @pytest.mark.parametrize("method", ["cs", "ascs"])
    def test_dense_then_full_width_samples_matches_one_fit(self, method, rng):
        data = _rows(rng)
        spec = _spec(method)
        whole = spec.build_sketcher().fit_dense(data)

        mixed = spec.build_sketcher().fit_dense(data[:128])
        features = np.arange(data.shape[1])
        mixed.fit_sparse([(features, row) for row in data[128:]])
        assert _state(mixed) == _state(whole)

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    @pytest.mark.parametrize("method", ["cs", "ascs", "asketch"])
    def test_fit_dense_restates_the_dense_arithmetic(self, method, mode, rng):
        """Per batch: the batch's ``X^T X`` over every pair key, scaled in
        correlation mode by the std of the rows seen so far."""
        data = _rows(rng)
        n, d = data.shape
        batch_size, std_floor = 32, 1e-6

        def estimator():
            if method == "ascs":
                schedule = ThresholdSchedule(64, 0.01, 0.1, n)
                sketch = CountSketch(3, 128, seed=9)
                return ActiveSamplingCountSketch(sketch, n, schedule)
            if method == "asketch":
                sketch = AugmentedSketch(3, 120, filter_capacity=8, seed=9)
                return SketchEstimator(sketch, n)
            return SketchEstimator(CountSketch(3, 128, seed=9), n)

        sketcher = CovarianceSketcher(
            d, estimator(), mode=mode, batch_size=batch_size, std_floor=std_floor
        )
        sketcher.fit_dense(data)

        restated = estimator()
        keys = np.arange(d * (d - 1) // 2)
        for start in range(0, n, batch_size):
            batch = data[start : start + batch_size]
            if mode == "correlation":
                std = data[: start + batch.shape[0]].std(axis=0)
                batch = batch / np.maximum(std, std_floor)
            restated.ingest(keys, dense_batch_products(batch), batch.shape[0])

        got = sketcher.estimate_keys(keys)
        want = restated.estimate(keys)
        if mode == "covariance":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    def test_fit_dense_is_fit_sparse_of_full_width_samples(self, mode, rng):
        data = _rows(rng)
        spec = _spec("cs")
        dense = CovarianceSketcher(
            spec.dim, spec.build_estimator(), mode=mode, batch_size=48
        )
        sparse = CovarianceSketcher(
            spec.dim, spec.build_estimator(), mode=mode, batch_size=48
        )
        dense.fit_dense(data)
        features = np.arange(spec.dim)
        sparse.fit_sparse([(features, row) for row in data])
        assert _state(dense) == _state(sparse)

    def test_fit_routes_an_array_through_fit_dense(self, rng):
        data = _rows(rng)
        spec = _spec("ascs")
        assert _state(spec.build_sketcher().fit(data)) == _state(
            spec.build_sketcher().fit_dense(data)
        )

    def test_one_row_is_one_sample(self, rng):
        row = _rows(rng)[0]
        sketcher = _spec("cs").build_sketcher().fit_dense(row)
        assert sketcher.samples_seen == 1
        assert sketcher.sparse_moments.count == 1
        np.testing.assert_array_equal(sketcher.sparse_moments.mean, row)

    @pytest.mark.parametrize("method", ["cs", "ascs"])
    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_a_non_finite_last_row_refuses_every_row(self, method, bad_value, rng):
        """The rows go in batch by batch, but the check covers them all
        first: the bad last row refuses the seven batches before it."""
        spec = _spec(method)
        sketcher = spec.build_sketcher().fit_dense(_rows(rng)[:32])
        before = _state(sketcher)
        rows = _rows(rng)
        rows[-1, -1] = bad_value
        with pytest.raises(InvalidBatchError, match="finite"):
            sketcher.fit_dense(rows)
        assert _state(sketcher) == before

    def test_fit_dense_holds_no_second_copy_of_its_rows(self, rng):
        """Checked whole, then applied batch by batch: the fit's peak
        allocation stays well under the size of the rows themselves."""
        n, d = 5000, 200
        rows = rng.standard_normal((n, d))
        sketcher = CovarianceSketcher(
            d, make_estimator(n + 32, tables=3, buckets=1024), mode="covariance"
        )
        sketcher.fit_dense(rows[:32])  # builds the full-width key cache
        tracemalloc.start()
        try:
            sketcher.fit_dense(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 2

    def test_moments_are_the_rows_moments(self, rng):
        """The one tracker a sketcher keeps sees every dense row."""
        data = _rows(rng)
        sketcher = _spec("cs").build_sketcher().fit_dense(data)
        moments = sketcher.sparse_moments
        assert moments.count == data.shape[0]
        np.testing.assert_allclose(moments.mean, data.mean(axis=0), atol=1e-14)
        np.testing.assert_allclose(moments.std(), data.std(axis=0), rtol=1e-12)


class TestSparsePath:
    def test_sparse_equals_dense_on_same_data(self, rng):
        d, n = 15, 200
        dense = np.zeros((n, d))
        samples = []
        for row in range(n):
            nnz = rng.integers(2, 6)
            idx = np.sort(rng.choice(d, size=nnz, replace=False))
            vals = rng.standard_normal(nnz)
            dense[row, idx] = vals
            samples.append((idx, vals))

        est_a = make_estimator(n, seed=3)
        sk_a = CovarianceSketcher(d, est_a, mode="covariance", batch_size=16)
        sk_a.fit_dense(dense)

        est_b = make_estimator(n, seed=3)
        sk_b = CovarianceSketcher(d, est_b, mode="covariance", batch_size=16)
        sk_b.fit_sparse(iter(samples))

        keys = np.arange(d * (d - 1) // 2)
        np.testing.assert_allclose(
            sk_a.estimate_keys(keys), sk_b.estimate_keys(keys), atol=1e-8
        )

    def test_csr_dispatch(self, rng):
        d, n = 15, 100
        dense = (rng.random((n, d)) < 0.2) * rng.standard_normal((n, d))
        csr = sp.csr_matrix(dense)

        est_a = make_estimator(n, seed=4)
        CovarianceSketcher(d, est_a, mode="covariance", batch_size=8).fit(csr)
        est_b = make_estimator(n, seed=4)
        CovarianceSketcher(d, est_b, mode="covariance", batch_size=8).fit_dense(dense)

        keys = np.arange(d * (d - 1) // 2)
        np.testing.assert_allclose(
            est_a.estimate(keys), est_b.estimate(keys), atol=1e-8
        )

    def test_fit_dispatch_rejects_unknown(self):
        sk = CovarianceSketcher(10, make_estimator(5))
        with pytest.raises(TypeError):
            sk.fit(42)

    def test_samples_seen_tracked(self, rng):
        d, n = 8, 37
        sk = CovarianceSketcher(d, make_estimator(n), batch_size=10)
        sk.fit_dense(rng.standard_normal((n, d)))
        assert sk.samples_seen == n


class TestRetrieval:
    def test_top_pairs_scan(self, rng):
        d, n = 20, 2000
        data = rng.standard_normal((n, d))
        data[:, 3] = data[:, 7] * 0.9 + 0.436 * data[:, 3]
        est = make_estimator(n)
        sk = CovarianceSketcher(d, est, mode="correlation", batch_size=100)
        sk.fit_dense(data)
        i, j, vals = sk.top_pairs(1, scan=True)
        assert (int(i[0]), int(j[0])) == (3, 7)
        assert vals[0] == pytest.approx(0.9, abs=0.1)

    def test_top_pairs_tracker(self, rng):
        d, n = 20, 2000
        data = rng.standard_normal((n, d))
        data[:, 3] = data[:, 7] * 0.9 + 0.436 * data[:, 3]
        est = make_estimator(n, track=50)
        sk = CovarianceSketcher(d, est, mode="correlation", batch_size=100)
        sk.fit_dense(data)
        i, j, _ = sk.top_pairs(1, scan=False)
        assert (int(i[0]), int(j[0])) == (3, 7)

    def test_estimate_pairs(self, rng):
        d, n = 10, 500
        data = rng.standard_normal((n, d))
        est = make_estimator(n)
        sk = CovarianceSketcher(d, est, mode="covariance", batch_size=50)
        sk.fit_dense(data)
        vals = sk.estimate_pairs(np.array([0, 1]), np.array([5, 2]))
        assert vals.shape == (2,)

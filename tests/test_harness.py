"""Tests for the evaluation harness (repro.evaluation.harness)."""

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.data.synthetic import BlockCorrelationModel
from repro.data.url_like import URLLikeStream
from repro.evaluation.harness import (
    rank_all_pairs,
    run_method,
    run_sparse_method,
    sparse_pilot,
)
from repro.sketch.count_sketch import CountSketch


@pytest.fixture(scope="module")
def small_dense():
    model = BlockCorrelationModel.from_alpha(60, alpha=0.02, seed=21)
    return model, model.sample(800)


class TestRankAllPairs:
    def test_sorted_and_complete(self, small_dense):
        _, data = small_dense
        n, d = data.shape
        est = SketchEstimator(CountSketch(5, 4096, seed=1), n)
        sk = CovarianceSketcher(d, est, batch_size=100)
        sk.fit_dense(data)
        keys, vals = rank_all_pairs(sk)
        p = d * (d - 1) // 2
        assert keys.size == p
        assert sorted(keys.tolist()) == list(range(p))
        assert (np.diff(vals) <= 1e-12).all()


class TestRunMethod:
    @pytest.mark.parametrize("method", ["cs", "ascs", "asketch"])
    def test_all_methods_run(self, small_dense, method):
        _, data = small_dense
        run = run_method(data, method, 3000, alpha=0.02, seed=1, batch_size=100)
        assert run.method == method
        assert run.ranked_keys.size == 60 * 59 // 2
        assert run.fit_seconds > 0
        assert 0 < run.acceptance_rate <= 1.0

    def test_ascs_attaches_plan(self, small_dense):
        _, data = small_dense
        run = run_method(data, "ascs", 3000, alpha=0.02, seed=1, batch_size=100)
        assert run.plan is not None

    def test_explicit_u_sigma(self, small_dense):
        _, data = small_dense
        run = run_method(
            data, "ascs", 3000, alpha=0.02, u=0.6, sigma=1.0, seed=1, batch_size=100
        )
        assert run.plan is not None

    def test_ascs_filters(self, small_dense):
        _, data = small_dense
        run = run_method(data, "ascs", 3000, alpha=0.02, seed=1, batch_size=50)
        assert run.acceptance_rate < 1.0

    def test_recovers_planted_signals(self, small_dense):
        model, data = small_dense
        run = run_method(data, "ascs", 6000, alpha=model.alpha, seed=2, batch_size=50)
        top = set(run.ranked_keys[:10].tolist())
        planted = set(model.signal_pairs().tolist())
        assert len(top & planted) >= 7


class TestSparsePilot:
    def test_positive_sigma(self):
        stream = URLLikeStream(dim=500, num_samples=300, num_groups=5,
                               group_size=4, background_nnz=10, seed=3)
        sigma = sparse_pilot(iter(stream), 500, num_pilot=100)
        assert sigma > 0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            sparse_pilot(iter([]), 100)


class TestRunSparseMethod:
    @pytest.mark.parametrize("method", ["cs", "ascs"])
    def test_runs_and_returns_topk(self, method):
        stream = URLLikeStream(dim=800, num_samples=600, num_groups=8,
                               group_size=4, group_prob=0.5, member_prob=0.95,
                               background_nnz=12, seed=5)
        keys, ests, run = run_sparse_method(
            lambda: iter(stream), 800, 600, method, 2000,
            alpha=1e-4, u=0.5, top_k=20, track_top=200, seed=1,
        )
        assert keys.size <= 20
        assert run.fit_seconds > 0
        if method == "ascs":
            assert run.plan is not None

    def test_finds_planted_pairs(self):
        stream = URLLikeStream(dim=800, num_samples=1500, num_groups=8,
                               group_size=4, group_prob=0.6, member_prob=0.95,
                               background_nnz=12, seed=6)
        keys, _, _ = run_sparse_method(
            lambda: iter(stream), 800, 1500, "cs", 20_000,
            alpha=1e-4, u=0.5, top_k=30, track_top=500, seed=2,
        )
        planted = set(stream.planted_pair_keys().tolist())
        overlap = len(set(keys.tolist()) & planted)
        assert overlap >= 15

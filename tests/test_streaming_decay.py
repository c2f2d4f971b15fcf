"""repro.streaming decay layer: moments, estimator, drift recovery, serving.

Includes the acceptance property of the streaming subsystem: after an
abrupt drift, the decayed estimator's top-pair F1 against the *current*
signal set beats the no-decay baseline (seeded, deterministic).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import build_estimator, sketch_correlations
from repro.covariance.pipeline import CovarianceSketcher
from repro.covariance.running import SparseMoments
from repro.data.drift import AbruptShiftStream
from repro.evaluation.metrics import max_f1_score
from repro.hashing.pairs import pair_to_index
from repro.obs import MetricsRegistry
from repro.serving import ServingEstimator, SketchSnapshot
from repro.sketch import CountSketch, DecayedSketch
from repro.streaming import (
    DecayedSketchEstimator,
    DecayedSparseMoments,
    make_decaying_sketcher,
)


def _brute_decayed_stats(batches, gamma, dim):
    """Reference decayed mean/variance/weight by explicit recomputation."""
    weight = 0.0
    total = np.zeros(dim)
    total_sq = np.zeros(dim)
    stats = []
    for batch in batches:
        b = batch.shape[0]
        factor = gamma**b
        weight = weight * factor + b
        total = total * factor + batch.sum(axis=0)
        total_sq = total_sq * factor + (batch**2).sum(axis=0)
        mean = total / weight
        var = np.maximum(total_sq / weight - mean**2, 0.0)
        stats.append((weight, mean.copy(), var.copy()))
    return stats


class TestDecayedMoments:
    def test_sparse_matches_brute_force(self, rng):
        gamma, dim = 0.8, 40
        moments = DecayedSparseMoments(dim, gamma)
        dense_batches = []
        for _ in range(10):
            b = int(rng.integers(1, 5))
            batch = np.zeros((b, dim))
            nnz = int(rng.integers(1, 6))
            # Unique indices within each row (the sparse-sample contract),
            # so per-entry squares equal per-feature squares.
            idx_rows = [
                rng.choice(dim, size=nnz, replace=False).astype(np.int64)
                for _ in range(b)
            ]
            val = rng.standard_normal(b * nnz)
            for row in range(b):
                batch[row, idx_rows[row]] = val[row * nnz : (row + 1) * nnz]
            moments.update_batch(
                np.concatenate(idx_rows), val, num_samples=b
            )
            dense_batches.append(batch)
        weight, mean, var = _brute_decayed_stats(dense_batches, gamma, dim)[-1]
        assert moments.weight == pytest.approx(weight)
        np.testing.assert_allclose(moments.mean, mean, atol=1e-10)
        np.testing.assert_allclose(moments.variance(), var, atol=1e-10)

    def test_gamma_one_matches_undecayed_trackers(self, rng):
        dim = 9
        sparse_decayed = DecayedSparseMoments(dim, 1.0)
        sparse_plain = SparseMoments(dim)
        idx = rng.integers(0, dim, size=50).astype(np.int64)
        val = rng.standard_normal(50)
        sparse_decayed.update_batch(idx, val, num_samples=10)
        sparse_plain.update_batch(idx, val, num_samples=10)
        np.testing.assert_allclose(
            sparse_decayed.mean, sparse_plain.mean, atol=1e-15
        )

    def test_lazy_flush_invariance(self, rng):
        """Tiny scales trigger accumulator flushes without observable change."""
        moments = DecayedSparseMoments(5, 0.5)
        indices = np.tile(np.arange(5), 16)
        for _ in range(8):
            # 16 halvings per batch of 16 full-width samples.
            moments.update_batch(indices, rng.standard_normal(80), num_samples=16)
        assert moments.flushes == 2  # the scale passes 2^-40 at 2^-48, twice
        assert np.isfinite(moments.mean).all()
        # Geometric sum 16 * (1 + 0.5^16 + 0.5^32 + ...) ≈ 16.000244.
        assert 16.0 < moments.weight < 16.001

    def test_dense_rows_match_brute_force(self, rng):
        """A decaying sketcher's one tracker ages by each batch's sample
        count, dense rows included."""
        gamma, dim, batch = 0.9, 12, 8
        rows = rng.standard_normal((61, dim)) + 0.5
        sketcher = make_decaying_sketcher(
            dim, 64, gamma=gamma, num_buckets=256, batch_size=batch
        )
        sketcher.fit_dense(rows)
        batches = [rows[i : i + batch] for i in range(0, rows.shape[0], batch)]
        weight, mean, var = _brute_decayed_stats(batches, gamma, dim)[-1]
        moments = sketcher.sparse_moments
        assert moments.count == rows.shape[0]
        assert moments.weight == pytest.approx(weight, rel=1e-12)
        np.testing.assert_allclose(moments.mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(moments.variance(), var, rtol=0, atol=1e-12)

    def test_flush_gauge_reads_the_one_tracker(self, rng):
        registry = MetricsRegistry()
        sketcher = make_decaying_sketcher(
            5, 128, gamma=0.5, num_buckets=64, batch_size=16, registry=registry
        )
        sketcher.fit_dense(rng.standard_normal((128, 5)))
        flushes = sketcher.sparse_moments.flushes
        assert flushes == 2  # 2^-16 per batch passes 2^-40 at 2^-48, twice
        assert registry.get("repro_decay_flushes").value == flushes


class TestDecayedEstimator:
    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    def test_fit_dense_equals_full_width_samples(self, mode, rng):
        dim = 16
        rows = rng.standard_normal((70, dim))

        def build():
            return make_decaying_sketcher(
                dim, 128, gamma=0.97, num_buckets=512, batch_size=16, mode=mode
            )

        dense, sparse = build(), build()
        dense.fit_dense(rows)
        sparse.fit_sparse([(np.arange(dim), row) for row in rows])
        keys = np.arange(dim * (dim - 1) // 2)
        assert dense.estimate_keys(keys).tobytes() == sparse.estimate_keys(
            keys
        ).tobytes()
        assert dense.sparse_moments.weight == sparse.sparse_moments.weight
        np.testing.assert_array_equal(
            dense.sparse_moments.mean, sparse.sparse_moments.mean
        )

    def test_estimates_are_decayed_means(self):
        """On collision-free keys the estimate equals the decayed mean."""
        gamma = 0.5
        sketch = DecayedSketch(CountSketch(5, 8192, seed=11), gamma)
        est = DecayedSketchEstimator(sketch, total_samples=4)
        keys = np.asarray([123], dtype=np.int64)
        est.ingest(keys, np.asarray([8.0]), num_samples=1)
        est.ingest(keys, np.asarray([2.0]), num_samples=1)
        # decayed sum = 8*0.5 + 2 = 6; decayed weight = 1*0.5 + 1 = 1.5
        assert est.estimate(keys)[0] == pytest.approx(6.0 / 1.5)

    def test_gamma_one_matches_plain_estimator(self, rng):
        keys = rng.integers(0, 10**6, size=600).astype(np.int64)
        values = rng.standard_normal(600)
        plain = build_estimator("cs", 600, 5, 2048, seed=4, track_top=64)
        decayed = DecayedSketchEstimator(
            DecayedSketch(CountSketch(5, 2048, seed=4), 1.0),
            600,
            track_top=64,
        )
        for start in range(0, 600, 50):
            sl = slice(start, start + 50)
            plain.ingest(keys[sl], values[sl], num_samples=50)
            decayed.ingest(keys[sl], values[sl], num_samples=50)
        np.testing.assert_allclose(
            decayed.estimate(keys), plain.estimate(keys), rtol=1e-12
        )

    def test_requires_decayed_sketch(self):
        with pytest.raises(TypeError, match="DecayedSketch"):
            DecayedSketchEstimator(CountSketch(3, 64), 10)

    def test_snapshot_bit_identical_to_live_estimates(self, rng):
        sketcher = make_decaying_sketcher(
            60, 1024, gamma=0.99, num_buckets=2048, seed=9,
            mode="correlation", track_top=64,
        )
        sketcher.fit_dense(rng.standard_normal((256, 60)))
        snapshot = SketchSnapshot.from_sketcher(sketcher, top_index=64)
        keys = np.arange(sketcher.num_pairs, dtype=np.int64)[:500]
        np.testing.assert_array_equal(
            snapshot.query_keys(keys), sketcher.estimate_keys(keys)
        )
        # And through the save/load path (the registry's 'decayed' kind).
        assert snapshot.meta()["method"] == "DecayedCS"

    def test_serving_refresh_exposes_decay(self, rng):
        sketcher = make_decaying_sketcher(
            40, 2048, gamma=0.98, num_buckets=1024, seed=2, track_top=32
        )
        serving = ServingEstimator(sketcher, top_index=32)
        serving.ingest_dense(rng.standard_normal((64, 40)))
        serving.refresh()
        stats = serving.stats()
        assert stats["decay"] == pytest.approx(0.98)
        assert stats["window_span"] is None


class TestDriftRecovery:
    def test_decayed_beats_baseline_after_abrupt_drift(self):
        """Acceptance: post-drift F1, decayed > no-decay, fixed seeds."""
        dim, n = 120, 4096
        stream = AbruptShiftStream(dim, n, alpha=0.02, seed=11)
        data = stream.generate()
        truth_now = stream.signal_pairs_at(n - 1)

        def top_f1(sketcher):
            i, j, _ = sketcher.top_pairs(truth_now.size)
            return max_f1_score(pair_to_index(i, j, dim), truth_now)

        baseline = CovarianceSketcher(
            dim,
            build_estimator("cs", n, 5, 2048, seed=3, track_top=256),
            mode="correlation",
            batch_size=32,
        )
        baseline.fit_dense(data)
        decayed = make_decaying_sketcher(
            dim, n, gamma=1.0 - 1.0 / 256, num_tables=5, num_buckets=2048,
            seed=3, mode="correlation", batch_size=32, track_top=256,
        )
        decayed.fit_dense(data)

        f1_baseline = top_f1(baseline)
        f1_decayed = top_f1(decayed)
        # The margin is large by construction (half the stream is stale);
        # assert a real gap, not just a tie-break.
        assert f1_decayed >= f1_baseline + 0.2
        assert f1_decayed >= 0.9

    def test_sketch_correlations_decay_parameter(self):
        dim, n = 80, 1024
        stream = AbruptShiftStream(dim, n, alpha=0.02, seed=5)
        data = stream.generate()
        truth_now = stream.signal_pairs_at(n - 1)
        result = sketch_correlations(
            data,
            memory_floats=5 * 2048,
            method="cs",
            decay=1.0 - 1.0 / 128,
            top_k=truth_now.size,
            seed=1,
        )
        keys = pair_to_index(result.pairs_i, result.pairs_j, dim)
        assert max_f1_score(keys, truth_now) >= 0.8
        assert result.sketcher.decay == pytest.approx(1.0 - 1.0 / 128)

    def test_sketch_correlations_decay_rejects_other_methods(self):
        data = np.zeros((64, 10))
        with pytest.raises(ValueError, match="method='cs'"):
            sketch_correlations(
                data, memory_floats=1024, method="ascs", decay=0.99
            )


class TestFlushBoundary:
    """Pin the lazy-scale flush semantics exactly at ``_FLUSH_BELOW``.

    The flush bound is ``2.0**-40`` and ``_age`` flushes on strict ``<``:
    with ``gamma = 0.5`` and one-sample batches the scale walks down the
    exact powers of two and *lands on* the boundary at step 40 without
    flushing; step 41 crosses it and flushes exactly once.  Because aging
    runs (and possibly flushes) *before* the incoming values are divided
    by the scale, the accumulated statistics are exact — bit-identical to
    an eager reference — on both sides of the boundary.  This test exists
    so any future reordering of the fold/flush steps (e.g. dividing by
    the pre-flush scale) fails loudly instead of silently skewing every
    post-flush estimate.
    """

    GAMMA = 0.5
    FLUSH_BELOW = 2.0**-40

    @staticmethod
    def _reference(values, gamma):
        """Eager decayed sum/sumsq/weight — exact for these inputs."""
        total = 0.0
        total_sq = 0.0
        weight = 0.0
        for v in values:
            total = total * gamma + v
            total_sq = total_sq * gamma + v * v
            weight = weight * gamma + 1.0
        return total, total_sq, weight

    def _check_sparse(self, steps):
        rng = np.random.default_rng(9)
        values = rng.integers(-3, 4, size=steps).astype(np.float64)
        m = DecayedSparseMoments(1, gamma=self.GAMMA)
        for v in values:
            m.update_batch(np.array([0]), np.array([v]), 1)
        total, total_sq, weight = self._reference(values, self.GAMMA)
        # Exact equality, not approx: every operation on this walk is a
        # power-of-two scaling of exactly representable values.
        assert m.weight == weight
        assert m._sum[0] * m._scale == total
        assert m._sumsq[0] * m._scale == total_sq
        mean = total / weight
        assert m.mean[0] == mean
        assert m.variance()[0] == max(total_sq / weight - mean * mean, 0.0)
        return m

    def test_exact_boundary_does_not_flush(self):
        m = self._check_sparse(40)
        # Landed exactly on the bound: strict < means no flush yet.
        assert m._scale == self.FLUSH_BELOW
        assert m.flushes == 0

    def test_one_past_boundary_flushes_once_exactly(self):
        m = self._check_sparse(41)
        # Crossed the bound during _age: flushed once, scale reset, and
        # (per _check_sparse) every statistic still matches the eager
        # reference exactly — the flush is invisible to estimates.
        assert m.flushes == 1
        assert m._scale == 1.0

    def test_batch_landing_exactly_on_boundary_in_one_age(self):
        # A single 40-sample age lands on the bound in one multiplication
        # (0.5**40 is exact): still no flush, and the fold divides the
        # incoming values by the boundary scale exactly.
        m = DecayedSparseMoments(1, gamma=self.GAMMA)
        m.update_batch(np.array([0]), np.array([3.0]), 40)
        assert m.flushes == 0
        assert m._scale == self.FLUSH_BELOW
        assert m._sum[0] * m._scale == 3.0
        # The very next age crosses the bound and flushes exactly once.
        m.update_batch(np.array([0]), np.array([1.0]), 1)
        assert m.flushes == 1
        assert m._sum[0] * m._scale == 3.0 * self.GAMMA + 1.0

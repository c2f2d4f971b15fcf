"""Tests for repro.serving.snapshot: frozen views, indexes, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.distributed import sketch_shard
from repro.distributed.shard import ShardSpec
from repro.hashing.pairs import pair_to_index
from repro.serving import CheckpointManager, SketchSnapshot
from repro.sketch.count_sketch import CountSketch

DIM = 60


def _make_samples(n, rng, dim=DIM, nnz=6):
    return [
        (
            np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64),
            rng.standard_normal(nnz),
        )
        for _ in range(n)
    ]


@pytest.fixture
def fitted_sketcher(rng):
    estimator = SketchEstimator(
        CountSketch(3, 2048, seed=9), total_samples=200, track_top=256
    )
    sketcher = CovarianceSketcher(DIM, estimator, mode="covariance", batch_size=16)
    sketcher.fit_sparse(iter(_make_samples(200, rng)))
    return sketcher


@pytest.fixture
def snapshot(fitted_sketcher):
    return SketchSnapshot.from_sketcher(fitted_sketcher, top_index=100)


class TestBitIdentity:
    """The acceptance bar: snapshot answers == estimator.estimate, exactly."""

    def test_query_pairs_matches_estimator(self, snapshot, fitted_sketcher, rng):
        i = rng.integers(0, DIM - 1, size=200)
        j = rng.integers(i + 1, DIM, size=200)
        keys = pair_to_index(i, j, DIM)
        direct = fitted_sketcher.estimator.estimate(keys)
        np.testing.assert_array_equal(snapshot.query_pairs(i, j), direct)
        np.testing.assert_array_equal(snapshot.query_keys(keys), direct)

    def test_top_neighbors_matches_estimator(self, snapshot, fitted_sketcher):
        for feature in np.unique(snapshot.index_i)[:10].tolist():
            partners, estimates = snapshot.top_neighbors(feature, 5)
            assert partners.size > 0
            lo = np.minimum(feature, partners)
            hi = np.maximum(feature, partners)
            direct = fitted_sketcher.estimator.estimate(
                pair_to_index(lo, hi, DIM)
            )
            np.testing.assert_array_equal(estimates, direct)

    def test_top_pairs_matches_estimator(self, snapshot, fitted_sketcher):
        i, j, estimates = snapshot.top_pairs(20)
        direct = fitted_sketcher.estimator.estimate(pair_to_index(i, j, DIM))
        np.testing.assert_array_equal(estimates, direct)
        # rank-desc order
        assert np.all(np.diff(estimates) <= 0)


class TestImmutability:
    def test_live_mutation_never_changes_snapshot(self, fitted_sketcher, rng):
        snapshot = SketchSnapshot.from_sketcher(fitted_sketcher, top_index=50)
        probe = np.arange(100, dtype=np.int64)
        before = snapshot.query_keys(probe).copy()
        index_before = snapshot.index_estimates.copy()
        # Keep mutating the live estimator across several batches.
        fitted_sketcher.fit_sparse(iter(_make_samples(64, rng)))
        fitted_sketcher.estimator.ingest(probe, np.full(100, 17.0))
        np.testing.assert_array_equal(snapshot.query_keys(probe), before)
        np.testing.assert_array_equal(snapshot.index_estimates, index_before)

    def test_snapshot_sketch_rejects_writes(self, snapshot):
        with pytest.raises((ValueError, RuntimeError)):
            snapshot.sketch.insert(np.array([1]), np.array([1.0]))

    def test_index_arrays_read_only(self, snapshot):
        for array in (
            snapshot.index_keys,
            snapshot.index_estimates,
            snapshot.nbr_feature,
            snapshot.nbr_partner,
        ):
            assert not array.flags.writeable


class TestConstructors:
    def test_from_result(self):
        from repro import sketch_correlations
        from repro.data import BlockCorrelationModel

        model = BlockCorrelationModel.from_alpha(40, alpha=0.05, seed=2)
        result = sketch_correlations(
            model.sample(400), memory_floats=4000, method="cs", top_k=10
        )
        snap = result.snapshot(top_index=64)
        keys = snap.index_keys
        np.testing.assert_array_equal(
            snap.query_keys(keys), result.estimator.estimate(keys)
        )
        assert snap.mode == "correlation"

    def test_from_shard_results(self, rng):
        spec = ShardSpec(
            dim=DIM,
            total_samples=128,
            method="cs",
            num_tables=3,
            num_buckets=512,
            seed=4,
            track_top=128,
            batch_size=16,
        )
        samples = _make_samples(128, rng)
        shards = [
            sketch_shard(
                spec, samples[:64], shard_index=0, num_shards=2, start=0
            ),
            sketch_shard(
                spec, samples[64:], shard_index=1, num_shards=2, start=64
            ),
        ]
        snap = SketchSnapshot.from_shard_results(shards, top_index=32)
        # Equivalent to snapshotting the explicitly merged sketcher.
        from repro.distributed import merge_shard_results

        merged = merge_shard_results(shards)
        probe = np.arange(200, dtype=np.int64)
        np.testing.assert_array_equal(
            snap.query_keys(probe), merged.estimator.estimate(probe)
        )
        assert snap.samples_seen == 128

    def test_from_sharded_fit(self, rng):
        from repro.distributed import fit_sparse_sharded

        fit = fit_sparse_sharded(
            _make_samples(96, rng),
            DIM,
            num_tables=3,
            num_buckets=512,
            seed=8,
            track_top=64,
            batch_size=16,
            n_workers=2,
            backend="serial",
        )
        snap = fit.snapshot(top_index=32)
        probe = np.arange(150, dtype=np.int64)
        np.testing.assert_array_equal(
            snap.query_keys(probe), fit.estimator.estimate(probe)
        )

    def test_tracker_path_without_scan(self, fitted_sketcher):
        snap = SketchSnapshot.from_sketcher(
            fitted_sketcher, top_index=50, scan=False
        )
        assert not snap.index_exact
        assert snap.index_size > 0
        # Tracker candidates re-queried against the frozen sketch.
        np.testing.assert_array_equal(
            snap.index_estimates, snap.query_keys(snap.index_keys)
        )


class TestRangeQueries:
    def test_pairs_above_matches_mask(self, snapshot):
        threshold = float(np.median(snapshot.index_rank))
        i, j, est = snapshot.pairs_above(threshold)
        expected = int(np.count_nonzero(snapshot.index_rank >= threshold))
        assert i.size == expected
        assert np.all(est[np.argsort(-est, kind="stable")] == est)

    def test_pairs_above_limit(self, snapshot):
        i, j, est = snapshot.pairs_above(-np.inf, limit=7)
        assert i.size == 7

    def test_pairs_in_range(self, snapshot):
        rank = snapshot.index_rank
        lo, hi = float(np.quantile(rank, 0.25)), float(np.quantile(rank, 0.75))
        i, j, est = snapshot.pairs_in_range(lo, hi)
        mask = (rank >= lo) & (rank < hi)
        assert i.size == int(np.count_nonzero(mask))
        with pytest.raises(ValueError):
            snapshot.pairs_in_range(hi, lo)

    def test_pairs_in_range_half_open_at_boundaries(self, snapshot):
        # Exact rank values as bounds: hi is exclusive, lo inclusive, so
        # paging [a,b), [b,c) never double-counts a boundary pair.
        rank = snapshot.index_rank
        lo, hi = float(rank[10]), float(rank[3])
        i, j, est = snapshot.pairs_in_range(lo, hi)
        mask = (rank >= lo) & (rank < hi)
        assert i.size == int(np.count_nonzero(mask))
        cut = float(rank[5])
        low_page = snapshot.pairs_in_range(lo, cut)[0].size
        high_page = snapshot.pairs_in_range(cut, hi)[0].size
        assert low_page + high_page == i.size

    def test_query_keys_rejects_out_of_range(self, snapshot):
        with pytest.raises(ValueError, match="pair keys"):
            snapshot.query_keys(np.asarray([-1], dtype=np.int64))
        with pytest.raises(ValueError, match="pair keys"):
            snapshot.query_keys(
                np.asarray([snapshot.num_pairs], dtype=np.int64)
            )


class TestPersistence:
    def test_round_trip_exact(self, snapshot, tmp_path):
        path = tmp_path / "snap.npz"
        snapshot.save(path)
        loaded = SketchSnapshot.load(path)
        probe = np.arange(300, dtype=np.int64)
        np.testing.assert_array_equal(
            loaded.query_keys(probe), snapshot.query_keys(probe)
        )
        np.testing.assert_array_equal(loaded.index_keys, snapshot.index_keys)
        np.testing.assert_array_equal(
            loaded.nbr_partner, snapshot.nbr_partner
        )
        assert loaded.meta()["dim"] == snapshot.meta()["dim"]
        assert loaded.snapshot_id != snapshot.snapshot_id  # fresh identity

    def test_save_leaves_no_temp_files(self, snapshot, tmp_path):
        snapshot.save(tmp_path / "snap.npz")
        snapshot.save(tmp_path / "snap.npz")  # overwrite is atomic too
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["snap.npz"]

    def test_loaded_snapshot_is_frozen(self, snapshot, tmp_path):
        path = tmp_path / "snap.npz"
        snapshot.save(path)
        loaded = SketchSnapshot.load(path)
        with pytest.raises((ValueError, RuntimeError)):
            loaded.sketch.insert(np.array([1]), np.array([1.0]))


class TestCheckpointManager:
    def test_retention(self, snapshot, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpts", retain=2)
        paths = [manager.save(snapshot) for _ in range(5)]
        kept = manager.checkpoints()
        assert kept == paths[-2:]
        assert manager.latest() == paths[-1]

    def test_sequence_resumes_from_disk(self, snapshot, tmp_path):
        directory = tmp_path / "ckpts"
        first = CheckpointManager(directory, retain=3)
        first.save(snapshot)
        first.save(snapshot)
        second = CheckpointManager(directory, retain=3)
        path = second.save(snapshot)
        assert path.name == "snapshot-00000003.npz"

    def test_load_latest(self, snapshot, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpts", retain=2)
        assert manager.load_latest() is None
        manager.save(snapshot)
        loaded = manager.load_latest()
        probe = np.arange(50, dtype=np.int64)
        np.testing.assert_array_equal(
            loaded.query_keys(probe), snapshot.query_keys(probe)
        )

    def test_separate_prefixes_coexist(self, snapshot, tmp_path):
        a = CheckpointManager(tmp_path / "ckpts", retain=1, prefix="a")
        b = CheckpointManager(tmp_path / "ckpts", retain=1, prefix="b")
        a.save(snapshot)
        b.save(snapshot)
        assert len(a.checkpoints()) == 1
        assert len(b.checkpoints()) == 1

    def test_bad_args(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, retain=0)
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, prefix="has-dash")

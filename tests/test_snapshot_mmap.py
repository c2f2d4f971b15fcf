"""Zero-copy mmap snapshot loading and the read-only-mmap write guard.

A serving process must be able to map a multi-GB snapshot in O(1): the
counter table stays on disk and pages fault in per query.  These tests pin
the three guarantees that make that safe — bit-identity with the eager
load, genuine zero-copy (the table's base chain reaches an ``np.memmap``),
and the frozen-table guard firing on every write path into a mapped table.
"""

import numpy as np
import pytest

from repro.covariance.pipeline import CovarianceSketcher
from repro.core.estimator import SketchEstimator
from repro.durability.integrity import mmap_npz_array
from repro.serving.snapshot import CheckpointManager, SketchSnapshot
from repro.sketch.count_sketch import CountSketch
from repro.sketch.serialization import load_sketch, save_sketch


def _fitted_sketcher(seed=2, dim=40, n=96, dtype="float64", quantum=None):
    est = SketchEstimator(
        CountSketch(3, 512, seed=seed, dtype=dtype, quantum=quantum),
        n,
        track_top=64,
    )
    sketcher = CovarianceSketcher(dim, est, mode="covariance", batch_size=8)
    rng = np.random.default_rng(seed)
    sketcher.fit_dense(rng.standard_normal((n, dim)))
    return sketcher


def _is_memmap_backed(array) -> bool:
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


class TestMmapSnapshotLoad:
    @pytest.fixture
    def saved(self, tmp_path):
        snapshot = SketchSnapshot.from_sketcher(_fitted_sketcher())
        path = tmp_path / "snap.npz"
        snapshot.save(path)
        return snapshot, path

    def test_bit_identical_to_eager_load(self, saved):
        snapshot, path = saved
        eager = SketchSnapshot.load(path)
        mapped = SketchSnapshot.load(path, mmap=True)
        keys = np.arange(snapshot.num_pairs, dtype=np.int64)
        np.testing.assert_array_equal(
            mapped.query_keys(keys), eager.query_keys(keys)
        )
        for k in (1, 10, 50):
            for a, b in zip(mapped.top_pairs(k), eager.top_pairs(k)):
                np.testing.assert_array_equal(a, b)

    def test_table_is_memmap_backed(self, saved):
        _, path = saved
        mapped = SketchSnapshot.load(path, mmap=True)
        assert _is_memmap_backed(mapped.sketch.table)
        # The eager load materializes — the opposite invariant.
        assert not _is_memmap_backed(SketchSnapshot.load(path).sketch.table)

    def test_guard_fires_on_mapped_insert(self, saved):
        """Satellite regression: the frozen-table guard must reject writes
        into read-only mmap views, not just explicitly frozen tables."""
        _, path = saved
        mapped = SketchSnapshot.load(path, mmap=True)
        with pytest.raises(ValueError, match="read-only"):
            mapped.sketch.insert(np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError, match="read-only"):
            mapped.sketch.merge(mapped.sketch)
        with pytest.raises(ValueError, match="read-only"):
            mapped.sketch.reset()

    def test_compressed_snapshot_raises_clear_error(self, tmp_path):
        snapshot = SketchSnapshot.from_sketcher(_fitted_sketcher())
        path = tmp_path / "snap.npz"
        snapshot.save(path, compress=True)
        # Eager load still works on compressed archives...
        SketchSnapshot.load(path)
        # ...but mmap needs stored members, and must say so.
        with pytest.raises(ValueError, match="compress=False"):
            SketchSnapshot.load(path, mmap=True)

    def test_quantized_snapshot_maps(self, tmp_path):
        sketcher = _fitted_sketcher(dtype="int16", quantum=2.0**-12)
        snapshot = SketchSnapshot.from_sketcher(sketcher)
        path = tmp_path / "q.npz"
        snapshot.save(path)
        mapped = SketchSnapshot.load(path, mmap=True)
        assert mapped.sketch.storage_dtype == np.int16
        assert _is_memmap_backed(mapped.sketch.table)
        keys = np.arange(snapshot.num_pairs, dtype=np.int64)
        np.testing.assert_array_equal(
            mapped.query_keys(keys), snapshot.query_keys(keys)
        )

    def test_checkpoint_manager_mmap_load(self, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpts", retain=2)
        snapshot = SketchSnapshot.from_sketcher(_fitted_sketcher())
        manager.save(snapshot)
        mapped = manager.load_latest(mmap=True)
        assert _is_memmap_backed(mapped.sketch.table)
        keys = np.arange(min(500, snapshot.num_pairs), dtype=np.int64)
        np.testing.assert_array_equal(
            mapped.query_keys(keys), snapshot.query_keys(keys)
        )


class TestSketchLevelMmap:
    def test_load_sketch_mmap(self, tmp_path, rng):
        sketch = CountSketch(3, 256, seed=6)
        sketch.insert(rng.integers(0, 10**6, size=1000), rng.standard_normal(1000))
        path = str(tmp_path / "sk.npz")
        save_sketch(sketch, path, compress=False)
        mapped = load_sketch(path, mmap=True)
        assert _is_memmap_backed(mapped.table)
        probe = rng.integers(0, 10**6, size=300)
        np.testing.assert_array_equal(mapped.query(probe), sketch.query(probe))
        with pytest.raises(ValueError, match="read-only"):
            mapped.insert(np.array([1]), np.array([1.0]))

    def test_mmap_npz_array_matches_np_load(self, tmp_path, rng):
        path = str(tmp_path / "arrays.npz")
        table = rng.standard_normal((5, 64))
        np.savez(path, table=table, other=np.arange(3))
        mapped = mmap_npz_array(path, "table")
        np.testing.assert_array_equal(np.asarray(mapped), table)
        assert isinstance(mapped, np.memmap)
        assert not mapped.flags.writeable

    def test_mmap_loaded_asketch_is_fully_frozen(self, tmp_path, rng):
        """Regression: load_sketch(mmap=True) must freeze the whole state —
        an ASketch's exact filter is a dict the writeable flag can't guard,
        so without freeze() an insert would mutate it before the sketch
        path raises."""
        from repro.sketch.augmented import AugmentedSketch

        sketch = AugmentedSketch(3, 256, filter_capacity=4, seed=6)
        sketch.insert(np.array([5, 5, 5]), np.array([3.0, 3.0, 4.0]))
        assert 5 in sketch._filter  # hot key promoted to the exact filter
        path = str(tmp_path / "aug.npz")
        save_sketch(sketch, path, compress=False)
        mapped = load_sketch(path, mmap=True)
        filter_before = dict(mapped._filter)
        with pytest.raises(ValueError, match="read-only"):
            mapped.insert(np.array([5]), np.array([1.0]))  # all-filtered batch
        assert mapped._filter == filter_before  # nothing half-mutated

    def test_mmap_npz_array_missing_member(self, tmp_path):
        path = str(tmp_path / "arrays.npz")
        np.savez(path, a=np.arange(3))
        with pytest.raises(KeyError, match="members"):
            mmap_npz_array(path, "missing")

"""Tests for sketch serialisation (repro.sketch.serialization) and the
distributed :class:`ShardResult` round-trip."""

import dataclasses

import numpy as np
import pytest

from repro.distributed import (
    load_shard_result,
    merge_shard_results,
    save_shard_result,
    sketch_shard,
)
from repro.distributed.shard import ShardSpec
from repro.durability import DurableSketcher, IntegrityError
from repro.durability.integrity import read_npz, write_npz
from repro.sketch.base import ValueSketch
from repro.sketch.count_sketch import CountSketch
from repro.sketch.serialization import kind_registry, load_sketch, save_sketch


@pytest.fixture
def tmp_sketch_path(tmp_path):
    return str(tmp_path / "sketch.npz")


class TestCountSketchRoundTrip:
    def test_queries_identical(self, tmp_sketch_path, rng):
        sketch = CountSketch(4, 512, seed=7)
        keys = rng.integers(0, 10**9, size=2000)
        sketch.insert(keys, rng.standard_normal(2000))
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        probe = rng.integers(0, 10**9, size=500)
        np.testing.assert_array_equal(loaded.query(probe), sketch.query(probe))

    def test_further_inserts_consistent(self, tmp_sketch_path, rng):
        sketch = CountSketch(3, 256, seed=1)
        sketch.insert(np.arange(50), np.ones(50))
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        more_keys = np.arange(50)
        sketch.insert(more_keys, np.ones(50))
        loaded.insert(more_keys, np.ones(50))
        np.testing.assert_allclose(loaded.table, sketch.table, atol=1e-12)

    def test_loaded_merges_with_original_lineage(self, tmp_sketch_path):
        sketch = CountSketch(3, 256, seed=2)
        sketch.insert(np.array([5]), np.array([1.0]))
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        loaded.merge(sketch)
        assert loaded.query_single(5) == pytest.approx(2.0)

    def test_parameters_preserved(self, tmp_sketch_path):
        sketch = CountSketch(6, 123, seed=99)
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        assert loaded.num_tables == 6
        assert loaded.num_buckets == 123
        assert loaded.seed == 99


class TestDtypePreservation:
    """Counter dtypes must survive the round-trip bit-for-bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_count_sketch_dtype_exact(self, tmp_sketch_path, rng, dtype):
        sketch = CountSketch(3, 128, seed=6, dtype=dtype)
        sketch.insert(
            rng.integers(0, 10**6, size=500), rng.standard_normal(500)
        )
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        assert loaded.table.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(loaded.table, sketch.table)


class TestAugmentedSketchRoundTrip:
    def _fitted(self, rng, two_sided=False):
        from repro.sketch.augmented import AugmentedSketch

        sketch = AugmentedSketch(
            3,
            256,
            filter_capacity=8,
            seed=11,
            exchange_every=2,
            two_sided=two_sided,
        )
        keys = rng.integers(0, 10**6, size=2000)
        # A few heavy keys so the exact filter is non-trivially populated;
        # several insert calls so the periodic exchange actually runs.
        keys[:400] = keys[0] % 7
        values = np.abs(rng.standard_normal(2000)) + 0.1
        for start in range(0, 2000, 250):
            sketch.insert(
                keys[start : start + 250], values[start : start + 250]
            )
        return sketch

    def test_queries_identical(self, tmp_sketch_path, rng):
        sketch = self._fitted(rng)
        assert len(sketch._filter) > 0  # the interesting state exists
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        probe = np.concatenate(
            [sketch.filter_keys, rng.integers(0, 10**6, size=500)]
        )
        np.testing.assert_array_equal(loaded.query(probe), sketch.query(probe))

    def test_parameters_and_filter_preserved(self, tmp_sketch_path, rng):
        sketch = self._fitted(rng, two_sided=True)
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        assert loaded.filter_capacity == 8
        assert loaded.exchange_every == 2
        assert loaded.two_sided is True
        assert loaded._inserts_since_exchange == sketch._inserts_since_exchange
        assert loaded._filter == sketch._filter
        np.testing.assert_array_equal(loaded.sketch.table, sketch.sketch.table)

    def test_further_inserts_identical(self, tmp_sketch_path, rng):
        sketch = self._fitted(rng)
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        more_keys = rng.integers(0, 10**6, size=300)
        more_vals = np.abs(rng.standard_normal(300))
        sketch.insert(more_keys, more_vals)
        loaded.insert(more_keys, more_vals)
        probe = rng.integers(0, 10**6, size=300)
        np.testing.assert_array_equal(loaded.query(probe), sketch.query(probe))
        assert loaded._filter == sketch._filter

    def test_merge_after_load(self, tmp_sketch_path, rng):
        from repro.sketch.augmented import AugmentedSketch

        sketch = self._fitted(rng)
        save_sketch(sketch, tmp_sketch_path)
        loaded = load_sketch(tmp_sketch_path)
        other = AugmentedSketch(
            3, 256, filter_capacity=8, seed=11, exchange_every=2
        )
        other.insert(
            rng.integers(0, 10**6, size=200),
            np.abs(rng.standard_normal(200)),
        )
        loaded.merge(other)  # compatible lineage: must not raise


class TestErrors:
    def test_unsupported_type(self, tmp_sketch_path):
        with pytest.raises(TypeError):
            save_sketch(object(), tmp_sketch_path)

    def test_error_lists_supported_kinds(self, tmp_sketch_path):
        class UnregisteredSketch(ValueSketch):
            insert = query = reset = None
            memory_floats = 0

        with pytest.raises(TypeError) as excinfo:
            save_sketch(UnregisteredSketch(), tmp_sketch_path)
        message = str(excinfo.value)
        for name in ("CountSketch", "AugmentedSketch", "HierarchicalCountSketch"):
            assert name in message
        assert "UnregisteredSketch" in message

    def test_removed_count_min_kind_is_refused(self, tmp_path):
        # The archive a count-min sketch used to save: its kind has no
        # decoder any more, so loading it is an IntegrityError naming both.
        path = write_npz(
            tmp_path / "old.npz",
            {
                "kind": np.asarray("count-min"),
                "num_tables": np.asarray(3),
                "num_buckets": np.asarray(64),
                "seed": np.asarray(0),
                "family": np.asarray("multiply-shift"),
                "table": np.zeros((3, 64)),
                "quantum": np.asarray(np.nan),
                "conservative": np.asarray(False),
                "cap": np.asarray(np.nan),
            },
        )
        with pytest.raises(IntegrityError) as excinfo:
            load_sketch(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "'count-min'" in message

    def test_unknown_kind_on_load(self):
        from repro.sketch.serialization import sketch_from_arrays

        with pytest.raises(ValueError, match="count-sketch"):
            sketch_from_arrays({"kind": np.asarray("mystery")})

    def test_distributed_aggregation_scenario(self, tmp_path, rng):
        """Workers sketch shards, persist, reducer loads and merges."""
        keys = rng.integers(0, 10**6, size=4000)
        values = rng.standard_normal(4000)

        paths = []
        for shard in range(4):
            worker = CountSketch(3, 512, seed=42)
            worker.insert(keys[shard::4], values[shard::4])
            path = str(tmp_path / f"shard{shard}.npz")
            save_sketch(worker, path)
            paths.append(path)

        merged = load_sketch(paths[0])
        for path in paths[1:]:
            merged.merge(load_sketch(path))

        reference = CountSketch(3, 512, seed=42)
        reference.insert(keys, values)
        np.testing.assert_allclose(merged.table, reference.table, atol=1e-9)


class TestRemovedHashFamilies:
    """Multiply-shift is the only hash family.  A file naming another one
    holds counters hashed with functions this build cannot rebuild, so
    wherever the name is persisted, loading is an IntegrityError naming
    the file and the family."""

    REMOVED = ("polynomial", "tabulation")
    #: The built-in kinds and the member that names their hash family.
    FAMILY_MEMBER = {
        "count-sketch": "family",
        "augmented": "family",
        "hierarchical": "family",
        "decayed": "inner_family",
    }

    @staticmethod
    def _rewrite(path, **members):
        """Re-save ``path`` with ``members`` set, its checksums valid."""
        with read_npz(path) as data:
            payload = dict(data)
        payload.update((name, np.asarray(value)) for name, value in members.items())
        return write_npz(path, payload)

    @staticmethod
    def _assert_refused(path, family, load):
        with pytest.raises(IntegrityError) as excinfo:
            load()
        message = str(excinfo.value)
        assert str(path) in message
        assert repr(family) in message

    @pytest.mark.parametrize("family", REMOVED)
    @pytest.mark.parametrize("kind", sorted(FAMILY_MEMBER))
    def test_sketch_archive(self, tmp_path, kind, family):
        path = tmp_path / f"{kind}.npz"
        save_sketch(kind_registry()[kind].make(0), path, compress=False)
        # Builds that chose among families read the member, so it stays.
        with read_npz(path) as data:
            assert str(data[self.FAMILY_MEMBER[kind]]) == "multiply-shift"
        self._rewrite(path, **{self.FAMILY_MEMBER[kind]: family})
        for mmap in (False, True):
            self._assert_refused(path, family, lambda: load_sketch(path, mmap=mmap))

    @pytest.mark.parametrize("family", REMOVED)
    def test_shard_file(self, tmp_path, rng, family):
        spec = ShardSpec(dim=20, total_samples=8)
        path = tmp_path / "shard.npz"
        save_shard_result(sketch_shard(spec, _shard_samples(rng, 8, 20)), path)
        # A multiply-shift member, as builds with a family choice wrote it.
        self._rewrite(path, spec_family="multiply-shift")
        assert load_shard_result(path).spec == spec
        self._rewrite(path, spec_family=family)
        self._assert_refused(path, family, lambda: load_shard_result(path))

    @pytest.mark.parametrize("family", REMOVED)
    def test_durable_recipe(self, tmp_path, family):
        DurableSketcher(tmp_path, ShardSpec(dim=20, total_samples=8)).close()
        recipe = self._rewrite(tmp_path / "spec.npz", spec_family=family)
        self._assert_refused(recipe, family, lambda: DurableSketcher(tmp_path))

    def test_multiply_shift_archive_loads_bit_identically(self, tmp_path, rng):
        """An archive as builds with a family choice wrote it answers like
        a fresh sketch with its seed, before and after more inserts."""
        fresh = CountSketch(3, 256, seed=5)
        fresh.insert(rng.integers(0, 10**9, size=2000), rng.standard_normal(2000))
        path = write_npz(
            tmp_path / "old.npz",
            {
                "kind": np.asarray("count-sketch"),
                "num_tables": np.asarray(3),
                "num_buckets": np.asarray(256),
                "seed": np.asarray(5),
                "family": np.asarray("multiply-shift"),
                "table": fresh.table.copy(),
                "quantum": np.asarray(np.nan),
            },
        )
        loaded = load_sketch(path)
        probe = rng.integers(0, 10**9, size=500)
        np.testing.assert_array_equal(loaded.query(probe), fresh.query(probe))
        keys, values = rng.integers(0, 10**9, size=300), rng.standard_normal(300)
        loaded.insert(keys, values)
        fresh.insert(keys, values)
        np.testing.assert_array_equal(loaded.table, fresh.table)


class TestMergeAfterRoundTrip:
    """Regression: a loaded sketch must merge *identically* to the
    in-memory original — not just answer queries identically."""

    def test_count_sketch_merge_identical(self, tmp_path, rng):
        base = CountSketch(4, 512, seed=7)
        other = CountSketch(4, 512, seed=7)
        base.insert(rng.integers(0, 10**9, size=2000), rng.standard_normal(2000))
        other.insert(rng.integers(0, 10**9, size=2000), rng.standard_normal(2000))

        path = str(tmp_path / "base.npz")
        save_sketch(base, path)
        loaded = load_sketch(path)

        in_memory = base.copy().merge(other)
        via_disk = loaded.merge(other)
        np.testing.assert_array_equal(via_disk.table, in_memory.table)
        probe = rng.integers(0, 10**9, size=500)
        np.testing.assert_array_equal(via_disk.query(probe), in_memory.query(probe))

    def test_loaded_sketch_rejects_incompatible_merge(self, tmp_path):
        base = CountSketch(3, 256, seed=2)
        path = str(tmp_path / "s.npz")
        save_sketch(base, path)
        loaded = load_sketch(path)
        with pytest.raises(ValueError, match="mergeable"):
            loaded.merge(CountSketch(3, 256, seed=3))


def _shard_samples(rng, n, dim, nnz=6):
    return [
        (
            np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64),
            rng.standard_normal(nnz),
        )
        for _ in range(n)
    ]


class TestShardResultRoundTrip:
    def _spec(self, **overrides):
        kwargs = dict(
            dim=80,
            total_samples=64,
            method="ascs",
            num_tables=3,
            num_buckets=256,
            seed=19,
            mode="correlation",
            batch_size=8,
            std_floor=1e-5,
            track_top=16,
            two_sided=True,
            schedule=(16, 1e-4, 1e-3, 64),
        )
        kwargs.update(overrides)
        return ShardSpec(**kwargs)

    def test_all_fields_preserved(self, tmp_path, rng):
        spec = self._spec()
        result = sketch_shard(
            spec,
            _shard_samples(rng, 32, spec.dim),
            shard_index=1,
            num_shards=2,
            start=32,
        )
        path = str(tmp_path / "shard.npz")
        save_shard_result(result, path)
        loaded = load_shard_result(path)

        assert loaded.spec == spec
        for f in ("shard_index", "num_shards", "start", "stop", "samples_seen",
                  "updates_examined", "updates_accepted", "moments_count"):
            assert getattr(loaded, f) == getattr(result, f), f
        for f in ("table", "moments_sum", "moments_sumsq",
                  "tracker_keys", "tracker_estimates"):
            np.testing.assert_array_equal(getattr(loaded, f), getattr(result, f))

    def test_cs_spec_without_schedule(self, tmp_path, rng):
        spec = self._spec(
            method="cs", schedule=None, mode="covariance", two_sided=False
        )
        result = sketch_shard(spec, _shard_samples(rng, 16, spec.dim))
        path = str(tmp_path / "cs_shard.npz")
        save_shard_result(result, path)
        loaded = load_shard_result(path)
        assert loaded.spec == spec
        assert loaded.spec.schedule is None

    def test_loaded_shards_reduce_like_in_memory(self, tmp_path, rng):
        """The distributed deployment: persist shard files, reduce later."""
        spec = self._spec(method="cs", schedule=None, mode="covariance",
                          two_sided=False)
        samples = _shard_samples(rng, 64, spec.dim)
        shards = [
            sketch_shard(spec, samples[:32], shard_index=0, num_shards=2, start=0),
            sketch_shard(spec, samples[32:], shard_index=1, num_shards=2, start=32),
        ]
        paths = []
        for shard in shards:
            path = str(tmp_path / f"shard{shard.shard_index}.npz")
            save_shard_result(shard, path)
            paths.append(path)

        in_memory = merge_shard_results(shards)
        via_disk = merge_shard_results([load_shard_result(p) for p in paths])
        np.testing.assert_array_equal(
            via_disk.estimator.sketch.table, in_memory.estimator.sketch.table
        )
        k1, e1 = in_memory.estimator.top_k(8)
        k2, e2 = via_disk.estimator.top_k(8)
        np.testing.assert_array_equal(k1, k2)
        np.testing.assert_array_equal(e1, e2)

    def test_loads_pre_memory_tier_files(self, tmp_path, rng):
        """Regression: shard/pane .npz files written before the storage
        tier existed (no spec_storage/spec_quantum members) must keep
        loading, with those fields at their float64/unquantized defaults."""
        spec = self._spec(method="cs", schedule=None, mode="covariance",
                          two_sided=False)
        result = sketch_shard(spec, _shard_samples(rng, 16, spec.dim))
        path = tmp_path / "old_format.npz"
        save_shard_result(result, str(path))
        # A genuine pre-tier file has neither the storage/quantum spec
        # members nor the integrity members (both tiers came later).
        with np.load(path, allow_pickle=False) as data:
            stripped = {
                name: data[name]
                for name in data.files
                if name not in ("spec_storage", "spec_quantum")
                and not name.startswith("integrity_")
            }
        np.savez_compressed(path, **stripped)
        loaded = load_shard_result(str(path))
        assert loaded.spec.storage == "float64"
        assert loaded.spec.quantum is None
        assert loaded.spec == spec
        np.testing.assert_array_equal(loaded.table, result.table)

    def test_round_trip_covers_every_dataclass_field(self, tmp_path, rng):
        """Guards against new ShardResult fields silently skipping the
        .npz round trip."""
        spec = self._spec()
        result = sketch_shard(spec, _shard_samples(rng, 8, spec.dim))
        path = str(tmp_path / "full.npz")
        save_shard_result(result, path)
        loaded = load_shard_result(path)
        for f in dataclasses.fields(result):
            original, restored = getattr(result, f.name), getattr(loaded, f.name)
            if isinstance(original, np.ndarray):
                np.testing.assert_array_equal(restored, original, err_msg=f.name)
            else:
                assert restored == original, f.name

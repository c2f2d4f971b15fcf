"""Tests for the compact counter-storage tier (repro.sketch.storage).

The load-bearing property is the promotion law: quantized tables widen
*before* any saturating write, so an int16 run that promotes is
bit-identical to a run that used the wider dtype from the start — fuzzed
here on seeded random streams and pinned exactly at the saturation
boundary.
"""

import numpy as np
import pytest

from repro.sketch.base import reject_readonly_counters, scatter_add_flat
from repro.sketch.count_sketch import CountSketch
from repro.sketch.decay import DecayedSketch
from repro.sketch.storage import DEFAULT_QUANTUM, CounterStore, resolve_storage


class TestConstruction:
    def test_resolve_storage_names(self):
        assert resolve_storage("int16") == np.dtype(np.int16)
        assert resolve_storage(np.float64) == np.dtype(np.float64)

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="unsupported counter storage"):
            CounterStore(2, 8, dtype="int8")

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(ValueError, match="quantum"):
            CounterStore(2, 8, dtype="int16", quantum=0.0)

    def test_rejects_float32_quantum(self):
        # float32 is not on the widening ladder, so a quantized float32
        # table could never promote consistently.
        with pytest.raises(ValueError, match="float32"):
            CounterStore(2, 8, dtype="float32", quantum=0.5)

    def test_int_default_quantum(self):
        store = CounterStore(2, 8, dtype="int16")
        assert store.quantum == DEFAULT_QUANTUM

    def test_quantized_float64_allowed(self):
        # The promotion terminal must be constructible directly so
        # serialized promoted stores round-trip.
        store = CounterStore(2, 8, dtype="float64", quantum=0.5)
        assert store.quantized
        assert store.dtype == np.float64

    def test_bytes_accounting(self):
        assert CounterStore(3, 64, dtype="int16").nbytes == 3 * 64 * 2
        assert CounterStore(3, 64, dtype="float64").nbytes == 3 * 64 * 8
        assert CounterStore(3, 64, dtype="int16").bytes_per_counter == 2


class TestQuantizedRoundTrip:
    def test_single_value_within_half_quantum(self):
        store = CounterStore(1, 8, dtype="int16", quantum=0.25)
        store.scatter_add(np.array([3]), np.array([1.3]), use_bincount=False)
        est = store.gather(np.array([3]))[0]
        assert abs(est - 1.3) <= 0.125 + 1e-12
        assert est == pytest.approx(np.rint(1.3 / 0.25) * 0.25)

    def test_exact_for_quantum_multiples(self):
        store = CounterStore(1, 8, dtype="int16", quantum=0.5)
        store.scatter_add(
            np.array([1, 1, 2]), np.array([1.5, 2.0, -4.5]), use_bincount=True
        )
        np.testing.assert_array_equal(store.gather(np.array([1, 2])), [3.5, -4.5])

    def test_intra_batch_duplicate_order_never_matters(self):
        # The quantized scatter aggregates per-slot deltas once per batch,
        # so permuting a batch cannot change the counters.
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 16, size=200)
        w = rng.integers(-50, 50, size=200).astype(np.float64)
        perm = rng.permutation(200)
        a = CounterStore(2, 8, dtype="int16", quantum=1.0)
        b = CounterStore(2, 8, dtype="int16", quantum=1.0)
        a.scatter_add(idx, w, use_bincount=True)
        b.scatter_add(idx[perm], w[perm], use_bincount=False)
        np.testing.assert_array_equal(a.raw, b.raw)


class TestOverflowPromotion:
    """Satellite: promotion triggers exactly at saturation and is exact."""

    def test_triggers_exactly_at_saturation(self):
        info = np.iinfo(np.int16)
        store = CounterStore(1, 4, dtype="int16", quantum=1.0)
        store.scatter_add(
            np.array([0]), np.array([float(info.max)]), use_bincount=False
        )
        # Exactly iinfo.max quanta: still int16, counter sits on the bound.
        assert store.dtype == np.int16
        assert store.raw[0] == info.max
        # One more quantum: the whole table widens, nothing clips.
        store.scatter_add(np.array([0]), np.array([1.0]), use_bincount=False)
        assert store.dtype == np.int32
        assert store.raw[0] == info.max + 1

    def test_triggers_at_negative_saturation(self):
        info = np.iinfo(np.int16)
        store = CounterStore(1, 4, dtype="int16", quantum=1.0)
        store.scatter_add(np.array([1]), np.array([float(info.min)]), use_bincount=True)
        assert store.dtype == np.int16
        store.scatter_add(np.array([1]), np.array([-1.0]), use_bincount=True)
        assert store.dtype == np.int32
        assert store.raw[1] == info.min - 1

    def test_int32_promotes_to_float64_keeping_quantum(self):
        info = np.iinfo(np.int32)
        store = CounterStore(1, 2, dtype="int32", quantum=0.5)
        store.scatter_add(np.array([0]), np.array([info.max * 0.5]), use_bincount=False)
        assert store.dtype == np.int32
        store.scatter_add(np.array([0]), np.array([0.5]), use_bincount=False)
        assert store.dtype == np.float64
        assert store.quantum == 0.5
        assert store.gather(np.array([0]))[0] == (info.max + 1) * 0.5

    @pytest.mark.parametrize(
        "dtype,start,delta",
        [
            ("int16", -30000.0, 60000.0),
            ("int32", -2_100_000_000.0, 4.0e9),
        ],
    )
    def test_delta_beyond_rung_with_in_range_result(self, dtype, start, delta):
        """Regression: a batch delta can exceed the rung's range while the
        resulting counter fits (sign-cancelling updates).  Casting the
        delta would saturate; the result must be written back exactly."""
        store = CounterStore(1, 4, dtype=dtype, quantum=1.0)
        store.scatter_add(np.array([0]), np.array([start]), use_bincount=False)
        store.scatter_add(np.array([0]), np.array([delta]), use_bincount=True)
        assert store.dtype == np.dtype(dtype)  # result fits: no promotion
        assert float(store.raw[0]) == start + delta
        wide = CounterStore(1, 4, dtype="float64", quantum=1.0)
        wide.scatter_add(np.array([0]), np.array([start]), use_bincount=False)
        wide.scatter_add(np.array([0]), np.array([delta]), use_bincount=True)
        np.testing.assert_array_equal(
            store.raw.astype(np.float64), wide.raw
        )

    @pytest.mark.parametrize("narrow", ["int16", "int32"])
    def test_fuzz_promoted_bit_identical_to_all_wide(self, narrow):
        """Seeded random streams: the narrow store (which promotes mid-run)
        must end bit-identical to a store that was wide from the start."""
        rng = np.random.default_rng(20240731)
        wide = {"int16": "int32", "int32": "float64"}[narrow]
        limit = np.iinfo(np.dtype(narrow)).max
        for trial in range(5):
            a = CounterStore(2, 16, dtype=narrow, quantum=1.0)
            b = CounterStore(2, 16, dtype=wide, quantum=1.0)
            promoted = False
            for _ in range(40):
                n = int(rng.integers(1, 64))
                idx = rng.integers(0, 32, size=n)
                # Heavy-tailed magnitudes so saturation actually happens.
                w = rng.integers(-limit // 3, limit // 3, size=n).astype(np.float64)
                a.scatter_add(idx, w, use_bincount=bool(rng.integers(2)))
                b.scatter_add(idx, w, use_bincount=bool(rng.integers(2)))
                promoted = promoted or a.dtype != np.dtype(narrow)
                np.testing.assert_array_equal(
                    a.raw.astype(np.float64), b.raw.astype(np.float64)
                )
            assert promoted, f"trial {trial}: stream never saturated {narrow}"

    def test_promotion_through_sketch_queries_identical(self):
        cs16 = CountSketch(3, 32, seed=9, dtype="int16", quantum=1.0)
        cs32 = CountSketch(3, 32, seed=9, dtype="int32", quantum=1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            keys = rng.integers(0, 500, size=40)
            values = rng.integers(-5000, 5000, size=40).astype(np.float64)
            cs16.insert(keys, values)
            cs32.insert(keys, values)
        assert cs16.storage_dtype != np.int16  # the stream saturated it
        probe = rng.integers(0, 500, size=200)
        np.testing.assert_array_equal(cs16.query(probe), cs32.query(probe))


class TestMerge:
    def test_merge_across_widths_same_quantum(self):
        a = CountSketch(2, 16, seed=4, dtype="int16", quantum=1.0)
        b = CountSketch(2, 16, seed=4, dtype="int16", quantum=1.0)
        b.insert(np.array([1]), np.array([float(np.iinfo(np.int16).max) + 10]))
        assert b.storage_dtype == np.int32
        a.insert(np.array([1]), np.array([5.0]))
        a.merge(b)  # narrow merging a promoted table must widen, not wrap
        assert a.storage_dtype == np.int32
        assert a.query_single(1) == pytest.approx(np.iinfo(np.int16).max + 15)

    def test_quantum_mismatch_rejected(self):
        a = CountSketch(2, 16, seed=4, dtype="int16", quantum=1.0)
        b = CountSketch(2, 16, seed=4, dtype="int16", quantum=0.5)
        with pytest.raises(ValueError, match="quantum"):
            a.merge(b)

    def test_quantized_float_mix_rejected(self):
        a = CountSketch(2, 16, seed=4, dtype="int16", quantum=1.0)
        b = CountSketch(2, 16, seed=4)
        with pytest.raises(ValueError, match="storage tier"):
            a.merge(b)

    def test_float_dtype_mismatch_still_rejected(self):
        a = CountSketch(2, 16, seed=4, dtype=np.float64)
        b = CountSketch(2, 16, seed=4, dtype=np.float32)
        with pytest.raises(ValueError, match="dtype"):
            a.merge(b)


class TestScaleAndDecay:
    def test_scale_folds_into_quantum_exactly(self):
        cs = CountSketch(2, 16, seed=1, dtype="int16", quantum=1.0)
        cs.insert(np.array([3]), np.array([101.0]))
        table_before = cs.table.copy()
        cs.scale(0.3)  # not a power of two: still exact on quantized tables
        np.testing.assert_array_equal(cs.table, table_before)  # ints untouched
        assert cs.query_single(3) == pytest.approx(101.0 * 0.3, rel=1e-15)

    def test_decay_rejects_quantized_backing(self):
        """Decayed inserts store v / gamma^ticks — unbounded in fixed
        point — so the combination must refuse, not silently widen."""
        with pytest.raises(ValueError, match="quantized"):
            DecayedSketch(CountSketch(3, 64, seed=2, dtype="int16", quantum=1.0), 0.5)
        with pytest.raises(ValueError, match="quantized"):
            from repro.streaming import make_decaying_sketcher

            make_decaying_sketcher(
                50, 1000, gamma=0.99, num_tables=3, num_buckets=64, storage="int16"
            )

    def test_decay_allows_float32_and_passthrough_quantized(self):
        # float32 is the compact option under decay...
        DecayedSketch(CountSketch(3, 64, seed=2, dtype=np.float32), 0.5)
        # ...and gamma=1.0 (no decay) is a transparent pass-through, so
        # quantized backings are fine there.
        DecayedSketch(CountSketch(3, 64, seed=2, dtype="int16", quantum=1.0), 1.0)


class TestFrozenAndGuards:
    def test_frozen_store_refuses_everything(self):
        store = CounterStore(2, 8, dtype="int16", quantum=1.0)
        store.scatter_add(np.array([0]), np.array([1.0]), use_bincount=False)
        store.freeze()
        for op in (
            lambda: store.scatter_add(
                np.array([0]), np.array([1.0]), use_bincount=False
            ),
            store.zero,
            lambda: store.scale(0.5),
            lambda: store.add_raw(np.zeros(16, dtype=np.int16)),
        ):
            with pytest.raises(ValueError, match="read-only"):
                op()
        # Queries still work on the frozen store.
        assert store.gather(np.array([0]))[0] == 1.0

    def test_guard_rejects_readonly_mmap(self, tmp_path):
        path = tmp_path / "table.npy"
        np.save(path, np.zeros(32))
        mapped = np.load(path, mmap_mode="r")
        with pytest.raises(ValueError, match="read-only"):
            scatter_add_flat(mapped, np.array([0]), np.array([1.0]), use_bincount=False)

    def test_guard_rejects_copy_on_write_mmap(self, tmp_path):
        """The gap the writeable flag misses: mode 'c' arrays accept writes
        into private COW pages, silently diverging from the mapped file."""
        path = tmp_path / "table.npy"
        np.save(path, np.zeros(32))
        cow = np.load(path, mmap_mode="c")
        assert cow.flags.writeable  # numpy would have let this through
        with pytest.raises(ValueError, match="read-only"):
            scatter_add_flat(cow, np.array([0]), np.array([1.0]), use_bincount=False)

    def test_guard_walks_view_chains(self, tmp_path):
        path = tmp_path / "table.npy"
        np.save(path, np.zeros((4, 8)))
        view = np.load(path, mmap_mode="c").reshape(-1)
        with pytest.raises(ValueError, match="read-only"):
            reject_readonly_counters(view)


class TestQuantizedAcrossSubsystems:
    """The storage knob must thread end to end: sharded fits, pane rings."""

    def _samples(self, rng, n, dim=50, nnz=5):
        return [
            (
                np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64),
                rng.integers(1, 5, size=nnz).astype(np.float64),
            )
            for _ in range(n)
        ]

    def test_sharded_fit_quantized_matches_serial(self):
        from repro.distributed import fit_sparse_sharded

        rng = np.random.default_rng(31)
        samples = self._samples(rng, 64)
        kwargs = dict(
            num_tables=3,
            num_buckets=128,
            seed=8,
            batch_size=8,
            track_top=32,
            storage="int16",
            quantum=2.0**-10,
        )
        serial = fit_sparse_sharded(iter(samples), 50, n_workers=1, **kwargs)
        sharded = fit_sparse_sharded(iter(samples), 50, n_workers=4, **kwargs)
        assert serial.estimator.sketch.quantum == 2.0**-10
        np.testing.assert_array_equal(
            sharded.estimator.sketch.table, serial.estimator.sketch.table
        )

    def test_pane_ring_quantized_round_trip(self, tmp_path):
        from repro.distributed.shard import ShardSpec
        from repro.streaming import PaneRing

        rng = np.random.default_rng(37)
        spec = ShardSpec(
            dim=50,
            total_samples=64,
            num_tables=3,
            num_buckets=128,
            seed=8,
            batch_size=8,
            storage="int16",
            quantum=2.0**-10,
            track_top=16,
        )
        ring = PaneRing(spec, num_panes=2, pane_samples=16)
        ring.ingest(self._samples(rng, 48))
        window = ring.window()
        assert window.estimator.sketch.storage_dtype == np.int16
        ring.save(tmp_path / "ring")
        resumed = PaneRing.load(tmp_path / "ring")
        np.testing.assert_array_equal(
            resumed.window().estimator.sketch.table,
            ring.window().estimator.sketch.table,
        )


class TestCopyAndPickle:
    def test_copy_preserves_promoted_width_and_quantum(self):
        cs = CountSketch(2, 8, seed=3, dtype="int16", quantum=1.0)
        cs.insert(np.array([0]), np.array([1e5]))  # forces int32
        assert cs.storage_dtype == np.int32
        clone = cs.copy()
        assert clone.storage_dtype == np.int32
        assert clone.quantum == 1.0
        np.testing.assert_array_equal(clone.table, cs.table)
        clone.insert(np.array([0]), np.array([1.0]))
        assert cs.query_single(0) != clone.query_single(0)  # independent

    def test_pickle_keeps_flat_aliased(self):
        import pickle

        cs = CountSketch(2, 8, seed=3, dtype="int16", quantum=1.0)
        cs.insert(np.array([5]), np.array([7.0]))
        clone = pickle.loads(pickle.dumps(cs))
        np.testing.assert_array_equal(clone.table, cs.table)
        clone.insert(np.array([5]), np.array([1.0]))
        # The insert must stay visible through .table (flat is a view).
        assert clone.query_single(5) == pytest.approx(8.0)

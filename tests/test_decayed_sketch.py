"""DecayedSketch: lazy-scale decay semantics, flush invariance, merge laws.

The exactness tests use ``gamma = 0.5`` and integer-valued updates: every
scale product, flush and counter sum is then an exact float operation, so
"equal up to decay algebra" sharpens to bit-for-bit equality — the same
technique the PR-2 merge-law tests use for counter summation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch import (
    AugmentedSketch,
    CountSketch,
    DecayedSketch,
    decay_from_half_life,
    load_sketch,
    save_sketch,
)


def _integer_updates(rng, n, key_space=10**6, lo=-9, hi=9):
    keys = rng.integers(0, key_space, size=n).astype(np.int64)
    values = rng.integers(lo, hi, size=n).astype(np.float64)
    return keys, values


def _fresh(seed=5):
    return DecayedSketch(CountSketch(5, 2048, seed=seed), 0.5)


class TestDecaySemantics:
    def test_single_key_halves_per_tick(self):
        sketch = _fresh()
        sketch.insert(np.asarray([42]), np.asarray([8.0]))
        assert sketch.query_single(42) == 8.0
        sketch.tick()
        assert sketch.query_single(42) == 4.0
        sketch.tick(2)
        assert sketch.query_single(42) == 1.0

    def test_mixed_ages_weight_correctly(self):
        sketch = _fresh()
        sketch.insert(np.asarray([7]), np.asarray([8.0]))
        sketch.tick(2)  # 8 -> 2
        sketch.insert(np.asarray([7]), np.asarray([1.0]))
        assert sketch.query_single(7) == 3.0
        sketch.tick()  # 3 -> 1.5
        assert sketch.query_single(7) == 1.5

    def test_gamma_one_is_transparent(self, rng):
        keys, values = _integer_updates(rng, 500)
        plain = CountSketch(5, 2048, seed=5)
        wrapped = DecayedSketch(CountSketch(5, 2048, seed=5), 1.0)
        plain.insert(keys, values)
        wrapped.insert(keys, values)
        wrapped.tick(100)
        np.testing.assert_array_equal(
            wrapped.query(keys), plain.query(keys)
        )

    def test_matches_manually_predecayed_inserts(self, rng):
        """Decayed content == inserting each batch pre-scaled by its age."""
        batches = [_integer_updates(rng, 200) for _ in range(6)]
        decayed = _fresh()
        for keys, values in batches:
            decayed.insert(keys, values)
            decayed.tick()
        # Reference: batch b (0-based) has age (len - 1 - b) at the end...
        # plus the final tick ages everything once more, so age = len - b.
        reference = CountSketch(5, 2048, seed=5)
        for age_exp, (keys, values) in zip(
            range(len(batches), 0, -1), batches
        ):
            reference.insert(keys, values * 0.5**age_exp)
        probe = np.unique(np.concatenate([k for k, _ in batches]))
        np.testing.assert_array_equal(
            decayed.query(probe), reference.query(probe)
        )

    def test_tick_is_lazy(self):
        sketch = _fresh()
        sketch.insert(np.asarray([1]), np.asarray([4.0]))
        table_before = sketch.sketch.table.copy()
        sketch.tick(3)
        np.testing.assert_array_equal(sketch.sketch.table, table_before)
        assert sketch.pending_scale == 0.5**3

    def test_flush_changes_nothing_observable(self, rng):
        keys, values = _integer_updates(rng, 300)
        lazy = _fresh()
        eager = _fresh()
        for step in range(5):
            lazy.insert(keys, values)
            eager.insert(keys, values)
            lazy.tick(3)
            eager.tick(3)
            eager.flush()
        np.testing.assert_array_equal(lazy.query(keys), eager.query(keys))

    def test_automatic_flush_below_threshold(self):
        sketch = DecayedSketch(
            CountSketch(3, 256, seed=1), 0.5, flush_below=2.0**-8
        )
        sketch.insert(np.asarray([3]), np.asarray([256.0]))
        sketch.tick(10)  # crosses the flush bound on the way down
        assert sketch.pending_scale >= 2.0**-8
        assert sketch.query_single(3) == 256.0 * 0.5**10

    def test_insert_and_query_matches_separate_calls(self, rng):
        keys, values = _integer_updates(rng, 400)
        fused = _fresh()
        split = _fresh()
        fused.tick(4)
        split.tick(4)
        out = fused.insert_and_query(keys, values)
        split.insert(keys, values)
        np.testing.assert_array_equal(out, split.query(keys))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="gamma"):
            DecayedSketch(CountSketch(3, 64), 0.0)
        with pytest.raises(ValueError, match="gamma"):
            DecayedSketch(CountSketch(3, 64), 1.5)
        with pytest.raises(ValueError, match="num_ticks"):
            _fresh().tick(-1)
        assert decay_from_half_life(1.0) == 0.5
        with pytest.raises(ValueError, match="half_life"):
            decay_from_half_life(0.0)


class TestBackingKinds:
    def test_augmented_backing_filter_decays_too(self):
        inner = AugmentedSketch(3, 512, filter_capacity=4, seed=3)
        decayed = DecayedSketch(inner, 0.5)
        # Drive one key hot enough to be promoted into the exact filter.
        for _ in range(5):
            decayed.insert(np.asarray([11]), np.asarray([16.0]))
        assert 11 in inner._filter
        before = decayed.query_single(11)
        decayed.tick(2)
        assert decayed.query_single(11) == before * 0.25
        # A flush must fold the scale into the filter values as well.
        decayed.flush()
        assert decayed.query_single(11) == before * 0.25


class TestMergeLaw:
    def _filled(self, rng, ticks):
        sketch = _fresh()
        for _ in range(3):
            keys, values = _integer_updates(rng, 200)
            sketch.insert(keys, values)
            sketch.tick(ticks)
        return sketch

    def test_merge_is_associative_bit_for_bit(self):
        rng = np.random.default_rng(99)
        probe = rng.integers(0, 10**6, size=500).astype(np.int64)
        # (a + b) + c
        rng = np.random.default_rng(99)
        a, b, c = (self._filled(rng, 2) for _ in range(3))
        left = a.merge(b).merge(c)
        # a + (b + c), rebuilt from the same stream
        rng = np.random.default_rng(99)
        a2, b2, c2 = (self._filled(rng, 2) for _ in range(3))
        right = a2.merge(b2.merge(c2))
        np.testing.assert_array_equal(
            left.sketch.table, right.sketch.table
        )
        np.testing.assert_array_equal(left.query(probe), right.query(probe))

    def test_merge_matches_single_stream(self):
        """Merging clock-aligned halves == one sketch fed both halves."""
        rng = np.random.default_rng(7)
        ka, va = _integer_updates(rng, 400)
        kb, vb = _integer_updates(rng, 400)
        a = _fresh()
        b = _fresh()
        both = _fresh()
        a.insert(ka, va)
        b.insert(kb, vb)
        both.insert(ka, va)
        both.insert(kb, vb)
        for sketch in (a, b, both):
            sketch.tick(3)
        merged = a.merge(b)
        probe = np.concatenate([ka, kb])
        np.testing.assert_array_equal(merged.query(probe), both.query(probe))

    def test_merge_requires_same_gamma_and_clock(self):
        a = _fresh()
        b = DecayedSketch(CountSketch(5, 2048, seed=5), 0.25)
        with pytest.raises(ValueError, match="gamma"):
            a.merge(b)
        c = _fresh()
        c.tick(3)
        with pytest.raises(ValueError, match="clock-aligned"):
            a.merge(c)
        with pytest.raises(ValueError, match="DecayedSketch"):
            a.merge(CountSketch(5, 2048, seed=5))


class TestLifecycle:
    def test_copy_is_independent(self):
        sketch = _fresh()
        sketch.insert(np.asarray([5]), np.asarray([4.0]))
        sketch.tick()
        clone = sketch.copy()
        assert clone.query_single(5) == sketch.query_single(5)
        sketch.insert(np.asarray([5]), np.asarray([1.0]))
        assert clone.query_single(5) == 2.0
        assert sketch.query_single(5) == 3.0

    def test_freeze_blocks_writes_allows_reads(self):
        sketch = _fresh()
        sketch.insert(np.asarray([5]), np.asarray([4.0]))
        sketch.tick()
        frozen = sketch.copy().freeze()
        assert frozen.query_single(5) == 2.0
        with pytest.raises(ValueError):
            frozen.insert(np.asarray([5]), np.asarray([1.0]))

    def test_reset_clears_clock_and_scale(self):
        sketch = _fresh()
        sketch.insert(np.asarray([5]), np.asarray([4.0]))
        sketch.tick(4)
        sketch.reset()
        assert sketch.ticks == 0
        assert sketch.pending_scale == 1.0
        assert sketch.query_single(5) == 0.0

    def test_serialization_round_trip(self, tmp_path, rng):
        keys, values = _integer_updates(rng, 500)
        sketch = _fresh()
        sketch.insert(keys, values)
        sketch.tick(3)
        path = tmp_path / "decayed.npz"
        save_sketch(sketch, path)
        loaded = load_sketch(path)
        assert isinstance(loaded, DecayedSketch)
        assert loaded.gamma == sketch.gamma
        assert loaded.ticks == sketch.ticks
        np.testing.assert_array_equal(loaded.query(keys), sketch.query(keys))
        # Further use behaves identically: tick + insert + merge-compatible.
        loaded.tick()
        sketch.tick()
        loaded.insert(keys, values)
        sketch.insert(keys, values)
        np.testing.assert_array_equal(loaded.query(keys), sketch.query(keys))

"""Hierarchical count sketch: construction, descent, merge and serving.

The open-world acceptance contract lives here: on a seeded block-model
stream with planted heavy pairs, ``QueryEngine.pairs_above`` answers over
the full pair space with **no materialized index** (recall 1.0 on the
planted pairs, precision floor-gated), and a sharded hierarchy merge is
bit-identical to single-shot ingest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.data.synthetic import BlockCorrelationModel
from repro.distributed.reduce import merge_shard_results
from repro.distributed.shard import (
    ShardSpec,
    sketch_shard,
    spec_from_arrays,
    spec_to_arrays,
)
from repro.hashing.pairs import num_pairs, pair_to_index
from repro.serving import QueryEngine, SketchSnapshot
from repro.sketch import HierarchicalCountSketch, plan
from repro.sketch.serialization import load_sketch, save_sketch


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _planted_sketch(rng, key_space=200_000, num_heavy=20, mass=0.8):
    """A hierarchy over a noisy stream with ``num_heavy`` planted keys."""
    sketch = HierarchicalCountSketch(5, 4096, key_space=key_space, seed=1)
    keys = rng.integers(0, key_space, size=50_000)
    sketch.insert(keys, rng.normal(0.0, 0.02, size=keys.size))
    planted = rng.choice(key_space, size=num_heavy, replace=False).astype(np.int64)
    signs = rng.choice([-1.0, 1.0], size=num_heavy)
    sketch.insert(planted, signs * mass)
    return sketch, planted


class TestConstruction:
    def test_auto_levels_bound_root_size(self):
        sketch = HierarchicalCountSketch(3, 256, key_space=200_000, branching=16)
        assert sketch.levels == 3
        assert sketch._level_sizes == [200_000, 12_500, 782]
        assert sketch._level_sizes[-1] <= 1024

    def test_explicit_levels_honoured(self):
        sketch = HierarchicalCountSketch(
            3, 256, key_space=5000, branching=8, levels=4
        )
        assert sketch.levels == 4
        assert sketch._level_sizes == [5000, 625, 79, 10]

    def test_memory_accounts_all_levels(self):
        sketch = HierarchicalCountSketch(
            3, 256, key_space=5000, branching=8, levels=3
        )
        assert sketch.memory_floats == 3 * 3 * 256
        assert sketch.memory_bytes == 3 * 3 * 256 * 8
        assert sketch.table.shape == (3, 3, 256)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"key_space": 0},
            {"key_space": 100, "branching": 1},
            {"key_space": 100, "levels": 0},
            {"key_space": 100, "max_root_intervals": 0},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            HierarchicalCountSketch(3, 256, **kwargs)

    def test_insert_range_checked_against_key_space(self):
        sketch = HierarchicalCountSketch(3, 256, key_space=100)
        with pytest.raises(ValueError, match="key_space"):
            sketch.insert(np.array([100]), np.array([1.0]))

    def test_insert_and_query_matches_split_calls(self, rng):
        a = HierarchicalCountSketch(3, 256, key_space=5000, seed=3)
        b = HierarchicalCountSketch(3, 256, key_space=5000, seed=3)
        keys = rng.integers(0, 5000, size=400)
        values = rng.standard_normal(400)
        fused = a.insert_and_query(keys, values)
        b.insert(keys, values)
        np.testing.assert_array_equal(fused, b.query(keys))
        for left, right in zip(a._levels, b._levels):
            np.testing.assert_array_equal(left.table, right.table)


class TestFindHeavy:
    def test_recovers_planted_keys_exactly(self, rng):
        sketch, planted = _planted_sketch(rng)
        keys, estimates = sketch.find_heavy(0.4)
        assert set(keys.tolist()) == set(planted.tolist())
        # Rank-descending order, and estimates keep their signs.
        rank = np.abs(estimates)
        assert np.all(rank[:-1] >= rank[1:])
        assert estimates.min() < 0 < estimates.max()

    def test_limit_truncates_after_ranking(self, rng):
        sketch, _ = _planted_sketch(rng)
        all_keys, all_est = sketch.find_heavy(0.4)
        top_keys, top_est = sketch.find_heavy(0.4, limit=5)
        np.testing.assert_array_equal(top_keys, all_keys[:5])
        np.testing.assert_array_equal(top_est, all_est[:5])
        empty_keys, empty_est = sketch.find_heavy(0.4, limit=0)
        assert empty_keys.size == 0 and empty_est.size == 0

    def test_high_threshold_returns_empty(self, rng):
        sketch, _ = _planted_sketch(rng)
        keys, estimates = sketch.find_heavy(1e9)
        assert keys.size == 0 and estimates.size == 0

    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -1.0])
    def test_bad_thresholds_raise(self, rng, threshold):
        sketch, _ = _planted_sketch(rng)
        with pytest.raises(ValueError):
            sketch.find_heavy(threshold)

    def test_negative_limit_raises(self, rng):
        sketch, _ = _planted_sketch(rng)
        with pytest.raises(ValueError):
            sketch.find_heavy(0.4, limit=-1)

    def test_one_sided_uses_signed_rank(self, rng):
        sketch, planted = _planted_sketch(rng)
        keys, estimates = sketch.find_heavy(0.4, two_sided=False)
        assert np.all(estimates >= 0.4)
        positive = set(keys.tolist())
        assert positive < set(planted.tolist())  # negatives excluded

    def test_descent_works_on_frozen_and_loaded_sketch(self, rng, tmp_path):
        sketch, planted = _planted_sketch(rng)
        reference = sketch.find_heavy(0.4)
        sketch.freeze()
        frozen = sketch.find_heavy(0.4)
        np.testing.assert_array_equal(frozen[0], reference[0])
        path = str(tmp_path / "hier.npz")
        save_sketch(sketch, path, compress=False)
        for mmap in (False, True):
            loaded = load_sketch(path, mmap=mmap)
            keys, estimates = loaded.find_heavy(0.4)
            np.testing.assert_array_equal(keys, reference[0])
            np.testing.assert_array_equal(estimates, reference[1])


class TestMergeAndSharding:
    def test_merge_requires_identical_shape(self):
        a = HierarchicalCountSketch(3, 256, key_space=5000, seed=2)
        b = HierarchicalCountSketch(3, 256, key_space=6000, seed=2)
        with pytest.raises(ValueError, match="key_space"):
            a.merge(b)

    def test_spec_round_trips_hierarchy_fields(self):
        spec = ShardSpec(
            dim=32,
            total_samples=256,
            method="hcs",
            num_tables=3,
            num_buckets=512,
            seed=9,
            levels=2,
            branching=8,
        )
        back = spec_from_arrays(spec_to_arrays(spec))
        assert back == spec
        assert back.levels == 2 and back.branching == 8

    def test_build_estimator_sizes_hierarchy_from_dim(self):
        spec = ShardSpec(dim=32, total_samples=256, method="hcs")
        sketch = spec.build_estimator().sketch
        assert isinstance(sketch, HierarchicalCountSketch)
        assert sketch.key_space == num_pairs(32)

    def test_shard_merge_bit_identical_to_one_shot(self, rng):
        # Power-of-two T and small-integer values: every arithmetic step
        # is an exact dyadic, so bit-identity is the honest contract.
        spec = ShardSpec(
            dim=32, total_samples=256, method="hcs", num_tables=3,
            num_buckets=512, seed=9, levels=2, branching=16,
        )
        samples = [
            (
                np.arange(32, dtype=np.int64),
                rng.integers(-3, 4, size=32).astype(np.float64),
            )
            for _ in range(256)
        ]
        halves = [
            sketch_shard(spec, samples[:128], shard_index=0, num_shards=2, start=0),
            sketch_shard(
                spec, samples[128:], shard_index=1, num_shards=2, start=128
            ),
        ]
        assert halves[0].table.shape == (2, 3, 512)
        merged = merge_shard_results(halves)
        one_shot = spec.build_sketcher()
        one_shot.fit_sparse(iter(samples))
        for left, right in zip(
            merged.estimator.sketch._levels, one_shot.estimator.sketch._levels
        ):
            np.testing.assert_array_equal(left.table, right.table)


class TestPlanner:
    def test_levels_split_the_budget(self):
        flat = plan(1000, 1.0, storage="float64")
        deep = plan(1000, 1.0, storage="float64", levels=4)
        assert deep.levels == 4
        assert deep.num_buckets == flat.num_buckets // 4
        assert deep.total_counters == deep.levels * deep.num_tables * deep.num_buckets
        assert deep.to_dict()["levels"] == 4

    def test_deep_plan_builds_hierarchy_over_pair_space(self):
        deep = plan(1000, 1.0, levels=3, branching=32)
        sketch = deep.build_sketch(seed=5)
        assert isinstance(sketch, HierarchicalCountSketch)
        assert sketch.key_space == num_pairs(1000)
        assert sketch.levels == 3 and sketch.branching == 32
        flat = plan(1000, 1.0).build_sketch(seed=5)
        assert not isinstance(flat, HierarchicalCountSketch)

    @pytest.mark.parametrize("kwargs", [{"levels": 0}, {"branching": 1}])
    def test_bad_hierarchy_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            plan(1000, 1.0, **kwargs)


class TestOpenWorldAcceptance:
    """ISSUE 7 acceptance: discovery with no materialized index."""

    DIM = 64
    THRESHOLD = 0.35

    def _engine_and_truth(self):
        model = BlockCorrelationModel.from_alpha(self.DIM, 0.05, seed=42)
        samples = model.sample(4096)
        sketch = HierarchicalCountSketch(
            5, 4096, key_space=num_pairs(self.DIM), branching=16, seed=7
        )
        estimator = SketchEstimator(
            sketch, 4096, name="HCS", two_sided=True, track_top=0
        )
        pipeline = CovarianceSketcher(
            self.DIM, estimator, mode="correlation", batch_size=64
        )
        pipeline.fit_dense(samples)
        # top_index=0: the snapshot holds NO materialized pair index.
        snapshot = SketchSnapshot.from_sketcher(pipeline, top_index=0)
        assert snapshot.index_size == 0
        return QueryEngine(snapshot), model.signal_pairs()

    def test_pairs_above_without_index_finds_all_planted(self):
        engine, planted = self._engine_and_truth()
        i, j, estimates = engine.pairs_above(self.THRESHOLD)
        found = set(pair_to_index(i, j, self.DIM).tolist())
        truth = set(planted.tolist())
        # Every planted rho is >= 0.5 (from_alpha's default range), far
        # above the query threshold: recall must be exactly 1.
        recall = len(found & truth) / len(truth)
        assert recall == 1.0
        precision = len(found & truth) / max(1, len(found))
        assert precision >= 0.9
        # Estimates ordered by descending |estimate| and all above floor.
        rank = np.abs(estimates)
        assert np.all(rank[:-1] >= rank[1:])
        assert float(rank.min()) >= self.THRESHOLD

    def test_limit_bounds_the_open_world_answer(self):
        engine, _ = self._engine_and_truth()
        i, j, estimates = engine.pairs_above(self.THRESHOLD, limit=7)
        assert i.size == j.size == estimates.size == 7
        full = engine.pairs_above(self.THRESHOLD)
        np.testing.assert_array_equal(estimates, full[2][:7])

    def test_snapshot_round_trip_preserves_discovery(self, tmp_path):
        engine, _ = self._engine_and_truth()
        reference = engine.pairs_above(self.THRESHOLD)
        path = tmp_path / "hcs-snapshot.npz"
        engine.snapshot.save(path)
        for mmap in (False, True):
            loaded = SketchSnapshot.load(path, mmap=mmap)
            result = loaded.pairs_above(self.THRESHOLD)
            for got, want in zip(result, reference):
                np.testing.assert_array_equal(got, want)

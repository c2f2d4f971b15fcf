"""Per-batch ingest routing inside ``CovarianceSketcher.fit_sparse``.

A sparse batch either expands every sample's ``m(m-1)/2`` pairs and sorts
them back to unique keys, or — once its samples overlap enough — scatters
into a ``(b, u)`` block over its index union and takes one GEMM
(:func:`repro.covariance.pipeline.gemm_union` decides from the batch
alone).  Both routes hand the estimator the same keys in the same order;
each sum adds the same products in another order, so the two agree within
``2·γ_b·Σ_s|x_sa·x_sb|`` with ``γ_b = b·ε/(1 − b·ε)`` and ``ε`` the unit
roundoff.  Integer-valued streams sum exactly, which turns that bound into
bit-identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance import pipeline
from repro.covariance.pipeline import CovarianceSketcher, gemm_union
from repro.covariance.updates import (
    aggregate_pair_updates,
    sparse_batch_pairs,
    validate_sparse_batch,
)
from repro.distributed import (
    ShardSpec,
    fit_sparse_sharded,
    merge_shard_results,
    sketch_shard,
)
from repro.sketch.count_min import CountMinSketch
from repro.streaming import PaneRing

UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
DIM = 60


def _dense(rng, rows, dim=DIM, features=None):
    """Rows observing every feature of ``features`` (default: all)."""
    features = np.arange(dim) if features is None else np.sort(features)
    return [(features, rng.standard_normal(features.size)) for _ in range(rows)]


def _sparse(rng, rows, nnz=4, dim=DIM):
    return [
        (rng.choice(dim, size=nnz, replace=False), rng.standard_normal(nnz))
        for _ in range(rows)
    ]


def _block_and_tail(rng):
    """A dense block over 20 features, then short samples over all 60."""
    block = _dense(rng, 8, features=rng.choice(DIM, size=20, replace=False))
    return block + _sparse(rng, 8, nnz=3)


def _with_zeros(rng):
    """Dense rows with explicit zeros, one feature zero in every row."""
    rows = _dense(rng, 16)
    for _, values in rows:
        values[rng.choice(DIM, size=10, replace=False)] = 0.0
        values[7] = 0.0
    return rows


BATCHES = {
    "dense": lambda rng: _dense(rng, 16),
    "block+tail": _block_and_tail,
    "explicit-zeros": _with_zeros,
    "sparse": lambda rng: _sparse(rng, 16),
}


def _estimator(kind):
    total = 4096
    if kind == "cms":
        return SketchEstimator(CountMinSketch(3, 256, seed=5), total, track_top=32)
    schedule = (64, 0.01, 0.1, total) if kind == "ascs" else None
    spec = ShardSpec(
        dim=DIM,
        total_samples=total,
        method=kind,
        num_tables=3,
        num_buckets=256,
        seed=5,
        track_top=32,
        schedule=schedule,
    )
    return spec.build_estimator()


def _fit(make_sketcher, batches, *, crossover=None):
    """Fit one ``fit_sparse`` call per batch; record every ingest call.

    ``crossover`` pins ``GEMM_CROSSOVER`` for the fit: ``inf`` forces pair
    expansion, ``0`` forces the GEMM route.
    """
    sketcher = make_sketcher()
    calls = []
    ingest = sketcher.estimator.ingest

    def recording(keys, values, num_samples=1):
        calls.append((keys, np.array(values, copy=True)))
        ingest(keys, values, num_samples=num_samples)

    sketcher.estimator.ingest = recording
    with pytest.MonkeyPatch.context() as patch:
        if crossover is not None:
            patch.setattr(pipeline, "GEMM_CROSSOVER", crossover)
        for batch in batches:
            sketcher.fit_sparse(batch)
    return sketcher, calls


def _bound(batch, dim=DIM):
    """Per key of the expanded route: ``2·γ_b·Σ_s|x_sa·x_sb|``."""
    indices, values, lengths = validate_sparse_batch(batch, dim)
    keys, products = sparse_batch_pairs(indices, np.abs(values), lengths, dim)
    keys, mass = aggregate_pair_updates([keys], [products])
    gamma = len(batch) * UNIT_ROUNDOFF / (1 - len(batch) * UNIT_ROUNDOFF)
    return keys, 2 * gamma * mass


def _assert_routes_agree(routed, expanded, batches, dim=DIM):
    assert len(routed) == len(expanded) == len(batches)
    for (keys, sums), (ref_keys, ref_sums), batch in zip(routed, expanded, batches):
        np.testing.assert_array_equal(keys, ref_keys)
        bound_keys, bound = _bound(batch, dim)
        np.testing.assert_array_equal(bound_keys, ref_keys)
        assert (np.abs(sums - ref_sums) <= bound).all()


def _gemm_taken(batch, dim=DIM):
    indices, _, lengths = validate_sparse_batch(batch, dim)
    return gemm_union(indices, lengths) is not None


class TestDecision:
    def test_rule_compares_expanded_pairs_with_union_pairs(self, rng):
        """Fixed batch size and union, growing per-sample nnz: the route
        flips exactly where sum m(m-1)/2 reaches the crossover times
        u(u-1)/2."""
        features = rng.choice(10**6, size=64, replace=False)
        seen = set()
        for m in range(2, 65, 2):
            order = rng.permutation(features)
            batch = [
                (order[(s * m + np.arange(m)) % 64], rng.standard_normal(m))
                for s in range(16)
            ]
            indices, _, lengths = validate_sparse_batch(batch, 10**6)
            union = gemm_union(indices, lengths)
            u = np.unique(indices).size
            expanded = int((lengths * (lengths - 1)).sum()) // 2
            gemm = expanded >= pipeline.GEMM_CROSSOVER * (u * (u - 1) // 2)
            assert (union is not None) == gemm
            if gemm:
                np.testing.assert_array_equal(union, np.unique(indices))
            seen.add(gemm)
        assert seen == {False, True}  # the sweep crosses over

    def test_dense_batches_take_the_gemm_route(self, rng):
        assert _gemm_taken(BATCHES["dense"](rng))
        assert _gemm_taken(BATCHES["explicit-zeros"](rng))
        assert not _gemm_taken(BATCHES["sparse"](rng))

    def test_batches_without_pairs_expand(self):
        single = [(np.array([3]), np.array([1.0]))] * 4
        indices, _, lengths = validate_sparse_batch(single, DIM)
        assert gemm_union(indices, lengths) is None


class TestRouteEquivalence:
    @pytest.mark.parametrize("batch_kind", sorted(BATCHES))
    @pytest.mark.parametrize("kind", ["cs", "cms", "ascs", "hcs"])
    def test_same_keys_and_bounded_sums(self, kind, batch_kind, rng):
        batches = [BATCHES[batch_kind](rng) for _ in range(3)]
        if kind == "cms":  # count-min sketches nonnegative mass
            batches = [[(i, np.abs(v)) for i, v in batch] for batch in batches]

        def make():
            return CovarianceSketcher(
                DIM, _estimator(kind), mode="covariance", batch_size=16
            )

        routed, routed_calls = _fit(make, batches)
        expanded, expanded_calls = _fit(make, batches, crossover=float("inf"))
        _assert_routes_agree(routed_calls, expanded_calls, batches)
        ours, ref = routed.estimator, expanded.estimator
        assert ours.updates_examined == ref.updates_examined
        assert ours.updates_accepted == ref.updates_accepted
        np.testing.assert_allclose(
            ours.sketch.table, ref.sketch.table, rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("batch_kind", sorted(BATCHES))
    def test_forced_gemm_matches_expansion_in_correlation_mode(self, batch_kind, rng):
        """Either side of the crossover, forcing the other route changes
        nothing but summation order — normalised values included."""
        batches = [BATCHES[batch_kind](rng) for _ in range(3)]
        # A sample with an unsorted index order, one with one index, one
        # with none: still the same keys.
        batches[0] = batches[0] + [
            (np.array([9, 2, 40]), np.array([1.0, -2.0, 0.5])),
            (np.array([11]), np.array([3.0])),
            (np.array([], dtype=np.int64), np.array([])),
        ]

        def make():
            return CovarianceSketcher(DIM, _estimator("cs"), batch_size=32)

        gemm, gemm_calls = _fit(make, batches, crossover=0.0)
        expanded, expanded_calls = _fit(make, batches, crossover=float("inf"))
        # Correlation mode divides by the running std first, identically on
        # both sides, so the normalised sums differ by rounding alone.
        assert len(gemm_calls) == len(expanded_calls) == len(batches)
        for (keys, sums), (ref_keys, ref_sums) in zip(gemm_calls, expanded_calls):
            np.testing.assert_array_equal(keys, ref_keys)
            np.testing.assert_allclose(sums, ref_sums, rtol=1e-12, atol=1e-12)
        assert gemm.estimator.updates_examined == expanded.estimator.updates_examined

    def test_dense_block_in_a_million_features(self, rng):
        """Sixteen rows dense over 300 of 10^6 features: the GEMM runs over
        the 300-feature union and never materialises the 5e11 pair keys."""
        dim = 10**6
        features = rng.choice(dim, size=300, replace=False)
        batches = [_dense(rng, 16, dim=dim, features=features) for _ in range(2)]
        assert _gemm_taken(batches[0], dim)
        spec = ShardSpec(dim=dim, total_samples=64, num_tables=3, num_buckets=512)
        routed, routed_calls = _fit(spec.build_sketcher, batches)
        expanded, expanded_calls = _fit(
            spec.build_sketcher, batches, crossover=float("inf")
        )
        _assert_routes_agree(routed_calls, expanded_calls, batches, dim)
        assert routed_calls[0][0].size == 300 * 299 // 2
        assert routed._dense_keys is None
        assert routed.estimator.updates_examined == expanded.estimator.updates_examined

    def test_full_cover_hits_the_canonical_key_cache(self, rng):
        """A batch over all p pairs hands the sketch the canonical key array
        itself, so its hash cache hits as it does for ``fit_dense``."""
        spec = ShardSpec(dim=DIM, total_samples=64, num_tables=3, num_buckets=512)
        sketcher, calls = _fit(
            spec.build_sketcher, [BATCHES["dense"](rng) for _ in range(3)]
        )
        canonical = sketcher._dense_pair_keys()
        assert all(keys is canonical for keys, _ in calls)
        assert sketcher.estimator.sketch._cached_keys is canonical


def _integer_dense(rng, rows, dim=24):
    return [
        (np.arange(dim), rng.integers(-4, 5, size=dim).astype(np.float64))
        for _ in range(rows)
    ]


class TestBitIdentityContracts:
    SPEC = ShardSpec(
        dim=24,
        total_samples=256,
        num_tables=3,
        num_buckets=128,
        seed=3,
        batch_size=8,
        track_top=16,
    )

    def _one_shot(self, samples):
        sketcher = self.SPEC.build_sketcher()
        sketcher.fit_sparse(iter(samples))
        return sketcher

    def test_sharded_fits_match_one_shot(self, rng):
        samples = _integer_dense(rng, 96)
        assert _gemm_taken(samples[:8], 24)
        reference = self._one_shot(samples)
        serial = fit_sparse_sharded(
            samples,
            24,
            total_samples=256,
            num_tables=3,
            num_buckets=128,
            seed=3,
            batch_size=8,
            track_top=16,
            n_workers=3,
        )
        shards = [
            sketch_shard(
                self.SPEC,
                samples[start : start + 32],
                shard_index=n,
                num_shards=3,
                start=start,
            )
            for n, start in enumerate(range(0, 96, 32))
        ]
        merged = merge_shard_results(shards)
        for other in (serial.sketcher, merged):
            np.testing.assert_array_equal(
                other.estimator.sketch.table, reference.estimator.sketch.table
            )
            np.testing.assert_array_equal(
                other.sparse_moments._sum, reference.sparse_moments._sum
            )
            assert (
                other.estimator.updates_examined
                == reference.estimator.updates_examined
            )

    def test_pane_window_matches_one_shot(self, rng):
        samples = _integer_dense(rng, 64)
        ring = PaneRing(self.SPEC, num_panes=4, pane_samples=16)
        ring.ingest(samples)
        window = ring.window()
        reference = self._one_shot(samples)
        np.testing.assert_array_equal(
            window.estimator.sketch.table, reference.estimator.sketch.table
        )
        np.testing.assert_array_equal(
            window.sparse_moments._sumsq, reference.sparse_moments._sumsq
        )

    @pytest.mark.parametrize("batch_kind", sorted(BATCHES))
    def test_two_fits_are_bit_identical(self, batch_kind, rng):
        batches = [BATCHES[batch_kind](rng) for _ in range(4)]

        def make():
            return CovarianceSketcher(DIM, _estimator("cs"), batch_size=16)

        first, _ = _fit(make, batches)
        second, _ = _fit(make, batches)
        np.testing.assert_array_equal(
            first.estimator.sketch.table, second.estimator.sketch.table
        )
        tracked = [s.estimator.tracker.snapshot() for s in (first, second)]
        np.testing.assert_array_equal(tracked[0][0], tracked[1][0])
        np.testing.assert_array_equal(tracked[0][1], tracked[1][1])


class TestRefusedBeforeStateChanges:
    """A malformed batch raises ``ValueError`` and changes nothing."""

    BAD = {
        "index-past-dim": [(np.array([1, DIM]), np.array([1.0, 2.0]))],
        "negative-index": [(np.array([-1, 4]), np.array([1.0, 2.0]))],
        "duplicate-index": [(np.array([3, 5, 3]), np.array([1.0, 2.0, 3.0]))],
        "misaligned": [(np.array([1, 2, 3]), np.array([1.0, 2.0]))],
        "two-dimensional": [(np.array([[1, 2]]), np.array([[1.0, 2.0]]))],
    }

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_refused_batch_changes_no_state(self, bad, mode, rng):
        sketcher = CovarianceSketcher(DIM, _estimator("cs"), mode=mode, batch_size=8)
        sketcher.fit_sparse(_sparse(rng, 8))
        before = (
            sketcher.sparse_moments.count,
            sketcher.sparse_moments._sum.copy(),
            sketcher.sparse_moments._sumsq.copy(),
            sketcher.estimator.sketch.table.copy(),
        )
        good = [(np.array([2]), np.array([0.5]))]
        with pytest.raises(ValueError):
            sketcher.fit_sparse(good + self.BAD[bad])
        assert sketcher.samples_seen == 8
        assert sketcher.sparse_moments.count == before[0]
        np.testing.assert_array_equal(sketcher.sparse_moments._sum, before[1])
        np.testing.assert_array_equal(sketcher.sparse_moments._sumsq, before[2])
        np.testing.assert_array_equal(sketcher.estimator.sketch.table, before[3])

    def test_unsorted_distinct_indices_are_accepted(self):
        samples = [(np.array([7, 2, 5]), np.array([1.0, 2.0, 3.0]))]
        indices, values, lengths = validate_sparse_batch(samples, DIM)
        np.testing.assert_array_equal(indices, [7, 2, 5])
        np.testing.assert_array_equal(lengths, [3])

"""Per-batch ingest routing inside ``CovarianceSketcher.fit_sparse``.

A sparse batch either expands every sample's ``m(m-1)/2`` pairs and hands
them to the estimator as they come (a key repeats once per sample that
shares its pair), or — once its samples overlap enough — scatters into a
``(b, u)`` block over its index union and takes one GEMM
(:func:`repro.covariance.pipeline.gemm_union` decides from the batch
alone).  The GEMM route hands the estimator the expanded route's keys
summed per key, in ascending order; each sum adds the same products in
another order, so the two agree within ``2·γ_b·Σ_s|x_sa·x_sb|`` with
``γ_b = b·ε/(1 − b·ε)`` and ``ε`` the unit roundoff.  Integer-valued
streams sum exactly, which turns that bound into bit-identity.

The expanded route's repeats are sound because the sketches are linear
and the ASCS gate reads each key's pre-batch estimate:
``TestRepeatedPairsWithinABatch`` holds the sketch state to that of
ingesting per-key sums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ascs import ActiveSamplingCountSketch
from repro.core.estimator import SketchEstimator
from repro.core.schedule import ThresholdSchedule
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
from repro.sketch.count_sketch import CountSketch
from repro.sketch.hierarchical import HierarchicalCountSketch
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


def _summed(calls):
    """The oracle's view of recorded ingest calls: repeats summed per key."""
    return [aggregate_pair_updates([keys], [values]) for keys, values in calls]


def _assert_routes_agree(routed, expanded, batches, dim=DIM):
    """A call that expanded equals the forced-expansion call exactly; a
    call that took the GEMM route holds the forced-expansion call's keys,
    summed, within the bound."""
    assert len(routed) == len(expanded) == len(batches)
    summed = _summed(expanded)
    for (keys, sums), raw, (ref_keys, ref_sums), batch in zip(
        routed, expanded, summed, batches
    ):
        if not _gemm_taken(batch, dim):
            np.testing.assert_array_equal(keys, raw[0])
            np.testing.assert_array_equal(sums, raw[1])
            continue
        np.testing.assert_array_equal(keys, ref_keys)
        bound_keys, bound = _bound(batch, dim)
        np.testing.assert_array_equal(bound_keys, ref_keys)
        assert (np.abs(sums - ref_sums) <= bound).all()


def _assert_counts_own_updates(estimator, calls):
    """``updates_examined`` counts the updates each route handed in."""
    assert estimator.updates_examined == sum(keys.size for keys, _ in calls)


def _gemm_taken(batch, dim=DIM):
    indices, _, lengths = validate_sparse_batch(batch, dim)
    return gemm_union(indices, lengths) is not None


def _expanded_pairs(batch):
    lengths = np.asarray([len(indices) for indices, _ in batch])
    return int((lengths * (lengths - 1)).sum()) // 2


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
    @pytest.mark.parametrize("kind", ["cs", "ascs", "hcs"])
    def test_same_keys_and_bounded_sums(self, kind, batch_kind, rng):
        batches = [BATCHES[batch_kind](rng) for _ in range(3)]

        def make():
            return CovarianceSketcher(
                DIM, _estimator(kind), mode="covariance", batch_size=16
            )

        routed, routed_calls = _fit(make, batches)
        expanded, expanded_calls = _fit(make, batches, crossover=float("inf"))
        _assert_routes_agree(routed_calls, expanded_calls, batches)
        ours, ref = routed.estimator, expanded.estimator
        _assert_counts_own_updates(ours, routed_calls)
        _assert_counts_own_updates(ref, expanded_calls)
        assert ref.updates_examined == sum(_expanded_pairs(b) for b in batches)
        # Every batch is inside ASCS's exploration period: all accepted.
        assert ours.updates_accepted == ours.updates_examined
        assert ref.updates_accepted == ref.updates_examined
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
        summed = _summed(expanded_calls)
        for (keys, sums), (ref_keys, ref_sums) in zip(gemm_calls, summed):
            np.testing.assert_array_equal(keys, ref_keys)
            np.testing.assert_allclose(sums, ref_sums, rtol=1e-12, atol=1e-12)
        _assert_counts_own_updates(gemm.estimator, gemm_calls)
        _assert_counts_own_updates(expanded.estimator, expanded_calls)

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
        _assert_counts_own_updates(routed.estimator, routed_calls)
        _assert_counts_own_updates(expanded.estimator, expanded_calls)
        assert expanded.estimator.updates_examined == 2 * 16 * 300 * 299 // 2

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
        "nan-value": [(np.array([1, 4]), np.array([1.0, np.nan]))],
        "inf-value": [(np.array([1, 4]), np.array([np.inf, 2.0]))],
        "minus-inf-value": [(np.array([1, 4]), np.array([1.0, -np.inf]))],
    }

    @staticmethod
    def _state(sketcher):
        moments = sketcher.sparse_moments
        return (
            sketcher.samples_seen,
            moments.count,
            moments._sum.copy(),
            moments._sumsq.copy(),
            sketcher.estimator.sketch.table.copy(),
        )

    def _assert_unchanged(self, sketcher, before):
        after = self._state(sketcher)
        assert after[:2] == before[:2]
        for now, then in zip(after[2:], before[2:]):
            np.testing.assert_array_equal(now, then)

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_refused_batch_changes_no_state(self, bad, mode, rng):
        sketcher = CovarianceSketcher(DIM, _estimator("cs"), mode=mode, batch_size=8)
        sketcher.fit_sparse(_sparse(rng, 8))
        before = self._state(sketcher)
        good = [(np.array([2]), np.array([0.5]))]
        with pytest.raises(ValueError):
            sketcher.fit_sparse(good + self.BAD[bad])
        self._assert_unchanged(sketcher, before)

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused_on_the_gemm_route(
        self, bad_value, mode, rng
    ):
        sketcher = CovarianceSketcher(DIM, _estimator("cs"), mode=mode, batch_size=16)
        sketcher.fit_sparse(_dense(rng, 16))
        before = self._state(sketcher)
        batch = _dense(rng, 16)
        assert _gemm_taken(batch)
        batch[5][1][17] = bad_value
        with pytest.raises(ValueError, match="finite"):
            sketcher.fit_sparse(batch)
        self._assert_unchanged(sketcher, before)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_non_finite_dense_rows_are_refused(self, bad_value, rng):
        sketcher = CovarianceSketcher(
            DIM, _estimator("cs"), mode="covariance", batch_size=8
        )
        sketcher.fit_dense(rng.standard_normal((8, DIM)))
        before = (sketcher.moments.count, sketcher.estimator.sketch.table.copy())
        rows = rng.standard_normal((20, DIM))
        rows[17, 3] = bad_value
        with pytest.raises(ValueError, match="finite"):
            sketcher.fit_dense(rows)  # the bad row sits in the third batch
        with pytest.raises(ValueError, match="finite"):
            sketcher.partial_fit_dense(rows[16:])
        assert sketcher.samples_seen == 8
        assert sketcher.moments.count == before[0]
        np.testing.assert_array_equal(sketcher.estimator.sketch.table, before[1])

    @pytest.mark.parametrize("bad", ["index-past-dim", "nan-value"])
    def test_a_list_is_refused_whole(self, bad, rng):
        """Five samples in batches of two, the last one bad: a list applies
        none of them."""
        sketcher = CovarianceSketcher(DIM, _estimator("cs"), batch_size=2)
        sketcher.fit_sparse(_sparse(rng, 4))
        before = self._state(sketcher)
        samples = _sparse(rng, 4) + self.BAD[bad]
        with pytest.raises(ValueError):
            sketcher.fit_sparse(samples)
        self._assert_unchanged(sketcher, before)

    def test_a_generator_is_refused_batch_by_batch(self, rng):
        """An iterator is read one batch at a time: the batches before the
        bad one are applied, the bad one is not."""
        sketcher = CovarianceSketcher(DIM, _estimator("cs"), batch_size=2)
        samples = _sparse(rng, 4) + self.BAD["index-past-dim"]
        with pytest.raises(ValueError):
            sketcher.fit_sparse(iter(samples))
        assert sketcher.samples_seen == 4
        assert sketcher.sparse_moments.count == 4

    def test_unsorted_distinct_indices_are_accepted(self):
        samples = [(np.array([7, 2, 5]), np.array([1.0, 2.0, 3.0]))]
        indices, values, lengths = validate_sparse_batch(samples, DIM)
        np.testing.assert_array_equal(indices, [7, 2, 5])
        np.testing.assert_array_equal(lengths, [3])


def _tables(sketch):
    """Every counter array of a flat or hierarchical sketch."""
    return [level.table for level in getattr(sketch, "_levels", [sketch])]


class TestRepeatedPairsWithinABatch:
    """The expanded route hands a pair that several samples of one batch
    share to the estimator once per sample.  Every state a linear sketch
    and the ASCS gate reach that way equals ingesting per-key sums."""

    TOTAL = 256  # a power of two keeps the 1/T scaling exact
    DYADIC = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])

    def _batches(self, rng, values, num_batches=8):
        """Batches of 16 sparse samples in which samples 0 and 1 share the
        pairs of features 1, 2 and 3; the batches still expand."""
        batches = []
        for _ in range(num_batches):
            shared = (np.array([1, 2, 3]), values(rng, 3))
            tail = [
                (
                    np.sort(rng.choice(np.arange(4, DIM), size=3, replace=False)),
                    values(rng, 3),
                )
                for _ in range(14)
            ]
            batches.append([shared, (shared[0], values(rng, 3))] + tail)
        return batches

    def _estimator(self, kind):
        if kind == "ascs":
            schedule = ThresholdSchedule(32, 0.01, 0.0, self.TOTAL)
            return ActiveSamplingCountSketch(
                CountSketch(3, 256, seed=5), self.TOTAL, schedule, track_top=512
            )
        sketches = {
            "cs": lambda: CountSketch(3, 256, seed=5),
            "hcs": lambda: HierarchicalCountSketch(
                3, 256, key_space=DIM * (DIM - 1) // 2, seed=5
            ),
        }
        return SketchEstimator(sketches[kind](), self.TOTAL, track_top=512)

    def _run(self, kind, batches, observers=(None, None)):
        """The pipeline's estimator, and one fed each batch's per-key sums."""
        ours, summed = self._estimator(kind), self._estimator(kind)
        ours.observer, summed.observer = observers
        sketcher = CovarianceSketcher(DIM, ours, mode="covariance", batch_size=16)
        for batch in batches:
            assert not _gemm_taken(batch)
            sketcher.fit_sparse(batch)
            indices, values, lengths = validate_sparse_batch(batch, DIM)
            keys, products = sparse_batch_pairs(indices, values, lengths, DIM)
            assert np.unique(keys).size < keys.size  # the batch repeats keys
            keys, sums = aggregate_pair_updates([keys], [products])
            summed.ingest(keys, sums, num_samples=len(batch))
        return sketcher.estimator, summed

    @staticmethod
    def _dyadic(rng, size):
        return rng.choice(TestRepeatedPairsWithinABatch.DYADIC, size=size)

    @staticmethod
    def _gaussian(rng, size):
        return rng.standard_normal(size)

    @pytest.mark.parametrize("kind", ["cs", "ascs", "hcs"])
    def test_dyadic_values_give_bit_identical_state(self, kind, rng):
        ours, summed = self._run(kind, self._batches(rng, self._dyadic))
        for table, ref in zip(_tables(ours.sketch), _tables(summed.sketch)):
            np.testing.assert_array_equal(table, ref)
        assert ours.samples_seen == summed.samples_seen

    @pytest.mark.parametrize("kind", ["cs", "ascs", "hcs"])
    def test_other_values_differ_by_summation_order_alone(self, kind, rng):
        ours, summed = self._run(kind, self._batches(rng, self._gaussian))
        for table, ref in zip(_tables(ours.sketch), _tables(summed.sketch)):
            np.testing.assert_allclose(table, ref, rtol=1e-12, atol=1e-15)

    def test_ascs_gates_every_repeat_alike(self, rng):
        def recorder(calls):
            return lambda t, keys, values, mask: calls.append((keys, mask))

        seen, ref_seen = [], []
        ours, summed = self._run(
            "ascs",
            self._batches(rng, self._dyadic),
            (recorder(seen), recorder(ref_seen)),
        )
        sampled = 0
        for (keys, mask), (ref_keys, ref_mask) in zip(seen, ref_seen):
            uniq, inverse = np.unique(keys, return_inverse=True)
            accepted = np.bincount(inverse, weights=mask, minlength=uniq.size)
            repeats = np.bincount(inverse, minlength=uniq.size)
            # Each key's repeats are all accepted or all refused ...
            assert ((accepted == 0) | (accepted == repeats)).all()
            # ... exactly when the per-key sum is.
            np.testing.assert_array_equal(uniq, ref_keys)
            np.testing.assert_array_equal(accepted > 0, ref_mask)
            sampled += int(0 < ref_mask.sum() < ref_mask.size)
        assert sampled  # the gate both accepted and refused in some batch
        np.testing.assert_array_equal(ours.sketch.table, summed.sketch.table)

    def test_tracker_keeps_one_entry_per_repeated_key(self, rng):
        for kind in ("cs", "ascs"):
            ours, summed = self._run(kind, self._batches(rng, self._dyadic))
            keys, estimates = ours.tracker.snapshot()
            assert np.unique(keys).size == keys.size
            ref_keys, ref_estimates = summed.tracker.snapshot()
            assert dict(zip(keys.tolist(), estimates.tolist())) == dict(
                zip(ref_keys.tolist(), ref_estimates.tolist())
            )

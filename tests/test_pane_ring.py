"""PaneRing: rotation, retention, window merge law, persistence.

The central law — a window materialised from panes is **bit-identical** to
a one-shot ``fit_sparse`` over the same window's batches — is tested with
integer-valued streams and a power-of-two ``total_samples`` so every
counter and moment sum is exactly representable (the PR-2 technique that
turns "equal up to float regrouping" into exact equality).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import ThresholdSchedule
from repro.covariance import InvalidBatchError
from repro.distributed.shard import ShardSpec
from repro.streaming import PaneRing

DIM = 2000
BATCH = 8


def _spec(**overrides):
    kwargs = dict(
        dim=DIM,
        total_samples=1024,
        batch_size=BATCH,
        num_tables=3,
        num_buckets=512,
        seed=13,
        mode="covariance",
        track_top=64,
    )
    kwargs.update(overrides)
    return ShardSpec(**kwargs)


def _integer_stream(rng, n, nnz=6):
    """Sparse samples with integer values — exact partial sums."""
    return [
        (
            np.sort(rng.choice(DIM, size=nnz, replace=False)).astype(np.int64),
            rng.integers(-8, 9, size=nnz).astype(np.float64),
        )
        for _ in range(n)
    ]


class TestRotation:
    def test_pane_geometry_validation(self):
        spec = _spec()
        with pytest.raises(ValueError, match="num_panes"):
            PaneRing(spec, num_panes=0, pane_samples=BATCH)
        with pytest.raises(ValueError, match="multiple"):
            PaneRing(spec, num_panes=2, pane_samples=BATCH + 1)

    def test_lazy_rotation_and_retention(self, rng):
        ring = PaneRing(_spec(), num_panes=3, pane_samples=4 * BATCH)
        samples = _integer_stream(rng, 7 * 4 * BATCH)
        ring.ingest(samples)
        # 7 panes of data: the 7th is the (full) open pane — lazy rotation
        # closes a pane only when the next sample arrives.
        assert ring.rotations == 6
        assert ring.samples_seen == 7 * 4 * BATCH
        # Retention: open pane + num_panes-1 closed = 3 panes in the window.
        assert ring.window_span == 3 * 4 * BATCH
        assert ring.window_start == 4 * 4 * BATCH
        panes = ring.panes()
        assert [p.start for p in panes] == [128, 160, 192]
        assert all(p.num_samples == 4 * BATCH for p in panes)

    def test_empty_rotate_is_noop(self, rng):
        ring = PaneRing(_spec(), num_panes=2, pane_samples=BATCH)
        assert ring.rotate() is None
        ring.ingest(_integer_stream(rng, BATCH))
        assert ring.rotate() is not None
        assert ring.rotate() is None  # fresh open pane is empty again

    def test_a_bad_list_fills_and_rotates_nothing(self, rng):
        """fit_sparse (the serving write side's entry) refuses a list whose
        last sample is bad before any pane fills or rotates."""
        ring = PaneRing(_spec(), num_panes=4, pane_samples=2 * BATCH)
        samples = _integer_stream(rng, 5 * BATCH)
        samples[-1] = (np.array([3, DIM]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ring.fit_sparse(samples)
        assert ring.samples_seen == 0
        assert ring.rotations == 0

    def test_incremental_ingest_equals_bulk(self, rng):
        """Feeding batch-aligned chunks across calls matches one big call."""
        samples = _integer_stream(rng, 12 * BATCH)
        bulk = PaneRing(_spec(), num_panes=4, pane_samples=2 * BATCH)
        bulk.ingest(samples)
        chunked = PaneRing(_spec(), num_panes=4, pane_samples=2 * BATCH)
        for start in range(0, len(samples), BATCH):
            chunked.ingest(samples[start : start + BATCH])
        np.testing.assert_array_equal(
            bulk.window().estimator.sketch.table,
            chunked.window().estimator.sketch.table,
        )


class TestWindowMergeLaw:
    @pytest.mark.parametrize("num_panes", [1, 2, 4])
    def test_window_bit_identical_to_one_shot_fit(self, num_panes, rng):
        """Acceptance: window == one-shot fit_sparse over the same batches."""
        spec = _spec()
        pane_samples = 4 * BATCH
        total = num_panes * pane_samples
        samples = _integer_stream(rng, total)

        ring = PaneRing(spec, num_panes=num_panes, pane_samples=pane_samples)
        ring.ingest(samples)
        assert ring.window_span == total  # nothing has aged out yet
        window = ring.window()

        reference = spec.build_sketcher()
        reference.fit_sparse(iter(samples))

        np.testing.assert_array_equal(
            window.estimator.sketch.table, reference.estimator.sketch.table
        )
        probe = rng.integers(0, window.num_pairs, size=2000).astype(np.int64)
        np.testing.assert_array_equal(
            window.estimate_keys(probe), reference.estimate_keys(probe)
        )
        # Moments merge exactly too (plain accumulator sums).
        np.testing.assert_array_equal(
            window.sparse_moments._sum, reference.sparse_moments._sum
        )
        assert window.sparse_moments.count == reference.sparse_moments.count

    def test_window_after_aging_out_matches_recent_fit(self, rng):
        """Old panes leave the window: only the retained suffix is fitted."""
        spec = _spec()
        pane_samples = 2 * BATCH
        num_panes = 3
        samples = _integer_stream(rng, 8 * pane_samples)
        ring = PaneRing(spec, num_panes=num_panes, pane_samples=pane_samples)
        ring.ingest(samples)

        retained = samples[-num_panes * pane_samples :]
        reference = spec.build_sketcher()
        reference.fit_sparse(iter(retained))
        window = ring.window()
        np.testing.assert_array_equal(
            window.estimator.sketch.table, reference.estimator.sketch.table
        )
        probe = rng.integers(0, window.num_pairs, size=1000).astype(np.int64)
        np.testing.assert_array_equal(
            window.estimate_keys(probe), reference.estimate_keys(probe)
        )

    def test_ascs_panes_merge(self, rng):
        """ASCS panes carry sampler state through the window merge."""
        schedule = (64, 1e-4, 0.5, 1024)
        spec = _spec(method="ascs", schedule=schedule)
        ring = PaneRing(spec, num_panes=2, pane_samples=8 * BATCH)
        ring.ingest(_integer_stream(rng, 16 * BATCH))
        window = ring.window()
        est = window.estimator
        assert est.samples_seen == 16 * BATCH
        assert est.updates_examined > 0
        assert isinstance(est.schedule, ThresholdSchedule)

    def test_mid_pane_window_includes_open_pane(self, rng):
        spec = _spec()
        ring = PaneRing(spec, num_panes=2, pane_samples=4 * BATCH)
        samples = _integer_stream(rng, 5 * BATCH)  # 1 full pane + 1 batch
        ring.ingest(samples)
        assert ring.window_span == 5 * BATCH
        reference = spec.build_sketcher()
        reference.fit_sparse(iter(samples))
        np.testing.assert_array_equal(
            ring.window().estimator.sketch.table,
            reference.estimator.sketch.table,
        )


def _integer_rows(rng, n, dim=48):
    """Dense rows with integer values — exact partial sums."""
    return rng.integers(-4, 5, size=(n, dim)).astype(np.float64)


class TestDenseRows:
    """A dense row enters the ring as the sample ``(arange(d), row)``."""

    def test_fit_dense_equals_full_width_samples(self, rng):
        spec = _spec(dim=48)
        rows = _integer_rows(rng, 6 * BATCH + 3)
        dense = PaneRing(spec, num_panes=3, pane_samples=2 * BATCH)
        sparse = PaneRing(spec, num_panes=3, pane_samples=2 * BATCH)
        for chunk in (rows[:13], rows[13:]):
            dense.fit_dense(chunk)
            sparse.fit_sparse([(np.arange(48), row) for row in chunk])
        assert (dense.samples_seen, dense.rotations) == (
            sparse.samples_seen,
            sparse.rotations,
        )
        np.testing.assert_array_equal(
            dense.window().estimator.sketch.table,
            sparse.window().estimator.sketch.table,
        )
        np.testing.assert_array_equal(
            dense.window().sparse_moments._sumsq,
            sparse.window().sparse_moments._sumsq,
        )

    def test_window_of_dense_rows_matches_a_fit_of_the_retained_rows(self, rng):
        spec = _spec(dim=48)
        pane_samples = 2 * BATCH
        rows = _integer_rows(rng, 5 * pane_samples)
        ring = PaneRing(spec, num_panes=2, pane_samples=pane_samples)
        ring.fit_dense(rows)
        assert ring.rotations == 4
        assert ring.window_span == 2 * pane_samples
        reference = spec.build_sketcher().fit_dense(rows[-2 * pane_samples :])
        window = ring.window()
        np.testing.assert_array_equal(
            window.estimator.sketch.table, reference.estimator.sketch.table
        )
        np.testing.assert_array_equal(
            window.sparse_moments._sum, reference.sparse_moments._sum
        )

    def test_wrong_width_rows_fill_nothing(self, rng):
        ring = PaneRing(_spec(dim=48), num_panes=2, pane_samples=BATCH)
        with pytest.raises(InvalidBatchError, match=r"shape \(n, 48\)"):
            ring.fit_dense(_integer_rows(rng, 3 * BATCH, dim=47))
        assert (ring.samples_seen, ring.rotations) == (0, 0)

    def test_a_non_finite_row_refuses_the_whole_call(self, rng):
        ring = PaneRing(_spec(dim=48), num_panes=4, pane_samples=BATCH)
        rows = _integer_rows(rng, 3 * BATCH)
        rows[-1, 7] = np.inf
        with pytest.raises(InvalidBatchError, match="finite"):
            ring.fit_dense(rows)
        assert (ring.samples_seen, ring.rotations) == (0, 0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, rng):
        ring = PaneRing(_spec(), num_panes=3, pane_samples=2 * BATCH)
        samples = _integer_stream(rng, 5 * BATCH)
        ring.ingest(samples)
        paths = ring.save(tmp_path)
        assert all(path.exists() for path in paths)

        loaded = PaneRing.load(tmp_path)
        assert loaded.samples_seen == ring.samples_seen
        assert loaded.rotations == ring.rotations
        assert loaded.window_span == ring.window_span
        np.testing.assert_array_equal(
            loaded.window().estimator.sketch.table,
            ring.window().estimator.sketch.table,
        )

    def test_load_then_continue_matches_uninterrupted(self, tmp_path, rng):
        """Checkpoint/resume at a batch boundary is invisible to the window."""
        samples = _integer_stream(rng, 8 * BATCH)
        cut = 4 * BATCH  # batch- and pane-aligned
        straight = PaneRing(_spec(), num_panes=4, pane_samples=2 * BATCH)
        straight.ingest(samples)

        first = PaneRing(_spec(), num_panes=4, pane_samples=2 * BATCH)
        first.ingest(samples[:cut])
        first.save(tmp_path)
        resumed = PaneRing.load(tmp_path)
        resumed.ingest(samples[cut:])

        assert resumed.samples_seen == straight.samples_seen
        np.testing.assert_array_equal(
            resumed.window().estimator.sketch.table,
            straight.window().estimator.sketch.table,
        )

    def test_save_prunes_stale_panes(self, tmp_path, rng):
        ring = PaneRing(_spec(), num_panes=2, pane_samples=BATCH)
        ring.ingest(_integer_stream(rng, 2 * BATCH))
        ring.save(tmp_path)
        ring.ingest(_integer_stream(rng, 4 * BATCH))
        ring.save(tmp_path)
        on_disk = sorted(p.name for p in tmp_path.glob("pane-*.npz"))
        expected = sorted(
            f"pane-{p.shard_index:08d}.npz" for p in ring.panes()
        )
        assert on_disk == expected

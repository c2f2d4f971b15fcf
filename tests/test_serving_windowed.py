"""Windowed serving: PaneRing write side behind ServingEstimator + HTTP.

The serving read path is unchanged — these tests pin the integration
contract: snapshots materialise the *current window* (not the whole
stream), swaps stay atomic, and ``window_span`` / ``decay`` metadata flows
through ``stats()`` and the HTTP ``/stats`` route.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.shard import ShardSpec
from repro.serving import ServingEstimator
from repro.serving.http import ServingClient, serve_in_background

DIM = 800
BATCH = 8


@pytest.fixture
def spec():
    return ShardSpec(
        dim=DIM,
        total_samples=4096,
        batch_size=BATCH,
        num_tables=3,
        num_buckets=512,
        seed=5,
        mode="covariance",
        track_top=64,
    )


def _stream(rng, n, nnz=5):
    return [
        (
            np.sort(rng.choice(DIM, size=nnz, replace=False)).astype(np.int64),
            rng.integers(-6, 7, size=nnz).astype(np.float64),
        )
        for _ in range(n)
    ]


class TestWindowedServing:
    def test_snapshot_serves_current_window(self, spec, rng):
        serving = ServingEstimator.windowed(
            spec, num_panes=3, pane_samples=2 * BATCH, top_index=64
        )
        samples = _stream(rng, 8 * BATCH)
        serving.ingest_sparse(samples)
        serving.refresh()

        window = serving.sketcher.window()
        probe = rng.integers(0, window.num_pairs, size=500).astype(np.int64)
        np.testing.assert_array_equal(
            serving.query_keys(probe), window.estimate_keys(probe)
        )
        # The snapshot covers the window's samples, not the whole stream.
        assert serving.snapshot.samples_seen == serving.sketcher.window_span
        assert serving.sketcher.samples_seen == 8 * BATCH

    def test_refresh_every_uses_total_ingest_position(self, spec, rng):
        serving = ServingEstimator.windowed(
            spec,
            num_panes=2,
            pane_samples=2 * BATCH,
            top_index=16,
            refresh_every=4 * BATCH,
        )
        serving.ingest_sparse(_stream(rng, 4 * BATCH))
        assert serving.swap_count == 1
        # Another full window's worth triggers exactly one more swap even
        # though window_span (what the snapshot reports) never exceeds the
        # retained panes.
        serving.ingest_sparse(_stream(rng, 4 * BATCH))
        assert serving.swap_count == 2

    def test_stats_expose_window_metadata(self, spec, rng):
        serving = ServingEstimator.windowed(
            spec, num_panes=3, pane_samples=2 * BATCH, top_index=16
        )
        serving.ingest_sparse(_stream(rng, 5 * BATCH))
        serving.refresh()
        stats = serving.stats()
        assert stats["window_span"] == 5 * BATCH
        assert stats["decay"] is None
        window = stats["window"]
        assert window["num_panes"] == 3
        assert window["pane_samples"] == 2 * BATCH
        assert window["rotations"] == 2
        assert window["served_window_span"] == 5 * BATCH

    def test_export_hook_merges_off_lock(self, spec, rng):
        """The pane merge must not run under the serving write lock.

        ``PaneRing.export_snapshot_state`` holds the lock only for the
        pane extraction; the merge runs on the extracted (immutable)
        panes.  Equivalence: the exported state answers exactly like the
        materialised window.
        """
        import threading

        ring = ServingEstimator.windowed(
            spec, num_panes=3, pane_samples=2 * BATCH
        ).sketcher
        ring.ingest(_stream(rng, 5 * BATCH))

        lock = threading.Lock()
        acquired_during_merge = []
        original_panes = ring.panes

        def instrumented_panes():
            acquired_during_merge.append(lock.locked())
            return original_panes()

        ring.panes = instrumented_panes
        state = ring.export_snapshot_state(lock=lock)
        # The extraction saw the lock held; by the time the hook returned
        # the lock was released again (merge ran outside it).
        assert acquired_during_merge == [True]
        assert not lock.locked()
        probe = rng.integers(0, 10_000, size=200).astype(np.int64)
        np.testing.assert_array_equal(
            state["sketch"].query(probe),
            ring.window().estimator.sketch.query(probe),
        )

    @pytest.mark.parametrize("stack", ["memory", "durable", "windowed"])
    def test_dense_rows_ingest_as_full_width_samples(self, stack, tmp_path, rng):
        """Every write side, the window included, takes a dense row as the
        sample ``(arange(d), row)``: the answers match bit for bit."""
        dim = 40
        spec = ShardSpec(
            dim=dim,
            total_samples=512,
            batch_size=BATCH,
            num_tables=3,
            num_buckets=512,
            seed=5,
            mode="correlation",
            track_top=64,
        )

        def build(name):
            if stack == "windowed":
                return ServingEstimator.windowed(
                    spec, num_panes=3, pane_samples=2 * BATCH
                )
            if stack == "durable":
                return ServingEstimator.durable(tmp_path / name, spec)
            return ServingEstimator(spec.build_sketcher())

        dense, sparse = build("dense"), build("sparse")
        rows = rng.standard_normal((5 * BATCH + 3, dim)) + 0.05
        features = np.arange(dim)
        for chunk in (rows[:20], rows[20:]):
            dense.ingest_dense(chunk)
            sparse.ingest_sparse([(features, row) for row in chunk])
        dense.refresh()
        sparse.refresh()
        keys = np.arange(dim * (dim - 1) // 2)
        got, want = dense.query_keys(keys), sparse.query_keys(keys)
        assert got.tobytes() == want.tobytes()
        if stack == "durable":
            dense.sketcher.close()
            sparse.sketcher.close()


class TestWindowedHTTP:
    def test_stats_route_carries_window_and_ingest_rotates(self, spec, rng):
        serving = ServingEstimator.windowed(
            spec, num_panes=2, pane_samples=2 * BATCH, top_index=16
        )
        serving.ingest_sparse(_stream(rng, 2 * BATCH))
        serving.refresh()
        server, _ = serve_in_background(serving)
        try:
            client = ServingClient(server.url)
            stats = client.stats()
            assert stats["window_span"] == 2 * BATCH
            assert stats["window"]["pane_samples"] == 2 * BATCH
            assert stats["decay"] is None

            # Ingest over HTTP crosses a pane boundary; /refresh swaps.
            client.ingest(_stream(rng, 2 * BATCH))
            refreshed = client.refresh()
            assert refreshed["swap_count"] == 2
            stats = client.stats()
            assert stats["window"]["rotations"] >= 1
            assert stats["write_samples_seen"] == 4 * BATCH

            # Queries answer from the served window snapshot.
            window = serving.sketcher.window()
            probe = rng.integers(0, window.num_pairs, size=50).astype(np.int64)
            np.testing.assert_array_equal(
                client.query_keys(probe), serving.query_keys(probe)
            )
        finally:
            server.shutdown()

"""Adversarial query parameters: snapshot layer, HTTP layer, pair codec.

Regression suite for the index-query bug sweep: negative ``k``/``limit``
used to fall through Python's negative-slice semantics (``top_pairs(-1)``
returned all-but-one of the index), NaN thresholds silently corrupted
``searchsorted`` comparisons, and ``/above`` with a low threshold and no
``limit`` serialized an unbounded body.  Every hostile input below must
now either raise (400 over HTTP) or come back explicitly bounded.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import CovarianceSketcher
from repro.hashing.pairs import (
    MAX_DIMENSION,
    index_to_pair,
    num_pairs,
    pair_to_index,
)
from repro.serving import QueryEngine, SketchSnapshot
from repro.serving.http import serve_in_background
from repro.sketch import CountSketch

DIM = 40
CAP = 16  # deliberately tiny max_response_pairs so truncation is easy to hit


@pytest.fixture(scope="module")
def snapshot():
    rng = np.random.default_rng(99)
    estimator = SketchEstimator(
        CountSketch(3, 512, seed=31), total_samples=64, track_top=0
    )
    sketcher = CovarianceSketcher(DIM, estimator, mode="covariance", batch_size=16)
    sketcher.fit_dense(rng.normal(size=(64, DIM)))
    snap = SketchSnapshot.from_sketcher(sketcher, top_index=64)
    assert snap.index_size == 64  # enough rows to expose slicing bugs
    return snap


@pytest.fixture(scope="module")
def capped_server(snapshot):
    server, _thread = serve_in_background(
        QueryEngine(snapshot), max_response_pairs=CAP
    )
    yield server
    server.stop()


def _get(server, path: str) -> dict:
    with urllib.request.urlopen(f"{server.url}{path}") as response:
        return json.loads(response.read().decode("utf-8"))


def _status(server, path: str) -> int:
    try:
        with urllib.request.urlopen(f"{server.url}{path}") as response:
            return response.status
    except urllib.error.HTTPError as err:
        with err:
            return err.code


class TestSnapshotValidation:
    def test_top_pairs_negative_k_raises(self, snapshot):
        # The original bug: k=-1 sliced [:-1] and returned 63 rows.
        with pytest.raises(ValueError, match="k must be >= 0"):
            snapshot.top_pairs(-1)

    def test_top_pairs_k_zero_and_overshoot_clamped(self, snapshot):
        i, j, estimates = snapshot.top_pairs(0)
        assert i.size == j.size == estimates.size == 0
        i, j, estimates = snapshot.top_pairs(10**9)
        assert i.size == snapshot.index_size

    def test_top_neighbors_negative_k_raises(self, snapshot):
        with pytest.raises(ValueError, match="k must be >= 0"):
            snapshot.top_neighbors(0, -1)
        partners, estimates = snapshot.top_neighbors(0, 0)
        assert partners.size == estimates.size == 0

    def test_pairs_above_rejects_nan_threshold(self, snapshot):
        with pytest.raises(ValueError, match="NaN"):
            snapshot.pairs_above(float("nan"))

    def test_pairs_above_rejects_negative_limit(self, snapshot):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            snapshot.pairs_above(0.1, limit=-1)
        i, j, estimates = snapshot.pairs_above(-1e9, limit=0)
        assert i.size == 0

    @pytest.mark.parametrize(
        "lo,hi", [(float("nan"), 1.0), (0.0, float("nan")), (1.0, 0.0)]
    )
    def test_pairs_in_range_rejects_bad_bounds(self, snapshot, lo, hi):
        with pytest.raises(ValueError):
            snapshot.pairs_in_range(lo, hi)

    def test_pairs_in_range_rejects_negative_limit(self, snapshot):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            snapshot.pairs_in_range(0.0, 1.0, limit=-1)
        i, j, estimates = snapshot.pairs_in_range(-1e9, 1e9, limit=0)
        assert i.size == 0

    def test_engine_propagates_validation(self, snapshot):
        engine = QueryEngine(snapshot)
        with pytest.raises(ValueError):
            engine.top_pairs(-1)
        with pytest.raises(ValueError):
            engine.pairs_above(float("nan"))
        with pytest.raises(ValueError):
            engine.pairs_in_range(2.0, 1.0)


class TestHTTPAdversarial:
    """Hostile query strings over a real socket, cap = 16 rows."""

    def test_top_negative_k_is_400(self, capped_server):
        assert _status(capped_server, "/top?k=-1") == 400

    def test_top_k_zero_is_empty_200(self, capped_server):
        body = _get(capped_server, "/top?k=0")
        assert body["i"] == [] and body["truncated"] is False

    def test_top_huge_k_is_bounded_and_flagged(self, capped_server):
        body = _get(capped_server, "/top?k=999999999")
        assert len(body["i"]) == CAP
        assert len(body["estimates"]) == CAP
        assert body["truncated"] is True

    def test_neighbors_negative_k_is_400(self, capped_server):
        assert _status(capped_server, "/neighbors?i=0&k=-1") == 400

    def test_neighbors_huge_k_is_bounded(self, capped_server):
        body = _get(capped_server, "/neighbors?i=0&k=999999999")
        assert len(body["partners"]) <= CAP

    def test_above_nan_threshold_is_400(self, capped_server):
        assert _status(capped_server, "/above?threshold=nan") == 400

    def test_above_negative_limit_is_400(self, capped_server):
        assert _status(capped_server, "/above?threshold=0.1&limit=-1") == 400

    def test_above_limit_zero_is_empty(self, capped_server):
        body = _get(capped_server, "/above?threshold=-1e9&limit=0")
        assert body["i"] == []

    @pytest.mark.parametrize("threshold", ["-1e9", "-inf"])
    def test_above_everything_matches_but_body_stays_bounded(
        self, capped_server, threshold
    ):
        # Before the cap this serialized the entire index in one body.
        body = _get(capped_server, f"/above?threshold={threshold}")
        assert len(body["i"]) == CAP
        assert body["truncated"] is True

    def test_above_huge_limit_is_bounded(self, capped_server):
        body = _get(capped_server, "/above?threshold=-1e9&limit=999999999")
        assert len(body["i"]) == CAP
        assert body["truncated"] is True

    def test_above_small_limit_passes_through_untruncated(self, capped_server):
        body = _get(capped_server, "/above?threshold=-1e9&limit=3")
        assert len(body["i"]) == 3
        assert body["truncated"] is False

    def test_garbage_params_are_400_not_500(self, capped_server):
        assert _status(capped_server, "/top?k=banana") == 400
        assert _status(capped_server, "/above?threshold=") == 400


def _row_offset(i: int, d: int) -> int:
    """First flat key of row ``i`` (exact Python-int arithmetic)."""
    return i * (2 * d - i - 1) // 2


class TestPairCodecBoundary:
    """Round-trip the pair codec where float rounding would bite.

    Near ``MAX_DIMENSION`` the flat keys approach ~5e17, beyond float64's
    exact-integer range, so ``index_to_pair`` must land on the right row
    via its integer-correction loops.  Row boundaries (first/last key of a
    row) are exactly where an off-by-one in the quadratic inversion shows.
    """

    @pytest.mark.parametrize(
        "d", [MAX_DIMENSION, MAX_DIMENSION - 1, 999_999_937]
    )
    def test_round_trip_at_row_boundaries(self, d):
        rows = [0, 1, 2, d // 3, d // 2, d - 3, d - 2]
        raw = []
        for row in rows:
            base = _row_offset(row, d)
            raw.extend([base, base + 1, _row_offset(row + 1, d) - 1])
        keys = np.unique(np.asarray(raw, dtype=np.int64))
        keys = keys[(keys >= 0) & (keys < num_pairs(d))]
        i, j = index_to_pair(keys, d)
        assert np.all((0 <= i) & (i < j) & (j < d))
        np.testing.assert_array_equal(pair_to_index(i, j, d), keys)

    def test_round_trip_random_keys_at_max_dimension(self):
        d = MAX_DIMENSION
        rng = np.random.default_rng(7)
        keys = rng.integers(0, num_pairs(d), size=2000, dtype=np.int64)
        i, j = index_to_pair(keys, d)
        assert np.all((0 <= i) & (i < j) & (j < d))
        np.testing.assert_array_equal(pair_to_index(i, j, d), keys)

    def test_round_trip_random_pairs_at_max_dimension(self):
        d = MAX_DIMENSION
        rng = np.random.default_rng(11)
        i = rng.integers(0, d - 1, size=2000, dtype=np.int64)
        j = rng.integers(i + 1, d, dtype=np.int64)
        keys = pair_to_index(i, j, d)
        back_i, back_j = index_to_pair(keys, d)
        np.testing.assert_array_equal(back_i, i)
        np.testing.assert_array_equal(back_j, j)

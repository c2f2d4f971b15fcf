"""Hierarchical count sketch for open-world heavy-key discovery.

A flat count sketch answers "how heavy is key ``k``?" but cannot answer
"which keys are heavy?" without someone enumerating candidates — which is
exactly the closed-world limitation the paper's trillion-entry setting
cannot afford.  :class:`HierarchicalCountSketch` stacks ``L`` count-sketch
levels over dyadic key intervals: level 0 is the ordinary flat sketch over
the keys themselves, and level ``l`` sketches the *aggregated* mass of the
interval ``[v * B**l, (v+1) * B**l)`` under the prefix key
``v = key // B**l`` (``B`` = ``branching``).  Every update feeds all
levels, so an interval's counter is the exact sum of its children's mass
plus count-sketch noise.

:meth:`find_heavy` then recovers all keys whose estimate clears a
threshold by descending the hierarchy: start from the (small) root level,
query every interval, and expand only the children of intervals whose
estimate clears ``threshold`` minus an ``l2``-calibrated noise floor.  The
touched frontier stays proportional to the number of heavy keys times
``B * L`` instead of the key-space size — the hierarchical heavy-hitter
construction of Cormode–Hadjieleftheriou, applied to the signed-value
regime of the paper.

Caveat (signed streams): an interval's sketched mass is the *signed sum*
of its children, so two large entries of opposite sign inside one interval
can cancel at coarse levels and hide from the descent.  For covariance
streams with planted positive-correlation structure (the paper's regime)
this does not arise; for adversarially signed data, shrink ``branching``
(narrower intervals cancel less) or raise ``noise_scale`` recall margins.

Merging is exact and per-level (counter sums), so the hierarchy rides the
distributed shard/reduce machinery unchanged: a merged hierarchy is
bit-identical to single-shot ingest of the concatenated stream.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sketch.base import ValueSketch, ensure_mergeable, validate_batch
from repro.sketch.count_sketch import CountSketch

__all__ = ["HierarchicalCountSketch"]

#: Default ceiling for the root level's interval count: the descent starts
#: by querying every root interval, so the root must be cheap to scan
#: exhaustively.  1024 keys ~ one vectorised query batch.
DEFAULT_MAX_ROOT_INTERVALS = 1024


def _auto_levels(key_space: int, branching: int, max_root: int) -> int:
    """Smallest level count whose root has at most ``max_root`` intervals."""
    levels = 1
    size = key_space
    while size > max_root:
        levels += 1
        size = -(-size // branching)  # ceil division
    return levels


class HierarchicalCountSketch(ValueSketch):
    """``L`` count-sketch levels over dyadic key intervals.

    Parameters
    ----------
    num_tables, num_buckets:
        ``K`` and ``R`` shared by every level (each level is a full
        :class:`~repro.sketch.count_sketch.CountSketch`); total memory is
        ``levels * K * R`` counters.
    key_space:
        Exclusive upper bound on inserted keys.  For pair-key streams this
        is ``d * (d - 1) / 2`` (:func:`repro.hashing.num_pairs`).
    branching:
        Interval fan-out ``B`` between adjacent levels.
    levels:
        Explicit level count (``None`` auto-sizes so the root has at most
        ``max_root_intervals`` intervals).
    max_root_intervals:
        Root-size ceiling used by the auto sizing.
    seed:
        Master seed; per-level hash seeds are spawned from it, so two
        hierarchies with equal parameters and seed are mergeable.
    dtype, quantum:
        Forwarded to every level's :class:`CountSketch` (see there).
    """

    def __init__(
        self,
        num_tables: int,
        num_buckets: int,
        *,
        key_space: int,
        branching: int = 16,
        levels: int | None = None,
        max_root_intervals: int = DEFAULT_MAX_ROOT_INTERVALS,
        seed: int = 0,
        dtype=np.float64,
        quantum: float | None = None,
    ):
        key_space = int(key_space)
        branching = int(branching)
        if key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {key_space}")
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        if int(max_root_intervals) < 1:
            raise ValueError(
                f"max_root_intervals must be >= 1, got {max_root_intervals}"
            )
        if levels is None:
            levels = _auto_levels(key_space, branching, int(max_root_intervals))
        levels = int(levels)
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        self.num_tables = int(num_tables)
        self.num_buckets = int(num_buckets)
        self.key_space = key_space
        self.branching = branching
        self.levels = levels
        self.seed = int(seed)

        # Level l sketches key // B**l; its key space is ceil(space / B**l).
        self._divisors = [branching**level for level in range(levels)]
        self._level_sizes = [
            -(-key_space // divisor) for divisor in self._divisors
        ]
        children = np.random.SeedSequence(self.seed).spawn(levels)
        self._levels = [
            CountSketch(
                self.num_tables,
                self.num_buckets,
                seed=int(child.generate_state(1)[0]),
                dtype=dtype,
                quantum=quantum,
            )
            for child in children
        ]
        # Per-level noise floors are O(K*R) to compute; cache them once the
        # stores are frozen (a serving snapshot descends many times).
        self._noise_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def _check_keys(self, keys: np.ndarray) -> None:
        if keys.size and int(keys.max()) >= self.key_space:
            raise ValueError(
                f"keys must be < key_space ({self.key_space}); "
                f"got max key {int(keys.max())}"
            )

    def insert(self, keys, values) -> None:
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return
        self._check_keys(keys)
        # Leaf first: a frozen hierarchy raises on the first scatter,
        # before any coarser level has been touched (no partial mutation).
        for level, divisor in zip(self._levels, self._divisors):
            level.insert(keys if divisor == 1 else keys // divisor, values)

    def insert_and_query(self, keys, values) -> np.ndarray:
        """Insert into all levels and return the leaf's post-insert estimates.

        Bit-identical to ``insert`` followed by ``query`` (the leaf level
        is an ordinary :class:`CountSketch`, whose fused path carries the
        same guarantee).
        """
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        self._check_keys(keys)
        estimates = self._levels[0].insert_and_query(keys, values)
        for level, divisor in zip(self._levels[1:], self._divisors[1:]):
            level.insert(keys // divisor, values)
        return estimates

    def query(self, keys) -> np.ndarray:
        """Leaf-level estimates — identical semantics to a flat sketch."""
        return self._levels[0].query(keys)

    def query_per_table(self, keys) -> np.ndarray:
        """All ``K`` leaf per-table estimates (rows) for diagnostic use."""
        return self._levels[0].query_per_table(keys)

    def query_level(self, keys, level: int) -> np.ndarray:
        """Estimated aggregate mass of interval keys at ``level``."""
        return self._levels[level].query(keys)

    def reset(self) -> None:
        for level in self._levels:
            level.reset()
        self._noise_cache.clear()

    def freeze(self) -> "HierarchicalCountSketch":
        """Freeze every level's counters (in place) and return ``self``."""
        for level in self._levels:
            level.freeze()
        return self

    # ------------------------------------------------------------------
    # Heavy-key discovery
    # ------------------------------------------------------------------
    def level_noise_std(self, level: int) -> float:
        """Calibrated count-sketch error scale of one level's estimates.

        The standard deviation of a single-table estimate error is
        ``||f||_2 / sqrt(R)`` where ``f`` is the level's frequency vector;
        ``||f||_2`` is itself estimated from the level's counters the
        CSH way — the median over tables of each row's ``l2`` norm (each
        row's sum of squares concentrates around ``||f||_2^2``).
        """
        store = self._levels[level]._store
        if store.frozen and level in self._noise_cache:
            return self._noise_cache[level]
        table = np.asarray(self._levels[level].table, dtype=np.float64)
        row_sq = np.einsum("kr,kr->k", table, table)
        l2 = math.sqrt(float(np.median(row_sq)))
        if store.quantum is not None:
            l2 *= store.quantum
        noise = l2 / math.sqrt(self.num_buckets)
        if store.frozen:
            self._noise_cache[level] = noise
        return noise

    def find_heavy(
        self,
        threshold: float,
        *,
        two_sided: bool = True,
        noise_scale: float = 3.0,
        limit: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All keys whose estimate clears ``threshold``, by noise-floored descent.

        Starting from the root level, every surviving interval's ``B``
        children are expanded at the next level; an interval survives when
        its estimate's rank reaches ``threshold`` minus ``noise_scale``
        times that level's :meth:`level_noise_std` (so a heavy leaf is not
        pruned just because sketch noise nudged an ancestor below the
        threshold).  At the leaf level the exact ``threshold`` applies.

        Rank is ``abs(estimate)`` when ``two_sided`` (the default —
        matching :class:`~repro.serving.SketchSnapshot` two-sided index
        semantics) and the signed estimate otherwise.

        Returns ``(keys, estimates)`` sorted by descending rank (stable),
        truncated to ``limit`` when given.  ``threshold`` must be a
        positive, non-NaN float: the descent prunes on mass, so a
        non-positive threshold would degenerate to enumerating the entire
        key space (use a materialized index for that regime).
        """
        threshold = float(threshold)
        if math.isnan(threshold):
            raise ValueError("threshold must not be NaN")
        if not threshold > 0.0:
            raise ValueError(
                f"find_heavy requires a positive threshold, got {threshold}"
            )
        noise_scale = float(noise_scale)
        if not noise_scale >= 0.0:
            raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")

        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if limit == 0:
            return empty
        offsets = np.arange(self.branching, dtype=np.int64)
        frontier = np.arange(self._level_sizes[-1], dtype=np.int64)
        for level in range(self.levels - 1, 0, -1):
            estimates = self._levels[level].query(frontier)
            rank = np.abs(estimates) if two_sided else estimates
            cutoff = threshold - noise_scale * self.level_noise_std(level)
            frontier = frontier[rank >= cutoff]
            if frontier.size == 0:
                return empty
            children = (frontier[:, None] * self.branching + offsets).ravel()
            frontier = children[children < self._level_sizes[level - 1]]

        estimates = self._levels[0].query(frontier)
        rank = np.abs(estimates) if two_sided else estimates
        mask = rank >= threshold
        keys, estimates, rank = frontier[mask], estimates[mask], rank[mask]
        order = np.argsort(-rank, kind="stable")
        keys, estimates = keys[order], estimates[order]
        if limit is not None:
            keys, estimates = keys[:limit], estimates[:limit]
        return keys, estimates

    # ------------------------------------------------------------------
    # Merge / persistence surface
    # ------------------------------------------------------------------
    def merge(self, other: "HierarchicalCountSketch") -> "HierarchicalCountSketch":
        """Sum another hierarchy's counters in place, level by level."""
        ensure_mergeable(
            self,
            other,
            (
                "num_tables",
                "num_buckets",
                "seed",
                "key_space",
                "branching",
                "levels",
            ),
        )
        for mine, theirs in zip(self._levels, other._levels):
            mine.merge(theirs)
        self._noise_cache.clear()
        return self

    @property
    def table(self) -> np.ndarray:
        """The stacked ``(levels, K, R)`` counter tables (raw storage units).

        A fresh stack (not a view); use :meth:`add_table` /
        :meth:`load_table` for the reducer-side merge law.  Quantized
        levels that widened independently are upcast by the stack — both
        loaders route each slice through the storage tier's exact-widening
        machinery, so round-tripping through this property stays exact.
        """
        return np.stack([level.table for level in self._levels])

    def _level_slices(self, table: np.ndarray) -> np.ndarray:
        arr = np.asarray(table)
        expected = (self.levels, self.num_tables, self.num_buckets)
        if arr.ndim == 1:
            arr = arr.reshape(expected)
        if arr.shape != expected:
            raise ValueError(
                f"counter table shape mismatch: {arr.shape} != {expected}"
            )
        return arr

    def add_table(self, table: np.ndarray) -> "HierarchicalCountSketch":
        """Sum a stacked raw table (same shape/unit) in place, per level."""
        arr = self._level_slices(table)
        for level, sub in zip(self._levels, arr):
            level.add_table(sub)
        self._noise_cache.clear()
        return self

    def load_table(self, table: np.ndarray) -> "HierarchicalCountSketch":
        """Replace the counters with a persisted stacked raw table."""
        arr = self._level_slices(table)
        for level, sub in zip(self._levels, arr):
            level.load_table(sub)
        self._noise_cache.clear()
        return self

    def scale(self, factor: float) -> "HierarchicalCountSketch":
        """Multiply every counter value by ``factor``, all levels."""
        for level in self._levels:
            level.scale(factor)
        self._noise_cache.clear()
        return self

    def copy(self) -> "HierarchicalCountSketch":
        clone = HierarchicalCountSketch(
            self.num_tables,
            self.num_buckets,
            key_space=self.key_space,
            branching=self.branching,
            levels=self.levels,
            seed=self.seed,
        )
        for mine, theirs in zip(clone._levels, self._levels):
            mine._store = theirs._store.copy()
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def quantum(self) -> float | None:
        """Fixed-point step of quantized storage (``None`` for float)."""
        return self._levels[0].quantum

    @property
    def storage_dtype(self) -> np.dtype:
        """The leaf level's current counter dtype."""
        return self._levels[0].storage_dtype

    @property
    def memory_floats(self) -> int:
        return sum(level.memory_floats for level in self._levels)

    @property
    def memory_bytes(self) -> int:
        """Resident counter bytes across all levels (itemsize-aware)."""
        return sum(level.memory_bytes for level in self._levels)

    def l2_norm(self) -> float:
        """Frobenius norm of the leaf level's counter values."""
        return self._levels[0].l2_norm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchicalCountSketch(K={self.num_tables}, "
            f"R={self.num_buckets}, levels={self.levels}, "
            f"branching={self.branching}, key_space={self.key_space}, "
            f"seed={self.seed})"
        )

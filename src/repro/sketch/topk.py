"""Bounded candidate tracking for top-k retrieval at trillion scale.

At small dimension the harness can scan every pair estimate and sort — the
protocol of section 8.3.  At URL/DNA scale (``p`` up to ``1.4e14``) a full
scan is impossible, so the tracker keeps a bounded pool of the keys that
looked large while streaming (every key that survived ASCS sampling, or every
inserted key for vanilla CS) together with their most recent estimates.  At
the end the pool is *re-queried* against the final sketch so stale estimates
cannot leak into the ranking.

The pool is array-backed: ``offer`` appends whole batches into preallocated
key/estimate buffers with two slice assignments (no per-key Python loop).
Duplicates are tolerated in the buffer and resolved lazily by a *compaction*
pass — one stable key sort, then O(n) scatters that keep each key's
**latest** estimate while preserving first-insertion order, which
reproduces dict-update semantics exactly.  When the compacted pool exceeds
``capacity * slack`` it is cut back to the ``capacity`` entries with the
largest current estimates.  Amortised cost is O(batch) numpy work per
offer, with no Python-level iteration anywhere.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["TopKTracker", "scan_top_keys"]


def scan_top_keys(
    query_fn: Callable[[np.ndarray], np.ndarray],
    num_keys: int,
    k: int,
    *,
    chunk: int = 1 << 20,
    rank_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` keys over ``[0, num_keys)`` by chunked scan.

    The section-8.3 retrieval protocol for pair spaces small enough to
    enumerate, shared by the streaming pipeline and the serving snapshot
    builder.  Fixed-size running top-k buffer: the current best ``k``
    entries live in the buffer prefix and each chunk of keys is queried
    into the tail, so no per-chunk concatenation or reallocation happens.

    Parameters
    ----------
    query_fn:
        Batched key -> estimate function (e.g. ``sketch.query``).
    num_keys:
        Size of the scanned key range.
    k:
        Number of keys to return (clamped to ``num_keys``).
    chunk:
        Keys queried per scan step.
    rank_fn:
        Optional ranking transform (two-sided retrieval passes ``np.abs``);
        ``None`` ranks by the signed estimate.

    Returns
    -------
    ``(keys, estimates)`` sorted by decreasing rank (stable ties).
    """
    num_keys = int(num_keys)
    k = min(int(k), num_keys)
    if k < 1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    rank = (lambda est: est) if rank_fn is None else rank_fn
    chunk = max(1, min(int(chunk), num_keys))
    buf_keys = np.empty(k + chunk, dtype=np.int64)
    buf_est = np.empty(buf_keys.size, dtype=np.float64)
    n_best = 0
    for start in range(0, num_keys, chunk):
        stop = min(start + chunk, num_keys)
        m = stop - start
        buf_keys[n_best : n_best + m] = np.arange(start, stop, dtype=np.int64)
        buf_est[n_best : n_best + m] = query_fn(buf_keys[n_best : n_best + m])
        total = n_best + m
        if total > k:
            top = np.argpartition(-rank(buf_est[:total]), k - 1)[:k]
            buf_keys[:k] = buf_keys[top]
            buf_est[:k] = buf_est[top]
            n_best = k
        else:
            n_best = total
    order = np.argsort(-rank(buf_est[:n_best]), kind="stable")
    return buf_keys[order], buf_est[order]


class TopKTracker:
    """Track candidate heavy keys and their running estimates.

    Parameters
    ----------
    capacity:
        Number of candidates retained after each prune.  Retrieval quality
        only needs ``capacity >> k`` (default harnesses use ``10x``).
    slack:
        Pool growth factor that triggers pruning.
    two_sided:
        Rank by ``|estimate|`` when true, by signed value otherwise —
        matching the sidedness of the sampling rule that feeds the tracker.
    """

    def __init__(self, capacity: int, *, slack: float = 2.0, two_sided: bool = False):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slack <= 1.0:
            raise ValueError(f"slack must be > 1, got {slack}")
        self.capacity = int(capacity)
        self.slack = float(slack)
        self.two_sided = bool(two_sided)
        size = max(64, int(self.capacity * self.slack) + 1)
        self._keys = np.empty(size, dtype=np.int64)
        self._ests = np.empty(size, dtype=np.float64)
        self._size = 0  # occupied prefix of the buffers
        self._has_dups = False  # whether entries past the last compaction exist

    def __len__(self) -> int:
        self._compact()
        return self._size

    def _rank_value(self, estimates: np.ndarray) -> np.ndarray:
        return np.abs(estimates) if self.two_sided else estimates

    # ------------------------------------------------------------------
    # Buffer maintenance
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        size = len(self._keys)
        while size < needed:
            size *= 2
        keys = np.empty(size, dtype=np.int64)
        ests = np.empty(size, dtype=np.float64)
        keys[: self._size] = self._keys[: self._size]
        ests[: self._size] = self._ests[: self._size]
        self._keys, self._ests = keys, ests

    def _compact(self) -> None:
        """Dedup the buffer, keeping each key's latest estimate.

        Entries keep their first-insertion order so ranking ties resolve
        exactly as they did with the dict-backed pool.
        """
        if not self._has_dups:
            return
        n = self._size
        keys = self._keys[:n]
        # One stable key-sort yields everything: group boundaries mark the
        # distinct keys, the first slot of each group is its first-insertion
        # position (stable sort keeps equal keys in buffer order) and the
        # last slot its most recent estimate.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        self._has_dups = False
        first_flag = np.empty(n, dtype=bool)
        first_flag[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first_flag[1:])
        num_unique = int(np.count_nonzero(first_flag))
        if num_unique == n:
            return
        last_flag = np.empty(n, dtype=bool)
        last_flag[-1] = True
        last_flag[:-1] = first_flag[1:]
        # Each key's first slot points at its last; read in buffer order,
        # the first slots are the distinct keys in first-insertion order.
        latest = np.full(n, -1, dtype=np.int64)
        latest[order[first_flag]] = order[last_flag]
        firsts = np.flatnonzero(latest >= 0)
        self._keys[:num_unique] = keys[firsts]
        self._ests[:num_unique] = self._ests[:n][latest[firsts]]
        self._size = num_unique

    def _prune(self) -> None:
        """Cut the (compacted) pool to the ``capacity`` best-ranked entries.

        Equivalent to ``argsort(-rank, stable)[:capacity]`` — every entry
        ranked strictly above the capacity-th value survives, ties at the
        boundary resolve by insertion order, and survivors end up in
        descending rank order — but selection is O(n) via ``np.partition``
        with only the ``capacity`` survivors sorted.
        """
        n = self._size
        cap = self.capacity
        rank = self._rank_value(self._ests[:n])
        if np.isnan(rank).any():
            # NaN poisons the partition threshold comparisons; the stable
            # argsort ranks NaN worst, exactly as the dict-era prune did.
            survivors = np.argsort(-rank, kind="stable")[:cap]
        else:
            threshold = np.partition(rank, n - cap)[n - cap]
            above = np.flatnonzero(rank > threshold)
            at = np.flatnonzero(rank == threshold)[: cap - above.size]
            survivors = np.concatenate([above, at])
            # Primary: descending rank; secondary: insertion position — the
            # exact order a stable descending argsort would produce.
            survivors = survivors[np.lexsort((survivors, -rank[survivors]))]
        self._keys[: survivors.size] = self._keys[survivors]
        self._ests[: survivors.size] = self._ests[survivors]
        self._size = survivors.size

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def offer(self, keys, estimates) -> None:
        """Record (or refresh) candidates with their current estimates."""
        keys = np.asarray(keys, dtype=np.int64)
        estimates = np.asarray(estimates, dtype=np.float64)
        if keys.shape != estimates.shape:
            raise ValueError("keys and estimates must align")
        n = keys.size
        if n == 0:
            return
        if self._size + n > len(self._keys):
            self._compact()
            if self._size + n > len(self._keys):
                self._grow(self._size + n)
        self._keys[self._size : self._size + n] = keys
        self._ests[self._size : self._size + n] = estimates
        self._size += n
        self._has_dups = True
        # self._size bounds the distinct-key count from above, so the pool
        # can only exceed the prune trigger if this check fires.
        if self._size > self.capacity * self.slack:
            self._compact()
            if self._size > self.capacity * self.slack:
                self._prune()

    def candidates(self) -> np.ndarray:
        """Current candidate keys (unordered)."""
        self._compact()
        return self._keys[: self._size].copy()

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Compacted ``(keys, estimates)`` copies in first-insertion order.

        This is the tracker's complete serializable state: restoring it via
        ``offer(keys, estimates)`` into a fresh tracker of the same capacity
        reproduces all future behaviour exactly (compaction is transparent —
        prune decisions depend only on the deduped pool content).
        """
        self._compact()
        return self._keys[: self._size].copy(), self._ests[: self._size].copy()

    def merge(self, other: "TopKTracker", *, sketch=None) -> "TopKTracker":
        """Merge another tracker's candidate pool into this one.

        The merge law for sharded ingestion: take the *union* of the two
        candidate pools, re-estimate every candidate with **one** gather
        query against ``sketch`` (the merged sketch — per-shard estimates
        only reflect per-shard mass, so they must not survive the merge),
        and let the normal offer path re-prune to capacity.  Without a
        sketch the pools are concatenated, ``other``'s estimates treated as
        the more recent on key collisions (dict-update semantics).
        """
        if other.two_sided != self.two_sided:
            raise ValueError(
                "trackers are mergeable only with identical sidedness; "
                f"two_sided {self.two_sided} != {other.two_sided}"
            )
        other_keys, other_ests = other.snapshot()
        if sketch is None:
            self.offer(other_keys, other_ests)
            return self
        return self.rebuild_from_pools([self.candidates(), other_keys], sketch)

    def rebuild_from_pools(self, pools, sketch) -> "TopKTracker":
        """Replace this pool with the union of candidate-key ``pools``.

        The single implementation of the sharded merge law: concatenate the
        pools, dedup to **first occurrence** (so ranking ties in the
        re-pruned pool resolve as if the shards had streamed in order),
        re-estimate every candidate with one gather query against
        ``sketch``, and re-prune through the normal offer path.  Used by
        :meth:`merge` and by ``repro.distributed.merge_shard_results``.
        """
        self.reset()
        pools = [np.asarray(p, dtype=np.int64) for p in pools]
        union = (
            np.concatenate(pools) if pools else np.empty(0, dtype=np.int64)
        )
        if union.size == 0:
            return self
        _, first = np.unique(union, return_index=True)
        union = union[np.sort(first)]
        estimates = np.asarray(sketch.query(union), dtype=np.float64)
        self.offer(union, estimates)
        return self

    def top_k(self, k: int, sketch=None) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` candidates with the largest estimates.

        Parameters
        ----------
        k:
            Number of keys to return (fewer if the pool is smaller).
        sketch:
            Optional sketch with a ``query`` method; when given, candidates
            are re-queried so the ranking reflects the *final* sketch state
            rather than the estimates observed mid-stream.

        Returns
        -------
        ``(keys, estimates)`` sorted by decreasing (two-sided: absolute)
        estimate.
        """
        self._compact()
        if self._size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        keys = self._keys[: self._size]
        if sketch is not None:
            ests = np.asarray(sketch.query(keys.copy()), dtype=np.float64)
        else:
            ests = self._ests[: self._size]
        order = np.argsort(-self._rank_value(ests), kind="stable")[: int(k)]
        # Fancy indexing materialises fresh arrays, so no buffer views leak.
        return keys[order], ests[order]

    def reset(self) -> None:
        self._size = 0
        self._has_dups = False

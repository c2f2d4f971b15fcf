"""Augmented Sketch (Roy, Khan, Alonso — SIGMOD 2016), value-adapted.

ASketch keeps a small *filter* of exact counters for the hottest items in
front of a count sketch.  Updates to filtered items are exact; everything
else goes into the sketch.  When an unfiltered item's sketch estimate
overtakes the smallest filter entry, the two are swapped: the evicted item's
exact mass is pushed back into the sketch and the promoted item's estimated
mass is pulled out.

The original operates on positive frequencies; the paper compares against it
on real-valued covariance mass (Table 4), so this adaptation ranks filter
membership by accumulated value (optionally absolute value).  The filter
capacity is charged against the same float budget as the sketch:
``memory_floats = K*R + 2*capacity`` (key + value per slot).
"""

from __future__ import annotations

import numpy as np

from repro.sketch.base import ValueSketch, ensure_mergeable, validate_batch
from repro.sketch.count_sketch import CountSketch

__all__ = ["AugmentedSketch"]


class AugmentedSketch(ValueSketch):
    """Count sketch fronted by an exact filter for hot keys.

    Parameters
    ----------
    num_tables, num_buckets, seed:
        Parameters of the backing :class:`CountSketch`.
    filter_capacity:
        Number of exact filter slots (ASketch uses a few dozen to a few
        hundred; the harness sizes it as a small fraction of the budget).
    exchange_every:
        Promotions are evaluated once per this many insert calls — the
        batched analogue of ASketch's per-item exchange check, keeping the
        amortised cost O(1) per update.
    two_sided:
        Rank filter membership by ``|value|`` instead of signed value.
    dtype, quantum:
        Counter storage of the backing :class:`CountSketch` (see
        :mod:`repro.sketch.storage`); the exact filter keeps float64
        precision regardless — it holds only ``filter_capacity`` values.
    """

    def __init__(
        self,
        num_tables: int,
        num_buckets: int,
        *,
        filter_capacity: int = 64,
        seed: int = 0,
        exchange_every: int = 1,
        two_sided: bool = False,
        dtype=np.float64,
        quantum: float | None = None,
    ):
        if filter_capacity < 1:
            raise ValueError(f"filter_capacity must be >= 1, got {filter_capacity}")
        self.sketch = CountSketch(
            num_tables, num_buckets, seed=seed, dtype=dtype, quantum=quantum
        )
        self.filter_capacity = int(filter_capacity)
        self.exchange_every = max(1, int(exchange_every))
        self.two_sided = bool(two_sided)
        self._filter: dict[int, float] = {}
        self._inserts_since_exchange = 0
        self._frozen = False

    # ------------------------------------------------------------------
    def _rank(self, values: np.ndarray) -> np.ndarray:
        return np.abs(values) if self.two_sided else values

    def _guard_frozen(self) -> None:
        # The exact filter is a plain dict, so numpy's writeable flag
        # cannot protect it: the freeze guarantee needs an explicit gate
        # *before* any state is touched (a filtered key's exact counter
        # would otherwise mutate even though the sketch path raises).
        if self._frozen:
            raise ValueError(
                "sketch counters are read-only (frozen serving snapshot); "
                "inserts must target the live write-side sketch"
            )

    def insert(self, keys, values) -> None:
        self._guard_frozen()
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return
        filt = self._filter
        if filt:
            in_filter = np.fromiter(
                (key in filt for key in keys.tolist()), dtype=bool, count=keys.size
            )
        else:
            in_filter = np.zeros(keys.size, dtype=bool)

        # Exact path for filtered keys.
        for key, val in zip(keys[in_filter].tolist(), values[in_filter].tolist()):
            filt[key] += val

        # Sketch path for the rest.
        cold_keys = keys[~in_filter]
        cold_values = values[~in_filter]
        self.sketch.insert(cold_keys, cold_values)

        self._inserts_since_exchange += 1
        if self._inserts_since_exchange >= self.exchange_every and cold_keys.size:
            self._inserts_since_exchange = 0
            self._exchange(np.unique(cold_keys))

    def _exchange(self, candidate_keys: np.ndarray) -> None:
        """Promote candidates whose sketch estimate beats the filter minimum."""
        filt = self._filter
        estimates = self.sketch.query(candidate_keys)
        order = np.argsort(-self._rank(estimates), kind="stable")
        for idx in order.tolist():
            key = int(candidate_keys[idx])
            est = float(estimates[idx])
            if key in filt:
                continue
            if len(filt) < self.filter_capacity:
                # Move the key's estimated mass out of the sketch and into
                # the filter so it is not double counted.
                self.sketch.insert(
                    np.asarray([key]), np.asarray([-est], dtype=np.float64)
                )
                filt[key] = est
                continue
            min_key = min(
                filt, key=(lambda k: abs(filt[k])) if self.two_sided else filt.get
            )
            min_rank = abs(filt[min_key]) if self.two_sided else filt[min_key]
            cand_rank = abs(est) if self.two_sided else est
            if cand_rank <= min_rank:
                break  # candidates are sorted; nothing further can win
            evicted_value = filt.pop(min_key)
            self.sketch.insert(
                np.asarray([min_key, key]),
                np.asarray([evicted_value, -est], dtype=np.float64),
            )
            filt[key] = est

    def query(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        out = self.sketch.query(keys)
        filt = self._filter
        if filt:
            for n, key in enumerate(keys.tolist()):
                if key in filt:
                    out[n] = filt[key]
        return out

    def reset(self) -> None:
        self._guard_frozen()
        self.sketch.reset()
        self._filter.clear()
        self._inserts_since_exchange = 0

    def freeze(self) -> "AugmentedSketch":
        """Make the whole state read-only: backing counters *and* filter.

        Queries keep working; ``insert``/``merge``/``reset`` raise before
        touching anything, so a frozen ASketch can never be left in a
        half-mutated state (the filter is exact, the sketch rejected).
        """
        self.sketch.freeze()
        self._frozen = True
        return self

    def copy(self) -> "AugmentedSketch":
        clone = AugmentedSketch(
            self.sketch.num_tables,
            self.sketch.num_buckets,
            filter_capacity=self.filter_capacity,
            seed=self.sketch.seed,
            exchange_every=self.exchange_every,
            two_sided=self.two_sided,
        )
        clone.sketch = self.sketch.copy()
        clone._filter = dict(self._filter)
        clone._inserts_since_exchange = self._inserts_since_exchange
        return clone

    def merge(self, other: "AugmentedSketch") -> "AugmentedSketch":
        """Merge another ASketch: sum the sketches, fold the exact filters.

        The backing count sketches sum exactly (linear).  Filter entries are
        exact masses *excluded* from their sketch, so they must be folded
        without double counting: a key held exactly on both sides stays
        exact (masses add); a key only in ``other``'s filter moves into this
        filter if a slot is free, otherwise its exact mass is pushed into
        the merged sketch (reverting it to a sketched key — the same
        demotion an eviction performs).  The result is approximate in the
        same sense ASketch itself is; compatibility mismatches raise
        ``ValueError``.
        """
        self._guard_frozen()
        ensure_mergeable(
            self, other, ("filter_capacity", "two_sided", "exchange_every")
        )
        self.sketch.merge(other.sketch)
        filt = self._filter
        spill_keys: list[int] = []
        spill_values: list[float] = []
        for key, val in other._filter.items():
            if key in filt:
                filt[key] += val
            elif len(filt) < self.filter_capacity:
                # Promote like _exchange does: pull the key's sketched mass
                # (this side's, plus whatever just merged in) out of the
                # sketch and into the exact slot — queries return filter
                # values verbatim, so mass left behind would become
                # invisible.
                est = self.sketch.query_single(key)
                if est != 0.0:
                    self.sketch.insert(
                        np.asarray([key]), np.asarray([-est], dtype=np.float64)
                    )
                filt[key] = val + est
            else:
                spill_keys.append(key)
                spill_values.append(val)
        if spill_keys:
            self.sketch.insert(
                np.asarray(spill_keys, dtype=np.int64),
                np.asarray(spill_values, dtype=np.float64),
            )
        # Reclaim sketched mass hiding under exact slots: the other side
        # may have held a filtered key of ours as an ordinary *sketched*
        # key, and queries answer filter slots verbatim — mass left in the
        # merged sketch under such a key would simply vanish from view.
        # Pull it into the slot (the same promotion trade _exchange makes).
        if filt:
            keys = np.fromiter(filt.keys(), dtype=np.int64, count=len(filt))
            residual = self.sketch.query(keys)
            hiding = residual != 0.0
            if hiding.any():
                self.sketch.insert(keys[hiding], -residual[hiding])
                for key, est in zip(
                    keys[hiding].tolist(), residual[hiding].tolist()
                ):
                    filt[key] += est
        return self

    @property
    def filter_keys(self) -> np.ndarray:
        """Keys currently held exactly (diagnostics and retrieval seeding)."""
        return np.fromiter(self._filter.keys(), dtype=np.int64, count=len(self._filter))

    @property
    def memory_floats(self) -> int:
        return self.sketch.memory_floats + 2 * self.filter_capacity

    @property
    def memory_bytes(self) -> int:
        # Filter slots stay float64: 8-byte key + 8-byte value per slot.
        return self.sketch.memory_bytes + 16 * self.filter_capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AugmentedSketch(K={self.sketch.num_tables}, R={self.sketch.num_buckets}, "
            f"filter_capacity={self.filter_capacity})"
        )

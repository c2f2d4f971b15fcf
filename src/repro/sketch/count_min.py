"""Count-Min sketch for non-negative mass accumulation.

Used as the gating layer of the Cold Filter baseline (Zhou et al. 2018):
cheap small counters decide whether a key has accumulated enough absolute
mass to graduate to the main count sketch.  Supports the conservative-update
optimisation, which Cold Filter relies on to keep layer-1 counters tight.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.families import MultiTableHasher
from repro.sketch.base import (
    ValueSketch,
    ensure_mergeable,
    reject_readonly_counters,
    validate_batch,
)
from repro.sketch.storage import CounterStore

__all__ = ["CountMinSketch"]


class CountMinSketch(ValueSketch):
    """A ``K x R`` count-min sketch over non-negative values.

    Parameters
    ----------
    num_tables, num_buckets, seed, family:
        As for :class:`repro.sketch.CountSketch`.
    conservative:
        If true, an update raises each of the key's ``K`` counters only up
        to ``min_counter + value`` — never overshooting the true mass.
        Conservative update is not mergeable; ``merge`` raises when enabled.
    cap:
        Optional saturation value for the counters (Cold Filter uses small
        saturating counters in layer 1).  ``None`` means unbounded.
    dtype, quantum:
        Counter storage, as for :class:`repro.sketch.CountSketch`.
        Conservative update and ``cap`` both clamp counters through
        non-linear in-place passes expressed in raw units, so they require
        plain float storage; combining them with a quantized dtype raises.
    """

    def __init__(
        self,
        num_tables: int,
        num_buckets: int,
        *,
        seed: int = 0,
        family: str = "multiply-shift",
        conservative: bool = False,
        cap: float | None = None,
        dtype=np.float64,
        quantum: float | None = None,
    ):
        if num_tables < 1:
            raise ValueError(f"num_tables must be >= 1, got {num_tables}")
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_tables = int(num_tables)
        self.num_buckets = int(num_buckets)
        self.seed = int(seed)
        self.family = family
        self.conservative = bool(conservative)
        self.cap = None if cap is None else float(cap)
        # The storage backend owns the (K, R) table and its flat view; the
        # fused kernels address counter (e, b) as raw[e * R + b].
        self._store = CounterStore(
            self.num_tables, self.num_buckets, dtype=dtype, quantum=quantum
        )
        if self._store.quantized and (self.conservative or self.cap is not None):
            raise ValueError(
                "conservative update and cap require float counter storage; "
                "quantized (int16/int32) tables are insert-linear only"
            )
        self._offsets_u64 = (
            np.arange(self.num_tables, dtype=np.uint64) * np.uint64(self.num_buckets)
        )[:, None]

        seq = np.random.SeedSequence(self.seed)
        children = seq.spawn(self.num_tables)
        self._hasher = MultiTableHasher(
            family,
            self.num_buckets,
            [int(children[e].generate_state(1)[0]) for e in range(self.num_tables)],
        )

    @property
    def table(self) -> np.ndarray:
        """The ``(K, R)`` counter table (raw storage units)."""
        return self._store.matrix

    @property
    def _flat(self) -> np.ndarray:
        return self._store.raw

    @property
    def quantum(self) -> float | None:
        """Fixed-point step of quantized storage (``None`` for float)."""
        return self._store.quantum

    @property
    def storage_dtype(self) -> np.dtype:
        """Current counter dtype (may have widened past the declared one)."""
        return self._store.dtype

    def _flat_indices(self, keys: np.ndarray) -> np.ndarray:
        """Fused ``(K, n)`` flat counter indices ``e*R + h_e(key)``."""
        w = self._hasher.bucket_u64(keys)
        np.add(w, self._offsets_u64, out=w)
        return w.view(np.int64)

    def insert(self, keys, values) -> None:
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return
        if (values < 0).any():
            raise ValueError("CountMinSketch accepts non-negative values only")
        if self.conservative:
            # np.maximum.at ignores the writeable flag on some numpy
            # versions — enforce frozen-snapshot immutability ourselves.
            reject_readonly_counters(self._flat)
            # Conservative update must be applied per distinct key; aggregate
            # duplicate keys in the batch first so intra-batch order does not
            # change the result.
            uniq, inverse = np.unique(keys, return_inverse=True)
            sums = np.bincount(inverse, weights=values, minlength=uniq.size)
            fi = self._flat_indices(uniq)
            current = np.min(self._flat[fi], axis=0)
            target = current + sums
            np.maximum.at(
                self._flat,
                fi.ravel(),
                np.broadcast_to(target, fi.shape).ravel(),
            )
        else:
            fi = self._flat_indices(keys)
            # Always bincount, matching the legacy per-table path exactly.
            self._store.scatter_add(
                fi.ravel(),
                np.broadcast_to(values, fi.shape).ravel(),
                use_bincount=True,
            )
        if self.cap is not None:
            np.minimum(self.table, self.cap, out=self.table)

    def query(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        gathered = self._store.gather(self._flat_indices(keys))
        return np.min(gathered, axis=0)

    def reset(self) -> None:
        self._store.zero()

    def freeze(self) -> "CountMinSketch":
        """Make the counter storage read-only (in place) and return ``self``.

        Queries keep working (gathers never write); inserts, merges and
        resets raise — the serving-snapshot immutability guarantee.
        """
        self._store.freeze()
        return self

    def _check_compatible(self, other: "CountMinSketch") -> None:
        ensure_mergeable(
            self, other, ("num_tables", "num_buckets", "seed", "family", "cap")
        )
        self._store.check_mergeable(other._store, "CountMinSketch")

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        # Compatibility first, so a shape/seed mismatch is reported as such
        # even when one side is also conservative.
        self._check_compatible(other)
        if self.conservative or other.conservative:
            # Conservative update makes each counter depend on the minimum
            # across the key's row at insert time — an order-dependent,
            # non-linear state that counter summation cannot reproduce.
            raise ValueError("conservative-update count-min sketches cannot merge")
        self._store.merge_from(other._store)
        if self.cap is not None:
            np.minimum(self.table, self.cap, out=self.table)
        return self

    def scale(self, factor: float) -> "CountMinSketch":
        """Multiply every counter value by ``factor`` in place (decay flush)."""
        self._store.scale(factor)
        return self

    def copy(self) -> "CountMinSketch":
        clone = CountMinSketch(
            self.num_tables,
            self.num_buckets,
            seed=self.seed,
            family=self.family,
            conservative=self.conservative,
            cap=self.cap,
        )
        clone._store = self._store.copy()
        return clone

    @property
    def memory_floats(self) -> int:
        return self.num_tables * self.num_buckets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CountMinSketch(K={self.num_tables}, R={self.num_buckets}, "
            f"conservative={self.conservative}, cap={self.cap})"
        )

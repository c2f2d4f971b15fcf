"""Count Sketch (Charikar, Chen, Farach-Colton 2002) for real-valued streams.

This is the data structure of Algorithm 1 in the paper: ``K`` hash tables of
``R`` buckets, each with an independent bucket hash ``h_e`` and sign hash
``s_e``.  An update ``(i, v)`` adds ``v * s_e(i)`` to ``W[e, h_e(i)]``; the
estimate of key ``i`` is ``median_e W[e, h_e(i)] * s_e(i)``.

The implementation is fully batched *and fused across tables* (see PERF.md):
a single :class:`repro.hashing.MultiTableHasher` broadcast computes the
``(K, n)`` bucket and sign matrices for all tables at once, the counters
live in one flat ``(K*R,)`` array addressed as ``offset[e] + bucket``, and
inserts scatter through one ``np.bincount`` (large batches) or one
``np.add.at`` (small batches) over the flattened indices.  Queries gather
all ``K x n`` candidate estimates with one fancy index and take the median
along the table axis (a min/max network for the common small odd ``K``).
ASCS's threshold test (:meth:`CountSketch.gate`) settles most keys on the
first ``(K+1)/2`` tables.
On a laptop this sustains tens of millions of updates per second, which is
what makes the trillion-entry experiments runnable.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.families import (
    MultiTableHasher,
    _keys_as_u64,
    _sign_bits_to_float,
)
from repro.sketch.base import (
    ValueSketch,
    ensure_mergeable,
    reject_readonly_counters,
    validate_batch,
)
from repro.sketch.kernels import jit_target, numba_available
from repro.sketch.kernels.numpy_ref import apply_sign, median
from repro.sketch.storage import CounterStore

__all__ = ["CountSketch"]


class CountSketch(ValueSketch):
    """A ``K x R`` count sketch with signed updates and median estimates.

    Parameters
    ----------
    num_tables:
        ``K`` — number of independent hash tables (the paper uses 5).
    num_buckets:
        ``R`` — buckets per table.  Total memory is ``K * R`` floats.
    seed:
        Seed for all hash functions; two sketches built with identical
        parameters and seed are mergeable.
    dtype:
        Counter storage (see :mod:`repro.sketch.storage`): ``float64`` by
        default; ``float32`` halves memory at the cost of accumulation
        precision; ``int16``/``int32`` store fixed-point multiples of
        ``quantum`` at 2/4 bytes per counter, widening automatically (and
        exactly) on saturation.
    quantum:
        Fixed-point step for quantized storage
        (:data:`repro.sketch.storage.DEFAULT_QUANTUM` when omitted for an
        integer dtype).
    """

    def __init__(
        self,
        num_tables: int,
        num_buckets: int,
        *,
        seed: int = 0,
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
        # The storage backend owns the (K, R) table and its flat view; the
        # fused kernels address counter (e, b) as raw[e * R + b].
        self._store = CounterStore(
            self.num_tables, self.num_buckets, dtype=dtype, quantum=quantum
        )
        self._offsets_u64 = (
            np.arange(self.num_tables, dtype=np.uint64) * np.uint64(self.num_buckets)
        )[:, None]

        # Derive one independent (bucket, sign) hash pair per table from the
        # master seed.  SeedSequence spawning guarantees independence; the
        # per-table parameters are stacked so one broadcast hashes all K
        # tables (bit-identical to K separate hashes with these seeds).
        seq = np.random.SeedSequence(self.seed)
        children = seq.spawn(2 * self.num_tables)
        self._hasher = MultiTableHasher(
            self.num_buckets,
            [int(children[2 * e].generate_state(1)[0]) for e in range(self.num_tables)],
            [
                int(children[2 * e + 1].generate_state(1)[0])
                for e in range(self.num_tables)
            ],
        )
        # The gate's two stages: tables [0, h) settle most keys, tables
        # [h, K) finish the rest (see gate); even K has no such split.
        self._gate_stages = None
        if self.num_tables % 2:
            h = (self.num_tables + 1) // 2
            self._gate_stages = (
                (self._hasher.select(range(h)), self._offsets_u64[:h]),
                (
                    self._hasher.select(range(h, self.num_tables)),
                    self._offsets_u64[h:],
                ),
            )
        # Optional hash cache for a canonical key array (dense streaming
        # passes the same arange(p) object every batch — see cache_keys).
        self._cached_keys: np.ndarray | None = None
        self._cached_flat_indices: np.ndarray | None = None
        self._cached_signs: np.ndarray | None = None

        # Compiled-kernel plumbing: _jit_args holds the flattened hash
        # parameters the kernels consume, and stays None whenever this
        # sketch can never take the compiled path (numba absent, quantized
        # storage), so the numpy path exits on one attribute check per
        # operation.
        self._jit_args = None
        if numba_available() and self._store.quantum is None:
            mask = self._hasher._bucket_mask
            self._jit_args = (
                self._hasher._combined_a.ravel(),
                self._hasher._combined_b.ravel(),
                self._offsets_u64.ravel(),
                np.uint64(self.num_buckets),
                np.uint64(0) if mask is None else mask,
                mask is not None,
            )

    # ------------------------------------------------------------------
    # Storage views
    # ------------------------------------------------------------------
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

    @property
    def saturation(self) -> float:
        """Counter-range headroom signal (see ``CounterStore.saturation``)."""
        return self._store.saturation

    # ------------------------------------------------------------------
    # Hash caching
    # ------------------------------------------------------------------
    def _hash_batch(
        self, keys: np.ndarray, tables=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused ``(flat_indices, sign_bits)`` for all tables in one broadcast.

        ``flat_indices`` is the ``(K, n)`` int64 matrix ``e*R + h_e(key)``
        addressing :attr:`_flat`; ``sign_bits`` is the raw ``(K, n)`` uint64
        bit matrix (0 => +1, 1 => -1), converted to floats only where a
        caller actually needs them (see
        :func:`repro.sketch.kernels.numpy_ref.apply_sign`).  ``tables``, a
        ``(hasher, offsets)`` stage of the gate, hashes only its rows.
        """
        hasher, offsets = (
            (self._hasher, self._offsets_u64) if tables is None else tables
        )
        w, bits = hasher.bucket_sign_u64(keys)
        np.add(w, offsets, out=w)
        return w.view(np.int64), bits

    def cache_keys(self, keys: np.ndarray) -> None:
        """Precompute buckets/signs for a canonical key array.

        Dense covariance streaming queries and inserts the *same*
        ``arange(p)`` array object every batch; caching its hashes removes
        roughly half the insert cost and a fifth of the query cost.  The
        cache is keyed by object identity, so passing any other array falls
        back to the normal path.
        """
        keys = np.asarray(keys, dtype=np.int64)
        flat_indices, bits = self._hash_batch(keys)
        self._cached_keys = keys
        self._cached_flat_indices = flat_indices
        self._cached_signs = _sign_bits_to_float(bits)

    def _lookup(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """``(flat_indices, sign_bits, signs)`` using the cache when possible.

        Exactly one of ``sign_bits`` (fresh hash) and ``signs`` (cache hit,
        already converted to float) is non-None.
        """
        if keys is self._cached_keys:
            return self._cached_flat_indices, None, self._cached_signs
        flat_indices, bits = self._hash_batch(keys)
        return flat_indices, bits, None

    # ------------------------------------------------------------------
    # Compiled-kernel dispatch
    # ------------------------------------------------------------------
    def _jit_kernels(self, keys):
        """``(module, flat)`` for the compiled path, or ``None``.

        The compiled kernels cover the common hot configuration: plain
        float64 counters that are not mmap-backed, and a fresh (uncached)
        key batch.  Everything else
        — cache hits, quantized or widened storage, serving snapshots —
        transparently takes the numpy path, which is bit-identical.
        """
        if self._jit_args is None or keys is self._cached_keys:
            return None
        return jit_target(self._store)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def insert(self, keys, values) -> None:
        # np.asarray inside validate_batch preserves object identity for
        # int64 input, so the hash cache still hits after validation.
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return
        jit = self._jit_kernels(keys)
        if jit is not None:
            self._jit_insert(*jit, keys, values)
            return
        self._scatter(self._lookup(keys), values)

    def insert_and_query(self, keys, values) -> np.ndarray:
        """Insert a batch and return its post-insert estimates in one pass.

        Bit-identical to ``insert(keys, values)`` followed by
        ``query(keys)``, but the numpy path hashes the buckets and signs
        once instead of twice — the streaming estimators use this for
        their candidate tracker refresh.  The compiled kernels hash inline,
        so there it is exactly those two kernel calls.
        """
        keys, values = validate_batch(keys, values)
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        jit = self._jit_kernels(keys)
        if jit is not None and self.num_tables in (1, 3, 5):
            self._jit_insert(*jit, keys, values)
            return self._jit_query(*jit, keys)
        hashed = self._lookup(keys)
        self._scatter(hashed, values)
        return median(self._estimates(hashed))

    def query(self, keys) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError("keys must be a 1-D array")
        if keys.size == 0:
            return np.empty(0, dtype=np.float64)
        jit = self._jit_kernels(keys)
        if jit is not None and self.num_tables in (1, 3, 5):
            return self._jit_query(*jit, keys)
        return median(self._estimates(self._lookup(keys)))

    def gate(self, keys, tau: float, *, two_sided: bool = False):
        """ASCS's threshold test, settled on half the tables where it can be.

        Same contract as :meth:`repro.sketch.ValueSketch.gate`, and the same
        mask and estimates bit for bit.  For odd ``K`` a median is at least
        ``tau`` exactly when ``h = (K+1)/2`` of its values are, so a key
        whose first ``h`` signed counters all lie below ``tau`` (in
        absolute value when ``two_sided``) is refused without hashing,
        gathering or ranking the other tables.  The keys still in doubt
        get the other tables and :func:`median` over all ``K`` in table
        order, exactly the column :meth:`query` ranks.  A NaN counter
        refuses its key on both paths: ``np.maximum`` and the median
        network both propagate it, and NaN never clears ``tau``.

        Even ``K``, a :meth:`cache_keys` hit and the compiled kernels keep
        the default (query, then compare).
        """
        keys = np.asarray(keys, dtype=np.int64)
        if (
            self._gate_stages is None
            or keys.ndim != 1
            or keys is self._cached_keys
            or self._jit_kernels(keys) is not None
        ):
            return super().gate(keys, tau, two_sided=two_sided)
        first, rest = self._gate_stages
        flat, bits = self._hash_batch(keys, first)
        est = apply_sign(bits, self._store.gather(flat))
        # Each spent temporary is dropped at once, so the next allocation
        # reuses memory still in cache: with most keys in doubt that is
        # ~10% of the gate.  Integer takes throughout: boolean selection
        # is several times slower on these shapes.
        del flat, bits
        doubt = np.flatnonzero(
            np.maximum.reduce(np.abs(est) if two_sided else est, axis=0) >= tau
        )
        est = est.take(doubt, axis=1)
        flat, bits = self._hash_batch(keys.take(doubt), rest)
        est = np.concatenate([est, apply_sign(bits, self._store.gather(flat))])
        del flat, bits
        med = median(est)
        del est
        ok = np.flatnonzero((np.abs(med) if two_sided else med) >= tau)
        mask = np.zeros(keys.size, dtype=bool)
        mask[doubt.take(ok)] = True
        return mask, med.take(ok)

    def _jit_insert(self, module, flat, keys, values) -> None:
        """``module.cs_insert`` with this sketch's hashes and strategy rule."""
        reject_readonly_counters(flat)
        a, b, offsets, r_u64, mask, use_mask = self._jit_args
        module.cs_insert(
            flat,
            _keys_as_u64(keys),
            np.ascontiguousarray(values),
            a,
            b,
            offsets,
            r_u64,
            mask,
            use_mask,
            keys.size * 16 >= self.num_buckets,
        )

    def _jit_query(self, module, flat, keys) -> np.ndarray:
        """``module.cs_query`` into a fresh float64 estimate row."""
        a, b, offsets, r_u64, mask, use_mask = self._jit_args
        out = np.empty(keys.size, dtype=np.float64)
        module.cs_query(
            flat, _keys_as_u64(keys), a, b, offsets, r_u64, mask, use_mask, out
        )
        return out

    def query_per_table(self, keys) -> np.ndarray:
        """All ``K`` per-table estimates (rows) for diagnostic use."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.empty((self.num_tables, 0), dtype=np.float64)
        return self._estimates(self._lookup(keys))

    def _scatter(self, hashed, values: np.ndarray) -> None:
        """Accumulate signed ``values`` through precomputed hashes."""
        flat_indices, bits, signs = hashed
        signed = signs * values if signs is not None else apply_sign(bits, values)
        # bincount beats add.at once the batch is a reasonable fraction of R;
        # for tiny batches the dense bincount allocation dominates.  The
        # threshold matches the pre-fusion per-table rule so the float
        # accumulation order (hence the result) is unchanged.
        self._store.scatter_add(
            flat_indices.ravel(),
            signed.ravel(),
            use_bincount=flat_indices.shape[1] * 16 >= self.num_buckets,
        )

    def _estimates(self, hashed) -> np.ndarray:
        """Per-table signed estimates ``(K, n)`` via one fancy-index gather."""
        flat_indices, bits, signs = hashed
        # Estimates stay float64 whatever the storage (f32 counters upcast
        # exactly; quantized counters dequantize), as the per-table legacy
        # loop produced.
        gathered = self._store.gather(flat_indices)
        if signs is not None:
            return gathered * signs
        return apply_sign(bits, gathered)

    def reset(self) -> None:
        self._store.zero()

    def freeze(self) -> "CountSketch":
        """Make the counter storage read-only (in place) and return ``self``.

        A frozen sketch still answers ``query`` (gathers never write), but
        any ``insert``/``merge``/``reset`` raises numpy's read-only error —
        the guarantee serving snapshots rely on: a query-side view can never
        be mutated by a stray write path.
        """
        self._store.freeze()
        return self

    def _check_compatible(self, other: "CountSketch") -> None:
        ensure_mergeable(self, other, ("num_tables", "num_buckets", "seed"))
        self._store.check_mergeable(other._store, "CountSketch")

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Add another sketch's counters in place (distributed aggregation)."""
        self._check_compatible(other)
        self._store.merge_from(other._store)
        return self

    def add_table(self, table: np.ndarray) -> "CountSketch":
        """Sum a raw counter table (same shape/unit) in place.

        The reducer-side half of the merge law for persisted shard states:
        quantized storage widens exactly as ingesting the same mass would,
        instead of silently wrapping a narrow integer add.
        """
        self._store.add_raw(table)
        return self

    def load_table(self, table: np.ndarray) -> "CountSketch":
        """Replace the counters with a persisted raw table (adopting width)."""
        self._store.load_raw(table)
        return self

    def scale(self, factor: float) -> "CountSketch":
        """Multiply every counter value by ``factor`` in place.

        Quantized storage folds the factor into its quantum (exact); float
        storage scales the table as before.
        """
        self._store.scale(factor)
        return self

    def copy(self) -> "CountSketch":
        clone = CountSketch(
            self.num_tables,
            self.num_buckets,
            seed=self.seed,
        )
        clone._store = self._store.copy()
        return clone

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memory_floats(self) -> int:
        return self.num_tables * self.num_buckets

    def l2_norm(self) -> float:
        """Frobenius norm of the counter values — tracks stream energy."""
        if self._store.quantum is not None:
            norm = np.linalg.norm(self.table.astype(np.float64))
            return float(norm * self._store.quantum)
        return float(np.linalg.norm(self.table))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        storage = (
            "" if self._store.quantum is None and self._store.dtype == np.float64
            else f", storage={self._store!r}"
        )
        return (
            f"CountSketch(K={self.num_tables}, R={self.num_buckets}, "
            f"seed={self.seed}{storage})"
        )

"""Shared interface for value sketches keyed by 64-bit indices.

Every sketch in this package accumulates *real-valued* updates — the paper
stores (scaled) covariance increments ``X_i^(t)/T`` rather than unit counts —
so the interface is ``insert(keys, values)`` / ``query(keys)``, both batched.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "ValueSketch",
    "ensure_mergeable",
    "validate_batch",
    "scatter_add_flat",
    "reject_readonly_counters",
]


def reject_readonly_counters(flat: np.ndarray) -> None:
    """Raise ``ValueError`` if ``flat`` must never be written.

    Two distinct hazards funnel through here:

    * an explicitly frozen table (``writeable`` flag cleared by
      ``freeze()``) — ``ufunc.at`` ignores the flag on some numpy
      versions, so numpy's own check cannot be relied on;
    * a counter array backed by a read-only (``"r"``) or copy-on-write
      (``"c"``) ``np.memmap`` — the mmap-loaded serving snapshot path.
      Mode ``"c"`` is the insidious one: its ``writeable`` flag is True,
      so a write would *succeed* into private COW pages and silently
      diverge from the file every other process maps.
    """
    readonly = not flat.flags.writeable
    if not readonly:
        base = flat
        while base is not None:
            if isinstance(base, np.memmap) and getattr(base, "mode", None) in ("r", "c"):
                readonly = True
                break
            base = getattr(base, "base", None)
    if readonly:
        raise ValueError(
            "sketch counters are read-only (frozen or mmap-backed serving "
            "snapshot); inserts must target the live write-side sketch"
        )


def ensure_mergeable(left, right, attrs: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``right`` can merge into ``left``.

    Linear-sketch merge (counter summation) is only meaningful between
    sketches with identical hash functions and layout, so every sketch
    class funnels its compatibility check through here: ``right`` must be
    the same type as ``left`` and agree on every attribute in ``attrs``.
    The error names the first differing attribute so distributed reducers
    surface actionable messages instead of silently corrupt merges.
    """
    if type(left) is not type(right):
        raise ValueError(
            f"sketches are mergeable only within one class: cannot merge "
            f"{type(right).__name__} into {type(left).__name__}"
        )
    for attr in attrs:
        a, b = getattr(left, attr), getattr(right, attr)
        if a != b:
            raise ValueError(
                f"{type(left).__name__} sketches are mergeable only with "
                f"identical shape, seed and family; {attr} differs: "
                f"{a!r} != {b!r}"
            )


def scatter_add_flat(
    flat: np.ndarray,
    flat_indices: np.ndarray,
    weights: np.ndarray,
    *,
    use_bincount: bool,
) -> None:
    """Accumulate ``weights`` into ``flat`` at ``flat_indices`` in one pass.

    The two strategies have different rounding *order*, so callers that
    promise bit-identical results with a pre-fusion formulation must mirror
    its strategy choice (the sketches do); callers free to trade ulp-level
    rounding for speed may pick per batch:

    * ``bincount`` sums all duplicate hits in a fresh float64 accumulator
      and adds it to the table once — fastest when the batch is a
      reasonable fraction of the table size;
    * ``np.add.at`` applies each hit to the table in input order —
      cheapest for tiny batches where allocating a dense accumulator
      dominates.

    Frozen tables and read-only/COW mmap views are rejected explicitly
    (see :func:`reject_readonly_counters`): ``ufunc.at`` ignores the
    ``writeable`` flag on some numpy versions, and a copy-on-write mmap
    would accept the write into private pages, so relying on numpy's own
    checks would let the small-batch branch silently mutate (or appear to
    mutate) a serving snapshot.
    """
    reject_readonly_counters(flat)
    if use_bincount:
        acc = np.bincount(flat_indices, weights=weights, minlength=flat.size)
        flat += acc.astype(flat.dtype, copy=False)
    else:
        np.add.at(flat, flat_indices, weights)


def validate_batch(keys, values) -> tuple[np.ndarray, np.ndarray]:
    """Coerce and sanity-check a batch of (key, value) updates."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if keys.ndim != 1 or values.ndim != 1:
        raise ValueError("keys and values must be 1-D arrays")
    if keys.shape != values.shape:
        raise ValueError(
            f"keys and values must align, got {keys.shape} vs {values.shape}"
        )
    if keys.size and keys.min() < 0:
        raise ValueError("keys must be non-negative")
    return keys, values


class ValueSketch(abc.ABC):
    """Abstract base class for mergeable real-valued sketches."""

    @abc.abstractmethod
    def insert(self, keys, values) -> None:
        """Accumulate ``values[n]`` under ``keys[n]`` for every ``n``."""

    @abc.abstractmethod
    def query(self, keys) -> np.ndarray:
        """Estimate the accumulated value for each key."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Zero the sketch contents, keeping the hash functions."""

    @property
    @abc.abstractmethod
    def memory_floats(self) -> int:
        """Number of float counters held — the paper's memory budget unit."""

    def gate(self, keys, tau: float, *, two_sided: bool = False):
        """ASCS's acceptance test (Algorithm 2, lines 10-11) on a batch.

        Returns ``(mask, estimates)``: ``mask`` marks the keys whose
        estimate (its absolute value when ``two_sided``) is at least
        ``tau``, and ``estimates`` holds those keys' estimates in batch
        order.  This default queries every key and compares; a NaN
        estimate never clears ``tau``.
        """
        estimates = self.query(keys)
        mask = (np.abs(estimates) if two_sided else estimates) >= tau
        return mask, estimates[mask]

    def query_single(self, key: int) -> float:
        """Estimate a single key (convenience wrapper)."""
        return float(self.query(np.asarray([key], dtype=np.int64))[0])

    @property
    def memory_bytes(self) -> int:
        """Resident size of the counter storage in bytes.

        Sketches backed by a :class:`repro.sketch.storage.CounterStore`
        report its actual ``nbytes`` — itemsize-aware, so the compact
        int16/int32 tier is not misreported as 8 bytes per counter.
        Sketches without a store fall back to the float64 assumption.
        """
        store = getattr(self, "_store", None)
        if store is not None:
            return store.nbytes
        return self.memory_floats * 8

"""Multiply-shift hashing over 64-bit keys.

Count Sketch needs, per hash table, a bucket hash ``h: [p] -> [R]`` and a
sign hash ``s: [p] -> {+1, -1}`` (Charikar et al. 2002; paper section 4).
At trillion scale the key space cannot be tabulated, so both are computed
on the fly for whole ``uint64`` arrays, always with Dietzfelbinger's
multiply-shift scheme (PERF.md, "One hash family", records why):

* :class:`MultiplyShiftHash` and :class:`SignHash` — one seeded hash each,
  the per-table oracle the stacked form is checked against;
* :class:`MultiTableHasher` — a sketch's ``K`` bucket and ``K`` sign hashes
  stacked so that one ``(2K, n)`` broadcast evaluates all of them.

Every hash is a deterministic function of its seed and is picklable, so
sketches can be serialised and merged across processes.  Persisted sketch
archives name the family :data:`FAMILY`; :func:`check_family` refuses a
file that names any other.
"""

from __future__ import annotations

import copy

import numpy as np

__all__ = [
    "FAMILY",
    "check_family",
    "MultiplyShiftHash",
    "SignHash",
    "MultiTableHasher",
]

#: The hash family every sketch uses, as persisted archives name it.
FAMILY = "multiply-shift"

_U64 = np.uint64


def check_family(name) -> None:
    """Refuse a persisted family name other than :data:`FAMILY`.

    Archives and shard specs written before multiply-shift became the only
    family may name another one.  Rebuilding such a sketch with
    multiply-shift hashes would pair its counters with the wrong buckets
    and signs, a silently wrong sketch, so it raises ``ValueError``
    instead; the archive reader turns that into an ``IntegrityError``
    naming the file.
    """
    if str(name) != FAMILY:
        raise ValueError(
            f"hash family {str(name)!r} is no longer supported; only "
            f"{FAMILY!r} sketches can be restored"
        )


def _keys_as_u64(keys) -> np.ndarray:
    """Keys as ``uint64``, zero-copy for contiguous ``int64`` keys.

    ``astype`` and ``view`` agree bit-for-bit on two's-complement ints, so
    the view only avoids the copy on the common (validated int64 batch)
    path.
    """
    keys = np.asarray(keys)
    if keys.dtype == np.uint64:
        return keys
    if keys.dtype == np.int64 and keys.flags.c_contiguous:
        return keys.view(np.uint64)
    return keys.astype(np.uint64)


class MultiplyShiftHash:
    """Dietzfelbinger multiply-shift hashing: ``((a*x + b) mod 2^64) >> 32``.

    A seeded hash from ``uint64`` keys to ``[0, num_buckets)``.  ``a`` is a
    random odd 64-bit multiplier.  The top 32 bits of the wrapped product
    are close to uniform, and the final ``% R`` bias is ``O(R/2^32)`` —
    negligible for every sketch size used here.
    """

    def __init__(self, num_buckets: int, seed: int):
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self._a = _U64(rng.integers(1, 1 << 63, dtype=np.uint64) * 2 + 1)
        self._b = _U64(rng.integers(0, 1 << 63, dtype=np.uint64))

    def __call__(self, keys) -> np.ndarray:
        """Bucket indices in ``[0, num_buckets)`` as ``int64``."""
        hashed = (_keys_as_u64(keys) * self._a + self._b) >> _U64(32)
        return (hashed % _U64(self.num_buckets)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiplyShiftHash(num_buckets={self.num_buckets}, seed={self.seed})"


class SignHash:
    """Random sign function ``s: keys -> {+1.0, -1.0}``.

    A two-bucket :class:`MultiplyShiftHash`; returns ``float64`` signs so
    they can multiply update values without casting.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._hash = MultiplyShiftHash(2, seed)

    def __call__(self, keys) -> np.ndarray:
        bits = self._hash(keys)
        return 1.0 - 2.0 * bits.astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignHash(seed={self.seed})"


class MultiTableHasher:
    """Fused bucket and sign hashing for ``K`` sketch tables.

    A ``K``-table sketch needs ``K`` bucket and ``K`` sign hashes of the
    *same* key batch.  Their multiply-shift parameters are stacked as
    ``(2K, 1)`` columns (rows ``0..K-1`` buckets, ``K..2K-1`` signs), so one
    broadcast evaluates all of them with the same elementwise arithmetic
    as ``K`` :class:`MultiplyShiftHash` and ``K`` :class:`SignHash` objects
    built from the same seeds: the output is bit-identical.

    Parameters
    ----------
    num_buckets:
        Output range ``R`` shared by every table.  Power-of-two ranges use
        a bitmask instead of the modulo (identical results, much faster).
    seeds, sign_seeds:
        Per-table bucket-hash and sign-hash seeds (length ``K`` each).
    """

    def __init__(self, num_buckets: int, seeds, sign_seeds):
        seeds = [int(s) for s in seeds]
        sign_seeds = [int(s) for s in sign_seeds]
        if not seeds:
            raise ValueError("need at least one table seed")
        if len(sign_seeds) != len(seeds):
            raise ValueError("sign_seeds must have one entry per table")
        self.num_tables = len(seeds)
        self.num_buckets = r = int(num_buckets)
        hashes = [MultiplyShiftHash(r, s) for s in seeds]
        hashes += [MultiplyShiftHash(2, s) for s in sign_seeds]
        self._combined_a = np.array([h._a for h in hashes], dtype=np.uint64)[:, None]
        self._combined_b = np.array([h._b for h in hashes], dtype=np.uint64)[:, None]
        self._bucket_mask = _U64(r - 1) if r & (r - 1) == 0 else None
        self._combined_mask = None
        if self._bucket_mask is not None:
            # Power-of-two R: one masked AND finishes both halves.
            halves = np.array([[self._bucket_mask], [1]], dtype=np.uint64)
            self._combined_mask = halves.repeat(self.num_tables, axis=0)

    def bucket_sign_u64(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """``(K, n)`` buckets in ``[0, R)`` and sign bits (0 => +1, 1 => -1),
        both ``uint64``, from one ``(2K, n)`` broadcast."""
        w = np.multiply(_keys_as_u64(keys), self._combined_a)
        np.add(w, self._combined_b, out=w)
        np.right_shift(w, _U64(32), out=w)
        buckets, bits = w[: self.num_tables], w[self.num_tables :]
        if self._combined_mask is not None:
            np.bitwise_and(w, self._combined_mask, out=w)
        else:
            np.mod(buckets, _U64(self.num_buckets), out=buckets)
            np.bitwise_and(bits, _U64(1), out=bits)
        return buckets, bits

    def select(self, tables) -> "MultiTableHasher":
        """A hasher over ``tables`` (indices into this one's), in that order.

        Row ``j`` of its output is row ``tables[j]`` of this hasher's, bit
        for bit: the stacked parameters are row-selected, never redrawn.
        A sketch uses it to hash a subset of its tables through the same
        :meth:`bucket_sign_u64`.
        """
        rows = np.asarray(tables, dtype=np.intp)
        both = np.concatenate([rows, rows + self.num_tables])
        sub = copy.copy(self)
        sub.num_tables = rows.size
        sub._combined_a = self._combined_a[both]
        sub._combined_b = self._combined_b[both]
        if self._combined_mask is not None:
            sub._combined_mask = self._combined_mask[both]
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiTableHasher(K={self.num_tables}, R={self.num_buckets})"


def _sign_bits_to_float(bits: np.ndarray) -> np.ndarray:
    """Map sign bits to ``{+1.0, -1.0}`` via ``1 - 2*b`` (exact)."""
    out = bits.astype(np.float64)
    np.multiply(out, -2.0, out=out)
    np.add(out, 1.0, out=out)
    return out

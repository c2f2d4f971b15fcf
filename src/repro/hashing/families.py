"""Vectorised universal hash families over 64-bit keys.

Count Sketch needs, per hash table, a bucket hash ``h: [p] -> [R]`` and a
sign hash ``s: [p] -> {+1, -1}`` (Charikar et al. 2002; paper section 4).
At trillion scale the key space cannot be tabulated, so every family here
computes hashes on the fly for whole ``uint64`` arrays:

* :class:`MultiplyShiftHash` — the classic ``(a*x + b) mod 2^64`` high-bits
  scheme.  Fastest; near-universal.  The library default.
* :class:`PolynomialHash` — ``(sum_m a_m x^m) mod (2^61 - 1) mod R`` with
  exact Mersenne-prime modular arithmetic implemented via 32-bit limb
  splitting (numpy has no 128-bit integers).  Degree ``k`` gives genuine
  k-wise independence, which the paper's analysis assumes.
* :class:`TabulationHash` — 8x256 XOR table lookup; 3-independent and
  empirically behaves like full randomness.

All families are deterministic functions of their ``seed`` and are
picklable, so sketches can be serialised and merged across processes.
"""

from __future__ import annotations

import abc
import copy

import numpy as np

__all__ = [
    "MERSENNE_PRIME_61",
    "HashFamily",
    "MultiplyShiftHash",
    "PolynomialHash",
    "TabulationHash",
    "SignHash",
    "MultiTableHasher",
    "make_family",
    "FAMILY_NAMES",
]

#: The Mersenne prime 2^61 - 1 used for exact modular polynomial hashing.
MERSENNE_PRIME_61 = (1 << 61) - 1

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK29 = _U64((1 << 29) - 1)
_MASK61 = _U64(MERSENNE_PRIME_61)


def _as_u64(keys) -> np.ndarray:
    keys = np.asarray(keys)
    if keys.dtype != np.uint64:
        keys = keys.astype(np.uint64, copy=False)
    return keys


def _mod_mersenne61(x: np.ndarray) -> np.ndarray:
    """Reduce ``uint64`` values modulo 2^61 - 1 (exact)."""
    x = (x >> _U64(61)) + (x & _MASK61)
    x = (x >> _U64(61)) + (x & _MASK61)
    return np.where(x >= _MASK61, x - _MASK61, x)


def _mulmod_mersenne61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a * b) mod (2^61 - 1)`` for operands already ``< 2^61``.

    Splits both operands into 32-bit limbs so that every partial product
    fits in a ``uint64``, then folds using ``2^61 === 1 (mod P)``.
    """
    a = _as_u64(a)
    b = _as_u64(b)
    ah, al = a >> _U64(32), a & _MASK32
    bh, bl = b >> _U64(32), b & _MASK32

    high = ah * bh  # < 2^58
    mid = ah * bl + al * bh  # < 2^62
    low = al * bl  # < 2^64 (wraps are impossible)

    # a*b = high*2^64 + mid*2^32 + low;  2^64 === 8, 2^61 === 1 (mod P).
    total = high * _U64(8)
    total = total + (mid >> _U64(29))
    total = total + ((mid & _MASK29) << _U64(32))
    total = total + (low >> _U64(61))
    total = total + (low & _MASK61)
    return _mod_mersenne61(total)


class HashFamily(abc.ABC):
    """A seeded hash function from ``uint64`` keys to ``[0, num_buckets)``."""

    def __init__(self, num_buckets: int, seed: int):
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self.seed = int(seed)
        self._init_params(np.random.default_rng(self.seed))

    @abc.abstractmethod
    def _init_params(self, rng: np.random.Generator) -> None:
        """Draw the family's random parameters from ``rng``."""

    @abc.abstractmethod
    def _hash_u64(self, keys: np.ndarray) -> np.ndarray:
        """Map a ``uint64`` array to ``uint64`` hashes (full range)."""

    def __call__(self, keys) -> np.ndarray:
        """Bucket indices in ``[0, num_buckets)`` as ``int64``."""
        hashed = self._hash_u64(_as_u64(keys))
        return (hashed % _U64(self.num_buckets)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(num_buckets={self.num_buckets}, "
            f"seed={self.seed})"
        )


class MultiplyShiftHash(HashFamily):
    """Dietzfelbinger multiply-shift hashing: ``((a*x + b) mod 2^64) >> 32``.

    ``a`` is a random odd 64-bit multiplier.  The top 32 bits of the wrapped
    product are close to uniform, and the final ``% R`` bias is ``O(R/2^32)``
    — negligible for every sketch size used here.
    """

    def _init_params(self, rng: np.random.Generator) -> None:
        self._a = _U64(rng.integers(1, 1 << 63, dtype=np.uint64) * 2 + 1)
        self._b = _U64(rng.integers(0, 1 << 63, dtype=np.uint64))

    def _hash_u64(self, keys: np.ndarray) -> np.ndarray:
        return (keys * self._a + self._b) >> _U64(32)


class PolynomialHash(HashFamily):
    """k-wise independent polynomial hashing modulo the Mersenne prime 2^61-1.

    ``h(x) = (a_{k-1} x^{k-1} + ... + a_1 x + a_0) mod P mod R``.
    ``degree=2`` yields the pairwise independence that the count-sketch
    variance analysis (and the paper's Theorems 1-3) rely on.
    """

    def __init__(self, num_buckets: int, seed: int, degree: int = 2):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.degree = int(degree)
        super().__init__(num_buckets, seed)

    def _init_params(self, rng: np.random.Generator) -> None:
        coeffs = rng.integers(
            0, MERSENNE_PRIME_61, size=self.degree, dtype=np.uint64
        )
        # Leading coefficient must be non-zero for true degree.
        if self.degree > 1 and coeffs[-1] == 0:
            coeffs[-1] = _U64(1)
        self._coeffs = coeffs.astype(np.uint64)

    def _hash_u64(self, keys: np.ndarray) -> np.ndarray:
        x = _mod_mersenne61(keys)
        # Horner evaluation, highest coefficient first.
        acc = np.broadcast_to(self._coeffs[-1], x.shape).copy()
        for m in range(self.degree - 2, -1, -1):
            acc = _mulmod_mersenne61(acc, x)
            acc = _mod_mersenne61(acc + self._coeffs[m])
        return acc


class TabulationHash(HashFamily):
    """Simple tabulation hashing: XOR of 8 per-byte lookup tables.

    3-independent, and by Patrascu-Thorup it behaves essentially like a
    fully random function for hashing-based sketches.  Costs 8 gathers per
    key, so it is the slowest family but the strongest.
    """

    def _init_params(self, rng: np.random.Generator) -> None:
        self._tables = rng.integers(
            0, np.iinfo(np.uint64).max, size=(8, 256), dtype=np.uint64
        )

    def _hash_u64(self, keys: np.ndarray) -> np.ndarray:
        acc = np.zeros(keys.shape, dtype=np.uint64)
        for byte in range(8):
            chunk = ((keys >> _U64(8 * byte)) & _U64(0xFF)).astype(np.int64)
            acc ^= self._tables[byte][chunk]
        return acc


class SignHash:
    """Random sign function ``s: keys -> {+1.0, -1.0}``.

    Wraps any :class:`HashFamily` with two buckets; returns ``float64``
    signs so they can multiply update values without casting.
    """

    def __init__(self, seed: int, family: str = "multiply-shift"):
        self.seed = int(seed)
        self.family = family
        self._hash = make_family(family, 2, seed)

    def __call__(self, keys) -> np.ndarray:
        bits = self._hash(keys)
        return 1.0 - 2.0 * bits.astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignHash(seed={self.seed}, family={self.family!r})"


# ----------------------------------------------------------------------
# Stacked (multi-table) hashing
# ----------------------------------------------------------------------
#
# A K-table sketch needs K independent hashes of the *same* key batch.
# Evaluating K separate HashFamily objects costs K Python round-trips per
# operation; stacking the per-table parameters as ``(K, ...)`` arrays lets
# one broadcast produce the full ``(K, n)`` hash matrix.  Each stacked
# family performs exactly the same elementwise arithmetic as its scalar
# counterpart, so the results are bit-identical for the same seeds.


class _Stacked:
    """Row-stacked per-table parameters: row ``e`` hashes table ``e``."""

    #: Attributes holding one leading-axis row per table.
    _PARAMS: tuple[str, ...] = ()

    def select(self, rows: np.ndarray) -> "_Stacked":
        """The same hashes restricted to (and ordered as) ``rows``."""
        sub = copy.copy(self)
        for name in self._PARAMS:
            setattr(sub, name, getattr(self, name)[rows])
        return sub


class _StackedMultiplyShift(_Stacked):
    """``(K, n)`` multiply-shift hashing from stacked ``a``/``b`` columns."""

    _PARAMS = ("_a", "_b")

    def __init__(self, families: list[MultiplyShiftHash]):
        self._a = np.array([f._a for f in families], dtype=np.uint64)[:, None]
        self._b = np.array([f._b for f in families], dtype=np.uint64)[:, None]

    def hash_u64(self, keys_u64: np.ndarray) -> np.ndarray:
        w = np.multiply(keys_u64, self._a)
        np.add(w, self._b, out=w)
        np.right_shift(w, _U64(32), out=w)
        return w


class _StackedPolynomial(_Stacked):
    """``(K, n)`` Mersenne-prime polynomial hashing from a ``(K, deg)``
    coefficient matrix (all tables must share the same degree).

    Large batches are processed in column blocks: the limb-split modular
    multiply materialises ~10 temporaries per step, and blocking keeps all
    of them cache-resident instead of streaming ``(K, n)`` arrays through
    memory once per op.
    """

    #: Columns per block; 2048 keeps a (K, block) mulmod working set in L2.
    BLOCK = 2048

    _PARAMS = ("_coeffs",)

    def __init__(self, families: list[PolynomialHash]):
        degrees = {f.degree for f in families}
        if len(degrees) != 1:
            raise ValueError("stacked polynomial tables must share one degree")
        self.degree = degrees.pop()
        self._coeffs = np.stack([f._coeffs for f in families]).astype(np.uint64)

    def _hash_block(self, x: np.ndarray) -> np.ndarray:
        acc = np.broadcast_to(
            self._coeffs[:, -1:], (self._coeffs.shape[0], x.shape[1])
        ).copy()
        for m in range(self.degree - 2, -1, -1):
            acc = _mulmod_mersenne61(acc, x)
            acc = _mod_mersenne61(acc + self._coeffs[:, m : m + 1])
        return acc

    def hash_u64(self, keys_u64: np.ndarray) -> np.ndarray:
        x = _mod_mersenne61(keys_u64)[None, :]
        n = x.shape[1]
        if n <= self.BLOCK:
            return self._hash_block(x)
        out = np.empty((self._coeffs.shape[0], n), dtype=np.uint64)
        for start in range(0, n, self.BLOCK):
            stop = min(start + self.BLOCK, n)
            out[:, start:stop] = self._hash_block(x[:, start:stop])
        return out


class _StackedTabulation(_Stacked):
    """``(K, n)`` tabulation hashing from a ``(K, 8, 256)`` table stack.

    The per-byte chunk extraction is shared across tables (the legacy loop
    recomputed it ``K`` times); the lookups stay per-table 1-D gathers,
    which numpy executes much faster than one strided 2-D fancy index.
    """

    _PARAMS = ("_tables",)

    def __init__(self, families: list[TabulationHash]):
        self._tables = np.stack([f._tables for f in families]).astype(np.uint64)

    def hash_u64(self, keys_u64: np.ndarray) -> np.ndarray:
        num_tables = self._tables.shape[0]
        acc = np.zeros((num_tables, keys_u64.size), dtype=np.uint64)
        for byte in range(8):
            chunk = ((keys_u64 >> _U64(8 * byte)) & _U64(0xFF)).astype(np.int64)
            for k in range(num_tables):
                acc[k] ^= self._tables[k, byte][chunk]
        return acc


_STACKERS = {
    MultiplyShiftHash: _StackedMultiplyShift,
    PolynomialHash: _StackedPolynomial,
    TabulationHash: _StackedTabulation,
}


def _stack_families(families: list[HashFamily]):
    kinds = {type(f) for f in families}
    if len(kinds) != 1:
        raise ValueError("all stacked tables must use the same hash family")
    kind = kinds.pop()
    stacker = _STACKERS.get(kind)
    if stacker is None:
        raise TypeError(f"no stacked implementation for {kind.__name__}")
    return stacker(families)


def _keys_as_u64(keys) -> np.ndarray:
    """Zero-copy reinterpretation of contiguous int64 keys as uint64.

    ``astype`` and ``view`` agree bit-for-bit on two's-complement ints, so
    this matches :func:`_as_u64` exactly while avoiding the copy on the
    common (validated int64 batch) path.
    """
    keys = np.asarray(keys)
    if keys.dtype == np.uint64:
        return keys
    if keys.dtype == np.int64 and keys.flags.c_contiguous:
        return keys.view(np.uint64)
    return keys.astype(np.uint64)


class MultiTableHasher:
    """Fused bucket (and optional sign) hashing for ``K`` sketch tables.

    One call computes the full ``(K, n)`` bucket matrix — and, when sign
    seeds are given, the ``(K, n)`` sign matrix — via a single broadcast
    over stacked per-table parameters.  Output is bit-identical to
    evaluating ``K`` independent :class:`HashFamily` / :class:`SignHash`
    objects built from the same seeds.

    Parameters
    ----------
    family:
        Bucket hash family name (see :func:`make_family`).
    num_buckets:
        Output range ``R`` shared by every table.  Power-of-two ranges use
        a bitmask instead of the modulo (identical results, much faster).
    seeds:
        Per-table bucket-hash seeds (length ``K``).
    sign_seeds:
        Optional per-table sign-hash seeds; enables :meth:`signs`.
    sign_family:
        Family used for the sign hashes (matches :class:`SignHash`).
    kwargs:
        Extra family options (e.g. ``degree`` for polynomial).
    """

    def __init__(
        self,
        family: str,
        num_buckets: int,
        seeds,
        *,
        sign_seeds=None,
        sign_family: str = "multiply-shift",
        **kwargs,
    ):
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ValueError("need at least one table seed")
        self.family = family
        self.num_tables = len(seeds)
        self.num_buckets = int(num_buckets)
        self._bucket = _stack_families(
            [make_family(family, self.num_buckets, s, **kwargs) for s in seeds]
        )
        r = self.num_buckets
        self._bucket_mask = _U64(r - 1) if r & (r - 1) == 0 else None
        self._sign = None
        self._combined_a = None
        self._combined_b = None
        self._combined_mask = None
        if sign_seeds is not None:
            sign_seeds = [int(s) for s in sign_seeds]
            if len(sign_seeds) != self.num_tables:
                raise ValueError("sign_seeds must have one entry per table")
            self._sign = _stack_families(
                [make_family(sign_family, 2, s) for s in sign_seeds]
            )
            if isinstance(self._bucket, _StackedMultiplyShift) and isinstance(
                self._sign, _StackedMultiplyShift
            ):
                # Both hashes are (a*x + b) >> 32: stack their parameters
                # vertically so one (2K, n) broadcast evaluates bucket and
                # sign hashes together (rows 0..K-1 buckets, K..2K-1 signs).
                self._combined_a = np.vstack([self._bucket._a, self._sign._a])
                self._combined_b = np.vstack([self._bucket._b, self._sign._b])
                if self._bucket_mask is not None:
                    # Power-of-two R: one masked AND finishes both halves.
                    self._combined_mask = np.vstack(
                        [
                            np.full((self.num_tables, 1), self._bucket_mask),
                            np.full((self.num_tables, 1), _U64(1)),
                        ]
                    )
                else:
                    self._combined_mask = None

    # -- raw kernels (uint64 in, uint64 out) ---------------------------
    def bucket_u64(self, keys) -> np.ndarray:
        """``(K, n)`` bucket indices in ``[0, R)`` as ``uint64``."""
        w = self._bucket.hash_u64(_keys_as_u64(keys))
        if self._bucket_mask is not None:
            np.bitwise_and(w, self._bucket_mask, out=w)
        else:
            np.mod(w, _U64(self.num_buckets), out=w)
        return w

    def sign_bits_u64(self, keys) -> np.ndarray:
        """``(K, n)`` sign bits (0 => +1, 1 => -1) as ``uint64``."""
        if self._sign is None:
            raise RuntimeError("this hasher was built without sign seeds")
        s = self._sign.hash_u64(_keys_as_u64(keys))
        np.bitwise_and(s, _U64(1), out=s)
        return s

    def bucket_sign_u64(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """``(buckets, sign_bits)`` in one fused pass where possible.

        With the default multiply-shift bucket *and* sign hashes, a single
        ``(2K, n)`` broadcast evaluates both; the result is identical to
        calling :meth:`bucket_u64` and :meth:`sign_bits_u64` separately.
        """
        if self._combined_a is None:
            return self.bucket_u64(keys), self.sign_bits_u64(keys)
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
        sub = copy.copy(self)
        sub.num_tables = rows.size
        sub._bucket = self._bucket.select(rows)
        if self._sign is not None:
            sub._sign = self._sign.select(rows)
        if self._combined_a is not None:
            both = np.concatenate([rows, rows + self.num_tables])
            sub._combined_a = self._combined_a[both]
            sub._combined_b = self._combined_b[both]
            if self._combined_mask is not None:
                sub._combined_mask = self._combined_mask[both]
        return sub

    # -- legacy-typed views --------------------------------------------
    def buckets(self, keys) -> np.ndarray:
        """``(K, n)`` bucket indices as ``int64`` (values ``< R < 2^63``)."""
        return self.bucket_u64(keys).view(np.int64)

    def signs(self, keys) -> np.ndarray:
        """``(K, n)`` signs as ``float64`` in ``{+1.0, -1.0}``."""
        return _sign_bits_to_float(self.sign_bits_u64(keys))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiTableHasher(family={self.family!r}, K={self.num_tables}, "
            f"R={self.num_buckets}, signs={self._sign is not None})"
        )


def _sign_bits_to_float(bits: np.ndarray) -> np.ndarray:
    """Map sign bits to ``{+1.0, -1.0}`` via ``1 - 2*b`` (exact)."""
    out = bits.astype(np.float64)
    np.multiply(out, -2.0, out=out)
    np.add(out, 1.0, out=out)
    return out


FAMILY_NAMES = ("multiply-shift", "polynomial", "tabulation")


def make_family(name: str, num_buckets: int, seed: int, **kwargs) -> HashFamily:
    """Instantiate a hash family by name.

    Parameters
    ----------
    name:
        One of ``"multiply-shift"``, ``"polynomial"``, ``"tabulation"``.
    num_buckets:
        Output range ``R``.
    seed:
        Deterministic seed for the family parameters.
    kwargs:
        Extra family-specific options (e.g. ``degree`` for polynomial).
    """
    if name == "multiply-shift":
        return MultiplyShiftHash(num_buckets, seed, **kwargs)
    if name == "polynomial":
        return PolynomialHash(num_buckets, seed, **kwargs)
    if name == "tabulation":
        return TabulationHash(num_buckets, seed, **kwargs)
    raise ValueError(f"unknown hash family {name!r}; choose from {FAMILY_NAMES}")

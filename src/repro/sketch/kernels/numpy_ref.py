"""Numpy sketch kernels, and the contract every kernel implementation keeps.

This module holds the numpy primitives :class:`repro.sketch.CountSketch`
runs — sign application and the median of tables — and states the
contract the compiled backend (:mod:`repro.sketch.kernels.numba_jit`)
reproduces.  The numpy path ``CountSketch`` runs is the **executable
specification**: the equivalence tests pin the compiled kernels against a
``CountSketch`` pinned to numpy, so "bit-identical across backends" is
enforced rather than hoped for.

The contract
------------
* **Layout.** Counters live in one flat ``(K*R,)`` float64 array;
  counter ``(e, b)`` sits at ``flat[e*R + b]`` (``offsets[e] = e*R``).
* **Hashing.** Combined multiply-shift: for table ``e`` and key ``x``,
  ``w = (x * a[e] + b[e]) mod 2^64 >> 32``; the bucket is ``w & mask``
  (power-of-two ``R``) or ``w % R``.  Rows ``K..2K-1`` of ``a``/``b``
  are the sign hashes; the sign bit is bit 0 of the same expression
  (``0 => +1``, ``1 => -1``).  All arithmetic is uint64 with wrap-around,
  matching numpy and C exactly.
* **Sign.** A sign bit of 1 flips the value's IEEE sign bit and nothing
  else: numpy XORs ``bit << 63`` into the float's bits, the compiled
  kernels write ``-value``.  Both give the bytes of ``np.where(bits, -x,
  x)`` for every value, ``±0``, ``±inf`` and NaN included.  (A multiply
  by ``-1.0`` would keep a NaN's sign; only a :meth:`CountSketch.cache_keys`
  hit, which the compiled kernels never see, multiplies by its cached
  ``±1.0`` signs.)
* **Summation order.** The bincount strategy accumulates every signed
  update into a fresh float64 accumulator in table-major input order
  (all of table 0's hits in batch order, then table 1's, ...), then adds
  the accumulator to the table elementwise; the small-batch strategy
  applies each update directly to the table in the same order.  Both
  mirror :func:`repro.sketch.base.scatter_add_flat` on the raveled
  ``(K, n)`` index matrix, so either backend reproduces the other's
  floats bit-for-bit.
* **Median.** ``K in {1, 3, 5}`` uses the min/max selection network of
  :func:`median`; ``np.minimum`` / ``np.maximum`` semantics (NaN
  propagates, ties keep the first operand) are part of the contract.
"""

from __future__ import annotations

import numpy as np

__all__ = ["apply_sign", "median"]

_SIGN_SHIFT = np.uint64(63)


def apply_sign(bits: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(K, n)`` float64 of ``x`` with signs applied from raw sign bits.

    ``x`` is either the float64 value row ``(n,)`` (insert) or the
    gathered estimate matrix ``(K, n)`` (query); ``bits`` is the uint64
    bit matrix from :meth:`repro.hashing.MultiTableHasher.bucket_sign_u64`.
    Each bit is shifted to bit 63 and XORed into the float's bits: one
    shift and one XOR at every size, byte-identical to
    ``np.where(bits, -x, x)`` (see the contract's sign rule).
    """
    flips = np.left_shift(bits, _SIGN_SHIFT)
    return np.bitwise_xor(flips, x.view(np.uint64), out=flips).view(np.float64)


def median(est: np.ndarray) -> np.ndarray:
    """Median along axis 0, specialised for the tiny odd ``K`` sketches use.

    For ``K`` in {1, 3, 5} the median of each column is selected with a
    min/max network — a handful of full-width vector ops instead of the
    per-column partition ``np.median`` runs.  Selection returns exactly the
    middle element, so the result is bit-identical to ``np.median`` (which
    for odd ``K`` also returns an element, not an average).  Even ``K``
    (mean of two middle elements) falls back to ``np.median``.
    """
    k = est.shape[0]
    if k == 1:
        return est[0]
    if k == 3:
        e0, e1, e2 = est
        return np.maximum(np.minimum(e0, e1), np.minimum(np.maximum(e0, e1), e2))
    if k == 5:
        e0, e1, e2, e3, e4 = est
        lo01, hi01 = np.minimum(e0, e1), np.maximum(e0, e1)
        lo23, hi23 = np.minimum(e2, e3), np.maximum(e2, e3)
        lo = np.maximum(lo01, lo23)  # 3rd-smallest candidate from below
        hi = np.minimum(hi01, hi23)  # 3rd-smallest candidate from above
        m1, m2 = np.minimum(lo, hi), np.maximum(lo, hi)
        return np.minimum(np.maximum(e4, m1), m2)
    return np.median(est, axis=0)

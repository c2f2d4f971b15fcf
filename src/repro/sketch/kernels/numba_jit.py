"""Numba-compiled count-sketch kernels: ``cs_insert`` and ``cs_query``.

Importing this module requires numba; import it through
:func:`repro.sketch.kernels.numba_kernels`, which leaves the numpy path
in charge when the import fails.

Both kernels implement the contract documented in
:mod:`repro.sketch.kernels.numpy_ref` with **bit-identical** results to
the numpy path :class:`repro.sketch.CountSketch` runs:

* the same flat ``(K*R,)`` float64 layout (``flat[e*R + b]``);
* the same uint64 multiply-shift arithmetic (wrap-around multiply,
  ``>> 32``, mask or modulo) — all operands stay uint64, which numba
  compiles to the exact C semantics numpy uses;
* the same summation order — the bincount strategy fills a fresh
  float64 accumulator in table-major input order and adds it to the
  table elementwise, the small-batch strategy adds straight to the
  table in the same order;
* the same min/max median network, with scalar ``fmin``/``fmax``
  helpers that replicate ``np.minimum``/``np.maximum`` (NaN propagates,
  ties keep the first operand).

``CountSketch.insert_and_query`` is ``cs_insert`` then ``cs_query``.

No ``fastmath`` (it would license reassociation and break bit-identity)
and no ``parallel`` (ordered accumulation is part of the contract);
``cache=True`` persists the compiled machine code next to the package so
repeat processes skip JIT warm-up.
"""

from __future__ import annotations

import numba
import numpy as np
from numba import njit

NUMBA_VERSION = numba.__version__

_U1 = np.uint64(1)
_U32 = np.uint64(32)


@njit(cache=True)
def _fmin(a, b):
    # np.minimum semantics: NaN propagates, ties return the first operand.
    if a != a:
        return a
    if b != b:
        return b
    return a if a <= b else b


@njit(cache=True)
def _fmax(a, b):
    if a != a:
        return a
    if b != b:
        return b
    return a if a >= b else b


@njit(cache=True)
def _bucket_of(w, num_buckets, mask, use_mask):
    if use_mask:
        return w & mask
    return w % num_buckets


@njit(cache=True)
def cs_insert(
    flat, keys, values, a, b, offsets, num_buckets, mask, use_mask, use_bincount
):
    num_tables = offsets.shape[0]
    n = keys.shape[0]
    if use_bincount:
        acc = np.zeros(flat.shape[0], dtype=np.float64)
        for e in range(num_tables):
            a_bucket = a[e]
            b_bucket = b[e]
            a_sign = a[num_tables + e]
            b_sign = b[num_tables + e]
            offset = offsets[e]
            for i in range(n):
                key = keys[i]
                w = (key * a_bucket + b_bucket) >> _U32
                bucket = _bucket_of(w, num_buckets, mask, use_mask)
                sign = ((key * a_sign + b_sign) >> _U32) & _U1
                value = values[i]
                if sign == _U1:
                    value = -value
                acc[offset + bucket] += value
        for j in range(flat.shape[0]):
            flat[j] += acc[j]
    else:
        for e in range(num_tables):
            a_bucket = a[e]
            b_bucket = b[e]
            a_sign = a[num_tables + e]
            b_sign = b[num_tables + e]
            offset = offsets[e]
            for i in range(n):
                key = keys[i]
                w = (key * a_bucket + b_bucket) >> _U32
                bucket = _bucket_of(w, num_buckets, mask, use_mask)
                sign = ((key * a_sign + b_sign) >> _U32) & _U1
                value = values[i]
                if sign == _U1:
                    value = -value
                flat[offset + bucket] += value


@njit(cache=True)
def _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, e):
    num_tables = offsets.shape[0]
    w = (key * a[e] + b[e]) >> _U32
    bucket = _bucket_of(w, num_buckets, mask, use_mask)
    sign = ((key * a[num_tables + e] + b[num_tables + e]) >> _U32) & _U1
    value = flat[offsets[e] + bucket]
    if sign == _U1:
        return -value
    return value


@njit(cache=True)
def cs_query(flat, keys, a, b, offsets, num_buckets, mask, use_mask, out):
    num_tables = offsets.shape[0]
    n = keys.shape[0]
    if num_tables == 1:
        for i in range(n):
            out[i] = _estimate(
                flat, keys[i], a, b, offsets, num_buckets, mask, use_mask, 0
            )
    elif num_tables == 3:
        for i in range(n):
            key = keys[i]
            e0 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 0)
            e1 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 1)
            e2 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 2)
            out[i] = _fmax(_fmin(e0, e1), _fmin(_fmax(e0, e1), e2))
    else:
        for i in range(n):
            key = keys[i]
            e0 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 0)
            e1 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 1)
            e2 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 2)
            e3 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 3)
            e4 = _estimate(flat, key, a, b, offsets, num_buckets, mask, use_mask, 4)
            lo01 = _fmin(e0, e1)
            hi01 = _fmax(e0, e1)
            lo23 = _fmin(e2, e3)
            hi23 = _fmax(e2, e3)
            lo = _fmax(lo01, lo23)
            hi = _fmin(hi01, hi23)
            m1 = _fmin(lo, hi)
            m2 = _fmax(lo, hi)
            out[i] = _fmin(_fmax(e4, m1), m2)

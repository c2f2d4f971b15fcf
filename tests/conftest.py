"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.sketch.kernels as kernels
from repro.data.synthetic import BlockCorrelationModel
from repro.sketch.count_sketch import CountSketch


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_sketch():
    """A sketch wide enough that a handful of keys never collide."""
    return CountSketch(num_tables=5, num_buckets=4096, seed=7)


@pytest.fixture
def block_model():
    """A tiny block-correlation model with known signal pairs."""
    return BlockCorrelationModel.from_alpha(60, alpha=0.02, seed=3)


@pytest.fixture
def pin_kernels(monkeypatch):
    """``pin(backend)`` makes ``"numpy"`` or ``"numba"`` the kernels that run.

    Patches the one-shot import state of :mod:`repro.sketch.kernels` — the
    switch a host with or without numba sets — and restores it after the
    test.  Sketches arm the compiled path when they are built, so pin
    before building them.
    """
    compiled = kernels.numba_kernels()

    def pin(backend: str) -> None:
        monkeypatch.setattr(kernels, "_jit_checked", True)
        monkeypatch.setattr(
            kernels, "_jit_module", compiled if backend == "numba" else None
        )

    return pin

"""Shared experiment engine: run estimators over datasets, rank all pairs.

Every section-8.3-style experiment follows the same skeleton:

1. generate a dataset and its exact ground-truth correlations;
2. stream it through one or more estimators at a common memory budget;
3. rank all ``p`` pair keys by final sketch estimate;
4. score the ranking against the truth.

:func:`run_method` performs 1-3 for one estimator; the experiment modules
layer their specific tables/figures on top.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.api import build_estimator, run_pilot
from repro.covariance.pipeline import CovarianceSketcher
from repro.covariance.running import SparseMoments
from repro.covariance.updates import sparse_sample_pairs
from repro.hashing.pairs import num_pairs
from repro.theory.bounds import ProblemModel
from repro.theory.planner import ASCSPlan, plan_hyperparameters
from repro.theory.snr import estimate_sigma_sparse

__all__ = ["MethodRun", "run_method", "rank_all_pairs", "sparse_pilot", "run_sparse_method"]


@dataclass
class MethodRun:
    """One estimator's pass over one dataset."""

    method: str
    ranked_keys: np.ndarray
    estimates: np.ndarray
    fit_seconds: float
    acceptance_rate: float
    plan: ASCSPlan | None
    sketcher: CovarianceSketcher


def rank_all_pairs(
    sketcher: CovarianceSketcher, *, chunk: int = 1 << 20
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates for every pair key, sorted descending (section 8.3 scan)."""
    p = sketcher.num_pairs
    estimates = np.empty(p, dtype=np.float64)
    for start in range(0, p, chunk):
        keys = np.arange(start, min(start + chunk, p), dtype=np.int64)
        estimates[start : start + keys.size] = sketcher.estimate_keys(keys)
    order = np.argsort(-estimates, kind="stable")
    return order.astype(np.int64), estimates[order]


def run_method(
    data: np.ndarray,
    method: str,
    memory_floats: int,
    alpha: float,
    *,
    num_tables: int = 5,
    batch_size: int = 32,
    mode: str = "correlation",
    seed: int = 0,
    u: float | None = None,
    sigma: float | None = None,
    tau0: float = 1e-4,
    delta: float | None = None,
    delta_star: float | None = None,
    two_sided: bool = False,
    observer=None,
    pilot_fraction: float = 0.05,
) -> MethodRun:
    """Stream ``data`` through one estimator and rank every pair.

    ``data`` must be dense ``(n, d)`` (section 8.3 operates on the
    1000-feature subsamples, which are always materialisable); the
    large-scale experiments use their own sparse drivers.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    num_buckets = max(16, int(memory_floats) // int(num_tables))

    plan = None
    if method == "ascs":
        if u is None or sigma is None:
            pilot = run_pilot(
                data,
                alpha,
                num_tables=num_tables,
                num_buckets=num_buckets,
                pilot_fraction=pilot_fraction,
                mode=mode,
                seed=seed,
            )
            u = u if u is not None else pilot.u
            sigma = sigma if sigma is not None else pilot.sigma
        model = ProblemModel(
            p=num_pairs(d),
            alpha=alpha,
            u=u,
            sigma=sigma,
            T=n,
            num_tables=num_tables,
            num_buckets=num_buckets,
        )
        plan = plan_hyperparameters(
            model, tau0=tau0, delta=delta, delta_star=delta_star
        )

    estimator = build_estimator(
        method,
        n,
        num_tables,
        num_buckets,
        plan=plan,
        seed=seed,
        two_sided=two_sided,
        observer=observer,
    )
    sketcher = CovarianceSketcher(d, estimator, mode=mode, batch_size=batch_size)

    start = time.perf_counter()
    sketcher.fit_dense(data)
    fit_seconds = time.perf_counter() - start

    ranked_keys, estimates = rank_all_pairs(sketcher)
    return MethodRun(
        method=method,
        ranked_keys=ranked_keys,
        estimates=estimates,
        fit_seconds=fit_seconds,
        acceptance_rate=estimator.acceptance_rate,
        plan=plan,
        sketcher=sketcher,
    )


def sparse_pilot(
    samples: Iterable[tuple[np.ndarray, np.ndarray]],
    dim: int,
    *,
    num_pilot: int = 500,
    std_floor: float = 1e-6,
) -> float:
    """Estimate ``sigma`` from a sparse stream prefix (section 7.2).

    Accumulates the per-feature moments of the pilot window, normalises each
    pilot sample by the resulting std, and returns the RMS pair-product over
    the *full* variable space ``p`` — zero entries contribute nothing but
    count in the denominator, exactly the average-variance relaxation.
    """
    pilot = list(itertools.islice(iter(samples), num_pilot))
    if not pilot:
        raise ValueError("pilot stream produced no samples")
    moments = SparseMoments(dim)
    for indices, values in pilot:
        moments.update_batch(
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            1,
        )
    std = moments.std(floor=std_floor)
    total_sq = 0.0
    for indices, values in pilot:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64) / std[indices]
        _, products = sparse_sample_pairs(indices, values, dim)
        total_sq += float((products**2).sum())
    return estimate_sigma_sparse(total_sq, num_pairs(dim), len(pilot))


def run_sparse_method(
    stream_factory,
    dim: int,
    total_samples: int,
    method: str,
    num_buckets: int,
    *,
    num_tables: int = 5,
    alpha: float = 1e-5,
    u: float = 0.5,
    sigma: float | None = None,
    batch_size: int = 32,
    track_top: int = 5000,
    top_k: int = 1000,
    delta: float = 0.05,
    delta_star: float = 0.2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, "MethodRun"]:
    """Large-scale protocol (Table 2): sparse stream, candidate tracking.

    ``stream_factory`` must return a fresh iterable of sparse samples per
    call (one for the optional pilot, one for the run).  ``u`` is the
    correlation level of interest — a user choice at this scale, since no
    exact percentile of an ``O(10^14)``-entry vector exists.

    Returns ``(top_keys, top_estimates, run)``.
    """
    plan = None
    if method == "ascs":
        if sigma is None:
            sigma = sparse_pilot(stream_factory(), dim)
        model = ProblemModel(
            p=num_pairs(dim),
            alpha=alpha,
            u=u,
            sigma=sigma,
            T=total_samples,
            num_tables=num_tables,
            num_buckets=num_buckets,
        )
        plan = plan_hyperparameters(model, delta=delta, delta_star=delta_star)

    estimator = build_estimator(
        method,
        total_samples,
        num_tables,
        num_buckets,
        plan=plan,
        seed=seed,
        track_top=track_top,
    )
    sketcher = CovarianceSketcher(
        dim, estimator, mode="correlation", batch_size=batch_size
    )
    start = time.perf_counter()
    sketcher.fit_sparse(stream_factory())
    fit_seconds = time.perf_counter() - start

    keys, estimates = estimator.top_k(top_k)
    run = MethodRun(
        method=method,
        ranked_keys=keys,
        estimates=estimates,
        fit_seconds=fit_seconds,
        acceptance_rate=estimator.acceptance_rate,
        plan=plan,
        sketcher=sketcher,
    )
    return keys, estimates, run

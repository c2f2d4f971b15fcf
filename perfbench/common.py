"""Shared helpers: percentiles, tallies, the result line, run metadata."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.tracing import RUNNER_METRICS, layer_metrics

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10

#: Scratch space inside the checkout (ignored by git).
WORK = Path(__file__).resolve().parent / ".work"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ingest_rows_per_s": "rows/s",
    "top_f1": "ratio",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "query_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_p75_ms": "ms",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


#: Per-layer metrics (``--trace 1``): name -> unit.  The span-derived names
#: are the keys :func:`tracing.layer_metrics` returns; the runners add
#: :data:`tracing.RUNNER_METRICS`.
PER_LAYER = {
    name: _layer_unit(name) for name in [*layer_metrics([]), *RUNNER_METRICS]
}


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``, linear interpolation.

    Refuses (raises :class:`TooFewSamples`) unless at least
    :data:`MIN_TAIL` samples lie beyond the percentile, i.e. unless
    ``len(values) * (1 - q/100) >= MIN_TAIL``.  The median needs 20.
    """
    n = len(values)
    beyond = n * (1.0 - q / 100.0)
    if beyond < MIN_TAIL - 1e-9:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond:.1f} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    if not len(values):
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(values))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failures.

    Safe to share between threads.
    """

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def attempt(self, count: int = 1) -> None:
        with self.lock:
            self.attempted += count

    def fail(self, what: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class HostSpeed:
    """How fast the shared host runs right now, from a fixed probe.

    Other tenants slow the host by tens of percent for seconds to minutes
    at a time.  The probe is a fixed piece of benchmark-owned work shaped
    like the workload's dominant kernels, at a working set of a few MB:

    * ``"scatter"`` (sparse ingest): a random scatter and gather over a
      sketch-sized table, a multiply-shift hash, a small sort and an
      interpreter loop;
    * ``"sort"`` (dense ingest, where pair expansion and dedup dominate): a
      sort with inverse indices and a repeat/cumsum expansion.

    It never calls the code under test, so no change to the program moves
    it.  :meth:`factor` scales a time measured between two probes to a host
    on which the probe takes :data:`NOMINAL_S`.
    """

    #: Probe seconds on a quiet 2-CPU x86-64 host, where the benchmark was
    #: written.  They fix the unit of a scaled time only: a comparison of
    #: two commits under the same benchmark divides them out.
    NOMINAL_S = {"scatter": 0.020, "sort": 0.022}

    def __init__(self, kind: str):
        rng = np.random.default_rng(12345)
        self.kind = kind
        self.nominal_s = self.NOMINAL_S[kind]
        if kind == "scatter":
            size = 1 << 18
            self._idx = rng.integers(0, 5 * 32768, size=size)
            self._weights = rng.random(size)
            self._keys = rng.integers(0, 1 << 40, size=size // 4)
            self._words = rng.integers(0, 1 << 62, size=size, dtype=np.uint64)
        else:
            self._keys = rng.integers(0, 1 << 40, size=1 << 18)
            self._lengths = rng.integers(1, 8, size=1 << 15)
        self._last = self.sample()

    def sample(self) -> float:
        """Seconds the probe takes now (best of two, to skip a stray
        interrupt)."""
        return min(self._probe(), self._probe())

    def _probe(self) -> float:
        started = time.perf_counter()
        if self.kind == "scatter":
            table = np.bincount(self._idx, weights=self._weights, minlength=5 * 32768)
            float(table[self._idx].sum())
            np.unique(self._keys)
            (self._words * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(47)
            acc = 0
            for x in range(5_000):
                acc += x * x
        else:
            np.unique(self._keys, return_inverse=True)
            np.cumsum(np.repeat(np.arange(self._lengths.size), self._lengths))
        return time.perf_counter() - started

    def factor(self) -> float:
        """Nominal ÷ observed probe time over the interval since the last
        call (the mean of the probes at both ends)."""
        now = self.sample()
        observed = (self._last + now) / 2.0
        self._last = now
        return self.nominal_s / observed


def top_f1(reported_keys, planted_keys) -> float:
    """F1 of the reported top pairs against the planted pairs."""
    reported = set(int(k) for k in reported_keys)
    planted = set(int(k) for k in planted_keys)
    hits = len(reported & planted)
    if not hits:
        return 0.0
    precision = hits / len(reported)
    recall = hits / len(planted)
    return 2.0 * precision * recall / (precision + recall)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repr_mismatches(a, b) -> int:
    """Number of positions where two float sequences differ in ``repr``."""
    a = [repr(float(x)) for x in a]
    b = [repr(float(x)) for x in b]
    if len(a) != len(b):
        return max(len(a), len(b))
    return sum(x != y for x, y in zip(a, b))


def run_metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What ties a number to the machine and software it ran on."""
    from repro.sketch.kernels import numba_available, resolve_backend

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_available(),
        "kernel_backend": resolve_backend("auto"),
    }


def emit(label: str, payload: dict) -> None:
    """Print one labelled JSON detail line (never the last line)."""
    print(f"{label} {json.dumps(payload, sort_keys=True)}", flush=True)


def emit_result(*, tally: Tally, metrics: dict, units: dict) -> None:
    """Print the result object as the last line of standard output.

    ``metrics`` must name every metric in ``units`` and no other.
    """
    if set(metrics) != set(units):
        raise ValueError(
            f"metrics do not match the declared set: missing "
            f"{sorted(set(units) - set(metrics))}, extra {sorted(set(metrics) - set(units))}"
        )
    out = {}
    for name, value in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": units[name]}
    line = {
        "correct": tally.failed == 0,
        "attempted": int(max(tally.attempted, 1)),
        "failed": int(tally.failed),
        "metrics": out,
    }
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()

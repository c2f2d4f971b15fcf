"""Shared helpers for the benchmark suite.

Every paper table/figure has a ``bench_*`` module here that (a) regenerates
the artifact at a scaled-down config and prints it, and (b) reports the
wall time through pytest-benchmark.  Experiment benchmarks run exactly once
(``pedantic(rounds=1)``): they are end-to-end reproductions, not micro
kernels — timing variance across repeats is irrelevant next to the cost.

Run from the repository root (``pytest.ini`` here collects ``bench_*``)::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

``--benchmark-disable`` runs each check once untimed, as CI does; add
``-s`` to see the regenerated tables inline.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single round and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def show(results) -> None:
    """Print one or several TableResults (visible with ``pytest -s``)."""
    from repro.experiments.base import render_results

    print()
    print(render_results(results))

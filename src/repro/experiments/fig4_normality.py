"""Figure 4 — normality of the empirical covariance entries.

Validates the Gaussian assumption of section 6.1 via QQ statistics: across
replicates, ``X-bar_i^(t)`` should be well approximated by a normal
distribution.  Instead of plots we report, per inspected entry, the QQ
correlation coefficient (1.0 = perfectly normal), skewness, excess kurtosis
and the Kolmogorov-Smirnov p-value against the fitted normal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.registry import make_dataset
from repro.experiments.base import TableResult
from repro.experiments.replicates import replicate_covariances, simulation_model

__all__ = ["Config", "run", "PAPER_REFERENCE"]

PAPER_REFERENCE = (
    "Figure 4: QQ-plots hug the diagonal; simulation entries are virtually "
    "exactly normal, gisette entries slightly right-skewed but close."
)


@dataclass
class Config:
    dim: int = 60
    num_replicates: int = 600
    t: int = 150
    num_entries: int = 4  # entries inspected per source, like the paper's 4 panels
    gisette_samples: int = 1500
    seed: int = 0


def _qq_stats(values: np.ndarray) -> tuple[float, float, float, float]:
    """(QQ correlation, skewness, excess kurtosis, KS p-value)."""
    from scipy import stats

    values = np.sort(values)
    n = values.size
    theoretical = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    qq_corr = float(np.corrcoef(theoretical, values)[0, 1])
    skew = float(stats.skew(values))
    kurt = float(stats.kurtosis(values))
    mean, std = values.mean(), values.std()
    ks = stats.kstest(values, "norm", args=(mean, max(std, 1e-12)))
    return qq_corr, skew, kurt, float(ks.pvalue)


def run(config: Config = Config()) -> TableResult:
    rng = np.random.default_rng(config.seed)
    table = TableResult(
        title="Figure 4 - normality diagnostics of empirical covariance entries",
        columns=("source", "entry", "qq_corr", "skewness", "excess_kurtosis", "ks_pvalue"),
    )
    p = config.dim * (config.dim - 1) // 2
    keys = rng.choice(p, size=config.num_entries, replace=False)

    model = simulation_model(config.dim, seed=config.seed)
    sim = replicate_covariances(
        model, config.num_replicates, config.t, seed=config.seed + 1, pair_keys=keys
    )
    for col, key in enumerate(keys):
        table.add_row("simulation", int(key), *_qq_stats(sim[:, col]))

    dataset = make_dataset(
        "gisette", d=config.dim, n=config.gisette_samples, seed=config.seed + 2
    )
    gis = replicate_covariances(
        dataset.dense(),
        config.num_replicates,
        config.t,
        seed=config.seed + 3,
        pair_keys=keys,
    )
    for col, key in enumerate(keys):
        table.add_row("gisette", int(key), *_qq_stats(gis[:, col]))

    table.notes.append(
        f"{config.num_replicates} replicates, t={config.t}; qq_corr near 1 "
        "means the QQ plot hugs the diagonal"
    )
    return table

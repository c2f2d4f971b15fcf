"""Closed-form bounds from the paper (Theorems 1-3 and supporting terms).

Everything is expressed through a :class:`ProblemModel` carrying the
distributional parameters of section 6.1:

* ``p`` variables, a fraction ``alpha`` of which are signals with common
  mean ``u > 0``;
* every variable's sample mean is Gaussian with variance ``sigma^2 / t``;
* a count sketch with ``K`` tables of ``R`` buckets ingests the stream of
  length ``T``, scaled by ``1/T``.

For ``K = 1`` the formulas are the exact statements of Theorems 1 and 2.
For ``K > 1`` we use the closed-form approximations the paper derives by
replacing the median of ``K`` normals with its asymptotic distribution:
``kappa0 -> kappa`` (a ``pi/2K`` collision-variance factor) and
``p0 -> p0^K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "ProblemModel",
    "collision_free_probability",
    "saturation_probability",
    "collision_inflation",
    "theorem1_miss_probability",
    "omega_squared",
    "theorem2_escape_probability",
    "snr_count_sketch",
    "theorem3_snr_lower_bound",
    "theorem3_snr_ratio",
]


@dataclass(frozen=True)
class ProblemModel:
    """Distributional and sketch parameters shared by all bounds.

    Attributes
    ----------
    p:
        Number of stream variables (covariance entries), ``d(d-1)/2``.
    alpha:
        Fraction of signal variables (``P[mu_i != 0]``).
    u:
        Signal strength — common (or lower-bound) mean of signal variables.
    sigma:
        Per-sample standard deviation of each variable (or the average
        relaxation of section 7.2).
    T:
        Total number of stream samples.
    num_tables:
        ``K`` hash tables in the sketch.
    num_buckets:
        ``R`` buckets per table.
    """

    p: int
    alpha: float
    u: float
    sigma: float
    T: int
    num_tables: int
    num_buckets: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.u <= 0.0:
            raise ValueError(f"u must be positive, got {self.u}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.num_tables < 1:
            raise ValueError(f"num_tables must be >= 1, got {self.num_tables}")
        if self.num_buckets <= self.alpha:
            raise ValueError("num_buckets must exceed alpha")

    def with_(self, **kwargs) -> "ProblemModel":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)


def collision_free_probability(model: ProblemModel) -> float:
    """``p0 = ((R - alpha)/R)^(p-1)`` — probability that a given variable
    shares its bucket with no *signal* variable (one table).

    Computed in log space: at trillion scale ``p0`` underflows otherwise.
    """
    return math.exp((model.p - 1) * math.log1p(-model.alpha / model.num_buckets))


def saturation_probability(model: ProblemModel) -> float:
    """``SP = 1 - p0^K`` — the floor of the Theorem-1 bound.

    Below this probability no choice of ``T0`` can push the bound; the
    planner's ``delta`` must exceed it (section 6.4).
    """
    p0 = collision_free_probability(model)
    return 1.0 - p0**model.num_tables


def collision_inflation(model: ProblemModel) -> float:
    """Std-inflation factor from hash collisions.

    ``kappa0 = sqrt(1 + (p-1)(1-alpha)/(R-alpha))`` for ``K = 1`` (exact,
    Theorem 1) and ``kappa = sqrt(1 + pi (p-1)(1-alpha) / (2K (R-alpha)))``
    for ``K > 1`` (median-of-normals approximation).
    """
    ratio = (model.p - 1) * (1.0 - model.alpha) / (model.num_buckets - model.alpha)
    if model.num_tables == 1:
        return math.sqrt(1.0 + ratio)
    return math.sqrt(1.0 + math.pi * ratio / (2.0 * model.num_tables))


def theorem1_miss_probability(model: ProblemModel, t0: float, tau0: float) -> float:
    """Theorem 1: probability a signal's estimate falls below ``tau0`` at the
    end of an exploration period of length ``t0``.

    ``P <= Phi(-(sqrt(t0) u - T tau0 / sqrt(t0)) / (kappa sigma)) p0^K
    + (1 - p0^K)``.
    """
    if t0 <= 0:
        return 1.0
    from scipy.special import ndtr

    p0_k = collision_free_probability(model) ** model.num_tables
    kappa = collision_inflation(model)
    z = -(math.sqrt(t0) * model.u - model.T * tau0 / math.sqrt(t0)) / (
        kappa * model.sigma
    )
    return float(ndtr(z) * p0_k + (1.0 - p0_k))


def omega_squared(model: ProblemModel) -> float:
    """The ``omega^2`` (``K = 1``) / ``omega_1^2`` (``K > 1``) variance term
    of Theorem 2, implemented exactly as printed in the paper.

    ``K = 1``:  ``sigma^2 (1 + (p-1)(1-alpha) / (T^2 (R-alpha)))``
    ``K > 1``:  ``sigma^2 (1 + pi (p-1)(1-alpha) / (2 K T^2 (R-alpha)))``
    """
    ratio = (model.p - 1) * (1.0 - model.alpha) / (model.num_buckets - model.alpha)
    t_sq = float(model.T) ** 2
    if model.num_tables == 1:
        return model.sigma**2 * (1.0 + ratio / t_sq)
    return model.sigma**2 * (
        1.0 + math.pi * ratio / (2.0 * model.num_tables * t_sq)
    )


def theorem2_escape_probability(
    model: ProblemModel, t0: float, tau0: float, theta: float
) -> float:
    """Theorem 2: probability that a signal that survived exploration is
    filtered at some point of the sampling period, under the linear schedule
    ``tau(t) = tau0 + theta (t - T0) / T``.

    ``P <= exp((u - theta)(tau0 - T0 theta / T) / omega^2)
          * Phi((T0 (2 theta - u) - tau0 T) / (sqrt(T0) omega))``,
    clipped to [0, 1].
    """
    if not 0.0 <= theta < model.u:
        raise ValueError(f"theta must be in [0, u={model.u}), got {theta}")
    if t0 <= 0:
        return 1.0
    from scipy.special import log_ndtr

    om2 = omega_squared(model)
    om = math.sqrt(om2)
    log_factor = (model.u - theta) * (tau0 - t0 * theta / model.T) / om2
    z = (t0 * (2.0 * theta - model.u) - tau0 * model.T) / (math.sqrt(t0) * om)
    # Multiply in log space; the exp factor can overflow for aggressive
    # schedules before the clip.
    log_phi = log_ndtr(z)
    value = math.exp(min(log_factor + log_phi, 0.0))
    return float(min(max(value, 0.0), 1.0))


def snr_count_sketch(model: ProblemModel) -> float:
    """SNR of the raw stream — what vanilla CS ingests (section 7.1):
    ``alpha (u^2 + sigma^2) / ((1 - alpha) sigma^2)``."""
    return (
        model.alpha
        * (model.u**2 + model.sigma**2)
        / ((1.0 - model.alpha) * model.sigma**2)
    )


def theorem3_snr_ratio(
    model: ProblemModel, t: float, t0: float, theta: float, delta_star: float
) -> float:
    """Theorem 3: lower bound on ``SNR_ASCS(t) / SNR_CS``.

    ``ratio >= (1 - delta*) / (Phi(-theta (sqrt(t) - sqrt(T0)) / (kappa
    sigma)) p0^K + 1 - p0^K)``.
    """
    if t < t0:
        raise ValueError(f"t={t} must be >= t0={t0}")
    if not 0.0 < delta_star < 1.0:
        raise ValueError(f"delta_star must be in (0, 1), got {delta_star}")
    from scipy.special import ndtr

    p0_k = collision_free_probability(model) ** model.num_tables
    kappa = collision_inflation(model)
    z = -theta * (math.sqrt(t) - math.sqrt(t0)) / (kappa * model.sigma)
    noise_fraction = float(ndtr(z)) * p0_k + (1.0 - p0_k)
    return (1.0 - delta_star) / noise_fraction


def theorem3_snr_lower_bound(
    model: ProblemModel, t: float, t0: float, theta: float, delta_star: float
) -> float:
    """Absolute SNR lower bound for ASCS at time ``t`` (ratio x SNR_CS)."""
    return theorem3_snr_ratio(model, t, t0, theta, delta_star) * snr_count_sketch(
        model
    )

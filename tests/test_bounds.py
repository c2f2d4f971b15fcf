"""Tests for the theory bounds (repro.theory.bounds)."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from repro.theory.bounds import (
    ProblemModel,
    collision_free_probability,
    collision_inflation,
    omega_squared,
    saturation_probability,
    snr_count_sketch,
    theorem1_miss_probability,
    theorem2_escape_probability,
    theorem3_snr_lower_bound,
    theorem3_snr_ratio,
)


def model(**overrides) -> ProblemModel:
    base = dict(
        p=499_500,
        alpha=0.005,
        u=0.5,
        sigma=1.0,
        T=6000,
        num_tables=5,
        num_buckets=24_975,
    )
    base.update(overrides)
    return ProblemModel(**base)


class TestProblemModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            model(alpha=0.0)
        with pytest.raises(ValueError):
            model(alpha=1.0)
        with pytest.raises(ValueError):
            model(u=0.0)
        with pytest.raises(ValueError):
            model(sigma=-1.0)
        with pytest.raises(ValueError):
            model(T=0)
        with pytest.raises(ValueError):
            model(num_tables=0)
        with pytest.raises(ValueError):
            model(p=0)

    def test_with_(self):
        m = model().with_(u=0.9)
        assert m.u == 0.9 and m.p == 499_500


class TestCollisionTerms:
    def test_p0_formula(self):
        m = model()
        expected = math.exp((m.p - 1) * math.log1p(-m.alpha / m.num_buckets))
        assert collision_free_probability(m) == pytest.approx(expected)

    def test_p0_no_underflow_at_trillion_scale(self):
        m = model(p=10**14, num_buckets=10**8, alpha=1e-7)
        p0 = collision_free_probability(m)
        assert 0.0 <= p0 <= 1.0

    def test_saturation_between_0_and_1(self):
        assert 0.0 < saturation_probability(model()) < 1.0

    def test_saturation_grows_with_tables(self):
        assert saturation_probability(model(num_tables=10)) > saturation_probability(
            model(num_tables=1)
        )

    def test_kappa_single_table_exact_form(self):
        m = model(num_tables=1)
        expected = math.sqrt(
            1.0 + (m.p - 1) * (1 - m.alpha) / (m.num_buckets - m.alpha)
        )
        assert collision_inflation(m) == pytest.approx(expected)

    def test_kappa_multi_table_smaller(self):
        # More tables -> median shrinks the collision noise.
        assert collision_inflation(model(num_tables=5)) < collision_inflation(
            model(num_tables=1)
        )

    def test_kappa_decreases_with_buckets(self):
        assert collision_inflation(model(num_buckets=10**6)) < collision_inflation(
            model(num_buckets=10**4)
        )


class TestTheorem1:
    def test_in_unit_interval(self):
        for t0 in (10, 100, 1000, 6000):
            v = theorem1_miss_probability(model(), t0, 1e-4)
            assert 0.0 <= v <= 1.0

    def test_decreasing_in_t0(self):
        m = model()
        values = [
            theorem1_miss_probability(m, t0, 1e-4) for t0 in (50, 200, 1000, 5000)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_decreasing_in_u(self):
        assert theorem1_miss_probability(
            model(u=1.0), 500, 1e-4
        ) <= theorem1_miss_probability(model(u=0.2), 500, 1e-4)

    def test_floor_is_saturation(self):
        m = model()
        floor = saturation_probability(m) - 1e-12
        assert theorem1_miss_probability(m, m.T, 0.0) >= floor

    def test_zero_t0_is_certain_miss(self):
        assert theorem1_miss_probability(model(), 0, 1e-4) == 1.0

    def test_increasing_in_tau0(self):
        m = model()
        assert theorem1_miss_probability(m, 500, 1e-2) >= theorem1_miss_probability(
            m, 500, 1e-5
        )


class TestTheorem2:
    def test_in_unit_interval(self):
        m = model()
        for theta in (0.01, 0.1, 0.3, 0.49):
            v = theorem2_escape_probability(m, 600, 1e-4, theta)
            assert 0.0 <= v <= 1.0

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            theorem2_escape_probability(model(), 600, 1e-4, 0.6)
        with pytest.raises(ValueError):
            theorem2_escape_probability(model(), 600, 1e-4, -0.1)

    def test_small_theta_low_risk(self):
        # A barely-rising threshold rarely filters a signal.
        v = theorem2_escape_probability(model(), 600, 0.0, 1e-6)
        assert v < 0.05

    def test_aggressive_theta_higher_risk(self):
        m = model()
        gentle = theorem2_escape_probability(m, 600, 0.0, 0.05)
        aggressive = theorem2_escape_probability(m, 600, 0.0, 0.49)
        assert aggressive >= gentle

    def test_omega_k1_vs_k5(self):
        assert omega_squared(model(num_tables=5)) <= omega_squared(model(num_tables=1))


class TestTheorem3:
    def test_snr_cs_formula(self):
        m = model()
        expected = m.alpha * (m.u**2 + m.sigma**2) / ((1 - m.alpha) * m.sigma**2)
        assert snr_count_sketch(m) == pytest.approx(expected)

    def test_ratio_grows_with_t(self):
        m = model()
        r1 = theorem3_snr_ratio(m, 1000, 600, 0.2, 0.2)
        r2 = theorem3_snr_ratio(m, 5000, 600, 0.2, 0.2)
        assert r2 >= r1

    def test_ratio_at_t0(self):
        # At t = T0 the Phi term is Phi(0) = 1/2, so the denominator is
        # 0.5 p0^K + (1 - p0^K).
        m = model()
        p0k = collision_free_probability(m) ** m.num_tables
        expected = (1 - 0.2) / (0.5 * p0k + (1 - p0k))
        r = theorem3_snr_ratio(m, 600, 600, 0.2, 0.2)
        assert r == pytest.approx(expected, rel=1e-6)

    def test_plateau_value(self):
        # As t -> inf the ratio approaches (1-delta*)/(1-p0^K).
        m = model()
        p0k = collision_free_probability(m) ** m.num_tables
        limit = (1 - 0.2) / (1 - p0k)
        r = theorem3_snr_ratio(m, 10**9, 600, 0.2, 0.2)
        assert r == pytest.approx(limit, rel=1e-3)

    def test_lower_bound_is_ratio_times_cs(self):
        m = model()
        assert theorem3_snr_lower_bound(m, 2000, 600, 0.2, 0.2) == pytest.approx(
            theorem3_snr_ratio(m, 2000, 600, 0.2, 0.2) * snr_count_sketch(m)
        )

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            theorem3_snr_ratio(model(), 100, 600, 0.2, 0.2)  # t < t0
        with pytest.raises(ValueError):
            theorem3_snr_ratio(model(), 1000, 600, 0.2, 1.5)


class TestBoundProperties:
    @given(
        st.integers(min_value=100, max_value=10**7),
        st.floats(min_value=1e-4, max_value=0.2),
        st.floats(min_value=0.05, max_value=2.0),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_probabilities_valid(self, p, alpha, u, k):
        m = ProblemModel(
            p=p, alpha=alpha, u=u, sigma=1.0, T=2000, num_tables=k,
            num_buckets=max(2, p // 20),
        )
        assert 0.0 <= theorem1_miss_probability(m, 200, 1e-4) <= 1.0
        assert 0.0 <= theorem2_escape_probability(m, 200, 1e-4, u * 0.5) <= 1.0
        assert 0.0 <= saturation_probability(m) <= 1.0
        assert theorem3_snr_ratio(m, 500, 200, u * 0.5, 0.5) > 0.0


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


class TestPhiMatchesScipyStats:
    """The bounds evaluate the normal CDF with scipy.special's ``ndtr`` and
    ``log_ndtr``, the ufuncs ``scipy.stats.norm.cdf`` and ``logcdf`` reduce
    to: each theorem equals its formula evaluated with ``scipy.stats.norm``,
    bit for bit, for ``z`` out to +-40, +-inf and NaN.  Each case picks the
    input that puts the theorem's ``z`` near a grid point."""

    Z = [float(z) for z in np.linspace(-40.0, 40.0, 321)]
    Z += [math.inf, -math.inf, math.nan]

    def test_ndtr_and_log_ndtr_are_norm_cdf_and_logcdf(self):
        """Bit for bit, but for the sign of log Phi(+inf): ``log_ndtr``
        gives -0.0 where ``norm.logcdf`` gives +0.0.  Theorem 2 adds it to
        a log factor, ``x + -0.0`` and ``x + 0.0`` differ only for
        ``x = -0.0``, and ``exp`` reads 1.0 for either zero, so its result
        does not see the sign."""
        for z in self.Z:
            assert _bits(ndtr(z)) == _bits(norm.cdf(z))
            if z == math.inf:
                assert log_ndtr(z) == norm.logcdf(z) == 0.0
            else:
                assert _bits(log_ndtr(z)) == _bits(norm.logcdf(z))

    def test_theorem1(self):
        m, t0 = model(), 600
        kappa = collision_inflation(m)
        p0_k = collision_free_probability(m) ** m.num_tables
        for target in self.Z:
            tau0 = (target * kappa * m.sigma + math.sqrt(t0) * m.u) * math.sqrt(t0)
            tau0 /= m.T
            z = -(math.sqrt(t0) * m.u - m.T * tau0 / math.sqrt(t0)) / (kappa * m.sigma)
            expected = float(norm.cdf(z) * p0_k + (1.0 - p0_k))
            assert _bits(theorem1_miss_probability(m, t0, tau0)) == _bits(expected)

    def test_theorem2(self):
        m, t0, theta = model(), 600, 0.2
        om2 = omega_squared(m)
        om = math.sqrt(om2)
        for target in self.Z:
            tau0 = (t0 * (2.0 * theta - m.u) - target * math.sqrt(t0) * om) / m.T
            if tau0 == math.inf:
                # The bound's limit; the formula's log-space sum reads
                # inf - inf there, a NaN with a RuntimeWarning.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert theorem2_escape_probability(m, t0, tau0, theta) == 0.0
                continue
            log_factor = (m.u - theta) * (tau0 - t0 * theta / m.T) / om2
            z = (t0 * (2.0 * theta - m.u) - tau0 * m.T) / (math.sqrt(t0) * om)
            value = math.exp(min(log_factor + norm.logcdf(z), 0.0))
            expected = float(min(max(value, 0.0), 1.0))
            got = theorem2_escape_probability(m, t0, tau0, theta)
            assert _bits(got) == _bits(expected)

    def test_theorem3(self):
        m, t, t0, delta_star = model(), 2000, 600, 0.2
        kappa = collision_inflation(m)
        p0_k = collision_free_probability(m) ** m.num_tables
        for target in self.Z:
            theta = -target * kappa * m.sigma / (math.sqrt(t) - math.sqrt(t0))
            z = -theta * (math.sqrt(t) - math.sqrt(t0)) / (kappa * m.sigma)
            noise_fraction = float(norm.cdf(z)) * p0_k + (1.0 - p0_k)
            expected = (1.0 - delta_star) / noise_fraction
            got = theorem3_snr_ratio(m, t, t0, theta, delta_star)
            assert _bits(got) == _bits(expected)

"""Tests for Algorithm 3 (repro.theory.planner)."""

import pytest

from repro.theory.bounds import (
    ProblemModel,
    saturation_probability,
    theorem1_miss_probability,
    theorem2_escape_probability,
)
from repro.theory.planner import (
    ASCSPlan,
    find_exploration_length,
    find_threshold_slope,
    plan_hyperparameters,
)


def easy_model(**overrides) -> ProblemModel:
    """A regime where the bounds are comfortably satisfiable."""
    base = dict(
        p=20_000, alpha=0.002, u=0.8, sigma=1.0, T=5000, num_tables=5,
        num_buckets=8_000,
    )
    base.update(overrides)
    return ProblemModel(**base)


def saturated_model() -> ProblemModel:
    """A regime where signal collisions saturate the Theorem-1 bound."""
    return ProblemModel(
        p=500_000, alpha=0.01, u=0.3, sigma=1.0, T=2000, num_tables=5,
        num_buckets=500,
    )


class TestFindExplorationLength:
    def test_result_satisfies_bound(self):
        m = easy_model()
        t0 = find_exploration_length(m, 1e-4, 0.1)
        assert t0 is not None
        assert theorem1_miss_probability(m, t0, 1e-4) <= 0.1

    def test_result_is_minimal(self):
        m = easy_model()
        t0 = find_exploration_length(m, 1e-4, 0.1, gamma=1)
        if t0 > 1:
            assert theorem1_miss_probability(m, t0 - 1, 1e-4) > 0.1

    def test_matches_brute_force(self):
        m = easy_model(T=600)
        delta = 0.2
        t0 = find_exploration_length(m, 1e-4, delta, gamma=1)
        brute = next(
            t for t in range(1, m.T + 1)
            if theorem1_miss_probability(m, t, 1e-4) <= delta
        )
        assert t0 == brute

    def test_infeasible_returns_none(self):
        assert find_exploration_length(saturated_model(), 1e-4, 0.05) is None

    def test_respects_gamma_floor(self):
        m = easy_model(u=5.0)  # very strong signal: tiny T0 would suffice
        t0 = find_exploration_length(m, 1e-4, 0.2, gamma=50)
        assert t0 >= 50

    def test_validates_delta(self):
        with pytest.raises(ValueError):
            find_exploration_length(easy_model(), 1e-4, 0.0)


class TestFindThresholdSlope:
    def test_result_satisfies_bound(self):
        m = easy_model()
        theta = find_threshold_slope(m, 500, 1e-4, 0.1)
        assert theta is not None
        assert 0 < theta < m.u
        assert theorem2_escape_probability(m, 500, 1e-4, theta) <= 0.1 + 1e-9

    def test_result_is_near_maximal(self):
        m = easy_model()
        theta = find_threshold_slope(m, 500, 1e-4, 0.1)
        # Slightly larger theta must violate the budget (or hit u).
        step = m.u / 1024
        if theta + step < m.u:
            assert (
                theorem2_escape_probability(m, 500, 1e-4, theta + step) > 0.1 - 1e-6
            )

    def test_zero_budget_returns_none(self):
        assert find_threshold_slope(easy_model(), 500, 1e-4, 0.0) is None

    def test_larger_budget_larger_theta(self):
        m = easy_model()
        small = find_threshold_slope(m, 500, 1e-4, 0.05)
        large = find_threshold_slope(m, 500, 1e-4, 0.3)
        assert large >= small


class TestPlanHyperparameters:
    def test_easy_regime_no_fallback(self):
        plan = plan_hyperparameters(easy_model())
        assert isinstance(plan, ASCSPlan)
        assert not plan.used_fallback
        assert 0 < plan.exploration_length < easy_model().T
        assert 0 < plan.theta < easy_model().u

    def test_section81_default_budgets(self):
        m = easy_model()
        plan = plan_hyperparameters(m)
        sp = saturation_probability(m)
        assert plan.delta == pytest.approx(min(max(1.01 * sp, 0.05), 0.5))
        assert plan.delta_star == pytest.approx(min(plan.delta + 0.15, 0.95))

    def test_saturated_regime_uses_fallback(self):
        plan = plan_hyperparameters(saturated_model())
        assert plan.used_fallback
        assert plan.exploration_length >= 1
        assert plan.theta > 0

    def test_explicit_budgets_respected(self):
        plan = plan_hyperparameters(easy_model(), delta=0.07, delta_star=0.22)
        assert plan.delta == 0.07
        assert plan.delta_star == 0.22

    def test_invalid_budgets(self):
        with pytest.raises(ValueError, match="delta"):
            plan_hyperparameters(easy_model(), delta=0.3, delta_star=0.2)

    def test_threshold_at(self):
        plan = plan_hyperparameters(easy_model())
        T = easy_model().T
        t0 = plan.exploration_length
        assert plan.threshold_at(t0 - 1, T) == 0.0
        assert plan.threshold_at(t0, T) == pytest.approx(plan.tau0)
        ramp = plan.threshold_at(T, T)
        assert ramp == pytest.approx(plan.tau0 + plan.theta * (T - t0) / T)

    def test_plan_theta_below_u(self):
        for u in (0.1, 0.5, 1.0, 3.0):
            plan = plan_hyperparameters(easy_model(u=u))
            assert plan.theta < u


def narrow_model(sigma: float) -> ProblemModel:
    """The model the ``ingest_narrow`` pilot resolves (d = 10^6, R = 2^15)."""
    return ProblemModel(
        p=499_999_500_000,
        alpha=1.5000015000015e-09,
        u=0.009025,
        sigma=sigma,
        T=8192,
        num_tables=5,
        num_buckets=32_768,
    )


#: Algorithm 3's ``(T0, tau0, theta)`` on pinned models, as computed when
#: the bounds evaluated the normal CDF through ``scipy.stats.norm``.  The
#: narrow models are the pilot's at seeds 0 and 7.
PINNED_PLANS = [
    (saturated_model(), (200, 0.0001, 0.11390292663288762)),
    (
        easy_model(p=499_500, alpha=0.005, u=0.5, T=6000, num_buckets=24_975),
        (182, 0.0001, 0.21327912926947112),
    ),
    (narrow_model(4.240674236877667e-05), (1148, 0.0001, 0.009021860457308458)),
    (narrow_model(4.242695841144873e-05), (1149, 0.0001, 0.009021860432939809)),
]


@pytest.mark.parametrize("model, expected", PINNED_PLANS)
def test_pinned_plans_are_repr_equal(model, expected):
    plan = plan_hyperparameters(model)
    assert repr((plan.exploration_length, plan.tau0, plan.theta)) == repr(expected)

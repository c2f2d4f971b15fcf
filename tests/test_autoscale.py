"""Planner-loop closure: replan() decisions, validation sweep, the
AutoScaler, and history-preserving serving migration.

Covers this PR's bugfix satellites too: non-finite planner inputs are
rejected, and probe state is reset (not blended) across engine swaps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoscale import AutoScaler, plan_from_spec
from repro.autoscale.scaler import observed_saturation
from repro.distributed.shard import ShardSpec, spec_with
from repro.obs.probe import AccuracyProbe
from repro.serving import ServingEstimator
from repro.sketch.planner import ObservedSignals, Replan, plan, replan
from repro.streaming import PaneRing

DIM = 300
BATCH = 8

NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _spec(**overrides) -> ShardSpec:
    base = dict(
        dim=DIM,
        total_samples=100_000,
        batch_size=BATCH,
        num_tables=3,
        num_buckets=128,
        seed=13,
        mode="covariance",
        track_top=64,
    )
    base.update(overrides)
    return ShardSpec(**base)


def _integer_stream(rng, n, nnz=6):
    out = []
    for _ in range(n):
        idx = np.sort(rng.choice(DIM, size=nnz, replace=False)).astype(np.int64)
        val = rng.integers(-3, 4, size=nnz).astype(np.float64)
        out.append((idx, val))
    return out


# ----------------------------------------------------------------------
# Satellite: non-finite planner inputs
# ----------------------------------------------------------------------
class TestPlanValidation:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "knob", ["budget_mb", "value_range", "target_f1", "headroom"]
    )
    def test_non_finite_knobs_rejected(self, knob, bad):
        kwargs = {"budget_mb": 1.0, knob: bad}
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            plan(1000, **kwargs)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_quantization_tolerance_rejected(self, bad):
        with pytest.raises(
            ValueError, match="quantization_tolerance must be finite"
        ):
            plan(1000, 1.0, quantization_tolerance=bad)

    def test_nan_budget_cannot_poison_quantum(self):
        # The original bug: NaN <= 0 is False, so a NaN budget sailed past
        # the ordering check and produced a NaN quantum downstream.
        with pytest.raises(ValueError):
            plan(1000, float("nan"))
        # Finite inputs still produce a finite plan + quantum.
        p = plan(1000, 1.0)
        assert np.isfinite(p.budget_bytes)
        assert p.quantum is None or np.isfinite(p.quantum)

    def test_valid_plans_unchanged(self):
        p = plan(1000, 1.0, target_f1=0.9)
        assert p.num_buckets >= 16
        q = plan(1000, 1.0, quantization_tolerance=0.0)
        assert q.storage in ("float32", "float64")


# ----------------------------------------------------------------------
# replan(): the pure decision function
# ----------------------------------------------------------------------
class TestReplan:
    def setup_method(self):
        self.plan = plan(DIM, 0.25)

    def test_hold_when_no_signals(self):
        decision = replan(self.plan, ObservedSignals())
        assert decision.action == "hold"
        assert not decision.changed
        assert decision.plan == self.plan

    def test_collision_trigger_grows_budget(self):
        decision = replan(
            self.plan,
            ObservedSignals(collision_energy=1.0),
            collision_ceiling=0.5,
        )
        assert decision.action == "grow"
        assert decision.plan.budget_bytes == 2 * self.plan.budget_bytes
        assert decision.plan.num_buckets > self.plan.num_buckets
        assert "collision" in decision.reason

    def test_rosnr_floor_grows(self):
        decision = replan(
            self.plan, ObservedSignals(rosnr=0.4), rosnr_floor=0.8
        )
        assert decision.action == "grow"

    def test_saturation_trigger_outranks_collision(self):
        decision = replan(
            self.plan,
            ObservedSignals(collision_energy=1.0, saturation=0.99),
            collision_ceiling=0.5,
            saturation_ceiling=0.85,
        )
        assert decision.action == "grow"
        assert "saturation" in decision.reason

    def test_churn_escalates_decay_not_budget(self):
        decision = replan(self.plan, ObservedSignals(topk_churn=0.9))
        assert decision.action == "escalate_decay"
        assert decision.window_scale == 0.5
        assert decision.plan == self.plan  # same sketch, smaller window

    def test_demote_quiet_float_regime(self):
        float_plan = plan(DIM, 0.25, storage="float64")
        decision = replan(
            float_plan,
            ObservedSignals(collision_energy=1e-9),
            demote_collision_floor=1e-3,
        )
        assert decision.action == "demote"
        assert decision.plan.storage == "int16"
        assert decision.plan.budget_bytes < float_plan.budget_bytes

    def test_demote_never_fires_on_quantized_storage(self):
        int_plan = plan(DIM, 0.25, storage="int16")
        decision = replan(
            int_plan,
            ObservedSignals(collision_energy=1e-9),
            demote_collision_floor=1e-3,
        )
        assert decision.action == "hold"

    def test_budget_cap_turns_grow_into_hold(self):
        decision = replan(
            self.plan,
            ObservedSignals(collision_energy=1.0),
            collision_ceiling=0.5,
            max_budget_bytes=self.plan.budget_bytes,
        )
        assert decision.action == "hold"
        assert "cap" in decision.reason

    def test_budget_cap_clamps_partial_growth(self):
        cap = int(1.5 * self.plan.budget_bytes)
        decision = replan(
            self.plan,
            ObservedSignals(collision_energy=1.0),
            collision_ceiling=0.5,
            max_budget_bytes=cap,
        )
        assert decision.action == "grow"
        assert decision.plan.budget_bytes <= cap

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_thresholds_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            replan(
                self.plan, ObservedSignals(), collision_ceiling=bad
            )

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_observations_are_missing_not_triggers(self, bad):
        decision = replan(
            self.plan,
            ObservedSignals(
                collision_energy=bad, rosnr=bad, topk_churn=bad, saturation=bad
            ),
            collision_ceiling=0.5,
            rosnr_floor=0.8,
        )
        assert decision.action == "hold"

    def test_growth_factor_validated(self):
        with pytest.raises(ValueError, match="growth"):
            replan(self.plan, ObservedSignals(), growth=1.0)
        with pytest.raises(ValueError, match="window_shrink"):
            replan(self.plan, ObservedSignals(), window_shrink=1.0)

    def test_replan_is_a_replan_dataclass(self):
        decision = replan(self.plan, ObservedSignals())
        assert isinstance(decision, Replan)


class TestPlanFromSpec:
    def test_round_trips_geometry(self):
        spec = _spec(storage="int16", quantum=0.01)
        p = plan_from_spec(spec)
        assert p.num_tables == spec.num_tables
        assert p.num_buckets == spec.num_buckets
        assert p.storage == "int16"
        assert p.quantum == spec.quantum
        assert p.budget_bytes == 3 * 128 * 2

    def test_float_spec(self):
        p = plan_from_spec(_spec())
        assert p.storage == "float64"
        assert p.quantum is None
        assert p.quantization_step_rel == 0.0


# ----------------------------------------------------------------------
# Satellite: probe reset seam
# ----------------------------------------------------------------------
class TestProbeReset:
    def _loaded_probe(self):
        probe = AccuracyProbe(
            [1, 2, 3], key_space=10_000, window=4, seed=3
        )
        keys = np.arange(20, dtype=np.int64)
        values = np.ones(20)
        mask = np.ones(20, dtype=bool)
        for t in range(8):
            probe(t, keys, values, mask)
        probe.flush()
        probe.sample(lambda k: np.ones(len(k)), top_keys=[1, 2, 3])
        return probe

    def test_reset_clears_accumulated_state(self):
        probe = self._loaded_probe()
        assert probe._reservoir_fill > 0
        assert probe._points_consumed > 0
        assert probe._last_top is not None
        baseline = probe.baseline_snr
        probe.reset()
        assert probe._reservoir_fill == 0
        assert probe._noise_seen == 0
        assert probe._points_consumed == 0
        assert probe._last_top is None
        assert probe.recorder.points == []
        # Auto-derived baseline survives a plain reset (comparable ROSNR
        # across the migration) ...
        assert probe.baseline_snr == baseline

    def test_rebaseline_forgets_derived_baseline(self):
        probe = self._loaded_probe()
        probe.reset(rebaseline=True)
        assert probe.baseline_snr is None

    def test_rebaseline_keeps_explicit_baseline(self):
        probe = AccuracyProbe([1], baseline_snr=7.5, key_space=100)
        probe.reset(rebaseline=True)
        assert probe.baseline_snr == 7.5

    def test_reset_probe_measures_only_new_state(self):
        probe = self._loaded_probe()
        probe.reset()
        # First post-reset churn sample has no previous top set: no churn
        # reading (the pre-migration top set must not leak in).
        out = probe.sample(lambda k: np.zeros(len(k)), top_keys=[7, 8, 9])
        assert "topk_churn" not in out
        out = probe.sample(lambda k: np.zeros(len(k)), top_keys=[7, 8, 9])
        assert out["topk_churn"] == 0.0


# ----------------------------------------------------------------------
# Saturation signal
# ----------------------------------------------------------------------
class TestSaturationSignal:
    def test_counter_store_saturation(self):
        from repro.sketch.storage import CounterStore

        store = CounterStore(2, 8, dtype="int16", quantum=1.0)
        assert store.saturation == 0.0
        store.raw[3] = -16384
        assert store.saturation == pytest.approx(16384 / 32767)
        floaty = CounterStore(2, 8, dtype="float64")
        floaty.raw[0] = 1e30
        assert floaty.saturation == 0.0

    def test_sketch_property(self):
        from repro.sketch import CountSketch

        sketch = CountSketch(2, 16, seed=1, dtype="int16", quantum=0.5)
        assert sketch.saturation == 0.0
        sketch.insert([5], [100.0])
        assert 0.0 < sketch.saturation <= 1.0

    def test_observed_saturation_covers_closed_panes(self):
        # Fine quantum: covariance updates are amortised over
        # total_samples, so a coarse step would round them all to zero.
        spec = _spec(storage="int16", quantum=2.0**-20)
        ring = PaneRing(spec, num_panes=3, pane_samples=64, retain_raw=True)
        rng = np.random.default_rng(1)
        ring.ingest(_integer_stream(rng, 160))
        sat = observed_saturation(ring)
        assert sat > 0.0
        # Matches a brute-force max over the retained pane tables.
        tables = [p.table for p in ring.panes()]
        brute = max(
            max(-int(t.min()), int(t.max())) / np.iinfo(np.int16).max
            for t in tables
        )
        assert sat == pytest.approx(brute)


# ----------------------------------------------------------------------
# Migration equivalence: rebuild == from-scratch fit over the window
# ----------------------------------------------------------------------
class TestMigrationEquivalence:
    def _fill(self, ring, batches):
        for b in batches:
            ring.ingest(b)

    def test_wider_rebuild_bit_identical_to_scratch(self):
        spec = _spec()
        rng = np.random.default_rng(7)
        batches = [_integer_stream(rng, 64) for _ in range(6)]
        ring = PaneRing(spec, num_panes=4, pane_samples=64, retain_raw=True)
        self._fill(ring, batches)

        wide = spec_with(spec, num_buckets=512)
        migrated = ring.rebuild(wide)

        reference = PaneRing(
            wide, num_panes=4, pane_samples=64, retain_raw=True
        )
        self._fill(reference, batches)

        got = migrated.window().estimator
        want = reference.window().estimator
        np.testing.assert_array_equal(got.sketch.table, want.sketch.table)
        assert migrated.window_span == reference.window_span
        assert migrated.window_start == reference.window_start
        assert migrated.samples_seen == ring.samples_seen
        assert migrated.rotations == ring.rotations

    def test_rebuild_to_quantized_storage(self):
        spec = _spec()
        rng = np.random.default_rng(8)
        batches = [_integer_stream(rng, 64) for _ in range(5)]
        ring = PaneRing(spec, num_panes=3, pane_samples=64, retain_raw=True)
        self._fill(ring, batches)
        demoted_spec = spec_with(spec, storage="int16", quantum=2.0**-8)
        demoted = ring.rebuild(demoted_spec)
        reference = PaneRing(
            demoted_spec, num_panes=3, pane_samples=64, retain_raw=True
        )
        self._fill(reference, batches)
        np.testing.assert_array_equal(
            demoted.window().estimator.sketch.table,
            reference.window().estimator.sketch.table,
        )

    def test_window_shrink_keeps_newest_panes(self):
        spec = _spec()
        rng = np.random.default_rng(9)
        ring = PaneRing(spec, num_panes=5, pane_samples=64, retain_raw=True)
        self._fill(ring, [_integer_stream(rng, 64) for _ in range(7)])
        shrunk = ring.rebuild(spec, num_panes=3)
        assert shrunk.num_panes == 3
        # Keeps the newest closed panes: window start advances.
        assert shrunk.window_start > ring.window_start
        assert shrunk.window_span < ring.window_span
        # The retained panes are bit-identical to the source ring's newest.
        src = ring.panes()[-3:]
        dst = shrunk.panes()
        for a, b in zip(src, dst):
            np.testing.assert_array_equal(a.table, b.table)
            assert a.start == b.start

    def test_rebuild_requires_retention_contract(self):
        ring = PaneRing(_spec(), num_panes=3, pane_samples=64)
        with pytest.raises(ValueError, match="retain_raw"):
            ring.rebuild(_spec(num_buckets=512))

    def test_raws_survive_save_load(self, tmp_path):
        spec = _spec()
        rng = np.random.default_rng(10)
        batches = [_integer_stream(rng, 64) for _ in range(5)]
        ring = PaneRing(spec, num_panes=3, pane_samples=64, retain_raw=True)
        self._fill(ring, batches)
        ring.save(tmp_path)
        restored = PaneRing.load(tmp_path)
        assert restored.retain_raw
        wide = spec_with(spec, num_buckets=512)
        np.testing.assert_array_equal(
            restored.rebuild(wide).window().estimator.sketch.table,
            ring.rebuild(wide).window().estimator.sketch.table,
        )

    def test_rebuilt_ring_can_migrate_again(self):
        spec = _spec()
        rng = np.random.default_rng(11)
        batches = [_integer_stream(rng, 64) for _ in range(4)]
        ring = PaneRing(spec, num_panes=3, pane_samples=64, retain_raw=True)
        self._fill(ring, batches)
        once = ring.rebuild(spec_with(spec, num_buckets=256))
        twice = once.rebuild(spec_with(spec, num_buckets=512))
        reference = PaneRing(
            spec_with(spec, num_buckets=512),
            num_panes=3,
            pane_samples=64,
            retain_raw=True,
        )
        self._fill(reference, batches)
        np.testing.assert_array_equal(
            twice.window().estimator.sketch.table,
            reference.window().estimator.sketch.table,
        )


# ----------------------------------------------------------------------
# Serving migration + the AutoScaler loop
# ----------------------------------------------------------------------
class TestServingMigration:
    def _stack(self, **autoscale_options):
        spec = _spec()
        options = {"check_every": 512, "cooldown": 1}
        options.update(autoscale_options)
        return ServingEstimator.autoscaled(
            spec,
            num_panes=4,
            pane_samples=256,
            refresh_every=256,
            autoscale_options=options,
        )

    def test_manual_migrate_bumps_version_and_serves(self):
        est = ServingEstimator.windowed(
            _spec(),
            num_panes=3,
            pane_samples=64,
            retain_raw=True,
        )
        rng = np.random.default_rng(3)
        est.ingest_sparse(_integer_stream(rng, 128))
        before = est.query_keys(np.arange(8))
        assert est.config_version == 0
        est.migrate(spec_with(_spec(), num_buckets=512), trigger="manual")
        assert est.config_version == 1
        assert est.migration_count == 1
        assert est.sketcher.spec.num_buckets == 512
        after = est.query_keys(np.arange(8))
        assert after.shape == before.shape
        stats = est.stats()
        assert stats["config_version"] == 1
        assert stats["migrations"]["count"] == 1
        assert stats["migrations"]["last_trigger"] == "manual"

    def test_migrate_accepts_capacity_plan(self):
        est = ServingEstimator.windowed(
            _spec(), num_panes=3, pane_samples=64, retain_raw=True
        )
        rng = np.random.default_rng(4)
        est.ingest_sparse(_integer_stream(rng, 64))
        target = plan(DIM, 0.5, num_tables=3)
        est.migrate(target, trigger="grow")
        assert est.sketcher.spec.num_buckets == target.num_buckets
        assert est.sketcher.spec.storage == target.storage

    def test_migrate_requires_retention(self):
        est = ServingEstimator.windowed(_spec(), num_panes=3, pane_samples=64)
        with pytest.raises(ValueError, match="retain_raw"):
            est.migrate(spec_with(_spec(), num_buckets=512))

    def test_migrate_rejects_plain_sketcher(self):
        est = ServingEstimator.from_spec(_spec())
        with pytest.raises(TypeError, match="history-preserving"):
            est.migrate(spec_with(_spec(), num_buckets=512))

    def test_probe_reset_on_migration(self):
        est = self._stack(collision_ceiling=1e-12)  # always triggers
        rng = np.random.default_rng(5)
        est.ingest_sparse(_integer_stream(rng, 512))
        assert est.migration_count >= 1
        # The probe was reset at the swap: its reservoir refilled only
        # with post-migration traffic (reset zeroes it; the serving loop
        # has not run the ingest observer since — the probe's write-side
        # hook is not auto-wired in this stack).
        assert est.probe._noise_seen == 0

    def test_autoscaler_grows_until_budget_cap(self):
        cap = 3 * 512 * 8  # one doubling from the starting 128 buckets...
        est = self._stack(
            collision_ceiling=1e-12, max_budget_bytes=cap, cooldown=0
        )
        rng = np.random.default_rng(6)
        for _ in range(6):
            est.ingest_sparse(_integer_stream(rng, 512))
        assert est.autoscaler.plan.budget_bytes <= cap
        # Once capped, decisions keep logging as holds.
        actions = [d["action"] for d in est.autoscaler.decisions]
        assert "hold" in actions

    def test_autoscaler_respects_migration_budget(self):
        est = self._stack(
            collision_ceiling=1e-12, max_migrations=1, cooldown=0
        )
        rng = np.random.default_rng(7)
        for _ in range(6):
            est.ingest_sparse(_integer_stream(rng, 512))
        assert est.migration_count == 1
        suppressed = [
            d for d in est.autoscaler.decisions if "budget spent" in d["reason"]
        ]
        assert suppressed

    def test_escalate_decay_shrinks_window(self):
        est = self._stack(churn_ceiling=0.3, check_every=1024)
        rng = np.random.default_rng(8)
        est.ingest_sparse(_integer_stream(rng, 1024))
        # Force a churn reading past the ceiling via two probe samples
        # with disjoint top sets, then step the scaler directly.
        est.probe.sample(est.query_keys, top_keys=[1, 2, 3, 4])
        est.probe.sample(est.query_keys, top_keys=[5, 6, 7, 8])
        signals = est.autoscaler.observe()
        decision = replan(
            est.autoscaler.plan,
            ObservedSignals(topk_churn=1.0),
            churn_ceiling=0.3,
        )
        assert decision.action == "escalate_decay"
        before = est.sketcher.num_panes
        est.autoscaler._execute(decision)
        assert est.sketcher.num_panes == max(2, before // 2)
        assert signals.samples_seen == 1024

    def test_gauge_fns_rebind_to_new_ring(self):
        est = self._stack(collision_ceiling=1e-12)
        rng = np.random.default_rng(9)
        est.ingest_sparse(_integer_stream(rng, 512))
        assert est.migration_count >= 1
        # The ring gauges re-registered on the shared registry must read
        # the *new* ring's state, and the serving gauges must follow the
        # rebound sketcher reference.
        registry = est.registry
        span = registry.get("repro_pane_window_span").value
        assert span == est.sketcher.window_span
        seen = registry.get("repro_serving_write_samples_seen").value
        assert seen == est.sketcher.samples_seen
        version = registry.get("repro_serving_config_version").value
        assert version == est.config_version

    def test_autoscaler_errors_do_not_fail_ingest(self):
        est = self._stack()
        est.autoscaler.step = lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        rng = np.random.default_rng(10)
        est.ingest_sparse(_integer_stream(rng, 2048))  # crosses check_every
        assert est.autoscaler.last_error == "RuntimeError: boom"
        assert est.sketcher.samples_seen == 2048

    def test_decision_log_shape(self):
        est = self._stack()
        rng = np.random.default_rng(11)
        est.ingest_sparse(_integer_stream(rng, 512))
        assert est.autoscaler.decisions
        entry = est.autoscaler.decisions[-1]
        for field in (
            "samples_seen",
            "action",
            "reason",
            "executed",
            "config_version",
            "saturation",
        ):
            assert field in entry
        stats = est.autoscaler.stats()
        assert stats["plan"]["num_buckets"] >= 128
        assert isinstance(stats["decisions"], list)

    def test_stats_exposes_autoscaler(self):
        est = self._stack()
        assert "autoscaler" in est.stats()

    def test_autoscaler_constructor_validation(self):
        est = ServingEstimator.windowed(
            _spec(), num_panes=3, pane_samples=64, retain_raw=True
        )
        with pytest.raises(ValueError, match="check_every"):
            AutoScaler(est, check_every=0)
        with pytest.raises(ValueError, match="min_panes"):
            AutoScaler(est, min_panes=1)

    def test_metrics_registry_counts_migrations(self):
        est = self._stack(collision_ceiling=1e-12)
        rng = np.random.default_rng(12)
        est.ingest_sparse(_integer_stream(rng, 512))
        migrations = est.registry.get(
            "repro_serving_migrations_total", {"trigger": "grow"}
        )
        assert migrations is not None
        assert migrations.value == est.migration_count >= 1
        checks = est.registry.get("repro_autoscale_checks_total")
        assert checks is not None
        assert checks.value >= 1

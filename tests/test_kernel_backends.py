"""Which kernels run: platform detection, eligibility, and what stays out of state.

The compiled (numba) kernels are optional, and the platform alone decides
whether they run.  These tests pin the package's one-shot import state to
simulate numba's presence or absence, so they pass identically whether or
not numba is installed.  Bit-identity of the compiled kernels themselves is
enforced by ``tests/test_fused_kernels.py`` and the conformance suite,
which repeat over the implementations importable in the running process.
"""

import builtins
import io
import json
import logging
import pickle
import types
from pathlib import Path

import numpy as np
import pytest

import repro.sketch.kernels as kernels
from repro.distributed import (
    ShardSpec,
    merge_shard_results,
    sketch_shard,
)
from repro.distributed.shard import (
    extract_shard_result,
    load_shard_result,
    save_shard_result,
    spec_from_arrays,
    spec_to_arrays,
)
from repro.durability import DurableSketcher
from repro.durability.integrity import INTEGRITY_MEMBERS, write_npz
from repro.obs.log import configure
from repro.serving import ServingEstimator
from repro.sketch import (
    CountSketch,
    HierarchicalCountSketch,
    available_backends,
    plan,
    resolve_backend,
    save_sketch,
)
from repro.sketch.serialization import sketch_to_arrays
from repro.sketch.storage import CounterStore
from repro.streaming import PaneRing

#: Stand-in for the compiled module: enough surface for selection logic
#: (never called — eligibility tests stop before any kernel runs).
_FAKE_JIT = types.SimpleNamespace(NUMBA_VERSION="0.0-fake")


@pytest.fixture
def capture_log():
    stream = io.StringIO()
    handler = configure(
        level="info", stream=stream, logger_name="repro.sketch.kernels"
    )
    yield stream
    logging.getLogger("repro.sketch.kernels").removeHandler(handler)


def _force_numba(monkeypatch, module):
    """Pin the one-shot import state: ``module`` (or None for absent)."""
    monkeypatch.setattr(kernels, "_jit_checked", True)
    monkeypatch.setattr(kernels, "_jit_module", module)


def _fail_numba_import(monkeypatch, exc):
    """Re-arm the one-shot import and make it raise ``exc``."""
    real_import = builtins.__import__

    def failing_import(name, globals=None, locals=None, fromlist=(), level=0):
        if name == "repro.sketch.kernels" and "numba_jit" in (fromlist or ()):
            raise exc
        return real_import(name, globals, locals, fromlist, level)

    monkeypatch.setattr(builtins, "__import__", failing_import)
    monkeypatch.setattr(kernels, "_jit_checked", False)
    monkeypatch.setattr(kernels, "_jit_module", None)


class TestResolveBackend:
    def test_default_is_auto(self, monkeypatch):
        _force_numba(monkeypatch, None)
        assert resolve_backend() == "numpy"
        _force_numba(monkeypatch, _FAKE_JIT)
        assert resolve_backend() == "numba"
        # The spelling callers used when the backend was a setting.
        assert resolve_backend("auto") == "numba"

    def test_availability_introspection(self, monkeypatch):
        _force_numba(monkeypatch, None)
        assert not kernels.numba_available()
        assert kernels.numba_version() is None
        assert available_backends() == ("numpy",)
        _force_numba(monkeypatch, _FAKE_JIT)
        assert kernels.numba_available()
        assert kernels.numba_version() == "0.0-fake"
        assert available_backends() == ("numpy", "numba")


class TestFallbackWarning:
    """numba not installed is silent; numba installed but broken warns once."""

    def test_auto_fallback_is_silent(self, monkeypatch, capture_log):
        _fail_numba_import(
            monkeypatch, ModuleNotFoundError("No module named 'numba'", name="numba")
        )
        assert kernels.numba_kernels() is None
        assert resolve_backend() == "numpy"
        assert capture_log.getvalue() == ""

    def test_fires_exactly_once(self, monkeypatch, capture_log):
        exc = ImportError("Numba needs NumPy 2.2 or less. Got NumPy 2.4.")
        _fail_numba_import(monkeypatch, exc)
        assert kernels.numba_kernels() is None
        assert kernels.numba_kernels() is None
        assert resolve_backend() == "numpy"
        lines = capture_log.getvalue().strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["event"] == "kernels.numba_unavailable"
        assert payload["level"] == "warning"
        assert payload["error"] == f"ImportError: {exc}"
        assert payload["using"] == "numpy"

    def test_missing_numba_dependency_warns(self, monkeypatch, capture_log):
        # numba itself is installed, so the operator expects the fast path.
        _fail_numba_import(
            monkeypatch,
            ModuleNotFoundError("No module named 'llvmlite'", name="llvmlite"),
        )
        assert kernels.numba_kernels() is None
        payload = json.loads(capture_log.getvalue().strip())
        assert payload["event"] == "kernels.numba_unavailable"
        assert "llvmlite" in payload["error"]


class TestSketchKnob:
    """Which sketches arm the compiled path, decided when they are built."""

    def test_numpy_backend_never_arms_jit(self, monkeypatch):
        _force_numba(monkeypatch, None)
        assert CountSketch(3, 64)._jit_args is None

    def test_numba_backend_arms_jit_for_eligible_config(self, monkeypatch):
        _force_numba(monkeypatch, _FAKE_JIT)
        assert CountSketch(3, 64)._jit_args is not None

    def test_ineligible_configs_stay_on_numpy_path(self, monkeypatch):
        _force_numba(monkeypatch, _FAKE_JIT)
        # Non-fused hash family: no combined multiply-shift tables.
        assert CountSketch(3, 64, family="polynomial")._jit_args is None
        # Quantized storage: compiled kernels require float64 counters.
        assert CountSketch(3, 64, dtype="int16")._jit_args is None

    def test_copy_preserves_backend(self, monkeypatch):
        _force_numba(monkeypatch, _FAKE_JIT)
        assert CountSketch(3, 64).copy()._jit_args is not None

    def test_jit_target_eligibility(self, monkeypatch, tmp_path):
        _force_numba(monkeypatch, _FAKE_JIT)
        store = CounterStore(3, 64)
        module, flat = kernels.jit_target(store)
        assert module is _FAKE_JIT and flat is store.raw
        assert kernels.jit_target(CounterStore(3, 64, dtype="float32")) is None
        assert kernels.jit_target(CounterStore(3, 64, dtype="int16")) is None
        # A quantized table widened all the way to float64 keeps its quantum.
        widened = CounterStore(3, 64, dtype="float64", quantum=0.5)
        assert kernels.jit_target(widened) is None
        mapped = CounterStore(3, 64)
        mapped.raw = np.memmap(
            tmp_path / "table.bin", dtype=np.float64, mode="w+", shape=(192,)
        )
        assert kernels.jit_target(mapped) is None
        _force_numba(monkeypatch, None)
        assert kernels.jit_target(store) is None

    def test_pickle_drops_no_state_and_survives_numba_loss(self, monkeypatch):
        # The sketch must never hold the (unpicklable) compiled module —
        # only the argument tuple.  A sketch pickled on a numba host must
        # unpickle and keep working on a numpy-only host.
        _force_numba(monkeypatch, _FAKE_JIT)
        sk = CountSketch(3, 64, seed=5)
        clone = pickle.loads(pickle.dumps(sk))
        assert clone._jit_args is not None
        _force_numba(monkeypatch, None)  # "numpy-only host"
        keys = np.arange(50, dtype=np.int64)
        vals = np.linspace(-1, 1, 50)
        clone.insert(keys, vals)
        ref = CountSketch(3, 64, seed=5)
        ref.insert(keys, vals)
        np.testing.assert_array_equal(clone.table, ref.table)


class TestBitIdentityAcrossBackends:
    """Same stream, every importable backend, byte-for-byte equal state.

    Locally this may collapse to numpy-only; in the CI numba leg it is the
    real cross-backend check (the conformance suite extends it to every
    registered sketch kind).
    """

    def test_count_sketch_state_and_queries(self, pin_kernels):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 10**12, size=4000)
        vals = rng.standard_normal(4000)
        probe = rng.integers(0, 10**12, size=512)
        reference = None
        for backend in available_backends():
            pin_kernels(backend)
            sk = CountSketch(5, 1024, seed=3)
            sk.insert(keys, vals)
            sk.insert(keys[:7], vals[:7])  # small batch: the add.at strategy
            est = sk.query(probe)
            live = sk.insert_and_query(keys[:257], vals[:257])
            if reference is None:
                reference = (sk.table.copy(), est, live)
            else:
                np.testing.assert_array_equal(sk.table, reference[0])
                np.testing.assert_array_equal(est, reference[1])
                np.testing.assert_array_equal(live, reference[2])


class TestSnapshotsAreBackendFree:
    def test_backend_not_serialized(self):
        arrays = sketch_to_arrays(CountSketch(3, 64))
        assert not any("backend" in name for name in arrays)
        arrays = spec_to_arrays(ShardSpec(dim=16, total_samples=64))
        assert not any("backend" in name for name in arrays)

    def test_snapshot_files_byte_identical(self, pin_kernels, tmp_path):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 10**9, size=2000)
        vals = rng.standard_normal(2000)
        blobs = []
        for backend in available_backends():
            pin_kernels(backend)
            sk = CountSketch(3, 256, seed=9)
            sk.insert(keys, vals)
            path = tmp_path / f"{backend}.npz"
            save_sketch(sk, path)
            blobs.append(path.read_bytes())
        assert all(blob == blobs[0] for blob in blobs)


#: How older releases stamped the kernel backend into spec files: a
#: ``spec_backend`` member holding one of these values, or (``None``) no
#: member at all in files that predate the compiled kernels.
STAMPS = [None, "auto", "numpy", "numba"]


def _restamp(path, stamp):
    """Rewrite ``path`` (a file, or every ``.npz`` under a directory) as an
    older release wrote it: every file that carries a spec gets a
    ``spec_backend`` member of value ``stamp``, or none for ``None``."""
    path = Path(path)
    for file in [path] if path.is_file() else sorted(path.rglob("*.npz")):
        with np.load(file, allow_pickle=False) as data:
            payload = {
                name: data[name]
                for name in data.files
                if name not in INTEGRITY_MEMBERS
            }
        payload.pop("spec_backend", None)
        if stamp is not None and "spec_dim" in payload:
            payload["spec_backend"] = np.asarray(stamp)
        write_npz(file, payload)


def _samples(dim, count, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            np.sort(rng.choice(dim, size=4, replace=False)).astype(np.int64),
            rng.integers(1, 5, size=4).astype(np.float64),
        )
        for _ in range(count)
    ]


def _batches(dim, count, seed=31):
    samples = _samples(dim, 4 * count, seed)
    return [samples[4 * i : 4 * i + 4] for i in range(count)]


def _assert_same_state(left, right, spec):
    a = extract_shard_result(left, spec)
    b = extract_shard_result(right, spec)
    for name in (
        "table",
        "samples_seen",
        "updates_examined",
        "updates_accepted",
        "tracker_keys",
        "tracker_estimates",
        "moments_count",
        "moments_sum",
        "moments_sumsq",
    ):
        np.testing.assert_array_equal(
            np.asarray(getattr(a, name)), np.asarray(getattr(b, name)), err_msg=name
        )


class TestShardSpecBackend:
    """Files written while the kernel backend was a spec field, and before
    it existed, load and reopen under today's spec."""

    def _spec(self, **kwargs):
        kwargs.setdefault("dim", 16)
        kwargs.setdefault("total_samples", 64)
        kwargs.setdefault("num_tables", 3)
        kwargs.setdefault("num_buckets", 64)
        kwargs.setdefault("track_top", 8)
        return ShardSpec(**kwargs)

    def test_codec_round_trip(self):
        spec = self._spec()
        for stamp in STAMPS:
            arrays = spec_to_arrays(spec)
            if stamp is not None:
                arrays["spec_backend"] = np.asarray(stamp)
            assert spec_from_arrays(arrays) == spec

    @pytest.mark.parametrize("stamp", STAMPS)
    def test_old_shard_file_loads(self, stamp, tmp_path):
        spec = self._spec()
        result = sketch_shard(spec, _samples(16, 32, seed=20))
        path = tmp_path / "shard.npz"
        save_shard_result(result, path)
        _restamp(path, stamp)
        loaded = load_shard_result(path)
        assert loaded.spec == spec
        np.testing.assert_array_equal(loaded.table, result.table)
        np.testing.assert_array_equal(loaded.tracker_keys, result.tracker_keys)

    def test_merge_accepts_backend_mismatch(self, tmp_path):
        # Shard files stamped with different backends (or none) describe
        # the same sketch and must merge exactly.
        spec = self._spec()
        samples = _samples(16, 32, seed=21)
        shards, paths = [], []
        for index, stamp in enumerate(STAMPS):
            shard = sketch_shard(
                spec,
                samples[8 * index : 8 * index + 8],
                shard_index=index,
                num_shards=len(STAMPS),
                start=8 * index,
            )
            path = tmp_path / f"shard{index}.npz"
            save_shard_result(shard, path)
            _restamp(path, stamp)
            shards.append(shard)
            paths.append(path)
        mixed = merge_shard_results([load_shard_result(p) for p in paths])
        uniform = merge_shard_results(shards)
        np.testing.assert_array_equal(
            mixed.estimator.sketch.table, uniform.estimator.sketch.table
        )
        np.testing.assert_array_equal(
            mixed.estimator.top_k(8)[0], uniform.estimator.top_k(8)[0]
        )

    def test_merge_still_rejects_real_mismatches(self):
        rng = np.random.default_rng(22)
        samples = [
            (np.asarray([0, 1], dtype=np.int64), rng.standard_normal(2))
            for _ in range(8)
        ]
        shard_a = sketch_shard(self._spec(seed=1), samples, num_shards=2)
        shard_b = sketch_shard(
            self._spec(seed=2), samples, shard_index=1, num_shards=2, start=8
        )
        with pytest.raises(ValueError, match="seed"):
            merge_shard_results([shard_a, shard_b])

    @pytest.mark.parametrize("stamp", STAMPS)
    def test_durable_directory_reopens_with_callers_spec(self, stamp, tmp_path):
        spec = self._spec(total_samples=160)
        batches = _batches(spec.dim, 40)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=6)
        for batch in batches[:20]:
            durable.fit_sparse(batch)
        durable.close()
        _restamp(tmp_path, stamp)

        reopened = DurableSketcher(tmp_path, spec, checkpoint_every=6)
        assert reopened.recovered_from is not None and reopened.replayed_records
        for batch in batches[20:]:
            reopened.fit_sparse(batch)
        reopened.close()
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        _assert_same_state(reopened, reference, spec)

    @pytest.mark.parametrize("stamp", STAMPS)
    def test_windowed_directory_reopens_with_callers_spec(self, stamp, tmp_path):
        spec = self._spec(total_samples=160)
        batches = _batches(spec.dim, 40)
        window = dict(num_panes=3, pane_samples=32)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=6, **window)
        for batch in batches[:20]:
            durable.fit_sparse(batch)
        durable.close()
        _restamp(tmp_path, stamp)

        reopened = DurableSketcher(tmp_path, spec, checkpoint_every=6)
        assert reopened.windowed and reopened.recovered_from is not None
        for batch in batches[20:]:
            reopened.fit_sparse(batch)
        reopened.close()
        reference = PaneRing(spec, **window)
        for batch in batches:
            reference.fit_sparse(iter(batch))
        assert reopened.samples_seen == reference.samples_seen
        assert reopened.window_span == reference.window_span
        np.testing.assert_array_equal(
            reopened.window().estimator.sketch.table,
            reference.window().estimator.sketch.table,
        )

    @pytest.mark.parametrize("stamp", STAMPS)
    def test_serving_durable_reopens_with_callers_spec(self, stamp, tmp_path):
        spec = self._spec(total_samples=160)
        batches = _batches(spec.dim, 40)
        options = {"durable_options": {"checkpoint_every": 6}}
        serving = ServingEstimator.durable(tmp_path, spec, **options)
        for batch in batches[:20]:
            serving.ingest_sparse(batch)
        serving.sketcher.close()
        _restamp(tmp_path, stamp)

        reopened = ServingEstimator.durable(tmp_path, spec, **options)
        for batch in batches[20:]:
            reopened.ingest_sparse(batch)
        reopened.sketcher.close()
        reference = spec.build_sketcher()
        for batch in batches:
            reference.fit_sparse(iter(batch))
        _assert_same_state(reopened.sketcher, reference, spec)
        keys = np.arange(50, dtype=np.int64)
        np.testing.assert_array_equal(
            reopened.refresh().query_keys(keys), reference.estimate_keys(keys)
        )


class TestMemoryBytesReporting:
    def test_tracks_counter_itemsize(self):
        # Regression: memory_bytes used to hardcode 8 bytes/counter, so
        # int16/int32 tiers over-reported their footprint 4x/2x.
        for storage, itemsize in (("int16", 2), ("int32", 4), ("float64", 8)):
            sk = CountSketch(3, 128, dtype=storage, quantum=1e-3)
            assert sk.memory_bytes == 3 * 128 * itemsize
            hcs = HierarchicalCountSketch(
                3, 128, key_space=4096, levels=2, dtype=storage, quantum=1e-3
            )
            assert hcs.memory_bytes == 2 * 3 * 128 * itemsize

    def test_matches_plan_prediction(self):
        p = plan(n_features=1000, budget_mb=0.25)
        assert p.storage == "int16"
        sketch = p.build_sketch(seed=1)
        assert p.measured_bytes_per_counter(sketch) == p.predicted_bytes_per_counter
        assert sketch.memory_bytes == p.predicted_total_bytes

"""Workload definitions and their seeded input generators.

Everything here runs before any timed region.  The same seed always gives
the same inputs; the system under test only ever sees the generated rows,
keys and request bodies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.data.synthetic import BlockCorrelationModel
from repro.data.url_like import URLLikeStream
from repro.distributed.shard import ShardSpec
from repro.hashing.pairs import index_to_pair, num_pairs
from repro.theory.bounds import ProblemModel
from repro.theory.planner import plan_hyperparameters
from repro.theory.snr import estimate_sigma_sparse

WORKLOADS = ("ingest_narrow", "ingest_wide", "serve_mixed")

#: Read mix: (kind, share).  A convention, as no repository benchmark mixes
#: routes: point reads lead, as single-pair throughput is the headline of
#: benchmarks/bench_serving.py, and every other read route runs often
#: enough to be traced.  Shared by the in-process reads of the batch
#: workloads and the HTTP reads of serve_mixed.
READ_MIX = (("pair", 0.70), ("query", 0.15), ("top", 0.10), ("above", 0.05))
QUERY_BATCH = 32
TOP_K = 50
ABOVE_LIMIT = 100
#: Key skew and key set as in the "zipf mixed" case of
#: benchmarks/bench_serving.py: zipf ranks over four times the engine's
#: cache, ranks past the end clamped to the last key.  The cache here is
#: the default QueryEngine one (8192 entries), which every workload uses.
ZIPF_EXPONENT = 1.2
KEY_UNIVERSE = 4 * 8192
NUM_READ_OPS = 4096

#: Sketch hashing seed: system configuration, the same for every data seed.
SKETCH_SEED = 0


@dataclass(frozen=True)
class ReadOp:
    kind: str
    i: int = 0
    j: int = 0
    keys: tuple = ()


@dataclass
class BatchInputs:
    """Inputs of a batch-ingest workload (one pass = all ``rows``)."""

    name: str
    dim: int
    rows: list  # [(indices int64, values float64)]
    chunk: int  # rows per fit_sparse call
    warmup_rows: int  # untimed warm-up prefix length
    planted: np.ndarray  # flat keys of the planted pairs
    reads: list  # [ReadOp]
    above_threshold: float
    pilot_rows: int  # rows the schedule pilot may read (0 = no pilot)
    probe: str  # common.HostSpeed kind shaped like this workload's kernels


@dataclass
class ServeInputs:
    """Inputs of the live-serving workload."""

    dim: int
    warmup_bodies: list  # POST /ingest bodies sent before measuring
    batch_bodies: list  # POST /ingest bodies on the open-loop schedule
    batch_rows: list  # the rows of each body, for the in-process replica
    warmup_rows: list
    interval_s: float  # schedule period of the writer
    refresh_every: int  # a POST /refresh after this many batches
    planted: np.ndarray
    reads: list  # [ReadOp]
    check_keys: np.ndarray  # keys compared HTTP vs in-process at the end
    above_threshold: float


# ----------------------------------------------------------------------
# System configuration per workload (what the program is built with)
# ----------------------------------------------------------------------
NARROW = dict(dim=1_000_000, rows=8192, chunk=256, warmup=1024, pilot=400,
              groups=50, group_size=6, group_prob=0.5, member_prob=0.95,
              background=40, buckets=1 << 15)
WIDE = dict(dim=300, rows=512, chunk=16, warmup=64, alpha=0.01, buckets=4096)
#: The serve_mixed writer sends 32 rows per /ingest, the ingest batch of
#: benchmarks/bench_serving.py (and the batch size of the streaming, memory
#: and sharded benchmarks), and refreshes after every 8 batches, i.e. 256
#: rows, the refresh_every of benchmarks/bench_autoscale.py.  The 100 ms
#: period is a convention: a 32-row /ingest takes about a tenth of it, so
#: /ingest latency measures service rather than a queue.
SERVE = dict(dim=100_000, groups=20, group_size=6, group_prob=0.5,
             member_prob=0.95, background=40, buckets=1 << 15,
             batch=32, interval_s=0.1, refresh_every=8, warmup_batches=8,
             total_samples=1_000_000)


def _url_rows(cfg: dict, n: int, seed: int) -> tuple[list, np.ndarray]:
    stream = URLLikeStream(
        dim=cfg["dim"],
        num_samples=n,
        num_groups=cfg["groups"],
        group_size=cfg["group_size"],
        group_prob=cfg["group_prob"],
        member_prob=cfg["member_prob"],
        background_nnz=cfg["background"],
        seed=seed,
    )
    rows = [(s.indices, s.values) for s in stream]
    return rows, stream.planted_pair_keys()


def _read_ops(dim: int, planted: np.ndarray, rng: np.random.Generator) -> list:
    """A seeded read mix over a zipf-skewed key universe."""
    p = num_pairs(dim)
    size = min(KEY_UNIVERSE, p)
    keys = np.unique(np.concatenate([planted, rng.integers(0, p, size=2 * size)]))
    universe = rng.permutation(keys)[:size]  # rank order

    def zipf_keys(shape):
        ranks = rng.zipf(ZIPF_EXPONENT, size=shape)
        return universe[np.minimum(ranks - 1, universe.size - 1)]

    kinds = [k for k, _ in READ_MIX]
    shares = np.asarray([s for _, s in READ_MIX])
    drawn = rng.choice(len(kinds), size=NUM_READ_OPS, p=shares / shares.sum())
    pi, pj = index_to_pair(zipf_keys(NUM_READ_OPS), dim)
    batch_keys = zipf_keys((NUM_READ_OPS, QUERY_BATCH))
    ops = []
    for n, code in enumerate(drawn):
        kind = kinds[code]
        if kind == "pair":
            ops.append(ReadOp("pair", int(pi[n]), int(pj[n])))
        elif kind == "query":
            ops.append(ReadOp("query", keys=tuple(batch_keys[n].tolist())))
        else:
            ops.append(ReadOp(kind))
    return ops


def ingest_narrow(seed: int) -> BatchInputs:
    cfg = NARROW
    rows, planted = _url_rows(cfg, cfg["rows"], seed)
    rng = np.random.default_rng([seed, 1])
    return BatchInputs(
        name="ingest_narrow",
        dim=cfg["dim"],
        rows=rows,
        chunk=cfg["chunk"],
        warmup_rows=cfg["warmup"],
        planted=planted,
        reads=_read_ops(cfg["dim"], planted, rng),
        # Planted pairs reach ~rows*group_prob/groups*member_prob^2 / T.
        above_threshold=0.004,
        pilot_rows=cfg["pilot"],
        probe="scatter",
    )


def ingest_wide(seed: int) -> BatchInputs:
    cfg = WIDE
    model = BlockCorrelationModel.from_alpha(cfg["dim"], alpha=cfg["alpha"], seed=seed)
    data = model.sample(cfg["rows"])
    indices = np.arange(cfg["dim"], dtype=np.int64)
    rows = [(indices, data[r].copy()) for r in range(cfg["rows"])]
    planted = model.signal_pairs()
    rng = np.random.default_rng([seed, 2])
    return BatchInputs(
        name="ingest_wide",
        dim=cfg["dim"],
        rows=rows,
        chunk=cfg["chunk"],
        warmup_rows=cfg["warmup"],
        planted=planted,
        reads=_read_ops(cfg["dim"], planted, rng),
        above_threshold=0.5,
        pilot_rows=0,
        probe="sort",
    )


def _ingest_body(rows: list) -> bytes:
    samples = [[idx.tolist(), val.tolist()] for idx, val in rows]
    return json.dumps({"samples": samples}).encode()


def serve_mixed(seed: int, seconds: float) -> ServeInputs:
    cfg = SERVE
    num_batches = int(np.ceil(seconds / cfg["interval_s"])) + 2
    total = (cfg["warmup_batches"] + num_batches) * cfg["batch"]
    rows, planted = _url_rows(cfg, total, seed)
    batches = [rows[b : b + cfg["batch"]] for b in range(0, total, cfg["batch"])]
    warm, timed = batches[: cfg["warmup_batches"]], batches[cfg["warmup_batches"] :]
    rng = np.random.default_rng([seed, 3])
    reads = _read_ops(cfg["dim"], planted, rng)
    check = np.unique(
        np.concatenate(
            [planted[:64], rng.integers(0, num_pairs(cfg["dim"]), size=192)]
        )
    )
    return ServeInputs(
        dim=cfg["dim"],
        warmup_bodies=[_ingest_body(b) for b in warm],
        batch_bodies=[_ingest_body(b) for b in timed],
        batch_rows=timed,
        warmup_rows=warm,
        interval_s=cfg["interval_s"],
        refresh_every=cfg["refresh_every"],
        planted=planted,
        reads=reads,
        check_keys=check,
        above_threshold=5e-5,
    )


# ----------------------------------------------------------------------
# The stack each workload builds (part of set-up, never of input making)
# ----------------------------------------------------------------------
def narrow_spec(pilot: list) -> ShardSpec:
    """ASCS spec with its schedule resolved from a pilot prefix.

    ``sigma`` is the section-7.2 RMS pair product over the pilot; ``u`` is
    the level of interest, the planted co-occurrence rate.
    """
    cfg = NARROW
    p = num_pairs(cfg["dim"])
    total_sq = 0.0
    for _, val in pilot:
        sq = val * val  # sum over pairs a<b of (v_a v_b)^2
        total_sq += (float(sq.sum()) ** 2 - float((sq * sq).sum())) / 2.0
    sigma = estimate_sigma_sparse(total_sq, p, len(pilot))
    num_planted = cfg["groups"] * cfg["group_size"] * (cfg["group_size"] - 1) // 2
    u = cfg["group_prob"] / cfg["groups"] * cfg["member_prob"] ** 2
    model = ProblemModel(
        p=p,
        alpha=num_planted / p,
        u=u,
        sigma=sigma,
        T=cfg["rows"],
        num_tables=5,
        num_buckets=cfg["buckets"],
    )
    plan = plan_hyperparameters(model)
    return ShardSpec(
        dim=cfg["dim"],
        total_samples=cfg["rows"],
        method="ascs",
        num_tables=5,
        num_buckets=cfg["buckets"],
        seed=SKETCH_SEED,
        mode="covariance",
        batch_size=32,
        track_top=4 * num_planted,
        schedule=(plan.exploration_length, plan.tau0, plan.theta, cfg["rows"]),
    )


def wide_spec() -> ShardSpec:
    cfg = WIDE
    return ShardSpec(
        dim=cfg["dim"],
        total_samples=cfg["rows"],
        method="cs",
        num_tables=5,
        num_buckets=cfg["buckets"],
        seed=SKETCH_SEED,
        mode="correlation",
        batch_size=32,
    )


def serve_spec() -> ShardSpec:
    cfg = SERVE
    num_planted = cfg["groups"] * cfg["group_size"] * (cfg["group_size"] - 1) // 2
    return ShardSpec(
        dim=cfg["dim"],
        total_samples=cfg["total_samples"],
        method="cs",
        num_tables=5,
        num_buckets=cfg["buckets"],
        seed=SKETCH_SEED,
        mode="covariance",
        batch_size=32,
        track_top=4 * num_planted,
    )

"""The benchmark's workloads and the passes that measure them.

Every workload follows one user story on the ``lastfm_like`` substrate:

1. **set-up** — generate the data and split it; the serve workloads also
   run the offline pipeline and build a :class:`RecommendationService`
   from the fitted model, because a server starts from that state;
2. **pipeline** — ``KUCNetRecommender.fit`` (which prepares the CKG and
   the PPR scores) followed by ``evaluate`` over every test user;
3. **serve loop** — one client replays a seeded :class:`OpStream` of
   ``recommend`` reads and ``add_interactions`` updates in a closed
   loop, each operation sent when the previous one returned;
4. **output checks** — served rankings against an offline recomputation
   on the same state, and exclusion of every item folded in.

The workloads differ in size, score store and operation mix, which is
what decides the layer that dominates each (see ``README.md``).
"""

from __future__ import annotations

import contextlib
import copy
import gc
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Iterator, List, Optional, Set

import numpy as np

from repro import telemetry
from repro.core.model import KUCNetConfig
from repro.core.trainer import KUCNetRecommender, TrainConfig
from repro.data import lastfm_like, traditional_split
from repro.eval import evaluate
from repro.eval.metrics import ndcg_at_n, rank_items, recall_at_n
from repro.serve import RecommendationService, ServeConfig

from .calibrate import (PROBE_SECONDS, Phase, Reference,
                        calibration_factors)
from .stats import percentile
from .stream import READ, OpStream, digest
from .tracing import Tracer, instrument

#: cutoff of the served rankings and of recall/ndcg (the paper's N)
TOP_K = 20
#: the substrate is fixed; the workload seed drives the operation stream
DATA_SEED = 0
#: read skew and result-cache size (users // CACHE_DIV): about one read in
#: five hits, so the read median stays on the miss path
ZIPF = 0.7
CACHE_DIV = 12
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: users whose served ranking is recomputed offline after the loop
CHECK_USERS = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``README.md`` for why each exists)."""

    name: str
    why: str
    scale: float
    #: score store that serves the reads: ``"ram"`` or ``"mmap"``.
    #: Updates always go to a RAM-store service: with ``"mmap"`` a second
    #: service over the same model takes them, so the reads see no write.
    store: str
    epochs: int
    #: serve workloads fit and build the service during set-up; fit-eval
    #: runs its pipeline after each set-up
    serve_in_setup: bool
    #: ``None``: all prefix reads, then all prefix updates
    update_every: Optional[int]
    prefix_reads: int
    prefix_updates: int
    #: users per PPR chunk in fit and service set-up (the TrainConfig
    #: default unless the mmap store needs more shards)
    ppr_chunk_users: int = 64

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, patience=None, num_workers=1,
                           ppr_store="ram",
                           ppr_chunk_users=self.ppr_chunk_users)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fit-eval",
        why="2-epoch pipeline (power PPR, RAM) at scale 1 after each "
            "set-up, then serving: autodiff, core, engine and sampling set "
            "pipeline_s; the control for serve-side changes",
        scale=1.0, store="ram", epochs=2, serve_in_setup=False,
        update_every=None, prefix_reads=4000, prefix_updates=300),
    Workload(
        name="serve-read",
        why="Zipf reads at scale 2 from the mmap store (13 shards, 8 open) "
            "with cache = users/12, then updates to a RAM copy: select, "
            "shard LRU, sampling, forward, ranking",
        scale=2.0, store="mmap", epochs=1, serve_in_setup=True,
        update_every=None, prefix_reads=1500, prefix_updates=120,
        ppr_chunk_users=32),
    Workload(
        name="serve-update",
        why="the same reads on the RAM store with one fresh interaction "
            "folded in after every 15 reads: incremental push and CKG append "
            "dominate, invalidations turn hits into misses",
        scale=2.0, store="ram", epochs=1, serve_in_setup=True,
        update_every=15, prefix_reads=1800, prefix_updates=120),
)}

#: end-to-end metrics (measured with tracing off) and their units
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "recall_at_20": "share",
    "ndcg_at_20": "share",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

#: per-layer metrics (traced run): unit, and the end-to-end metric(s)
#: each should move, on which workload
PER_LAYER = {
    "graph.ckg_build_ms": ("ms", "pipeline_s"),
    "graph.add_interactions_ms": ("ms", "update_p50_ms on serve-update"),
    "ppr.precompute_s": ("s", "pipeline_s on fit-eval, setup_s on serve-*"),
    "ppr.incremental_ms": ("ms", "update_p50_ms, ops_per_s on serve-update"),
    "ppr.push_ops_per_update": ("count", "update_p50_ms"),
    "ppr.changed_row_share": ("share", "update_p50_ms"),
    "storage.select_ms": ("ms", "read_p50_ms on serve-read"),
    "storage.shard_hit_share": ("share", "read_p99_ms on serve-read"),
    "sampling.build_ms": ("ms", "read_p50_ms, pipeline_s"),
    "sampling.edges_per_graph": ("count", "read_p50_ms, pipeline_s"),
    "sampling.graph_reuse_share": ("share", "pipeline_s"),
    "core.propagate_ms": ("ms", "pipeline_s, read_p50_ms"),
    "core.score_items_ms": ("ms", "read_p50_ms"),
    "autodiff.backward_ms": ("ms", "pipeline_s"),
    "autodiff.adam_step_ms": ("ms", "pipeline_s"),
    "engine.epoch_s": ("s", "pipeline_s"),
    "eval.evaluate_s": ("s", "pipeline_s"),
    "eval.rank_ms": ("ms", "pipeline_s, read_p50_ms"),
    "serve.cache_hit_share": ("share", "read_p50_ms, ops_per_s"),
    "serve.miss_ms": ("ms", "read_p50_ms, read_p99_ms"),
    "serve.invalidated_per_update": ("count",
                                     "read_p50_ms, ops_per_s on "
                                     "serve-update"),
    "bench.coverage_share": ("share", "none: unmeasured time made visible"),
    "bench.trace_overhead_share": ("share", "none: cost of the tracing"),
}


# ----------------------------------------------------------------------
# Set-up and pipeline
# ----------------------------------------------------------------------

@dataclass
class State:
    """Everything one pass builds; one pass owns one ``store_dir``."""

    workload: Workload
    store_dir: str
    split: object = None
    #: calibrated when set up with a reference; ``*_raw`` is wall time
    setup_s: float = 0.0
    setup_raw: float = 0.0
    pipeline_s: float = 0.0
    pipeline_raw: float = 0.0
    recommender: Optional[KUCNetRecommender] = None
    evaluation: object = None
    #: serves the reads; ``writer`` takes the updates (often the same)
    service: Optional[RecommendationService] = None
    writer: Optional[RecommendationService] = None

    def close(self) -> None:
        self.service = self.writer = None
        self.recommender = None
        gc.collect()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


def set_up(workload: Workload, store_dir: str,
           tracer: Optional[Tracer] = None,
           reference: Optional[Reference] = None) -> State:
    """Data and split (serve workloads: plus pipeline and service).

    The clock starts at the first call into :mod:`repro.data`, so
    interpreter start-up and module import are not set-up time.  With a
    ``reference`` the time is calibrated (see :class:`Phase`).
    """
    state = State(workload, store_dir)
    phase = Phase(reference) if reference is not None else None
    started = time.perf_counter()
    with _span(tracer, "data.generate"):
        dataset = lastfm_like(seed=DATA_SEED, scale=workload.scale)
    with _span(tracer, "data.split"):
        state.split = traditional_split(dataset, seed=DATA_SEED)
    if workload.serve_in_setup:
        run_pipeline(state, tracer, reference)
        build_service(state)
    state.setup_s = state.setup_raw = time.perf_counter() - started
    if phase is not None:
        phase.stop()
        state.setup_s, state.setup_raw = phase.calibrated, phase.raw
    return state


def run_pipeline(state: State, tracer: Optional[Tracer] = None,
                 reference: Optional[Reference] = None) -> None:
    """``fit`` (prepare + epochs) then ``evaluate`` over all test users.

    With a ``reference`` the time is calibrated (see :class:`Phase`).
    """
    phase = Phase(reference) if reference is not None else None
    started = time.perf_counter()
    recommender = KUCNetRecommender(KUCNetConfig(),
                                    state.workload.train_config())
    recommender.fit(state.split)
    with _span(tracer, "eval.evaluate"):
        state.evaluation = evaluate(recommender, state.split, n=TOP_K,
                                    num_workers=1)
    state.pipeline_s = state.pipeline_raw = time.perf_counter() - started
    if phase is not None:
        phase.stop()
        state.pipeline_s, state.pipeline_raw = phase.calibrated, phase.raw
    state.recommender = recommender


def build_service(state: State) -> None:
    """The service on the workload's store, and the RAM-store writer that
    takes the updates (the same service unless the store is mmap)."""
    workload = state.workload
    users = state.recommender.ckg.num_users
    config = ServeConfig(top_k=TOP_K,
                         cache_entries=max(1, users // CACHE_DIV))
    services = {
        store: RecommendationService.from_recommender(
            state.recommender, state.split, config=config, store=store,
            store_dir=(state.store_dir if store == "mmap" else None))
        for store in dict.fromkeys((workload.store, "ram"))}
    state.service = services[workload.store]
    state.writer = services["ram"]


# ----------------------------------------------------------------------
# Serve loop
# ----------------------------------------------------------------------

@dataclass
class LoopResult:
    #: raw latency of each operation, and the calibration slot it ran in
    read_ms: List[float] = field(default_factory=list)
    read_slots: List[int] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    update_slots: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: items folded in per user, in the order they were applied
    folded: Dict[int, List[int]] = field(default_factory=dict)
    #: quality and counts over the fixed request set (the stream prefix)
    recall: float = 0.0
    ndcg: float = 0.0
    prefix_digest: str = ""
    push_ops: int = 0
    invalidated: int = 0


def known_items(split) -> Dict[int, set]:
    """Training and held-out items per user (update items avoid both)."""
    known = {int(user): set(split.train.positives(user))
             for user in split.train.users_with_interactions()}
    for user, items in split.test_positives.items():
        known.setdefault(int(user), set()).update(items)
    return known


def make_stream(state: State, seed: int) -> OpStream:
    workload = state.workload
    ckg = state.service.ckg
    return OpStream(ckg.num_users, ckg.num_items, known_items(state.split),
                    seed=seed, zipf=ZIPF, popularity_seed=DATA_SEED,
                    update_every=workload.update_every,
                    prefix_reads=workload.prefix_reads,
                    prefix_updates=workload.prefix_updates)


def serve_loop(state: State, stream: OpStream, seconds: Optional[float],
               reference: Optional[Reference] = None) -> LoopResult:
    """Replay ``stream`` in a closed loop.

    The fixed prefix always runs; with ``seconds`` set the loop then
    continues until that much time has passed since it started, and with
    ``seconds=None`` it stops at the prefix.  Quality and counts are
    taken when the prefix ends, so they do not depend on speed.  With a
    ``reference``, the machine is probed between two operations every
    ``PROBE_SECONDS`` and each latency records the probe slot it ran in.
    """
    split = state.split
    excluded = {int(user): set(split.train.positives(user))
                for user in split.train.users_with_interactions()}
    result = LoopResult()
    served: Dict[int, np.ndarray] = {}
    service, writer = state.service, state.writer
    gc.collect()
    started = next_probe = time.perf_counter()
    for index, op in enumerate(stream):
        if index == stream.prefix_len:
            _score_prefix(result, served, split, stream.prefix)
        if index >= stream.prefix_len and (
                seconds is None
                or time.perf_counter() - started >= seconds):
            break
        if reference is not None and time.perf_counter() >= next_probe:
            reference.probe()
            next_probe = time.perf_counter() + PROBE_SECONDS
        slot = (len(reference.probes_ms) - 1 if reference is not None
                else 0)
        result.attempted += 1
        try:
            if op.kind == READ:
                began = time.perf_counter()
                ranking = service.recommend([op.user])[0]
                result.read_ms.append((time.perf_counter() - began) * 1e3)
                result.read_slots.append(slot)
                ok = (ranking.size == TOP_K and not excluded.get(
                    op.user, set()).intersection(ranking.tolist()))
                if index < stream.prefix_len:
                    served[op.user] = ranking
            else:
                began = time.perf_counter()
                info = writer.add_interactions([(op.user, op.item)])
                result.update_ms.append(
                    (time.perf_counter() - began) * 1e3)
                result.update_slots.append(slot)
                ok = info["added"] == 1
                if writer is service:
                    excluded.setdefault(op.user, set()).add(op.item)
                result.folded.setdefault(op.user, []).append(op.item)
                if index < stream.prefix_len:
                    result.push_ops += info["push_ops"]
                    result.invalidated += info["cache_invalidated"]
        except Exception:  # a failed operation is counted, not fatal
            if not result.failed:
                traceback.print_exc(file=sys.stderr)
            ok = False
        result.failed += not ok
    return result


def _score_prefix(result: LoopResult, served: Dict[int, np.ndarray],
                  split, prefix) -> None:
    """recall/ndcg of the last top-K served to each distinct user read."""
    recalls, ndcgs = [], []
    for user in sorted(served):
        relevant = split.test_positives.get(user)
        if relevant:
            recalls.append(recall_at_n(served[user], relevant, TOP_K))
            ndcgs.append(ndcg_at_n(served[user], relevant, TOP_K))
    result.recall = float(np.mean(recalls)) if recalls else 0.0
    result.ndcg = float(np.mean(ndcgs)) if ndcgs else 0.0
    result.prefix_digest = digest(prefix)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def check_outputs(state: State, folded: Dict[int, List[int]],
                  seed: int) -> Dict[str, int]:
    """Served rankings against the offline path on the same state.

    * parity: for a fixed seeded sample of users, each service's served
      top-K equals ``score_users`` + ``rank_items`` computed offline
      over that service's current graph and scores;
    * freshness: the ranking of every user who gained items excludes
      them.

    Returns ``{"attempted": ..., "failed": ...}`` over both checks.
    """
    num_users = state.service.ckg.num_users
    rng = np.random.default_rng([seed, 1])
    sample = sorted(rng.choice(num_users, size=min(CHECK_USERS, num_users),
                               replace=False).tolist())
    attempted = failed = 0
    for service in dict.fromkeys((state.service, state.writer)):
        offline = _offline_scorer(state.recommender, service)
        for user in sample:
            exclude = set(state.split.train.positives(user))
            if service is state.writer:
                exclude.update(folded.get(user, ()))
            expected = rank_items(offline.score_users([user])[0], exclude,
                                  TOP_K)
            attempted += 1
            failed += not np.array_equal(service.recommend([user])[0],
                                         expected)
    for user in sorted(folded):
        ranking = set(state.writer.recommend([user])[0].tolist())
        attempted += 1
        failed += bool(ranking.intersection(folded[user]))
    return {"attempted": attempted, "failed": failed}


def _offline_scorer(recommender: KUCNetRecommender,
                    service: RecommendationService) -> KUCNetRecommender:
    """The fitted recommender, re-pointed at the service's graph and
    scores (degree-normalized as the trainer normalizes its own)."""
    offline = copy.copy(recommender)
    offline.ckg = service.ckg
    rows = service.scores.select(range(service.ckg.num_users))
    if recommender.train_config.ppr_degree_normalized:
        rows.normalize_by_degree(np.diff(service.ckg.indptr))
    offline.ppr_scores = rows
    return offline


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float,
            workdir: str) -> Dict[str, object]:
    """Untraced run: every end-to-end metric."""
    reference = Reference()
    setups: List[State] = []
    state = None
    for repeat in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        state = set_up(workload, os.path.join(workdir, f"setup{repeat}"),
                       reference=reference)
        if not workload.serve_in_setup:
            run_pipeline(state, reference=reference)
        setups.append(state)
    if not workload.serve_in_setup:
        build_service(state)
    try:
        loop = serve_loop(state, make_stream(state, seed), seconds, reference)
        checks = check_outputs(state, loop.folded, seed)
    finally:
        state.close()
    factors = calibration_factors(reference.probes_ms)
    read_ms = [ms * factors[slot]
               for ms, slot in zip(loop.read_ms, loop.read_slots)]
    update_ms = [ms * factors[slot]
                 for ms, slot in zip(loop.update_ms, loop.update_slots)]
    if workload.serve_in_setup:
        recall, ndcg = loop.recall, loop.ndcg
    else:
        recall, ndcg = state.evaluation.recall, state.evaluation.ndcg
    attempted = loop.attempted + checks["attempted"]
    failed = loop.failed + checks["failed"]
    metrics = {
        "setup_s": median([setup.setup_s for setup in setups]),
        "pipeline_s": median([setup.pipeline_s for setup in setups]),
        "ops_per_s": (len(read_ms) + len(update_ms))
        / (sum(read_ms) + sum(update_ms)) * 1e3,
        "read_p50_ms": percentile(read_ms, 50),
        "read_p99_ms": percentile(read_ms, 99),
        "update_p50_ms": percentile(update_ms, 50),
        "update_p90_ms": percentile(update_ms, 90),
        "recall_at_20": recall,
        "ndcg_at_20": ndcg,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - failed / attempted,
    }
    raw = {
        "setup_s": median([setup.setup_raw for setup in setups]),
        "pipeline_s": median([setup.pipeline_raw for setup in setups]),
        "ops_per_s": (len(read_ms) + len(update_ms))
        / (sum(loop.read_ms) + sum(loop.update_ms)) * 1e3,
        "read_p50_ms": percentile(loop.read_ms, 50),
        "read_p99_ms": percentile(loop.read_ms, 99),
        "update_p50_ms": percentile(loop.update_ms, 50),
        "update_p90_ms": percentile(loop.update_ms, 90),
        "reference_ms": median(reference.probes_ms),
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: (value, END_TO_END[name])
                        for name, value in metrics.items()},
            "raw": raw}


@dataclass
class PassResult:
    """One set-up + pipeline + fixed-prefix loop, maybe traced."""

    wall: float
    loop: LoopResult
    checks: Dict[str, int]
    tracer: Optional[Tracer] = None
    graph_cache: tuple = (0, 0)
    shard_counts: tuple = (0, 0)


def one_pass(workload: Workload, seed: int, store_dir: str,
             traced: bool) -> PassResult:
    """Set-up, pipeline and the stream prefix, once, timed as a whole."""
    tracer = Tracer() if traced else None
    gc.collect()
    with _tracing(tracer):
        started = time.perf_counter()
        state = set_up(workload, store_dir, tracer)
        if not workload.serve_in_setup:
            run_pipeline(state, tracer)
            build_service(state)
        stream = make_stream(state, seed)
        loop = serve_loop(state, stream, None)
        wall = time.perf_counter() - started
        counters = telemetry.get_registry().counters
        shard_counts = tuple(
            int(counters[name].total) if name in counters else 0
            for name in ("storage.shard_hits", "storage.shard_misses"))
    try:
        checks = check_outputs(state, loop.folded, seed)
    finally:
        recommender = state.recommender
        state.close()
    return PassResult(wall, loop, checks, tracer,
                      (recommender.graph_cache_hits,
                       recommender.graph_cache_misses), shard_counts)


@contextlib.contextmanager
def _tracing(tracer: Optional[Tracer]) -> Iterator[None]:
    """Wrap the layers and turn on the program's counters, if tracing."""
    if tracer is None:
        yield
        return
    telemetry.reset()
    with telemetry.enabled(), instrument(tracer):
        yield


def missed_reads(tracer: Tracer) -> Set[int]:
    """Indices of ``serve.recommend`` spans that built a subgraph (misses)."""
    missed = set()
    for record in tracer.spans:
        if record.name != "sampling.build":
            continue
        parent = record.parent
        while parent is not None:
            if tracer.spans[parent].name == "serve.recommend":
                missed.add(parent)
                break
            parent = tracer.spans[parent].parent
    return missed


def layer_metrics(untraced: PassResult, traced: PassResult
                  ) -> Dict[str, float]:
    """Every per-layer metric from one traced and one untraced pass."""
    tracer = traced.tracer

    def ms(name: str) -> float:
        values = tracer.seconds(name)
        return median(values) * 1e3 if values else 0.0

    def mean(name: str) -> float:
        values = tracer.observations.get(name, [])
        return float(np.mean(values)) if values else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    missed = missed_reads(tracer)
    reads = [index for index, record in enumerate(tracer.spans)
             if record.name == "serve.recommend"]
    miss_ms = [tracer.spans[index].seconds * 1e3 for index in missed]
    reuse_hits, reuse_misses = traced.graph_cache
    shard_hits, shard_misses = traced.shard_counts
    ops = tracer.observations
    return {
        "graph.ckg_build_ms": ms("graph.ckg_build"),
        "graph.add_interactions_ms": ms("graph.add_interactions"),
        "ppr.precompute_s": sum(tracer.seconds("ppr.precompute")),
        "ppr.incremental_ms": ms("ppr.incremental"),
        "ppr.push_ops_per_update": mean("ppr.push_ops"),
        "ppr.changed_row_share": share(sum(ops.get("ppr.changed_rows", [])),
                                       sum(ops.get("ppr.densified_rows",
                                                   []))),
        "storage.select_ms": ms("storage.select"),
        # The RAM store holds every row resident: no shard is ever opened.
        "storage.shard_hit_share": (share(shard_hits,
                                          shard_hits + shard_misses)
                                    if shard_hits + shard_misses else 1.0),
        "sampling.build_ms": ms("sampling.build"),
        "sampling.edges_per_graph": mean("sampling.edges"),
        "sampling.graph_reuse_share": share(reuse_hits,
                                            reuse_hits + reuse_misses),
        "core.propagate_ms": ms("core.propagate"),
        "core.score_items_ms": ms("core.score_items"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.adam_step_ms": ms("autodiff.adam_step"),
        "engine.epoch_s": ms("engine.epoch") / 1e3,
        "eval.evaluate_s": ms("eval.evaluate") / 1e3,
        "eval.rank_ms": ms("eval.rank"),
        "serve.cache_hit_share": share(len(reads) - len(missed), len(reads)),
        "serve.miss_ms": median(miss_ms) if miss_ms else 0.0,
        "serve.invalidated_per_update": mean("serve.invalidated"),
        "bench.coverage_share": share(tracer.self_seconds(), traced.wall),
        "bench.trace_overhead_share": traced.wall / untraced.wall - 1.0,
    }


def measure_layers(workload: Workload, seed: int,
                   workdir: str) -> Dict[str, object]:
    """Traced run: an untraced pass, then the same pass traced."""
    untraced = one_pass(workload, seed, os.path.join(workdir, "untraced"),
                        traced=False)
    traced = one_pass(workload, seed, os.path.join(workdir, "traced"),
                      traced=True)
    attempted = failed = 0
    for result in (untraced, traced):
        attempted += result.loop.attempted + result.checks["attempted"]
        failed += result.loop.failed + result.checks["failed"]
    metrics = layer_metrics(untraced, traced)
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: (value, PER_LAYER[name][0])
                        for name, value in metrics.items()}}


def fingerprint(result: PassResult) -> Dict[str, object]:
    """What two runs with one seed must reproduce exactly."""
    tracer = result.tracer
    return {
        "ops": result.loop.prefix_digest,
        "recall_at_20": result.loop.recall,
        "ndcg_at_20": result.loop.ndcg,
        "cache_hits": tracer.count("serve.recommend")
        - len(missed_reads(tracer)),
        "push_ops": result.loop.push_ops,
        "invalidated": result.loop.invalidated,
        "edges": sum(tracer.observations.get("sampling.edges", [])),
    }


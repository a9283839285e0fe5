"""Parallel fleet warm-up: pay tracing and tuning cost before serving.

A cold :class:`~repro.serve.service.ScanService` pays two host costs the
first time each shape class arrives: the tuner sweep (when a tuned store
is attached but has no entry) and the plan build (the 49–80 ms Python
kernel trace).  Both are pure functions of the device config and the
workload key, so a fleet bring-up can pay them *up front* — and, because
tuning runs on the simulator and touches no shared state, it can pay them
on a **process pool**:

* :func:`warm_tune_store` splits the untuned workloads round-robin across
  worker processes; each worker tunes its slice into a private
  :class:`~repro.tune.store.TuneStore` shard and ships the shard back as
  a JSON payload; the parent merges the shards.  Merging is exact — the
  tuner is deterministic per workload, so the merged store is
  entry-for-entry identical to a serial sweep (the differential test in
  ``tests/tune/test_warmup.py`` holds this).
* :func:`warm_service` then prebuilds the plan cache of one service for
  those workloads (plans hold traced op DAGs and simulated device
  allocations, so they are built in-process, per member).
* :func:`warm_pool` does both for every member of a
  :class:`~repro.shard.PoolScanService` behind one call.

Steady-state serving after warm-up never pays trace or tune cost inline:
every launch is a plan-cache hit.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..hw.config import DeviceConfig
from .space import WorkloadKey
from .store import TuneStore
from .tuner import tune_fresh

__all__ = ["WarmupReport", "warm_tune_store", "warm_service", "warm_pool"]


@dataclass
class WarmupReport:
    """What one warm-up pass did, and what it cost."""

    #: workloads handed in
    requested: int = 0
    #: sweeps actually run (workloads the store had no entry for)
    tuned: int = 0
    #: workloads skipped because the store already covered them
    skipped: int = 0
    #: store keys added or improved by merging worker shards
    merged: int = 0
    #: worker processes used (1 = in-process serial)
    workers: int = 1
    #: plans built into serve-layer caches (:func:`warm_service` only)
    plans_built: int = 0
    #: wall seconds for the whole pass
    host_s: float = 0.0
    #: per-worker shard sizes, in worker order (serial pass: one entry)
    shard_sizes: "list[int]" = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"warm-up: {self.tuned} tuned / {self.skipped} cached of "
            f"{self.requested} workloads on {self.workers} worker(s), "
            f"{self.plans_built} plans built, {self.host_s * 1e3:.0f} ms"
        )


def _tune_shard(payload: "tuple[DeviceConfig, list[WorkloadKey]]") -> dict:
    """Worker entry point: tune one slice of workloads into a store shard.

    Module-level (picklable) and self-contained: no live objects cross the
    process boundary — the shard travels back as a plain JSON payload.

    Each workload is tuned on a fresh context (:func:`tune_fresh`), so
    every entry is a pure function of (config, workload), not of the
    round-robin slice assignment — the invariant that lets N merged
    shards equal one serial sweep exactly.
    """
    config, workloads = payload
    shard = TuneStore(config)
    for workload in workloads:
        tune_fresh(config, workload, shard)
    return shard.to_payload()


def warm_tune_store(
    workloads: "list[WorkloadKey]",
    store: TuneStore,
    *,
    workers: "int | None" = None,
    log=None,
) -> WarmupReport:
    """Tune every workload ``store`` lacks, fanning the sweeps out over
    ``workers`` processes (default: the machine's CPU count).

    Workloads are dealt round-robin so slow sweeps spread across workers;
    each worker returns an independent store shard and the parent merges
    them (strictly-better-wins, same-fingerprint-only).  ``workers <= 1``
    — or a single pending workload — runs serially in-process, through the
    same shard-and-merge path, so both modes produce identical stores.
    """
    say = log if log is not None else (lambda _msg: None)
    t0 = time.perf_counter()
    report = WarmupReport(requested=len(workloads))
    todo = [w for w in workloads if w.store_key not in store.entries]
    report.skipped = len(workloads) - len(todo)
    if not todo:
        report.host_s = time.perf_counter() - t0
        return report

    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = max(1, min(n_workers, len(todo)))
    report.workers = n_workers
    slices = [todo[i::n_workers] for i in range(n_workers)]

    if n_workers == 1:
        payloads = [_tune_shard((store.config, todo))]
    else:
        say(f"warming {len(todo)} workloads on {n_workers} processes")
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            payloads = list(
                pool.map(_tune_shard, [(store.config, s) for s in slices])
            )

    for payload in payloads:
        shard = TuneStore.from_payload(payload, store.config)
        report.shard_sizes.append(len(shard))
        report.merged += store.merge(shard)
    report.tuned = len(todo)
    report.host_s = time.perf_counter() - t0
    say(report.describe())
    return report


def _resolve_config(
    service, workload: WorkloadKey
) -> "tuple[str, int, int | None, str, bool]":
    """(algorithm, s, block_dim, layout, tuned) a warmed service will use
    for this workload — the tuned entry when the store has one, otherwise
    ``submit``'s heuristic defaults.  Reads ``store.entries`` directly so
    warming never skews the lookup hit/miss counters the service reports.
    """
    store = service.tune_store
    entry = store.entries.get(workload.store_key) if store is not None else None
    if entry is not None:
        return entry.algorithm, entry.s, entry.block_dim, entry.layout, True
    if workload.exclusive:
        return "mcscan", 128, None, "1d", False
    layout = "batched" if workload.kind == "batched" else "1d"
    return "scanu", 128, None, layout, False


def warm_service(
    service,
    workloads: "list[WorkloadKey]",
    *,
    buckets: "tuple[int, ...]" = (),
) -> int:
    """Prebuild one service's plan cache for ``workloads``; returns the
    number of plans built (0 = everything was already cached).

    For a 1-D workload the exact 1-D plan is built; ``buckets`` lists
    batch sizes the service should additionally expect that workload to
    arrive in (each rounded to its power-of-two bucket), so the coalesced
    batched launches hit too.  Batched workloads warm whichever layout
    their tuned entry picked.
    """
    from ..core.api import BATCHED_ALGORITHMS
    from ..serve.batcher import bucket_size

    cache = service.cache
    max_batch = service.batcher.max_batch
    built = 0

    def build_1d(algorithm, n, dtype, s, exclusive, block_dim, tuned):
        nonlocal built
        key = cache.key_1d(
            algorithm, n, dtype, s=s, exclusive=exclusive, block_dim=block_dim
        )
        if key not in cache:
            cache.get_1d(
                algorithm, n, dtype, s=s, exclusive=exclusive,
                block_dim=block_dim, tuned=tuned,
            )
            built += 1

    def build_batched(algorithm, batch, row_len, dtype, s, tuned):
        nonlocal built
        bucket = bucket_size(batch, max_batch=max_batch)
        key = cache.key_batched(algorithm, bucket, row_len, dtype, s=s)
        if key not in cache:
            cache.get_batched(
                algorithm, bucket, row_len, dtype, s=s, tuned=tuned
            )
            built += 1

    for workload in workloads:
        algorithm, s, block_dim, layout, tuned = _resolve_config(
            service, workload
        )
        if workload.kind == "1d":
            build_1d(
                algorithm, workload.n, workload.dtype, s,
                workload.exclusive, block_dim, tuned,
            )
            # the batcher only coalesces requests the batched kernels can
            # serve; mcscan/exclusive verdicts always launch per-request
            if workload.exclusive or algorithm not in BATCHED_ALGORITHMS:
                continue
            for batch in buckets:
                build_batched(algorithm, batch, workload.n, workload.dtype, s, tuned)
        elif layout == "batched":
            build_batched(
                algorithm, workload.batch, workload.n, workload.dtype, s, tuned
            )
        else:
            # tuned verdict: serve each row through one 1-D plan
            build_1d(
                algorithm, workload.n, workload.dtype, s, False, block_dim, tuned
            )
    return built


def warm_pool(
    pool_service,
    workloads: "list[WorkloadKey]",
    *,
    buckets: "tuple[int, ...]" = (),
    workers: "int | None" = None,
    log=None,
) -> WarmupReport:
    """Warm a whole device pool: one parallel tuning pass into the shared
    store, then per-member plan prebuilds (plans are device state, so each
    member traces its own — in-process, against its own simulated device).
    """
    t0 = time.perf_counter()
    store = pool_service.tune_store
    if store is not None:
        report = warm_tune_store(workloads, store, workers=workers, log=log)
    else:
        report = WarmupReport(requested=len(workloads))
    for member in pool_service.workers:
        report.plans_built += warm_service(member, workloads, buckets=buckets)
    report.host_s = time.perf_counter() - t0
    return report

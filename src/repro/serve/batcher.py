"""Request batcher: coalesce same-shape 1-D scans into batched launches.

Queued requests are partitioned by *launch group*: requests whose
(algorithm, padded row length, dtype, s) match can ride the row-wise
batched kernels (:class:`~repro.core.batched.BatchedScanUKernel` /
``BatchedScanUL1Kernel`` / the batched vector baseline) as rows of one
2-D launch, each scattered back to its own ticket afterwards.

Batch sizes are rounded up to power-of-two *buckets* (rows beyond the
real batch are zero-padded), so the plan cache needs only ``log2``
distinct batched plans per shape class instead of one per observed batch
size.  Groups smaller than ``min_group`` — and requests the batched
kernels cannot serve (``mcscan``, exclusive scans) — fall back to 1-D
plans, one launch per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.api import BATCHED_ALGORITHMS
from .plan import PlanCache, PlanKey

__all__ = ["ScanRequest", "LaunchGroup", "RequestBatcher", "bucket_size"]


def bucket_size(batch: int, *, max_batch: int = 64) -> int:
    """Smallest power of two >= batch, capped at the largest power of two
    <= ``max_batch``.

    The cap must itself be a power of two: buckets are the plan cache's
    batched shape classes, and a non-power-of-two ``max_batch`` (say 48)
    would otherwise leak through as a bucket of 48 — a shape class that
    defeats the log2-classes guarantee and pads every 33-row batch as if
    it were 48 rows.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    cap = 1 << (max_batch.bit_length() - 1)
    return min(1 << (batch - 1).bit_length(), cap)


@dataclass
class ScanRequest:
    """One queued 1-D scan request (internal to the service)."""

    req_id: int
    x: np.ndarray
    algorithm: str
    s: int
    exclusive: bool
    #: host clock (perf_counter) at submit, for per-request latency
    t_submit: float
    #: explicit block_dim (only set by tuned configs; None = heuristic)
    block_dim: "int | None" = None
    #: True when the config came from a tuned-plan store lookup
    tuned: bool = False
    #: plan dtype name resolved once at submit (``_prepare``); grouping
    #: keys use it so int64 input and int8 input land in one shape class
    dtype: "str | None" = None
    #: simulated-clock arrival time (ns) under open-loop traffic; None for
    #: closed-loop submit/flush callers (no simulated arrival process)
    t_arrival_ns: "float | None" = None
    #: simulated-clock completion deadline (ns); None = no deadline
    deadline_ns: "float | None" = None
    #: shape-class plan key, set once by :meth:`RequestBatcher.shape_key`
    #: and carried through every queue the request passes (pool scheduler,
    #: pool batcher, member batcher, failover recall)
    key: "PlanKey | None" = None

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def plan_dtype(self) -> "str | np.dtype":
        """Dtype used for plan-cache keys (normalized name if resolved)."""
        return self.dtype if self.dtype is not None else self.x.dtype


@dataclass
class LaunchGroup:
    """A set of requests served by one device launch (or, for the 1-D
    fallback, one launch each)."""

    #: plan-cache shape class the group maps to (1-D key for fallbacks)
    key: PlanKey
    requests: "list[ScanRequest]" = field(default_factory=list)
    #: True when served as rows of one batched kernel launch
    batched: bool = False
    #: bucket row capacity of the batched launch (0 for fallbacks)
    bucket: int = 0
    #: True when the requests are operator-graph requests (replayed
    #: node-by-node by ``ScanService._serve_graph``, one replay each)
    graph: bool = False

    @property
    def padded_elements(self) -> int:
        """Padded element count of the *actual rows* the group carries —
        the cost proxy the device-pool router sorts by (LPT: heaviest
        group first) and deadline admission charges.

        Batched groups are costed by the rows launched, not the bucket
        capacity: a half-full bucket moves (and pays for) its real rows,
        and charging ``key.padded * bucket`` instead over-weighted it —
        the router would place a 5-row group in an 8-bucket ahead of a
        genuinely heavier group whose bucket happened to be fuller.
        """
        return self.key.padded * len(self.requests)


class RequestBatcher:
    """Accumulates requests and partitions them into launch groups."""

    def __init__(
        self,
        cache: PlanCache,
        *,
        max_batch: int = 64,
        min_group: int = 2,
        controller=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.cache = cache
        self.max_batch = max_batch
        self.min_group = min_group
        #: optional :class:`repro.verify.ScheduleController`; permutes the
        #: pending-queue order seen by ``drain``/``take_pending`` so the
        #: fuzzer can exercise every coalescing/failover interleaving
        #: (results must be submission-order independent)
        self.controller = controller
        self._pending: list[ScanRequest] = []
        #: requests that rode a batched launch / total drained, for stats
        self.coalesced = 0
        self.drained = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, request: ScanRequest) -> None:
        self._pending.append(request)

    def take_pending(self) -> "list[ScanRequest]":
        """Remove and return every queued request (failover drain).

        The device-pool serving layer uses this to recall work from a
        member that faulted before its queue was flushed.  Under a
        schedule controller the recall order is permuted — rerouted work
        must serve correctly whatever order the drain observes.
        """
        pending, self._pending = self._pending, []
        if self.controller is not None and len(pending) > 1:
            pending = self.controller.permute("batcher.take_pending", pending)
        return pending

    def _batchable(self, request: ScanRequest) -> bool:
        return (
            request.algorithm in BATCHED_ALGORITHMS and not request.exclusive
        )

    def shape_key(self, req: ScanRequest) -> PlanKey:
        """The request's shape class: its batched key at batch 1 when the
        batched kernels can serve it, its 1-D key otherwise.

        Computed on first use and carried on the request.  A key depends
        only on the request and the device config, and a pool's members
        share one config, so every batcher the request meets reuses it.
        Key construction also validates the algorithm and dtype.
        """
        if req.key is None:
            if self._batchable(req):
                req.key = self.cache.key_batched(
                    req.algorithm, 1, req.n, req.plan_dtype, s=req.s
                )
            else:
                req.key = self.cache.key_1d(
                    req.algorithm, req.n, req.plan_dtype, s=req.s,
                    exclusive=req.exclusive, block_dim=req.block_dim,
                )
        return req.key

    def drain(self) -> "list[LaunchGroup]":
        """Partition and clear the pending queue.

        Returns groups in deterministic order (by first-submitted request),
        splitting oversized groups at the bucket cap (the largest power of
        two <= ``max_batch``).
        """
        pending, self._pending = self._pending, []
        if self.controller is not None and len(pending) > 1:
            pending = self.controller.permute("batcher.drain", pending)
        self.drained += len(pending)
        by_shape: dict[PlanKey, LaunchGroup] = {}
        order: list[LaunchGroup] = []
        for req in pending:
            graph_key = getattr(req, "graph_key", None)
            if graph_key is not None:
                # graph requests group by lowered-program signature; the
                # key's batch is None, so the group passes through whole
                # below (each request replays its own captured programs)
                group = by_shape.get(graph_key)
                if group is None:
                    group = by_shape[graph_key] = LaunchGroup(
                        key=graph_key, graph=True
                    )
                    order.append(group)
                group.requests.append(req)
                continue
            key = self.shape_key(req)
            group = by_shape.get(key)
            if group is None:
                group = by_shape[key] = LaunchGroup(key=key)
                order.append(group)
            group.requests.append(req)

        out: list[LaunchGroup] = []
        # chunk at the bucket cap (pow2 floor of max_batch), not max_batch
        # itself: a 48-row chunk cannot ride a 32-row bucket
        chunk_rows = 1 << (self.max_batch.bit_length() - 1)
        for group in order:
            if (
                group.key.batch is None
                or len(group.requests) < self.min_group
            ):
                if group.key.batch is None:
                    # already a 1-D shape class
                    out.append(group)
                    continue
                # Batched class too small for a batched launch: fall back
                # to 1-D plans.  The 1-D key must be derived *per request*
                # — requests that share a batched shape class can still
                # differ in 1-D key (e.g. tuned block_dim, exclusive) —
                # so re-partition instead of keying off requests[0].
                fallback: dict[PlanKey, LaunchGroup] = {}
                for req in group.requests:
                    key = self.cache.key_1d(
                        req.algorithm,
                        req.n,
                        req.plan_dtype,
                        s=group.key.s,
                        exclusive=req.exclusive,
                        block_dim=req.block_dim,
                    )
                    sub = fallback.get(key)
                    if sub is None:
                        sub = fallback[key] = LaunchGroup(key=key)
                        out.append(sub)
                    sub.requests.append(req)
                continue
            for lo in range(0, len(group.requests), chunk_rows):
                chunk = group.requests[lo : lo + chunk_rows]
                bucket = bucket_size(len(chunk), max_batch=self.max_batch)
                out.append(
                    LaunchGroup(
                        key=PlanKey(
                            group.key.algorithm,
                            group.key.padded,
                            group.key.dtype,
                            bucket,
                            group.key.s,
                        ),
                        requests=chunk,
                        batched=True,
                        bucket=bucket,
                    )
                )
                self.coalesced += len(chunk)
        return out

"""The ``submit``/``flush`` scan service façade.

:meth:`ScanService.submit` validates and enqueues a 1-D scan request,
returning a :class:`ScanTicket` immediately; :meth:`ScanService.flush`
drains the queue through the :class:`~repro.serve.batcher.RequestBatcher`,
replays each launch group's simulated timeline via plan-cache hits
(building plans on first miss), computes the group's numerics in **one
stacked NumPy pass** (:mod:`repro.serve.numerics` — bit-identical to the
per-request path), scatters results back onto the tickets, and records
per-request host latency plus per-launch simulated throughput.

Each launch is split into its two independent halves: the schedule-facing
timeline replay (fault injection, retries, busy-time accounting — always
on the calling thread, in deterministic order) and the pure functional
numerics, which are deferred as jobs on a
:class:`~repro.serve.executor.HostExecutor` and joined before ``flush``
returns.  With ``parallel=`` workers the numerics run on pool threads —
results and schedules stay bit-identical because the jobs are pure.

This mirrors how an inference-serving integration drives the paper's
operators: shapes recur, so tracing cost is paid once per shape class and
the steady state is functional compute + scheduling only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.api import ScanContext, ScanPlan
from ..errors import DeviceFault, KernelError, ShapeError
from ..hw.config import ASCEND_910B4, DeviceConfig
from .batcher import LaunchGroup, RequestBatcher, ScanRequest
from .executor import HostExecutor, HostJob
from .numerics import group_scan_values
from .plan import PlanCache
from .resilience import RetryPolicy
from .stats import LaunchRecord, ServiceStats

__all__ = ["ScanTicket", "ScanService"]

#: EWMA weight for the observed-slowdown estimate (new launches count 25%)
_SLOWDOWN_ALPHA = 0.25


def _sorted_by_submit_sequence(tickets: "list[ScanTicket]") -> "list[ScanTicket]":
    """Order completed tickets by submit sequence.

    ``req_id`` *is* the submit-sequence key: scan and graph submissions
    draw from one monotone counter per façade (``_next_id``), so sorting
    on it returns mixed scan+graph traffic in submit order.  That only
    holds while ids stay unique — a duplicate would mean two requests
    shared a sequence slot (one of them mis-ordered, its twin's ticket
    silently clobbered upstream), so it is asserted here rather than
    assumed.
    """
    tickets.sort(key=lambda t: t.req_id)
    for prev, cur in zip(tickets, tickets[1:]):
        if prev.req_id == cur.req_id:
            raise KernelError(
                f"two completed tickets share request id {cur.req_id}; "
                f"submit-order return needs one monotone id sequence "
                f"across scan and graph traffic"
            )
    return tickets


@dataclass
class ScanTicket:
    """Handle for one submitted request; filled in by ``flush``."""

    req_id: int
    n: int
    algorithm: str
    dtype: str
    s: int
    exclusive: bool
    done: bool = False
    values: "np.ndarray | None" = None
    #: wall seconds from submit to completion (queueing + execution)
    host_s: float = 0.0
    #: simulated device time of the launch that served this request; shared
    #: across the whole batch for batched launches (see ``batch_size``)
    device_ns: float = 0.0
    #: True when the serving launch reused a cached plan
    plan_hit: bool = False
    #: True when served as a row of a coalesced batched launch
    batched: bool = False
    #: number of requests sharing the launch (1 for single launches)
    batch_size: int = 1
    #: True when the plan config came from the tuned-plan store
    tuned: bool = False
    #: explicit block_dim the tuned config requested (None = heuristic)
    block_dim: "int | None" = None
    #: pool member index that served the request (None outside device pools)
    device: "int | None" = None
    #: relaunches absorbed while serving this request (incl. failovers)
    retries: int = 0
    #: DeviceFaults observed while serving this request
    faults: int = 0
    #: simulated-clock arrival time (ns); None outside open-loop traffic
    t_arrival_ns: "float | None" = None
    #: simulated-clock time the request's batch was admitted onto a device
    #: queue (staged for launch); None outside open-loop traffic
    t_admit_ns: "float | None" = None
    #: simulated-clock completion time (ns); None outside open-loop traffic
    t_complete_ns: "float | None" = None
    #: simulated-clock completion deadline (ns); None = no deadline
    deadline_ns: "float | None" = None
    #: True/False once completion was judged against the deadline; None
    #: when no deadline applies (or the request was never served)
    deadline_met: "bool | None" = None

    @property
    def sim_latency_ns(self) -> "float | None":
        """Simulated arrival-to-completion latency (queueing + batching
        wait + device time); None outside open-loop traffic."""
        if self.t_arrival_ns is None or self.t_complete_ns is None:
            return None
        return self.t_complete_ns - self.t_arrival_ns

    @classmethod
    def for_request(cls, req: ScanRequest) -> "ScanTicket":
        """The unfilled ticket of one prepared request (id assigned)."""
        return cls(
            req_id=req.req_id,
            n=req.n,
            algorithm=req.algorithm,
            dtype=req.dtype,
            s=req.s,
            exclusive=req.exclusive,
            tuned=req.tuned,
            block_dim=req.block_dim,
            t_arrival_ns=req.t_arrival_ns,
            deadline_ns=req.deadline_ns,
        )

    def result(self) -> np.ndarray:
        if not self.done:
            raise RuntimeError(
                f"request {self.req_id} is still queued; call flush() first"
            )
        return self.values


class ScanService:
    """Plan-cached, request-batching front end over a scan context."""

    def __init__(
        self,
        ctx: "ScanContext | None" = None,
        *,
        config: DeviceConfig = ASCEND_910B4,
        max_batch: int = 64,
        min_group: int = 2,
        batching: bool = True,
        validate_plans: bool = True,
        gm_budget: "int | None" = None,
        tune_store=None,
        retry: "RetryPolicy | None" = None,
        controller=None,
        parallel: "int | None" = None,
        executor: "HostExecutor | None" = None,
        graph_fusion: str = "conservative",
    ):
        self.ctx = ctx if ctx is not None else ScanContext(config)
        #: host executor the group numerics jobs run on — shared when the
        #: pool front end hands one in, owned (and built from ``parallel``)
        #: otherwise.  Parallelism here is invisible to results and
        #: schedules: only pure NumPy passes are deferred.
        if executor is not None:
            self.executor = executor
            self._owns_executor = False
        else:
            self.executor = HostExecutor(parallel)
            self._owns_executor = True
        #: pending (numerics job, rows-to-finish) pairs; joined by
        #: :meth:`resolve_deferred` at the end of every flush (or by the
        #: pool front end, after every member flushed, when it set
        #: ``_defer_external`` for cross-member overlap)
        self._deferred: "list[tuple[HostJob, list]]" = []
        self._defer_external = False
        #: bounded-retry discipline for transient DeviceFaults
        self.retry = retry if retry is not None else RetryPolicy()
        #: EWMA of served launch time (incl. stretch + backoff) over the
        #: healthy memoized timeline; 1.0 on an undisturbed device.  The
        #: pool router weights its load estimate by this.
        self.observed_slowdown = 1.0
        #: tuned-plan store consulted when submit() is given no explicit
        #: algorithm/s (see repro.tune.TuneStore); also exposed to the
        #: context so direct build_plan(tuned=True) calls share it
        self.tune_store = tune_store
        if tune_store is not None:
            self.ctx.tune_store = tune_store
        self.cache = PlanCache(
            self.ctx, validate=validate_plans, gm_budget=gm_budget
        )
        self.batcher = RequestBatcher(
            self.cache,
            max_batch=max_batch,
            # min_group above any queue length disables coalescing entirely
            min_group=min_group if batching else (1 << 62),
            controller=controller,
        )
        self.stats = ServiceStats()
        self._tickets: dict[int, ScanTicket] = {}
        self._next_id = 0
        #: lazily-built operator-graph runner (shared across a pool's
        #: members by the pool front end); see repro.graph.interp
        self.graph_runner = None
        #: fusion mode the runner is built with (off/conservative/aggressive)
        self.graph_fusion = graph_fusion

    # -- submission ---------------------------------------------------------

    def _prepare(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
    ) -> ScanRequest:
        """Validate one submission into a keyed request that has no id,
        ticket or queue slot yet (``req_id`` is -1).

        This is the whole per-submission validation, run once: ``submit``
        then numbers and tracks the request, and the device-pool front end
        (:class:`repro.shard.PoolScanService`) does the same at admission,
        after the open-loop scheduler has costed and placed it."""
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(f"submit expects a 1-D array, got shape {x.shape}")
        if x.size == 0:
            raise ShapeError("submit expects a non-empty array")
        x, dt = self._normalize_input(x)
        tuned = False
        block_dim: "int | None" = None
        if algorithm is None and s is None and self.tune_store is not None:
            t_tune = time.perf_counter()
            entry = self.tune_store.lookup_1d(
                n=x.size, dtype=dt.name, exclusive=exclusive
            )
            self.stats.add_phase("tune", time.perf_counter() - t_tune)
            if entry is not None:
                algorithm = entry.algorithm
                s = entry.s
                block_dim = entry.block_dim
                tuned = True
        if algorithm is None:
            algorithm = "scanu"
        if s is None:
            s = 128
        req = ScanRequest(
            req_id=-1,
            x=x,
            algorithm=algorithm,
            s=s,
            exclusive=exclusive,
            t_submit=time.perf_counter(),
            block_dim=block_dim,
            tuned=tuned,
            dtype=dt.name,
        )
        # keying validates the algorithm early; the key rides the request
        self.batcher.shape_key(req)
        return req

    def _normalize_input(
        self, x: np.ndarray
    ) -> "tuple[np.ndarray, object]":
        """Resolve the plan dtype exactly once, at submit.

        Integer inputs whose values fit int8 are narrowed here, so every
        downstream consumer — batcher grouping keys, plan-cache keys,
        pool routing — sees one canonical shape class instead of re-keying
        from ``x.dtype`` and fragmenting the cache.  fp16/int8 pass
        through; everything else (including float32, whose narrowing
        would silently lose precision) is rejected exactly as before.
        """
        try:
            return x, self.ctx._as_plan_dtype(x.dtype)
        except KernelError:
            if x.dtype.kind in "iu":
                info = np.iinfo(np.int8)
                if int(x.min()) >= info.min and int(x.max()) <= info.max:
                    return x.astype(np.int8), self.ctx._as_plan_dtype(np.int8)
            raise

    def submit(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
    ) -> ScanTicket:
        """Enqueue one 1-D scan; returns an unfilled ticket.

        ``algorithm``/``s`` of None mean *let the service decide*: with a
        tuned-plan store attached, the workload is looked up there and a
        hit supplies algorithm, tile size and block_dim; otherwise (and
        for explicit arguments, which always win) the heuristic default
        ``scanu``/``s=128`` applies.
        """
        req = self._prepare(x, algorithm=algorithm, s=s, exclusive=exclusive)
        req.req_id = self._next_id
        self._next_id += 1
        ticket = ScanTicket.for_request(req)
        self.enqueue(req, ticket)
        return ticket

    def enqueue(self, req: ScanRequest, ticket: ScanTicket) -> None:
        """Accept an already-prepared request/ticket pair (used directly by
        the pool front end after routing; ``submit`` is prepare + enqueue).

        Request ids double as the submit-sequence key ``flush`` orders
        completed tickets by, so they must be unique within one service:
        a colliding id would silently overwrite a tracked ticket (a lost
        request) and break submit-order return.  Scan and graph requests
        draw from one monotone ``_next_id`` counter precisely so this
        holds for mixed traffic too.
        """
        if req.req_id in self._tickets:
            raise KernelError(
                f"request id {req.req_id} is already tracked; scan and "
                f"graph submissions must draw from one id sequence"
            )
        self._tickets[req.req_id] = ticket
        self.batcher.add(req)

    def scan(self, x: np.ndarray, **kwargs) -> ScanTicket:
        """Convenience: submit one request and flush immediately."""
        ticket = self.submit(x, **kwargs)
        self.flush()
        return ticket

    # -- graph submission ----------------------------------------------------

    def _graph_runner(self):
        """The service's operator-graph runner, built on first use (the
        import is deferred: repro.graph imports from repro.serve)."""
        if self.graph_runner is None:
            from ..graph.interp import GraphRunner

            self.graph_runner = GraphRunner(
                self.ctx.device.config,
                tune_store=self.tune_store,
                fusion=self.graph_fusion,
            )
        return self.graph_runner

    def _prepare_graph(
        self, graph, inputs, *, params=None, req_id: "int | None" = None
    ):
        """Validate one graph submission and materialise its request +
        ticket without enqueueing (the pool front end's routing seam,
        mirroring :meth:`_prepare`)."""
        from ..graph.service import GraphKey, GraphRequest, GraphTicket

        t0 = time.perf_counter()
        bound = graph.bind(inputs)
        signature = graph.signature()
        self.stats.add_phase("trace", time.perf_counter() - t0)
        if req_id is None:
            req_id = self._next_id
            self._next_id += 1
        total = sum(v.size for v in bound.values())
        key = GraphKey(graph=graph.name, signature=signature, padded=total)
        req = GraphRequest(
            req_id=req_id,
            graph=graph,
            inputs=bound,
            params=dict(params) if params else None,
            graph_key=key,
            t_submit=time.perf_counter(),
        )
        first = next(iter(bound.values()))
        ticket = GraphTicket(
            req_id=req_id,
            n=total,
            algorithm="graph",
            dtype=str(first.dtype),
            s=0,
            exclusive=False,
            graph=graph.name,
            nodes=len(graph.nodes),
        )
        return req, ticket

    def submit_graph(self, graph, inputs, *, params=None):
        """Enqueue one operator-graph request; returns an unfilled
        :class:`~repro.graph.service.GraphTicket`.

        ``inputs`` is a dict (or declaration-order sequence) of input
        arrays; ``params`` optionally overrides runtime node parameters
        per node name (e.g. ``{"sample": {"theta": 0.73}}``).  The request
        rides the same queue, flush, retry and failover machinery as scan
        requests; its numerics are the graph's NumPy oracle, so results
        are bit-identical to :func:`repro.graph.oracle_outputs` by
        construction, while device time is accounted by replaying the
        captured per-node programs.
        """
        req, ticket = self._prepare_graph(graph, inputs, params=params)
        self.enqueue(req, ticket)
        return ticket

    @property
    def pending(self) -> int:
        return len(self.batcher)

    # -- execution ----------------------------------------------------------

    def flush(self) -> "list[ScanTicket]":
        """Serve every queued request; returns their tickets in submit order.

        Exception-safe: if a launch fails terminally (a permanent
        :class:`~repro.errors.DeviceFault`, or retries exhausted), every
        not-yet-served request — including the failing group's — is
        re-queued with its ticket still tracked before the fault
        propagates, so a later ``flush()`` (or the pool's failover onto
        another member) can still serve it.  No ticket is ever lost.
        """
        groups = self.batcher.drain()
        completed: list[ScanTicket] = []
        try:
            for gi, group in enumerate(groups):
                try:
                    if group.graph:
                        completed.extend(self._serve_graph(group))
                    elif group.batched:
                        completed.extend(self._serve_batched(group))
                    else:
                        completed.extend(self._serve_singles(group))
                except Exception:
                    for later in groups[gi + 1 :]:
                        self._requeue(later.requests)
                    raise
        except Exception:
            # tickets whose launch already succeeded must still get their
            # values before the fault propagates — failover (the pool's
            # recall) keys off ``ticket.done``
            self.resolve_deferred()
            raise
        if not self._defer_external:
            self.resolve_deferred()
        return _sorted_by_submit_sequence(completed)

    def resolve_deferred(self) -> None:
        """Join every pending numerics job and finish its tickets.

        Called at the end of every flush (and on the fault path before the
        exception propagates).  Under an external owner — the pool front
        end defers resolution across members so their numerics overlap —
        this runs once after all members flushed.  Idempotent."""
        deferred, self._deferred = self._deferred, []
        for job, rows in deferred:
            values, numerics_s = job.result()
            self.stats.add_phase("numerics", numerics_s)
            for local_i, ticket, req in rows:
                ticket.values = values[local_i]
                self._finish(ticket, req)

    def shutdown(self) -> None:
        """Join pending numerics and release owned executor threads."""
        self.resolve_deferred()
        if self._owns_executor:
            self.executor.shutdown()

    def _requeue(self, requests: "list[ScanRequest]") -> None:
        """Put unserved requests back on the queue (tickets stay tracked)."""
        for req in requests:
            self.batcher.add(req)

    def _replay_with_retry(self, replay_fn):
        """Run one launch attempt (``replay_fn`` returning its traces as a
        list) under the retry policy.

        Returns ``(traces, retries, faults, backoff_ns)`` on success.
        Transient faults are retried up to ``retry.max_attempts`` total
        attempts, each retry charging exponential backoff to simulated
        device time.  A permanent fault, or exhausting the attempts,
        re-raises the final :class:`~repro.errors.DeviceFault` with its
        ``attempts`` stamped.  Every fault (served or not) is counted in
        ``stats.fault_events``.

        This is the schedule-bearing half of a launch (fault draws,
        slowdown EWMA, simulated time) and always runs on the calling
        thread; the numerics half is deferred separately.  Scan launches
        replay one plan timeline per attempt; graph requests call this
        once per captured kernel, so a transient fault relaunches only
        the kernel it hit, not the whole multi-node replay (the numerics
        are oracle-computed, so a replayed prefix has no side effects to
        undo).
        """
        t0 = time.perf_counter()
        try:
            policy = self.retry
            default_backoff = self.ctx.config.costs.relaunch_backoff_ns
            backoff_ns = 0.0
            faults = 0
            attempt = 0
            while True:
                attempt += 1
                try:
                    traces = replay_fn()
                except DeviceFault as fault:
                    self.stats.record_fault()
                    faults += 1
                    if fault.permanent or attempt >= policy.max_attempts:
                        fault.attempts = attempt
                        raise
                    backoff_ns += policy.backoff_for(attempt - 1, default_backoff)
                    continue
                total_ns = sum(t.total_ns for t in traces)
                nominal = total_ns - sum(t.stretch_ns for t in traces)
                if nominal > 0:
                    observed = (total_ns + backoff_ns) / nominal
                    self.observed_slowdown += _SLOWDOWN_ALPHA * (
                        observed - self.observed_slowdown
                    )
                return traces, attempt - 1, faults, backoff_ns
        finally:
            self.stats.add_phase("timeline", time.perf_counter() - t0)

    def _replay_plan(self, plan: ScanPlan):
        """Replay ``plan``'s simulated timeline under the retry policy;
        returns ``(trace, retries, faults, backoff_ns)``."""
        traces, retries, faults, backoff_ns = self._replay_with_retry(
            lambda: [plan.replay_timing()]
        )
        return traces[0], retries, faults, backoff_ns

    def _get_plan(self, group: LaunchGroup) -> "tuple[ScanPlan, bool]":
        key = group.key
        t0 = time.perf_counter()
        hit = key in self.cache
        plan = self.cache.get_batched(
            key.algorithm, key.batch, key.padded, key.dtype, s=key.s,
            tuned=any(r.tuned for r in group.requests),
        )
        if not hit:
            self.stats.add_phase("trace", time.perf_counter() - t0)
        return plan, hit

    def _finish(self, ticket: ScanTicket, req: ScanRequest) -> None:
        ticket.done = True
        ticket.host_s = time.perf_counter() - req.t_submit
        self.stats.record_request(ticket.host_s)

    def _submit_numerics(
        self,
        xs: "list[np.ndarray]",
        *,
        algorithm: str,
        in_dtype,
        exclusive: bool,
    ) -> "list[tuple[int, tuple[HostJob, list]]]":
        """Start the group's stacked numerics, split into row chunks when
        the executor is parallel.  Returns ``(chunk_lo, deferred_entry)``
        pairs; :meth:`_defer_row` routes each served row to its chunk.

        Chunking is by row index, so the split — and therefore every
        result bit — is independent of worker count and thread timing.
        """
        chunks = self.executor.chunk_count(len(xs))
        size = -(-len(xs) // chunks)
        entries = []
        for lo in range(0, len(xs), size):
            job = self.executor.submit(
                group_scan_values,
                xs[lo : lo + size],
                algorithm=algorithm,
                in_dtype=in_dtype,
                exclusive=exclusive,
            )
            entry = (job, [])
            self._deferred.append(entry)
            entries.append((lo, entry))
        return entries

    def _defer_row(
        self, entries, i: int, ticket: ScanTicket, req: ScanRequest
    ) -> None:
        """Mark group row ``i`` for resolution once its chunk's job joins."""
        for lo, entry in reversed(entries):
            if lo <= i:
                entry[1].append((i - lo, ticket, req))
                return
        raise KernelError(f"row {i} matches no numerics chunk")

    def _serve_batched(self, group: LaunchGroup) -> "list[ScanTicket]":
        plan, hit = self._get_plan(group)
        # numerics are pure, so they start before the replay and overlap it
        # under a parallel executor; a terminal fault below simply leaves
        # the job's rows unclaimed (the requests go back on the queue)
        entries = self._submit_numerics(
            [req.x for req in group.requests],
            algorithm=plan.algorithm,
            in_dtype=plan.in_dtype,
            exclusive=False,
        )
        hits_before = plan.timeline_hits
        try:
            trace, retries, faults, backoff_ns = self._replay_plan(plan)
        except Exception:
            # tickets stay tracked; the whole group goes back on the queue
            self._requeue(group.requests)
            raise
        group_tuned = any(r.tuned for r in group.requests)
        per_launch_n = sum(req.n for req in group.requests)
        io = per_launch_n * plan._io_bytes_per_element()
        served_ns = trace.total_ns + backoff_ns
        self.stats.record_launch(
            LaunchRecord(
                kind="batched",
                device_ns=served_ns,
                n_elements=per_launch_n,
                io_bytes=io,
                requests=len(group.requests),
                plan_hit=hit,
                timeline_hit=plan.timeline_hits > hits_before,
                tuned=group_tuned,
                retries=retries,
                faults=faults,
                backoff_ns=backoff_ns,
            )
        )
        tickets = []
        for i, req in enumerate(group.requests):
            # pop only after the launch succeeded: a fault above leaves
            # every ticket of the group pending, not silently dropped
            ticket = self._tickets.pop(req.req_id)
            ticket.device_ns = served_ns
            ticket.plan_hit = hit
            ticket.batched = True
            ticket.batch_size = len(group.requests)
            ticket.retries += retries
            ticket.faults += faults
            self._defer_row(entries, i, ticket, req)
            tickets.append(ticket)
        return tickets

    def _serve_singles(self, group: LaunchGroup) -> "list[ScanTicket]":
        # every request in a fallback group shares one exact 1-D plan key
        # (the batcher re-partitions per request), so the whole group's
        # numerics ride one stacked pass; each request still gets its own
        # launch — its own replay, fault draws and simulated time
        key = group.key
        entries = self._submit_numerics(
            [req.x for req in group.requests],
            algorithm=key.algorithm,
            in_dtype=self.ctx._as_plan_dtype(key.dtype),
            exclusive=key.exclusive,
        )
        tickets = []
        for idx, req in enumerate(group.requests):
            t0 = time.perf_counter()
            hit = key in self.cache
            plan = self.cache.get_1d(
                req.algorithm, req.n, req.plan_dtype, s=req.s,
                exclusive=req.exclusive, block_dim=req.block_dim,
                tuned=req.tuned,
            )
            if not hit:
                self.stats.add_phase("trace", time.perf_counter() - t0)
            hits_before = plan.timeline_hits
            try:
                trace, retries, faults, backoff_ns = self._replay_plan(plan)
            except Exception:
                # this request and everything after it go back on the queue
                self._requeue(group.requests[idx:])
                raise
            served_ns = trace.total_ns + backoff_ns
            self.stats.record_launch(
                LaunchRecord(
                    kind="single",
                    device_ns=served_ns,
                    n_elements=req.n,
                    io_bytes=req.n * plan._io_bytes_per_element(),
                    requests=1,
                    plan_hit=hit,
                    timeline_hit=plan.timeline_hits > hits_before,
                    tuned=req.tuned,
                    retries=retries,
                    faults=faults,
                    backoff_ns=backoff_ns,
                )
            )
            ticket = self._tickets.pop(req.req_id)
            ticket.device_ns = served_ns
            ticket.plan_hit = hit
            ticket.retries += retries
            ticket.faults += faults
            self._defer_row(entries, idx, ticket, req)
            tickets.append(ticket)
        return tickets

    def _serve_graph(self, group: LaunchGroup) -> "list[ScanTicket]":
        """Serve a group of same-signature graph requests: lower once per
        shape class (cached), replay every node's captured programs per
        request under the retry policy, defer oracle numerics, and record
        per-op device/host breakdowns.

        Requests in a graph group share lowered programs but replay
        independently — each gets its own fault draws and simulated time,
        exactly like the 1-D fallback path.  Retry granularity is one
        captured kernel (the unit of a device launch): a multi-node graph
        replays tens of kernels per request, and all-or-nothing retry
        would make the request's success probability vanish under
        per-launch fault rates."""
        from ..graph.service import graph_oracle_job

        runner = self._graph_runner()
        tickets = []
        for idx, req in enumerate(group.requests):
            t0 = time.perf_counter()
            entries, built = runner.lower(req.graph)
            if built:
                self.stats.add_phase("trace", time.perf_counter() - t0)
            node_spans: list = []
            traces: list = []
            retries = faults = 0
            backoff_ns = 0.0
            hits_before = sum(
                tk.timeline_hits for _, low in entries for tk in low.traced
            )
            try:
                for node, low in entries:
                    t_node = time.perf_counter()
                    span = []
                    for tk in low.traced:
                        ktr, kretries, kfaults, kbackoff = (
                            self._replay_with_retry(
                                lambda tk=tk, node=node: [
                                    self.ctx.device.replay(
                                        tk,
                                        label=(
                                            f"graph {req.graph.name}"
                                            f".{node.name}"
                                        ),
                                    )
                                ]
                            )
                        )
                        span.append(ktr[0])
                        retries += kretries
                        faults += kfaults
                        backoff_ns += kbackoff
                    low.replays += 1
                    node_spans.append(
                        (low, span, time.perf_counter() - t_node)
                    )
                    traces.extend(span)
            except Exception:
                # this request and everything after it go back on the queue
                self._requeue(group.requests[idx:])
                raise
            hits_after = sum(
                tk.timeline_hits for _, low in entries for tk in low.traced
            )
            for low, span, node_host_s in node_spans:
                span_ns = sum(t.total_ns for t in span)
                if low.members:
                    # fused region: attribute the span back to the member
                    # kinds by the build-time device-time weights, so the
                    # per-op breakdown matches the unfused vocabulary
                    for kind, w in low.members:
                        self.stats.record_op(
                            kind, span_ns * w, host_s=node_host_s * w
                        )
                else:
                    self.stats.record_op(low.kind, span_ns, host_s=node_host_s)
            served_ns = sum(t.total_ns for t in traces) + backoff_ns
            io = sum(v.nbytes for v in req.inputs.values())
            self.stats.record_launch(
                LaunchRecord(
                    kind="graph",
                    device_ns=served_ns,
                    n_elements=req.n,
                    io_bytes=io,
                    requests=1,
                    plan_hit=not built,
                    timeline_hit=hits_after > hits_before,
                    tuned=any(low.tuned for _, low in entries),
                    retries=retries,
                    faults=faults,
                    backoff_ns=backoff_ns,
                )
            )
            # pop only after the launch succeeded (see _serve_singles)
            ticket = self._tickets.pop(req.req_id)
            ticket.device_ns = served_ns
            ticket.plan_hit = not built
            ticket.tuned = any(low.tuned for _, low in entries)
            ticket.retries += retries
            ticket.faults += faults
            ticket.launches = len(traces)
            ticket.batch_size = len(group.requests)
            job = self.executor.submit(
                graph_oracle_job, req.graph, req.inputs, req.params
            )
            self._deferred.append((job, [(0, ticket, req)]))
            tickets.append(ticket)
        return tickets

    # -- reporting ----------------------------------------------------------

    def summary(self) -> str:
        cache = self.cache.stats()
        lines = [
            "scan service",
            f"plan cache      : {cache['plans']} plans "
            f"({cache['tuned_plans']} tuned), "
            f"{cache['hits']} hits / {cache['misses']} misses, "
            f"{cache['evictions']} evictions "
            f"({cache['evicted_gm_bytes'] / 1e6:.1f} MB freed), "
            f"{cache['build_host_s'] * 1e3:.1f} ms build time, "
            f"{cache['gm_bytes'] / 1e6:.1f} MB GM pinned",
            f"timeline cache  : {cache['timeline_hits']} hits / "
            f"{cache['timeline_misses']} misses (memoized replays)",
        ]
        if self.graph_runner is not None:
            g = self.graph_runner.cache.stats()
            lines.append(
                f"graph cache     : {g['lowered']} lowered "
                f"({g['fused']} fused, {g['tuned']} tuned, "
                f"fusion={self.graph_fusion}), "
                f"{g['hits']} hits / {g['misses']} misses, "
                f"{g['replays']} replays, "
                f"{g['build_host_s'] * 1e3:.1f} ms build time"
            )
        if self.tune_store is not None:
            lines.append(
                f"tuned store     : {len(self.tune_store)} entries, "
                f"{self.tune_store.lookup_hits} lookup hits / "
                f"{self.tune_store.lookup_misses} misses"
            )
        lines.append(self.stats.summary())
        return "\n".join(lines)

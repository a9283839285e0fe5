"""Device-pool request serving: least-loaded routing over pool members.

:class:`PoolScanService` is the multi-device front end to the serve
layer: one shared :class:`~repro.serve.batcher.RequestBatcher` coalesces
submissions exactly as a single :class:`~repro.serve.service.ScanService`
would (launch groups are shape classes, so grouping is device-agnostic),
then ``flush`` routes whole groups onto pool members **longest-processing-
time first**: groups are ordered by padded element count descending and
each is placed on the member with the least accumulated simulated busy
time.  LPT keeps the makespan within 4/3 of optimal, and placing whole
groups preserves every batching win the single-device layer earned.

Each member runs its own :class:`ScanService` — per-device plan cache,
per-device stats — while all of them share one tuned-plan store, so a
workload tuned once serves the whole pool.  Aggregate throughput is
total logical elements over the pool **makespan** (the busiest member's
simulated time): members run concurrently, so that is the simulated
wall-clock of the whole mix.

``parallel=`` adds *host-side* concurrency behind the same semantics:
members share one :class:`~repro.serve.executor.HostExecutor`, every
schedule-bearing step (drains, routing, fault draws, timeline replays,
busy-time updates) stays serial on the calling thread in identical
order, and only the pure stacked numerics run on pool threads — deferred
across members and joined after the routing loop, so a D-member flush
overlaps all members' NumPy passes.  Same seed, same oracle bits, same
tickets, same simulated timeline, with or without workers.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import DeviceFault
from ..hw.config import ASCEND_910B4, DeviceConfig
from ..serve.batcher import LaunchGroup, RequestBatcher, ScanRequest
from ..serve.executor import HostExecutor
from ..serve.resilience import (
    DEAD,
    DEGRADED,
    HEALTHY,
    SLOWDOWN_DEGRADED_THRESHOLD,
    MemberHealth,
    RetryPolicy,
)
from ..serve.service import (
    ScanService,
    ScanTicket,
    _sorted_by_submit_sequence,
)
from ..serve.stats import HOST_PHASES
from .pool import DevicePool

__all__ = ["PoolScanService"]


class PoolScanService:
    """Pooled ``submit``/``flush`` façade with least-loaded group routing."""

    def __init__(
        self,
        num_devices: int = 2,
        *,
        config: DeviceConfig = ASCEND_910B4,
        pool: "DevicePool | None" = None,
        tune_store=None,
        max_batch: int = 64,
        min_group: int = 2,
        batching: bool = True,
        validate_plans: bool = True,
        gm_budget: "int | None" = None,
        retry: "RetryPolicy | None" = None,
        controller=None,
        parallel: "int | None" = None,
        graph_fusion: str = "conservative",
    ):
        self.pool = (
            pool
            if pool is not None
            else DevicePool(num_devices, config, tune_store=tune_store)
        )
        self.tune_store = (
            tune_store if tune_store is not None else self.pool.tune_store
        )
        #: optional :class:`repro.verify.ScheduleController`; permutes the
        #: launch-group pick order (simulated member completion order),
        #: routing tie-breaks, and every member batcher's drain order
        self.controller = controller
        #: shared host executor all members' numerics jobs run on;
        #: ``parallel=None``/0/1 keeps everything inline on this thread
        self.executor = HostExecutor(parallel)
        self.workers = [
            ScanService(
                ctx,
                max_batch=max_batch,
                min_group=min_group,
                batching=batching,
                validate_plans=validate_plans,
                gm_budget=gm_budget,
                tune_store=self.tune_store,
                retry=retry,
                controller=controller,
                executor=self.executor,
                graph_fusion=graph_fusion,
            )
            for ctx in self.pool
        ]
        #: host seconds spent on pool-level scheduling (drain, LPT sort,
        #: group picks, routing, failover bookkeeping) — everything in
        #: ``flush`` that is not member serving time
        self.routing_host_s = 0.0
        # the shared batcher only needs a cache for key construction, and
        # plan keys are shape classes — device-independent by design
        self.batcher = RequestBatcher(
            self.workers[0].cache,
            max_batch=max_batch,
            min_group=min_group if batching else (1 << 62),
            controller=controller,
        )
        #: accumulated simulated busy ns per member (the routing load)
        self.busy_ns = [0.0] * len(self.workers)
        #: true pool makespan: simulated wall-clock accumulated across
        #: serving rounds.  Members run concurrently *within* a round (a
        #: flush, or one scheduler dispatch window), so each round adds
        #: its longest member delta; rounds are sequential, so the deltas
        #: add up — unlike ``max(busy_ns)``, idle time a member spends
        #: waiting between rounds is part of the span
        self.span_ns = 0.0
        #: host seconds spent inside member serving (``_dispatch``), used
        #: to separate routing time from member time in ``phase_host_s``
        self._member_host_s = 0.0
        #: launch groups routed to each member
        self.groups_routed = [0] * len(self.workers)
        #: launch groups recalled from each member after a terminal fault
        self.failovers = [0] * len(self.workers)
        self._dead = [False] * len(self.workers)
        #: per-group reroute budget before flush gives up and re-raises;
        #: generous — a group only burns one unit when a member exhausts
        #: its whole retry policy on it
        self._max_group_failovers = 3 * len(self.workers)
        self._tickets: dict[int, ScanTicket] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.workers)

    # -- submission ----------------------------------------------------------

    def _prepare(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
    ) -> ScanRequest:
        """Validate one pool submission into a keyed request with no id or
        ticket yet (see :meth:`ScanService._prepare`).  Plan keys are
        shape classes of the pool's one device config, so member 0's
        validation serves every member."""
        return self.workers[0]._prepare(
            x, algorithm=algorithm, s=s, exclusive=exclusive
        )

    def _admit(
        self,
        req: ScanRequest,
        *,
        t_arrival_ns: "float | None" = None,
        deadline_ns: "float | None" = None,
    ) -> ScanTicket:
        """Give a prepared request its pool id and simulated timestamps,
        and track its ticket, without enqueueing — the admission seam the
        open-loop traffic scheduler
        (:class:`repro.shard.scheduler.TrafficScheduler`) uses to own
        batching itself while ids, tickets and routing stay pool-level.
        Arrivals it sheds never reach here, so they take no id."""
        req.req_id = self._next_id
        self._next_id += 1
        req.t_arrival_ns = t_arrival_ns
        req.deadline_ns = deadline_ns
        ticket = self._tickets[req.req_id] = ScanTicket.for_request(req)
        return ticket

    def submit(
        self,
        x: np.ndarray,
        *,
        algorithm: "str | None" = None,
        s: "int | None" = None,
        exclusive: bool = False,
    ) -> ScanTicket:
        """Enqueue one 1-D scan on the pool; the serving device is chosen
        at ``flush`` time (the ticket's ``device`` field records it)."""
        req = self._prepare(x, algorithm=algorithm, s=s, exclusive=exclusive)
        ticket = self._admit(req)
        self.batcher.add(req)
        return ticket

    def submit_graph(self, graph, inputs, *, params=None) -> ScanTicket:
        """Enqueue one operator-graph request on the pool (see
        :meth:`ScanService.submit_graph`); the serving member is chosen at
        ``flush`` time.

        All members share one :class:`~repro.graph.interp.GraphRunner`:
        lowered programs are captured on its build device and replay on
        any member (timelines are memoized per config identity), so a
        graph lowered once serves the whole pool — exactly like the
        shared tuned-plan store."""
        req_id = self._next_id
        self._next_id += 1
        req, ticket = self.workers[0]._prepare_graph(
            graph, inputs, params=params, req_id=req_id
        )
        runner = self.workers[0]._graph_runner()
        for worker in self.workers[1:]:
            if worker.graph_runner is None:
                worker.graph_runner = runner
        self._tickets[req_id] = ticket
        self.batcher.add(req)
        return ticket

    def scan(self, x: np.ndarray, **kwargs) -> ScanTicket:
        """Convenience: submit one request and flush immediately."""
        ticket = self.submit(x, **kwargs)
        self.flush()
        return ticket

    @property
    def pending(self) -> int:
        return len(self.batcher)

    # -- execution -----------------------------------------------------------

    def _alive(self) -> "list[int]":
        return [i for i in range(len(self.workers)) if not self._dead[i]]

    def _route_target(self) -> int:
        """Least-loaded alive member, weighting accumulated busy time by
        each member's observed slowdown — a degraded device looks
        proportionally busier, so new work drifts to healthy members.

        Load ties (common on a fresh pool) are broken by the schedule
        controller when one is attached: tied members are interchangeable,
        so results must not depend on which wins."""
        alive = self._alive()
        if not alive:
            raise DeviceFault(
                "every pool member is dead; no device left to serve on",
                permanent=True,
            )
        load = lambda i: self.busy_ns[i] * self.workers[i].observed_slowdown
        best = min(load(i) for i in alive)
        tied = [i for i in alive if load(i) == best]
        if self.controller is not None and len(tied) > 1:
            return tied[self.controller.choose("pool.route", len(tied))]
        return tied[0]

    def flush(self) -> "list[ScanTicket]":
        """Route every queued launch group and serve it; returns tickets in
        submit order.

        Failover: when a member's launch fails terminally (its retry
        policy exhausted, or a permanent :class:`~repro.errors.DeviceFault`),
        the member's unserved queue is drained back into the pool and the
        group is rerouted onto the surviving members; a permanently lost
        member is marked dead and excluded from all further routing.
        Tickets are never lost — work a dying member already completed is
        kept, and everything else is re-served elsewhere, bit-identical
        (plans are deterministic and device-independent).  Only when every
        member is dead, or a group exceeds its reroute budget, does flush
        re-raise — and even then all unserved requests are back in the
        pool queue with their tickets tracked.
        """
        t_flush = time.perf_counter()
        member_s0 = self._member_host_s
        groups = self.batcher.drain()
        # LPT: heaviest groups place first, onto the least-busy member
        groups.sort(key=lambda g: g.padded_elements, reverse=True)
        queue = [(group, 0) for group in groups]
        completed: list[ScanTicket] = []
        busy_before = list(self.busy_ns)
        # members leave their numerics jobs pending until every group is
        # routed and replayed — with a parallel executor the whole pool's
        # NumPy passes overlap this (serial, schedule-bearing) loop
        for w in self.workers:
            w._defer_external = True
        try:
            while queue:
                # the schedule controller picks which queued group goes
                # next — the simulated analogue of members completing (and
                # freeing routing capacity) in an arbitrary order
                pick = 0
                if self.controller is not None and len(queue) > 1:
                    pick = self.controller.choose("pool.group", len(queue))
                group, failovers = queue.pop(pick)
                try:
                    target = self._route_target()
                except DeviceFault:
                    self._restore(group, queue)
                    raise
                served, leftover, fault = self._dispatch(group, target)
                completed.extend(served)
                if leftover is not None:
                    if failovers + 1 > self._max_group_failovers:
                        self._restore(leftover, queue)
                        raise fault
                    queue.append((leftover, failovers + 1))
        finally:
            t_resolve = time.perf_counter()
            for w in self.workers:
                w._defer_external = False
                w.resolve_deferred()
            self._member_host_s += time.perf_counter() - t_resolve
            member_s = self._member_host_s - member_s0
            self.routing_host_s += time.perf_counter() - t_flush - member_s
            # members served this flush concurrently; the round's span is
            # the longest member delta, and rounds add up (satellite fix:
            # the pool makespan is *not* max(busy_ns) once a member idles
            # between flushes)
            self.span_ns += max(
                (b - b0 for b, b0 in zip(self.busy_ns, busy_before)),
                default=0.0,
            )
        return _sorted_by_submit_sequence(completed)

    def _dispatch(
        self, group: LaunchGroup, target: int
    ) -> "tuple[list[ScanTicket], LaunchGroup | None, DeviceFault | None]":
        """Serve one launch group synchronously on pool member ``target``.

        The shared serving step under ``flush`` and the open-loop
        :class:`~repro.shard.scheduler.TrafficScheduler`: move the group's
        tickets into the member, flush it, and account busy time.  Returns
        ``(completed, leftover, fault)`` — ``leftover`` is the recalled
        unserved remainder of the group after a terminal member fault
        (None when everything launched), ready to reroute; ``fault`` is
        the :class:`~repro.errors.DeviceFault` that caused it (None on a
        clean serve).  A permanent fault marks the member dead.  Tickets
        are never lost: work the member completed before faulting is
        returned, the rest is back in pool custody inside ``leftover``.
        """
        worker = self.workers[target]
        routed: list[tuple[ScanRequest, ScanTicket]] = []
        for req in group.requests:
            ticket = self._tickets.pop(req.req_id)
            ticket.device = target
            worker.enqueue(req, ticket)
            routed.append((req, ticket))
        before = worker.stats.device_ns
        t_member = time.perf_counter()
        try:
            completed = worker.flush()
        except DeviceFault as fault:
            self._member_host_s += time.perf_counter() - t_member
            # faulted time (incl. retries' backoff already served)
            self.busy_ns[target] += worker.stats.device_ns - before
            if fault.permanent:
                self._dead[target] = True
            leftover = self._recall(worker, group, fault)
            completed = [t for _, t in routed if t.done]
            if not leftover.requests:
                return completed, None, fault
            self.failovers[target] += 1
            return completed, leftover, fault
        self._member_host_s += time.perf_counter() - t_member
        self.busy_ns[target] += worker.stats.device_ns - before
        self.groups_routed[target] += 1
        return completed, None, None

    def shutdown(self) -> None:
        """Join pending numerics and release the shared executor."""
        for w in self.workers:
            w.resolve_deferred()
        self.executor.shutdown()

    def _recall(
        self,
        worker: ScanService,
        group: LaunchGroup,
        fault: DeviceFault,
    ) -> LaunchGroup:
        """Drain a faulted member's unserved queue back into pool custody.

        Returns the recalled work as a launch group ready to reroute.
        The serve layer re-queued everything unserved before the fault
        propagated, so ``take_pending`` is the complete unserved set.
        """
        leftover = worker.batcher.take_pending()
        for req in leftover:
            ticket = worker._tickets.pop(req.req_id)
            ticket.device = None
            self._tickets[req.req_id] = ticket
        # attribute the terminal fault to the tickets whose launch it was:
        # a batched group shares one launch (all recalled tickets), while
        # singles fault one request at a time (the first recalled one)
        victims = leftover if group.batched else leftover[:1]
        for req in victims:
            ticket = self._tickets[req.req_id]
            ticket.faults += fault.attempts
            ticket.retries += max(0, fault.attempts - 1)
        return LaunchGroup(
            key=group.key,
            requests=leftover,
            batched=group.batched,
            bucket=group.bucket,
            graph=group.graph,
        )

    def _restore(self, group: LaunchGroup, queue) -> None:
        """Give up on this flush: park every unserved request back in the
        pool batcher (tickets stay tracked) so a later flush can retry."""
        for req in group.requests:
            self.batcher.add(req)
        for later, _ in queue:
            for req in later.requests:
                self.batcher.add(req)

    # -- reporting -----------------------------------------------------------

    def member_health(self) -> "list[MemberHealth]":
        """Per-member health snapshot (healthy / degraded / dead).

        Dead is sticky (a permanent fault was observed); degraded means
        the member has absorbed faults, lost groups to failover, or runs
        measurably slower than its healthy timelines.
        """
        out = []
        for i, worker in enumerate(self.workers):
            slowdown = worker.observed_slowdown
            if self._dead[i]:
                state = DEAD
            elif (
                worker.stats.fault_events
                or self.failovers[i]
                or slowdown > SLOWDOWN_DEGRADED_THRESHOLD
            ):
                state = DEGRADED
            else:
                state = HEALTHY
            out.append(
                MemberHealth(
                    member=i,
                    state=state,
                    retries=worker.stats.total_retries,
                    fault_events=worker.stats.fault_events,
                    failovers=self.failovers[i],
                    slowdown=slowdown,
                )
            )
        return out

    @property
    def makespan_ns(self) -> float:
        """True simulated wall-clock of everything served so far.

        Members run concurrently within one serving round, so each round
        contributes its longest member delta; rounds are sequential, so
        deltas accumulate (``span_ns``).  This is never less than
        ``max(busy_ns)`` — the old definition, which pinned the busiest
        member at 100% utilisation even when it sat idle between rounds —
        and never more than ``sum(busy_ns)`` (fully serialized rounds).
        The open-loop traffic scheduler extends the span further with
        genuine idle gaps between arrivals (it owns the simulated clock,
        so it writes the run's true span back after each run — see
        :meth:`repro.shard.scheduler.TrafficScheduler.run`).
        """
        return self.span_ns

    @property
    def total_elements(self) -> int:
        return sum(w.stats.n_elements for w in self.workers)

    @property
    def total_requests(self) -> int:
        return sum(w.stats.requests for w in self.workers)

    @property
    def throughput_gelems(self) -> float:
        """Aggregate pool throughput: logical elements over the makespan."""
        span = self.makespan_ns
        return self.total_elements / span if span else 0.0

    def device_utilisation(self) -> "list[float]":
        """Per-member busy fraction of the *true* pool makespan (1.0 =
        busy for the whole span; low values = idle capacity the router
        could not fill, or time spent dead).

        Dividing by the accumulated span instead of ``max(busy_ns)``
        fixes two reporting bugs: the busiest member no longer reports
        exactly 1.0 when it idled between serving rounds, and a dead
        member's stale busy time decays as the span keeps growing instead
        of being frozen at its last live fraction.  Use
        :meth:`utilisation` for the per-member report with explicit dead
        flags."""
        span = self.makespan_ns
        if not span:
            return [0.0] * len(self.workers)
        return [b / span for b in self.busy_ns]

    def utilisation(self) -> "list[dict]":
        """Explicit per-member utilisation report: busy ns, busy fraction
        of the true pool makespan, health state, and a ``dead`` flag —
        dead members are reported as dead rather than leaving a stale
        busy fraction to be misread as live capacity."""
        fractions = self.device_utilisation()
        health = self.member_health()
        return [
            {
                "member": i,
                "busy_ns": self.busy_ns[i],
                "fraction": fractions[i],
                "state": health[i].state,
                "dead": self._dead[i],
            }
            for i in range(len(self.workers))
        ]

    def summary(self) -> str:
        lines = [
            f"device pool     : {len(self.workers)} x "
            f"{self.pool.config.name}",
            f"aggregate       : {self.total_requests} requests, "
            f"{self.total_elements / 1e6:.2f} M elements, "
            f"makespan {self.makespan_ns / 1e3:.1f} us, "
            f"{self.throughput_gelems:.1f} GElems/s",
        ]
        util = self.device_utilisation()
        health = self.member_health()
        for i, worker in enumerate(self.workers):
            cache = worker.cache.stats()
            line = (
                f"  dev{i}          : {health[i].state}, "
                f"busy {self.busy_ns[i] / 1e3:.1f} us "
                f"({util[i]:.0%} of makespan), "
                f"{worker.stats.requests} requests / "
                f"{self.groups_routed[i]} groups, "
                f"{cache['plans']} plans, "
                f"{cache['gm_bytes'] / 1e6:.1f} MB GM"
            )
            if health[i].state != HEALTHY:
                line += (
                    f" [{health[i].fault_events} faults, "
                    f"{health[i].retries} retries, "
                    f"{health[i].failovers} failovers, "
                    f"slowdown x{health[i].slowdown:.2f}]"
                )
            lines.append(line)
        if self.tune_store is not None:
            lines.append(
                f"tuned store     : {len(self.tune_store)} entries "
                f"(shared across all {len(self.workers)} members)"
            )
        phases = self.phase_host_s()
        if phases:
            parts = [
                f"{name} {phases[name] * 1e3:.2f} ms"
                for name in HOST_PHASES
                if name in phases
            ]
            parts += [
                f"{name} {phases[name] * 1e3:.2f} ms"
                for name in sorted(phases)
                if name not in HOST_PHASES
            ]
            lines.append("host phases     : " + ", ".join(parts))
        ops = self.op_device_ns()
        if ops:
            parts = [
                f"{kind} {count}x {ns / 1e3:.1f} us"
                for kind, (count, ns) in sorted(ops.items())
            ]
            lines.append("op breakdown    : " + ", ".join(parts))
        runner = self.workers[0].graph_runner
        if runner is not None:
            g = runner.cache.stats()
            lines.append(
                f"graph cache     : {g['lowered']} lowered "
                f"({g['fused']} fused, {g['tuned']} tuned, "
                f"fusion={self.workers[0].graph_fusion}), "
                f"{g['hits']} hits / {g['misses']} misses, "
                f"{g['replays']} replays, "
                f"{g['build_host_s'] * 1e3:.1f} ms build time"
            )
        return "\n".join(lines)

    def op_device_ns(self) -> "dict[str, tuple[int, float]]":
        """Pool-wide per-op-kind graph replay accounting (launches, ns)."""
        totals: "dict[str, tuple[int, float]]" = {}
        for worker in self.workers:
            for kind, (count, ns) in worker.stats.op_device_ns.items():
                c0, n0 = totals.get(kind, (0, 0.0))
                totals[kind] = (c0 + count, n0 + ns)
        return totals

    def phase_host_s(self) -> "dict[str, float]":
        """Pool-wide host-phase seconds: member phases plus routing."""
        totals: dict[str, float] = {}
        for worker in self.workers:
            for name, seconds in worker.stats.phase_host_s.items():
                totals[name] = totals.get(name, 0.0) + seconds
        if self.routing_host_s:
            totals["routing"] = (
                totals.get("routing", 0.0) + self.routing_host_s
            )
        return totals

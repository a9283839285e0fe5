"""Discrete-event scheduler for the simulated device.

A kernel run is a static DAG of :class:`~repro.hw.isa.Op` records.  The
scheduler replays it against the machine model:

* every engine executes its ops **in issue order** (hardware instruction
  queues are in-order; cross-engine overlap is what AscendC pipelining
  exploits);
* an op starts when its engine is free, its engine predecessor has
  finished, and all of its data dependencies (``deps``) have finished;
* fixed ops run for ``cycles`` core cycles;
* flow ops occupy their MTE for a fixed descriptor latency plus a drain
  phase whose rate is set by max-min waterfilling over all concurrently
  draining flows (see :mod:`repro.hw.hbm`).

The result is a per-op (start, finish) timeline from which the trace module
derives bandwidth and utilisation figures.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from itertools import compress

from ..errors import DeadlockError, SchedulerError, TimingAuditError
from .config import DeviceConfig
from .hbm import waterfill
from .isa import Op

__all__ = ["Program", "Timeline", "assert_timelines_equal", "simulate"]

_EPS = 1e-9
#: flows are considered drained below this many bytes; large enough that the
#: float residue of rate*dt arithmetic (~ulp of the byte count) can never
#: stall the clock (whose own ulp at large t exceeds rem/rate), small enough
#: to be physically meaningless (a micro-byte)
_BYTES_EPS = 1e-6


class Program:
    """An append-only list of ops plus per-engine issue queues.

    Dependency bookkeeping is owned by the program, not the op records:
    ``add`` computes each op's *effective* dependencies — the op's own
    ``deps`` plus the active fence edge, deduplicated once — and stores
    them in :attr:`op_deps`.  ``op.deps`` itself is never mutated, so one
    ``Op`` record can safely be added to several programs (each with its
    own fence state) and the scheduler skips per-run deduplication.
    """

    def __init__(self, num_engines: int):
        self.num_engines = num_engines
        self.ops: list[Op] = []
        #: per-op effective dependencies: deduped, fence edge included
        self.op_deps: list[tuple[int, ...]] = []
        self.engine_queues: list[list[int]] = [[] for _ in range(num_engines)]
        self._engine_last: list[int] = [-1] * num_engines
        self._fence: int = -1  # op id of the last device-wide barrier

    def add(self, op: Op) -> int:
        """Append an op; returns its id (must equal ``op.op_id``)."""
        op_id = op.op_id
        engine = op.engine
        if op_id != len(self.ops):
            raise SchedulerError(
                f"op id {op_id} does not match program position {len(self.ops)}"
            )
        if not 0 <= engine < self.num_engines:
            raise SchedulerError(f"op {op_id} targets unknown engine {engine}")
        deps = op.deps
        fence = self._fence
        if fence >= 0 and fence not in deps and not op.is_barrier:
            deps = deps + (fence,)
        deps = tuple(dict.fromkeys(deps))  # dedupe, preserving first occurrence
        # max/min keep the forward/negative check O(1) calls per op
        if deps and (max(deps) >= op_id or min(deps) < 0):
            bad = next(d for d in deps if d >= op_id or d < 0)
            raise SchedulerError(
                f"op {op_id} depends on invalid op {bad} (forward or negative)"
            )
        self.ops.append(op)
        self.op_deps.append(deps)
        self.engine_queues[engine].append(op_id)
        self._engine_last[engine] = op_id
        return op_id

    def deps_of(self, op_id: int) -> tuple[int, ...]:
        """Effective (deduped, fence-fenced) dependencies of one op."""
        return self.op_deps[op_id]

    def barrier_deps(self) -> tuple[int, ...]:
        """Dependencies a device-wide barrier needs: the last op issued on
        each engine (in-order queues make this transitively complete)."""
        return tuple(last for last in self._engine_last if last >= 0)

    def set_fence(self, barrier_id: int) -> None:
        """All ops added after this point implicitly depend on the barrier."""
        self._fence = barrier_id

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class Timeline:
    """Simulation result: per-op start/finish times (ns) and the makespan."""

    start_ns: list[float]
    finish_ns: list[float]
    total_ns: float

    def span(self, op_id: int) -> tuple[float, float]:
        return (self.start_ns[op_id], self.finish_ns[op_id])


#: number of engine-iteration orders the schedule controller picks from;
#: salt 0 is the canonical issue order, the rest are derived shuffles
_ENGINE_ORDER_SALTS = 16


def simulate(
    program: Program, config: DeviceConfig, *, controller=None
) -> Timeline:
    """Run the DES over ``program`` and return its timeline.

    ``controller`` (a :class:`repro.verify.ScheduleController`) permutes
    the *engine pick order* — the order ready engines are started and
    simultaneous completions are processed.  A correct machine model is
    insensitive to it (ops ready at time ``t`` start at ``t`` whichever
    engine is polled first), so the schedule fuzzer asserts the timeline
    is bit-identical with and without a controller; any divergence is a
    hidden order dependence in the scheduler itself.  One decision is
    recorded per run (a salt selecting the iteration order), keeping
    decision traces small enough to shrink.
    """
    ops = program.ops
    n = len(ops)
    if n == 0:
        return Timeline([], [], 0.0)

    # engine iteration order under the schedule controller: salt 0 (the
    # shrinking target) is canonical issue order, other salts shuffle both
    # the engine polling order and same-time completion processing
    shuffle_rng: "random.Random | None" = None
    engine_rank = None
    if controller is not None:
        salt = controller.choose("sched.engine_order", _ENGINE_ORDER_SALTS)
        if salt:
            shuffle_rng = random.Random((0x5EED << 8) | salt)
            order = list(range(program.num_engines))
            shuffle_rng.shuffle(order)
            engine_rank = {e: i for i, e in enumerate(order)}

    start_ns = [-1.0] * n
    finish_ns = [-1.0] * n

    # dependency bookkeeping (program.op_deps is already deduplicated)
    dep_count = [len(deps) for deps in program.op_deps]
    dependents: list[list[int]] = [[] for _ in range(n)]
    for op_id, deps in enumerate(program.op_deps):
        for d in deps:
            dependents[d].append(op_id)

    # engine state
    queues = program.engine_queues
    engine_pos = [0] * program.num_engines
    engine_busy = [False] * program.num_engines

    # active work
    fixed_heap: list[tuple[float, int]] = []  # (finish time, op id)
    # flows in latency phase are kept in fixed_heap until latency elapses,
    # then move to draining state: parallel lists of op id and remaining
    # effective bytes, in the order the flows started draining
    flow_ids: list[int] = []
    flow_rem: list[float] = []
    # every flow is capped by the same MTE link, so the max-min fair rates
    # depend only on how many flows drain: one waterfill per flow count
    rates_by_count: dict[int, list[float]] = {}

    clock_ns_per_cycle = config.cycle_ns
    pool_rate = config.hbm_bytes_per_ns
    link_rate = config.mte_link_bytes_per_ns
    mte_fixed_ns = (
        config.cycles_to_ns(config.costs.mte_issue_cycles)
        + config.memory.gm_latency_ns
    )
    inf = float("inf")
    heappush = heapq.heappush
    heappop = heapq.heappop

    t = 0.0
    n_done = 0

    def try_start(engine: int) -> None:
        """Start the head op of ``engine`` if it is ready."""
        if engine_busy[engine]:
            return
        pos = engine_pos[engine]
        queue = queues[engine]
        if pos >= len(queue):
            return
        op_id = queue[pos]
        if dep_count[op_id] > 0:
            return
        op = ops[op_id]
        engine_busy[engine] = True
        start_ns[op_id] = t
        if op.gm_bytes > 0:  # a flow: its latency phase first
            latency = op.latency_ns if op.latency_ns > 0 else mte_fixed_ns
            heappush(fixed_heap, (t + latency, op_id))
        else:
            duration = op.cycles * clock_ns_per_cycle
            if duration < 0:
                raise SchedulerError(f"op {op_id} has negative duration")
            heappush(fixed_heap, (t + duration, op_id))

    def engine_order(engines) -> list:
        """Iteration order over an engine set: canonical (ascending id)
        or the controller-salted rank."""
        if engine_rank is None:
            return sorted(set(engines))
        return sorted(set(engines), key=engine_rank.__getitem__)

    def complete(op_id: int, touched: list) -> None:
        """Mark an op finished; appends the engines that may now start
        work to ``touched``."""
        nonlocal n_done
        engine = ops[op_id].engine
        finish_ns[op_id] = t
        n_done += 1
        engine_busy[engine] = False
        engine_pos[engine] += 1
        touched.append(engine)
        for dep_op in dependents[op_id]:
            dep_count[dep_op] -= 1
            if dep_count[dep_op] == 0:
                touched.append(ops[dep_op].engine)

    # initial sweep: engines with an empty queue have nothing to start
    for e in engine_order(compress(range(program.num_engines), queues)):
        try_start(e)

    while n_done < n:
        if not fixed_heap and not flow_rem:
            unfinished = [i for i in range(n) if finish_ns[i] < 0][:8]
            raise DeadlockError(
                f"no runnable op at t={t:.1f}ns with {n - n_done} ops pending "
                f"(first pending: {unfinished}); check for dependency cycles "
                f"or a kernel that never frees a queue slot"
            )

        # current drain rates for active flows, by drain position
        rates = rates_by_count.get(len(flow_rem))
        if rates is None:
            rates = waterfill([link_rate] * len(flow_rem), pool_rate)
            rates_by_count[len(flow_rem)] = rates

        # next fixed/latency event
        t_fixed = fixed_heap[0][0] if fixed_heap else inf
        # next flow completion under current rates
        t_flow = min(
            [t + rem / r for rem, r in zip(flow_rem, rates) if r > 0],
            default=inf,
        )
        t_next = min(t_fixed, t_flow)
        if t_next == inf:
            raise SchedulerError("no progress possible: flows have zero rate")
        if t_next < t - _EPS:
            raise SchedulerError(f"time went backwards: {t_next} < {t}")

        # drain active flows up to t_next
        dt = t_next - t
        if dt > 0:
            flow_rem = [rem - r * dt for rem, r in zip(flow_rem, rates)]
        t = t_next

        touched_engines: list[int] = []

        # flows that finished draining; the threshold scales with the
        # clock's ulp because the float residue of rate*dt arithmetic is
        # O(rate * ulp(t)) -- a fixed epsilon would livelock at large t
        drain_eps = _BYTES_EPS + pool_rate * 8.0 * math.ulp(max(t, 1.0))
        finished = [fid for fid, rem in zip(flow_ids, flow_rem) if rem <= drain_eps]
        if finished:
            kept = [i for i, rem in enumerate(flow_rem) if not rem <= drain_eps]
            flow_ids = [flow_ids[i] for i in kept]
            flow_rem = [flow_rem[i] for i in kept]
            if shuffle_rng is not None:
                shuffle_rng.shuffle(finished)
            for fid in finished:
                complete(fid, touched_engines)

        # fixed-duration ops / latency phases that elapsed
        t_due = t + _EPS
        while fixed_heap and fixed_heap[0][0] <= t_due:
            _, op_id = heappop(fixed_heap)
            op = ops[op_id]
            if op.gm_bytes > 0:  # a flow's latency phase elapsed
                eff = op.eff_bytes if op.eff_bytes > 0 else float(op.gm_bytes)
                if eff <= _BYTES_EPS:
                    complete(op_id, touched_engines)
                else:
                    flow_ids.append(op_id)
                    flow_rem.append(eff)
            else:
                complete(op_id, touched_engines)

        # Completions can only unblock the engines they touched (starting an
        # op never resolves anyone else's dependencies), so one pass over the
        # touched set is sufficient -- and keeps the loop O(events), not
        # O(events x engines).
        for e in engine_order(touched_engines):
            try_start(e)

    return Timeline(start_ns, finish_ns, t)


def assert_timelines_equal(
    got: Timeline, want: Timeline, *, label: str = "program"
) -> None:
    """Raise :class:`TimingAuditError` unless the timelines are ns-identical.

    Equality is exact (no tolerance): a memoized timeline must be exactly
    what a fresh :func:`simulate` run produces, so any drift — even one
    ulp — is a bug worth failing loudly on.
    """
    if len(got.start_ns) != len(want.start_ns):
        raise TimingAuditError(
            f"timing audit failed for {label}: op count differs "
            f"({len(got.start_ns)} vs {len(want.start_ns)})"
        )
    if got.total_ns != want.total_ns:
        raise TimingAuditError(
            f"timing audit failed for {label}: total {got.total_ns!r} ns "
            f"!= reference {want.total_ns!r} ns"
        )
    for i, (gs, ws) in enumerate(zip(got.start_ns, want.start_ns)):
        if gs != ws:
            raise TimingAuditError(
                f"timing audit failed for {label}: op {i} start "
                f"{gs!r} != reference {ws!r}"
            )
    for i, (gf, wf) in enumerate(zip(got.finish_ns, want.finish_ns)):
        if gf != wf:
            raise TimingAuditError(
                f"timing audit failed for {label}: op {i} finish "
                f"{gf!r} != reference {wf!r}"
            )

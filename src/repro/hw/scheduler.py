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
        if op.op_id != len(self.ops):
            raise SchedulerError(
                f"op id {op.op_id} does not match program position {len(self.ops)}"
            )
        if not 0 <= op.engine < self.num_engines:
            raise SchedulerError(f"op {op.op_id} targets unknown engine {op.engine}")
        deps = op.deps
        if self._fence >= 0 and not op.is_barrier and self._fence not in deps:
            deps = deps + (self._fence,)
        deps = tuple(dict.fromkeys(deps))  # dedupe, preserving first occurrence
        for dep in deps:
            if dep >= op.op_id or dep < 0:
                raise SchedulerError(
                    f"op {op.op_id} depends on invalid op {dep} (forward or negative)"
                )
        self.ops.append(op)
        self.op_deps.append(deps)
        self.engine_queues[op.engine].append(op.op_id)
        self._engine_last[op.engine] = op.op_id
        return op.op_id

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
    done = [False] * n

    # dependency bookkeeping (program.op_deps is already deduplicated)
    dep_count = [0] * n
    dependents: list[list[int]] = [[] for _ in range(n)]
    for op in ops:
        deps = program.op_deps[op.op_id]
        dep_count[op.op_id] = len(deps)
        for d in deps:
            dependents[d].append(op.op_id)

    # engine state
    queues = program.engine_queues
    engine_pos = [0] * program.num_engines
    engine_busy = [False] * program.num_engines

    # active work
    fixed_heap: list[tuple[float, int]] = []  # (finish time, op id)
    # flows in latency phase are kept in fixed_heap until latency elapses,
    # then move to draining state
    draining: dict[int, float] = {}  # op id -> remaining effective bytes
    latency_phase: set[int] = set()

    clock_ns_per_cycle = config.cycle_ns
    pool_rate = config.hbm_bytes_per_ns
    link_rate = config.mte_link_bytes_per_ns
    mte_fixed_ns = (
        config.cycles_to_ns(config.costs.mte_issue_cycles)
        + config.memory.gm_latency_ns
    )

    t = 0.0
    n_done = 0

    def try_start(engine: int) -> bool:
        """Start the head op of ``engine`` if it is ready.  Returns True if
        an op was started."""
        if engine_busy[engine]:
            return False
        pos = engine_pos[engine]
        queue = queues[engine]
        if pos >= len(queue):
            return False
        op_id = queue[pos]
        if dep_count[op_id] > 0:
            return False
        op = ops[op_id]
        engine_busy[engine] = True
        start_ns[op_id] = t
        if op.is_flow:
            latency = op.latency_ns if op.latency_ns > 0 else mte_fixed_ns
            latency_phase.add(op_id)
            heapq.heappush(fixed_heap, (t + latency, op_id))
        else:
            duration = op.cycles * clock_ns_per_cycle
            if duration < 0:
                raise SchedulerError(f"op {op_id} has negative duration")
            heapq.heappush(fixed_heap, (t + duration, op_id))
        return True

    def engine_order(engines) -> list:
        """Iteration order over an engine set: canonical (ascending id)
        or the controller-salted rank."""
        if engine_rank is None:
            return sorted(set(engines))
        return sorted(set(engines), key=engine_rank.__getitem__)

    def start_all_ready() -> None:
        """Initial sweep: start everything startable on every engine."""
        for e in engine_order(range(program.num_engines)):
            try_start(e)

    def complete(op_id: int) -> list[int]:
        """Mark an op finished; returns engines that may now start work."""
        nonlocal n_done
        op = ops[op_id]
        done[op_id] = True
        finish_ns[op_id] = t
        n_done += 1
        engine_busy[op.engine] = False
        engine_pos[op.engine] += 1
        touched = [op.engine]
        for dep_op in dependents[op_id]:
            dep_count[dep_op] -= 1
            if dep_count[dep_op] == 0:
                touched.append(ops[dep_op].engine)
        return touched

    start_all_ready()

    while n_done < n:
        if not fixed_heap and not draining:
            unfinished = [o.op_id for o in ops if not done[o.op_id]][:8]
            raise DeadlockError(
                f"no runnable op at t={t:.1f}ns with {n - n_done} ops pending "
                f"(first pending: {unfinished}); check for dependency cycles "
                f"or a kernel that never frees a queue slot"
            )

        # current drain rates for active flows
        drain_ids = list(draining.keys())
        rates = waterfill([link_rate] * len(drain_ids), pool_rate)
        rate_of = dict(zip(drain_ids, rates))

        # next fixed/latency event
        t_fixed = fixed_heap[0][0] if fixed_heap else float("inf")
        # next flow completion under current rates
        t_flow = float("inf")
        for fid in drain_ids:
            r = rate_of[fid]
            if r > 0:
                t_flow = min(t_flow, t + draining[fid] / r)
        t_next = min(t_fixed, t_flow)
        if t_next == float("inf"):
            raise SchedulerError("no progress possible: flows have zero rate")
        if t_next < t - _EPS:
            raise SchedulerError(f"time went backwards: {t_next} < {t}")

        # drain active flows up to t_next
        dt = t_next - t
        if dt > 0:
            for fid in drain_ids:
                draining[fid] -= rate_of[fid] * dt
        t = t_next

        touched_engines: list[int] = []

        # flows that finished draining; the threshold scales with the
        # clock's ulp because the float residue of rate*dt arithmetic is
        # O(rate * ulp(t)) -- a fixed epsilon would livelock at large t
        drain_eps = _BYTES_EPS + pool_rate * 8.0 * math.ulp(max(t, 1.0))
        finished_flows = [
            fid for fid, rem in draining.items() if rem <= drain_eps
        ]
        if shuffle_rng is not None:
            shuffle_rng.shuffle(finished_flows)
        for fid in finished_flows:
            del draining[fid]
            touched_engines.extend(complete(fid))

        # fixed-duration ops / latency phases that elapsed
        while fixed_heap and fixed_heap[0][0] <= t + _EPS:
            _, op_id = heapq.heappop(fixed_heap)
            if op_id in latency_phase:
                latency_phase.discard(op_id)
                op = ops[op_id]
                eff = op.eff_bytes if op.eff_bytes > 0 else float(op.gm_bytes)
                if eff <= _BYTES_EPS:
                    touched_engines.extend(complete(op_id))
                else:
                    draining[op_id] = eff
            else:
                touched_engines.extend(complete(op_id))

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

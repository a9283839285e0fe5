"""Adversarial verification of the concurrent serving stack.

Two complementary checkers live here:

* **Sync coverage** (:mod:`repro.verify.sync`) — per-program data-race
  verification: every conflicting access pair in a traced kernel must be
  ordered by happens-before.  This is the *intra-launch* guarantee.

* **Schedule fuzzing** (:mod:`repro.verify.controller`,
  :mod:`repro.verify.invariants`, :mod:`repro.verify.fuzz`) — the
  *inter-launch* guarantee.  PRs 4-5 added real concurrency surfaces
  (shard carry chains, pool routing, retry re-queues, drain-and-reroute
  failover) whose correctness must hold on **every** interleaving, not
  just the hand-picked schedules unit tests replay.  Following the
  AccelSync idea of randomized exploration of accelerator pipeline
  interleavings (PAPERS.md), a seeded :class:`ScheduleController` is
  injected at each concurrency decision point — engine pick order in the
  DES scheduler, launch-group pick order in ``PoolScanService.flush``,
  fault timing in ``FaultPlan``, batcher drain order — and every decision
  is recorded, so any run is a pure function of its seed and can be
  replayed or shrunk to a minimal decision trace.

``python -m repro fuzz`` drives thousands of seeds over a workload matrix
(dtype x size x D x fault mix) and asserts the linearizability invariants
per seed: bit-identical results against the NumPy oracle, every ticket
resolved exactly once, monotone simulated time, and no plan GM leaked
past :class:`~repro.serve.plan.PlanCache` eviction.
"""

from .controller import Decision, ScheduleController
from .fuzz import (
    FUZZ_SEED0,
    WORKLOAD_MATRIX,
    CorpusEntry,
    FuzzFailure,
    FuzzReport,
    SeedResult,
    WorkloadSpec,
    failure_to_json,
    load_corpus,
    replay_corpus,
    run_fuzz,
    run_seed,
    shrink_trace,
)
from .invariants import (
    InvariantViolation,
    ServeInvariantChecker,
    check_schedule_invariance,
)
from .sync import (
    SyncCoverageReport,
    SyncViolation,
    ancestor_bitsets,
    check_accesses,
    check_sync_coverage,
)

__all__ = [
    "CorpusEntry",
    "Decision",
    "FUZZ_SEED0",
    "FuzzFailure",
    "failure_to_json",
    "FuzzReport",
    "InvariantViolation",
    "ScheduleController",
    "SeedResult",
    "ServeInvariantChecker",
    "SyncCoverageReport",
    "SyncViolation",
    "WORKLOAD_MATRIX",
    "WorkloadSpec",
    "ancestor_bitsets",
    "check_accesses",
    "check_schedule_invariance",
    "check_sync_coverage",
    "load_corpus",
    "replay_corpus",
    "run_fuzz",
    "run_seed",
    "shrink_trace",
]

"""Candidate cost evaluation: trace once, score on the memoized timeline.

The evaluator traces each surviving candidate once and asks the device
for the deterministic (DES-computed, memoized) device time via
:meth:`~repro.hw.device.AscendDevice.time_traced`.  Tracing runs the
kernel's Python body, so it executes the tile numerics on scratch inputs
as it emits the op DAG; only the device time is read back, never the
values.  All device tensors are scratch, allocated inside a mark/release
scope so a long sweep reuses HBM; the shared constant matrices are
fetched *before* the mark (they are cached on the context and must
outlive the scope — the same ordering the one-shot operators use).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.api import ScanContext
from ..core.batched import batched_kernel_cls, default_batched_block_dim
from ..core.matrices import batched_tile_rows, padded_length
from ..core.vector_baseline import BatchedCumSumKernel, CumSumKernel, CUMSUM_COLS
from ..errors import ConfigError
from ..hw.datatypes import as_dtype, cube_accum_dtype
from .space import Candidate, WorkloadKey

__all__ = ["CandidateCost", "evaluate_candidate"]


@dataclass(frozen=True)
class CandidateCost:
    """Measured cost of one candidate: total device ns for the workload
    (all launches), plus the trace's host cost for the tuner's report."""

    device_ns: float
    launches: int
    trace_host_s: float


def _evaluate_1d(
    ctx: ScanContext, n: int, dtype: str, cand: Candidate, exclusive: bool
) -> CandidateCost:
    dt = as_dtype(dtype)
    if cand.algorithm == "vector":
        out_dt = dt
        consts = None
        unit = CUMSUM_COLS
    else:
        out_dt = cube_accum_dtype(dt)
        consts = ctx.constants(cand.s, dt)  # before mark: context-cached
        unit = cand.s * cand.s
    padded = padded_length(n, unit)
    t0 = time.perf_counter()
    mark = ctx.device.memory.mark()
    try:
        x_gm = ctx.device.alloc("tune_x", (padded,), dt)
        y_gm = ctx.device.alloc("tune_y", (padded,), out_dt)
        if ctx.warm_inputs:
            ctx.device.warm_l2(x_gm, y_gm)
        if cand.algorithm == "vector":
            kernel = CumSumKernel(x_gm, y_gm)
        else:
            kernel = ctx._cube_1d_kernel(
                cand.algorithm, x_gm, y_gm, consts, cand.s, cand.block_dim, exclusive
            )
        traced = ctx.device.trace_kernel(kernel, label=f"tune {cand.describe()}")
        ns = ctx.device.time_traced(traced)
    finally:
        ctx.device.memory.release(mark)
    return CandidateCost(ns, 1, time.perf_counter() - t0)


def _evaluate_batched(
    ctx: ScanContext, batch: int, row_len: int, dtype: str, cand: Candidate
) -> CandidateCost:
    dt = as_dtype(dtype)
    if cand.algorithm == "vector":
        out_dt = dt
        consts = None
        unit = CUMSUM_COLS
    else:
        out_dt = cube_accum_dtype(dt)
        rows = batched_tile_rows(row_len, cand.s)
        consts = ctx.constants(cand.s, dt, rows=rows)  # before mark
        unit = consts.tile_elements
    padded = padded_length(row_len, unit)
    t0 = time.perf_counter()
    mark = ctx.device.memory.mark()
    try:
        x_gm = ctx.device.alloc("tune_bx", (batch, padded), dt)
        y_gm = ctx.device.alloc("tune_by", (batch, padded), out_dt)
        if ctx.warm_inputs:
            ctx.device.warm_l2(x_gm, y_gm)
        if cand.algorithm == "vector":
            bd = min(ctx.config.num_vector_cores, batch)
            kernel = BatchedCumSumKernel(x_gm, y_gm, bd)
        else:
            bd = (
                default_batched_block_dim(ctx.config, cand.algorithm, batch)
                if cand.block_dim is None
                else cand.block_dim
            )
            kernel = batched_kernel_cls(cand.algorithm)(x_gm, y_gm, consts, cand.s, bd)
        traced = ctx.device.trace_kernel(kernel, label=f"tune {cand.describe()}")
        ns = ctx.device.time_traced(traced)
    finally:
        ctx.device.memory.release(mark)
    return CandidateCost(ns, 1, time.perf_counter() - t0)


def evaluate_candidate(
    ctx: ScanContext, workload: WorkloadKey, cand: Candidate
) -> CandidateCost:
    """Score a candidate for a workload in device nanoseconds.

    For a batched workload served with ``layout="1d"``, one row is traced
    and the timeline replays per row: total = batch × per-row time (each
    launch pays its own launch overhead — already inside
    :meth:`time_traced`).
    """
    if workload.kind == "1d":
        if cand.layout != "1d":
            raise ConfigError(f"1-D workload cannot use layout {cand.layout!r}")
        return _evaluate_1d(ctx, workload.n, workload.dtype, cand, workload.exclusive)
    if cand.layout == "batched":
        return _evaluate_batched(ctx, workload.batch, workload.n, workload.dtype, cand)
    row = _evaluate_1d(ctx, workload.n, workload.dtype, cand, False)
    return CandidateCost(
        row.device_ns * workload.batch, workload.batch, row.trace_host_s
    )

"""Replay: timeline memoization semantics and the ``audit_timing`` escape
hatch.

A traced kernel's timeline is computed once by the DES (``simulate``) and
memoized on the :class:`TracedKernel`; every later replay on the same
device config serves it.  The contract under test is exact: the served
timeline must be *bit-identical* to a fresh ``simulate`` run (``==``,
never ``approx``) — that is what makes serving a memoized timeline
indistinguishable from rescheduling.
"""

import numpy as np
import pytest

from repro.core.api import BATCHED_ALGORITHMS, SCAN_ALGORITHMS, ScanContext
from repro.core.strategies import (
    LookbackScanKernel,
    RSSScanKernel,
    SSAScanKernel,
)
from repro.errors import TimingAuditError
from repro.hw.config import toy_config
from repro.hw.datatypes import as_dtype, cube_accum_dtype
from repro.hw.device import AscendDevice, TracedKernel
from repro.hw.isa import Op
from repro.hw.scheduler import Program, Timeline, simulate

# -- audited replay over every kernel -------------------------------------

N1D = 1 << 17  # 8 tiles of s=128: multi-core paths are exercised
S = 128


def _strategy_traced(ctx, kernel_cls, name):
    """Trace one multi-core strategy kernel (the one-shot API frees its
    tensors, so mirror its setup against the context's device)."""
    dev = ctx.device
    dt = as_dtype("fp16")
    out_dt = cube_accum_dtype(dt)
    consts = ctx.constants(S, dt)
    x_gm = dev.alloc(f"{name}_x", (N1D,), dt)
    x_gm.write(np.ones(N1D, dtype=np.float16))
    y_gm = dev.alloc(f"{name}_y", (N1D,), out_dt)
    n_tiles = N1D // (S * S)
    bd = max(1, min(ctx.config.num_ai_cores, n_tiles))
    lanes = bd * ctx.config.vector_cores_per_ai_core
    r_gm = dev.alloc(f"{name}_r", (lanes,), out_dt)
    return dev.trace_kernel(kernel_cls(x_gm, y_gm, r_gm, consts, S, bd))


def _suite_traced():
    ctx = ScanContext()
    traced = {}
    for algo in SCAN_ALGORITHMS:
        plan = ctx.build_plan(algorithm=algo, n=N1D, dtype="fp16", validate=False)
        traced[f"plan-{algo}"] = plan.traced
    plan = ctx.build_plan(algorithm="scanu", n=N1D, dtype="int8", validate=False)
    traced["plan-scanu-int8"] = plan.traced
    for algo in BATCHED_ALGORITHMS:
        bp = ctx.build_batched_plan(
            algorithm=algo, batch=4, row_len=4096, validate=False
        )
        traced[f"batched-{algo}"] = bp.traced
    for name, cls in (
        ("ssa", SSAScanKernel),
        ("rss", RSSScanKernel),
        ("lookback", LookbackScanKernel),
    ):
        traced[f"strategy-{name}"] = _strategy_traced(ctx, cls, name)
    return ctx.device, traced


_DEVICE, _TRACED = _suite_traced()


@pytest.mark.parametrize("name", sorted(_TRACED))
def test_memoized_replay_matches_reference_bitwise(name):
    tk = _TRACED[name]
    tk.invalidate_timeline()
    reference = simulate(tk.program, _DEVICE.config)
    # the miss computes the timeline, the hit serves it; both are audited
    for _ in range(2):
        got = _DEVICE.replay(tk, audit_timing=True).timeline
        assert got.start_ns == reference.start_ns
        assert got.finish_ns == reference.finish_ns
        assert got.total_ns == reference.total_ns


# -- timeline memoization on replay ---------------------------------------


def make_op(op_id, engine, cycles=0.0):
    return Op(
        op_id=op_id, engine=engine, kind="vec", label=f"op{op_id}",
        deps=(), cycles=cycles, gm_bytes=0, eff_bytes=0.0, latency_ns=0.0,
    )


def _traced(cycles=(10, 20, 30)):
    p = Program(1)
    for i, c in enumerate(cycles):
        p.add(make_op(i, 0, cycles=c))
    return TracedKernel(program=p, label="synthetic")


class TestMemoization:
    def test_cached_replay_hits_after_first(self):
        dev = AscendDevice(toy_config())
        tk = _traced()
        t1 = dev.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (1, 0)
        t2 = dev.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (1, 1)
        # the very same Timeline object is served, not a recomputation
        assert t2.timeline is t1.timeline

    def test_time_traced_hits_after_first(self):
        dev = AscendDevice(toy_config())
        tk = _traced()
        first = dev.time_traced(tk)
        assert dev.time_traced(tk) == first
        assert (tk.timeline_misses, tk.timeline_hits) == (1, 1)

    def test_config_change_invalidates(self):
        dev1 = AscendDevice(toy_config())
        dev2 = AscendDevice(toy_config())  # equal but distinct config object
        tk = _traced()
        dev1.replay(tk)
        dev2.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (2, 0)
        dev2.replay(tk)
        assert (tk.timeline_misses, tk.timeline_hits) == (2, 1)


class TestAuditTiming:
    def test_audit_passes_on_honest_cache(self):
        dev = AscendDevice(toy_config())
        tk = _traced()
        dev.replay(tk, audit_timing=True)
        dev.replay(tk, audit_timing=True)  # also audits the cache-hit path

    def test_device_default_audit(self):
        dev = AscendDevice(toy_config(), audit_timing=True)
        tk = _traced()
        dev.replay(tk)
        dev.replay(tk, audit_timing=False)  # per-call override wins

    def test_audit_detects_tampered_timeline(self):
        dev = AscendDevice(toy_config())
        tk = _traced()
        dev.replay(tk)  # populate the cache
        honest = tk._timeline
        tk._timeline = Timeline(
            list(honest.start_ns),
            [f + 1.0 for f in honest.finish_ns],
            honest.total_ns + 1.0,
        )
        dev.replay(tk)  # unaudited replay trusts the cache
        with pytest.raises(TimingAuditError):
            dev.replay(tk, audit_timing=True)

    def test_audit_detects_op_count_mismatch(self):
        dev = AscendDevice(toy_config())
        tk = _traced()
        dev.replay(tk)
        tk._timeline = Timeline([0.0], [1.0], 1.0)
        with pytest.raises(TimingAuditError):
            dev.replay(tk, audit_timing=True)

"""Golden programs: every traced op, dependency edge, timeline float and
output bit of a fixed kernel grid, pinned against a recorded fixture.

The cold path (op emission, the DES, tile numerics) may get faster, but
what it produces is fixed.  For each kernel case this test digests

* every op's ``(engine, kind, label, cycles, gm_bytes, eff_bytes,
  latency_ns, l2_hit_bytes, sorted effective deps)``;
* the :class:`~repro.hw.scheduler.Timeline` (start, finish, total) of a
  fresh DES run;
* the ``audit_hazards=True`` access log, with hazard serials and tensor
  ids renumbered by first appearance (both are process-wide counters);
* the result's output bits.

Floats are digested through ``float.hex``, so one ulp anywhere fails.
The op, timeline and audit digests are pure Python arithmetic, so they
are the same on every host.  Inputs are seeded and exact (fp16 scan
inputs from :func:`~repro.core.reference.exact_fp16_scan_input`,
full-range int8), so the output bits do not depend on the summation
order the host's BLAS picks for the cube's GEMM either.  Reassociation on
non-exact inputs is checked by ``tests/lang/test_intrinsics.py``
against the restated expressions, on the same host.

Re-record (only for an intended program change) with::

    PYTHONPATH=src python tests/hw/test_golden_program.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import ScanContext
from repro.core.reference import exact_fp16_scan_input
from repro.hw.config import ASCEND_910B4
from repro.hw.device import AscendDevice
from repro.hw.scheduler import simulate
from repro.ops.driver import AscendOps

FIXTURE = Path(__file__).with_name("golden_programs.json")
#: 1-D length: ragged for every tile size, 157 tiles at s = 16 and a
#: multi-core MCScan at s = 128
N = 5 * 128 * 128 + 5


def _values(rng, dtype, shape):
    if dtype == "fp16":
        # any contiguous-range sum is an integer below 2048: exact in fp16
        # and fp32, so every row and every summation order is exact
        return exact_fp16_scan_input(int(np.prod(shape)), rng)[0].reshape(shape)
    return rng.integers(-128, 128, shape).astype(np.int8)


def _cases() -> dict:
    """case name -> callable(ctx, ops) running one seeded kernel call."""
    cases = {}

    def add(name, fn):
        cases[name] = fn

    for dt in ("fp16", "int8"):
        add(
            f"vector.{dt}",
            lambda c, o, dt=dt: c.scan(
                _values(np.random.default_rng(1), dt, N), algorithm="vector"
            ),
        )
        for alg in ("scanu", "scanul1", "mcscan"):
            for s in (16, 64, 128):
                add(
                    f"{alg}.{dt}.s{s}",
                    lambda c, o, alg=alg, dt=dt, s=s: c.scan(
                        _values(np.random.default_rng(s), dt, N),
                        algorithm=alg, s=s,
                    ),
                )
        for alg in ("scanu", "scanul1"):
            add(
                f"batched_{alg}.{dt}",
                lambda c, o, alg=alg, dt=dt: c.batched_scan(
                    _values(np.random.default_rng(2), dt, (16, 700)),
                    algorithm=alg, s=16,
                ),
            )
    for strategy in ("ssa", "rss", "lookback"):
        for bd in (None, 3):
            add(
                f"{strategy}.bd{bd}",
                lambda c, o, strategy=strategy, bd=bd: c.scan_strategy(
                    _values(np.random.default_rng(3), "fp16", 7 * 64 * 64 + 9),
                    strategy=strategy, s=64, block_dim=bd,
                ),
            )
    add(
        "mcscan.bd2",
        lambda c, o: c.scan(
            _values(np.random.default_rng(4), "fp16", 5 * 64 * 64),
            algorithm="mcscan", s=64, block_dim=2,
        ),
    )
    add(
        "mcscan.exclusive",
        lambda c, o: c.scan(
            _values(np.random.default_rng(5), "int8", 4 * 64 * 64 + 1),
            algorithm="mcscan", s=64, exclusive=True,
        ),
    )

    def split(c, o):
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 1 << 16, 3 * 64 * 64 + 7).astype(np.uint16)
        return o.split(keys.view(np.int16), (keys >> 3) & 1, s=64)

    def compress(c, o):
        rng = np.random.default_rng(7)
        x = _values(rng, "fp16", 3 * 64 * 64 + 11)
        return o.compress(x, rng.random(x.size) < 0.4, s=64)

    def radix_sort(c, o):
        x = np.random.default_rng(8).standard_normal(3000).astype(np.float16)
        return o.radix_sort(x, s=16)

    add("split.radix_bit3", split)
    add("compress", compress)
    add("radix_sort", radix_sort)
    return cases


CASES = _cases()


def _fhex(x) -> str:
    return float(x).hex()


def _digest_case(name: str) -> dict:
    device = AscendDevice(ASCEND_910B4, audit_hazards=True)
    ctx = ScanContext(device=device)
    ops = AscendOps(scan_context=ctx)
    with device.capture_launches() as captured:
        res = CASES[name](ctx, ops)
    prog_h = hashlib.sha256()
    time_h = hashlib.sha256()
    audit_h = hashlib.sha256()
    serials: dict = {}
    tensors: dict = {}
    n_ops = 0
    total = []
    for traced in captured:
        program = traced.program
        for op in program.ops:
            prog_h.update(repr((
                op.engine, op.kind, op.label, _fhex(op.cycles), int(op.gm_bytes),
                _fhex(op.eff_bytes), _fhex(op.latency_ns), int(op.l2_hit_bytes),
                sorted(program.deps_of(op.op_id)),
            )).encode())
        n_ops += len(program.ops)
        timeline = simulate(program, device.config)
        time_h.update(repr((
            [_fhex(v) for v in timeline.start_ns],
            [_fhex(v) for v in timeline.finish_ns],
            _fhex(timeline.total_ns),
        )).encode())
        total.append(_fhex(timeline.total_ns))
        for acc in traced.audit:
            ids = serials if acc.space == "local" else tensors
            key = ids.setdefault(acc.key, len(ids))
            audit_h.update(repr((
                acc.op_id, acc.space, key, acc.start, acc.end, acc.is_write,
            )).encode())
    out_h = hashlib.sha256(np.ascontiguousarray(res.values).tobytes())
    indices = getattr(res, "indices", None)
    if indices is not None:
        out_h.update(np.ascontiguousarray(indices).tobytes())
    return {
        "launches": len(captured),
        "ops": n_ops,
        "total_ns": total,
        "program": prog_h.hexdigest(),
        "timeline": time_h.hexdigest(),
        "audit": audit_h.hexdigest(),
        "output": out_h.hexdigest(),
    }


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_program_matches_golden(name):
    want = _golden()[name]
    got = _digest_case(name)
    # compare the cheap, readable fields first so a failure says what moved
    for field in ("launches", "ops", "total_ns", "program", "timeline", "audit", "output"):
        assert got[field] == want[field], f"{name}: {field} changed"


def test_fixture_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    if "--record" not in sys.argv:
        sys.exit("usage: test_golden_program.py --record")
    FIXTURE.write_text(
        json.dumps({name: _digest_case(name) for name in sorted(CASES)}, indent=1)
        + "\n"
    )
    print(f"recorded {len(CASES)} cases to {FIXTURE}")

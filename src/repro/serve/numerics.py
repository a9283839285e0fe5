"""Vectorized launch-group numerics: one stacked NumPy pass per group.

The per-request serving path computes each request's scan with its own
padded allocation and its own ``np.cumsum`` call.  Requests in one launch
group share a shape class — same algorithm, dtype, exclusivity and padded
length — so the whole group can be assembled into a single 2-D array and
scanned with one row-wise pass.  Row-wise ``cumsum`` over axis 1 performs
exactly the same sequence of accumulator-dtype additions per row as the
1-D per-request computation, so the stacked results are **bit-identical**
to :func:`repro.core.replay.plan_compute` / ``plan_compute_batched`` —
the differential suite in ``tests/serve/test_numerics.py`` pins this
across dtype × exclusive × ragged group shapes.

Functions here are *pure* (input arrays → output arrays): they touch no
device, no schedule controller and no shared mutable state, which is what
lets the serve layer defer them onto a :class:`~repro.serve.executor.
HostExecutor` thread (NumPy releases the GIL on large array kernels)
without affecting schedule determinism.

Casting note: ``np.cumsum(x16, dtype=np.float32)`` (buffered cast-and-add)
and ``np.cumsum(x16.astype(np.float32))`` perform the identical fp32
addition sequence — the fp16→fp32 cast is exact — so the explicit up-front
cast used here is bit-identical while keeping the accumulate loop
unbuffered (measurably faster and GIL-friendlier).  The fp16 cast itself
is a lookup in :data:`FP16_TO_FP32`, a table of every fp16 bit pattern
widened by ``astype`` once at import: indexing by the ``uint16`` view
returns the cast's own bits (NaN payloads, ±inf, subnormals and −0
included) at about a quarter of ``astype``'s per-element cost.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.reference import accum_np_dtype
from ..core.replay import _VECTOR_ALGORITHMS
from ..hw.datatypes import DType

__all__ = ["FP16_TO_FP32", "assemble_rows", "group_scan_values"]

#: fp32 value of every fp16 bit pattern, indexed by the ``uint16`` view.
#: Built with ``astype`` itself, so a lookup is bit-identical to the cast.
FP16_TO_FP32 = (
    np.arange(1 << 16, dtype=np.uint16).view(np.float16).astype(np.float32)
)
FP16_TO_FP32.flags.writeable = False


def assemble_rows(
    xs: "list[np.ndarray]", width: int, np_dtype
) -> np.ndarray:
    """Stack request arrays into one ``(len(xs), width)`` zero-padded batch.

    Same-length rows take the single-memcpy fast path; ragged groups
    (requests that share a padding class but differ in logical length)
    zero-fill per row.  Trailing zeros never leak into a row's first
    ``n`` prefix sums, so downstream slicing recovers exact results.
    """
    k = len(xs)
    if k and all(x.size == width for x in xs):
        out = np.stack(xs).astype(np_dtype, copy=False)
        return out
    out = np.zeros((k, width), dtype=np_dtype)
    for i, x in enumerate(xs):
        out[i, : x.size] = x
    return out


def group_scan_values(
    xs: "list[np.ndarray]",
    *,
    algorithm: str,
    in_dtype: DType,
    exclusive: bool = False,
) -> "tuple[list[np.ndarray], float]":
    """Scan a whole launch group in one stacked pass.

    Returns ``(values, host_s)`` where ``values[i]`` is the length-``n_i``
    scan of ``xs[i]`` — bit-identical to running ``plan_compute`` on each
    request separately — and ``host_s`` is the wall time the numerics
    took (attributed to the service's ``numerics`` host phase; when the
    pass ran on an executor thread these seconds overlap other phases).
    """
    t0 = time.perf_counter()
    width = max(x.size for x in xs)
    xp = assemble_rows(xs, width, in_dtype.np_dtype)
    acc = accum_np_dtype(xp.dtype)
    # dtype=acc pins the accumulator: without it NumPy promotes integer
    # cumsums to the platform int (int32 rows would come back int64)
    if xp.dtype == np.float16 and acc == np.float32:
        wide = np.take(FP16_TO_FP32, xp.view(np.uint16))
    else:
        wide = xp.astype(acc, copy=False)
    inc = np.cumsum(wide, axis=1, dtype=acc)
    if exclusive:
        out = np.empty_like(inc)
        out[:, 0] = 0
        out[:, 1:] = inc[:, :-1]
    elif algorithm in _VECTOR_ALGORITHMS:
        out = inc.astype(in_dtype.np_dtype)
    else:
        out = inc
    values = [out[i, : x.size] for i, x in enumerate(xs)]
    return values, time.perf_counter() - t0

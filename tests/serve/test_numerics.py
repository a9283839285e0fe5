"""Stacked group numerics: bit-identity against the per-request path.

The vectorized path (`repro.serve.numerics.group_scan_values`) must be
indistinguishable — bit for bit — from computing each request through
`plan_compute` on its own, across dtype x exclusive x ragged-shape
combinations.  These are differential tests: any divergence is a bug in
the stacked formulation, not a tolerance question.
"""

import numpy as np
import pytest

from repro.core.reference import (
    exact_fp16_scan_input,
    exclusive_scan,
    inclusive_scan,
)
from repro.core.replay import plan_compute
from repro.hw.config import toy_config
from repro.hw.datatypes import FP16, INT8
from repro.serve import ScanService, assemble_rows, group_scan_values
from repro.serve.numerics import FP16_TO_FP32


def _rows(rng, dtype, sizes):
    out = []
    for n in sizes:
        if dtype is FP16:
            x, _ = exact_fp16_scan_input(n, rng)
        else:
            x = rng.integers(-20, 21, size=n).astype(np.int8)
        out.append(x)
    return out


#: fp16 bit patterns of the IEEE special classes the widening must carry
_NAN_PAYLOADS = (0x7E00, 0x7E55, 0xFE01, 0x7C01, 0xFD2A)  # quiet and signalling
_INFS = (0x7C00, 0xFC00)
_SUBNORMALS = (0x0001, 0x0155, 0x03FF, 0x8001, 0x83FF)
_NEG_ZERO = 0x8000


def _special_row(rng, n: int, bits, at: int) -> np.ndarray:
    """An exact fp16 row with ``bits`` written from position ``at`` on."""
    x, _ = exact_fp16_scan_input(n, rng)
    x = x.copy()
    pattern = np.asarray(bits, dtype=np.uint16).view(np.float16)
    x[at : at + len(pattern)] = pattern
    return x


class TestFp16WideningTable:
    def test_every_bit_pattern_matches_astype(self):
        bits = np.arange(1 << 16, dtype=np.uint16)
        want = bits.view(np.float16).astype(np.float32).view(np.uint32)
        got = np.take(FP16_TO_FP32, bits).view(np.uint32)
        assert FP16_TO_FP32.dtype == np.float32
        assert np.array_equal(got, want)

    def test_special_classes_widen_exactly(self):
        def widened(b):
            return FP16_TO_FP32[b].view(np.uint32)

        assert widened(_NEG_ZERO) == np.float32(-0.0).view(np.uint32)
        assert widened(0x7C00) == np.float32(np.inf).view(np.uint32)
        assert widened(0xFC00) == np.float32(-np.inf).view(np.uint32)
        assert FP16_TO_FP32[0x0001] == np.float32(2.0**-24)
        for b in _NAN_PAYLOADS:
            assert np.isnan(FP16_TO_FP32[b])
        assert not FP16_TO_FP32.flags.writeable


class TestAssembleRows:
    def test_same_length_rows_stack(self, rng):
        xs = [rng.integers(-5, 6, 64).astype(np.int8) for _ in range(4)]
        xp = assemble_rows(xs, 64, np.int8)
        assert xp.shape == (4, 64)
        for i, x in enumerate(xs):
            assert np.array_equal(xp[i], x)

    def test_ragged_rows_zero_pad(self, rng):
        xs = [np.ones(5, np.float16), np.ones(9, np.float16)]
        xp = assemble_rows(xs, 9, np.float16)
        assert xp.shape == (2, 9)
        assert np.all(xp[0, 5:] == 0)
        assert np.array_equal(xp[1], xs[1])


class TestGroupScanBitIdentity:
    @pytest.mark.parametrize("dtype", [FP16, INT8], ids=["fp16", "int8"])
    @pytest.mark.parametrize("algorithm", ["scanu", "mcscan", "vector"])
    @pytest.mark.parametrize(
        "sizes",
        [(256, 256, 256), (5, 200, 256, 257, 1000)],
        ids=["uniform", "ragged"],
    )
    def test_matches_per_request_plan_compute(
        self, rng, dtype, algorithm, sizes
    ):
        xs = _rows(rng, dtype, sizes)
        values, host_s = group_scan_values(
            xs, algorithm=algorithm, in_dtype=dtype
        )
        assert host_s >= 0.0
        for x, got in zip(xs, values):
            want = plan_compute(x, algorithm, dtype)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [FP16, INT8], ids=["fp16", "int8"])
    @pytest.mark.parametrize(
        "sizes", [(128, 128), (5, 257, 64)], ids=["uniform", "ragged"]
    )
    def test_exclusive_matches_per_request(self, rng, dtype, sizes):
        xs = _rows(rng, dtype, sizes)
        values, _ = group_scan_values(
            xs, algorithm="mcscan", in_dtype=dtype, exclusive=True
        )
        for x, got in zip(xs, values):
            want = plan_compute(x, "mcscan", dtype, exclusive=True)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ["scanu", "vector"])
    @pytest.mark.parametrize(
        "bits, at",
        [
            (_NAN_PAYLOADS[:1], 0),
            (_NAN_PAYLOADS, 7),
            (_INFS[:1], 3),
            (_INFS, 3),
            (_SUBNORMALS, 0),
            (_SUBNORMALS + (_NEG_ZERO,), 40),
            ((_NEG_ZERO,), 0),
        ],
        ids=[
            "leading-nan", "nan-payloads", "inf", "inf-minus-inf",
            "subnormals", "subnormals-neg-zero", "leading-neg-zero",
        ],
    )
    @pytest.mark.parametrize(
        "sizes", [(256, 256), (64, 257, 300)], ids=["uniform", "ragged"]
    )
    def test_special_values_match_per_request(
        self, rng, algorithm, bits, at, sizes
    ):
        """NaN payloads, infinities, subnormals and -0 widen and scan to
        the same bits as the per-request path (compared as raw bytes, so
        NaN payloads and the sign of zero count)."""
        xs = [_special_row(rng, n, bits, at) for n in sizes]
        values, _ = group_scan_values(xs, algorithm=algorithm, in_dtype=FP16)
        for x, got in zip(xs, values):
            want = plan_compute(x, algorithm, FP16)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_trailing_pad_never_leaks(self, rng):
        """A short row computed inside a wide stacked pass equals its own
        1-D scan — trailing zeros cannot reach earlier prefixes."""
        short = rng.integers(-20, 21, size=3).astype(np.int8)
        long = rng.integers(-20, 21, size=4096).astype(np.int8)
        values, _ = group_scan_values(
            [short, long], algorithm="scanu", in_dtype=INT8
        )
        assert np.array_equal(values[0], inclusive_scan(short))
        assert np.array_equal(values[1], inclusive_scan(long))


class TestServiceLevelBitIdentity:
    """The refactored service (stacked numerics) against the oracle and
    against itself across batching and parallel modes."""

    def _serve(self, rng, **kwargs):
        svc = ScanService(config=toy_config(), **kwargs)
        inputs = {}
        state = np.random.default_rng(7)
        for n in (5, 200, 256, 256, 257, 1000, 256, 5):
            x = state.integers(-20, 21, size=n).astype(np.int8)
            t = svc.submit(x, algorithm="scanu", s=16)
            inputs[t.req_id] = x
        x, _ = exact_fp16_scan_input(512, state)
        t = svc.submit(x, algorithm="mcscan", s=16, exclusive=True)
        inputs[t.req_id] = (x, "exclusive")
        done = svc.flush()
        svc.shutdown()
        return inputs, done

    def _assert_oracle(self, inputs, done):
        assert len(done) == len(inputs)
        for ticket in done:
            ref = inputs[ticket.req_id]
            if isinstance(ref, tuple):
                want = exclusive_scan(ref[0])
            else:
                want = inclusive_scan(ref)
            assert np.array_equal(ticket.result(), want)

    def test_batched_service_matches_oracle(self, rng):
        inputs, done = self._serve(rng, batching=True)
        self._assert_oracle(inputs, done)
        assert any(t.batched for t in done)

    def test_unbatched_service_matches_oracle(self, rng):
        inputs, done = self._serve(rng, batching=False)
        self._assert_oracle(inputs, done)
        assert not any(t.batched for t in done)

    def test_batching_modes_are_bit_identical(self, rng):
        _, batched = self._serve(rng, batching=True)
        _, single = self._serve(rng, batching=False)
        for a, b in zip(batched, single):
            assert a.req_id == b.req_id
            assert np.array_equal(a.result(), b.result())

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_serial_bit_identical(self, rng, workers):
        _, serial = self._serve(rng, batching=True)
        _, parallel = self._serve(rng, batching=True, parallel=workers)
        for a, b in zip(serial, parallel):
            assert a.req_id == b.req_id
            assert np.array_equal(a.result(), b.result())
            assert a.device_ns == b.device_ns

"""Single-core scan kernel tests: ScanU (Algorithm 1) and ScanUL1
(Algorithm 2), run through the public ScanContext API."""

import numpy as np
import pytest

from repro.errors import KernelError, ShapeError
from repro.core.api import ScanContext
from repro.core.matrices import batched_tile_rows, upload_constants
from repro.core.mcscan import MCScanKernel
from repro.core.reference import (
    batched_inclusive_scan,
    exact_fp16_scan_input,
    inclusive_scan,
)
from repro.core.scanu import ScanUKernel
from repro.core.scanul1 import ScanUL1Kernel


@pytest.mark.parametrize("algorithm", ["scanu", "scanul1"])
class TestSingleCoreCorrectness:
    @pytest.mark.parametrize("s", [16, 32, 128])
    def test_exact_fp16(self, scan_ctx, rng, algorithm, s):
        n = 3 * s * s + 7  # forces padding
        x, expected = exact_fp16_scan_input(n, rng)
        res = scan_ctx.scan(x, algorithm=algorithm, s=s)
        assert res.values.dtype == np.float32
        assert np.array_equal(res.values, expected[:n])

    def test_int8(self, scan_ctx, rng, algorithm):
        n = 40000
        x = rng.integers(-5, 6, n).astype(np.int8)
        res = scan_ctx.scan(x, algorithm=algorithm, s=64)
        assert res.values.dtype == np.int32
        assert np.array_equal(res.values, inclusive_scan(x))

    def test_single_element(self, scan_ctx, algorithm):
        res = scan_ctx.scan(np.array([3.0], dtype=np.float16), algorithm=algorithm)
        assert res.values[0] == 3.0

    def test_all_zeros(self, scan_ctx, algorithm):
        res = scan_ctx.scan(np.zeros(1000, dtype=np.float16), algorithm=algorithm)
        assert np.all(res.values == 0)

    def test_negative_values(self, scan_ctx, rng, algorithm):
        x = -np.abs(rng.integers(0, 4, 5000)).astype(np.float16)
        res = scan_ctx.scan(x, algorithm=algorithm)
        assert np.array_equal(res.values, inclusive_scan(x))


class TestSingleCoreTiming:
    def test_scanul1_faster_than_scanu(self, scan_ctx, rng):
        """Algorithm 2's single-Adds propagation beats Algorithm 1's serial
        chain (the paper's ~2x)."""
        x, _ = exact_fp16_scan_input(1 << 19, rng)
        t_u = scan_ctx.scan(x, algorithm="scanu", s=128).time_ns
        t_ul1 = scan_ctx.scan(x, algorithm="scanul1", s=128).time_ns
        assert 1.5 < t_u / t_ul1 < 3.0

    def test_both_beat_vector_baseline(self, scan_ctx, rng):
        x, _ = exact_fp16_scan_input(1 << 19, rng)
        t_vec = scan_ctx.scan(x, algorithm="vector").time_ns
        t_u = scan_ctx.scan(x, algorithm="scanu", s=128).time_ns
        t_ul1 = scan_ctx.scan(x, algorithm="scanul1", s=128).time_ns
        assert t_vec / t_u > 3.0  # paper: ~5x
        assert t_vec / t_ul1 > 6.0  # paper: ~9.6x

    def test_scanul1_issues_three_matmuls_per_tile(self, scan_ctx, rng):
        s = 32
        n = 4 * s * s
        x, _ = exact_fp16_scan_input(n, rng)
        res = scan_ctx.scan(x, algorithm="scanul1", s=s)
        assert res.trace.op_count_by_kind()["mmad"] == 3 * 4

    def test_scanu_issues_one_matmul_per_tile(self, scan_ctx, rng):
        s = 32
        n = 4 * s * s
        x, _ = exact_fp16_scan_input(n, rng)
        res = scan_ctx.scan(x, algorithm="scanu", s=s)
        assert res.trace.op_count_by_kind()["mmad"] == 4


def scanul1_int8_model(x: np.ndarray, s: int, rows: int) -> np.ndarray:
    """What int8 ScanUL1 computes today, row by row of a 2-D batch: per
    ``rows x s`` tile ``A``, ``C1 = A @ 1_s`` wrapped to int8 (it is staged
    through int8 L1), ``C2 = A @ U_s + L^- @ C1``, then the running partial
    of the previous tiles' last ``C2`` element is added.  Deliberately *not*
    the correct scan."""
    batch, row_len = x.shape
    tile = rows * s
    padded = -(-row_len // tile) * tile
    z = np.zeros((batch, padded), dtype=np.int64)
    z[:, :row_len] = x
    a = z.reshape(batch, padded // tile, rows, s)
    c1 = np.repeat(a.sum(axis=3, keepdims=True), s, axis=3).astype(np.int8)
    u = np.triu(np.ones((s, s), dtype=np.int64))
    lm = np.tril(np.ones((rows, rows), dtype=np.int64), k=-1)
    c2 = a @ u + lm @ c1.astype(np.int64)
    last = c2[:, :, -1, -1]
    carry = np.cumsum(last, axis=1) - last
    y = c2 + carry[:, :, None, None]
    return y.reshape(batch, padded)[:, :row_len].astype(np.int32)


class TestScanUL1Int8Defect:
    """Pins the known int8 ScanUL1 defect (C1 wraps in int8 L1) to an
    explicit model on full-range input, 1-D and batched: the device result
    equals the model and differs from the correct scan."""

    @pytest.mark.parametrize("s", [64, 128])
    def test_1d_matches_wrapping_model(self, scan_ctx, rng, s):
        n = 3 * s * s + 5
        x = rng.integers(-128, 128, n).astype(np.int8)
        got = scan_ctx.scan(x, algorithm="scanul1", s=s).values
        model = scanul1_int8_model(x[None, :], s, s)[0]
        assert not np.array_equal(model, inclusive_scan(x))
        assert np.array_equal(got, model)

    @pytest.mark.parametrize("shape,s", [((16, 4096), 64), ((5, 700), 128)])
    def test_batched_matches_wrapping_model(self, scan_ctx, rng, shape, s):
        x = rng.integers(-128, 128, shape).astype(np.int8)
        got = scan_ctx.batched_scan(x, algorithm="scanul1", s=s).values
        model = scanul1_int8_model(x, s, batched_tile_rows(shape[1], s))
        assert not np.array_equal(model, batched_inclusive_scan(x))
        assert np.array_equal(got, model)


class TestKernelValidation:
    def _device_tensors(self, device, n=1024, s=32):
        consts = upload_constants(device, s, "fp16")
        x = device.alloc("x", n, "fp16")
        y = device.alloc("y", n, "fp32")
        return x, y, consts

    def test_unpadded_length_rejected(self, device):
        x, y, consts = self._device_tensors(device, n=1000)
        with pytest.raises(ShapeError):
            ScanUKernel(x, y, consts, 32)

    def test_wrong_output_dtype(self, device):
        consts = upload_constants(device, 32, "fp16")
        x = device.alloc("x", 1024, "fp16")
        y = device.alloc("y", 1024, "fp16")
        with pytest.raises(KernelError):
            ScanUKernel(x, y, consts, 32)
        with pytest.raises(KernelError):
            ScanUL1Kernel(x, y, consts, 32)

    def test_mismatched_constants(self, device):
        consts = upload_constants(device, 64, "fp16")
        x = device.alloc("x", 1024, "fp16")
        y = device.alloc("y", 1024, "fp32")
        with pytest.raises(KernelError):
            ScanUKernel(x, y, consts, 32)

    def test_output_length_mismatch(self, device):
        consts = upload_constants(device, 32, "fp16")
        x = device.alloc("x", 1024, "fp16")
        y = device.alloc("y", 2048, "fp32")
        with pytest.raises(ShapeError):
            ScanUL1Kernel(x, y, consts, 32)

    def test_mcscan_r_too_small(self, device):
        consts = upload_constants(device, 32, "fp16")
        x = device.alloc("x", 4096, "fp16")
        y = device.alloc("y", 4096, "fp32")
        r = device.alloc("r", 2, "fp32")
        kernel = MCScanKernel(x, y, r, consts, 32, block_dim=4)
        with pytest.raises(ShapeError):
            device.launch(kernel)

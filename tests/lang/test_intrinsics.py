"""Intrinsics tests: functional semantics + emitted op properties.

Each intrinsic is exercised through a tiny single-block kernel; assertions
cover both the NumPy result and the recorded op (engine, cost, traffic).
"""

import numpy as np
import pytest

from repro.errors import DTypeError, KernelError, ShapeError
from repro.hw.config import toy_config
from repro.hw.device import AscendDevice
from repro.lang import Kernel, intrinsics as I
from repro.lang.tensor import BufferKind


def run_vec(device, body, n_vec_tensors=0):
    """Run ``body(ctx, q)`` on one vector core; returns the trace."""

    class K(Kernel):
        mode = "vec"

        def run(self, ctx):
            pipe = ctx.make_pipe(ctx.vec_core(0))
            q = pipe.init_buffer(buffer=BufferKind.UB, depth=8, slot_bytes=4096)
            body(ctx, q)

    return device.launch(K(1))


def run_mix(device, body):
    """Run ``body(ctx, cpipe)`` on one AI core (cube side); returns trace."""

    class K(Kernel):
        mode = "mix"

        def run(self, ctx):
            cpipe = ctx.make_pipe(ctx.require_cube())
            body(ctx, cpipe)

    return device.launch(K(1))


@pytest.fixture()
def dev():
    return AscendDevice(toy_config())


class TestDataCopy:
    def test_gm_roundtrip(self, dev, rng):
        x = dev.alloc("x", 128, "fp16")
        y = dev.alloc("y", 128, "fp16")
        vals = rng.standard_normal(128).astype(np.float16)
        x.write(vals)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 128)
            I.data_copy(ctx, t, x.whole())
            I.data_copy(ctx, y.whole(), t)
            q.free_tensor(t)

        trace = run_vec(dev, body)
        assert np.array_equal(y.to_numpy(), vals)
        assert trace.gm_read_bytes() == 256
        assert trace.gm_write_bytes() == 256

    def test_length_mismatch(self, dev):
        x = dev.alloc("x", 128, "fp16")

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            I.data_copy(ctx, t, x.whole())

        with pytest.raises(ShapeError):
            run_vec(dev, body)

    def test_gm_in_no_conversion(self, dev):
        x = dev.alloc("x", 64, "fp16")

        def body(ctx, q):
            t = q.alloc_tensor("fp32", 64)
            I.data_copy(ctx, t, x.whole())

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_ub_out_no_conversion(self, dev):
        y = dev.alloc("y", 64, "fp32")

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            I.data_copy(ctx, y.whole(), t)

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_l0c_out_converts(self, dev, rng):
        """The FIXPIPE path quantises on the way out of L0C."""
        y = dev.alloc("y", 256, "fp16")

        def body(ctx, cpipe):
            l0a = cpipe.init_buffer(buffer=BufferKind.L0A, depth=1, slot_bytes=512)
            l0b = cpipe.init_buffer(buffer=BufferKind.L0B, depth=1, slot_bytes=512)
            l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=1024)
            a = l0a.alloc_tensor("fp16", 256)
            b = l0b.alloc_tensor("fp16", 256)
            a.array[:] = 1.0
            b.array[:] = 1.0
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)
            I.data_copy(ctx, y.whole(), c)  # fp32 -> fp16 conversion

        run_mix(dev, body)
        assert np.all(y.to_numpy() == 16.0)


class TestMmad:
    def _cube_bufs(self, cpipe, ab_bytes=2048, c_bytes=4096):
        l0a = cpipe.init_buffer(buffer=BufferKind.L0A, depth=1, slot_bytes=ab_bytes)
        l0b = cpipe.init_buffer(buffer=BufferKind.L0B, depth=1, slot_bytes=ab_bytes)
        l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=c_bytes)
        return l0a, l0b, l0c

    def test_matmul_result(self, dev, rng):
        m = k = n = 16
        a_np = rng.integers(-4, 5, (m, k)).astype(np.float16)
        b_np = rng.integers(-4, 5, (k, n)).astype(np.float16)
        out = {}

        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", m * k)
            a.array[:] = a_np.reshape(-1)
            b = l0b.alloc_tensor("fp16", k * n)
            b.array[:] = b_np.reshape(-1)
            c = l0c.alloc_tensor("fp32", m * n)
            I.mmad(ctx, c, a, b, m, k, n)
            out["c"] = c.array.reshape(m, n).copy()

        run_mix(dev, body)
        expected = a_np.astype(np.float32) @ b_np.astype(np.float32)
        assert np.array_equal(out["c"], expected)

    def test_accumulate(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", 256)
            a.array[:] = 1.0
            b = l0b.alloc_tensor("fp16", 256)
            b.array[:] = 1.0
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)
            I.mmad(ctx, c, a, b, 16, 16, 16, accumulate=True)
            assert np.all(c.array == 32.0)

        run_mix(dev, body)

    def test_int8_accumulates_int32(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe, ab_bytes=256, c_bytes=1024)
            a = l0a.alloc_tensor("int8", 256)
            a.array[:] = 2
            b = l0b.alloc_tensor("int8", 256)
            b.array[:] = 3
            c = l0c.alloc_tensor("int32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)
            assert np.all(c.array == 16 * 6)

        run_mix(dev, body)

    # -- int8 differential: bit for bit against an int64 matmul wrapped to
    # int32 (the cube's int32 accumulator) --------------------------------

    #: (m, k, n) of every int8 Mmad the kernels issue: A@U_s / A@1_s over
    #: 128/32/16-row tiles, the ScanUL1 L^-@C1 accumulate shapes, and the
    #: largest k a double-buffered L0A slot admits at m=16 (32 KiB / 16)
    INT8_SHAPES = [
        (128, 128, 128), (32, 128, 128), (16, 128, 128),
        (16, 16, 128), (32, 32, 128), (16, 2048, 16),
    ]

    def _int8_mmad(self, dev, a_np, b_np, c0=None):
        (m, k), n = a_np.shape, b_np.shape[1]
        out = {}

        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(
                cpipe, ab_bytes=max(m * k, k * n), c_bytes=m * n * 4
            )
            a = l0a.alloc_tensor("int8", m * k)
            a.array[:] = a_np.reshape(-1)
            b = l0b.alloc_tensor("int8", k * n)
            b.array[:] = b_np.reshape(-1)
            c = l0c.alloc_tensor("int32", m * n)
            if c0 is not None:
                c.array[:] = c0.reshape(-1)
            I.mmad(ctx, c, a, b, m, k, n, accumulate=c0 is not None)
            out["c"] = c.array.reshape(m, n).copy()

        run_mix(dev, body)
        return out["c"]

    @staticmethod
    def _int8_expected(a_np, b_np, c0=None):
        acc = a_np.astype(np.int64) @ b_np.astype(np.int64)
        if c0 is not None:
            acc += c0.astype(np.int64)
        return acc.astype(np.int32)  # modular: int32 accumulator wraparound

    @pytest.mark.parametrize("m,k,n", INT8_SHAPES)
    def test_int8_full_range_random(self, dev, rng, m, k, n):
        a_np = rng.integers(-128, 128, (m, k)).astype(np.int8)
        b_np = rng.integers(-128, 128, (k, n)).astype(np.int8)
        got = self._int8_mmad(dev, a_np, b_np)
        assert got.dtype == np.int32
        assert np.array_equal(got, self._int8_expected(a_np, b_np))

    @pytest.mark.parametrize("m,k,n", INT8_SHAPES)
    @pytest.mark.parametrize("a_val,b_val", [(-128, -128), (127, 127), (-128, 127)])
    def test_int8_extremes(self, dev, m, k, n, a_val, b_val):
        a_np = np.full((m, k), a_val, dtype=np.int8)
        b_np = np.full((k, n), b_val, dtype=np.int8)
        got = self._int8_mmad(dev, a_np, b_np)
        assert np.array_equal(got, self._int8_expected(a_np, b_np))
        assert np.all(got == k * a_val * b_val)

    @pytest.mark.parametrize("m,k,n", INT8_SHAPES)
    def test_int8_mixed_sign_extremes(self, dev, rng, m, k, n):
        a_np = rng.choice(np.array([-128, 127], dtype=np.int8), (m, k))
        b_np = rng.choice(np.array([-128, -1, 1, 127], dtype=np.int8), (k, n))
        got = self._int8_mmad(dev, a_np, b_np)
        assert np.array_equal(got, self._int8_expected(a_np, b_np))

    @pytest.mark.parametrize("m,k,n", INT8_SHAPES)
    def test_int8_accumulate_wraps_like_int32(self, dev, rng, m, k, n):
        i32 = np.iinfo(np.int32)
        # even columns of C start just below INT32_MAX and gain a positive
        # product, odd ones just above INT32_MIN and gain a negative one
        up = np.arange(n) % 2 == 0
        slack = rng.integers(0, 1000, (m, n))
        c0 = np.where(up, i32.max - slack, i32.min + slack).astype(np.int32)
        a_np = rng.integers(64, 128, (m, k)).astype(np.int8)
        b_np = np.broadcast_to(np.where(up, 127, -128), (k, n)).astype(np.int8)
        got = self._int8_mmad(dev, a_np, b_np, c0)
        exact = c0.astype(np.int64) + a_np.astype(np.int64) @ b_np.astype(np.int64)
        assert np.all((exact > i32.max) | (exact < i32.min))  # every entry wraps
        assert np.array_equal(got, self._int8_expected(a_np, b_np, c0))

    def test_int8_max_k_defeats_a_float32_gemm(self, dev):
        """All-127 at k=2048: partial sums pass 2**24 with odd values, so
        only an exact (not fp32) GEMM reproduces the int32 accumulator."""
        m, k, n = 16, 2048, 16
        a_np = np.full((m, k), 127, dtype=np.int8)
        b_np = np.full((k, n), 127, dtype=np.int8)
        expected = self._int8_expected(a_np, b_np)
        f32 = (a_np.astype(np.float32) @ b_np.astype(np.float32)).astype(np.int64)
        assert not np.array_equal(f32, expected)  # the input discriminates
        assert np.array_equal(self._int8_mmad(dev, a_np, b_np), expected)

    def test_wrong_accumulator_dtype(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", 256)
            b = l0b.alloc_tensor("fp16", 256)
            c = l0c.alloc_tensor("int32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)

        with pytest.raises(DTypeError):
            run_mix(dev, body)

    def test_wrong_buffers(self, dev):
        def body(ctx, cpipe):
            l1 = cpipe.init_buffer(buffer=BufferKind.L1, depth=2, slot_bytes=512)
            l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=1024)
            a = l1.alloc_tensor("fp16", 256)
            b = l1.alloc_tensor("fp16", 256)
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)

        with pytest.raises(KernelError):
            run_mix(dev, body)

    def test_operand_too_small(self, dev):
        def body(ctx, cpipe):
            l0a, l0b, l0c = self._cube_bufs(cpipe)
            a = l0a.alloc_tensor("fp16", 100)
            b = l0b.alloc_tensor("fp16", 256)
            c = l0c.alloc_tensor("fp32", 256)
            I.mmad(ctx, c, a, b, 16, 16, 16)

        with pytest.raises(ShapeError):
            run_mix(dev, body)


class TestElementwise:
    def _pair(self, q, n=64, dtype="fp16"):
        a = q.alloc_tensor(dtype, n)
        b = q.alloc_tensor(dtype, n)
        return a, b

    def test_adds(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            a.array[:] = 2.0
            I.adds(ctx, b, a, 3.0)
            assert np.all(b.array == 5.0)

        run_vec(dev, body)

    def test_muls(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            a.array[:] = 2.0
            I.muls(ctx, b, a, 4.0)
            assert np.all(b.array == 8.0)

        run_vec(dev, body)

    def test_add_sub_mul(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            c = q.alloc_tensor("fp16", 64)
            a.array[:] = 6.0
            b.array[:] = 2.0
            I.add(ctx, c, a, b)
            assert np.all(c.array == 8.0)
            I.sub(ctx, c, a, b)
            assert np.all(c.array == 4.0)
            I.mul(ctx, c, a, b)
            assert np.all(c.array == 12.0)

        run_vec(dev, body)

    def test_duplicate_and_cast(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("fp16", 64)
            I.duplicate(ctx, a, 7.0)
            b = q.alloc_tensor("fp32", 64)
            I.cast(ctx, b, a)
            assert b.array.dtype == np.float32
            assert np.all(b.array == 7.0)

        run_vec(dev, body)

    def test_shifts_and_bits(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("uint16", 64)
            a.array[:] = 0b1010
            b = q.alloc_tensor("uint16", 64)
            I.shift_right(ctx, b, a, 1)
            assert np.all(b.array == 0b101)
            I.shift_left(ctx, b, a, 2)
            assert np.all(b.array == 0b101000)
            I.bit_and(ctx, b, a, 0b0010)
            assert np.all(b.array == 0b0010)
            I.bit_not(ctx, b, a)
            assert np.all(b.array == np.uint16(~np.uint16(0b1010)))

        run_vec(dev, body)

    def test_shift_rejects_floats(self, dev):
        def body(ctx, q):
            a, b = self._pair(q, dtype="fp16")
            I.shift_right(ctx, b, a, 1)

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_compare_scalar(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("fp16", 8)
            a.array[:] = [0, 1, 2, 3, 4, 5, 6, 7]
            m = q.alloc_tensor("int8", 8)
            I.compare_scalar(ctx, m, a, "gt", 3.0)
            assert list(m.array) == [0, 0, 0, 0, 1, 1, 1, 1]
            I.compare_scalar(ctx, m, a, "eq", 2.0)
            assert m.array.sum() == 1

        run_vec(dev, body)

    def test_compare_requires_int8_mask(self, dev):
        def body(ctx, q):
            a, b = self._pair(q)
            I.compare_scalar(ctx, b, a, "gt", 0.0)

        with pytest.raises(DTypeError):
            run_vec(dev, body)

    def test_compare_unknown_op(self, dev):
        def body(ctx, q):
            a = q.alloc_tensor("fp16", 8)
            m = q.alloc_tensor("int8", 8)
            I.compare_scalar(ctx, m, a, "neq", 0.0)

        with pytest.raises(KernelError):
            run_vec(dev, body)

    def test_create_vec_index(self, dev):
        def body(ctx, q):
            t = q.alloc_tensor("int32", 16)
            I.create_vec_index(ctx, t, 100)
            assert list(t.array) == list(range(100, 116))

        run_vec(dev, body)

    def test_vector_ops_rejected_on_cube_buffers(self, dev):
        def body(ctx, cpipe):
            l1 = cpipe.init_buffer(buffer=BufferKind.L1, depth=2, slot_bytes=128)
            a = l1.alloc_tensor("fp16", 64)
            b = l1.alloc_tensor("fp16", 64)
            I.adds(ctx, b, a, 1.0)

        with pytest.raises(KernelError):
            run_mix(dev, body)


class TestReductionsAndGather:
    def test_reduce_sum(self, dev, rng):
        vals = rng.integers(-10, 10, 64).astype(np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            t.array[:] = vals
            assert I.reduce_sum(ctx, t) == pytest.approx(float(vals.sum()))

        run_vec(dev, body)

    def test_reduce_max(self, dev, rng):
        vals = rng.standard_normal(64).astype(np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            t.array[:] = vals
            assert I.reduce_max(ctx, t) == pytest.approx(float(vals.max()))

        run_vec(dev, body)

    def test_gather_mask(self, dev):
        def body(ctx, q):
            src = q.alloc_tensor("fp16", 8)
            src.array[:] = [1, 2, 3, 4, 5, 6, 7, 8]
            mask = q.alloc_tensor("int8", 8)
            mask.array[:] = [1, 0, 1, 0, 0, 1, 0, 1]
            dst = q.alloc_tensor("fp16", 8)
            count = I.gather_mask(ctx, dst, src, mask)
            assert count == 4
            assert list(dst.array[:4]) == [1, 3, 6, 8]

        run_vec(dev, body)

    def test_gather_mask_length_mismatch(self, dev):
        def body(ctx, q):
            src = q.alloc_tensor("fp16", 8)
            mask = q.alloc_tensor("int8", 4)
            dst = q.alloc_tensor("fp16", 8)
            I.gather_mask(ctx, dst, src, mask)

        with pytest.raises(ShapeError):
            run_vec(dev, body)


class TestMacros:
    def test_propagate_chain_matches_manual_loop(self, dev):
        """The macro must compute exactly what the per-s-tile loop does."""
        vals = np.arange(32, dtype=np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 32)
            t.array[:] = vals
            reg = ctx.new_register()
            out = I.propagate_chain(ctx, t, 8, 10.0, reg)
            # manual: per 8-tile, add partial then take last
            expected = vals.astype(np.float32).copy()
            partial = 10.0
            for r in range(4):
                expected[r * 8 : (r + 1) * 8] += partial
                partial = float(expected[(r + 1) * 8 - 1])
            assert np.array_equal(t.array.astype(np.float32), expected)
            assert out == pytest.approx(partial)

        run_vec(dev, body)

    def test_propagate_chain_cost_is_per_row(self, dev):
        traces = []

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 64)
            reg = ctx.new_register()
            I.propagate_chain(ctx, t, 8, 0.0, reg)

        trace = run_vec(dev, body)
        chain_op = next(o for o in trace.ops if o.kind == "vec_chain")
        costs = dev.costs
        expected = costs.vector_cycles(128, n_instructions=8) + costs.scalar_cycles(8)
        assert chain_op.cycles == pytest.approx(expected)

    def test_propagate_chain_bad_stride(self, dev):
        def body(ctx, q):
            t = q.alloc_tensor("fp16", 30)
            I.propagate_chain(ctx, t, 8, 0.0, ctx.new_register())

        with pytest.raises(ShapeError):
            run_vec(dev, body)

    def test_row_cumsum_serial(self, dev):
        vals = np.arange(32, dtype=np.float16)

        def body(ctx, q):
            t = q.alloc_tensor("fp16", 32)
            t.array[:] = vals
            I.row_cumsum_serial(ctx, t, 4, 8)
            expected = np.cumsum(vals.reshape(4, 8).astype(np.float32), axis=1)
            assert np.array_equal(
                t.array.reshape(4, 8).astype(np.float32), expected
            )

        run_vec(dev, body)

    def test_row_cumsum_shape_check(self, dev):
        def body(ctx, q):
            t = q.alloc_tensor("fp16", 30)
            I.row_cumsum_serial(ctx, t, 4, 8)

        with pytest.raises(ShapeError):
            run_vec(dev, body)

    def test_vector_macro_requires_operand(self, dev):
        def body(ctx, q):
            I.vector_macro(ctx, label="x", nbytes=64)

        with pytest.raises(KernelError):
            run_vec(dev, body)

    def test_scalar_process_charges_scalar_unit(self, dev):
        def body(ctx, q):
            I.scalar_process(
                ctx, ctx.vec_core(0), 100, label="walk",
            )

        trace = run_vec(dev, body)
        op = next(o for o in trace.ops if o.kind == "scalar")
        assert op.cycles == pytest.approx(dev.costs.scalar_cycles(100))


def _special_rows(x: np.ndarray, cols: int) -> np.ndarray:
    """``x`` with its first rows replaced by NaN / +inf / -inf / -0 rows."""
    mat = x.reshape(-1, cols).copy()
    for row, value in enumerate((np.nan, np.inf, -np.inf, -0.0)):
        mat[row] = value
    return mat.reshape(x.shape)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    assert got.dtype == want.dtype and got.shape == want.shape
    return np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestCopyFreeNumerics:
    """The in-place numerics of ``mmad`` (fp32 L0C) and ``propagate_chain``
    (tiles already in the working dtype) against the cast-and-copy
    expressions they replaced, restated here, bit for bit.

    Inputs are non-exact (N(0,1) fp16 with NaN / +-inf / -0 rows, fp32
    carries that round) and int32 values that wrap: integer-valued inputs
    could not tell a reassociated sum apart."""

    M = K = N = 32

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_mmad_fp32_matches_cast_expression(self, dev, accumulate):
        rng = np.random.default_rng(11)
        m, k, n = self.M, self.K, self.N
        a_np = _special_rows(rng.standard_normal(m * k).astype(np.float16), k)
        b_np = rng.standard_normal(k * n).astype(np.float16)
        b_np[5] = -0.0
        c0 = _special_rows(
            (rng.standard_normal(m * n) * 1e3).astype(np.float32), n
        )[::-1].copy()  # special rows of C land on finite rows of A @ B
        out = {}

        def body(ctx, cpipe):
            l0a = cpipe.init_buffer(buffer=BufferKind.L0A, depth=1, slot_bytes=2048)
            l0b = cpipe.init_buffer(buffer=BufferKind.L0B, depth=1, slot_bytes=2048)
            l0c = cpipe.init_buffer(buffer=BufferKind.L0C, depth=1, slot_bytes=4096)
            a = l0a.alloc_tensor("fp16", m * k)
            a.array[:] = a_np
            b = l0b.alloc_tensor("fp16", k * n)
            b.array[:] = b_np
            c = l0c.alloc_tensor("fp32", m * n)
            c.array[:] = c0
            I.mmad(ctx, c, a, b, m, k, n, accumulate=accumulate)
            out["c"] = c.array.copy()

        with np.errstate(invalid="ignore"):
            run_mix(dev, body)
            prod = (
                a_np.reshape(m, k).astype(np.float32)
                @ b_np.reshape(k, n).astype(np.float32)
            )
            if accumulate:
                want = c0.reshape(m, n) + prod.astype(np.float32)
            else:
                want = prod.astype(np.float32)
        assert _same_bits(out["c"], want.reshape(-1))
        # the special values reach the output: an inf row of A meets
        # mixed-sign B columns (NaN); C's inf rows survive accumulation
        assert np.isnan(out["c"]).any()
        assert np.isinf(out["c"]).any() == accumulate

    @staticmethod
    def _chain_reference(vals: np.ndarray, s: int, partial: float):
        """propagate_chain's arithmetic in its former cast-and-copy form."""
        work = vals.dtype
        mat = vals.reshape(-1, s)
        rows = mat.shape[0]
        row_last = mat[:, -1].astype(work)
        offsets = np.empty(rows, dtype=work)
        offsets[0] = work.type(partial)
        if rows > 1:
            np.cumsum(row_last[:-1], dtype=work, out=offsets[1:])
            offsets[1:] += work.type(partial)
        want = (mat.astype(work) + offsets[:, None]).astype(vals.dtype)
        return want.reshape(-1), float(offsets[-1] + row_last[-1])

    def _run_chain(self, dev, vals, s, partial):
        out = {}

        def body(ctx, q):
            dtype = "fp32" if vals.dtype == np.float32 else "int32"
            t = q.alloc_tensor(dtype, vals.size)
            t.array[:] = vals
            reg = ctx.new_register()
            out["partial"] = I.propagate_chain(ctx, t, s, partial, reg)
            out["tile"] = t.array.copy()

        run_vec(dev, body)
        return out["tile"], out["partial"]

    def test_propagate_chain_fp32_matches_cast_expression(self, dev):
        rng = np.random.default_rng(12)
        s = 32
        vals = rng.standard_normal(1024).astype(np.float16).astype(np.float32)
        vals = _special_rows(vals, s)
        vals[-s:] = rng.standard_normal(s).astype(np.float32) * 1e7  # big tail
        with np.errstate(invalid="ignore"):
            got, got_partial = self._run_chain(dev, vals, s, 0.1)
            want, want_partial = self._chain_reference(vals, s, 0.1)
        assert _same_bits(got, want)
        assert np.isnan(got_partial) and np.isnan(want_partial)

        # a finite chain: the carry rounds in every row and so does the
        # returned partial
        finite = rng.standard_normal(1024).astype(np.float32)
        finite[::7] = -0.0
        got, got_partial = self._run_chain(dev, finite, s, 1e-3)
        want, want_partial = self._chain_reference(finite, s, 1e-3)
        assert _same_bits(got, want)
        assert got_partial == want_partial

    def test_propagate_chain_int32_wraps_like_cast_expression(self, dev):
        rng = np.random.default_rng(13)
        s = 32
        info = np.iinfo(np.int32)
        vals = rng.integers(info.max - 1000, info.max, 1024).astype(np.int32)
        vals[::3] = rng.integers(info.min, info.min + 1000, 342)
        with np.errstate(over="ignore"):
            got, got_partial = self._run_chain(dev, vals, s, 12345.0)
            want, want_partial = self._chain_reference(vals, s, 12345.0)
        assert np.array_equal(got, want)
        assert got_partial == want_partial
        # the input really wraps: a wide-integer sum differs
        wide = vals.astype(np.int64).reshape(-1, s)
        assert not np.array_equal(
            want.reshape(-1, s).astype(np.int64),
            wide + np.concatenate(([12345], np.cumsum(wide[:-1, -1]) + 12345))[:, None],
        )

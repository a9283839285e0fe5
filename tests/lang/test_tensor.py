"""LocalTensor and Hazard tests."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.hw.datatypes import FP16, INT32
from repro.lang.tensor import BufferKind, Hazard, LocalTensor


def make_tensor(length=64, dtype=FP16, buffer=BufferKind.UB):
    return LocalTensor(
        buffer=buffer, dtype=dtype, length=length, core_kind="aiv", core_index=0
    )


class TestLocalTensor:
    def test_zero_initialised(self):
        t = make_tensor()
        assert np.all(t.array == 0)
        assert t.nbytes == 128

    def test_invalid_buffer(self):
        with pytest.raises(ShapeError):
            LocalTensor(
                buffer="l3", dtype=FP16, length=4, core_kind="aiv", core_index=0
            )

    def test_invalid_length(self):
        with pytest.raises(ShapeError):
            make_tensor(length=0)

    def test_view_shares_storage_and_hazard(self):
        t = make_tensor(16)
        v = t.view(4, 8)
        v.array[:] = 7
        assert np.all(t.array[4:12] == 7)
        assert v.hazard is t.hazard

    def test_view_bounds(self):
        t = make_tensor(16)
        with pytest.raises(ShapeError):
            t.view(10, 8)
        with pytest.raises(ShapeError):
            t.view(0, 0)

    def test_as_matrix(self):
        t = make_tensor(12, dtype=INT32)
        t.array[:] = np.arange(12)
        m = t.as_matrix(3, 4)
        assert m.shape == (3, 4)
        assert m[1, 0] == 4
        with pytest.raises(ShapeError):
            t.as_matrix(5, 3)


def read_deps(h):
    deps = set()
    h.add_read_deps(deps)
    return deps


def write_deps(h):
    deps = set()
    h.add_write_deps(deps)
    return deps


class TestHazard:
    def test_initial_state(self):
        h = Hazard()
        assert read_deps(h) == set()
        assert write_deps(h) == set()

    def test_raw(self):
        h = Hazard()
        h.note_write(3)
        assert read_deps(h) == {3}

    def test_war_and_waw(self):
        h = Hazard()
        h.note_write(1)
        h.note_read(2)
        h.note_read(3)
        assert write_deps(h) == {1, 2, 3}

    def test_write_clears_readers(self):
        h = Hazard()
        h.note_write(1)
        h.note_read(2)
        h.note_write(4)
        assert write_deps(h) == {4}

    def test_seed(self):
        h = Hazard()
        h.note_read(1)
        h.seed(9)
        assert read_deps(h) == {9}
        assert write_deps(h) == {9}

    def test_adds_into_existing_deps(self):
        h = Hazard()
        h.note_write(5)
        h.note_read(6)
        deps = {1, 5}
        h.add_read_deps(deps)
        assert deps == {1, 5}
        h.add_write_deps(deps)
        assert deps == {1, 5, 6}

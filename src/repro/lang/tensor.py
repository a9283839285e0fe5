"""Local tensors and hazard tracking.

:class:`LocalTensor` mirrors AscendC's ``LocalTensor``: a typed view of a
core-local buffer (UB, L1, L0A, L0B, L0C).  Each carries a :class:`Hazard`
record so the op emitter can derive cross-engine dependency edges
(RAW/WAR/WAW) automatically — the AscendC queue API resolves the same
dependencies on hardware.

Sub-views created with :meth:`LocalTensor.view` share their parent's hazard
record: the tiles of one UB allocation are serialised against each other,
which matches the conservatively-correct behaviour of a single queue slot.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..hw.datatypes import DType

__all__ = ["Hazard", "LocalTensor", "BufferKind"]


class BufferKind:
    """Physical buffer names (paper Section 3.1)."""

    UB = "ub"
    L1 = "l1"
    L0A = "l0a"
    L0B = "l0b"
    L0C = "l0c"

    ALL = (UB, L1, L0A, L0B, L0C)
    #: buffers that live on the cube core
    CUBE_SIDE = (L1, L0A, L0B, L0C)
    #: buffers that live on the vector core
    VECTOR_SIDE = (UB,)


class Hazard:
    """Last-writer / readers-since bookkeeping for one storage location."""

    __slots__ = ("last_writer", "readers", "serial")

    #: class-wide allocation counter; gives every hazard a stable identity
    #: (``id()`` values are recycled by the allocator, which would alias
    #: distinct locations in the sync-coverage audit log)
    _next_serial = 0

    def __init__(self) -> None:
        self.last_writer: int = -1
        self.readers: list[int] = []
        self.serial = Hazard._next_serial
        Hazard._next_serial += 1

    def add_read_deps(self, deps: set) -> None:
        """Add a read's dependencies to ``deps``: the last write (RAW)."""
        if self.last_writer >= 0:
            deps.add(self.last_writer)

    def add_write_deps(self, deps: set) -> None:
        """Add a write's dependencies to ``deps``: the reads since the last
        write (WAR) and that write (WAW)."""
        deps.update(self.readers)
        if self.last_writer >= 0:
            deps.add(self.last_writer)

    def note_read(self, op_id: int) -> None:
        self.readers.append(op_id)

    def note_write(self, op_id: int) -> None:
        self.last_writer = op_id
        self.readers.clear()

    def seed(self, op_id: int) -> None:
        """Make all future accesses depend on ``op_id`` (used when a queue
        slot is recycled: the new tensor must wait for the old one's ops)."""
        self.last_writer = op_id
        self.readers.clear()


class LocalTensor:
    """A typed tile resident in a core-local buffer."""

    # slotted: kernels allocate one per queue slot use, so construction and
    # attribute reads sit on the per-op tracing path
    __slots__ = (
        "buffer", "dtype", "length", "core_kind", "core_index", "hazard", "array"
    )

    def __init__(
        self,
        *,
        buffer: str,
        dtype: DType,
        length: int,
        core_kind: str,
        core_index: int,
        hazard: "Hazard | None" = None,
        array: "np.ndarray | None" = None,
    ):
        if buffer not in BufferKind.ALL:
            raise ShapeError(f"unknown buffer kind {buffer!r}")
        if length <= 0:
            raise ShapeError(f"local tensor length must be positive, got {length}")
        length = int(length)
        if array is None:
            array = np.zeros(length, dtype=dtype.np_dtype)
        elif array.shape != (length,):
            raise ShapeError(f"backing array shape {array.shape} != ({length},)")
        self.buffer = buffer
        self.dtype = dtype
        self.length = length
        self.core_kind = core_kind
        self.core_index = core_index
        self.hazard = hazard if hazard is not None else Hazard()
        self.array = array

    @property
    def nbytes(self) -> int:
        return self.length * self.dtype.itemsize

    def view(self, offset: int, length: int) -> "LocalTensor":
        """A sub-range sharing this tensor's storage and hazard record."""
        if offset < 0 or length <= 0 or offset + length > self.length:
            raise ShapeError(
                f"view [{offset}, {offset + length}) out of bounds for "
                f"local tensor of length {self.length}"
            )
        return LocalTensor(
            buffer=self.buffer,
            dtype=self.dtype,
            length=length,
            core_kind=self.core_kind,
            core_index=self.core_index,
            hazard=self.hazard,
            array=self.array[offset : offset + length],
        )

    def as_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Row-major matrix view (the paper's ``A_s`` view of a tile)."""
        if rows * cols != self.length:
            raise ShapeError(
                f"cannot view length-{self.length} tensor as {rows}x{cols}"
            )
        return self.array.reshape(rows, cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalTensor({self.buffer}@{self.core_kind}{self.core_index}, "
            f"{self.dtype.name}, len={self.length})"
        )

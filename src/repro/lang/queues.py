"""AscendC-style pipes and queues.

``TPipe`` owns the local buffer budget of one core; ``TQue`` manages a fixed
number of equally-sized slots inside one buffer.  As in AscendC, setting the
queue depth to two is all it takes to double-buffer a pipeline stage
(paper Section 3.2): each slot carries its own hazard record, so ops on the
tensor allocated from slot 0 overlap with ops on slot 1, while reuse of a
slot serialises against the previous occupant automatically.
"""

from __future__ import annotations

from collections import deque as _deque

from ..errors import BufferOverflowError, QueueError, ShapeError
from ..hw.config import BufferConfig
from ..hw.datatypes import DType, as_dtype
from .tensor import BufferKind, Hazard, LocalTensor

__all__ = ["TPipe", "TQue"]


class _Slot:
    """One queue slot: its capacity, its hazard record (shared by every
    tensor allocated from it) and whether a tensor holds it."""

    __slots__ = ("capacity_bytes", "hazard", "in_use")

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = capacity_bytes
        self.hazard = Hazard()
        self.in_use = False


class TQue:
    """A FIFO of local-tensor slots in one physical buffer."""

    def __init__(
        self,
        *,
        buffer: str,
        depth: int,
        slot_bytes: int,
        core_kind: str,
        core_index: int,
    ):
        if depth < 1:
            raise QueueError("queue depth must be >= 1")
        if slot_bytes <= 0:
            raise QueueError("slot size must be positive")
        self.buffer = buffer
        self.core_kind = core_kind
        self.core_index = core_index
        self._slots = [_Slot(slot_bytes) for _ in range(depth)]
        self._next_slot = 0
        self._fifo: _deque[LocalTensor] = _deque()
        self._slot_of: dict[int, _Slot] = {}

    @property
    def depth(self) -> int:
        return len(self._slots)

    def alloc_tensor(self, dtype: "DType | str", length: int) -> LocalTensor:
        """Allocate a tensor in the next free slot (AllocTensor).

        Raises:
            QueueError: if all slots are in use (the kernel forgot to free).
            BufferOverflowError: if the tensor exceeds the slot capacity.
        """
        dt = as_dtype(dtype)
        nbytes = length * dt.itemsize
        slots = self._slots
        depth = len(slots)
        slot = None
        for i in range(depth):
            candidate = slots[(self._next_slot + i) % depth]
            if not candidate.in_use:
                slot = candidate
                self._next_slot = (self._next_slot + i + 1) % depth
                break
        if slot is None:
            raise QueueError(
                f"all {self.depth} slots of {self.buffer} queue are in use; "
                f"free a tensor before allocating (or increase the depth)"
            )
        if nbytes > slot.capacity_bytes:
            raise BufferOverflowError(
                f"tensor of {nbytes} bytes exceeds {self.buffer} slot "
                f"capacity {slot.capacity_bytes}"
            )
        slot.in_use = True
        tensor = LocalTensor(
            buffer=self.buffer,
            dtype=dt,
            length=length,
            core_kind=self.core_kind,
            core_index=self.core_index,
            hazard=slot.hazard,
        )
        self._slot_of[id(tensor)] = slot
        return tensor

    def enque(self, tensor: LocalTensor) -> None:
        """Publish a tensor to the consumer side (EnQue)."""
        if id(tensor) not in self._slot_of:
            raise QueueError("enque of a tensor not allocated from this queue")
        self._fifo.append(tensor)

    def deque(self) -> LocalTensor:
        """Take the oldest published tensor (DeQue)."""
        if not self._fifo:
            raise QueueError("deque on an empty queue (enque must come first)")
        return self._fifo.popleft()

    def free_tensor(self, tensor: LocalTensor) -> None:
        """Return the tensor's slot to the allocator (FreeTensor)."""
        slot = self._slot_of.pop(id(tensor), None)
        if slot is None:
            raise QueueError("free of a tensor not allocated from this queue")
        slot.in_use = False


class TPipe:
    """Buffer-budget owner for one core (AscendC TPipe).

    One TPipe assumes the full buffer capacity of its core; create one pipe
    per kernel phase per core (buffers are reused across phases, as on
    hardware).
    """

    def __init__(self, *, core_kind: str, core_index: int, buffers: BufferConfig):
        self.core_kind = core_kind
        self.core_index = core_index
        self._capacity = {
            BufferKind.UB: buffers.ub_bytes,
            BufferKind.L1: buffers.l1_bytes,
            BufferKind.L0A: buffers.l0a_bytes,
            BufferKind.L0B: buffers.l0b_bytes,
            BufferKind.L0C: buffers.l0c_bytes,
        }
        self._reserved = {k: 0 for k in self._capacity}

    def reserved_bytes(self, buffer: str) -> int:
        return self._reserved[buffer]

    def init_buffer(self, *, buffer: str, depth: int, slot_bytes: int) -> TQue:
        """Reserve ``depth`` slots of ``slot_bytes`` in ``buffer`` (InitBuffer)."""
        if buffer not in BufferKind.ALL:
            raise ShapeError(f"unknown buffer kind {buffer!r}")
        if self.core_kind == "aiv" and buffer not in BufferKind.VECTOR_SIDE:
            raise BufferOverflowError(
                f"vector cores have no {buffer} buffer (UB only)"
            )
        if self.core_kind == "aic" and buffer not in BufferKind.CUBE_SIDE:
            raise BufferOverflowError(
                f"cube cores have no {buffer} buffer (L1/L0A/L0B/L0C only)"
            )
        need = depth * slot_bytes
        if self._reserved[buffer] + need > self._capacity[buffer]:
            raise BufferOverflowError(
                f"{buffer} over capacity on {self.core_kind}{self.core_index}: "
                f"{self._reserved[buffer]} + {need} > {self._capacity[buffer]} bytes"
            )
        self._reserved[buffer] += need
        return TQue(
            buffer=buffer,
            depth=depth,
            slot_bytes=slot_bytes,
            core_kind=self.core_kind,
            core_index=self.core_index,
        )

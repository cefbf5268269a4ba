"""Shared-memory embedding snapshots: publish once, attach zero-copy.

The sharded frontend (:mod:`repro.serving.sharded`) runs N
:class:`~repro.serving.PredictionService` replicas in worker processes.
Each replica reads the same frozen :class:`~repro.core.EmbeddingSnapshot`
— megabytes of float64 towers at fleet scale — so pickling a copy per
worker would multiply resident memory by N and make every swap pay N
serializations. This module places the snapshot arrays in **one** named
``multiprocessing.shared_memory`` block instead:

* :meth:`SharedSnapshot.publish` packs the arrays (placed by a
  :class:`BlockLayout`: aligned offset, shape and dtype per array) after
  a 16-byte header carrying a magic word and the serving **generation
  tag**;
* :func:`attach_snapshot` rebuilds a read-only, zero-copy
  :class:`EmbeddingSnapshot` in any process from the picklable
  :class:`SnapshotLayout` — the only thing that crosses the pipe;
* the header generation is re-readable at any time
  (:func:`header_generation`), which is what lets the swap stress test
  prove a shard never serves from a block other than the one its
  response claims.

Lifecycle contract: the publisher (router) owns the block and is the
only process that may :meth:`~SharedSnapshot.reclaim` (close + unlink)
it; attachers only ever ``close()`` their mapping. POSIX keeps an
unlinked segment alive until the last mapping closes, so the protocol
invariant "reclaim only after every shard acknowledged the swap" is
what guarantees no shard ever faults on, or re-attaches, a dead block.

CPython ≤3.12 wrinkle: every ``SharedMemory`` handle — even an
attach-only one — registers with the per-process ``resource_tracker``,
which *unlinks* registered segments when its process exits. A worker
exiting would therefore destroy the router's live block. Attaches here
immediately unregister (the documented workaround for cpython#82300);
ownership stays with the publisher alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from ..core.config import PitotConfig
from ..core.model import EmbeddingSnapshot

__all__ = [
    "ArraySpec",
    "BlockLayout",
    "SharedSnapshot",
    "SnapshotLayout",
    "attach_snapshot",
    "header_generation",
]

#: Bytes reserved ahead of the array payload: int64 magic + int64 generation.
HEADER_BYTES = 16

#: Sanity word at offset 0 — catches attaching a foreign/garbage segment.
_MAGIC = 0x50_49_54_4F_54_31  # "PITOT1"

#: EmbeddingSnapshot array fields in packing order; None fields skipped.
_FIELDS = ("W", "P", "VS", "VG", "baseline_w", "baseline_p")

#: Byte alignment for every array placed in a shared block. 16 covers
#: the widest dtype NumPy vectorizes over (complex128) and keeps SIMD
#: loads aligned regardless of the preceding array's size.
_ALIGN = 16


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one ndarray inside a flat byte buffer."""

    shape: tuple[int, ...]
    dtype: str  #: dtype string (picklable; ``np.dtype(spec.dtype)`` rebuilds)
    offset: int  #: byte offset of the first element

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class BlockLayout:
    """Offsets/shapes/dtypes of a family of arrays in one shared buffer.

    Built once on the publishing side from live arrays, shipped (pickled)
    to attaching processes, which rebuild zero-copy views with
    :meth:`views`. The layout is pure bookkeeping — it never holds array
    data, so sending it over a pipe costs bytes, not megabytes.
    """

    specs: tuple[ArraySpec, ...]
    nbytes: int  #: total buffer size (aligned) the specs assume

    @classmethod
    def from_arrays(cls, arrays: "list[np.ndarray]") -> "BlockLayout":
        specs = []
        offset = 0
        for arr in arrays:
            offset = _aligned(offset)
            spec = ArraySpec(
                shape=tuple(arr.shape), dtype=arr.dtype.str, offset=offset
            )
            specs.append(spec)
            offset += spec.nbytes
        return cls(specs=tuple(specs), nbytes=_aligned(offset))

    def view(self, buffer: Any, index: int, writeable: bool = True) -> np.ndarray:
        """Zero-copy ndarray over ``buffer`` for spec ``index``."""
        spec = self.specs[index]
        out = np.frombuffer(
            buffer,
            dtype=np.dtype(spec.dtype),
            count=int(np.prod(spec.shape, dtype=np.int64)),
            offset=spec.offset,
        ).reshape(spec.shape)
        if not writeable:
            out.flags.writeable = False
        return out

    def views(self, buffer: Any, writeable: bool = True) -> list[np.ndarray]:
        """Zero-copy views for every spec, in declaration order."""
        return [
            self.view(buffer, i, writeable=writeable)
            for i in range(len(self.specs))
        ]

    def pack(self, buffer: Any, arrays: "list[np.ndarray]") -> None:
        """Copy ``arrays`` into ``buffer`` at their placed offsets."""
        if len(arrays) != len(self.specs):
            raise ValueError(
                f"layout holds {len(self.specs)} array(s), got {len(arrays)}"
            )
        for view, arr in zip(self.views(buffer), arrays):
            np.copyto(view, arr)


def _header_view(buf) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.int64, count=2, offset=0)


def header_generation(shm: shared_memory.SharedMemory) -> int:
    """The generation tag stored inside the block itself.

    Read through the attacher's own mapping, so it reports the block the
    caller is *actually* wired to — the observable the torn-read stress
    test checks responses against.
    """
    header = _header_view(shm.buf)
    if int(header[0]) != _MAGIC:
        raise ValueError(
            f"shared block {shm.name!r} does not carry a snapshot header"
        )
    return int(header[1])


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach by name without adopting unlink responsibility.

    Suppresses the tracker registration during the attach instead of
    unregistering afterwards: an unregister message for a name the
    tracker never saw (or saw via the publisher) makes the tracker
    process print spurious KeyErrors. Registration suppression is local
    to this call; attaches happen on a single thread per process (worker
    startup and swap handling), so the swap is race-free in practice.
    """
    original = resource_tracker.register

    def _skip_shared_memory(name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - defensive
            original(name, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class SnapshotLayout:
    """Everything an attacher needs to rebuild the snapshot — no arrays.

    Picklable and tiny: ships over the worker control queue on spawn and
    on every swap broadcast.
    """

    shm_name: str
    generation: int  #: serving generation this block was published for
    model_generation: int  #: source model's parameter generation
    config: PitotConfig
    fields: tuple[str, ...]  #: which ``_FIELDS`` are present, in order
    block: BlockLayout  #: placement of ``fields`` after the header


class SharedSnapshot:
    """Publisher-side handle to one immutable shared snapshot block.

    Created by :meth:`publish`; the router keeps exactly one live handle
    per serving generation and calls :meth:`reclaim` once every shard
    has acknowledged the generation that replaces it.
    """

    def __init__(
        self, layout: SnapshotLayout, shm: shared_memory.SharedMemory
    ) -> None:
        self.layout = layout
        self._shm = shm
        self.reclaimed = False

    @classmethod
    def publish(
        cls, snapshot: EmbeddingSnapshot, generation: int
    ) -> "SharedSnapshot":
        """Copy ``snapshot``'s arrays into a fresh named block."""
        fields = tuple(
            name for name in _FIELDS if getattr(snapshot, name) is not None
        )
        arrays = [np.ascontiguousarray(getattr(snapshot, name)) for name in fields]
        block = BlockLayout.from_arrays(arrays)
        shm = shared_memory.SharedMemory(
            create=True, size=HEADER_BYTES + block.nbytes
        )
        header = _header_view(shm.buf)
        header[0] = _MAGIC
        header[1] = generation
        payload = memoryview(shm.buf)[HEADER_BYTES:]
        block.pack(payload, arrays)
        del payload, header  # release buffer exports before any close()
        layout = SnapshotLayout(
            shm_name=shm.name,
            generation=generation,
            model_generation=snapshot.generation,
            config=snapshot.config,
            fields=fields,
            block=block,
        )
        return cls(layout, shm)

    @property
    def name(self) -> str:
        return self.layout.shm_name

    @property
    def generation(self) -> int:
        return self.layout.generation

    def reclaim(self) -> None:
        """Close the publisher mapping and unlink the name; idempotent.

        After this, no *new* attach can find the block; existing
        mappings (shards mid-close during a swap) stay valid until they
        close — POSIX semantics do the grace period for us.
        """
        if self.reclaimed:
            return
        self.reclaimed = True
        self._shm.close()
        self._shm.unlink()


def attach_snapshot(
    layout: SnapshotLayout,
) -> tuple[EmbeddingSnapshot, shared_memory.SharedMemory]:
    """Open the named block and rebuild a read-only snapshot over it.

    The returned :class:`EmbeddingSnapshot` is bitwise the published one
    — its arrays are views into the mapping, not copies — and the views
    are marked non-writable: a replica scribbling on shared embeddings
    would corrupt every other shard silently.

    Callers own the returned ``SharedMemory`` mapping and must
    ``close()`` it when they detach (after a swap flip, or at exit);
    they must never ``unlink()`` — the publisher does.
    """
    shm = _attach_untracked(layout.shm_name)
    found = header_generation(shm)
    if found != layout.generation:
        shm.close()
        raise ValueError(
            f"shared block {layout.shm_name!r} carries generation {found}, "
            f"expected {layout.generation}; the layout is stale"
        )
    payload = memoryview(shm.buf)[HEADER_BYTES:]
    views = dict(
        zip(layout.fields, layout.block.views(payload, writeable=False))
    )
    snapshot = EmbeddingSnapshot(
        config=layout.config,
        W=views["W"],
        P=views["P"],
        VS=views.get("VS"),
        VG=views.get("VG"),
        baseline_w=views.get("baseline_w"),
        baseline_p=views.get("baseline_p"),
        generation=layout.model_generation,
    )
    return snapshot, shm

"""Shared-memory snapshot blocks: publish/attach/reclaim lifecycle."""

import dataclasses
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.model import EmbeddingSnapshot
from repro.serving import SharedSnapshot, attach_snapshot
from repro.serving.shm import HEADER_BYTES, BlockLayout, header_generation


@pytest.fixture(scope="module")
def snapshot(trained_pitot_quantile):
    return EmbeddingSnapshot.from_model(trained_pitot_quantile.model)


class TestPublishAttach:
    def test_roundtrip_is_bitwise(self, snapshot):
        shared = SharedSnapshot.publish(snapshot, generation=0)
        try:
            attached, shm = attach_snapshot(shared.layout)
            assert np.array_equal(attached.W, snapshot.W)
            assert np.array_equal(attached.P, snapshot.P)
            for name in ("VS", "VG", "baseline_w", "baseline_p"):
                ours, theirs = getattr(attached, name), getattr(snapshot, name)
                if theirs is None:
                    assert ours is None
                else:
                    assert np.array_equal(ours, theirs)
            assert attached.config == snapshot.config
            assert attached.generation == snapshot.generation
            # Views pin buffer exports; drop them before closing the map.
            del attached, ours, theirs
            shm.close()
        finally:
            shared.reclaim()

    def test_attached_views_are_read_only(self, snapshot):
        shared = SharedSnapshot.publish(snapshot, generation=0)
        try:
            attached, shm = attach_snapshot(shared.layout)
            with pytest.raises(ValueError):
                attached.W[0, 0, 0] = 1.0
            del attached
            shm.close()
        finally:
            shared.reclaim()

    def test_attach_is_zero_copy(self, snapshot):
        """A write through the publisher's buffer is visible through the
        attached view — proof the attacher maps the block, not a copy."""
        shared = SharedSnapshot.publish(snapshot, generation=0)
        try:
            attached, shm = attach_snapshot(shared.layout)
            payload = memoryview(shared._shm.buf)[HEADER_BYTES:]
            publisher_view = shared.layout.block.view(payload, 0)
            before = float(attached.W.ravel()[0])
            publisher_view.ravel()[0] = before + 1.0
            assert float(attached.W.ravel()[0]) == before + 1.0
            publisher_view.ravel()[0] = before
            del publisher_view, payload, attached
            shm.close()
        finally:
            shared.reclaim()

    def test_layout_is_picklable_and_array_free(self, snapshot):
        import pickle

        shared = SharedSnapshot.publish(snapshot, generation=3)
        try:
            blob = pickle.dumps(shared.layout)
            # A layout must cost bytes, not megabytes: it carries no
            # array payload, only placement bookkeeping.
            assert len(blob) < 4096
            clone = pickle.loads(blob)
            assert clone == shared.layout
        finally:
            shared.reclaim()


class TestHeader:
    def test_header_generation_matches_publish_tag(self, snapshot):
        shared = SharedSnapshot.publish(snapshot, generation=7)
        try:
            attached, shm = attach_snapshot(shared.layout)
            assert header_generation(shm) == 7
            assert shared.generation == 7
            del attached
            shm.close()
        finally:
            shared.reclaim()

    def test_foreign_block_rejected(self):
        foreign = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ValueError, match="snapshot header"):
                header_generation(foreign)
        finally:
            foreign.close()
            foreign.unlink()

    def test_stale_layout_rejected(self, snapshot):
        """An attacher holding a layout for generation g must not wire
        itself to a block republished under generation g' — the check
        that turns a protocol bug into a loud error."""
        shared = SharedSnapshot.publish(snapshot, generation=2)
        try:
            stale = dataclasses.replace(shared.layout, generation=1)
            with pytest.raises(ValueError, match="stale"):
                attach_snapshot(stale)
        finally:
            shared.reclaim()


class TestReclaim:
    def test_reclaim_is_idempotent(self, snapshot):
        shared = SharedSnapshot.publish(snapshot, generation=0)
        shared.reclaim()
        shared.reclaim()
        assert shared.reclaimed

    def test_attach_after_reclaim_fails(self, snapshot):
        shared = SharedSnapshot.publish(snapshot, generation=0)
        layout = shared.layout
        shared.reclaim()
        with pytest.raises(FileNotFoundError):
            attach_snapshot(layout)

    def test_existing_mapping_survives_reclaim(self, snapshot):
        """POSIX grace period: an attached mapping stays readable after
        the publisher unlinks the name — what makes ack-then-reclaim
        safe even for a shard mid-flip."""
        shared = SharedSnapshot.publish(snapshot, generation=0)
        attached, shm = attach_snapshot(shared.layout)
        shared.reclaim()
        assert np.array_equal(attached.W, snapshot.W)
        del attached
        shm.close()


class TestBlockLayout:
    """The placement contract a spawn child rebuilds its views from."""

    def test_views_are_aligned_and_bitwise(self):
        import pickle

        rng = np.random.default_rng(0)
        arrays = [
            rng.standard_normal((3, 5, 7)),
            rng.standard_normal(11).astype(np.float32),
            rng.integers(0, 100, size=(2, 2)),
        ]
        layout = BlockLayout.from_arrays(arrays)
        assert all(spec.offset % 16 == 0 for spec in layout.specs)
        buffer = bytearray(layout.nbytes)
        layout.pack(buffer, arrays)
        # A pickled layout rebuilds identical views in another process's
        # mapping — here simulated by a fresh loads() on the same buffer.
        clone = pickle.loads(pickle.dumps(layout))
        for arr, view in zip(arrays, clone.views(buffer)):
            assert view.dtype == arr.dtype
            assert np.array_equal(view, arr)

    def test_readonly_views(self):
        arrays = [np.arange(4.0)]
        layout = BlockLayout.from_arrays(arrays)
        buffer = bytearray(layout.nbytes)
        layout.pack(buffer, arrays)
        view = layout.view(bytes(buffer), 0, writeable=False)
        with pytest.raises(ValueError):
            view[0] = 9.0

    def test_pack_rejects_arity_mismatch(self):
        layout = BlockLayout.from_arrays([np.arange(4.0)])
        with pytest.raises(ValueError):
            layout.pack(bytearray(layout.nbytes), [])

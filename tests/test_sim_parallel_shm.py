"""Shared-memory segment packing.

``create_segment`` / ``AttachedSegment`` carry the service supervisor's
counter block (``repro.sim.service``): shard workers attach writable
and the parent reads their counters without a round trip.  What that
needs is pinned here — arrays round-trip bit-identically, consumers get
read-only views unless they ask otherwise, a write through one mapping
is visible through another — and the autouse fixture asserts that no
``/dev/shm/reproshm_*`` entry outlives any test in the module.
"""

import glob

import numpy as np
import pytest

from repro.sim.parallel import SHM_PREFIX, AttachedSegment, create_segment


def shm_entries():
    """Names of our segments currently visible in /dev/shm."""
    return sorted(glob.glob(f"/dev/shm/{SHM_PREFIX}_*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = shm_entries()
    yield
    assert shm_entries() == before, "a shared-memory segment leaked"


class TestSegmentPacking:
    def test_roundtrip_is_bit_identical(self):
        arrays = {
            "f": np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0,
            "i": np.arange(-5, 5, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.float64),
            "bytes": np.frombuffer(b"a\nb\nc", dtype=np.uint8),
        }
        shm, spec = create_segment(arrays)
        try:
            shm.close()
            seg = AttachedSegment(spec)
            assert set(seg.arrays) == set(arrays)
            for key, arr in arrays.items():
                assert seg.arrays[key].dtype == arr.dtype
                np.testing.assert_array_equal(seg.arrays[key], arr)
        finally:
            seg.close(unlink=True)

    def test_segment_names_carry_the_prefix(self):
        shm, spec = create_segment({"a": np.ones(3)})
        assert spec.name.startswith(SHM_PREFIX)
        assert shm_entries()  # visible while alive
        shm.unlink()
        shm.close()

    def test_attached_views_are_read_only(self):
        shm, spec = create_segment({"a": np.ones(3)})
        try:
            shm.close()
            seg = AttachedSegment(spec)
            with pytest.raises(ValueError):
                seg.arrays["a"][0] = 2.0
        finally:
            seg.close(unlink=True)

    def test_writable_attachment_is_seen_across_mappings(self):
        shm, spec = create_segment({"rows": np.zeros((2, 3))})
        try:
            shm.close()
            reader = AttachedSegment(spec)
            writer = AttachedSegment(spec, writable=True)
            writer.arrays["rows"][1, 2] = 9.25
            writer.close()
            assert reader.arrays["rows"][1, 2] == 9.25
        finally:
            reader.close(unlink=True)

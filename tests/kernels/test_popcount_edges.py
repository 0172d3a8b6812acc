"""Edge cases of the popcount kernels.

The edges — empty buffers, lengths that are not a multiple of 8, buffer
types, too-narrow widths — are pinned here for BOTH backends: numpy
presence must change speed, never values or error behaviour.
"""

from __future__ import annotations

import pytest

from repro.kernels import vec

BACKENDS = ["numpy", "python"] if vec.numpy_available() else ["python"]


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run the decorated test once per available backend."""
    if request.param == "python":
        monkeypatch.setattr(vec, "_np", None)
    return request.param


class TestPopcountBytes:
    def test_empty_buffers(self, backend):
        assert vec.popcount_bytes(b"") == 0
        assert vec.popcount_bytes(bytearray()) == 0
        assert vec.popcount_bytes(memoryview(b"")) == 0

    def test_non_multiple_of_eight_lengths(self, backend):
        for length in range(1, 18):
            data = bytes((7 * i + 3) % 256 for i in range(length))
            expected = sum(b.bit_count() for b in data)
            assert vec.popcount_bytes(data) == expected, length

    def test_buffer_types_agree(self, backend):
        data = bytes(range(256)) * 5 + b"\xff"
        expected = sum(b.bit_count() for b in data)
        assert vec.popcount_bytes(data) == expected
        assert vec.popcount_bytes(bytearray(data)) == expected
        assert vec.popcount_bytes(memoryview(data)) == expected

    def test_all_ones_and_zeros(self, backend):
        assert vec.popcount_bytes(b"\x00" * 129) == 0
        assert vec.popcount_bytes(b"\xff" * 129) == 129 * 8

    def test_python_chunk_boundaries(self, monkeypatch):
        # Exactly one chunk, one byte short, one byte over.
        monkeypatch.setattr(vec, "_np", None)
        for length in (
            vec._POPCOUNT_CHUNK - 1,
            vec._POPCOUNT_CHUNK,
            vec._POPCOUNT_CHUNK + 1,
        ):
            data = b"\x81" * length  # 2 bits per byte
            assert vec.popcount_bytes(data) == 2 * length


class TestBulkPopcount:
    MASKS = [0, 1, 0b1011, 255, 256, (1 << 63), (1 << 64) - 1, (1 << 100) - 1]

    def test_matches_bit_count(self, backend):
        assert vec.bulk_popcount(self.MASKS) == [m.bit_count() for m in self.MASKS]

    def test_empty_sequence(self, backend):
        assert vec.bulk_popcount([]) == []
        assert vec.bulk_popcount([], mask_bytes=4) == []

    def test_explicit_width_wider_than_needed(self, backend):
        assert vec.bulk_popcount([1, 3], mask_bytes=64) == [1, 2]

    def test_exact_width_boundary(self, backend):
        # 8 bits exactly fill 1 byte; bit 8 needs 2.
        assert vec.bulk_popcount([255], mask_bytes=1) == [8]
        assert vec.bulk_popcount([256], mask_bytes=2) == [1]

    def test_too_narrow_width_rejected(self, backend):
        with pytest.raises(ValueError, match="does not fit"):
            vec.bulk_popcount([256], mask_bytes=1)

    def test_nonpositive_width_rejected(self, backend):
        with pytest.raises(ValueError, match="mask_bytes"):
            vec.bulk_popcount([1], mask_bytes=0)

    def test_negative_mask_rejected(self, backend):
        with pytest.raises(ValueError):
            vec.bulk_popcount([3, -1])
        with pytest.raises(ValueError):
            vec.bulk_popcount([3, -1], mask_bytes=4)

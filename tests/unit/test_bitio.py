"""Unit tests for bit-level I/O."""

import pytest

from repro.compress.bitio import BitIOError, BitReader, pack_bits


class TestPackBits:
    def test_msb_first_packing(self):
        bits = (1, 0, 1, 0, 1, 0, 1, 0)
        assert pack_bits([(bit, 1) for bit in bits]) == b"\xaa"

    def test_partial_byte_zero_padded(self):
        assert pack_bits([(0b101, 3)]) == bytes((0b1010_0000,))

    def test_empty(self):
        assert pack_bits([]) == b""
        assert pack_bits([(0, 0)]) == b""

    def test_bit_length_tracks_exact_bits(self):
        # 7 bits take one byte; the eighth is padding.
        assert pack_bits([(0x3, 2), (0x1F, 5)]) == bytes((0b1111_1110,))
        assert len(pack_bits([(0x3, 2), (0x1F, 5), (1, 2)])) == 2

    def test_value_too_wide_rejected(self):
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(8, 3)])
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(1, 1), (8, 3)])

    def test_negative_width_rejected(self):
        with pytest.raises(BitIOError, match="non-negative"):
            pack_bits([(0, -1)])
        with pytest.raises(BitIOError, match="non-negative"):
            pack_bits([(1, 1), (0, -1)])

    def test_oversized_value_rejected_for_wide_fields(self):
        # width >= 64 is range-checked too (the seed writer skipped it).
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(1 << 64, 64)])


class TestBitReader:
    def test_read_back_bits(self):
        reader = BitReader(pack_bits([(0b110101, 6)]))
        assert reader.read_bits(6) == 0b110101

    def test_exhaustion_raises(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(BitIOError, match="exhausted"):
            reader.read_bit()

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        assert reader.bits_remaining == 16
        reader.read_bits(5)
        assert reader.bits_remaining == 11

    def test_skip_and_peek(self):
        reader = BitReader(b"\xf0\x0f")
        assert reader.peek_bits(4) == 0xF
        assert reader.bits_remaining == 16
        reader.skip_bits(4)
        assert reader.read_bits(8) == 0x00
        # Peeking past the end pads with zeros without consuming.
        assert reader.peek_bits(16) == 0xF << 12
        with pytest.raises(BitIOError, match="exhausted"):
            reader.skip_bits(5)

    def test_interleaved_fields(self):
        reader = BitReader(
            pack_bits([(1, 1), (0xAB, 8), (0b110, 3), (0x3, 2)])
        )
        assert reader.read_bit() == 1
        assert reader.read_bits(8) == 0xAB
        assert [reader.read_bit() for _ in range(3)] == [1, 1, 0]
        assert reader.read_bits(2) == 0x3

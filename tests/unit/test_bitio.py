"""Unit tests for bit-level I/O."""

import pytest

from repro.compress.bitio import BitIOError, BitReader, BitWriter


class TestBitWriter:
    def test_msb_first_packing(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 0, 1, 0, 1, 0):
            writer.write_bits(bit, 1)
        assert writer.getvalue() == b"\xaa"

    def test_partial_byte_zero_padded(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.getvalue() == bytes((0b1010_0000,))

    def test_bit_length_tracks_exact_bits(self):
        writer = BitWriter()
        writer.write_bits(0x3, 2)
        writer.write_bits(0x1F, 5)
        assert writer.bit_length == 7

    def test_value_too_wide_rejected(self):
        with pytest.raises(BitIOError, match="does not fit"):
            BitWriter().write_bits(8, 3)

    def test_negative_width_rejected(self):
        with pytest.raises(BitIOError):
            BitWriter().write_bits(0, -1)

    def test_empty_writer(self):
        assert BitWriter().getvalue() == b""

    def test_oversized_value_rejected_for_wide_fields(self):
        # width >= 64 must be range-checked too (seed gap).
        with pytest.raises(BitIOError, match="does not fit"):
            BitWriter().write_bits(1 << 64, 64)


class TestBitReader:
    def test_read_back_bits(self):
        writer = BitWriter()
        writer.write_bits(0b110101, 6)
        reader = BitReader(writer.getvalue())
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
        assert reader.bit_position == 0
        reader.skip_bits(4)
        assert reader.read_bits(8) == 0x00
        # Peeking past the end pads with zeros without consuming.
        assert reader.peek_bits(16) == 0xF << 12
        with pytest.raises(BitIOError, match="exhausted"):
            reader.skip_bits(5)

    def test_interleaved_fields(self):
        writer = BitWriter()
        writer.write_bits(1, 1)
        writer.write_bits(0xAB, 8)
        writer.write_bits(0b110, 3)
        writer.write_bits(0x3, 2)
        reader = BitReader(writer.getvalue())
        assert reader.read_bit() == 1
        assert reader.read_bits(8) == 0xAB
        assert [reader.read_bit() for _ in range(3)] == [1, 1, 0]
        assert reader.read_bits(2) == 0x3

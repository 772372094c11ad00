"""Property-based tests for :mod:`repro.compress.bitio`.

Randomized value/width round-trips (including width-boundary values)
plus the overflow/underflow error paths, run
against both the scalar (``write_bits``/``read_bits``) and the bulk
(``write_run``/``read_run``) paths.  The two paths must be
byte-identical: a bulk write round-trips through a scalar read and vice
versa.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.bitio import BitIOError, BitReader, BitWriter

#: A run of fixed-width fields: (width, values) with every value in
#: range, widths crossing the bulk chunk boundary (2048 // width).
_runs = st.integers(min_value=1, max_value=40).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.integers(min_value=0, max_value=(1 << width) - 1),
            max_size=600,
        ),
    )
)

#: Mixed-width field sequences for scalar round-trips, biased toward
#: the boundary values 0 and 2**width - 1.
_fields = st.lists(
    st.integers(min_value=0, max_value=66).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.one_of(
                st.just(0),
                st.just((1 << width) - 1 if width else 0),
                st.integers(min_value=0, max_value=(1 << width) - 1),
            ),
        )
    ),
    max_size=80,
)


class TestRoundTrips:
    @given(_fields)
    @settings(max_examples=200, deadline=None)
    def test_scalar_write_read_roundtrip(self, fields):
        writer = BitWriter()
        for width, value in fields:
            writer.write_bits(value, width)
        assert writer.bit_length == sum(w for w, _ in fields)
        reader = BitReader(writer.getvalue())
        for width, value in fields:
            assert reader.read_bits(width) == value

    @given(_runs)
    @settings(max_examples=200, deadline=None)
    def test_bulk_write_scalar_read_roundtrip(self, run):
        width, values = run
        writer = BitWriter()
        writer.write_run(values, width)
        assert writer.bit_length == width * len(values)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bits(width) for _ in values] == values

    @given(_runs)
    @settings(max_examples=200, deadline=None)
    def test_scalar_write_bulk_read_roundtrip(self, run):
        width, values = run
        writer = BitWriter()
        for value in values:
            writer.write_bits(value, width)
        reader = BitReader(writer.getvalue())
        assert reader.read_run(width, len(values)) == values
        assert reader.bit_position == width * len(values)

    @given(_runs, st.integers(min_value=0, max_value=17))
    @settings(max_examples=150, deadline=None)
    def test_bulk_paths_byte_identical_after_misalignment(
            self, run, lead):
        # A leading unaligned field must not disturb the bulk layout.
        width, values = run
        bulk = BitWriter()
        bulk.write_bits((1 << lead) - 1, lead)
        bulk.write_run(values, width)
        scalar = BitWriter()
        scalar.write_bits((1 << lead) - 1, lead)
        for value in values:
            scalar.write_bits(value, width)
        assert bulk.getvalue() == scalar.getvalue()
        reader = BitReader(bulk.getvalue())
        reader.skip_bits(lead)
        assert reader.read_run(width, len(values)) == values

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_width_zero_fields_are_free(self, count):
        writer = BitWriter()
        writer.write_run([0] * count, 0)
        assert writer.bit_length == 0
        assert BitReader(b"").read_run(0, count) == [0] * count


class TestOverflow:
    @given(st.integers(min_value=0, max_value=66))
    @settings(max_examples=60, deadline=None)
    def test_value_too_wide_rejected(self, width):
        writer = BitWriter()
        with pytest.raises(BitIOError, match="does not fit"):
            writer.write_bits(1 << width, width)
        # The failed write must not have corrupted the stream.
        writer.write_bits((1 << width) - 1, width)
        assert writer.bit_length == width

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_bulk_value_too_wide_rejected(self, width, good):
        writer = BitWriter()
        values = [0] * good + [1 << width]
        with pytest.raises(BitIOError, match="does not fit"):
            writer.write_run(values, width)

    def test_negative_inputs_rejected(self):
        writer = BitWriter()
        with pytest.raises(BitIOError):
            writer.write_bits(-1, 4)
        with pytest.raises(BitIOError):
            writer.write_bits(0, -1)
        with pytest.raises(BitIOError):
            writer.write_run([0], -1)
        with pytest.raises(BitIOError):
            writer.write_run([-1], 4)

    def test_width_zero_rejects_nonzero_values(self):
        writer = BitWriter()
        with pytest.raises(BitIOError, match="does not fit"):
            writer.write_bits(1, 0)
        with pytest.raises(BitIOError, match="does not fit"):
            writer.write_run([0, 0, 1], 0)


class TestUnderflow:
    @given(st.binary(max_size=32), st.integers(min_value=1,
                                               max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_scalar_read_past_end_raises(self, data, extra):
        reader = BitReader(data)
        with pytest.raises(BitIOError, match="exhausted"):
            reader.read_bits(reader.bits_remaining + extra)
        # Failed reads consume nothing.
        assert reader.bit_position == 0
        reader.read_bits(reader.bits_remaining)

    @given(st.binary(max_size=32), st.integers(min_value=1,
                                               max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_bulk_read_past_end_raises_without_consuming(
            self, data, width):
        reader = BitReader(data)
        fits = reader.bits_remaining // width
        with pytest.raises(BitIOError, match="exhausted"):
            reader.read_run(width, fits + 1)
        assert reader.bit_position == 0
        # The same reader still serves the fields that do fit.
        fresh = BitReader(data)
        assert reader.read_run(width, fits) == \
            [fresh.read_bits(width) for _ in range(fits)]
        assert reader.bit_position == width * fits

    def test_bulk_read_negative_arguments_rejected(self):
        reader = BitReader(b"\xff")
        with pytest.raises(BitIOError):
            reader.read_run(-1, 1)
        with pytest.raises(BitIOError):
            reader.read_run(1, -1)

    def test_skip_and_bit_read_past_end_raise(self):
        reader = BitReader(b"\xaa")
        reader.skip_bits(8)
        with pytest.raises(BitIOError):
            reader.read_bit()
        with pytest.raises(BitIOError):
            reader.skip_bits(1)

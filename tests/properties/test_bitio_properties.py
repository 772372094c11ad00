"""Property-based tests for :mod:`repro.compress.bitio`.

Randomized value/width round-trips (including width-boundary values)
plus the overflow/underflow error paths.  Streams are written by
:func:`~repro.compress.bitio.pack_bits`, one piece per field (scalar)
or a run's fields packed into :data:`PACK_CHUNK`-sized pieces as the
encoders pack them (bulk), and read back through both ``read_bits``
(scalar) and ``read_run`` (bulk).  The two layouts must be
byte-identical: a bulk write round-trips through a scalar read and vice
versa.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.bitio import PACK_CHUNK, BitIOError, BitReader, pack_bits

#: A run of fixed-width fields: (width, values) with every value in
#: range, runs crossing the bulk read chunk (2048 // width fields) and
#: the pack chunk (PACK_CHUNK fields).
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


def _chunked(values, width):
    """A run's fields packed :data:`PACK_CHUNK` at a time into one
    piece each, as the encoders pack them."""
    pieces = []
    for start in range(0, len(values), PACK_CHUNK):
        part = values[start:start + PACK_CHUNK]
        acc = 0
        for value in part:
            acc = (acc << width) | value
        pieces.append((acc, width * len(part)))
    return pieces


class TestRoundTrips:
    @given(_fields)
    @settings(max_examples=200, deadline=None)
    def test_scalar_write_read_roundtrip(self, fields):
        payload = pack_bits([(value, width) for width, value in fields])
        assert len(payload) == (sum(w for w, _ in fields) + 7) // 8
        reader = BitReader(payload)
        for width, value in fields:
            assert reader.read_bits(width) == value

    @given(_runs)
    @settings(max_examples=200, deadline=None)
    def test_bulk_write_scalar_read_roundtrip(self, run):
        width, values = run
        payload = pack_bits(_chunked(values, width))
        assert len(payload) == (width * len(values) + 7) // 8
        reader = BitReader(payload)
        assert [reader.read_bits(width) for _ in values] == values

    @given(_runs)
    @settings(max_examples=200, deadline=None)
    def test_scalar_write_bulk_read_roundtrip(self, run):
        width, values = run
        payload = pack_bits([(value, width) for value in values])
        reader = BitReader(payload)
        assert reader.read_run(width, len(values)) == values
        assert reader.bits_remaining == \
            len(payload) * 8 - width * len(values)

    @given(_runs, st.integers(min_value=0, max_value=17))
    @settings(max_examples=150, deadline=None)
    def test_bulk_paths_byte_identical_after_misalignment(
            self, run, lead):
        # A leading unaligned field must not disturb the bulk layout.
        width, values = run
        head = ((1 << lead) - 1, lead)
        bulk = pack_bits([head, *_chunked(values, width)])
        scalar = pack_bits([head, *((value, width) for value in values)])
        assert bulk == scalar
        reader = BitReader(bulk)
        reader.skip_bits(lead)
        assert reader.read_run(width, len(values)) == values

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_width_zero_fields_are_free(self, count):
        assert pack_bits([(0, 0)] * count) == b""
        assert BitReader(b"").read_run(0, count) == [0] * count


class TestOverflow:
    @given(st.integers(min_value=0, max_value=66))
    @settings(max_examples=60, deadline=None)
    def test_value_too_wide_rejected(self, width):
        for pieces in ([(1 << width, width)],
                       [(0, 3), (1 << width, width)]):
            with pytest.raises(BitIOError, match="does not fit"):
                pack_bits(pieces)
        # The widest value that fits is accepted.
        assert len(pack_bits([((1 << width) - 1, width)])) == \
            (width + 7) // 8

    @given(_runs)
    @settings(max_examples=60, deadline=None)
    def test_bulk_value_too_wide_rejected(self, run):
        # A chunk whose bit count misses one of its fields' bits: the
        # leading field set to its widest value overflows the piece.
        width, values = run
        values = [(1 << width) - 1, *values]
        pieces = _chunked(values, width)
        assert pack_bits(pieces)
        acc, bits = pieces[0]
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(acc, bits - 1), *pieces[1:]])

    def test_negative_inputs_rejected(self):
        for pieces in ([(-1, 4)], [(0, 8), (-1, 4)]):
            with pytest.raises(BitIOError, match="negative value"):
                pack_bits(pieces)
        for pieces in ([(0, -1)], [(0, 8), (0, -1)]):
            with pytest.raises(BitIOError, match="non-negative"):
                pack_bits(pieces)

    def test_width_zero_rejects_nonzero_values(self):
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(1, 0)])
        with pytest.raises(BitIOError, match="does not fit"):
            pack_bits([(0, 0), (0, 0), (1, 0)])


class TestUnderflow:
    @given(st.binary(max_size=32), st.integers(min_value=1,
                                               max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_scalar_read_past_end_raises(self, data, extra):
        reader = BitReader(data)
        with pytest.raises(BitIOError, match="exhausted"):
            reader.read_bits(reader.bits_remaining + extra)
        # Failed reads consume nothing.
        assert reader.bits_remaining == len(data) * 8
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
        assert reader.bits_remaining == len(data) * 8
        # The same reader still serves the fields that do fit.
        fresh = BitReader(data)
        assert reader.read_run(width, fits) == \
            [fresh.read_bits(width) for _ in range(fits)]
        assert reader.bits_remaining == len(data) * 8 - width * fits

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

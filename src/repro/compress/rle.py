"""Run-length and move-to-front codecs.

RLE alone is weak on code but is the cheapest possible decompressor — it
anchors the latency end of the E4 codec ablation.  MTF+RLE models the
"transform then cheap-code" family; on register-dense instruction bytes it
lands between RLE and Huffman.
"""

from __future__ import annotations

from typing import List

from .codec import Codec, CodecCosts, CodecError, FramedCodec, register_codec


@register_codec("rle")
class RLECodec(FramedCodec):
    """Byte run-length coding: ``[byte][count]`` pairs.

    Runs cap at 255; the raw-passthrough tag keeps run-free inputs from
    doubling in size.
    """

    costs = CodecCosts(
        decompress_cycles_per_byte=1.0,
        compress_cycles_per_byte=2.0,
        fixed=10,
    )

    def _encode(self, data: bytes) -> bytes:
        out = bytearray()
        position = 0
        while position < len(data):
            byte = data[position]
            run = 1
            while (
                position + run < len(data)
                and data[position + run] == byte
                and run < 255
            ):
                run += 1
            out.append(byte)
            out.append(run)
            position += run
        return bytes(out)

    def _decode_body(self, body: bytes, length: int) -> bytes:
        if len(body) % 2:
            raise CodecError("rle body must be (byte, count) pairs")
        out = bytearray()
        for index in range(0, len(body), 2):
            byte, run = body[index], body[index + 1]
            if run == 0:
                raise CodecError("zero-length rle run")
            out += bytes((byte,)) * run
        return bytes(out)


@register_codec("mtf-rle")
class MTFRLECodec(Codec):
    """Move-to-front transform followed by RLE on the rank stream.

    MTF concentrates frequently recurring bytes (opcodes, register pairs)
    into small ranks with long zero runs, which RLE then collapses.
    """

    costs = CodecCosts(
        decompress_cycles_per_byte=2.5,
        compress_cycles_per_byte=4.0,
        fixed=15,
    )

    def __init__(self) -> None:
        self._rle = RLECodec()

    @staticmethod
    def _mtf_encode(data: bytes) -> bytes:
        alphabet: List[int] = list(range(256))
        out = bytearray()
        for byte in data:
            rank = alphabet.index(byte)
            out.append(rank)
            alphabet.pop(rank)
            alphabet.insert(0, byte)
        return bytes(out)

    @staticmethod
    def _mtf_decode(ranks: bytes) -> bytes:
        alphabet: List[int] = list(range(256))
        out = bytearray()
        for rank in ranks:
            byte = alphabet[rank]
            out.append(byte)
            alphabet.pop(rank)
            alphabet.insert(0, byte)
        return bytes(out)

    def compress_block(self, data: bytes) -> bytes:
        return self._rle.compress_block(self._mtf_encode(data))

    def _decode(self, payload: bytes, length: int) -> bytes:
        return self._mtf_decode(self._rle.decompress_block(payload, length))

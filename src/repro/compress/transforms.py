"""Byte-stream transform layers for layered codec pipelines.

A *transform* is a lossless, cheap byte-string bijection applied ahead of
an entropy stage: it does not compress by itself (some even expand), it
reshapes the data so the entropy coder's model fits better — byte deltas
turn slowly varying immediates into near-zero symbols, move-to-front
turns local repetition into small indexes, stride regrouping collects
same-position instruction bytes, and word-dictionary substitution folds
repeated 4-byte encodings into 1-byte tokens.  The "onion" model:
:class:`~repro.compress.pipeline.PipelineCodec` composes any sequence of
these layers with a flat entropy codec.

Transforms register in the catalogued :data:`TRANSFORMS` registry, so
``repro list`` enumerates them and the experiment-store catalog
signature (and therefore every cell fingerprint) sees new layer kinds.
Each transform carries its own cycle-cost contributions; a pipeline's
cost model is the sum over its layers plus the entropy stage.
"""

from __future__ import annotations

import abc
from collections import Counter
from typing import List, Tuple

from ..registry import Registry
from .codec import CodecError

#: Transform layers, in the unified component catalog.
TRANSFORMS = Registry("transforms", item="transform")

_WORD = 4

#: The move-to-front table's starting order.
_IDENTITY = bytes(range(256))

#: Escape token of the word-dictionary transform: the next 4 bytes are a
#: literal word.  Dictionary indexes therefore stop at 254 entries.
_DICT_ESCAPE = 0xFF
_DICT_MAX_ENTRIES = 254


class Transform(abc.ABC):
    """A lossless byte-string transform layer.

    ``inverse(forward(data)) == data`` must hold for every byte string
    (the pipeline property suite enforces it through whole pipelines).
    ``length_preserving`` declares that ``len(forward(data)) ==
    len(data)`` always; pipelines of only length-preserving layers skip
    the explicit transformed-length field in the sized block format.
    """

    #: Registry key; subclasses override via the register decorator.
    name: str = "abstract"

    #: Cycle-cost contributions to the pipeline cost model.
    forward_cycles_per_byte: float = 1.0
    inverse_cycles_per_byte: float = 1.0
    fixed_cycles: int = 5

    #: True when the forward output always has the input's length.
    length_preserving: bool = True

    def params(self) -> Tuple[int, ...]:
        """The constructor parameters, for specs."""
        return ()

    @property
    def spec(self) -> str:
        """Canonical compact form: ``name`` or ``name:param[:param...]``."""
        if self.params():
            return self.name + ":" + ":".join(
                str(p) for p in self.params()
            )
        return self.name

    @abc.abstractmethod
    def forward(self, data: bytes) -> bytes:
        """Transform ``data``; must be invertible by :meth:`inverse`."""

    @abc.abstractmethod
    def inverse(self, data: bytes) -> bytes:
        """Invert :meth:`forward`; raises :class:`CodecError` on bad
        input that cannot come from any forward output."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec!r})"


@TRANSFORMS.register("identity")
class IdentityTransform(Transform):
    """The no-op layer: ``"identity|X"`` byte-equals flat ``X`` bodies.

    Exists so composition identities are testable and so a pipeline spec
    can be padded without changing behaviour.
    """

    forward_cycles_per_byte = 0.0
    inverse_cycles_per_byte = 0.0
    fixed_cycles = 0

    def forward(self, data: bytes) -> bytes:
        return bytes(data)

    def inverse(self, data: bytes) -> bytes:
        return bytes(data)


@TRANSFORMS.register("delta")
class DeltaTransform(Transform):
    """Byte-wise delta modulo 256.

    Instruction words that differ only in small immediate or register
    steps become runs of near-zero bytes — a sharper distribution for
    any byte-entropy stage.
    """

    forward_cycles_per_byte = 0.5
    inverse_cycles_per_byte = 0.5
    fixed_cycles = 5

    def forward(self, data: bytes) -> bytes:
        out = bytearray(len(data))
        previous = 0
        for i, byte in enumerate(data):
            out[i] = (byte - previous) & 0xFF
            previous = byte
        return bytes(out)

    def inverse(self, data: bytes) -> bytes:
        out = bytearray(len(data))
        previous = 0
        for i, byte in enumerate(data):
            previous = (byte + previous) & 0xFF
            out[i] = previous
        return bytes(out)


@TRANSFORMS.register("mtf")
class MoveToFrontTransform(Transform):
    """Move-to-front recoding over the byte alphabet.

    Locally repeated bytes become small indexes, concentrating the
    entropy stage's probability mass near zero.
    """

    forward_cycles_per_byte = 2.0
    inverse_cycles_per_byte = 2.0
    fixed_cycles = 10

    def forward(self, data: bytes) -> bytes:
        # A bytearray table: ``index`` and the move are memchr/memmove.
        table = bytearray(_IDENTITY)
        out = bytearray(len(data))
        for i, byte in enumerate(data):
            index = table.index(byte)
            out[i] = index
            if index:
                del table[index]
                table.insert(0, byte)
        return bytes(out)

    def inverse(self, data: bytes) -> bytes:
        table = bytearray(_IDENTITY)
        out = bytearray(len(data))
        for i, index in enumerate(data):
            byte = table[index]
            out[i] = byte
            if index:
                del table[index]
                table.insert(0, byte)
        return bytes(out)


@TRANSFORMS.register("stride")
class StrideTransform(Transform):
    """De-interleave into ``stride`` byte planes (split/regroup).

    Fixed-width instruction streams have per-position statistics; with
    ``stride=4`` all opcode bytes land together, then all register
    bytes, and so on — the field-partitioning idea as a reusable layer
    in front of *any* entropy stage.  Length-preserving, and invertible
    from the output length alone.
    """

    forward_cycles_per_byte = 0.5
    inverse_cycles_per_byte = 0.5
    fixed_cycles = 5

    def __init__(self, stride: int = _WORD) -> None:
        stride = int(stride)
        if not 2 <= stride <= 16:
            raise ValueError(
                f"stride must be in [2, 16], got {stride}"
            )
        self.stride = stride

    def params(self) -> Tuple[int, ...]:
        return (self.stride,)

    def forward(self, data: bytes) -> bytes:
        n = self.stride
        return b"".join(data[p::n] for p in range(n))

    def inverse(self, data: bytes) -> bytes:
        n = self.stride
        length = len(data)
        out = bytearray(length)
        position = 0
        for p in range(n):
            count = (length - p + n - 1) // n if p < length else 0
            out[p::n] = data[position:position + count]
            position += count
        return bytes(out)


@TRANSFORMS.register("dict")
class WordDictTransform(Transform):
    """Per-payload 4-byte-word dictionary substitution.

    Words seen at least twice in the payload enter an embedded
    dictionary (most frequent first, up to ``max_entries`` <= 254);
    each whole word encodes as a 1-byte index or an escape token plus
    the literal word.  The header travels inside the transformed bytes,
    so the layer is self-inverting — no side channel:

    ``[u8 entry count][u8 tail length][entries x 4B]
    [tokens: index | 0xFF + literal word]...[tail bytes]``

    Not length-preserving (tiny or repeat-free payloads expand).
    """

    forward_cycles_per_byte = 1.5
    inverse_cycles_per_byte = 1.0
    fixed_cycles = 10
    length_preserving = False

    def __init__(self, max_entries: int = 16) -> None:
        max_entries = int(max_entries)
        if not 1 <= max_entries <= _DICT_MAX_ENTRIES:
            raise ValueError(
                f"max_entries must be in [1, {_DICT_MAX_ENTRIES}], "
                f"got {max_entries}"
            )
        self.max_entries = max_entries

    def params(self) -> Tuple[int, ...]:
        return (self.max_entries,)

    def forward(self, data: bytes) -> bytes:
        words = [
            data[i * _WORD:(i + 1) * _WORD]
            for i in range(len(data) // _WORD)
        ]
        tail = data[len(words) * _WORD:]
        counts: Counter = Counter(words)
        entries: List[bytes] = [
            word for word, count in counts.most_common(self.max_entries)
            if count >= 2
        ]
        index_of = {word: i for i, word in enumerate(entries)}
        out = bytearray((len(entries), len(tail)))
        for word in entries:
            out += word
        for word in words:
            index = index_of.get(word)
            if index is None:
                out.append(_DICT_ESCAPE)
                out += word
            else:
                out.append(index)
        out += tail
        return bytes(out)

    def inverse(self, data: bytes) -> bytes:
        if len(data) < 2:
            raise CodecError("word-dict layer: truncated header")
        count, tail_length = data[0], data[1]
        if tail_length >= _WORD:
            raise CodecError(
                f"word-dict layer: tail length {tail_length} out of range"
            )
        position = 2 + count * _WORD
        if position > len(data) - tail_length:
            raise CodecError("word-dict layer: truncated dictionary")
        entries = [
            data[2 + i * _WORD:2 + (i + 1) * _WORD] for i in range(count)
        ]
        end = len(data) - tail_length
        out = bytearray()
        while position < end:
            token = data[position]
            position += 1
            if token == _DICT_ESCAPE:
                if position + _WORD > end:
                    raise CodecError(
                        "word-dict layer: truncated literal word"
                    )
                out += data[position:position + _WORD]
                position += _WORD
            elif token < count:
                out += entries[token]
            else:
                raise CodecError(
                    f"word-dict layer: token {token} out of range "
                    f"(dictionary has {count} entries)"
                )
        out += data[end:]
        return bytes(out)


def available_transforms() -> List[str]:
    """Names of all registered transform layers."""
    return TRANSFORMS.names()

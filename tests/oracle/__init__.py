"""Frozen differential oracles for the simulator's fast paths.

:mod:`oracle.layered` pins the layered per-block runtime loop — the
manager's fault handler and edge hooks over the residency, timing and
background-worker mechanics — that the replay kernel
(:mod:`repro.core.replay`) replaced, the way :mod:`oracle.reference`
pins the seed Huffman codec.  It is an independent second
implementation kept only for the differential suites; nothing under
``src/`` imports it.

:mod:`oracle.machine` pins the per-instruction opcode loop
(:class:`~oracle.machine.OpcodeMachine`) that closures translated once
per CFG (:mod:`repro.runtime.machine`) replaced; the layered oracle
interprets with it.

:mod:`oracle.selection` pins codec selection as it ran before each
program's inputs were computed once: the assignment context's per-call
cost lookups and the ``pipeline-search`` floor and pruning rounds that
re-score every unit against every option.

:mod:`oracle.reference` pins the seed bit I/O and Huffman codec, which
the batched reader, :func:`~repro.compress.bitio.pack_bits` and the
table-driven Huffman codec must stay byte-identical to.

:mod:`oracle.codecs` pins the codec encoders as they wrote each field
through a per-field ``BitWriter`` (kept there, frozen), and the
pipeline build that transformed every block twice, before the encoders
packed their fields into integers.
"""

"""Natural loop detection.

"A cycle in the CFG may imply that there is a loop in the application code"
(paper, Section 2).  Loops are where the k parameter bites: a block with
high temporal reuse inside a loop is exactly the case where a small k causes
repeated compress/decompress churn (Section 3).  The workload suite and the
analysis reports use this module to characterise benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .dominators import dominator_sets
from .graph import ControlFlowGraph


@dataclass
class NaturalLoop:
    """A natural loop: back edge ``tail -> header`` plus its body."""

    header: int
    tail: int
    body: Set[int]

    @property
    def size(self) -> int:
        """Number of blocks in the loop body (header included)."""
        return len(self.body)

    def contains(self, block_id: int) -> bool:
        """True if ``block_id`` is part of the loop body."""
        return block_id in self.body

    def __repr__(self) -> str:
        return (
            f"NaturalLoop(header=B{self.header}, tail=B{self.tail}, "
            f"size={self.size})"
        )


def find_back_edges(cfg: ControlFlowGraph) -> List[Tuple[int, int]]:
    """Return back edges ``(tail, header)`` where header dominates tail."""
    doms = dominator_sets(cfg)
    back_edges: List[Tuple[int, int]] = []
    for edge in cfg.edges:
        if edge.src in doms and edge.dst in doms.get(edge.src, set()):
            back_edges.append((edge.src, edge.dst))
    return back_edges


def natural_loops(cfg: ControlFlowGraph) -> List[NaturalLoop]:
    """Find all natural loops of ``cfg``.

    Loops sharing a header are kept distinct (one per back edge); callers
    who want merged bodies can union them by header.
    """
    loops: List[NaturalLoop] = []
    for tail, header in find_back_edges(cfg):
        body: Set[int] = {header, tail}
        # Walk predecessors from the tail, never *through* the header —
        # for a self-loop (tail == header) the body is just the header.
        stack = [tail] if tail != header else []
        while stack:
            node = stack.pop()
            for pred in cfg.predecessors(node):
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        loops.append(NaturalLoop(header=header, tail=tail, body=body))
    return loops


def loop_nest_depths(cfg: ControlFlowGraph) -> Dict[int, int]:
    """Map each block id to the number of natural loops containing it.

    A block in no loop has depth 0; a block in a doubly-nested loop has
    depth 2 (assuming distinct headers).  Loops sharing a header are merged
    before counting so an ``if`` inside one loop does not double-count.
    """
    merged: Dict[int, Set[int]] = {}
    for loop in natural_loops(cfg):
        merged.setdefault(loop.header, set()).update(loop.body)
    depths = {block.block_id: 0 for block in cfg.blocks}
    for body in merged.values():
        for block_id in body:
            depths[block_id] += 1
    return depths


def hot_block_estimate(cfg: ControlFlowGraph) -> Dict[int, float]:
    """Static hotness estimate: ``10 ** loop_depth`` per block.

    Used as a profile substitute when no dynamic profile is available
    (standard static heuristic: each loop level multiplies expected
    frequency by ~10).
    """
    return {
        block_id: float(10 ** depth)
        for block_id, depth in loop_nest_depths(cfg).items()
    }

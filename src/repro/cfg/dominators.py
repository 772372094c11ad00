"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm).

Dominators are used by the loop detector (natural loops require the back
edge head to dominate its tail) and by the workload generators to verify
the structural properties of generated CFGs.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from .graph import ControlFlowGraph


def immediate_dominators(cfg: ControlFlowGraph) -> Dict[int, Optional[int]]:
    """Compute the immediate dominator of every reachable block.

    Returns a map ``block_id -> idom`` where the entry maps to ``None``.
    Unreachable blocks are absent from the result.
    """
    order = cfg.reverse_postorder()
    position = {block_id: i for i, block_id in enumerate(order)}
    idom: Dict[int, Optional[int]] = {cfg.entry_id: cfg.entry_id}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]  # type: ignore[assignment]
            while position[b] > position[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for block_id in order:
            if block_id == cfg.entry_id:
                continue
            processed_preds = [
                p for p in cfg.predecessors(block_id)
                if p in idom and p in position
            ]
            if not processed_preds:
                continue
            new_idom = processed_preds[0]
            for pred in processed_preds[1:]:
                new_idom = intersect(pred, new_idom)
            if idom.get(block_id) != new_idom:
                idom[block_id] = new_idom
                changed = True

    result: Dict[int, Optional[int]] = {}
    for block_id, dom in idom.items():
        result[block_id] = None if block_id == cfg.entry_id else dom
    return result


def dominator_sets(cfg: ControlFlowGraph) -> Dict[int, Set[int]]:
    """Full dominator set of every reachable block (including itself)."""
    idom = immediate_dominators(cfg)
    sets: Dict[int, Set[int]] = {}

    def resolve(block_id: int) -> Set[int]:
        if block_id in sets:
            return sets[block_id]
        parent = idom[block_id]
        if parent is None:
            result = {block_id}
        else:
            result = {block_id} | resolve(parent)
        sets[block_id] = result
        return result

    for block_id in idom:
        resolve(block_id)
    return sets


def dominates(cfg: ControlFlowGraph, a: int, b: int) -> bool:
    """True if block ``a`` dominates block ``b``."""
    return a in dominator_sets(cfg).get(b, set())

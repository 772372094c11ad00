"""Control flow graph structure and k-edge neighbourhood queries.

The CFG is the central data structure of the paper: compression and
decompression decisions are driven by distances *in edges* along the CFG
(Sections 3 and 4).  This module provides the graph container plus the
forward "at most k edges away" queries used by the pre-decompression
strategies and the example figures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from .basic_block import BasicBlock


class CFGError(ValueError):
    """Raised for structurally invalid control flow graphs."""


@dataclass(frozen=True)
class Edge:
    """A directed CFG edge with a classification.

    ``kind`` is one of ``"fallthrough"``, ``"taken"``, ``"jump"``,
    ``"call"``, ``"return"``.
    """

    src: int
    dst: int
    kind: str = "jump"

    def __str__(self) -> str:
        return f"B{self.src} -{self.kind}-> B{self.dst}"


class ControlFlowGraph:
    """A whole-program control flow graph over :class:`BasicBlock` nodes.

    Nodes are addressed by dense integer ``block_id``.  The graph keeps both
    adjacency directions and supports the k-edge forward/backward
    neighbourhood queries the paper's strategies are built on.
    """

    def __init__(
        self,
        blocks: List[BasicBlock],
        edges: Iterable[Edge],
        entry_id: int = 0,
        name: str = "cfg",
    ) -> None:
        if not blocks:
            raise CFGError("a CFG needs at least one basic block")
        ids = [block.block_id for block in blocks]
        if ids != list(range(len(blocks))):
            raise CFGError(
                f"block ids must be dense 0..{len(blocks) - 1}, got {ids}"
            )
        self.name = name
        self.blocks: List[BasicBlock] = blocks
        self.entry_id = entry_id
        self._succ: Dict[int, List[Edge]] = {b.block_id: [] for b in blocks}
        self._pred: Dict[int, List[Edge]] = {b.block_id: [] for b in blocks}
        self._edge_set: Set[Tuple[int, int]] = set()
        for edge in edges:
            self.add_edge(edge)
        if not 0 <= entry_id < len(blocks):
            raise CFGError(f"entry block id {entry_id} out of range")

    # ------------------------------------------------------------------
    # Construction / mutation
    # ------------------------------------------------------------------

    def add_edge(self, edge: Edge) -> None:
        """Insert ``edge``; parallel duplicate (src, dst) pairs are ignored."""
        if edge.src not in self._succ or edge.dst not in self._succ:
            raise CFGError(f"edge {edge} references unknown block")
        if (edge.src, edge.dst) in self._edge_set:
            return
        self._edge_set.add((edge.src, edge.dst))
        self._succ[edge.src].append(edge)
        self._pred[edge.dst].append(edge)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def block(self, block_id: int) -> BasicBlock:
        """Return the block with ``block_id``."""
        try:
            return self.blocks[block_id]
        except IndexError:
            raise CFGError(f"no block with id {block_id}") from None

    @property
    def entry(self) -> BasicBlock:
        """The entry block, "through which control enters" (Section 2)."""
        return self.blocks[self.entry_id]

    @property
    def exit_ids(self) -> List[int]:
        """Ids of blocks ending the program (HALT terminators)."""
        return [b.block_id for b in self.blocks if b.is_exit]

    def successors(self, block_id: int) -> List[int]:
        """Successor block ids of ``block_id``."""
        return [edge.dst for edge in self._succ[block_id]]

    def predecessors(self, block_id: int) -> List[int]:
        """Predecessor block ids of ``block_id``."""
        return [edge.src for edge in self._pred[block_id]]

    @property
    def edges(self) -> List[Edge]:
        """All edges of the graph."""
        return [edge for edges in self._succ.values() for edge in edges]

    @property
    def num_edges(self) -> int:
        """Number of distinct (src, dst) edges."""
        return len(self._edge_set)

    def has_edge(self, src: int, dst: int) -> bool:
        """True if an edge ``src -> dst`` exists."""
        return (src, dst) in self._edge_set

    def total_size_bytes(self) -> int:
        """Total uncompressed code size across all blocks."""
        return sum(block.size_bytes for block in self.blocks)

    # ------------------------------------------------------------------
    # k-edge neighbourhoods (the heart of the paper's strategies)
    # ------------------------------------------------------------------

    def blocks_within(self, block_id: int, k: int) -> Dict[int, int]:
        """Map of block id -> edge distance, for blocks reachable from
        ``block_id`` by traversing **at most k edges** forward.

        Distance 0 is ``block_id`` itself.  This implements the paper's
        "at most k edges away from the exit of the currently processed
        block" set (Section 4): pre-decompress-all decompresses every
        compressed block in ``blocks_within(current, k)`` minus the block
        itself.
        """
        if k < 0:
            raise CFGError(f"k must be non-negative, got {k}")
        distances: Dict[int, int] = {block_id: 0}
        frontier = deque([block_id])
        while frontier:
            node = frontier.popleft()
            depth = distances[node]
            if depth == k:
                continue
            for succ in self.successors(node):
                if succ not in distances:
                    distances[succ] = depth + 1
                    frontier.append(succ)
        return distances

    def forward_neighbourhood(self, block_id: int, k: int) -> Set[int]:
        """Blocks at distance 1..k forward of ``block_id`` (excl. itself).

        Note a block on a cycle through ``block_id`` *is* included when the
        cycle re-reaches it within k edges — matching the paper's example
        where a loop header is pre-decompressed ahead of a back edge.
        """
        hood = set(self.blocks_within(block_id, k))
        hood.discard(block_id)
        # Re-reaching the start block around a cycle of length <= k also
        # counts: check successors' (k-1)-neighbourhoods for block_id.
        if k >= 1:
            for succ in self.successors(block_id):
                if succ == block_id or block_id in self.blocks_within(
                    succ, k - 1
                ):
                    hood.add(block_id)
                    break
        return hood

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def reachable_from_entry(self) -> Set[int]:
        """Ids of blocks reachable from the entry block."""
        seen: Set[int] = set()
        frontier = [self.entry_id]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self.successors(node))
        return seen

    def reverse_postorder(self) -> List[int]:
        """Reverse postorder over blocks reachable from the entry."""
        seen: Set[int] = set()
        order: List[int] = []

        def visit(node: int) -> None:
            stack = [(node, iter(self.successors(node)))]
            seen.add(node)
            while stack:
                current, succs = stack[-1]
                advanced = False
                for succ in succs:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.successors(succ))))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry_id)
        return list(reversed(order))

    def validate(self) -> List[str]:
        """Return a list of structural problems (empty if none).

        Checks: entry has no compressed-unreachable code requirement, every
        non-exit block has at least one successor, conditional terminators
        have exactly two successors, unconditional exactly one.
        """
        problems: List[str] = []
        reachable = self.reachable_from_entry()
        for block in self.blocks:
            bid = block.block_id
            succs = self.successors(bid)
            if block.is_exit:
                if succs:
                    problems.append(
                        f"exit block {block.name} has successors {succs}"
                    )
                continue
            if bid in reachable and not succs:
                problems.append(
                    f"reachable block {block.name} has no successors"
                )
            if block.terminator.is_conditional and len(succs) not in (1, 2):
                # 1 is allowed when both arms target the same block.
                problems.append(
                    f"conditional block {block.name} has {len(succs)} "
                    f"successors"
                )
        return problems

    def render(self) -> str:
        """Render the graph as readable text (one line per edge)."""
        lines = [f"CFG '{self.name}': {len(self.blocks)} blocks, "
                 f"{self.num_edges} edges, entry={self.entry.name}"]
        for block in self.blocks:
            succs = ", ".join(
                self.block(s).name for s in self.successors(block.block_id)
            )
            lines.append(
                f"  {block.name} ({block.size_bytes}B) -> [{succs}]"
            )
        return "\n".join(lines)

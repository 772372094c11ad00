"""Unit tests for basic blocks, CFG construction, and graph queries."""

import pytest

from repro.cfg import BasicBlock, CFGError, Edge, build_cfg
from repro.cfg.graph import ControlFlowGraph
from repro.isa import Opcode, assemble
from repro.isa import instructions as ins


class TestBasicBlock:
    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BasicBlock(block_id=0, start_index=0, instructions=[])

    def test_geometry(self):
        block = BasicBlock(0, 3, [ins.nop(), ins.halt()])
        assert block.start_address == 12
        assert block.end_index == 5
        assert block.size_bytes == 8
        assert len(block) == 2

    def test_terminator_classification(self):
        halt_block = BasicBlock(0, 0, [ins.halt()])
        assert halt_block.is_exit

    def test_cycle_cost_sums_instructions(self):
        block = BasicBlock(0, 0, [ins.mul(1, 2, 3), ins.halt()])
        assert block.cycle_cost == ins.mul(1, 2, 3).cycles + 1

    def test_name_prefers_label(self):
        assert BasicBlock(4, 0, [ins.halt()], label="exit").name == "exit"
        assert BasicBlock(4, 0, [ins.halt()]).name == "B4"


class TestBuilder:
    def test_loop_program_blocks(self, loop_cfg):
        # main(li,li) / loop body / call / halt / fn
        assert len(loop_cfg.blocks) == 5
        names = [block.name for block in loop_cfg.blocks]
        assert "main" in names and "loop" in names and "fn" in names

    def test_entry_block(self, loop_cfg):
        assert loop_cfg.entry.label == "main"

    def test_conditional_block_has_two_successors(self, loop_cfg):
        loop_block = next(
            b for b in loop_cfg.blocks if b.label == "loop"
        )
        succs = loop_cfg.successors(loop_block.block_id)
        assert loop_block.block_id in succs  # self loop
        assert len(succs) == 2

    def test_call_edge_and_return_edge(self, loop_cfg):
        call_block = next(
            b for b in loop_cfg.blocks
            if b.terminator.opcode is Opcode.CALL
        )
        fn_block = next(b for b in loop_cfg.blocks if b.label == "fn")
        assert fn_block.block_id in loop_cfg.successors(
            call_block.block_id
        )
        # fn returns to the block after the call
        return_point = loop_cfg.block_starting_at(call_block.end_index)
        assert return_point.block_id in loop_cfg.successors(
            fn_block.block_id
        )

    def test_unlinked_program_rejected(self):
        from repro.isa import ProgramBuilder

        b = ProgramBuilder("x")
        b.label("main").emit(ins.halt())
        program = b.build(link=False)
        with pytest.raises(Exception, match="linked"):
            build_cfg(program)

    def test_first_of_two_labels_names_the_block(self):
        program = assemble(
            """
main:
    li   r1, 2
top:
again:
    subi r1, r1, 1
    bne  r1, r0, again
done:
    halt
"""
        )
        assert program.labels["top"] == program.labels["again"]
        labels = [block.label for block in build_cfg(program).blocks]
        assert labels == ["main", "top", "done"]

    def test_block_at_index_covers_whole_program(self, loop_cfg):
        for index in range(len(loop_cfg.program.instructions)):
            block = loop_cfg.block_at_index(index)
            assert block.start_index <= index < block.end_index

    def test_block_at_address(self, loop_cfg):
        entry = loop_cfg.block_at_address(0)
        assert entry.block_id == loop_cfg.entry_id

    def test_validate_clean_programs(self, loop_cfg, figure1_cfg):
        assert loop_cfg.validate() == []
        assert figure1_cfg.validate() == []

    def test_function_partition(self, loop_cfg):
        fn_block = next(b for b in loop_cfg.blocks if b.label == "fn")
        assert loop_cfg.function_of[fn_block.block_id] == \
            fn_block.block_id
        # main body blocks all map to the entry function
        assert loop_cfg.function_of[loop_cfg.entry_id] == loop_cfg.entry_id
        # every block belongs to exactly one function
        all_blocks = set()
        for body in loop_cfg.functions.values():
            assert not (all_blocks & body)
            all_blocks |= body
        assert all_blocks == {b.block_id for b in loop_cfg.blocks}


class TestGraphQueries:
    def test_dense_ids_required(self):
        blocks = [BasicBlock(1, 0, [ins.halt()])]
        with pytest.raises(CFGError, match="dense"):
            ControlFlowGraph(blocks, [])

    def test_duplicate_edges_collapsed(self):
        blocks = [
            BasicBlock(0, 0, [ins.jmp("x").with_imm(4)]),
            BasicBlock(1, 1, [ins.halt()]),
        ]
        cfg = ControlFlowGraph(
            blocks, [Edge(0, 1), Edge(0, 1, "taken")]
        )
        assert cfg.num_edges == 1

    def test_edge_to_unknown_block_rejected(self):
        blocks = [BasicBlock(0, 0, [ins.halt()])]
        with pytest.raises(CFGError, match="unknown block"):
            ControlFlowGraph(blocks, [Edge(0, 5)])

    def test_blocks_within_distance(self, figure1_cfg):
        distances = figure1_cfg.blocks_within(figure1_cfg.entry_id, 1)
        assert distances[figure1_cfg.entry_id] == 0
        assert all(d <= 1 for d in distances.values())

    def test_blocks_within_k0_is_self(self, figure1_cfg):
        assert figure1_cfg.blocks_within(0, 0) == {0: 0}

    def test_negative_k_rejected(self, figure1_cfg):
        with pytest.raises(CFGError, match="non-negative"):
            figure1_cfg.blocks_within(0, -1)

    def test_forward_neighbourhood_excludes_self_unless_cycle(
        self, loop_cfg
    ):
        loop_block = next(
            b for b in loop_cfg.blocks if b.label == "loop"
        )
        hood = loop_cfg.forward_neighbourhood(loop_block.block_id, 1)
        # self-loop: the block re-reaches itself within 1 edge
        assert loop_block.block_id in hood

    def test_forward_neighbourhood_no_cycle(self, loop_cfg):
        # the halt block has no successors
        exit_id = loop_cfg.exit_ids[0]
        assert loop_cfg.forward_neighbourhood(exit_id, 3) == set()

    def test_exit_reached_through_the_call(self, loop_cfg):
        exit_id = loop_cfg.exit_ids[0]
        fn_id = next(b.block_id for b in loop_cfg.blocks
                     if b.label == "fn")
        # main -> loop -> call -> fn -> exit: the fn block returns
        # into the exit, its only predecessor.
        assert loop_cfg.predecessors(exit_id) == [fn_id]
        distances = loop_cfg.blocks_within(loop_cfg.entry_id, 8)
        assert distances[exit_id] == distances[fn_id] + 1 == 4
        assert exit_id not in loop_cfg.blocks_within(loop_cfg.entry_id, 3)

    def test_reverse_postorder_starts_at_entry(self, figure1_cfg):
        order = figure1_cfg.reverse_postorder()
        assert order[0] == figure1_cfg.entry_id
        assert len(order) == len(figure1_cfg.reachable_from_entry())

    def test_total_size(self, loop_cfg):
        assert loop_cfg.total_size_bytes() == \
            loop_cfg.program.size_bytes

    def test_render_mentions_all_blocks(self, loop_cfg):
        text = loop_cfg.render()
        for block in loop_cfg.blocks:
            assert block.name in text

"""Unit tests for edge profiles."""

from repro.cfg import EdgeProfile, profile_from_trace


class TestRecording:
    def test_record_edge_updates_both_tables(self):
        profile = EdgeProfile()
        profile.record_edge(0, 1)
        profile.record_edge(0, 1)
        assert profile.edge_count(0, 1) == 2
        assert profile.block_count(1) == 2

    def test_record_trace(self):
        profile = profile_from_trace([0, 1, 0, 1, 3])
        assert profile.edge_count(0, 1) == 2
        assert profile.edge_count(1, 0) == 1
        assert profile.edge_count(1, 3) == 1
        assert profile.block_count(0) == 2  # entry + one transition

    def test_empty_trace(self):
        profile = profile_from_trace([])
        assert profile.total_transitions == 0

    def test_total_transitions(self):
        profile = profile_from_trace([0, 1, 2, 0])
        assert profile.total_transitions == 3


class TestQueries:
    def test_most_likely_successor(self, loop_cfg):
        profile = EdgeProfile()
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        # the self edge is taken 9 times, the exit once
        for _ in range(9):
            profile.record_edge(loop_id, loop_id)
        exits = [
            s for s in loop_cfg.successors(loop_id) if s != loop_id
        ]
        profile.record_edge(loop_id, exits[0])
        assert profile.most_likely_successor(loop_cfg, loop_id) == loop_id

    def test_unprofiled_block_ties_to_lowest_id(self, loop_cfg):
        profile = EdgeProfile()
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        successors = sorted(loop_cfg.successors(loop_id))
        assert len(successors) == 2
        assert profile.most_likely_successor(loop_cfg, loop_id) == \
            successors[0]
        # One traversal outweighs the tie order.
        profile.record_edge(loop_id, successors[1])
        assert profile.most_likely_successor(loop_cfg, loop_id) == \
            successors[1]

    def test_single_and_missing_successors(self, loop_cfg):
        profile = EdgeProfile()
        exit_id = loop_cfg.exit_ids[0]
        fn_id = next(b.block_id for b in loop_cfg.blocks
                     if b.label == "fn")
        # A lone successor needs no counts; the exit has none to give.
        assert profile.most_likely_successor(loop_cfg, fn_id) == exit_id
        assert profile.most_likely_successor(loop_cfg, exit_id) is None

    def test_merge_sums_counts(self):
        a = profile_from_trace([0, 1, 2])
        b = profile_from_trace([0, 1])
        merged = a.merge(b)
        assert merged.edge_count(0, 1) == 2
        assert merged.edge_count(1, 2) == 1
        # originals untouched
        assert a.edge_count(0, 1) == 1

"""Unit tests for the strategy layer: k-edge, predictors, pre-decompression,
budget."""

import pytest

from oracle import layered as oracle
from repro.cfg import EdgeProfile
from repro.strategies import (
    BudgetError,
    KEdgeCompression,
    LastSuccessorPredictor,
    MarkovPredictor,
    MemoryBudget,
    NeverRecompress,
    OnDemandDecompression,
    OnlineProfilePredictor,
    PreDecompressAll,
    PreDecompressSingle,
    StaticProfilePredictor,
    available_predictors,
    make_predictor,
)


class FakeView:
    """Minimal ManagerView for policy unit tests."""

    def __init__(self, cfg, resident=None):
        self.cfg = cfg
        self.profile = EdgeProfile()
        self.resident = set(resident or ())

    def unit_of(self, block_id):
        return block_id

    def unit_blocks(self, unit_id):
        return {unit_id}

    def resident_units(self):
        return set(self.resident)

    def is_unit_resident(self, unit_id):
        return unit_id in self.resident


class TestKEdge:
    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KEdgeCompression(0)

    def test_counter_reaches_k_releases(self, loop_cfg):
        policy = KEdgeCompression(2)
        policy.bind(FakeView(loop_cfg, resident={0}))
        policy.on_unit_decompressed(0)
        policy.on_unit_enter(0)
        assert policy.on_edge(0, 1) == []      # counter 1
        assert policy.on_edge(1, 2) == [0]     # counter 2 == k

    def test_destination_exempt(self, loop_cfg):
        policy = KEdgeCompression(1)
        policy.bind(FakeView(loop_cfg, resident={0, 1}))
        policy.on_unit_enter(0)
        policy.on_unit_enter(1)
        expired = policy.on_edge(0, 1)
        assert 1 not in expired
        assert 0 in expired  # k=1: src expires immediately

    def test_enter_resets_counter(self, loop_cfg):
        policy = KEdgeCompression(2)
        view = FakeView(loop_cfg, resident={0})
        policy.bind(view)
        policy.on_unit_enter(0)
        policy.on_edge(0, 1)           # counter 1
        policy.on_unit_enter(0)        # re-executed: reset
        assert policy.on_edge(0, 1) == []
        assert policy.counter(0) == 1

    def test_released_unit_forgotten(self, loop_cfg):
        policy = KEdgeCompression(1)
        view = FakeView(loop_cfg, resident={0})
        policy.bind(view)
        policy.on_unit_enter(0)
        policy.on_edge(0, 1)
        policy.on_unit_released(0)
        assert policy.counter(0) is None

    def test_predecompressed_unit_counts_from_zero(self, loop_cfg):
        # a block decompressed ahead of use still ages out after k edges
        policy = KEdgeCompression(2)
        view = FakeView(loop_cfg, resident={3})
        policy.bind(view)
        policy.on_unit_decompressed(3)
        assert policy.on_edge(0, 1) == []
        assert policy.on_edge(1, 2) == [3]

    def test_never_recompress(self, loop_cfg):
        policy = NeverRecompress()
        policy.bind(FakeView(loop_cfg, resident={0, 1, 2}))
        policy.on_unit_enter(0)
        for _ in range(100):
            assert policy.on_edge(0, 1) == []


class TestPredictors:
    def test_registry_complete(self):
        assert set(available_predictors()) == {
            "static-profile", "online-profile", "last-successor", "markov"
        }

    def test_static_requires_profile(self):
        with pytest.raises(ValueError, match="profile"):
            make_predictor("static-profile")

    def test_unknown_predictor(self):
        with pytest.raises(KeyError):
            make_predictor("oracle")

    def test_static_profile_prediction(self, loop_cfg):
        profile = EdgeProfile()
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        for _ in range(5):
            profile.record_edge(loop_id, loop_id)
        predictor = StaticProfilePredictor(profile)
        predictor.bind(loop_cfg)
        assert predictor.predict(loop_id) == loop_id

    def test_online_profile_adapts(self, loop_cfg):
        predictor = OnlineProfilePredictor()
        predictor.bind(loop_cfg)
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        exits = [
            s for s in loop_cfg.successors(loop_id) if s != loop_id
        ]
        for _ in range(3):
            predictor.update(loop_id, exits[0])
        assert predictor.predict(loop_id) == exits[0]

    def test_last_successor_tracks_latest(self, loop_cfg):
        predictor = LastSuccessorPredictor()
        predictor.bind(loop_cfg)
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        exits = [
            s for s in loop_cfg.successors(loop_id) if s != loop_id
        ]
        predictor.update(loop_id, loop_id)
        assert predictor.predict(loop_id) == loop_id
        predictor.update(loop_id, exits[0])
        assert predictor.predict(loop_id) == exits[0]

    def test_last_successor_cold_start_uses_first_successor(
        self, loop_cfg
    ):
        predictor = LastSuccessorPredictor()
        predictor.bind(loop_cfg)
        assert predictor.predict(loop_cfg.entry_id) in \
            loop_cfg.successors(loop_cfg.entry_id)

    def test_predict_at_exit_is_none(self, loop_cfg):
        predictor = OnlineProfilePredictor()
        predictor.bind(loop_cfg)
        assert predictor.predict(loop_cfg.exit_ids[0]) is None

    def test_markov_uses_context(self, figure1_cfg):
        predictor = MarkovPredictor()
        predictor.bind(figure1_cfg)
        # teach: after (0 -> 1), next is 1; after (1 -> 1), next is 3
        predictor.update(0, 1)
        predictor.update(1, 1)
        predictor.update(1, 3)
        predictor.update(0, 1)  # context is now (0, 1)
        prediction = predictor.predict(1)
        assert prediction in figure1_cfg.successors(1)

    def test_predict_path_length_bounded(self, loop_cfg):
        predictor = OnlineProfilePredictor()
        predictor.bind(loop_cfg)
        path = predictor.predict_path(loop_cfg.entry_id, 3)
        assert len(path) <= 3


class TestPreDecompression:
    def test_ondemand_requests_nothing(self, loop_cfg):
        policy = OnDemandDecompression()
        policy.bind(FakeView(loop_cfg))
        assert policy.on_block_exit(0) == []
        assert not policy.uses_thread

    def test_pre_all_requests_neighbourhood(self, loop_cfg):
        policy = PreDecompressAll(2)
        policy.bind(FakeView(loop_cfg))
        targets = policy.on_block_exit(loop_cfg.entry_id)
        assert set(targets) == loop_cfg.forward_neighbourhood(
            loop_cfg.entry_id, 2
        )

    def test_pre_all_warms_entry_at_start(self, loop_cfg):
        policy = PreDecompressAll(1)
        policy.bind(FakeView(loop_cfg))
        warm = policy.on_program_start(loop_cfg.entry_id)
        assert loop_cfg.entry_id in warm

    def test_pre_all_invalid_k(self):
        with pytest.raises(ValueError):
            PreDecompressAll(0)

    def test_pre_single_picks_first_compressed_on_path(self, loop_cfg):
        predictor = OnlineProfilePredictor()
        policy = PreDecompressSingle(2, predictor)
        view = FakeView(loop_cfg, resident=set())
        policy.bind(view)
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        predictor.update(loop_cfg.entry_id, loop_id)
        predictor.update(loop_id, loop_id)
        targets = policy.on_block_exit(loop_cfg.entry_id)
        assert targets == [loop_id]
        assert policy.last_choice == loop_id

    def test_pre_single_skips_resident_blocks(self, loop_cfg):
        predictor = OnlineProfilePredictor()
        policy = PreDecompressSingle(1, predictor)
        loop_id = next(
            b.block_id for b in loop_cfg.blocks if b.label == "loop"
        )
        view = FakeView(loop_cfg, resident={loop_id})
        policy.bind(view)
        predictor.update(loop_cfg.entry_id, loop_id)
        assert policy.on_block_exit(loop_cfg.entry_id) == []
        assert policy.last_choice is None


class TestBudget:
    def _sizes(self):
        return {1: 40, 2: 40, 3: 40}.__getitem__

    def test_no_eviction_under_limit(self):
        budget = MemoryBudget(1000)
        assert budget.select_victims(
            needed_bytes=40, current_footprint=100,
            resident={1, 2}, protected=set(), size_of=self._sizes(),
        ) == []

    def test_lru_order(self):
        budget = oracle.MemoryBudget(120, policy="lru")
        for unit in (1, 2, 3):
            budget.on_unit_decompressed(unit)
        budget.on_unit_enter(1)  # 1 is most recent; 2 is LRU
        victims = budget.select_victims(
            needed_bytes=40, current_footprint=120,
            resident={1, 2, 3}, protected=set(), size_of=self._sizes(),
        )
        assert victims[0] == 2

    def test_fifo_order(self):
        budget = oracle.MemoryBudget(120, policy="fifo")
        for unit in (3, 1, 2):
            budget.on_unit_decompressed(unit)
        victims = budget.select_victims(
            needed_bytes=40, current_footprint=120,
            resident={1, 2, 3}, protected=set(), size_of=self._sizes(),
        )
        assert victims[0] == 3

    def test_largest_order(self):
        budget = MemoryBudget(120, policy="largest")
        sizes = {1: 10, 2: 99, 3: 20}.__getitem__
        victims = budget.select_victims(
            needed_bytes=40, current_footprint=120,
            resident={1, 2, 3}, protected=set(), size_of=sizes,
        )
        assert victims[0] == 2

    def test_protected_never_chosen(self):
        budget = oracle.MemoryBudget(100)
        for unit in (1, 2):
            budget.on_unit_decompressed(unit)
        victims = budget.select_victims(
            needed_bytes=40, current_footprint=100,
            resident={1, 2}, protected={1}, size_of=self._sizes(),
        )
        assert 1 not in victims

    def test_unreachable_budget_raises(self):
        budget = MemoryBudget(50)
        with pytest.raises(BudgetError):
            budget.select_victims(
                needed_bytes=40, current_footprint=100,
                resident={1}, protected={1}, size_of=self._sizes(),
            )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        with pytest.raises(ValueError):
            MemoryBudget(100, policy="random")

    def test_eviction_stops_once_enough_freed(self):
        budget = oracle.MemoryBudget(120, policy="lru")
        for unit in (1, 2, 3):
            budget.on_unit_decompressed(unit)
        victims = budget.select_victims(
            needed_bytes=40, current_footprint=120,
            resident={1, 2, 3}, protected=set(), size_of=self._sizes(),
        )
        assert len(victims) == 1

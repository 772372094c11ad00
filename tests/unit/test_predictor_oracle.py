"""Every built-in predictor against its frozen counterpart.

The profile predictors read their choices from a table that ``bind``
builds and ``update`` keeps current; ``tests/oracle/predictor.py``
re-derives every choice from the edge counts with ``max``.  On random
CFGs (successor lists of zero to three blocks, self loops included)
and random edge sequences (ties and edges to non-successors included),
the two must agree on every block's prediction and predicted path
after every update — and once bound, the production side must never
re-derive a choice through ``EdgeProfile.most_likely_among``.
"""

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

from oracle.predictor import oracle_predictor
from repro.cfg.profile import EdgeProfile
from repro.strategies.predictor import available_predictors, make_predictor


class _CFG:
    """The slice of ``ProgramCFG`` a predictor binds to."""

    def __init__(self, successors):
        self._successors = successors
        self.blocks = [SimpleNamespace(block_id=b) for b in successors]

    def successors(self, block_id):
        return list(self._successors[block_id])


@st.composite
def _scenarios(draw):
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7,
                        unique=True))
    successors = {
        block: draw(st.lists(st.sampled_from(ids), max_size=3, unique=True))
        for block in ids
    }
    edge = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    # A few edges over few blocks: counts tie often.
    edges = draw(st.lists(edge, max_size=40))
    offline = draw(st.lists(st.tuples(edge, st.integers(1, 3)), max_size=12))
    return successors, edges, offline


def _assert_same(production, oracle, blocks, context):
    for block in blocks:
        assert production.predict(block) == oracle.predict(block), \
            (context, block)
        for length in (1, 3):
            assert production.predict_path(block, length) == \
                oracle.predict_path(block, length), (context, block, length)


def _never(*args, **kwargs):
    raise AssertionError("a table predictor re-derived a choice")


@settings(max_examples=200, deadline=None)
@given(_scenarios())
def test_every_predictor_matches_the_frozen_rule(scenario):
    successors, edges, offline = scenario
    cfg = _CFG(successors)
    profile = EdgeProfile()
    for (src, dst), count in offline:
        profile.record_edge(src, dst, count)
    for name in available_predictors():
        production = make_predictor(name, profile)
        oracle = oracle_predictor(name, profile)
        production.bind(cfg)
        oracle.bind(cfg)
        with mock.patch.object(EdgeProfile, "most_likely_among", _never):
            _assert_same(production, oracle, successors, (name, "bind"))
            for step, (src, dst) in enumerate(edges):
                production.update(src, dst)
                oracle.update(src, dst)
                _assert_same(production, oracle, successors, (name, step))


def test_online_table_follows_a_tie_to_the_lower_id():
    # 3 -> {5, 9}: 9 leads, 5 catches up (a tie goes to 5), 9 leads
    # again; an edge to a non-successor never becomes the choice.
    predictor = make_predictor("online-profile")
    predictor.bind(_CFG({3: [9, 5], 5: [], 9: [3]}))
    assert predictor.predict(3) == 5
    predictor.update(3, 9)
    assert predictor.predict(3) == 9
    predictor.update(3, 5)
    assert predictor.predict(3) == 5
    predictor.update(3, 9)
    assert predictor.predict(3) == 9
    for _ in range(5):
        predictor.update(3, 3)
    assert predictor.predict(3) == 9
    assert predictor.predict(5) is None

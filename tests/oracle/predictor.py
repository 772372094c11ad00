"""The next-block predictors as they ran before their choices became
table reads, frozen as a differential oracle.

Every prediction here re-derives its choice from the edge counts: the
``max`` over the block's sorted successors keyed by each edge's count
(the first maximum, so a tie goes to the lowest id), the only successor
when there is one, and None when there are none.  The layered oracle
(``layered.py``) drives the production predictor objects, so kernel ==
oracle cannot catch a predictor fault; ``tests/unit/
test_predictor_oracle.py`` holds every built-in predictor to these
classes after every update instead.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple


def most_likely_among(
    counts: Dict[Tuple[int, int], int], block_id: int, successors: List[int]
) -> Optional[int]:
    """The most traversed of ``successors`` (sorted ids) leaving
    ``block_id``, ties to the first; None when there are none."""
    if len(successors) < 2:
        return successors[0] if successors else None
    return max(successors, key=lambda succ: counts.get((block_id, succ), 0))


class OraclePredictor:
    """Base: sorted successors per block and the greedy path."""

    def bind(self, cfg) -> None:
        self._successors = {
            block.block_id: sorted(cfg.successors(block.block_id))
            for block in cfg.blocks
        }

    def update(self, src: int, dst: int) -> None:
        pass

    def predict_path(self, block_id: int, length: int) -> list:
        path = []
        current = block_id
        for _ in range(length):
            nxt = self.predict(current)
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        return path


class OracleStaticProfile(OraclePredictor):
    """Reads an offline profile's edge counts on every prediction."""

    def __init__(self, profile) -> None:
        self.counts = profile.edge_counts

    def predict(self, block_id: int) -> Optional[int]:
        return most_likely_among(
            self.counts, block_id, self._successors[block_id]
        )


class OracleOnlineProfile(OraclePredictor):
    """Counts the run's own edges and reads them on every prediction."""

    def __init__(self) -> None:
        self.counts: Dict[Tuple[int, int], int] = defaultdict(int)

    def predict(self, block_id: int) -> Optional[int]:
        return most_likely_among(
            self.counts, block_id, self._successors[block_id]
        )

    def update(self, src: int, dst: int) -> None:
        self.counts[(src, dst)] += 1


class OracleLastSuccessor(OraclePredictor):
    """The last successor taken, else the first successor."""

    def __init__(self) -> None:
        self._last: Dict[int, int] = {}

    def predict(self, block_id: int) -> Optional[int]:
        last = self._last.get(block_id)
        if last is not None:
            return last
        successors = self._successors[block_id]
        return successors[0] if successors else None

    def update(self, src: int, dst: int) -> None:
        self._last[src] = dst


class OracleMarkov(OraclePredictor):
    """P(next | previous, current), falling back to online counts."""

    def __init__(self) -> None:
        self._context_counts: Dict[Tuple[int, int], Dict[int, int]] = (
            defaultdict(lambda: defaultdict(int))
        )
        self._fallback = OracleOnlineProfile()
        self._previous: Optional[int] = None
        self._current: Optional[int] = None

    def bind(self, cfg) -> None:
        super().bind(cfg)
        self._fallback.bind(cfg)

    def predict(self, block_id: int) -> Optional[int]:
        if self._current == block_id and self._previous is not None:
            counts = self._context_counts.get((self._previous, block_id))
            if counts:
                return max(sorted(counts), key=lambda b: counts[b])
        return self._fallback.predict(block_id)

    def update(self, src: int, dst: int) -> None:
        if self._current == src and self._previous is not None:
            self._context_counts[(self._previous, src)][dst] += 1
        self._fallback.update(src, dst)
        self._previous, self._current = src, dst


def oracle_predictor(name: str, profile=None) -> OraclePredictor:
    """The frozen counterpart of ``make_predictor(name, profile)``."""
    if name == "static-profile":
        return OracleStaticProfile(profile)
    return {
        "online-profile": OracleOnlineProfile,
        "last-successor": OracleLastSuccessor,
        "markov": OracleMarkov,
    }[name]()

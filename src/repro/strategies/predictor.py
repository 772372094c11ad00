"""Next-block predictors for pre-decompress-single (Section 4).

"We predict the block (among these...) that is to be the most likely one to
be reached" — the paper does not fix the prediction mechanism, so the E7
ablation compares the natural candidates:

* :class:`StaticProfilePredictor` — offline edge profile from a training
  run (profile-guided, the strongest realistic option in 2005-era systems);
* :class:`OnlineProfilePredictor` — edge counts accumulated during the run
  itself (no training run needed, adapts to the input);
* :class:`LastSuccessorPredictor` — remembers the last successor taken from
  each block (1-bit-per-branch analogue);
* :class:`MarkovPredictor` — first-order context: the successor most often
  taken from ``cur`` given the previous block, falling back to plain
  online counts.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..cfg.builder import ProgramCFG
from ..cfg.profile import EdgeProfile
from ..registry import Registry


class Predictor(abc.ABC):
    """Predicts the successor the execution thread will take next."""

    name: str = "abstract"

    def bind(self, cfg: ProgramCFG) -> None:
        """Attach to the CFG being executed (caching every block's
        sorted successors: the CFG is static, predictions are not)."""
        self.cfg = cfg
        self._successors: Dict[int, List[int]] = {
            block.block_id: sorted(cfg.successors(block.block_id))
            for block in cfg.blocks
        }

    @abc.abstractmethod
    def predict(self, block_id: int) -> Optional[int]:
        """Most likely successor of ``block_id`` (None at program exits)."""

    def update(self, src: int, dst: int) -> None:
        """Observe the actually-taken edge ``src -> dst``."""

    def predict_path(self, block_id: int, length: int) -> list:
        """Greedy predicted path of up to ``length`` blocks ahead."""
        path = []
        current = block_id
        for _ in range(length):
            nxt = self.predict(current)
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        return path


class _ProfileTable(Predictor):
    """Predicts each block's most traversed successor in ``self.profile``
    (ties to the lowest id), read from a table that :meth:`bind` builds
    from the profile's counts: :meth:`predict` is one dict read."""

    profile: EdgeProfile

    def bind(self, cfg: ProgramCFG) -> None:
        super().bind(cfg)
        likeliest = self.profile.most_likely_among
        self._best: Dict[int, Optional[int]] = {
            block_id: likeliest(block_id, successors)
            for block_id, successors in self._successors.items()
        }

    def predict(self, block_id: int) -> Optional[int]:
        return self._best[block_id]


class StaticProfilePredictor(_ProfileTable):
    """Profile-guided prediction from a fixed, offline :class:`EdgeProfile`."""

    name = "static-profile"

    def __init__(self, profile: EdgeProfile) -> None:
        self.profile = profile


class OnlineProfilePredictor(_ProfileTable):
    """Edge counts accumulated during the run itself.  :meth:`update`
    keeps the table current: one traversal raises one count by one, so
    only its source's choice can change, and only to its destination."""

    name = "online-profile"

    def __init__(self) -> None:
        self.profile = EdgeProfile()

    def update(self, src: int, dst: int) -> None:
        profile = self.profile
        profile.record_edge(src, dst)
        best = self._best.get(src)
        if best is None or best == dst or dst not in self._successors[src]:
            return
        counts = profile.edge_counts
        mine = counts[(src, dst)]
        theirs = counts.get((src, best), 0)
        if mine > theirs or (mine == theirs and dst < best):
            self._best[src] = dst


class LastSuccessorPredictor(Predictor):
    """Predicts whatever successor was taken last time (cheap hardware
    analogue: one block id of state per block)."""

    name = "last-successor"

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


class MarkovPredictor(Predictor):
    """First-order path context: P(next | previous, current).

    Falls back to zeroth-order online counts when the (previous, current)
    context has never been seen.
    """

    name = "markov"

    def __init__(self) -> None:
        self._context_counts: Dict[Tuple[int, int], Dict[int, int]] = (
            defaultdict(lambda: defaultdict(int))
        )
        self._fallback = OnlineProfilePredictor()
        self._previous: Optional[int] = None
        self._current: Optional[int] = None

    def bind(self, cfg: ProgramCFG) -> None:
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


#: The predictor family, in the unified component catalog.
PREDICTORS = Registry("predictors")
PREDICTORS.add("static-profile", StaticProfilePredictor)
PREDICTORS.add("online-profile", OnlineProfilePredictor)
PREDICTORS.add("last-successor", LastSuccessorPredictor)
PREDICTORS.add("markov", MarkovPredictor)


def make_predictor(
    name: str, profile: Optional[EdgeProfile] = None
) -> Predictor:
    """Instantiate a predictor by name.

    ``static-profile`` requires ``profile``; the others ignore it.
    """
    cls = PREDICTORS.get(name)
    if cls is StaticProfilePredictor:
        if profile is None:
            raise ValueError(
                "static-profile predictor needs an offline EdgeProfile"
            )
        return StaticProfilePredictor(profile)
    return cls()


def available_predictors() -> list:
    """Names of all predictors."""
    return PREDICTORS.names()

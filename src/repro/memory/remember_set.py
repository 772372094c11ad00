"""Remember sets for branch-target patching.

Section 5: "for each decompressed block, we also maintain a 'remember set'
that records the addresses of the branch instructions that jump to this
block" — when a decompressed copy is discarded, exactly those branches must
be re-pointed at the compressed entry (so the next execution faults and
re-decompresses).
"""

from __future__ import annotations

from typing import Dict, List, Set


class RememberSets:
    """Tracks, per target block, the branch sites currently patched to its
    decompressed copy.

    Every block leaves through its terminator, so a branch site is named
    by the id of the block it ends: the sets hold source block ids.

    The replay kernel (:mod:`repro.core.replay`) records a site whenever
    the exception handler "updates the target address of the branch
    instruction" (Figure 5 steps 4 and 6) and drops a target's set when
    its decompressed copy is deleted (step 9), patching those sites back;
    each patch and patch-back is counted in :attr:`total_patches`.

    Invariant kept for the property tests: a branch site appears in at most
    one target's remember set — a branch instruction holds one address.
    """

    def __init__(self) -> None:
        self._by_target: Dict[int, Set[int]] = {}
        self._site_target: Dict[int, int] = {}
        self.total_patches = 0

    def references_to(self, target_block: int) -> Set[int]:
        """Sites currently pointing at ``target_block``'s copy."""
        return set(self._by_target.get(target_block, set()))

    def target_of(self, site: int) -> int:
        """Block the given site currently points to (KeyError if unknown)."""
        return self._site_target[site]

    def points_to(self, site: int, target_block: int) -> bool:
        """True if ``site`` is currently patched to ``target_block``."""
        return self._site_target.get(site) == target_block

    @property
    def tracked_sites(self) -> int:
        """Total number of tracked branch sites."""
        return len(self._site_target)

    def validate(self) -> List[str]:
        """Return invariant violations (empty when consistent)."""
        problems: List[str] = []
        for target, sites in self._by_target.items():
            for site in sites:
                if self._site_target.get(site) != target:
                    problems.append(
                        f"site {site} in set of B{target} but maps to "
                        f"{self._site_target.get(site)}"
                    )
        for site, target in self._site_target.items():
            if site not in self._by_target.get(target, set()):
                problems.append(
                    f"site {site} maps to B{target} but missing from its set"
                )
        return problems

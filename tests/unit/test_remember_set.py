"""Unit tests for remember sets (branch-patch tracking, paper Section 5).

They run against the frozen layered oracle's remember sets
(``tests/oracle/layered.py``): the production residency keeps the sets
as two plain dicts, which the replay kernel patches inline.
"""

from oracle.layered import BranchSite, RememberSets


class TestRememberSets:
    def test_add_and_query(self):
        rs = RememberSets()
        site = BranchSite(0, 3)
        rs.add_reference(1, site)
        assert rs.references_to(1) == {site}
        assert rs.target_of(site) == 1
        assert rs.points_to(site, 1)

    def test_site_moves_between_targets(self):
        # a branch instruction holds one address: re-patching it to a new
        # target must remove it from the old target's set
        rs = RememberSets()
        site = BranchSite(0, 3)
        rs.add_reference(1, site)
        rs.add_reference(2, site)
        assert rs.references_to(1) == set()
        assert rs.references_to(2) == {site}
        assert rs.validate() == []

    def test_repatch_same_target_is_idempotent(self):
        rs = RememberSets()
        site = BranchSite(0, 3)
        rs.add_reference(1, site)
        patches_before = rs.total_patches
        rs.add_reference(1, site)
        assert rs.total_patches == patches_before

    def test_drop_target_returns_sites_sorted(self):
        rs = RememberSets()
        rs.add_reference(5, BranchSite(2, 0))
        rs.add_reference(5, BranchSite(1, 4))
        dropped = rs.drop_target(5)
        assert dropped == [BranchSite(1, 4), BranchSite(2, 0)]
        assert rs.references_to(5) == set()
        assert rs.tracked_sites == 0

    def test_drop_target_counts_patches(self):
        rs = RememberSets()
        rs.add_reference(5, BranchSite(2, 0))
        before = rs.total_patches
        rs.drop_target(5)
        assert rs.total_patches == before + 1

    def test_drop_sites_in_block(self):
        # deleting block 2's decompressed copy destroys the branch sites
        # living inside it — they need no patching
        rs = RememberSets()
        rs.add_reference(5, BranchSite(2, 0))
        rs.add_reference(6, BranchSite(2, 3))
        rs.add_reference(5, BranchSite(3, 0))
        removed = rs.drop_sites_in_block(2)
        assert removed == 2
        assert rs.references_to(5) == {BranchSite(3, 0)}
        assert rs.validate() == []

    def test_drop_unknown_target_is_empty(self):
        rs = RememberSets()
        assert rs.drop_target(42) == []

    def test_validate_detects_consistency(self):
        rs = RememberSets()
        for target in range(4):
            for block in range(3):
                rs.add_reference(target, BranchSite(block, target))
        assert rs.validate() == []

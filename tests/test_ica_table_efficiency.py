"""The memoized ICA table, the Fig 9 efficiency model, and box-ICA."""

import sys
import threading

import numpy as np
import pytest

from repro.cd.methods import method_by_name
from repro.cd.traversal import TraversalConfig, run_cd
from repro.geometry.orientation import OrientationGrid
from repro.ica.boxica import box_corner_fraction, box_ica_bounds_cos
from repro.ica.cone import checkica_bounds_cos, ica_bounds_cos
from repro.ica.efficiency import (
    corner_case_probability,
    efficiency_vs_resolution,
    theoretical_efficiency,
)
from repro.ica.table import SQRT3, build_ica_table
from repro.octree.linear import LinearOctree, OctreeLevel
from repro.tool.tool import Tool, paper_tool


class TestIcaTable:
    @pytest.fixture(scope="class")
    def table(self, head_tree_64_expanded):
        return build_ica_table(
            head_tree_64_expanded, paper_tool(), np.array([0.0, -30.0, 5.0])
        )

    def test_covers_requested_levels(self, table, head_tree_64_expanded):
        # Default is the paper's S = 8, capped at the level count (depth+1).
        assert table.levels == min(8, head_tree_64_expanded.depth + 1)
        for l in range(table.levels):
            c1, c2 = table.level(l)
            assert len(c1) == len(c2) == head_tree_64_expanded.levels[l].n

    def test_entry_count(self, table, head_tree_64_expanded):
        expected = sum(
            head_tree_64_expanded.levels[l].n for l in range(table.levels)
        )
        assert table.n_entries == expected

    def test_values_match_direct_computation(self, table, head_tree_64_expanded):
        tool = paper_tool()
        tree = head_tree_64_expanded
        l = tree.depth
        centers = tree.centers(l)
        dist = np.linalg.norm(centers - table.pivot, axis=1)
        half = tree.cell_half(l)
        lo, _ = ica_bounds_cos(tool.z0, tool.z1, tool.radius, dist, np.full(len(dist), half))
        _, hi = ica_bounds_cos(
            tool.z0, tool.z1, tool.radius, dist, np.full(len(dist), SQRT3 * half)
        )
        c1, c2 = table.level(l)
        np.testing.assert_array_equal(c1, lo)
        np.testing.assert_array_equal(c2, hi)

    def test_lookup_gathers(self, table):
        l = table.levels - 1
        c1, c2 = table.level(l)
        idx = np.array([0, min(2, len(c1) - 1)])
        g1, g2 = table.lookup(l, idx)
        np.testing.assert_array_equal(g1, c1[idx])
        np.testing.assert_array_equal(g2, c2[idx])

    def test_lookup_beyond_levels_raises(self, table):
        with pytest.raises(KeyError):
            table.lookup(table.levels, np.array([0]))

    def test_partial_levels(self, head_tree_64_expanded):
        t = build_ica_table(
            head_tree_64_expanded, paper_tool(), np.zeros(3), levels=3
        )
        assert t.levels == 3
        assert not t.has_level(3)
        assert t.has_level(2)


def _eager(tree, tool, pivot, level):
    """The whole-level table formula, evaluated at once."""
    dist = np.linalg.norm(tree.centers(level) - pivot, axis=-1)
    return checkica_bounds_cos(tool, dist, tree.cell_half(level))


def _bits(a):
    """Raw float64 bits, so sign bits and NaN payloads compare too."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestDemandFill:
    """Rows filled on demand equal the eager table bit for bit."""

    PIVOTS = [np.array([0.0, -30.0, 5.0]), np.array([3.5, 12.25, -40.0])]

    @pytest.fixture(scope="class")
    def eager(self, head_tree_64_expanded):
        tree, tool = head_tree_64_expanded, paper_tool()
        return [
            [_eager(tree, tool, p, l) for l in range(tree.depth + 1)]
            for p in self.PIVOTS
        ]

    def _check(self, got, want, index):
        for g, w in zip(got, want):
            assert not np.isnan(g).any()
            np.testing.assert_array_equal(_bits(g), _bits(w[index]))

    @pytest.mark.parametrize("p", [0, 1])
    def test_random_incremental_lookups(self, head_tree_64_expanded, eager, p):
        tree = head_tree_64_expanded
        table = build_ica_table(tree, paper_tool(), self.PIVOTS[p], levels=12)
        assert table.levels == tree.depth + 1  # S > depth is capped
        rng = np.random.default_rng(7 + p)
        for _ in range(4):  # incremental: later draws hit filled and unfilled rows
            for l in range(table.levels):
                n = tree.levels[l].n
                index = rng.integers(0, n, size=rng.integers(0, 2 * n + 1))
                self._check(table.lookup(l, index), eager[p][l], index)
        for l in range(table.levels):
            self._check(table.level(l), eager[p][l], slice(None))

    def test_empty_index_and_chunk_boundary(self, head_tree_64_expanded, eager):
        tree = head_tree_64_expanded
        l = max(range(tree.depth + 1), key=lambda k: tree.levels[k].n)
        assert tree.levels[l].n > 2100
        table = build_ica_table(tree, paper_tool(), self.PIVOTS[0])
        empty = np.zeros(0, dtype=np.intp)
        lo, hi = table.lookup(l, empty)
        assert lo.shape == hi.shape == (0,)
        # Fills straddling ica_bounds_cos's 1024-row chunks, in reverse
        # order and with duplicates, then the whole level.
        for index in (
            np.arange(1000, 1050)[::-1],
            np.repeat(np.arange(1020, 2100), 2),
            np.arange(0, 2049),
        ):
            self._check(table.lookup(l, index), eager[0][l], index)
        self._check(table.level(l), eager[0][l], slice(None))

    def test_level_views_are_readonly(self, head_tree_64_expanded):
        table = build_ica_table(head_tree_64_expanded, paper_tool(), self.PIVOTS[0])
        c1, _ = table.level(0)
        with pytest.raises(ValueError):
            c1[...] = 0.0

    def test_fill_spans(self, head_tree_64_expanded):
        from repro.obs.trace import Tracer, use_tracer

        table = build_ica_table(head_tree_64_expanded, paper_tool(), self.PIVOTS[0])
        with use_tracer(Tracer()) as tr:
            table.lookup(5, np.array([3, 1, 3]))
            table.lookup(5, np.array([1, 3]))  # filled: no span
            table.level(5)
        fills = [r for r in tr.to_dicts() if r["name"] == "ica.table.fill"]
        assert [f["attrs"]["rows"] for f in fills] == [
            2, head_tree_64_expanded.levels[5].n - 2
        ]
        assert {f["attrs"]["level"] for f in fills} == {5}

    def test_concurrent_lookups_match_single_thread(self, head_tree_64_expanded, eager):
        tree = head_tree_64_expanded
        table = build_ica_table(tree, paper_tool(), self.PIVOTS[1])
        rng = np.random.default_rng(99)
        work = [
            [(l, rng.integers(0, tree.levels[l].n, size=500))
             for l in rng.permutation(table.levels)]
            for _ in range(8)
        ]
        results = [None] * 8
        barrier = threading.Barrier(8, timeout=30)

        def run(k):
            barrier.wait()
            results[k] = [table.lookup(l, index) for l, index in work[k]]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside check-and-fill
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        ref = build_ica_table(tree, paper_tool(), self.PIVOTS[1])
        for k in range(8):
            for (l, index), got in zip(work[k], results[k]):
                self._check(got, ref.lookup(l, index), slice(None))
                self._check(got, eager[1][l], index)


class TestTableValidation:
    """A precomputed table must match the run's pivot, S, tool and tree."""

    @pytest.fixture(scope="class")
    def table(self, sphere_scene):
        return build_ica_table(
            sphere_scene.tree, sphere_scene.tool, sphere_scene.pivot, levels=8
        )

    def test_wrong_pivot_rejected(self, sphere_scene, table):
        moved = sphere_scene.with_pivot((0.0, 0.0, 30.0))
        with pytest.raises(ValueError, match="pivot"):
            run_cd(moved, OrientationGrid(4, 4), method_by_name("AICA"), table=table)

    def test_wrong_levels_rejected(self, sphere_scene, table):
        config = TraversalConfig(memo_levels=2)
        with pytest.raises(ValueError, match="S="):
            run_cd(
                sphere_scene, OrientationGrid(4, 4), method_by_name("AICA"),
                config=config, table=table,
            )

    def test_table_ignored_by_non_table_methods(self, sphere_scene, table):
        # PBox has needs_table=False: a supplied table (even a wrong one)
        # is irrelevant and must not be validated or used.
        moved = sphere_scene.with_pivot((0.0, 0.0, 30.0))
        grid = OrientationGrid(4, 4)
        a = run_cd(moved, grid, method_by_name("PBox"))
        b = run_cd(moved, grid, method_by_name("PBox"), table=table)
        np.testing.assert_array_equal(a.collides, b.collides)

    @pytest.mark.parametrize("field", ["z0", "z1", "radius"])
    def test_other_tool_rejected(self, sphere_scene, field):
        tool = sphere_scene.tool
        parts = {"z0": tool.z0, "z1": tool.z1, "radius": tool.radius}
        parts[field] = {"z0": tool.z0 - 1.0, "z1": tool.z1 + 1.0,
                        "radius": 0.2 * tool.radius}[field]
        other = build_ica_table(sphere_scene.tree, Tool(**parts), sphere_scene.pivot)
        with pytest.raises(ValueError, match=f"tool {field}"):
            run_cd(sphere_scene, OrientationGrid(4, 4), method_by_name("AICA"), table=other)

    def test_other_tree_rejected(self, sphere_scene):
        from repro.octree.build import build_from_sdf, expand_top
        from repro.solids.sdf import SphereSDF

        # Same domain and depth, a smaller sphere: only the codes differ.
        smaller = expand_top(
            build_from_sdf(SphereSDF((0, 0, 0), 12.0), sphere_scene.tree.domain, 32), 5
        )
        assert smaller.depth == sphere_scene.tree.depth
        other = build_ica_table(smaller, sphere_scene.tool, sphere_scene.pivot)
        with pytest.raises(ValueError, match="tree"):
            run_cd(sphere_scene, OrientationGrid(4, 4), method_by_name("MICA"), table=other)

    def test_equal_tree_copy_accepted(self, sphere_scene):
        tree = sphere_scene.tree
        copy = LinearOctree(
            tree.domain, tree.depth,
            [
                OctreeLevel(
                    codes=lev.codes.copy(), status=lev.status.copy(),
                    child_start=lev.child_start.copy(), child_count=lev.child_count.copy(),
                )
                for lev in tree.levels
            ],
        )
        table = build_ica_table(copy, sphere_scene.tool, sphere_scene.pivot)
        grid = OrientationGrid(6, 6)
        a = run_cd(sphere_scene, grid, method_by_name("AICA"))
        b = run_cd(sphere_scene, grid, method_by_name("AICA"), table=table)
        np.testing.assert_array_equal(a.collides, b.collides)


class TestDefaultMemoLevels:
    """The default S must be the paper's 8, matching TraversalConfig.

    Regression: the default used to evaluate to ``min(8, depth) + 1`` —
    nine memoized levels on deep trees, one more than the documented
    ``S = 8`` and than ``TraversalConfig.memo_levels`` requests.
    """

    @pytest.fixture(scope="class")
    def chain_tree(self):
        """Depth-9 single-branch tree: one MIXED node per level, FULL leaf."""
        from repro.geometry.aabb import AABB
        from repro.octree.linear import (
            STATUS_FULL,
            STATUS_MIXED,
            LinearOctree,
            OctreeLevel,
        )

        depth = 9
        levels = [
            OctreeLevel(
                codes=np.zeros(1, dtype=np.uint64),
                status=np.full(1, STATUS_MIXED if l < depth else STATUS_FULL),
                child_start=np.full(1, -1, dtype=np.intp),
                child_count=np.zeros(1, dtype=np.int8),
            )
            for l in range(depth + 1)
        ]
        return LinearOctree(AABB((0, 0, 0), (64, 64, 64)), depth, levels)

    def test_default_is_paper_s8(self, chain_tree):
        table = build_ica_table(chain_tree, paper_tool(), np.zeros(3))
        assert table.levels == 8
        assert table.n_entries == 8  # one node per memoized level 0..7

    def test_default_matches_traversal_config(self, chain_tree):
        from repro.cd.traversal import TraversalConfig

        explicit = build_ica_table(
            chain_tree, paper_tool(), np.zeros(3),
            levels=TraversalConfig().memo_levels,
        )
        default = build_ica_table(chain_tree, paper_tool(), np.zeros(3))
        assert default.levels == explicit.levels == TraversalConfig().memo_levels
        assert default.n_entries == explicit.n_entries == 8

    def test_shallow_tree_still_capped_at_level_count(self, head_tree_64_expanded):
        table = build_ica_table(
            head_tree_64_expanded, paper_tool(), np.zeros(3)
        )
        assert table.levels == head_tree_64_expanded.depth + 1  # depth 6 < S
        assert table.n_entries == head_tree_64_expanded.total_nodes


class TestEfficiencyModel:
    def test_limits(self):
        assert theoretical_efficiency(0.0) == pytest.approx(1.0)
        assert corner_case_probability(0.0) == pytest.approx(0.0)

    def test_formula(self):
        x = 0.1
        expected = (np.arcsin(np.sqrt(3) * x) - np.arcsin(x)) / np.pi
        assert corner_case_probability(x) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing(self):
        xs = np.linspace(0, 0.5, 50)
        eff = theoretical_efficiency(xs)
        assert (np.diff(eff) <= 1e-12).all()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            corner_case_probability(-0.1)

    def test_efficiency_vs_resolution_increases(self):
        out = efficiency_vs_resolution(60.0, 40.0, (64, 256, 1024))
        vals = list(out.values())
        assert vals == sorted(vals)
        assert out[1024] > 0.99


class TestBoxIca:
    def test_bounds_sound_against_box(self):
        """lo implies the sphere hits the box; hi implies it misses it."""
        z0, z1, wx, wy = 0.0, 40.0, 6.0, 4.0
        rng = np.random.default_rng(5)
        for _ in range(200):
            dist = rng.uniform(1.0, 80.0)
            r = rng.uniform(0.1, 3.0)
            lo, hi = box_ica_bounds_cos(z0, z1, wx, wy, np.array([dist]), np.array([r]))
            theta = rng.uniform(0, np.pi)
            ca = np.cos(theta)
            # exact sphere-box distance in the box frame (axis = +z):
            center = np.array([dist * np.sin(theta), 0.0, dist * np.cos(theta)])
            d = np.maximum(np.abs(center) - np.array([wx, wy, 0.0]), 0.0)
            dz = max(z0 - center[2], center[2] - z1, 0.0)
            box_dist = np.sqrt(d[0] ** 2 + d[1] ** 2 + dz**2)
            if ca >= lo[0]:
                assert box_dist <= r + 1e-9
            if ca <= hi[0]:
                assert box_dist >= r - 1e-9

    def test_corner_fraction_decreases_with_distance(self):
        f_near = box_corner_fraction(0.0, 60.0, 8.0, 5.0, 25.0, 1.0)
        f_far = box_corner_fraction(0.0, 60.0, 8.0, 5.0, 200.0, 1.0)
        assert f_far <= f_near

    def test_validation(self):
        with pytest.raises(ValueError):
            box_ica_bounds_cos(0.0, 10.0, -1.0, 1.0, np.array([5.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            box_ica_bounds_cos(5.0, 5.0, 1.0, 1.0, np.array([5.0]), np.array([1.0]))

"""The five CD methods: exactness, agreement, and counter semantics.

The central claim — AICA/MICA/PICA are *exact* accelerations, not
approximations — is tested two ways: all five methods must produce
bit-identical accessibility maps on every scene, and the map itself must
match an independent brute-force ground truth computed directly from the
leaf voxels.
"""

import numpy as np
import pytest

from repro.cd import AICA, MICA, PBox, PBoxOpt, PICA, Scene, method_by_name, run_cd
from repro.cd.traversal import TraversalConfig
from repro.geometry.aabb import AABB
from repro.geometry.batch import tool_aabb_batch
from repro.geometry.orientation import OrientationGrid
from repro.octree.build import build_from_sdf, expand_top
from repro.octree.linear import STATUS_FULL
from repro.solids.sdf import BoxSDF, SphereSDF, Union
from repro.tool.tool import ball_end_mill, paper_tool

ALL_METHODS = (PBox, PBoxOpt, PICA, MICA, AICA)


from repro.cd.verify import brute_force_map  # library ground truth


@pytest.fixture(scope="module")
def scenes():
    """A few structurally different small scenes."""
    out = []
    dom = AABB((-30, -30, -30), (30, 30, 30))
    sphere = expand_top(build_from_sdf(SphereSDF((0, 0, 0), 15.0), dom, 16), 3)
    out.append(("sphere-pole", Scene(sphere, paper_tool(), np.array([0.0, 0.0, 16.0]))))
    out.append(("sphere-side", Scene(sphere, ball_end_mill(), np.array([18.0, 3.0, 0.0]))))
    two = expand_top(
        build_from_sdf(
            Union(SphereSDF((-10, 0, 0), 8.0), BoxSDF((12, 0, 0), (5, 5, 5))), dom, 16
        ),
        3,
    )
    out.append(("two-bodies", Scene(two, paper_tool(), np.array([0.0, 0.0, 10.0]))))
    return out


class TestMethodAgreement:
    @pytest.mark.parametrize("grid_size", [6, 10])
    def test_all_methods_identical(self, scenes, grid_size):
        grid = OrientationGrid.square(grid_size)
        for name, scene in scenes:
            maps = {}
            for cls in ALL_METHODS:
                maps[cls.name] = run_cd(scene, grid, cls()).collides
            ref = maps["PBox"]
            for mname, m in maps.items():
                assert np.array_equal(m, ref), f"{mname} diverged on scene {name}"

    def test_matches_brute_force(self, scenes):
        grid = OrientationGrid.square(8)
        for name, scene in scenes:
            got = run_cd(scene, grid, AICA()).collides
            exp = brute_force_map(scene, grid)
            assert np.array_equal(got, exp), f"AICA vs brute force on {name}"

    def test_head_scene_agreement(self, head_scene):
        grid = OrientationGrid.square(8)
        ref = run_cd(head_scene, grid, PBoxOpt()).collides
        for cls in (PICA, MICA, AICA):
            assert np.array_equal(run_cd(head_scene, grid, cls()).collides, ref)


class TestMethodSemantics:
    def test_pointing_into_solid_collides(self, sphere_scene):
        grid = OrientationGrid.square(16)
        r = run_cd(sphere_scene, grid, AICA())
        am = r.accessibility_map
        # pivot above the pole: downward (phi ~ pi) rows must be blocked
        assert not am[-1].any()
        # some upward orientations are free
        assert am[0].all()

    def test_empty_tree_all_accessible(self):
        dom = AABB((-10, -10, -10), (10, 10, 10))
        tree = build_from_sdf(SphereSDF((100, 100, 100), 1.0), dom, 8)
        scene = Scene(tree, paper_tool(), np.zeros(3))
        r = run_cd(scene, OrientationGrid.square(4), AICA())
        assert r.n_colliding == 0
        assert r.counters.total_checks == 0

    def test_pivot_inside_solid_all_collide(self):
        dom = AABB((-10, -10, -10), (10, 10, 10))
        tree = expand_top(build_from_sdf(SphereSDF((0, 0, 0), 6.0), dom, 16), 3)
        scene = Scene(tree, paper_tool(), np.zeros(3))
        r = run_cd(scene, OrientationGrid.square(4), PBox())
        assert r.n_colliding == r.grid.size

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pivot_rejected(self, sphere_scene, bad):
        # A NaN/inf pivot makes every distance and cosine non-finite, and
        # every check then answers "free": an all-accessible map.
        with pytest.raises(ValueError, match="finite"):
            Scene(sphere_scene.tree, paper_tool(), np.array([bad, 0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            sphere_scene.with_pivot([0.0, 0.0, bad])

    def test_method_by_name(self):
        assert method_by_name("aica").name == "AICA"
        assert method_by_name("PBox").name == "PBox"
        with pytest.raises(KeyError):
            method_by_name("nope")


class TestCounters:
    def test_pbox_counts_only_box_checks(self, sphere_scene):
        r = run_cd(sphere_scene, OrientationGrid.square(6), PBox())
        c = r.counters
        assert c.box_checks.sum() > 0
        assert c.ica_fly_checks.sum() == 0
        assert c.ica_memo_checks.sum() == 0
        assert c.cull_checks.sum() == 0
        assert (c.box_checks == c.nodes_visited).all()

    def test_pboxopt_culls(self, sphere_scene):
        r = run_cd(sphere_scene, OrientationGrid.square(6), PBoxOpt())
        c = r.counters
        assert (c.cull_checks == c.nodes_visited).all()
        assert c.box_checks.sum() < c.cull_checks.sum()

    def test_pica_all_fly(self, sphere_scene):
        r = run_cd(sphere_scene, OrientationGrid.square(6), PICA())
        c = r.counters
        assert c.ica_memo_checks.sum() == 0
        assert c.ica_fly_checks.sum() > 0
        assert c.box_checks.sum() == c.corner_cases.sum()

    def test_mica_mostly_memo(self, sphere_scene):
        r = run_cd(sphere_scene, OrientationGrid.square(6), MICA())
        c = r.counters
        assert c.ica_memo_checks.sum() > 0
        assert r.table_entries > 0

    def test_aica_fewer_box_checks_than_mica(self, head_scene):
        """AICA's corner expansion trades box checks for extra node visits
        (Fig 15: box share drops sharply, visited checks increase)."""
        grid = OrientationGrid.square(8)
        rm = run_cd(head_scene, grid, MICA())
        ra = run_cd(head_scene, grid, AICA())
        assert ra.counters.total_box_checks < rm.counters.total_box_checks
        assert (
            ra.counters.nodes_visited.sum() >= rm.counters.nodes_visited.sum()
        )

    def test_ica_efficiency_high(self, head_scene):
        r = run_cd(head_scene, OrientationGrid.square(8), AICA())
        assert r.counters.ica_efficiency() > 0.98

    def test_simulated_ordering(self, head_scene):
        """The paper's Fig 16 ordering on simulated time."""
        grid = OrientationGrid.square(8)
        times = {
            cls.name: run_cd(head_scene, grid, cls()).timing.total_s
            for cls in ALL_METHODS
        }
        assert times["AICA"] <= times["MICA"] * 1.001
        assert times["MICA"] < times["PICA"]
        assert times["PICA"] < times["PBoxOpt"]
        assert times["PBoxOpt"] < times["PBox"]


class TestResultObject:
    def test_summary_fields(self, sphere_scene):
        r = run_cd(sphere_scene, OrientationGrid.square(4), AICA())
        s = r.summary()
        for key in (
            "method",
            "total_checks",
            "box_checks",
            "ica_efficiency",
            "sim_total_ms",
            "wall_ms",
        ):
            assert key in s
        assert s["method"] == "AICA"

    def test_accessibility_map_shape(self, sphere_scene):
        g = OrientationGrid(3, 5)
        r = run_cd(sphere_scene, g, MICA())
        assert r.accessibility_map.shape == (3, 5)
        assert r.n_accessible + r.n_colliding == 15

    def test_render_ascii(self, sphere_scene):
        r = run_cd(sphere_scene, OrientationGrid.square(4), AICA())
        text = r.render_ascii()
        assert len(text.splitlines()) == 4
        assert set(text) <= {".", "#", "\n"}


class TestTraversalConfig:
    def test_thread_block_invariance(self, sphere_scene):
        grid = OrientationGrid.square(8)
        a = run_cd(sphere_scene, grid, AICA(), config=TraversalConfig(thread_block=7))
        b = run_cd(sphere_scene, grid, AICA(), config=TraversalConfig(thread_block=4096))
        np.testing.assert_array_equal(a.collides, b.collides)
        np.testing.assert_array_equal(
            a.counters.nodes_visited, b.counters.nodes_visited
        )

    def test_start_level_invariance_of_map(self, head_scene):
        grid = OrientationGrid.square(6)
        maps = [
            run_cd(head_scene, grid, MICA(), config=TraversalConfig(start_level=s)).collides
            for s in (0, 2, 5)
        ]
        assert np.array_equal(maps[0], maps[1])
        assert np.array_equal(maps[0], maps[2])

    def test_memo_levels_invariance_of_map(self, head_scene):
        grid = OrientationGrid.square(6)
        maps = [
            run_cd(head_scene, grid, AICA(), config=TraversalConfig(memo_levels=s)).collides
            for s in (2, 4, 8)
        ]
        assert np.array_equal(maps[0], maps[1])
        assert np.array_equal(maps[0], maps[2])

    def test_memo_levels_shift_fly_to_memo(self, head_scene):
        grid = OrientationGrid.square(6)
        shallow = run_cd(
            head_scene, grid, MICA(), config=TraversalConfig(memo_levels=2)
        ).counters
        deep = run_cd(
            head_scene, grid, MICA(), config=TraversalConfig(memo_levels=8)
        ).counters
        assert deep.ica_memo_checks.sum() > shallow.ica_memo_checks.sum()
        assert deep.ica_fly_checks.sum() < shallow.ica_fly_checks.sum()

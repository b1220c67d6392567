"""Batch kernels must agree elementwise with the scalar predicates."""

import numpy as np
import pytest

from repro.geometry.aabb import AABB
from repro.geometry.batch import (
    tool_aabb_batch,
    tool_aabb_cull_batch,
    tool_point_distance_2d,
)
from repro.geometry.cylinder import Cylinder
from repro.geometry.frames import frame_from_axis
from repro.geometry.orientation import direction_from_angles
from repro.geometry.predicates import tool_cylinders_aabb_intersects
from repro.tool.tool import Tool, ball_end_mill, paper_tool, straight_line_tool


@pytest.fixture(scope="module")
def random_batch(rng):
    P = 600
    pivot = np.array([0.5, -0.25, 1.0])
    z0s = np.array([0.0, 2.0, 8.0])
    z1s = np.array([2.0, 8.0, 11.0])
    rads = np.array([0.5, 1.5, 3.0])
    dirs = direction_from_angles(
        rng.uniform(0.01, np.pi - 0.01, P), rng.uniform(0, 2 * np.pi, P)
    )
    centers = rng.uniform(-10, 10, (P, 3))
    halves = rng.uniform(0.05, 2.5, P)
    return pivot, dirs, centers, halves, z0s, z1s, rads


def _scalar_reference(pivot, dirs, centers, halves, z0s, z1s, rads):
    out = np.zeros(len(dirs), dtype=bool)
    for i in range(len(dirs)):
        cyls = [
            Cylinder(pivot, dirs[i], z0s[c], z1s[c], rads[c]) for c in range(len(z0s))
        ]
        out[i] = tool_cylinders_aabb_intersects(cyls, AABB.cube(centers[i], halves[i]))
    return out


class TestToolAabbBatch:
    def test_matches_scalar_screened(self, random_batch):
        exp = _scalar_reference(*random_batch)
        got = tool_aabb_batch(*random_batch, screen=True)
        np.testing.assert_array_equal(got, exp)

    def test_matches_scalar_unscreened(self, random_batch):
        pivot, dirs, centers, halves, z0s, z1s, rads = random_batch
        exp = _scalar_reference(pivot, dirs[:200], centers[:200], halves[:200], z0s, z1s, rads)
        got = tool_aabb_batch(
            pivot, dirs[:200], centers[:200], halves[:200], z0s, z1s, rads, screen=False
        )
        np.testing.assert_array_equal(got, exp)

    def test_screen_invariance(self, random_batch):
        a = tool_aabb_batch(*random_batch, screen=True)
        b = tool_aabb_batch(*random_batch, screen=False)
        np.testing.assert_array_equal(a, b)

    def test_chunking_invariance(self, random_batch):
        a = tool_aabb_batch(*random_batch, chunk=64)
        b = tool_aabb_batch(*random_batch, chunk=100000)
        np.testing.assert_array_equal(a, b)

    def test_empty_batch(self):
        got = tool_aabb_batch(
            np.zeros(3),
            np.zeros((0, 3)),
            np.zeros((0, 3)),
            np.zeros(0),
            [0.0],
            [1.0],
            [1.0],
        )
        assert got.shape == (0,)

    def test_single_cylinder_scalar_tool_params(self):
        got = tool_aabb_batch(
            np.zeros(3),
            np.array([[0.0, 0.0, 1.0]]),
            np.array([[0.0, 0.0, 5.0]]),
            np.array([0.5]),
            0.0,
            10.0,
            2.0,
        )
        assert got[0]

    def test_per_axis_halves(self):
        # a slab box: thin in x, long in z — touches only via its z extent
        got = tool_aabb_batch(
            np.zeros(3),
            np.array([[0.0, 0.0, 1.0]]),
            np.array([[2.5, 0.0, 5.0]]),
            np.array([[0.5, 0.5, 4.0]]),
            0.0,
            10.0,
            2.0,
        )
        assert got[0]


class TestScalarHalvesAndFrames:
    """The frontier engine's fast-path arguments must not change verdicts."""

    def test_scalar_half_matches_vector(self, random_batch):
        # v2 passes the level's shared cube half-edge as a plain scalar;
        # it must decide exactly like the equivalent per-item vector.
        pivot, dirs, centers, _, z0s, z1s, rads = random_batch
        h = 1.25
        vec = np.full(len(dirs), h)
        np.testing.assert_array_equal(
            tool_aabb_batch(pivot, dirs, centers, h, z0s, z1s, rads),
            tool_aabb_batch(pivot, dirs, centers, vec, z0s, z1s, rads),
        )
        np.testing.assert_array_equal(
            tool_aabb_cull_batch(pivot, dirs, centers, h, z0s, z1s, rads),
            tool_aabb_cull_batch(pivot, dirs, centers, vec, z0s, z1s, rads),
        )

    def test_scalar_half_matches_scalar_reference(self, random_batch):
        pivot, dirs, centers, _, z0s, z1s, rads = random_batch
        h = 1.25
        exp = _scalar_reference(
            pivot, dirs, centers, np.full(len(dirs), h), z0s, z1s, rads
        )
        np.testing.assert_array_equal(
            tool_aabb_batch(pivot, dirs, centers, h, z0s, z1s, rads), exp
        )

    def test_precomputed_frames_identical(self, random_batch):
        # v2 hoists the per-thread tool frames once per block and passes
        # them in; frame_from_axis is deterministic, so the kernel must
        # return bit-identical verdicts either way.
        pivot, dirs, centers, halves, z0s, z1s, rads = random_batch
        frames = frame_from_axis(dirs)
        np.testing.assert_array_equal(
            tool_aabb_batch(
                pivot, dirs, centers, halves, z0s, z1s, rads, frames=frames
            ),
            tool_aabb_batch(pivot, dirs, centers, halves, z0s, z1s, rads),
        )
        # ...including through the internal chunk loop.
        np.testing.assert_array_equal(
            tool_aabb_batch(
                pivot, dirs, centers, halves, z0s, z1s, rads,
                frames=frames, chunk=77,
            ),
            tool_aabb_batch(pivot, dirs, centers, halves, z0s, z1s, rads),
        )


class TestCullBatch:
    def test_conservative(self, random_batch):
        """Cull == False must imply the exact test is False."""
        exact = tool_aabb_batch(*random_batch)
        cull = tool_aabb_cull_batch(*random_batch)
        assert not (exact & ~cull).any()

    def test_cull_actually_culls(self, random_batch):
        cull = tool_aabb_cull_batch(*random_batch)
        assert (~cull).sum() > 0  # it should reject a decent share

    def test_chunking_invariance(self, random_batch):
        pivot, dirs, centers, halves, z0s, z1s, rads = random_batch
        a = tool_aabb_cull_batch(pivot, dirs, centers, halves, z0s, z1s, rads, chunk=77)
        b = tool_aabb_cull_batch(pivot, dirs, centers, halves, z0s, z1s, rads)
        np.testing.assert_array_equal(a, b)


class TestToolPointDistance2D:
    def test_matches_cylinder_distance(self, rng):
        z0s = np.array([0.0, 3.0])
        z1s = np.array([3.0, 9.0])
        rads = np.array([1.0, 2.5])
        pivot = np.zeros(3)
        d = np.array([0.0, 0.0, 1.0])
        cyls = [Cylinder(pivot, d, z0s[c], z1s[c], rads[c]) for c in range(2)]
        pts = rng.uniform(-12, 12, (300, 3))
        axial = pts[:, 2]
        radial = np.hypot(pts[:, 0], pts[:, 1])
        got = tool_point_distance_2d(z0s, z1s, rads, axial, radial)
        exp = np.minimum(cyls[0].distance_to_point(pts), cyls[1].distance_to_point(pts))
        np.testing.assert_allclose(got, exp, atol=1e-12)

    def test_inside_zero(self):
        got = tool_point_distance_2d([0.0], [5.0], [2.0], np.array([2.5]), np.array([1.0]))
        assert got[0] == 0.0


def _tool_point_distance_2d_ref(z0s, z1s, rads, axial, radial):
    """Cylinder-innermost broadcast form of :func:`tool_point_distance_2d`:
    the bit-exact reference for its cylinder-major loop."""
    z0s = np.atleast_1d(np.asarray(z0s, dtype=np.float64))
    z1s = np.atleast_1d(np.asarray(z1s, dtype=np.float64))
    rads = np.atleast_1d(np.asarray(rads, dtype=np.float64))
    axial = np.asarray(axial, dtype=np.float64)[..., None]
    radial = np.asarray(radial, dtype=np.float64)[..., None]
    dz = np.maximum(z0s - axial, 0.0) + np.maximum(axial - z1s, 0.0)
    dr = np.maximum(radial - rads, 0.0)
    return np.min(np.hypot(dz, dr), axis=-1)


_DIST_TOOLS = {
    "paper": paper_tool(),
    "ball": ball_end_mill(),
    "line": straight_line_tool(),
    "one-cylinder": Tool.from_segments([(2.0, 30.0)]),
}


@pytest.mark.parametrize("name", sorted(_DIST_TOOLS))
class TestToolPointDistanceCylinderMajor:
    """The cylinder-major loop is bit-identical to the broadcast form."""

    def _check(self, tool, axial, radial):
        got = tool_point_distance_2d(tool.z0, tool.z1, tool.radius, axial, radial)
        ref = _tool_point_distance_2d_ref(tool.z0, tool.z1, tool.radius, axial, radial)
        assert np.shape(got) == np.shape(ref)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))
        return got

    def test_panel(self, name):
        tool = _DIST_TOOLS[name]
        rng = np.random.default_rng(5)
        axial = rng.uniform(-40.0, tool.reach + 40.0, (130, 70))
        radial = rng.uniform(0.0, 2.0 * tool.max_radius, (130, 70))
        axial[0, :3] = tool.z0[0]
        axial[1, :3] = tool.z1[-1]
        radial[2, :3] = tool.radius[0]
        radial[3] = 0.0
        self._check(tool, axial, radial)
        # The (U, 1) x (1, B) broadcast of the screen panel.
        self._check(tool, axial[:, :1], radial[:1, :])

    def test_zero_d_and_empty(self, name):
        tool = _DIST_TOOLS[name]
        got = self._check(tool, 3.0, 1.5)
        assert np.ndim(got) == 0
        assert np.ndim(self._check(tool, np.float64(-2.0), np.array(0.5))) == 0
        assert self._check(tool, np.zeros(0), np.zeros(0)).shape == (0,)
        assert self._check(tool, np.zeros((0, 4)), np.zeros((1, 4))).shape == (0, 4)


def test_tool_point_distance_empty_stack_raises():
    with pytest.raises(ValueError):
        tool_point_distance_2d([], [], [], np.ones(3), np.ones(3))

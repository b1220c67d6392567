"""Shared fixtures: small scenes, cached octrees, deterministic RNG.

Heavy artifacts (octrees, paths) are built once per session and shared;
tests that mutate state must copy.  Hypothesis settings are centralized
here: the kernels are exact, so property tests use modest example counts
with no deadline (this CI box is slow, not flaky).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True, scope="session")
def _quiet_access_log():
    # The serving tier's access log defaults to stderr; silence the
    # ambient one so server-backed tests don't spray JSON lines over the
    # pytest progress output.  Tests that assert on log lines install
    # their own via ``use_access_log``.
    from repro.obs.log import NULL_ACCESS_LOG, set_access_log

    set_access_log(NULL_ACCESS_LOG)
    yield


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def head():
    from repro.solids.models import head_model

    return head_model()


@pytest.fixture(scope="session")
def head_tree_32(head):
    from repro.octree.build import build_from_sdf

    return build_from_sdf(head.sdf, head.domain, 32)


@pytest.fixture(scope="session")
def head_tree_64(head):
    from repro.octree.build import build_from_sdf

    return build_from_sdf(head.sdf, head.domain, 64)


@pytest.fixture(scope="session")
def head_tree_64_expanded(head_tree_64):
    from repro.octree.build import expand_top

    return expand_top(head_tree_64, 5)


@pytest.fixture(scope="session")
def head_scene(head_tree_64_expanded):
    from repro.cd.scene import Scene
    from repro.tool.tool import paper_tool

    return Scene(head_tree_64_expanded, paper_tool(), np.array([0.0, -30.0, 5.0]))


@pytest.fixture(scope="session")
def sphere_scene():
    """Tiny analytic scene: 20 mm sphere, pivot just above the pole."""
    from repro.cd.scene import Scene
    from repro.geometry.aabb import AABB
    from repro.octree.build import build_from_sdf, expand_top
    from repro.solids.sdf import SphereSDF
    from repro.tool.tool import paper_tool

    domain = AABB((-40.0, -40.0, -40.0), (40.0, 40.0, 40.0))
    tree = expand_top(build_from_sdf(SphereSDF((0, 0, 0), 20.0), domain, 32), 5)
    return Scene(tree, paper_tool(), np.array([0.0, 0.0, 21.0]))


@pytest.fixture(scope="session")
def paper_tool_arrays():
    from repro.tool.tool import paper_tool

    t = paper_tool()
    return t.z0, t.z1, t.radius

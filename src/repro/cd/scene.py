"""The CD problem instance: target octree + tool + pivot point."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.octree.linear import LinearOctree
from repro.tool.tool import Tool

__all__ = ["Scene"]


@dataclass(frozen=True)
class Scene:
    """One collision-detection problem instance (inputs (a)-(c) of §2).

    The orientation set (input (d)) is supplied separately as an
    :class:`repro.geometry.orientation.OrientationGrid` so the same scene
    can be queried at several map resolutions (the Figure 17 sweep).
    """

    tree: LinearOctree
    tool: Tool
    pivot: np.ndarray

    def __post_init__(self) -> None:
        pivot = np.asarray(self.pivot, dtype=np.float64).reshape(3)
        if not np.isfinite(pivot).all():
            raise ValueError(f"pivot must be finite, got {pivot.tolist()}")
        object.__setattr__(self, "pivot", pivot)

    @property
    def n_cylinders(self) -> int:
        return self.tool.n_cylinders

    def with_pivot(self, pivot) -> "Scene":
        """Same target and tool, new pivot (for per-path-point sweeps)."""
        # __post_init__ normalizes the pivot; don't convert twice here.
        return Scene(self.tree, self.tool, pivot)

    def content_digest(self) -> str:
        """Stable sha256 identity of the full problem instance.

        Hashes the octree's domain, depth and per-level code/status
        arrays, the tool's cylinder stack, and the pivot — everything
        the accessibility map depends on.  Two scenes with equal digests
        produce byte-identical maps for every method and grid, which is
        what lets :mod:`repro.service` key registered scenes, memoized
        ICA tables, and cached query results by content rather than by
        object identity.

        The child-link arrays are derived from the codes and deliberately
        excluded, so a tree loaded from ``.npz`` (links rebuilt) hashes
        the same as the tree that was saved.
        """
        h = hashlib.sha256()
        h.update(b"repro.scene/v1")
        h.update(np.asarray(self.tree.domain.lo, dtype=np.float64).tobytes())
        h.update(np.asarray(self.tree.domain.hi, dtype=np.float64).tobytes())
        h.update(int(self.tree.depth).to_bytes(4, "little"))
        for lev in self.tree.levels:
            h.update(np.ascontiguousarray(lev.codes, dtype=np.uint64).tobytes())
            h.update(np.ascontiguousarray(lev.status, dtype=np.uint8).tobytes())
        for arr in (self.tool.z0, self.tool.z1, self.tool.radius):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(self.pivot.tobytes())
        return h.hexdigest()

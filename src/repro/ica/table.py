"""The memoized ICA table — stage 1 of the parallel AICA algorithm.

For one pivot point, stage 1 computes ``(ica1, ica2)`` for every stored
octree node on the top ``S`` levels (Section 4.2): ``ica1`` is the sound
collision bound of the node's *inscribed* sphere, ``ica2`` the sound
freedom bound of its *circumscribed* sphere.  Both depend only on the
node's center distance to the pivot and its size — not on any tool
orientation — which is what makes the precomputation valid for all
threads of stage 2 and pleasingly parallel at voxel granularity.

The table's simulated cost model (one GPU thread per voxel, ``10 * N_c``
operations each) is charged by :mod:`repro.engine`; this module just
computes the values and exposes per-level lookup arrays for the
traversal to gather from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ica.cone import SQRT3, checkica_bounds_cos
from repro.obs.trace import get_tracer
from repro.octree.linear import LinearOctree
from repro.tool.tool import Tool

__all__ = ["IcaTable", "build_ica_table", "SQRT3"]


@dataclass
class IcaTable:
    """Per-level memoized ICA values for a fixed (tree, tool, pivot).

    Values are stored in *cosine space* (``cos1 = cos(ica1)`` of the
    inscribed sphere, ``cos2 = cos(ica2)`` of the circumscribed sphere,
    with the :data:`repro.ica.cone.COS_NEVER` sentinel), because the CD
    stage compares them against dot-product cosines directly — the
    angle itself is never needed.

    ``cos1[l]`` / ``cos2[l]`` align index-for-index with
    ``tree.levels[l].codes`` for every level ``l < len(cos1)``; deeper
    levels are not memoized and must be computed on the fly (that is the
    ``S`` trade-off Figure 18 sweeps).
    """

    pivot: np.ndarray
    levels: int  # the paper's S: number of memoized top levels
    cos1: list[np.ndarray]
    cos2: list[np.ndarray]
    n_entries: int

    def has_level(self, level: int) -> bool:
        return level < self.levels and level < len(self.cos1)

    def lookup(self, level: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather memoized ``(cos1, cos2)`` for stored-node indices at a level."""
        if not self.has_level(level):
            raise KeyError(f"level {level} is not memoized (S={self.levels})")
        return self.cos1[level][index], self.cos2[level][index]


def build_ica_table(
    tree: LinearOctree, tool: Tool, pivot, *, levels: int | None = None
) -> IcaTable:
    """Compute the memoized table for the top ``levels`` octree levels.

    ``levels`` defaults to the paper's ``S = 8`` — the same default as
    ``TraversalConfig.memo_levels`` — capped at the tree's level count
    (``depth + 1``): levels ``0 .. S-1`` are memoized.  The computation
    is one vectorized :func:`~repro.ica.cone.checkica_bounds_cos` call
    per level — the direct analogue of the one-thread-per-voxel GPU
    kernel.
    """
    pivot = np.asarray(pivot, dtype=np.float64)
    if levels is None:
        levels = 8
    levels = int(min(levels, tree.depth + 1))

    with get_tracer().span("ica.table.build", levels=levels) as sp:
        cos1: list[np.ndarray] = []
        cos2: list[np.ndarray] = []
        n = 0
        for l in range(levels):
            lev = tree.levels[l]
            if lev.n == 0:
                cos1.append(np.zeros(0))
                cos2.append(np.zeros(0))
                continue
            centers = tree.centers(l)
            dist = np.linalg.norm(centers - pivot, axis=-1)
            lo, hi = checkica_bounds_cos(tool, dist, tree.cell_half(l))
            cos1.append(lo)
            cos2.append(hi)
            n += lev.n
        sp.set(n_entries=n)
    return IcaTable(pivot=pivot, levels=levels, cos1=cos1, cos2=cos2, n_entries=n)

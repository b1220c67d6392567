"""The memoized ICA table — stage 1 of the parallel AICA algorithm.

For one pivot point, stage 1 computes ``(ica1, ica2)`` for every stored
octree node on the top ``S`` levels (Section 4.2): ``ica1`` is the sound
collision bound of the node's *inscribed* sphere, ``ica2`` the sound
freedom bound of its *circumscribed* sphere.  Both depend only on the
node's center distance to the pivot and its size — not on any tool
orientation — which is what makes the precomputation valid for all
threads of stage 2 and pleasingly parallel at voxel granularity.

The table's simulated cost model (one GPU thread per voxel, ``10 * N_c``
operations each, over all ``n_entries`` rows) is charged by
:mod:`repro.engine`.  The host fills a row only when the traversal
first reads it: the base level is read whole, deeper levels a few
hundred rows each, and the rest of the table is never computed.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.ica.cone import SQRT3, checkica_bounds_cos
from repro.obs.trace import get_tracer
from repro.octree.linear import LinearOctree
from repro.tool.tool import Tool

__all__ = ["IcaTable", "build_ica_table", "SQRT3"]


class IcaTable:
    """Per-level memoized ICA values for a fixed (tree, tool, pivot, S).

    Values are stored in *cosine space* (``cos1 = cos(ica1)`` of the
    inscribed sphere, ``cos2 = cos(ica2)`` of the circumscribed sphere,
    with the :data:`repro.ica.cone.COS_NEVER` sentinel), because the CD
    stage compares them against dot-product cosines directly — the
    angle itself is never needed.

    Levels ``l < levels`` are memoized; their rows align index-for-index
    with ``tree.levels[l].codes``.  Deeper levels are computed on the
    fly by the methods (that is the ``S`` trade-off Figure 18 sweeps).

    Rows are demand-filled: every per-level array starts as NaN (the
    only "not filled" marker), and :meth:`lookup` / :meth:`level`
    compute the missing rows they are asked for before gathering.  A
    fill evaluates the eager formula on the missing rows only; every
    step is elementwise per row, so a row's value does not depend on
    which batch fills it and equals the whole-level build bit for bit.
    One lock per table guards check-and-fill, so dispatch threads may
    share a table.  ``n_entries`` is the full-table row count the
    simulated stage 1 is charged for, filled or not.
    """

    def __init__(self, tree: LinearOctree, tool: Tool, pivot, levels: int) -> None:
        self.tree = tree
        self.tool = tool
        self.pivot = np.asarray(pivot, dtype=np.float64)
        self.levels = int(levels)  # the paper's S: number of memoized top levels
        sizes = [tree.levels[l].n for l in range(self.levels)]
        self.n_entries = int(sum(sizes))
        self._cos1 = [np.full(n, np.nan) for n in sizes]
        self._cos2 = [np.full(n, np.nan) for n in sizes]
        self._lock = threading.Lock()

    def has_level(self, level: int) -> bool:
        return level < self.levels

    def _require(self, level: int) -> None:
        if not self.has_level(level):
            raise KeyError(f"level {level} is not memoized (S={self.levels})")

    def _fill(self, level: int, rows: np.ndarray) -> None:
        """Compute ``rows`` of ``level`` (caller holds the lock; every row
        is unfilled, duplicates allowed)."""
        todo = np.zeros(len(self._cos1[level]), dtype=bool)
        todo[rows] = True
        rows = np.flatnonzero(todo)
        with get_tracer().span("ica.table.fill", level=level, rows=len(rows)):
            dist = np.linalg.norm(self.tree.centers(level, rows) - self.pivot, axis=-1)
            lo, hi = checkica_bounds_cos(self.tool, dist, self.tree.cell_half(level))
            self._cos1[level][rows] = lo
            self._cos2[level][rows] = hi

    def lookup(self, level: int, index) -> tuple[np.ndarray, np.ndarray]:
        """``(cos1, cos2)`` for stored-node indices at a memoized level."""
        self._require(level)
        index = np.asarray(index, dtype=np.intp)
        c1, c2 = self._cos1[level], self._cos2[level]
        with self._lock:
            lo, hi = c1[index], c2[index]
            missing = np.isnan(lo)
            if missing.any():
                at = index[missing]
                self._fill(level, at)
                lo[missing], hi[missing] = c1[at], c2[at]
        return lo, hi

    def level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cos1, cos2)`` of every row of a memoized level, as read-only
        views (the product base level reads its level whole)."""
        self._require(level)
        c1, c2 = self._cos1[level], self._cos2[level]
        with self._lock:
            missing = np.flatnonzero(np.isnan(c1))
            if len(missing):
                self._fill(level, missing)
        lo, hi = c1.view(), c2.view()
        lo.flags.writeable = hi.flags.writeable = False
        return lo, hi


def build_ica_table(
    tree: LinearOctree, tool: Tool, pivot, *, levels: int | None = None
) -> IcaTable:
    """The memoized table for the top ``levels`` octree levels.

    ``levels`` defaults to the paper's ``S = 8`` — the same default as
    ``TraversalConfig.memo_levels`` — capped at the tree's level count
    (``depth + 1``): levels ``0 .. S-1`` are memoized.  The simulated
    GPU computes every row up front (one thread per voxel); the returned
    host table computes each row the first time it is read.
    """
    if levels is None:
        levels = 8
    levels = int(min(levels, tree.depth + 1))
    with get_tracer().span("ica.table.build", levels=levels) as sp:
        table = IcaTable(tree, tool, pivot, levels)
        sp.set(n_entries=table.n_entries)
    return table

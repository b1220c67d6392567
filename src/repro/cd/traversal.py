"""The shared level-synchronous octree traversal (Algorithm 2, batched).

On the GPU, each thread runs Algorithm 2's explicit-stack DFS over the
octree for its orientation.  The vectorized equivalent used here is a
*frontier*: the set of live (thread, node) pairs, advanced one octree
level at a time.  Per level, the active method classifies every pair
(``NO`` = prune, ``YES`` = the tool provably intersects the node's box,
``EXPAND`` = AICA's inconclusive-but-expandable corner case), and the
frontier is rebuilt:

* ``YES`` on a FULL node -> the thread's orientation collides; all of
  the thread's other pairs are dropped (Algorithm 2's early return);
* ``YES`` on a MIXED node -> the node's stored children join the
  frontier;
* ``EXPAND`` on a FULL interior node -> eight *virtual* FULL sub-cells
  join the frontier (geometric subdivision of a solid region, which the
  stored tree does not materialize).

The traversal visits exactly the nodes the per-thread DFS would visit,
up to within-level ordering after a collision (a sequential thread stops
mid-level; the batched version finishes the level).  Check counts per
thread are recorded in :class:`~repro.engine.counters.ThreadCounters`
and converted to simulated kernel time by :mod:`repro.engine.simt`.

Threads are processed in blocks (GPU thread blocks) so peak frontier
memory stays bounded at any map resolution.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cd.result import CDResult
from repro.cd.scene import Scene
from repro.engine.costs import CostModel, DEFAULT_COSTS
from repro.engine.counters import StageBreakdown, ThreadCounters
from repro.engine.device import DeviceSpec, GTX_1080_TI
from repro.engine.simt import simulate_kernel, simulate_stage
from repro.engine.workspace import Workspace, get_ambient_workspace
from repro.geometry.orientation import OrientationGrid
from repro.ica.cone import checkica_bounds_cos
from repro.ica.table import IcaTable, build_ica_table
from repro.obs.metrics import get_metrics
from repro.obs.profile import Heartbeat, progress_enabled
from repro.obs.trace import get_tracer
from repro.octree.linear import STATUS_FULL, STATUS_MIXED

__all__ = [
    "TraversalConfig",
    "Runtime",
    "Wave",
    "LevelContext",
    "run_cd",
    "resolve_engine",
    "ENGINES",
    "OUT_NO",
    "OUT_YES",
    "OUT_EXPAND",
]

OUT_NO = np.uint8(0)
OUT_YES = np.uint8(1)
OUT_EXPAND = np.uint8(2)

#: The selectable frontier engines: ``v1`` is the straight-line
#: allocating reference implementation, ``v2`` the workspace/panel
#: engine.  Both produce byte-identical maps and counters (asserted by
#: the equivalence suite); v1 exists as the oracle and escape hatch.
ENGINES = ("v1", "v2")


def resolve_engine(value: str | None = None) -> str:
    """The effective frontier engine: explicit > ``REPRO_ENGINE`` > ``v2``.

    An explicit value that is empty or whitespace-only defers to the
    environment, and an invalid value raises an error naming both the
    config field and the environment variable.
    """
    if value is not None:
        value = str(value).strip().lower()
    if not value:
        value = os.environ.get("REPRO_ENGINE", "").strip().lower() or "v2"
    if value not in ENGINES:
        raise ValueError(
            f"engine must be one of {ENGINES}, got {value!r} "
            "(check REPRO_ENGINE or TraversalConfig.engine)"
        )
    return value


@dataclass(frozen=True)
class TraversalConfig:
    """Tunable parameters of the parallel scheme.

    ``start_level`` is the paper's top-level expansion (top 5 levels
    collapsed into one 32^3 base level); ``memo_levels`` is the paper's
    ``S`` (stage-1 precompute depth, default 8); ``thread_block`` bounds
    the number of orientations processed per frontier sweep;
    ``max_pairs`` bounds how many (thread, node) pairs a single
    ``method.decide`` call may see — larger frontiers are classified in
    chunks (v2's base level in panel rectangles), capping the per-call
    temporaries (the decision kernels allocate a dozen per pair).

    ``workers`` selects the execution engine: ``1`` is the serial
    reference path, ``N > 1`` shards the workload over ``N`` OS
    processes via :mod:`repro.engine.pool`, and ``None`` (the default)
    defers to the ``REPRO_WORKERS`` environment variable (itself
    defaulting to 1).  Results are byte-identical for any worker count.

    ``engine`` picks the frontier implementation: ``"v2"`` (each
    block's base level decided as a panel product, workspace frontier
    below it; the default) or
    ``"v1"`` (the allocating reference path).  ``None`` defers to
    ``REPRO_ENGINE`` (default v2).  Maps and counters are byte-identical
    between engines — the choice only affects host wall-clock time.
    """

    start_level: int = 5
    memo_levels: int = 8
    thread_block: int = 2048
    max_pairs: int = 4_000_000  # frontier chunking threshold inside a block
    workers: int | None = None  # None = resolve from REPRO_WORKERS (default 1)
    engine: str | None = None  # None = resolve from REPRO_ENGINE (default v2)


@dataclass
class Wave:
    """One frontier level's pairs, as seen by a method's decide().

    A *pair wave* (``ctx`` None: v1, every v2 level below the base
    level, direct kernel tests, the voxel-mapping pricer) lists one pair
    per entry of ``threads``, ``codes``, ``idx``, ``status``,
    ``centers`` and ``dirs``, and takes the methods' reference kernels.

    A *product wave* (``ctx`` set: the base level of a v2 thread block)
    is the rectangle ``rect = (rows, cols)`` of the block's ``(base cell
    x thread)`` panels (see :class:`LevelContext`): ``codes``, ``idx``
    and ``status`` hold its rows, ``threads`` its columns, ``centers``
    and ``dirs`` are None, and pair ``(r, c)`` is entry
    ``r * len(threads) + c`` of the outcome vector.
    """

    level: int
    threads: np.ndarray  # (F,) global thread (orientation) indices; product: (C,)
    codes: np.ndarray  # (F,) uint64 Morton codes at `level`; product: (R,)
    idx: np.ndarray  # (F,) stored-node index at `level`, -1 if virtual; product: (R,)
    status: np.ndarray  # (F,) uint8 node status (virtual nodes are FULL); product: (R,)
    centers: np.ndarray | None  # (F, 3) node centers (None on a product wave)
    half: float  # cell half-edge at `level`
    dirs: np.ndarray | None  # (F, 3) tool direction per pair (None on a product wave)
    ctx: "LevelContext | None" = None  # product wave: the block's shared panels
    rect: tuple[slice, slice] | None = None  # product wave: (rows, cols) of the panels

    @property
    def size(self) -> int:
        if self.ctx is not None:
            return len(self.idx) * len(self.threads)
        return len(self.threads)

    def charge(self, counters: ThreadCounters, name: str, mask=None) -> None:
        """Count one ``name`` event per pair (per pair where ``mask`` is set).

        On a product wave ``mask`` has one entry per pair or one per row
        (covering the row's every column); each column's count is added
        to its thread once.
        """
        if self.ctx is None:
            sel = self.threads if mask is None else self.threads[mask]
            counters.add_threads(name, sel, counters.n_threads)
            return
        rows = len(self.idx)
        n = rows if mask is None else np.count_nonzero(np.reshape(mask, (rows, -1)), axis=0)
        getattr(counters, name)[self.threads] += n


@dataclass
class Runtime:
    """Per-run shared state handed to the methods.

    ``engine`` is the resolved frontier engine (see
    :func:`resolve_engine`; an explicit value wins over
    ``config.engine`` which wins over ``REPRO_ENGINE``).  Under v2,
    ``workspace`` is the buffer arena for wave arrays and kernel
    temporaries (the ambient one when installed, else a fresh private
    arena) and ``cache`` holds the run's deduplicated per-node and
    per-thread geometry (:class:`_RunCache`).
    """

    scene: Scene
    grid: OrientationGrid
    counters: ThreadCounters
    costs: CostModel
    config: TraversalConfig
    table: IcaTable | None = None
    all_dirs: np.ndarray = field(default=None)
    engine: str | None = None
    workspace: Workspace | None = None
    cache: "_RunCache | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.all_dirs is None:
            self.all_dirs = self.grid.directions()
        self.engine = resolve_engine(self.engine or self.config.engine)
        if self.engine == "v2":
            if self.workspace is None:
                self.workspace = get_ambient_workspace() or Workspace()
            if self.cache is None:
                self.cache = _RunCache(self.scene)


class _RunCache:
    """One run's deduplicated geometry, shared across blocks and levels.

    Everything here is *recomputation elimination only*: each cached
    array is produced by exactly the elementwise formula the v1 kernels
    apply per pair, evaluated once per stored node (or once per thread
    of a block) and gathered — so gathered values are bit-equal to the
    per-pair originals, which is what keeps maps and counters
    byte-identical between engines.

    Per-level node caches are built lazily by the first product (base)
    level that needs them; that level pairs every stored node with every
    thread of a block, so computing every stored node never costs more
    than the per-pair path.  Once built, a cache serves every later
    block and rectangle for free.
    """

    __slots__ = (
        "scene",
        "_centers",
        "_dist",
        "_frames",
        "_cyl",
        "_frames_t0",
        "_cyl_t0",
    )

    def __init__(self, scene: Scene) -> None:
        self.scene = scene
        self._centers: dict[int, np.ndarray] = {}
        self._dist: dict[int, np.ndarray] = {}
        self._frames: np.ndarray | None = None
        self._cyl: tuple | None = None
        self._frames_t0 = -1
        self._cyl_t0 = -1

    # -- per stored node ---------------------------------------------------

    def level_centers(self, level: int) -> np.ndarray:
        """Centers of every stored node at ``level``."""
        c = self._centers.get(level)
        if c is None:
            lev = self.scene.tree.levels[level]
            c = self._centers[level] = self.scene.tree.centers_of_codes(level, lev.codes)
        return c

    def level_dist(self, level: int) -> np.ndarray:
        """Pivot distance of every stored node at ``level`` (v1's formula)."""
        d = self._dist.get(level)
        if d is None:
            rel = self.level_centers(level) - self.scene.pivot
            d = self._dist[level] = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        return d

    # -- per thread of the current block ----------------------------------

    def block_frames(self, all_dirs: np.ndarray, t0: int, t1: int) -> np.ndarray:
        """Oriented tool frames for threads ``[t0, t1)`` (level-invariant)."""
        if self._frames_t0 != t0 or self._frames is None:
            from repro.geometry.frames import frame_from_axis

            self._frames = frame_from_axis(all_dirs[t0:t1])
            self._frames_t0 = t0
        return self._frames

    def block_cyl_aabbs(self, all_dirs: np.ndarray, t0: int, t1: int):
        """World AABBs of each oriented tool cylinder, per block thread.

        Returns ``(lo, hi, union_lo, union_hi)`` with shapes
        ``(B, C, 3)``/``(B, 3)`` — the per-cylinder boxes exactly as
        ``tool_aabb_cull_batch`` builds them per pair, plus their
        elementwise union.  The cylinders depend only on (pivot, dir),
        never on the node or the level, so one block computes them once.
        """
        if self._cyl_t0 != t0 or self._cyl is None:
            tool = self.scene.tool
            pivot = self.scene.pivot
            dirs = all_dirs[t0:t1]
            z0s = np.atleast_1d(np.asarray(tool.z0, dtype=np.float64))
            z1s = np.atleast_1d(np.asarray(tool.z1, dtype=np.float64))
            rads = np.atleast_1d(np.asarray(tool.radius, dtype=np.float64))
            lateral = rads[None, :, None] * np.sqrt(
                np.clip(1.0 - dirs[:, None, :] ** 2, 0.0, 1.0)
            )  # (B, C, 3)
            c0 = pivot + z0s[None, :, None] * dirs[:, None, :]
            c1 = pivot + z1s[None, :, None] * dirs[:, None, :]
            lo = np.minimum(c0, c1) - lateral
            hi = np.maximum(c0, c1) + lateral
            self._cyl = (lo, hi, lo.min(axis=1), hi.max(axis=1))
            self._cyl_t0 = t0
        return self._cyl


class LevelContext:
    """The base level of one v2 thread block, decided as a product.

    Every thread of a block starts on the same base cells
    (:func:`initial_frontier`), so the level's pairs are the full
    ``(base cell x block thread)`` product, and v2 never writes them out
    as per-pair arrays.  Panel rows are the base cells in
    ``initial_frontier`` order: stored cells first with ``idx ==
    arange``, so the level caches and ``table.level(level)`` serve them
    as they are, then the virtual cells.  Columns are the block's
    threads.  The kernels' core quantities (the CHECKICA cosine test,
    the CHECKBOX sphere screen, the optimized-PBox cull verdict) are
    evaluated on ``(U, B)`` matrices once per block, and methods decide
    rectangles of them (product waves, see :class:`Wave`).

    Every matrix element is produced by exactly the per-pair formula
    (elementwise ops and order-preserving ``einsum`` contractions), so a
    cell is bit-equal to what the reference kernel computes for its
    ``(node, thread)`` pair and outcomes and counters stay
    byte-identical to v1.  The float intermediates are evaluated over
    row blocks (:func:`_row_blocks`) straight into the bool and uint8
    matrices; a cell's formula does not depend on its block, so only
    the temporaries' size changes.
    """

    __slots__ = (
        "rt",
        "level",
        "half",
        "t0",
        "t1",
        "codes",
        "idx",
        "status",
        "n_stored",
        "_pnodes",
        "_pbounds",
        "_ica_panel",
        "_screen",
        "_cullmat",
    )

    def __init__(self, rt, level, t0, t1, codes, idx, status):
        self.rt = rt
        self.level = level
        self.half = rt.scene.tree.cell_half(level)
        self.t0 = t0
        self.t1 = t1
        self.codes = codes
        self.idx = idx
        self.status = status
        self.n_stored = rt.scene.tree.levels[level].n
        self._pnodes = None
        self._pbounds = None
        self._ica_panel = None
        self._screen = None
        self._cullmat = None

    # -- panels: (base cell x block thread) matrices ------------------------

    def _panel_nodes(self):
        """Per row node geometry: ``(centers, rel, dist)``, each (U, ...).

        Stored rows are the level caches as they are; virtual rows
        append their centers and distances by the same formulas.
        """
        if self._pnodes is None:
            rt = self.rt
            centers = rt.cache.level_centers(self.level)
            dist = rt.cache.level_dist(self.level)
            vcodes = self.codes[self.n_stored :]
            if len(vcodes):
                vcenters = rt.scene.tree.centers_of_codes(self.level, vcodes)
                vrel = vcenters - rt.scene.pivot
                centers = np.concatenate([centers, vcenters])
                dist = np.concatenate([dist, np.sqrt(np.einsum("ij,ij->i", vrel, vrel))])
            self._pnodes = (centers, centers - rt.scene.pivot, dist)
        return self._pnodes

    def _panel_bounds(self, use_memo: bool):
        """Per row CHECKICA cone bounds ``(cos1, cos2, memo_stored)``."""
        if self._pbounds is None:
            rt = self.rt
            tool = rt.scene.tool
            _, _, dist = self._panel_nodes()
            table = rt.table
            memo_stored = bool(
                use_memo and table is not None and table.has_level(self.level)
            )
            if memo_stored:
                ns = self.n_stored
                cos1, cos2 = table.level(self.level)
                if len(dist) > ns:
                    v1, v2 = checkica_bounds_cos(tool, dist[ns:], self.half)
                    cos1 = np.concatenate([cos1, v1])
                    cos2 = np.concatenate([cos2, v2])
            else:
                cos1, cos2 = checkica_bounds_cos(tool, dist, self.half)
            self._pbounds = (cos1, cos2, memo_stored)
        return self._pbounds

    def ica_outcome_panel(self, use_memo: bool, expand: bool):
        """CHECKICA outcomes per panel cell: ``(out_mat, corner_mat, memo)``.

        ``out_mat[u, t]`` is the outcome pair ``(node u, thread t)``
        would get from the reference kernel (corner cells hold
        ``OUT_EXPAND`` when ``expand``, else ``OUT_NO`` pending the box
        fallback); ``corner_mat`` marks the corner band.  Computed once
        per block; every rectangle slices it.
        """
        if self._ica_panel is None:
            rt = self.rt
            ws = rt.workspace
            _, rel, dist = self._panel_nodes()
            U = len(dist)
            B = self.t1 - self.t0
            dirs = rt.all_dirs[self.t0 : self.t1]
            cos1, cos2, memo_stored = self._panel_bounds(use_memo)
            safe = ws.take("panel.safe", U)
            np.maximum(dist, 1e-300, out=safe)
            yes = ws.take("panel.yes", (U, B), bool)
            corner = ws.take("panel.corner", (U, B), bool)
            blocks, rows = _row_blocks(U, B)
            cos_buf = ws.take("panel.cos", (rows, B))
            for rs in blocks:
                cos = cos_buf[: rs.stop - rs.start]
                np.einsum("uj,tj->ut", rel[rs], dirs, out=cos)
                np.divide(cos, safe[rs, None], out=cos)
                np.clip(cos, -1.0, 1.0, out=cos)
                cos[dist[rs] == 0.0] = 1.0
                np.greater_equal(cos, cos1[rs, None], out=yes[rs])
                # corner == ~yes & ~(cos <= cos2) (the reference's ~yes & ~no).
                np.less_equal(cos, cos2[rs, None], out=corner[rs])
            np.logical_or(corner, yes, out=corner)
            np.logical_not(corner, out=corner)
            out_mat = ws.take("panel.out", (U, B), np.uint8)
            np.multiply(yes, OUT_YES, out=out_mat)
            if expand:
                # yes and corner are disjoint: adding sets the corner cells.
                out_mat += corner * OUT_EXPAND
            self._ica_panel = (out_mat, corner, memo_stored)
        return self._ica_panel

    def box_screen_panel(self):
        """CHECKBOX sphere-screen verdicts per panel cell.

        Returns ``(hit, undecided)`` bool matrices: the inscribed/
        circumscribed-sphere screen of :func:`tool_aabb_batch` evaluated
        per (node, thread) with the reference's exact op order; only
        ``undecided`` cells still need the rotate/clip/project kernel.
        """
        if self._screen is None:
            from repro.geometry.batch import tool_point_distance_2d

            rt = self.rt
            ws = rt.workspace
            tool = rt.scene.tool
            _, rel, _ = self._panel_nodes()
            U = len(rel)
            B = self.t1 - self.t0
            dirs = rt.all_dirs[self.t0 : self.t1]
            rr = ws.take("panel.rr", U)
            np.einsum("ij,ij->i", rel, rel, out=rr)
            # The reference compares against halves3.min(axis=1) and
            # sqrt(einsum(halves3, halves3)) of the broadcast scalar
            # half; reproduce both reductions on one (1, 3) row so the
            # thresholds are the same floats.
            h3 = np.array([[self.half, self.half, self.half]])
            r_in = h3.min(axis=1)[0]
            r_circ = np.sqrt(np.einsum("ij,ij->i", h3, h3))[0]
            hit = ws.take("panel.scr_hit", (U, B), bool)
            und = ws.take("panel.scr_und", (U, B), bool)
            blocks, rows = _row_blocks(U, B)
            axial_buf = ws.take("panel.axial", (rows, B))
            radial_buf = ws.take("panel.radial", (rows, B))
            for rs in blocks:
                axial = axial_buf[: rs.stop - rs.start]
                radial = radial_buf[: rs.stop - rs.start]
                np.einsum("uj,tj->ut", rel[rs], dirs, out=axial)
                np.multiply(axial, axial, out=radial)
                np.subtract(rr[rs, None], radial, out=radial)
                np.maximum(radial, 0.0, out=radial)
                np.sqrt(radial, out=radial)
                d2d = tool_point_distance_2d(tool.z0, tool.z1, tool.radius, axial, radial)
                np.less_equal(d2d, r_in, out=hit[rs])
                np.less_equal(d2d, r_circ, out=und[rs])
            und[hit] = False
            self._screen = (hit, und)
        return self._screen

    def want_screen_panel(self, n_masked: int) -> bool:
        """Whether the CHECKBOX screen should run on the whole panel.

        Worth it when the matrix already exists (slicing is free) or the
        mask covers enough of the panel that one per-cell pass undercuts
        the per-pair pass — corner/cull masks are usually sparse, and for
        those the gathered per-pair screen wins.  Both paths produce
        bit-equal verdicts, so this is purely a routing choice.
        """
        if self._screen is not None:
            return True
        return 2 * n_masked >= len(self.codes) * (self.t1 - self.t0)

    def cull_panel(self) -> np.ndarray:
        """Optimized-PBox cull verdicts per panel cell ((U, B) bool).

        Per cell this is exactly ``tool_aabb_cull_batch``'s test against
        the block's hoisted cylinder AABBs, with the union-box pre-reject
        (exact: the union misses an axis iff every cylinder misses it).
        """
        if self._cullmat is None:
            rt = self.rt
            ws = rt.workspace
            lo, hi, ulo, uhi = self.block_cyl_aabbs()
            centers, _, _ = self._panel_nodes()
            U = len(centers)
            B = self.t1 - self.t0
            blo = ws.take("panel.blo", (U, 3))
            np.subtract(centers, self.half, out=blo)
            bhi = ws.take("panel.bhi", (U, 3))
            np.add(centers, self.half, out=bhi)
            cand = (
                (ulo[None, :, :] <= bhi[:, None, :]) & (blo[:, None, :] <= uhi[None, :, :])
            ).all(axis=-1)
            possible = ws.take("panel.possible", (U, B), bool)
            possible[:] = False
            ur, tc = np.nonzero(cand)
            if len(ur):
                possible[ur, tc] = (
                    (lo[tc] <= bhi[ur, None, :]) & (blo[ur, None, :] <= hi[tc])
                ).all(axis=-1).any(axis=-1)
            self._cullmat = possible
        return self._cullmat

    def cell_geometry(self, wave: Wave, sel: np.ndarray):
        """``(centers, dirs, frames)`` of product-wave cells ``sel`` (gathers only).

        Used by the exact CHECKBOX, whose per-pair geometry the product
        level never materializes; each gathered row is bit-equal to what
        the reference path builds for that pair.
        """
        rows, cols = np.divmod(sel, len(wave.threads))
        rows += wave.rect[0].start
        cols += wave.rect[1].start
        centers, _, _ = self._panel_nodes()
        return centers[rows], self.rt.all_dirs[self.t0 + cols], self.block_frames()[cols]

    # -- per-thread geometry (PBox / PBoxOpt hoists) -----------------------

    def block_frames(self) -> np.ndarray:
        """(B, 3, 3) oriented tool frames for this block's threads."""
        return self.rt.cache.block_frames(self.rt.all_dirs, self.t0, self.t1)

    def block_cyl_aabbs(self):
        """Per-thread cylinder AABBs ``(lo, hi, union_lo, union_hi)``."""
        return self.rt.cache.block_cyl_aabbs(self.rt.all_dirs, self.t0, self.t1)

    # -- the next level -----------------------------------------------------

    def advance(self, outcomes: np.ndarray, collides: np.ndarray):
        """The next level's frontier from the block's ``(U, B)`` outcomes.

        Collisions and growth are read straight off the matrix; only the
        grown cells of live threads are compacted, in thread-major order
        (v1's pair order), and handed to :func:`_advance`, so the next
        level receives v1's frontier array for array.
        """
        flat = np.flatnonzero(outcomes != OUT_NO)  # YES or EXPAND, row-major
        rows, cols = np.divmod(flat, outcomes.shape[1])
        out = np.take(outcomes, flat)
        status = self.status[rows]
        threads = self.t0 + cols
        collides[threads[(out == OUT_YES) & (status == STATUS_FULL)]] = True
        # v1's grow mask, restricted to nonzero outcomes.
        grow = (status == STATUS_MIXED) | (out == OUT_EXPAND)
        grow &= ~collides[threads]
        sel = np.flatnonzero(grow)
        sel = sel[np.argsort(cols[sel], kind="stable")]
        rows = rows[sel]
        wave = Wave(
            level=self.level,
            threads=threads[sel],
            codes=self.codes[rows],
            idx=self.idx[rows],
            status=status[sel],
            centers=None,
            half=self.half,
            dirs=None,
        )
        return _advance(self.rt, wave, out[sel], collides, ws_bank=(self.level + 1) & 1)


#: Cells per row block of the product level's float temporaries: the
#: CHECKICA cosines and the CHECKBOX screen's axial/radial/distance
#: matrices are evaluated a few rows at a time into the ``(U, B)`` bool
#: outputs, so each temporary stays at 2 MiB however large the panel.
_ROW_BLOCK_CELLS = 1 << 18


def _row_blocks(U: int, B: int) -> tuple[list[slice], int]:
    """Row slices covering ``U`` panel rows of ``B`` columns, and the
    rows of the largest one (the temporaries' height)."""
    rows = max(1, min(U, _ROW_BLOCK_CELLS // max(B, 1)))
    return [slice(r0, min(r0 + rows, U)) for r0 in range(0, U, rows)], rows


def _ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each c in counts: [0..c0), [0..c1), ..."""
    counts = np.asarray(counts, dtype=np.intp)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.intp) - starts


def initial_frontier(scene: Scene, start_level: int):
    """Base cells after the top-level expansion.

    Returns ``(level, codes, idx, status)`` where the cells are all
    stored nodes at ``start_level`` (first, with ``idx == arange``) plus
    the virtual leaf-ward expansion of any FULL node living above it (a
    solid region coarser than the base level still has to be visible to
    every thread).
    """
    tree = scene.tree
    L0 = min(start_level, tree.depth)
    codes = [tree.levels[L0].codes]
    idx = [np.arange(tree.levels[L0].n, dtype=np.intp)]
    status = [tree.levels[L0].status]
    for l in range(L0):
        lev = tree.levels[l]
        full = lev.status == STATUS_FULL
        if not full.any():
            continue
        shift = np.uint64(3 * (L0 - l))
        base = lev.codes[full] << shift
        n_sub = 1 << (3 * (L0 - l))
        sub = (base[:, None] + np.arange(n_sub, dtype=np.uint64)).ravel()
        codes.append(sub)
        idx.append(np.full(len(sub), -1, dtype=np.intp))
        status.append(np.full(len(sub), STATUS_FULL, dtype=np.uint8))
    return (
        L0,
        np.concatenate(codes),
        np.concatenate(idx),
        np.concatenate(status),
    )


def _advance(
    rt: Runtime, wave: Wave, outcomes: np.ndarray, collides: np.ndarray, ws_bank=None
):
    """Apply one level's outcomes; return the next level's frontier arrays.

    Marks collisions, drops pairs of collided threads, and expands the
    surviving YES-on-MIXED / EXPAND pairs (stored children for MIXED,
    virtual FULL octants for FULL interior nodes).

    ``ws_bank`` — v2 only — selects the workspace bank (the next level's
    parity) the output arrays are written into, so the advance reads the
    current level's arrays from one bank while filling the other and no
    allocation happens.  Callers that hold outputs across multiple
    advances (the voxel-mapping pricer, direct tests) pass None and get
    freshly allocated arrays, exactly as v1.
    """
    tree = rt.scene.tree
    level = wave.level

    hit = (outcomes == OUT_YES) & (wave.status == STATUS_FULL)
    if hit.any():
        collides[np.unique(wave.threads[hit])] = True

    live = ~collides[wave.threads]
    grow = ((outcomes == OUT_YES) & (wave.status == STATUS_MIXED)) | (outcomes == OUT_EXPAND)
    grow &= live
    if not grow.any() or level >= tree.depth:
        return (
            np.zeros(0, dtype=wave.threads.dtype),
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.intp),
            np.zeros(0, dtype=np.uint8),
        )

    nxt = tree.levels[level + 1]

    stored = grow & (wave.status == STATUS_MIXED)
    virtual = grow & (wave.status == STATUS_FULL)
    n_virt = 8 * int(np.count_nonzero(virtual))

    cs = cc = child_idx = None
    ns = 0
    if stored.any():
        parent_idx = wave.idx[stored]
        lev = tree.levels[level]
        cs = lev.child_start[parent_idx]
        cc = lev.child_count[parent_idx].astype(np.intp)
        child_idx = np.repeat(cs, cc) + _ranges(cc)
        ns = len(child_idx)

    total = ns + n_virt
    if ws_bank is None:
        out_threads = np.empty(total, dtype=wave.threads.dtype)
        out_codes = np.empty(total, dtype=np.uint64)
        out_idx = np.empty(total, dtype=np.intp)
        out_status = np.empty(total, dtype=np.uint8)
    else:
        ws = rt.workspace
        out_threads = ws.take(f"frontier.threads.{ws_bank}", total, wave.threads.dtype)
        out_codes = ws.take(f"frontier.codes.{ws_bank}", total, np.uint64)
        out_idx = ws.take(f"frontier.idx.{ws_bank}", total, np.intp)
        out_status = ws.take(f"frontier.status.{ws_bank}", total, np.uint8)

    if ns:
        out_threads[:ns] = np.repeat(wave.threads[stored], cc)
        out_codes[:ns] = nxt.codes[child_idx]
        out_idx[:ns] = child_idx
        out_status[:ns] = nxt.status[child_idx]

    if n_virt:
        base = wave.codes[virtual] << np.uint64(3)
        np.add(
            base[:, None],
            np.arange(8, dtype=np.uint64),
            out=out_codes[ns:].reshape(-1, 8),
        )
        out_threads[ns:].reshape(-1, 8)[:] = wave.threads[virtual][:, None]
        out_idx[ns:] = -1
        out_status[ns:] = STATUS_FULL

    return out_threads, out_codes, out_idx, out_status


def _subwave(wave: Wave, a: int, b: int) -> Wave:
    """The ``[a:b)`` slice of a pair wave's arrays (views, no copies)."""
    return Wave(
        level=wave.level,
        threads=wave.threads[a:b],
        codes=wave.codes[a:b],
        idx=wave.idx[a:b],
        status=wave.status[a:b],
        centers=wave.centers[a:b],
        half=wave.half,
        dirs=wave.dirs[a:b],
    )


def _decide_pure(rt: Runtime, method, wave: Wave, check: bool) -> np.ndarray:
    """``method.decide(rt, wave)``; with ``check``, asserts counter purity.

    **Counter purity.**  The byte-identity of chunked and unchunked runs
    (and of the engines, and of any worker sharding) rests on a single
    invariant: *a decide() call charges counters for exactly the pairs
    of the wave it was handed* — never for other threads, never more
    than once per pair, never keyed off level-global state.  A method
    that, say, charged every thread of the block per call would pass
    unchunked runs and silently drift under chunking.  When chunking is
    active (and Python is not running with ``-O``), that invariant is
    asserted per call: counters of every thread outside the wave's
    threads (a product wave's columns) must not move across it.
    """
    if not (check and __debug__):
        return method.decide(rt, wave)
    counters = rt.counters
    outside = np.ones(counters.n_threads, dtype=bool)
    outside[wave.threads] = False

    def charged():
        return [int(getattr(counters, f)[outside].sum()) for f in ThreadCounters.COUNTER_FIELDS]

    before = charged()
    outcomes = method.decide(rt, wave)
    assert charged() == before, (
        f"{method.name}.decide charged counters outside its sub-wave "
        f"({wave.size} pairs at level {wave.level}); chunked and unchunked "
        "runs would diverge"
    )
    return outcomes


def _decide_chunked(rt: Runtime, method, wave: Wave) -> np.ndarray:
    """``method.decide`` with a pair wave split into <= max_pairs chunks.

    Every decision kernel is per-pair pure and charges counters per pair
    (see :func:`_decide_pure`), so splitting a level's pair arrays
    changes neither outcomes nor counters — only the peak size of the
    kernel's temporaries.
    """
    cap = int(rt.config.max_pairs)
    if cap <= 0 or wave.size <= cap:
        return method.decide(rt, wave)
    outcomes = np.empty(wave.size, dtype=np.uint8)
    for a in range(0, wave.size, cap):
        b = min(a + cap, wave.size)
        outcomes[a:b] = _decide_pure(rt, method, _subwave(wave, a, b), True)
    return outcomes


def _decide_product(rt: Runtime, method, ctx: LevelContext) -> np.ndarray:
    """``method.decide`` over ``ctx``'s panels in <= max_pairs rectangles.

    A rectangle is whole rows of all ``B`` columns when a row fits in
    ``max_pairs``, else a run of columns within one row.  Returns the
    ``(U, B)`` outcome matrix; purity is asserted per rectangle as per
    chunk in :func:`_decide_chunked`.
    """
    U, B = len(ctx.codes), ctx.t1 - ctx.t0
    cap = int(rt.config.max_pairs)
    if cap <= 0:
        cap = U * B
    cols = min(B, cap)
    rows = min(U, cap // cols)
    chunked = rows * cols < U * B
    outcomes = rt.workspace.take("product.outcomes", (U, B), np.uint8)
    for r0 in range(0, U, rows):
        rs = slice(r0, min(r0 + rows, U))
        for c0 in range(0, B, cols):
            cs = slice(c0, min(c0 + cols, B))
            wave = Wave(
                level=ctx.level,
                threads=np.arange(ctx.t0 + cs.start, ctx.t0 + cs.stop, dtype=np.intp),
                codes=ctx.codes[rs],
                idx=ctx.idx[rs],
                status=ctx.status[rs],
                centers=None,
                half=ctx.half,
                dirs=None,
                ctx=ctx,
                rect=(rs, cs),
            )
            out = _decide_pure(rt, method, wave, chunked)
            outcomes[rs, cs] = out.reshape(rs.stop - rs.start, cs.stop - cs.start)
    return outcomes


def _traverse_range(
    rt: Runtime,
    method,
    L0: int,
    base_codes: np.ndarray,
    base_idx: np.ndarray,
    base_status: np.ndarray,
    collides: np.ndarray,
    t_start: int,
    t_end: int,
    progress=None,
) -> None:
    """Run the frontier traversal for threads ``[t_start, t_end)``.

    Mutates ``collides`` and ``rt.counters`` for exactly those threads;
    threads are independent (a thread's pairs never read another
    thread's state), so any partition of ``[0, M)`` into ranges produces
    the same totals — the property the worker pool relies on.

    Under v2 each block's base level is decided as a product
    (:class:`LevelContext`); every other level runs the v1 kernels on
    pair arrays.

    ``progress`` — when given — is called with ``(t0=..., t1=...)``
    after each completed thread-block (the serial path's heartbeat).
    """
    tracer = get_tracer()
    tree = rt.scene.tree
    counters = rt.counters
    M = counters.n_threads
    v2 = rt.engine == "v2"
    n0 = len(base_codes)
    for t0 in range(t_start, t_end, rt.config.thread_block):
        t1 = min(t0 + rt.config.thread_block, t_end)
        B = t1 - t0
        level = L0
        if v2 and n0:
            with tracer.span("cd.level", level=L0, pairs=n0 * B) as lsp:
                if tracer.enabled:
                    lsp.set(panel=True, unique_nodes=n0, dedup_ratio=float(B))
                ctx = LevelContext(rt, L0, t0, t1, base_codes, base_idx, base_status)
                counters.nodes_visited[t0:t1] += n0
                outcomes = _decide_product(rt, method, ctx)
                threads, codes, idx, status = ctx.advance(outcomes, collides)
            level += 1
        else:
            block = np.arange(t0, t1, dtype=np.intp)
            threads = np.repeat(block, n0)
            codes = np.tile(base_codes, B)
            idx = np.tile(base_idx, B)
            status = np.tile(base_status, B)

        while len(threads) and level <= tree.depth:
            with tracer.span("cd.level", level=level, pairs=len(threads)) as lsp:
                if v2 and tracer.enabled:
                    lsp.set(panel=False)
                wave = Wave(
                    level=level,
                    threads=threads,
                    codes=codes,
                    idx=idx,
                    status=status,
                    centers=tree.centers_of_codes(level, codes),
                    half=tree.cell_half(level),
                    dirs=rt.all_dirs[threads],
                )
                counters.add_threads("nodes_visited", threads, M)
                outcomes = _decide_chunked(rt, method, wave)
                threads, codes, idx, status = _advance(
                    rt, wave, outcomes, collides,
                    ws_bank=(level + 1) & 1 if v2 else None,
                )
            level += 1
        if progress is not None:
            progress(t0=t0, t1=t1)


def _export_run_metrics(
    counters: ThreadCounters,
    table_entries: int,
    cd_s: float,
    pre_s: float,
    wall: float,
) -> None:
    """One CD run's contribution to the ambient metrics registry.

    Shared by the serial path and the pool's parent-side merge so that a
    parallel run exports exactly the counts a serial run would.
    """
    metrics = get_metrics()
    counters.export(metrics, prefix="cd")
    metrics.counter("cd.runs").inc()
    metrics.counter("cd.table_entries").inc(table_entries)
    metrics.counter("cd.sim_cd_s").inc(cd_s)
    metrics.counter("cd.sim_precompute_s").inc(pre_s)
    metrics.counter("cd.wall_s").inc(wall)


def _finalize_run(
    scene: Scene,
    grid: OrientationGrid,
    method,
    *,
    device: DeviceSpec,
    costs: CostModel,
    config: TraversalConfig,
    collides: np.ndarray,
    counters: ThreadCounters,
    table_entries: int,
    run_sp,
    t_wall0: float,
) -> CDResult:
    """SIMT simulation + metrics export + result assembly for one run.

    Runs once per CD run on the (possibly merged) counters, whether the
    traversal executed serially or across a worker pool.
    """
    wall = time.perf_counter() - t_wall0
    cd_s = simulate_kernel(counters.thread_ops(costs), device)
    pre_s = (
        simulate_stage(costs.ica_precompute(scene.n_cylinders), table_entries, device)
        if table_entries
        else 0.0
    )
    run_sp.set(
        colliding=int(collides.sum()),
        total_checks=counters.total_checks,
        table_entries=table_entries,
        sim_cd_s=cd_s,
        sim_precompute_s=pre_s,
    )
    _export_run_metrics(counters, table_entries, cd_s, pre_s, wall)
    return CDResult(
        method=method.name,
        grid=grid,
        collides=collides,
        counters=counters,
        timing=StageBreakdown(ica_precompute_s=pre_s, cd_tests_s=cd_s, wall_s=wall),
        device_name=device.name,
        table_entries=table_entries,
        config=config,
    )


def _check_table(table: IcaTable, scene: Scene, config: TraversalConfig) -> None:
    """Reject a precomputed table that was built for a different problem.

    A mismatched pivot, tool or tree changes the map (a table fills its
    rows from its own tree, tool and pivot); a mismatched ``S`` changes
    the memo/fly counter split — each would silently break the
    byte-for-byte equivalence the caller is promised, so all are hard
    errors.  A tree passes when it is the scene's own object or has the
    same domain and codes on every memoized level.
    """
    if not np.array_equal(table.pivot, scene.pivot):
        raise ValueError(
            f"precomputed ICA table pivot {table.pivot.tolist()} "
            f"does not match scene pivot {scene.pivot.tolist()}"
        )
    for name in ("z0", "z1", "radius"):
        if not np.array_equal(getattr(table.tool, name), getattr(scene.tool, name)):
            raise ValueError(
                f"precomputed ICA table tool {name} "
                f"{getattr(table.tool, name).tolist()} does not match scene "
                f"tool {name} {getattr(scene.tool, name).tolist()}"
            )
    expect = int(min(config.memo_levels, scene.tree.depth + 1))
    if table.levels != expect:
        raise ValueError(
            f"precomputed ICA table has S={table.levels}, "
            f"but this run needs S={expect} (config.memo_levels={config.memo_levels})"
        )
    tree, own = scene.tree, table.tree
    if own is not tree and not (
        np.array_equal(own.domain.lo, tree.domain.lo)
        and np.array_equal(own.domain.hi, tree.domain.hi)
        and all(
            np.array_equal(own.levels[l].codes, tree.levels[l].codes)
            for l in range(table.levels)
        )
    ):
        raise ValueError(
            "precomputed ICA table tree does not match the scene tree "
            f"(domain or codes differ on the {table.levels} memoized levels)"
        )


def run_cd(
    scene: Scene,
    grid: OrientationGrid,
    method,
    *,
    device: DeviceSpec = GTX_1080_TI,
    costs: CostModel = DEFAULT_COSTS,
    config: TraversalConfig = TraversalConfig(),
    workers: int | None = None,
    table: IcaTable | None = None,
    shared=None,
) -> CDResult:
    """Generate the accessibility map for ``scene`` with ``method``.

    ``method`` is one of the classes in :mod:`repro.cd.methods`.  Returns
    a :class:`CDResult` whose counters and timing cover both traversal
    stages (the ICA precompute, when the method uses one, and the CD
    tests).

    ``workers`` overrides ``config.workers`` (which itself defaults to
    the ``REPRO_WORKERS`` environment variable, then 1).  With ``N > 1``
    the orientation thread-blocks are sharded over ``N`` processes by
    :mod:`repro.engine.pool`; the map and counters are byte-identical to
    the serial path for every method.

    Table methods read a demand-filled stage-1 ICA table
    (:func:`~repro.ica.table.build_ica_table`): the traversal computes
    only the rows it reads, while the simulated stage 1 is charged for
    every row (``table_entries``).  ``table`` is an optional table for
    exactly this (scene, ``config.memo_levels``) — e.g. one a scene
    registry shares across queries, whose filled rows later runs reuse —
    validated against the scene's pivot, tool, tree and ``S`` before
    use.  ``shared`` is an optional prebuilt
    :class:`repro.engine.pool.SharedScene` tree arena consulted only by
    the parallel path; the caller keeps ownership.  Both leave results
    byte-identical; they only skip redundant setup.
    """
    from dataclasses import replace

    from repro.engine.pool import resolve_workers, run_cd_parallel

    if table is not None and getattr(method, "needs_table", False):
        _check_table(table, scene, config)
    engine = resolve_engine(config.engine)
    if config.engine != engine:
        # Pin the resolved engine into the config so pool workers (which
        # may not share this process's environment) inherit it.
        config = replace(config, engine=engine)
    n_workers = resolve_workers(workers if workers is not None else config.workers)
    if n_workers > 1 and grid.size > 1:
        return run_cd_parallel(
            scene, grid, method,
            device=device, costs=costs, config=config, workers=n_workers,
            table=table, shared=shared,
        )

    t_wall0 = time.perf_counter()
    tracer = get_tracer()
    M = grid.size
    counters = ThreadCounters(n_threads=M, n_cyl=scene.n_cylinders)
    rt = Runtime(scene=scene, grid=grid, counters=counters, costs=costs, config=config)
    ws_before = rt.workspace.stats() if rt.workspace is not None else None

    with tracer.span("cd.run", method=method.name, orientations=M) as run_sp:
        table_entries = 0
        if getattr(method, "needs_table", False):
            rt.table = (
                table
                if table is not None
                else build_ica_table(
                    scene.tree, scene.tool, scene.pivot, levels=config.memo_levels
                )
            )
            table_entries = rt.table.n_entries

        L0, base_codes, base_idx, base_status = initial_frontier(scene, config.start_level)
        collides = np.zeros(M, dtype=bool)

        if progress_enabled():
            n_blocks = -(-M // config.thread_block)
            heartbeat = Heartbeat(n_blocks, "block")
            progress = heartbeat.tick
        else:
            progress = None
        with tracer.span("cd.traversal", start_level=L0):
            _traverse_range(
                rt, method, L0, base_codes, base_idx, base_status, collides, 0, M,
                progress=progress,
            )

        if rt.workspace is not None:
            from repro.engine.workspace import export_workspace_metrics

            export_workspace_metrics(
                get_metrics(), rt.workspace.stats_since(ws_before)
            )

        return _finalize_run(
            scene, grid, method,
            device=device, costs=costs, config=config,
            collides=collides, counters=counters, table_entries=table_entries,
            run_sp=run_sp, t_wall0=t_wall0,
        )

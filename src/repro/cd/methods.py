"""The five CD methods' per-wave decision kernels.

Each method implements ``decide(rt, wave) -> outcomes`` classifying every
live (thread, node) pair of a frontier wave as ``OUT_NO`` / ``OUT_YES``
/ ``OUT_EXPAND`` (see :mod:`repro.cd.traversal`).  All methods are
*exact*: the ICA-based ones resolve every inconclusive pair, either with
the exact ``CHECKBOX`` fallback or (AICA) by expanding the voxel and
deciding the children — so all five produce identical accessibility
maps, which the integration tests assert.

Costs are charged to the per-thread counters as the paper counts them:
one ``ica_fly`` event covers the whole two-sphere ``CHECKICA``
(``10*N_c + 3`` ops), one ``ica_memo`` event the memoized variant
(3 ops), one ``box`` event a full ``CHECKBOX`` (``216*N_c``), one
``cull`` event the optimized-PBox AABB pre-test.
"""

from __future__ import annotations

import numpy as np

from repro.cd.traversal import OUT_EXPAND, OUT_NO, OUT_YES, Runtime, Wave
from repro.geometry.batch import tool_aabb_batch, tool_aabb_cull_batch
from repro.ica.cone import checkica_bounds_cos

__all__ = ["PBox", "PBoxOpt", "PICA", "MICA", "AICA", "METHODS", "method_by_name"]


def _box_check(rt: Runtime, wave: Wave, mask: np.ndarray) -> np.ndarray:
    """Exact whole-tool CHECKBOX on the masked pairs; returns (size,) bool
    (False outside the mask) and charges one box check per tested pair.

    On a product wave (``wave.ctx`` set) the per-pair geometry is
    gathered from the panel rows and the block's per-thread frame cache
    instead of being rebuilt inside the kernel — the frame depends only
    on the thread's direction, and
    :func:`repro.geometry.frames.frame_from_axis` is elementwise per
    row, so gathered frames are bit-equal to recomputed ones and the
    kernel's verdicts are unchanged.
    """
    out = np.zeros(wave.size, dtype=bool)
    n_masked = np.count_nonzero(mask)
    if not n_masked:
        return out
    tool = rt.scene.tool
    ctx = wave.ctx
    screen = True
    frames = None
    if ctx is None:
        sel = np.flatnonzero(mask)
        centers, dirs = wave.centers[sel], wave.dirs[sel]
    else:
        if ctx.want_screen_panel(n_masked):
            # Dense mask: the sphere screen is evaluated per (node,
            # thread) cell once for the whole block; the rectangle slices
            # its verdicts and only the undecided band runs the exact
            # rotate/clip/project kernel.
            scr_hit, scr_und = ctx.box_screen_panel()
            np.logical_and(scr_hit[wave.rect].ravel(), mask, out=out)
            sel = np.flatnonzero(scr_und[wave.rect].ravel() & mask)
            screen = False
        else:
            # A sparse mask (corner fallback, cull survivors) skips the
            # panel: the masked cells' gathered geometry runs the
            # reference per-pair kernel, screen included — the same rows
            # through the same code.
            sel = np.flatnonzero(mask)
        centers, dirs, frames = ctx.cell_geometry(wave, sel)
    if len(sel):
        out[sel] = tool_aabb_batch(
            rt.scene.pivot,
            dirs,
            centers,
            wave.half,
            tool.z0,
            tool.z1,
            tool.radius,
            screen=screen,
            frames=frames,
        )
    wave.charge(rt.counters, "box_checks", mask)
    return out


class PBox:
    """Baseline: exact CHECKBOX at every visited node (Figure 4)."""

    name = "PBox"
    needs_table = False

    def decide(self, rt: Runtime, wave: Wave) -> np.ndarray:
        hit = _box_check(rt, wave, np.ones(wave.size, dtype=bool))
        return np.where(hit, OUT_YES, OUT_NO)


class PBoxOpt:
    """Optimized PBox: AABB cull after rotation, then exact CHECKBOX.

    The cull builds the world AABB of each oriented tool cylinder and
    tests it against the voxel; a miss proves no intersection, a hit
    still requires the exact test.  This is conservative-sound, so the
    result is identical to PBox — just cheaper on the (many) far-away
    nodes.
    """

    name = "PBoxOpt"
    needs_table = False

    def decide(self, rt: Runtime, wave: Wave) -> np.ndarray:
        tool = rt.scene.tool
        if wave.ctx is None:
            possible = tool_aabb_cull_batch(
                rt.scene.pivot,
                wave.dirs,
                wave.centers,
                wave.half,
                tool.z0,
                tool.z1,
                tool.radius,
            )
        else:
            # Product wave: the rectangle of the block's cull panel.
            possible = wave.ctx.cull_panel()[wave.rect].ravel()
        wave.charge(rt.counters, "cull_checks")
        hit = _box_check(rt, wave, possible)
        return np.where(hit, OUT_YES, OUT_NO)


class _IcaBase:
    """Shared CHECKICA logic (Algorithm 1) for PICA / MICA / AICA.

    Subclasses set ``use_memo`` (gather stage-1 table values when
    available) and ``expand_corners`` (AICA's Section 4.3 optimization).
    """

    use_memo = False
    expand_corners = False
    needs_table = False

    def decide(self, rt: Runtime, wave: Wave) -> np.ndarray:
        expand = self.expand_corners and wave.level < rt.scene.tree.depth
        if wave.ctx is None:
            outcomes, corner, memo = self._classify_ref(rt, wave, expand)
        else:
            # Product wave: slice the block's CHECKICA panel, whose
            # ``rel . dir`` einsum accumulates over the coordinate axis in
            # the per-pair order, so cells are bit-equal to the reference.
            # Memo vs fly is a property of the row (stored or virtual).
            out_mat, corner_mat, memo_stored = wave.ctx.ica_outcome_panel(
                self.use_memo, expand
            )
            outcomes = out_mat[wave.rect].flatten()
            corner = corner_mat[wave.rect].ravel()
            memo = wave.idx >= 0 if memo_stored else np.zeros(len(wave.idx), dtype=bool)
        wave.charge(rt.counters, "ica_memo_checks", memo)
        wave.charge(rt.counters, "ica_fly_checks", ~memo)
        wave.charge(rt.counters, "corner_cases", corner)
        if not expand and corner.any():
            hit = _box_check(rt, wave, corner)
            outcomes[corner & hit] = OUT_YES
        return outcomes

    def _classify_ref(self, rt: Runtime, wave: Wave, expand: bool):
        """The v1 reference kernel: ``(outcomes, corner, memo)`` per pair."""
        scene = rt.scene

        rel = wave.centers - scene.pivot
        dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        safe = np.maximum(dist, 1e-300)
        # Compare in cosine space throughout: theta <= ica  <=>  cos_angle
        # >= cos(ica), and the dot product gives the cosine for free.
        cos_angle = np.clip(np.einsum("ij,ij->i", wave.dirs, rel) / safe, -1.0, 1.0)
        cos_angle = np.where(dist == 0.0, 1.0, cos_angle)

        cos1 = np.empty(wave.size)
        cos2 = np.empty(wave.size)

        memo = np.zeros(wave.size, dtype=bool)
        if self.use_memo and rt.table is not None and rt.table.has_level(wave.level):
            memo = wave.idx >= 0
        if memo.any():
            cos1[memo], cos2[memo] = rt.table.lookup(wave.level, wave.idx[memo])
        fly = ~memo
        if fly.any():
            # The cone bounds depend only on (node center distance, cell
            # size), not on the thread, so compute once per unique node and
            # gather — a wall-clock dedup only; the simulated cost stays
            # per-pair (each GPU thread of PICA really does recompute its
            # own ICA, which is exactly the redundancy MICA's table removes).
            uniq, inverse = np.unique(wave.codes[fly], return_inverse=True)
            first = np.zeros(len(uniq), dtype=np.intp)
            first[inverse[::-1]] = np.nonzero(fly)[0][::-1]
            lo, hi = checkica_bounds_cos(scene.tool, dist[first], wave.half)
            cos1[fly] = lo[inverse]
            cos2[fly] = hi[inverse]

        yes = cos_angle >= cos1
        corner = ~yes & ~(cos_angle <= cos2)
        outcomes = np.full(wave.size, OUT_NO, dtype=np.uint8)
        outcomes[yes] = OUT_YES
        if expand:
            outcomes[corner] = OUT_EXPAND
        return outcomes, corner, memo


class PICA(_IcaBase):
    """CHECKICA with on-the-fly cone angles; CHECKBOX fallback on corners."""

    name = "PICA"


class MICA(_IcaBase):
    """PICA plus the stage-1 memoized ICA table for the top ``S`` levels."""

    name = "MICA"
    use_memo = True
    needs_table = True


class AICA(_IcaBase):
    """MICA plus corner-case expansion (the paper's full method).

    An inconclusive voxel above leaf level is subdivided and CHECKICA is
    applied to its children instead of paying a 216-op CHECKBOX; only
    leaf-level corner cases still fall back to the exact test.
    """

    name = "AICA"
    use_memo = True
    needs_table = True
    expand_corners = True


METHODS: tuple = (PBox, PBoxOpt, PICA, MICA, AICA)


def method_by_name(name: str):
    """Instantiate a method by its paper name (case-insensitive)."""
    for cls in METHODS:
        if cls.name.lower() == name.lower():
            return cls()
    raise KeyError(f"unknown CD method {name!r}; choose from {[c.name for c in METHODS]}")

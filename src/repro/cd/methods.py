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
    """Exact whole-tool CHECKBOX on the masked pairs; returns (F,) bool
    (False outside the mask) and charges one box check per tested pair.

    On a panel level (``wave.ctx`` set) the per-pair geometry is gathered
    from the level's panel rows and the block's per-thread frame cache
    instead of being rebuilt inside the kernel — the frame depends only
    on the thread's direction, and
    :func:`repro.geometry.frames.frame_from_axis` is elementwise per row,
    so gathered frames are bit-equal to recomputed ones and the kernel's
    verdicts are unchanged.
    """
    out = np.zeros(wave.size, dtype=bool)
    if not mask.any():
        return out
    tool = rt.scene.tool
    ctx = wave.ctx
    if ctx is None:
        out[mask] = tool_aabb_batch(
            rt.scene.pivot,
            wave.dirs[mask],
            wave.centers[mask],
            wave.half,
            tool.z0,
            tool.z1,
            tool.radius,
        )
    else:
        sel = np.flatnonzero(mask)
        screen = True
        if ctx.want_screen_panel(len(sel)):
            # Dense mask: the sphere screen is evaluated per (node,
            # thread) cell once for the whole level; each masked pair
            # gathers its verdict and only the undecided band runs the
            # exact rotate/clip/project kernel (on gathered geometry).
            scr_hit, scr_und = ctx.box_screen_panel()
            flat = ctx.pair_flat()[wave.offset : wave.offset + wave.size]
            np.take(scr_hit.reshape(-1), flat, out=out)
            out &= mask
            und = np.take(scr_und.reshape(-1), flat)
            und &= mask
            sel = np.flatnonzero(und)
            screen = False
        # A sparse mask (corner fallback, cull survivors) skips the panel:
        # the masked pairs' gathered geometry runs the reference per-pair
        # kernel, screen included — the same rows through the same code.
        if len(sel):
            centers, dirs, frames = ctx.pair_geometry_subset(wave, sel)
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
    rt.counters.add_threads("box_checks", wave.threads[mask], rt.counters.n_threads)
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
        ctx = wave.ctx
        if ctx is None:
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
            # Panel mode: one cull verdict per (unique node, block thread)
            # cell; every pair of the wave gathers its cell.
            flat = ctx.pair_flat()[wave.offset : wave.offset + wave.size]
            possible = np.take(ctx.cull_panel().reshape(-1), flat)
        rt.counters.add_threads("cull_checks", wave.threads, rt.counters.n_threads)
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
        if wave.ctx is not None:
            return self._decide_panel(rt, wave)
        return self._decide_ref(rt, wave)

    def _decide_ref(self, rt: Runtime, wave: Wave) -> np.ndarray:
        """The v1 reference kernel: everything computed per (sub-)wave."""
        scene = rt.scene
        n_threads = rt.counters.n_threads

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
            rt.counters.add_threads("ica_memo_checks", wave.threads[memo], n_threads)
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
            rt.counters.add_threads("ica_fly_checks", wave.threads[fly], n_threads)

        yes = cos_angle >= cos1
        no = ~yes & (cos_angle <= cos2)
        corner = ~yes & ~no
        if corner.any():
            rt.counters.add_threads("corner_cases", wave.threads[corner], n_threads)

        outcomes = np.full(wave.size, OUT_NO, dtype=np.uint8)
        outcomes[yes] = OUT_YES

        if self.expand_corners and wave.level < scene.tree.depth:
            outcomes[corner] = OUT_EXPAND
        elif corner.any():
            hit = _box_check(rt, wave, corner)
            outcomes[corner & hit] = OUT_YES
        return outcomes

    def _decide_panel(self, rt: Runtime, wave: Wave) -> np.ndarray:
        """The panel kernel: the full (unique node x block thread) CHECKICA
        matrix is evaluated once per level and every pair gathers its cell.

        The panel einsum accumulates ``rel . dir`` over the coordinate
        axis in the same order as the per-pair einsum, so the gathered
        cosines — and therefore outcomes — are bit-equal to
        :meth:`_decide_ref`.  Counters are charged with the same per-pair
        masks in the same order (memo, fly, corner, box).
        """
        ctx = wave.ctx
        n = wave.size
        sl = slice(wave.offset, wave.offset + n)
        out_mat, corner_mat, memo_stored = ctx.ica_outcome_panel(
            self.use_memo, self.expand_corners
        )
        flat = ctx.pair_flat()[sl]
        outcomes = np.take(out_mat.reshape(-1), flat)
        corner = np.take(corner_mat.reshape(-1), flat)

        n_threads = rt.counters.n_threads
        if memo_stored:
            memo = wave.idx >= 0
        else:
            memo = np.zeros(n, dtype=bool)
        if memo.any():
            rt.counters.add_threads("ica_memo_checks", wave.threads[memo], n_threads)
        fly = ~memo
        if fly.any():
            rt.counters.add_threads("ica_fly_checks", wave.threads[fly], n_threads)
        if corner.any():
            rt.counters.add_threads("corner_cases", wave.threads[corner], n_threads)

        if self.expand_corners and wave.level < rt.scene.tree.depth:
            pass  # corners are already OUT_EXPAND in the panel
        elif corner.any():
            hit = _box_check(rt, wave, corner)
            outcomes[corner & hit] = OUT_YES
        return outcomes


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

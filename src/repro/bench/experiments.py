"""One generator per table/figure of the paper (plus ablations).

Every function returns an :class:`ExperimentResult` whose rows hold the
measured data and whose ``paper`` dict carries the published values for
side-by-side comparison.  All functions take the scale preset (falling
back to :func:`repro.bench.config.current_scale`) so the same code runs
the tests' smoke sizes and the full bench sizes.

Index (see DESIGN.md §5):

========  ==========================================================
table1    benchmark statistics (triangles, octree voxels, path points)
table2    the simulated device presets
fig05     baseline PBox time vs object resolution / vs map resolution
fig09     theoretical + empirical ICA efficiency
fig13     octree nodes vs critical-thread checks
fig14     load imbalance & the parallel ICA precompute, both devices
fig15     corner-case optimization: box-check %, check increase
fig16     all five methods vs object resolution
fig17     all five methods vs map resolution
fig18     time breakdown vs the precompute depth S
fig19     time breakdown vs object resolution (AICA)
boxica    Section 6: ICA bounds for box volumes via 2 cylinders
ablation_costs / ablation_warp / ablation_start_level: design choices
========  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.config import BenchScale, current_scale
from repro.bench.paper import PAPER
from repro.bench.render import render_table
from repro.bench.runner import (
    Workload,
    build_workload,
    cached_raw_tree,
    run_workload,
)
from repro.cd import AICA, MICA, PBox, PBoxOpt, PICA
from repro.cd.traversal import TraversalConfig
from repro.engine.costs import DEFAULT_COSTS
from repro.engine.device import DEVICES, GTX_1080, GTX_1080_TI, scaled_device
from repro.geometry.orientation import OrientationGrid
from repro.ica.boxica import box_corner_fraction
from repro.ica.efficiency import theoretical_efficiency
from repro.octree.stats import octree_stats
from repro.solids.models import benchmark_models

__all__ = [
    "ExperimentResult",
    "table1",
    "table2",
    "fig05",
    "fig09",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "boxica",
    "am_overlap",
    "ablation_bvh",
    "ablation_costs",
    "ablation_mapping",
    "ablation_warp",
    "ablation_start_level",
    "wallclock",
    "ALL_EXPERIMENTS",
]

_METHOD_ORDER = (PBox, PBoxOpt, PICA, MICA, AICA)


@dataclass
class ExperimentResult:
    """Measured rows plus the paper's expectations for one experiment."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list]
    paper: dict = field(default_factory=dict)
    notes: str = ""
    extras: dict = field(default_factory=dict)

    def render(self) -> str:
        note = self.notes
        if self.paper:
            shape = self.paper.get("shape")
            if shape:
                lines = shape if isinstance(shape, list) else [shape]
                note = (note + "\n" if note else "") + "paper: " + "; ".join(lines)
        return render_table(f"[{self.exp_id}] {self.title}", self.headers, self.rows, note)


def _grid(l: int) -> OrientationGrid:
    return OrientationGrid.square(l)


def _methods(scale: BenchScale):
    order = _METHOD_ORDER if scale.heavy_methods else (PICA, MICA, AICA)
    return [cls() for cls in order]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1(scale: BenchScale | None = None) -> ExperimentResult:
    """Table 1: geometric statistics of the benchmarks, paper vs measured."""
    scale = scale or current_scale()
    rows = []
    for model in benchmark_models():
        path_paper = model.paper["path_points_k"]
        vox_paper = model.paper["voxels_m"]
        for res in scale.resolutions:
            tree = cached_raw_tree(model, res)
            stats = octree_stats(tree)
            wl = build_workload(model, res, n_pivots=1)
            rows.append(
                [
                    model.name,
                    f"{res}^3",
                    stats["total_nodes"],
                    vox_paper.get(res, None) and vox_paper[res] * 1e6,
                    stats["layers"],
                    model.paper["layers"].get(res),
                    len(wl.path),
                    path_paper.get(res, None) and path_paper[res] * 1e3,
                    round(stats["solid_volume"], 0),
                ]
            )
    return ExperimentResult(
        exp_id="table1",
        title="Benchmark statistics (measured vs paper where resolutions overlap)",
        headers=[
            "model",
            "resolution",
            "octree nodes",
            "paper nodes",
            "layers",
            "paper layers",
            "path points",
            "paper path pts",
            "solid volume mm^3",
        ],
        rows=rows,
        paper=PAPER["table1"],
        notes="Models are procedural analogues; paper columns apply to the "
        "original meshes and are shown only at the paper's resolutions.",
    )


def table2(scale: BenchScale | None = None) -> ExperimentResult:
    """Table 2: the two simulated platforms."""
    rows = [
        [d.name, d.cuda_cores, d.clock_ghz, d.warp_size, d.warp_slots, d.memory_gb]
        for d in DEVICES.values()
    ]
    return ExperimentResult(
        exp_id="table2",
        title="Simulated SIMT platforms (paper's Table 2 GPUs)",
        headers=["device", "cores", "clock GHz", "warp", "warp slots", "mem GB"],
        rows=rows,
        paper=PAPER["table2"],
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def fig05(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 5: baseline (PBox) scaling in object and map resolution."""
    scale = scale or current_scale()
    device = scaled_device(GTX_1080_TI, scale.device_divisor)
    rows = []
    for res in scale.resolutions:
        wl = build_workload("head", res, n_pivots=scale.n_pivots)
        s = run_workload(wl, PBox(), _grid(scale.default_map), device=device)
        rows.append(["object sweep", f"{res}^3", f"{scale.default_map}^2", s["sim_total_ms"]])
    for l in scale.map_sizes:
        wl = build_workload("head", scale.default_resolution, n_pivots=scale.n_pivots)
        s = run_workload(wl, PBox(), _grid(l), device=device)
        rows.append(
            ["map sweep", f"{scale.default_resolution}^3", f"{l}^2", s["sim_total_ms"]]
        )
    return ExperimentResult(
        exp_id="fig05",
        title=f"Baseline PBox scaling (head model, device {device.name})",
        headers=["sweep", "object res", "map res", "sim time ms"],
        rows=rows,
        paper=PAPER["fig05"],
        notes="Expect sublinear growth down the object sweep and flat-then-"
        "linear growth down the map sweep (flat while threads <= cores).",
    )


def fig09(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 9: theoretical ICA efficiency, checked against measured rates."""
    scale = scale or current_scale()
    rows = []
    for x in (0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.4):
        rows.append(["theory", x, float(theoretical_efficiency(x)) * 100.0])
    # Empirical counterpart: corner-case rate of MICA falls with resolution.
    for res in scale.resolutions:
        wl = build_workload("head", res, n_pivots=scale.n_pivots)
        s = run_workload(wl, MICA(), _grid(scale.default_map))
        # A representative r/dist for this resolution: leaf half-edge over
        # the mean pivot-to-center distance.
        r_over_d = (wl.model.cell_size(res) / 2.0) / float(
            np.mean(np.linalg.norm(wl.pivots, axis=1) + 1e-9) or 1.0
        )
        rows.append([f"measured {res}^3", round(r_over_d, 5), s["ica_efficiency"] * 100.0])
    return ExperimentResult(
        exp_id="fig09",
        title="ICA efficiency: theory vs measured corner-case rates",
        headers=["series", "r/dist", "efficiency %"],
        rows=rows,
        paper=PAPER["fig09"],
        notes="Measured efficiency counts every CHECKICA that avoided a "
        "CHECKBOX; higher resolutions (smaller voxels) are more efficient.",
    )


def fig13(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 13: total octree nodes vs checks on the critical thread."""
    scale = scale or current_scale()
    rows = []
    for model in benchmark_models():
        for res in scale.resolutions:
            wl = build_workload(model, res, n_pivots=scale.n_pivots)
            s = run_workload(wl, MICA(), _grid(scale.default_map))
            rows.append(
                [
                    model.name,
                    f"{res}^3",
                    wl.tree.total_nodes,
                    int(s["critical_thread_checks"]),
                    round(s["critical_thread_checks"] / wl.tree.total_nodes, 4),
                ]
            )
    return ExperimentResult(
        exp_id="fig13",
        title="Octree size vs critical-thread checks (orientation-per-thread mapping)",
        headers=["model", "resolution", "octree nodes", "critical checks", "ratio"],
        rows=rows,
        paper=PAPER["fig13"],
        notes="The ratio should be well below 1 and shrink with resolution: "
        "the adaptive octree prunes most of the tree per thread.",
    )


def fig14(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 14: load imbalance and the effect of the ICA precompute."""
    scale = scale or current_scale()
    res = scale.default_resolution
    grid = _grid(scale.default_map)
    wl = build_workload("head", res, n_pivots=1)
    rows = []
    checks_stats = None
    # Unscaled devices: this figure is about the clock-vs-core-count
    # tension between the two cards, which a scaled device would distort
    # (256-4096 threads are latency-bound on both full-size cards).
    for dev in (GTX_1080_TI, GTX_1080):
        device = dev
        for method in (PICA(), MICA(), AICA()):
            s = run_workload(wl, method, grid, device=device)
            r = s["last_result"]
            ops = r.counters.thread_ops(DEFAULT_COSTS)
            if checks_stats is None:
                nv = r.counters.nodes_visited
                checks_stats = (int(nv.min()), float(np.median(nv)), int(nv.max()))
            rows.append(
                [
                    dev.name,
                    method.name,
                    s["sim_precompute_ms"],
                    s["sim_cd_ms"],
                    s["sim_total_ms"],
                    float(ops.max()) / max(float(ops.mean()), 1.0),
                ]
            )
    return ExperimentResult(
        exp_id="fig14",
        title=f"Load imbalance & ICA precompute (head {res}^3, {grid.size} orientations)",
        headers=[
            "device",
            "method",
            "precompute ms",
            "CD ms",
            "total ms",
            "max/mean thread ops",
        ],
        rows=rows,
        paper=PAPER["fig14"],
        notes=f"per-thread checks (min/median/max): {checks_stats}. "
        "MICA/AICA move per-pair cone computation into the uniform "
        "precompute stage, shrinking the imbalance ratio.",
    )


def fig15(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 15: the corner-case optimization, MICA vs AICA."""
    scale = scale or current_scale()
    rows = []
    box_m_all, box_a_all, inc_all = [], [], []
    for model in benchmark_models():
        wl = build_workload(model, scale.default_resolution, n_pivots=scale.n_pivots)
        grid = _grid(scale.default_map)
        sm = run_workload(wl, MICA(), grid)
        sa = run_workload(wl, AICA(), grid)
        box_m = 100.0 * sm["box_checks"] / max(sm["total_checks"], 1.0)
        box_a = 100.0 * sa["box_checks"] / max(sa["total_checks"], 1.0)
        inc = 100.0 * (sa["total_checks"] - sm["total_checks"]) / max(sm["total_checks"], 1.0)
        box_m_all.append(box_m)
        box_a_all.append(box_a)
        inc_all.append(inc)
        rows.append([model.name, box_m, box_a, inc, sa["ica_efficiency"] * 100.0])
    rows.append(
        [
            "average",
            float(np.mean(box_m_all)),
            float(np.mean(box_a_all)),
            float(np.mean(inc_all)),
            100.0 - float(np.mean(box_a_all)),
        ]
    )
    return ExperimentResult(
        exp_id="fig15",
        title="Corner-case optimization: box-check share and total-check increase",
        headers=[
            "model",
            "MICA box %",
            "AICA box %",
            "total checks +%",
            "AICA efficiency %",
        ],
        rows=rows,
        paper=PAPER["fig15"],
        notes="Paper averages: 14.4% -> 0.9% box checks at +34.1% total "
        "checks, 99% ICA efficiency.",
    )


def _method_sweep(
    scale: BenchScale, *, resolutions=None, maps=None
) -> tuple[list[list], dict]:
    """Shared sweep machinery for Figures 16/17: all methods x one axis."""
    device = scaled_device(GTX_1080_TI, scale.device_divisor)
    rows = []
    sims: dict[tuple[str, object], float] = {}
    axis = resolutions if resolutions is not None else maps
    for val in axis:
        res = val if resolutions is not None else scale.default_resolution
        l = scale.default_map if resolutions is not None else val
        per_method = {}
        for model in benchmark_models():
            wl = build_workload(model, res, n_pivots=scale.n_pivots)
            for method in _methods(scale):
                s = run_workload(wl, method, _grid(l), device=device)
                per_method.setdefault(method.name, []).append(s["sim_total_ms"])
        for name, vals in per_method.items():
            sims[(name, val)] = float(np.mean(vals))
    for name in [m.name for m in _methods(scale)]:
        row = [name] + [sims[(name, v)] for v in axis]
        rows.append(row)
    # Speedup summary rows relative to PBox / PBoxOpt when present.
    if any(k[0] == "PBox" for k in sims):
        for target in ("PICA", "AICA"):
            rows.append(
                [f"PBox/{target}"]
                + [round(sims[("PBox", v)] / sims[(target, v)], 2) for v in axis]
            )
        rows.append(
            ["PBoxOpt/PICA"]
            + [round(sims[("PBoxOpt", v)] / sims[("PICA", v)], 2) for v in axis]
        )
    return rows, sims


def fig16(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 16: all methods vs object resolution (avg over 4 models)."""
    scale = scale or current_scale()
    rows, sims = _method_sweep(scale, resolutions=scale.resolutions)
    return ExperimentResult(
        exp_id="fig16",
        title=f"Method comparison vs object resolution (map {scale.default_map}^2), sim ms",
        headers=["series"] + [f"{r}^3" for r in scale.resolutions],
        rows=rows,
        paper=PAPER["fig16"],
        extras={"sims": sims},
        notes="Paper: PICA 23.9x over PBox, 4.8x over optimized PBox; MICA "
        "+28.3% over PICA; AICA +81.1% over MICA.",
    )


def fig17(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 17: all methods vs accessibility-map resolution."""
    scale = scale or current_scale()
    rows, sims = _method_sweep(scale, maps=scale.map_sizes)
    return ExperimentResult(
        exp_id="fig17",
        title=(
            f"Method comparison vs map resolution (object "
            f"{scale.default_resolution}^3), sim ms"
        ),
        headers=["series"] + [f"{l}^2" for l in scale.map_sizes],
        rows=rows,
        paper=PAPER["fig17"],
        extras={"sims": sims},
        notes="Paper: PICA 20.2x over PBox, 4.1x over optimized PBox; MICA "
        "+39.5%; AICA +84.8%.",
    )


def fig18(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 18: time breakdown vs the precompute depth ``S``."""
    scale = scale or current_scale()
    wl = build_workload("head", scale.default_resolution, n_pivots=scale.n_pivots)
    grid = _grid(scale.default_map)
    depth = wl.tree.depth
    rows = []
    for S in range(2, depth + 2):
        cfg = TraversalConfig(memo_levels=S)
        s = run_workload(wl, AICA(), grid, config=cfg)
        rows.append(
            [S, s["table_entries"], s["sim_precompute_ms"], s["sim_cd_ms"], s["sim_total_ms"]]
        )
    return ExperimentResult(
        exp_id="fig18",
        title=f"AICA time breakdown vs S (head {scale.default_resolution}^3)",
        headers=["S (memo levels)", "table entries", "precompute ms", "CD ms", "total ms"],
        rows=rows,
        paper=PAPER["fig18"],
        notes="CD time falls as more levels are memoized; precompute cost "
        "grows with the (exponentially growing) table.",
    )


def fig19(scale: BenchScale | None = None) -> ExperimentResult:
    """Figure 19: AICA time breakdown vs object resolution."""
    scale = scale or current_scale()
    rows = []
    for res in scale.resolutions:
        wl = build_workload("head", res, n_pivots=scale.n_pivots)
        s = run_workload(wl, AICA(), _grid(scale.default_map))
        rows.append(
            [f"{res}^3", s["table_entries"], s["sim_precompute_ms"], s["sim_cd_ms"], s["sim_total_ms"]]
        )
    return ExperimentResult(
        exp_id="fig19",
        title="AICA time breakdown vs object resolution (head model)",
        headers=["resolution", "table entries", "precompute ms", "CD ms", "total ms"],
        rows=rows,
        paper=PAPER["fig19"],
        notes="Most of the growth with resolution is the ICA precompute.",
    )


# ---------------------------------------------------------------------------
# Section 6 extension + ablations
# ---------------------------------------------------------------------------


def boxica(scale: BenchScale | None = None) -> ExperimentResult:
    """Section 6: ICA bounds for a box volume via two coaxial cylinders."""
    rows = []
    box = dict(z0=0.0, z1=60.0, wx=8.0, wy=5.0)
    for dist in (20.0, 40.0, 80.0, 150.0):
        for r in (0.5, 2.0):
            frac = box_corner_fraction(**box, dist=dist, sphere_r=r)
            rows.append([dist, r, 100.0 * frac])
    return ExperimentResult(
        exp_id="boxica",
        title="Box-as-2-cylinders ICA: undecided (corner) fraction of angles",
        headers=["dist", "sphere r", "corner %"],
        rows=rows,
        paper=PAPER["sec6_boxica"],
        notes="The undecided band stays small, supporting the Section 6 "
        "claim that ICA extends to bounding boxes.",
    )


def am_overlap(scale: BenchScale | None = None) -> ExperimentResult:
    """Section 8 future work, quantified: AM overlap between path neighbors.

    Runs AICA at consecutive path pivots and reports how many orientation
    cells keep their value from one pivot to the next — the headroom any
    AM-reuse scheme (the paper's proposed future work) could exploit.
    """
    scale = scale or current_scale()
    from repro.cd.pathrun import run_along_path
    from repro.tool.tool import Tool

    # A slender finishing tool: the paper's roughing tool blocks nearly
    # every orientation at a 1 mm standoff on these 50 mm parts, which
    # would make the overlap statistic trivially 100%.
    tool = Tool.from_segments([(1.5, 20.0), (2.5, 60.0), (8.0, 40.0)], name="finishing")
    rows = []
    grid = _grid(scale.default_map)
    for model in benchmark_models():
        wl = build_workload(model, scale.default_resolution, n_pivots=1)
        pivots = wl.path[: min(6, len(wl.path))]
        pr = run_along_path(wl.tree, tool, pivots, grid, AICA())
        rows.append(
            [
                model.name,
                len(pivots),
                100.0 * pr.mean_overlap,
                100.0 * float(pr.overlaps.min()),
                100.0 * float(np.mean(pr.accessible_fraction)),
            ]
        )
    return ExperimentResult(
        exp_id="am_overlap",
        title="AM overlap between consecutive path pivots (reuse headroom)",
        headers=["model", "pivots", "mean overlap %", "min overlap %", "accessible %"],
        rows=rows,
        paper={
            "shape": "Section 8: neighboring pivot points are likely to have "
            "AMs with overlapping values"
        },
        notes="High overlap supports the paper's proposed AM-reuse future work.",
    )


def ablation_bvh(scale: BenchScale | None = None) -> ExperimentResult:
    """Section 8: AICA over a BVH, compared with the octree traversal.

    Both structures hold the identical solid (the BVH is built over the
    octree's FULL cells) and produce identical maps; the comparison shows
    why the paper's octree is the right home for ICA: interior FULL nodes
    prove *hits* high up the tree, which a bounding hierarchy cannot.
    """
    scale = scale or current_scale()
    from repro.bvh.build import bvh_from_octree
    from repro.bvh.cd import BvhMethod, run_cd_bvh

    wl = build_workload("head", scale.default_resolution, n_pivots=1)
    grid = _grid(scale.default_map)
    pivot = wl.pivots[0]
    scene = wl.scene(0)
    bvh = bvh_from_octree(wl.tree)

    from repro.cd.traversal import run_cd as _run_cd

    oct_r = _run_cd(scene, grid, AICA())
    ica_r = run_cd_bvh(bvh, wl.tool, pivot, grid, BvhMethod(use_ica=True))
    box_r = run_cd_bvh(bvh, wl.tool, pivot, grid, BvhMethod(use_ica=False))
    assert bool(np.array_equal(oct_r.collides, ica_r.collides))
    assert bool(np.array_equal(oct_r.collides, box_r.collides))

    rows = [
        [
            "octree AICA",
            wl.tree.total_nodes,
            oct_r.counters.total_box_checks,
            oct_r.timing.total_s * 1e3,
        ],
        [
            "BVH ICA",
            bvh.n_nodes,
            ica_r.counters.total_box_checks,
            ica_r.timing.total_s * 1e3,
        ],
        [
            "BVH exact-only",
            bvh.n_nodes,
            box_r.counters.total_box_checks,
            box_r.timing.total_s * 1e3,
        ],
    ]
    return ExperimentResult(
        exp_id="ablation_bvh",
        title=f"AICA on octree vs BVH (head {scale.default_resolution}^3, "
        f"map {scale.default_map}^2, identical maps)",
        headers=["traversal", "nodes", "box checks", "sim total ms"],
        rows=rows,
        paper={
            "shape": "Section 8: AICA should be extended and tested against "
            "other spatial volume structures such as BVH"
        },
        notes="ICA prunes on both structures, but only the octree's solid "
        "interior nodes can *prove* hits above the leaves.",
    )


def ablation_costs(scale: BenchScale | None = None) -> ExperimentResult:
    """Sensitivity of the Fig 16 ordering to the cost-model constants."""
    scale = scale or current_scale()
    wl = build_workload("head", scale.default_resolution, n_pivots=1)
    grid = _grid(scale.default_map)
    rows = []
    for label, costs in (
        ("default", DEFAULT_COSTS),
        ("cull=84", DEFAULT_COSTS.scaled(cull_per_cyl=84)),
        ("box=108", DEFAULT_COSTS.scaled(box_per_cyl=108)),
        ("ica_fly=20", DEFAULT_COSTS.scaled(ica_fly_per_cyl=20)),
    ):
        sims = {}
        for method in _methods(scale):
            s = run_workload(wl, method, grid, costs=costs)
            sims[method.name] = s["sim_total_ms"]
        order = sorted(sims, key=sims.get)
        rows.append([label] + [sims[m.name] for m in _methods(scale)] + [" < ".join(order)])
    return ExperimentResult(
        exp_id="ablation_costs",
        title="Cost-constant sensitivity (head model)",
        headers=["cost model"] + [m.name for m in _methods(scale)] + ["ordering"],
        rows=rows,
        notes="The AICA < MICA < PICA < PBoxOpt < PBox ordering should "
        "survive substantial perturbation of the per-check constants.",
    )


def ablation_warp(scale: BenchScale | None = None) -> ExperimentResult:
    """Warp-width sensitivity of the SIMT model."""
    scale = scale or current_scale()
    wl = build_workload("head", scale.default_resolution, n_pivots=1)
    grid = _grid(scale.default_map)
    rows = []
    base = GTX_1080_TI  # unscaled: warp effects need many warp slots
    for warp in (1, 8, 32, 128):
        from repro.engine.device import DeviceSpec

        dev = DeviceSpec(
            name=f"warp{warp}",
            cuda_cores=base.cuda_cores,
            clock_ghz=base.clock_ghz,
            warp_size=warp,
        )
        s = run_workload(wl, AICA(), grid, device=dev)
        rows.append([warp, s["sim_cd_ms"]])
    return ExperimentResult(
        exp_id="ablation_warp",
        title="AICA CD time vs warp width (divergence penalty)",
        headers=["warp size", "CD ms"],
        rows=rows,
        notes="Wider warps pay more for divergence (warp cost = max over "
        "member threads); warp=1 is the no-SIMT lower bound.",
    )


def ablation_mapping(scale: BenchScale | None = None) -> ExperimentResult:
    """Section 4.1's choice: orientation-per-thread vs voxel-per-thread.

    Prices both mappings on the same scene with a device scaled so the
    orientation count saturates it (as at paper scale).  Expected result:
    the orientation mapping wins once occupancy is off the table, because
    the voxel mapping loses per-orientation early exit and is badly
    imbalanced (base cells near the pivot own huge subtrees).
    """
    scale = scale or current_scale()
    from repro.cd.mapping import run_voxel_mapping
    from repro.cd.traversal import run_cd as _run_cd

    wl = build_workload("head", scale.default_resolution, n_pivots=1)
    grid = _grid(scale.default_map)
    device = scaled_device(GTX_1080_TI, scale.device_divisor)
    scene = wl.scene(0)
    rows = []
    for method in (MICA(), AICA()):
        std = _run_cd(scene, grid, method, device=device)
        vox = run_voxel_mapping(scene, grid, method, device=device)
        assert bool(np.array_equal(std.collides, vox.collides))
        std_ops = std.counters.thread_ops(DEFAULT_COSTS)
        imb_std = float(std_ops.max()) / max(float(std_ops.mean()), 1.0)
        imb_vox = float(vox.thread_ops.max()) / max(float(vox.thread_ops.mean()), 1.0)
        rows.append(
            [
                method.name,
                std.timing.cd_tests_s * 1e3,
                vox.total_seconds * 1e3,
                round(imb_std, 2),
                round(imb_vox, 2),
            ]
        )
    return ExperimentResult(
        exp_id="ablation_mapping",
        title=f"Thread mapping (head {scale.default_resolution}^3, "
        f"map {scale.default_map}^2, {device.name})",
        headers=[
            "method",
            "orientation-mapping ms",
            "voxel-mapping ms",
            "imbalance (orient)",
            "imbalance (voxel)",
        ],
        rows=rows,
        paper={
            "shape": "Section 4.1 prefers orientation-per-thread: better "
            "pruning (early exit) and no inter-thread communication"
        },
        notes="The voxel mapping loses early exit and is heavily imbalanced "
        "(cells near the pivot own deep subtrees).",
    )


def ablation_start_level(scale: BenchScale | None = None) -> ExperimentResult:
    """The paper's top-level expansion: traversal start level on/off."""
    scale = scale or current_scale()
    grid = _grid(scale.default_map)
    rows = []
    for start in (0, 3, 5):
        wl = build_workload(
            "head", scale.default_resolution, n_pivots=1, start_level=start
        )
        cfg = TraversalConfig(start_level=start)
        s = run_workload(wl, AICA(), grid, config=cfg)
        rows.append([start, s["total_checks"], s["sim_cd_ms"]])
    return ExperimentResult(
        exp_id="ablation_start_level",
        title="Top-level expansion: traversal start level",
        headers=["start level", "total checks", "CD ms"],
        rows=rows,
        notes="Starting deeper trades a flat base-level scan for a shorter "
        "tree; the paper expands the top 5 levels into one.",
    )


def wallclock(scale: BenchScale | None = None) -> ExperimentResult:
    """Host wall-clock: frontier engine v1 vs v2 at the fig16 data point.

    Unlike every other experiment (which reports *simulated-GPU*
    milliseconds from the counter cost model), this one times the actual
    Python host loop: each method runs serially under both engines on
    the head model at the scale's default resolution and map.  Every
    timed run builds its own demand-filled ICA table, so each pays for
    the rows it fills (a shared table would charge them all to the first
    run).  Each (method, engine) cell is the best of ``_WALLCLOCK_REPS``
    repetitions — min, not mean, is the right statistic for wall-clock
    gating since noise is strictly additive.

    The experiment also *asserts* the engines' equivalence contract on
    every method: byte-identical accessibility maps and per-thread
    counters.  A committed baseline (``BENCH_wallclock.json``) is
    compared in CI with ``repro-bench compare``: the ``*_s`` metrics
    gate wall-clock regressions at a generous threshold, the ``.pairs``
    counters gate counter drift exactly.
    """
    scale = scale or current_scale()
    from repro.cd.traversal import run_cd
    from repro.engine.counters import ThreadCounters
    from repro.obs.metrics import get_metrics

    grid = _grid(scale.default_map)
    wl = build_workload("head", scale.default_resolution, n_pivots=1)
    scene = wl.scene(0)

    metrics = get_metrics()
    rows = []
    speedups: dict[str, float] = {}
    for cls in _METHOD_ORDER:
        method = cls()
        results = {}
        best = {}
        for engine in ("v1", "v2"):
            cfg = TraversalConfig(engine=engine)
            t = None
            for _ in range(_WALLCLOCK_REPS):
                t0 = time.perf_counter()
                r = run_cd(scene, grid, method, config=cfg, workers=1)
                dt = time.perf_counter() - t0
                t = dt if t is None else min(t, dt)
            results[engine] = r
            best[engine] = t
        r1, r2 = results["v1"], results["v2"]
        assert np.array_equal(r1.collides, r2.collides), (
            f"{method.name}: v1/v2 maps differ"
        )
        for f in ThreadCounters.COUNTER_FIELDS:
            assert np.array_equal(getattr(r1.counters, f), getattr(r2.counters, f)), (
                f"{method.name}: v1/v2 counter {f} differs"
            )
        pairs = int(r2.counters.nodes_visited.sum())
        speedup = best["v1"] / best["v2"]
        speedups[method.name] = speedup
        m = method.name
        metrics.counter(f"wallclock.{m}.v1_s").inc(best["v1"])
        metrics.counter(f"wallclock.{m}.v2_s").inc(best["v2"])
        metrics.counter(f"wallclock.{m}.pairs").inc(pairs)
        metrics.gauge(f"wallclock.{m}.speedup").set(speedup)
        rows.append(
            [
                m,
                pairs,
                round(best["v1"] * 1e3, 1),
                round(best["v2"] * 1e3, 1),
                round(pairs / best["v2"] / 1e6, 2),
                round(speedup, 2),
            ]
        )
    return ExperimentResult(
        exp_id="wallclock",
        title=(
            f"Frontier engine v1 vs v2 wall-clock (head {scale.default_resolution}^3, "
            f"map {scale.default_map}^2, serial, best of {_WALLCLOCK_REPS})"
        ),
        headers=["method", "pairs", "v1 ms", "v2 ms", "v2 Mpairs/s", "v2/v1 speedup"],
        rows=rows,
        extras={"speedups": speedups},
        notes="Wall-clock of the host traversal loop, not simulated-GPU ms; "
        "maps and per-thread counters are asserted byte-identical across "
        "engines before timing is reported.",
    )


#: Wall-clock repetitions per (method, engine) cell; the minimum is kept.
_WALLCLOCK_REPS = 3


ALL_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig05": fig05,
    "fig09": fig09,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "boxica": boxica,
    "am_overlap": am_overlap,
    "ablation_bvh": ablation_bvh,
    "ablation_costs": ablation_costs,
    "ablation_mapping": ablation_mapping,
    "ablation_warp": ablation_warp,
    "ablation_start_level": ablation_start_level,
    "wallclock": wallclock,
}

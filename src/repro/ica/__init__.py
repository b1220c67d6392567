"""The Inaccessible Cone Angle (ICA) abstraction — the paper's Section 3.

For a sphere of radius ``r`` whose center sits at distance ``dist`` from
the pivot, the set of tool orientations that touch the sphere forms a
cone around the pivot-to-center vector (Figure 6).  Because the tool is
a solid of revolution, the cone's opening angle is computed exactly in
2D: the arc of radius ``dist`` against the tool's generating rectangles
expanded by ``r`` (Figure 7, the "5 components per rectangle").

This package computes those angles exactly (including the configurations
the paper's prose glosses over, such as voxels beyond the tool's reach),
builds the memoized per-voxel table of stage 1 of AICA, and provides the
theoretical ICA-efficiency model of Figure 9.
"""

from repro.ica.cone import (
    tool_ica,
    tool_ica_batch,
    ica_bounds_arrays,
    inaccessible_intervals,
)
from repro.ica.table import IcaTable, build_ica_table
from repro.ica.efficiency import (
    corner_case_probability,
    theoretical_efficiency,
)

__all__ = [
    "tool_ica",
    "tool_ica_batch",
    "ica_bounds_arrays",
    "inaccessible_intervals",
    "IcaTable",
    "build_ica_table",
    "corner_case_probability",
    "theoretical_efficiency",
]

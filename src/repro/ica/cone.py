"""Exact inaccessible-cone-angle computation (GETTOOLICA).

Geometry
--------
Work in the 2D (axial, radial) half-plane containing the tool axis and
the sphere center.  The tool's generating profile is a union of
rectangles ``[z0_c, z1_c] x [0, R_c]``; the sphere of radius ``r`` at
distance ``d`` from the pivot touches the tool at orientation angle
``theta`` (angle between tool axis and pivot-to-center vector) iff the
point ``(d cos(theta), d sin(theta))`` lies within distance ``r`` of
some rectangle — i.e. inside the rectangle expanded (Minkowski sum) by a
disk of radius ``r``.  Each expanded rectangle is convex, so the arc of
radius ``d`` meets it in a single sub-arc; restricted to ``theta in
[0, pi]`` that is at most two intervals per cylinder, and the tool's
*inaccessible set* is the union over cylinders.

The paper defines a single ICA value ("the largest touching angle");
that is only sound when the inaccessible set is the interval
``[0, ica]``, which fails for voxels beyond the tool's reach or behind
the pivot.  We therefore return two sound bounds:

* ``ica_lo`` — the upper end of the inaccessible component containing
  ``theta = 0`` (sentinel ``-1`` when ``theta = 0`` is itself
  accessible), so ``theta <= ica_lo  =>  collision``;
* ``ica_hi`` — the supremum of the whole inaccessible set (``0`` when it
  is empty), so ``theta >= ica_hi  =>  no collision``.

``CHECKICA`` uses ``ica_lo`` of the voxel's *inscribed* sphere and
``ica_hi`` of its *circumscribed* sphere (Algorithm 1 / Figure 8).

Implementation
--------------
Everything is computed in **cosine space**: candidate crossing angles
between the arc and the five boundary components of each expanded
rectangle (two cap lines, the top line, two corner circles) have
closed-form cosines requiring only arithmetic and square roots — no
trigonometric calls, which dominate the cost otherwise.  Cosine is
strictly decreasing on ``[0, pi]``, so sorting cosines descending orders
candidates by increasing angle, and the *mean* of two consecutive
cosines is an interior sample of the segment between them (all that
membership evaluation needs).  Spurious candidates (crossings with a
component's extension outside its valid range) merely split a segment in
two and are harmless.

The cos-space results are exposed directly (:func:`ica_bounds_cos`) for
hot paths that also keep their query angles as cosines; the angle-space
API applies a single ``arccos`` per output.
"""

from __future__ import annotations

import numpy as np

from repro.tool.tool import Tool

__all__ = [
    "ica_bounds_cos",
    "checkica_bounds_cos",
    "ica_bounds_arrays",
    "tool_ica_batch",
    "tool_ica",
    "inaccessible_intervals",
    "ACCESSIBLE_SENTINEL",
    "COS_NEVER",
    "SQRT3",
]

#: ``ica_lo`` (angle space) meaning "no collision guaranteed at any angle".
ACCESSIBLE_SENTINEL = -1.0

#: ``cos_lo`` (cos space) sentinel with the same meaning: query cosines
#: are <= 1, so ``cos_angle >= COS_NEVER`` never fires.
COS_NEVER = 2.0

#: Circumscribed-sphere radius of a cube per unit half-edge.
SQRT3 = float(np.sqrt(3.0))


def _member_cos(z0, z1, R, d, r, c) -> np.ndarray:
    """Touching test at cosine samples ``c (B, S)``; tool ``(C,)``, ``d``/``r`` ``(B,)``.

    ``z = d*c``, ``rho = d*sqrt(1 - c^2)`` (the ``theta in [0, pi]``
    branch), then 2D distance to each rectangle vs ``r``.  The cylinder
    loop is the outer loop: every pass runs over the whole contiguous
    ``(B, S)`` block, in preallocated temporaries.
    """
    cc = np.clip(c, -1.0, 1.0)
    dcol = d[:, None]
    z = dcol * cc
    rho = np.multiply(cc, cc, out=cc)
    np.subtract(1.0, rho, out=rho)
    np.sqrt(rho, out=rho)
    np.multiply(dcol, rho, out=rho)
    rr = (r * r)[:, None]
    dz = np.empty_like(z)
    tmp = np.empty_like(z)
    touch = np.empty(z.shape, dtype=bool)
    member = np.zeros(z.shape, dtype=bool)
    for k in range(len(z0)):
        np.subtract(z0[k], z, out=dz)
        np.maximum(dz, 0.0, out=dz)
        np.subtract(z, z1[k], out=tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.add(dz, tmp, out=dz)
        np.multiply(dz, dz, out=dz)
        np.subtract(rho, R[k], out=tmp)
        np.maximum(tmp, 0.0, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.add(dz, tmp, out=dz)
        np.less_equal(dz, rr, out=touch)
        np.logical_or(member, touch, out=member)
    return member


def _candidate_cos(z0, z1, R, d, r) -> np.ndarray:
    """Cosines of all potential arc/boundary crossings, shape ``(B, 8C + 2)``.

    Per cylinder: 2 cap-line crossings, 2 top-line crossings, 2 + 2
    corner-circle crossings; plus the global endpoints ``cos 0 = 1`` and
    ``cos pi = -1``.  Out-of-range values are clipped into ``[-1, 1]``,
    yielding degenerate (harmless) candidates.  All closed form:

    * cap line ``z = z1 + r``:  ``cos = (z1 + r) / d``;
    * top line ``rho = R + r``: ``cos = +-sqrt(1 - ((R + r)/d)^2)``;
    * corner circle at ``q = (zc, R)``: by the law of cosines the angle
      ``delta`` between the corner direction and the crossing satisfies
      ``cos delta = (d^2 + |q|^2 - r^2) / (2 d |q|)``, and
      ``cos(alpha +- delta)`` expands with ``cos alpha = zc/|q|``,
      ``sin alpha = R/|q|`` — arithmetic only.

    Column ``j*C + k`` holds kind ``j`` of cylinder ``k``, kinds in the
    order cap ``z1``, cap ``z0``, top ``+``, top ``-``, then ``+``/``-``
    for the ``z0`` corner and the ``z1`` corner.  Each cylinder fills its
    eight columns with passes over the ``B`` rows.
    """
    B = d.shape[0]
    C = len(z0)
    out = np.empty((B, 8 * C + 2))
    out[:, -2] = 1.0
    out[:, -1] = -1.0
    d_ = np.maximum(d, 1e-300)  # guard the d = 0 degenerate case
    dd = d_ * d_
    rr = r * r
    d2 = 2.0 * d_
    corners = []
    for cz in (z0, z1):
        Dq = np.maximum(np.hypot(cz, R), 1e-300)  # (C,) pivot-to-corner distance
        corners.append((Dq, Dq * Dq, cz / Dq, R / Dq))
    cos_d = np.empty(B)
    sin_d = np.empty(B)
    tmp = np.empty(B)
    for k in range(C):
        col = out[:, k]
        np.add(z1[k], r, out=col)
        np.divide(col, d_, out=col)
        np.clip(col, -1.0, 1.0, out=col)
        col = out[:, C + k]
        np.subtract(z0[k], r, out=col)
        np.divide(col, d_, out=col)
        np.clip(col, -1.0, 1.0, out=col)
        np.add(R[k], r, out=tmp)
        np.divide(tmp, d_, out=tmp)
        np.clip(tmp, 0.0, 1.0, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.sqrt(tmp, out=out[:, 2 * C + k])
        np.negative(out[:, 2 * C + k], out=out[:, 3 * C + k])
        for j, (Dq, Dq2, cos_a, sin_a) in enumerate(corners):
            np.add(dd, Dq2[k], out=cos_d)
            np.subtract(cos_d, rr, out=cos_d)
            np.multiply(d2, Dq[k], out=tmp)
            np.divide(cos_d, tmp, out=cos_d)
            np.clip(cos_d, -1.0, 1.0, out=cos_d)
            np.multiply(cos_d, cos_d, out=sin_d)
            np.subtract(1.0, sin_d, out=sin_d)
            np.sqrt(sin_d, out=sin_d)
            np.multiply(cos_a[k], cos_d, out=cos_d)
            np.multiply(sin_a[k], sin_d, out=sin_d)
            plus = out[:, (4 + 2 * j) * C + k]
            minus = out[:, (5 + 2 * j) * C + k]
            np.add(cos_d, sin_d, out=plus)
            np.clip(plus, -1.0, 1.0, out=plus)
            np.subtract(cos_d, sin_d, out=minus)
            np.clip(minus, -1.0, 1.0, out=minus)
    return out


def ica_bounds_cos(
    z0, z1, R, dist, sphere_r, *, chunk: int = 1024
) -> tuple[np.ndarray, np.ndarray]:
    """Cos-space GETTOOLICA over batches.

    Returns ``(cos_lo, cos_hi)`` with the guarantees (for query cosine
    ``ca = cos(theta)``):

    * ``ca >= cos_lo``  =>  collision (``cos_lo = COS_NEVER`` if theta=0
      itself is accessible — never fires);
    * ``ca <= cos_hi``  =>  no collision (``cos_hi = 1`` when nothing is
      inaccessible).

    Batches larger than ``chunk`` are processed in slices so the
    ``(B, 8C+2)`` candidate and ``(B, 8C+1)`` membership temporaries stay
    cache-sized however large the batch: at 1024 rows the four float
    ``(B, 8C+1)`` temporaries of the 4-cylinder tool's membership pass
    take about 1 MiB together.
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=np.float64))
    z1 = np.atleast_1d(np.asarray(z1, dtype=np.float64))
    R = np.atleast_1d(np.asarray(R, dtype=np.float64))
    d, r = np.broadcast_arrays(
        np.asarray(dist, dtype=np.float64), np.asarray(sphere_r, dtype=np.float64)
    )
    shape = d.shape
    d = d.ravel()
    r = r.ravel()
    if np.any(r < 0.0):
        raise ValueError("sphere radius must be non-negative")

    if d.size > chunk:
        lo = np.empty(d.size)
        hi = np.empty(d.size)
        for start in range(0, d.size, chunk):
            sl = slice(start, min(start + chunk, d.size))
            lo[sl], hi[sl] = ica_bounds_cos(z0, z1, R, d[sl], r[sl], chunk=chunk)
        return lo.reshape(shape), hi.reshape(shape)

    # Descending cosine == ascending angle.  Negate, sort, negate: a
    # reversed ascending sort could place -0.0/+0.0 ties differently.
    cand = _candidate_cos(z0, z1, R, d, r)  # (B, K)
    np.negative(cand, out=cand)
    cand.sort(axis=1)
    np.negative(cand, out=cand)
    mids = np.add(cand[:, :-1], cand[:, 1:])  # interior cos samples
    np.multiply(0.5, mids, out=mids)
    member = _member_cos(z0, z1, R, d, r, mids)  # (B, K-1)

    # Supremum of the inaccessible set: the far (smaller-cos) edge of the
    # last member segment; cos 0 = 1 when the set is empty.
    cos_hi = np.min(np.where(member, cand[:, 1:], COS_NEVER), axis=1)
    cos_hi = np.where(cos_hi == COS_NEVER, 1.0, cos_hi)

    # End of the member run starting at theta = 0.
    first_false = np.argmax(~member, axis=1)
    all_true = member.all(axis=1)
    row = np.arange(len(d))
    cos_lo = np.where(all_true, -1.0, cand[row, first_false])
    cos_lo = np.where(member[:, 0], cos_lo, COS_NEVER)

    return cos_lo.reshape(shape), cos_hi.reshape(shape)


def checkica_bounds_cos(tool: Tool, dist, half: float) -> tuple[np.ndarray, np.ndarray]:
    """CHECKICA's bound pair ``(cos1, cos2)`` for cubic cells of half-edge ``half``.

    ``dist`` holds the cell centers' distances to the pivot.  ``cos1`` is
    ``cos_lo`` of each cell's inscribed sphere (radius ``half``):
    ``ca >= cos1`` means collision.  ``cos2`` is ``cos_hi`` of its
    circumscribed sphere (radius ``sqrt(3) * half``): ``ca <= cos2``
    means no collision.
    """
    cos1, _ = ica_bounds_cos(tool.z0, tool.z1, tool.radius, dist, half)
    _, cos2 = ica_bounds_cos(tool.z0, tool.z1, tool.radius, dist, SQRT3 * half)
    return cos1, cos2


def ica_bounds_arrays(z0, z1, R, dist, sphere_r) -> tuple[np.ndarray, np.ndarray]:
    """Angle-space GETTOOLICA (see module docstring for the guarantees)."""
    cos_lo, cos_hi = ica_bounds_cos(z0, z1, R, dist, sphere_r)
    lo = np.where(
        cos_lo >= COS_NEVER,
        ACCESSIBLE_SENTINEL,
        np.arccos(np.clip(cos_lo, -1.0, 1.0)),
    )
    hi = np.arccos(np.clip(cos_hi, -1.0, 1.0))
    return lo, hi


def tool_ica_batch(tool: Tool, dist, sphere_r) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized GETTOOLICA for a :class:`Tool`; returns ``(ica_lo, ica_hi)``
    in radians, broadcasting ``dist`` and ``sphere_r``."""
    return ica_bounds_arrays(tool.z0, tool.z1, tool.radius, dist, sphere_r)


def tool_ica(tool: Tool, dist: float, sphere_r: float) -> tuple[float, float]:
    """Scalar convenience wrapper around :func:`tool_ica_batch`."""
    lo, hi = tool_ica_batch(tool, np.asarray([dist]), np.asarray([sphere_r]))
    return float(lo[0]), float(hi[0])


def inaccessible_intervals(tool: Tool, dist: float, sphere_r: float) -> list[tuple[float, float]]:
    """The full inaccessible angle set as merged closed intervals.

    Mostly a test/diagnostic helper: :func:`tool_ica_batch` only needs the
    two bounds, but the intervals expose the complete structure (e.g. the
    detached interval of a voxel reachable only by the tool's side).
    """
    d = np.asarray([float(dist)])
    r = np.asarray([float(sphere_r)])
    cand = -np.sort(-_candidate_cos(tool.z0, tool.z1, tool.radius, d, r), axis=1)
    mids = 0.5 * (cand[:, :-1] + cand[:, 1:])
    member = _member_cos(tool.z0, tool.z1, tool.radius, d, r, mids)[0]
    edges = np.arccos(np.clip(cand[0], -1.0, 1.0))
    out: list[tuple[float, float]] = []
    for seg in range(len(member)):
        if not member[seg]:
            continue
        a, b = float(edges[seg]), float(edges[seg + 1])
        if out and a <= out[-1][1] + 1e-12:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out

"""Frustum point filtering and coherence-checked frustum merging.

A frustum is the set of LiDAR points whose projection falls inside one 2D
detection's bbox.  The cloud is projected once per camera into a CameraView,
the points in front of that camera with their pixel coordinates, and every
detection of the camera is filtered against that view.  The view keeps the
outcome of each filter run on it, so a repeated request, as the pipeline
variants make for the detections they share, is answered without filtering
twice; the frustums' point arrays are read-only, as their callers share
them.  Two frustums from a matched cross-camera detection pair are merged
only when they share at least one point (exact coordinate identity);
sharing none is treated as evidence the match was spurious.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scene import (
    DEPTH_EPSILON,
    BBox2D,
    CameraModel,
    Detection2D,
    extent_midpoint,
    extent_width,
    angular_extent,
    project_points,
    wrap_angle,
)


class EmptyFrustum(ValueError):
    """No cloud point projects inside the bbox at positive depth."""


class MergeRejected(Exception):
    """The two frustums share no point, so the merge is refused.

    Not a failure: callers keep working with the unmerged frustums.
    """


class DegenerateExtent(ValueError):
    """A combined angular interval spans half the circle or more."""


@dataclass(frozen=True, eq=False)
class Frustum:
    """Points selected by one or two detections plus their viewing geometry.

    extent is the (theta_min, theta_max) azimuth interval the frustum
    subtends; central_axis its circular midpoint, in (-pi, pi].  boxes is
    estimator.estimate_box's memo of the fits made on this frustum.
    """

    points: np.ndarray
    extent: tuple[float, float]
    central_axis: float
    sources: tuple[Detection2D, ...] = ()
    boxes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.sources) > 2:
            raise ValueError("a frustum traces back to at most two detections")
        if not -math.pi < self.central_axis <= math.pi:
            raise ValueError("central_axis must be normalized to (-pi, pi]")

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True, eq=False)
class CameraView:
    """A cloud as one camera sees it: the points at depth > DEPTH_EPSILON,
    in cloud order, and their pixel coordinates u and v.  frustums is
    filter_frustum's memo of the filters run on this view."""

    camera_id: str
    points: np.ndarray
    u: np.ndarray
    v: np.ndarray
    frustums: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def camera_view(cam: CameraModel, cloud: np.ndarray) -> CameraView:
    """Project an (N, 3) cloud on cam once and keep what lies in front."""
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    uv, _, valid = project_points(cam, pts, DEPTH_EPSILON)
    # one (2, M) block, so u and v are contiguous rows
    u, v = uv[valid].T.copy()
    return CameraView(camera_id=cam.id, points=pts[valid], u=u, v=v)


def filter_frustum(
    cam: CameraModel,
    bbox: BBox2D,
    cloud: CameraView | np.ndarray,
    source: Detection2D | None = None,
) -> Frustum:
    """Select cloud points projecting inside bbox (edges inclusive).

    cloud is a CameraView of cam, or an (N, 3) array that is viewed first.
    Points at depth <= DEPTH_EPSILON are excluded.  Raises EmptyFrustum when
    nothing survives, and ValueError for a view of another camera.  The
    view keeps the outcome under (cam, bbox, source), the Frustum or None
    when it is empty: a repeated call returns the same Frustum, or raises a
    new EmptyFrustum with the same message.
    """
    view = cloud if isinstance(cloud, CameraView) else camera_view(cam, cloud)
    if view.camera_id != cam.id:
        raise ValueError(
            f"view of camera {view.camera_id!r} filtered for camera {cam.id!r}"
        )
    key = (cam, bbox, source)
    frustum = view.frustums.get(key, False)  # None is a kept empty frustum
    if frustum is False:
        frustum = view.frustums[key] = _select(cam, bbox, view, source)
    if frustum is None:
        raise EmptyFrustum(f"no points inside bbox in camera {cam.id!r}")
    return frustum


def _select(cam, bbox, view, source) -> Frustum | None:
    """filter_frustum's work: the Frustum, None when no point is inside."""
    inside = (
        (view.u >= bbox.x_min)
        & (view.u <= bbox.x_max)
        & (view.v >= bbox.y_min)
        & (view.v <= bbox.y_max)
    )
    if not inside.any():
        return None
    points = view.points[inside]
    points.flags.writeable = False
    extent = angular_extent(cam, bbox)
    sources = (source,) if source is not None else ()
    return Frustum(
        points=points,
        extent=extent,
        central_axis=extent_midpoint(extent),
        sources=sources,
    )


def _combined_hull(extent_a, extent_b) -> tuple[float, float]:
    """Smallest angular interval covering both extents, as (start, width).

    Raises DegenerateExtent when that interval spans >= pi.
    """
    width_a = extent_width(extent_a)
    width_b = extent_width(extent_b)
    span_ab = float(np.mod(extent_b[0] - extent_a[0], 2.0 * np.pi))
    span_ba = float(np.mod(extent_a[0] - extent_b[0], 2.0 * np.pi))
    cand_a = max(width_a, span_ab + width_b)
    cand_b = max(width_b, span_ba + width_a)
    if cand_a <= cand_b:
        start, width = extent_a[0], cand_a
    else:
        start, width = extent_b[0], cand_b
    if width >= math.pi:
        raise DegenerateExtent(f"combined extent spans {width!r} rad (>= pi)")
    return start, width


def _hull_axis(start: float, width: float) -> float:
    """Circular mean of a _combined_hull's two boundary angles."""
    end = start + width
    # width < pi, so the two boundary directions are never antipodal.
    return wrap_angle(
        math.atan2(
            math.sin(start) + math.sin(end), math.cos(start) + math.cos(end)
        )
    )


def merge_frustums(a: Frustum, b: Frustum) -> Frustum:
    """Union of two frustums, accepted only when they share a point exactly.

    The merged point set keeps one copy of each coordinate triple, ordered by
    first appearance in a then b, with that first copy's bits.  Raises
    MergeRejected when the frustums are disjoint; the caller decides how to
    proceed.

    Rows compare as their coordinates do: 0.0 == -0.0, and a row holding
    NaN equals no other row.  Adding 0.0 turns -0.0 into 0.0, so one
    stable sort of the rows of a then b puts equal rows next to each other,
    first appearance first, and a NaN row next to none it equals.
    """
    if not len(a) or not len(b):
        raise MergeRejected("frustums share no point")
    rows = np.concatenate((a.points, b.points), dtype=float)
    keys = rows + 0.0
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    heads = np.ones(len(rows), bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=heads[1:])
    heads = np.flatnonzero(heads)
    # a group holds a point of a in its first row and one of b in its last
    firsts = order[heads]
    lasts = order[np.append(heads[1:], len(rows)) - 1]
    if not np.any((firsts < len(a)) & (lasts >= len(a))):
        raise MergeRejected("frustums share no point")
    start, width = _combined_hull(a.extent, b.extent)
    extent = (wrap_angle(start), wrap_angle(start + width))
    points = rows[np.sort(firsts)]
    points.flags.writeable = False
    return Frustum(
        points=points,
        extent=extent,
        central_axis=_hull_axis(start, width),
        sources=a.sources + b.sources,
    )

"""Deterministic 3D box fitting from frustum points.

The fitter is a geometric stand-in for a learned amodal box network: a
median-range gate rejects background points the image bbox frustum sweeps up
(there is no occlusion reasoning upstream), yaw comes from the ground-plane
principal axis disambiguated toward the frustum's viewing direction, the
center is the midpoint of the gated extents per axis, and dimensions are the
observed extents floored by a per-class prior and capped at twice it.

Two robustness choices matter. Centers use mid-extent rather than the raw
centroid: points are sampled on the surface visible from the sensor, which
skews a centroid toward the sensor, while the extent midpoint stays unbiased
whenever the surface spans the object. Planar extents come from symmetric
quantiles rather than min/max: stray ground points behind the object that
slip through the range gate would otherwise drag a min/max midpoint by
meters, while a few-percent trim removes them and barely moves clean
surface extents (the prior floor absorbs the shrink). Vertical extents stay
min/max because ground points share the objects' ground plane and cannot
be vertical outliers.

The range gate scores up to 191 range windows per frustum with a fixed
number of array operations instead of a loop over windows: one sort by
range and one gather of the points in that order; per-point azimuth
bins, found by one search against the bin edges, turned into per-window
counts by one prefix sum of one-hot rows; and one block of per-window
height ranks (windows x largest window small integers) sorted row-wise
for the height quantiles. The winning window's median range is read
straight from the sorted ranges. One sorted two-row block of along- and
across-yaw coordinates gives all four planar extents, which np.quantile's
linear rule blends in Python floats. Bins, quantiles and the median
follow numpy's own arithmetic, so boxes are bit-identical to calling
np.histogram, np.quantile and np.median per window and per axis.

The frustum keeps each fit's outcome, so the pipeline variants, which
frustum.filter_frustum hands the same frustum, share one fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .frustum import Frustum
from .scene import Box3D, wrap_angle
from .synthgen import CLASS_DIMS


class TooFewPoints(ValueError):
    """The frustum holds fewer points than the configured minimum."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Box fitting parameters.

    dim_priors: per-class (l, w, h) used as dimension floor (and 2x cap).
    yaw_mode: 'pca' or 'frustum-axis'.
    min_points: frustums below this size raise TooFewPoints.
    range_gate_m: half-width floor of the median-range gate.
    extent_quantile: symmetric trim fraction for planar extents.
    """

    dim_priors: dict[str, tuple[float, float, float]] = field(
        default_factory=lambda: dict(CLASS_DIMS)
    )
    yaw_mode: str = "pca"
    min_points: int = 5
    range_gate_m: float = 3.0
    extent_quantile: float = 0.04

    def __post_init__(self):
        if self.yaw_mode not in ("pca", "frustum-axis"):
            raise ValueError("yaw_mode must be 'pca' or 'frustum-axis'")
        if self.min_points < 1:
            raise ValueError("min_points must be >= 1")
        if not 0.0 <= self.extent_quantile < 0.5:
            raise ValueError("extent_quantile must be in [0, 0.5)")


_AZ_BINS = 8
# bin k's upper edge is k * (span / _AZ_BINS), as np.linspace spaces them
_EDGE_STEPS = np.arange(1.0, _AZ_BINS + 1.0)
# row b counts one point into bin b; the out-of-range bin _AZ_BINS counts nowhere
_BIN_ONE_HOT = np.eye(_AZ_BINS + 1, _AZ_BINS, dtype=np.intp)
# the height quantiles of vertical coverage, as a column against windows
_HEIGHT_QS = np.array([[0.05], [0.95]])


def _histogram_bins(values: np.ndarray, span: float) -> np.ndarray:
    """Bin of each value in np.histogram(values, _AZ_BINS, range=(0, span)).

    values must be non-negative, as np.mod returns them; values past span
    get the out-of-range bin _AZ_BINS.  numpy estimates a bin as
    values / span * _AZ_BINS and moves it by one where it lies outside the
    linspace edges, closing the last bin at span.  That estimate is off by
    at most one bin, so its corrected bin is exactly the number of inner
    edges at or below the value, which one search against those edges
    gives.  The float just above span ends the last bin.
    """
    edges = _EDGE_STEPS * (span / _AZ_BINS)
    edges[-1] = math.nextafter(span, math.inf)
    return edges.searchsorted(values, side="right")


def _range_gate(
    points: np.ndarray,
    half_width: float,
    extent: tuple[float, float],
    prior_h: float,
) -> np.ndarray:
    """Keep the range cluster that best explains the detection.

    The frustum cone sweeps up bystanders: ground points, upper slices of
    nearer objects, and whole objects farther out. The detected object is
    the one the bbox was drawn around, so its points should fill the bbox:
    nearly the whole azimuth extent and roughly the class height. Stage 1
    slides a window of width 2*half_width over the sorted ground ranges,
    starting one at every stride-th point (stride = max(1, n // 96)), and
    scores each window by point count times azimuth coverage (the share of
    8 equal bins over the frustum extent that hold at least 4% of the
    window) times vertical coverage (5%-95% height span over the class
    height prior, capped at 1); flat ground scores near zero vertically,
    leaked slices score low on one of the coverages.  Azimuth coverage
    counts occupied bins rather than a quantile span: several disjoint
    bystander clusters in one window would fake a wide span, but they
    still leave most bins empty.  The first best window wins. Stage 2
    re-centers on the median range of the winning window and keeps all
    points within half_width of it.

    All windows are scored at once.  The points are gathered in range order
    once; each one's azimuth bin is found once, and every window's bin
    counts are differences of one prefix sum of one-hot bin rows.  The
    height quantiles come from one block holding each window's height ranks
    in a row, padded past the window's end with n and sorted row-wise:
    windows x largest window small integers, which sort faster than floats.
    Every window holds its first point, so np.quantile's past-the-end rule
    only fires for one-point windows; clipping the upper index gives that
    point, as +0.0 where numpy keeps -0.0.  That, and which of a tied -0.0
    and +0.0 a rank picks, only flips the sign of a zero span and score,
    which argmax does not tell apart.  The window holds every point ranged
    from its start to its end, so it opens at the first range tied with its
    start, and its median is np.median's: the middle value, or the mean of
    the two middle ones.
    """
    n = len(points)
    ranges = np.hypot(points[:, 0], points[:, 1])
    order = np.argsort(ranges, kind="stable")
    ordered = points[order]
    sorted_r = ranges[order]
    stride = max(1, n // 96)
    starts = np.arange(0, n, stride)
    ends = sorted_r.searchsorted(sorted_r[::stride] + 2.0 * half_width, side="right")
    lengths = ends - starts
    score = lengths
    az_width = (extent[1] - extent[0]) % (2.0 * math.pi)
    if az_width > 1e-9:
        rel_az = np.mod(np.arctan2(ordered[:, 1], ordered[:, 0]) - extent[0], 2.0 * math.pi)
        cumulative = np.zeros((n + 1, _AZ_BINS), dtype=np.intp)
        np.cumsum(_BIN_ONE_HOT[_histogram_bins(rel_az, az_width)], axis=0, out=cumulative[1:])
        counts = cumulative[ends] - cumulative[starts]
        # every window holds a point, so 0.04 * lengths > 0, and an integer
        # count reaches it exactly when it reaches max(1, ceil(0.04 * lengths))
        threshold = 0.04 * lengths
        score = score * ((counts >= threshold[:, None]).sum(axis=1) / _AZ_BINS)
    if prior_h > 1e-9:
        heights = ordered[:, 2]
        by_height = heights.argsort()
        # sorting height ranks sorts heights; a small integer type sorts fastest
        rank_type = np.promote_types(np.int16, np.min_scalar_type(n))
        ranks = np.empty(n, rank_type)
        ranks[by_height] = np.arange(n, dtype=rank_type)
        longest = int(lengths.max())
        padded = np.concatenate((ranks, np.full(longest, n, rank_type)))
        # row w views padded[starts[w] : starts[w] + longest]
        item = padded.itemsize
        windows = np.ndarray((len(starts), longest), rank_type, buffer=padded, strides=(stride * item, item))
        block = windows.copy()
        block[np.arange(longest, dtype=rank_type) >= lengths.astype(rank_type)[:, None]] = n
        block.sort(axis=1)
        # np.quantile's linear rule, one row per quantile
        virtual = (lengths - 1) * _HEIGHT_QS
        lower = np.floor(virtual)
        gamma = virtual - lower
        lo = lower.astype(np.intp)
        row = np.arange(len(starts))
        sorted_h = heights[by_height]
        a = sorted_h[block[row, lo]]
        b = sorted_h[block[row, np.minimum(lo + 1, lengths - 1)]]
        diff = b - a
        q05, q95 = np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)
        score = score * np.minimum((q95 - q05) / prior_h, 1.0)
    best = int(score.argmax())
    # the window runs from the first range tied with its start to its end
    first = int(sorted_r.searchsorted(sorted_r[best * stride], side="left"))
    middle, odd = divmod(first + int(ends[best]), 2)
    if odd:
        median = float(sorted_r[middle])
    else:
        below, above = sorted_r[middle - 1 : middle + 1].tolist()
        median = (below + above) / 2.0
    return points[np.abs(ranges - median) <= half_width]


def _principal_axis_angle(xy: np.ndarray) -> float:
    """Orientation of the dominant scatter direction, in (-pi/2, pi/2]."""
    n = len(xy)
    # .sum() / n is np.mean's own arithmetic, axis by axis
    u, v = (xy - xy.sum(axis=0) / n).T
    sxx = float((u * u).sum() / n)
    syy = float((v * v).sum() / n)
    sxy = float((u * v).sum() / n)
    angle = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    if angle <= -math.pi / 2.0:
        angle += math.pi
    elif angle > math.pi / 2.0:
        angle -= math.pi
    return angle


def _disambiguate(line_angle: float, reference: float) -> float:
    """Pick line_angle or its pi-flip so the result lies within
    (-pi/2, pi/2] of the reference direction."""
    diff = wrap_angle(line_angle - reference)
    if -math.pi / 2.0 < diff <= math.pi / 2.0:
        return wrap_angle(line_angle)
    return wrap_angle(line_angle + math.pi)


def _linear_rule(n: int, q: float) -> tuple[int, int, float]:
    """np.quantile's default ('linear') rule for the q quantile of n sorted
    values: the indices of the two values it blends and the weight of the
    second.  A virtual index (n - 1) * q at or past the last value takes
    the last value, at numpy's previous index -1."""
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return n - 1, n - 1, virtual + 1.0
    lower = math.floor(virtual)
    return lower, lower + 1, virtual - lower


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile blend: from b once t >= 0.5, so t = 1 gives b."""
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _trimmed_extents(rows: np.ndarray, quantile: float) -> np.ndarray:
    """The quantile and 1 - quantile points of each row, as np.quantile
    gives them: row w's are [0, w] and [1, w] of the (2, W) result.  One
    row-wise sort, then numpy's arithmetic on the four values each row
    needs, in Python floats: the same IEEE operations."""
    n = rows.shape[1]
    lo_a, lo_b, lo_t = _linear_rule(n, quantile)
    hi_a, hi_b, hi_t = _linear_rule(n, 1.0 - quantile)
    picked = np.sort(rows, axis=1)[:, [lo_a, lo_b, hi_a, hi_b]].tolist()
    return np.array(
        [
            [_lerp(row[0], row[1], lo_t) for row in picked],
            [_lerp(row[2], row[3], hi_t) for row in picked],
        ]
    )


def estimate_box(frustum: Frustum, class_id: str, cfg: EstimatorConfig) -> Box3D:
    """Fit an oriented box to a frustum's points.

    Deterministic and invariant to point order.  Raises TooFewPoints when
    the frustum holds fewer than cfg.min_points points, KeyError when the
    class has no dimension prior.  The frustum keeps the outcome under the
    class and the config object's id (a config holds a dict, so it cannot
    be hashed; it is kept with the outcome, so no later config takes its
    id): a repeated call returns the same Box3D, or raises a fresh
    TooFewPoints with the same message.
    """
    prior = cfg.dim_priors[class_id]
    key = (class_id, id(cfg))
    fit = frustum.boxes.get(key)
    if fit is None:
        fit = frustum.boxes[key] = (cfg, _fit(frustum, prior, cfg))
    if isinstance(fit[1], str):
        raise TooFewPoints(fit[1])
    return fit[1]


def _fit(frustum: Frustum, prior, cfg: EstimatorConfig) -> Box3D | str:
    """estimate_box's work: the box, or TooFewPoints' message."""
    points = np.asarray(frustum.points, dtype=float).reshape(-1, 3)
    if len(points) < cfg.min_points:
        return f"{len(points)} points < min_points {cfg.min_points}"
    gate = max(cfg.range_gate_m, 0.75 * math.hypot(prior[0], prior[1]))
    gated = _range_gate(points, gate, frustum.extent, prior[2])
    if len(gated) < cfg.min_points:
        gated = points
    if cfg.yaw_mode == "frustum-axis":
        yaw = frustum.central_axis
    else:
        line = _principal_axis_angle(gated[:, :2])
        yaw = _disambiguate(line, frustum.central_axis)
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    x_col, y_col = gated[:, 0], gated[:, 1]
    # rows: along (x cos + y sin) and across (-x sin + y cos) the yaw
    (lo_along, lo_across), (hi_along, hi_across) = _trimmed_extents(
        np.array([x_col * cos_y + y_col * sin_y, -x_col * sin_y + y_col * cos_y]),
        cfg.extent_quantile,
    ).tolist()
    center_along = 0.5 * (lo_along + hi_along)
    center_across = 0.5 * (lo_across + hi_across)
    x = center_along * cos_y - center_across * sin_y
    y = center_along * sin_y + center_across * cos_y
    z_min, z_max = float(gated[:, 2].min()), float(gated[:, 2].max())
    dims = [
        min(max(extent, prior_dim), 2.0 * prior_dim)
        for extent, prior_dim in zip(
            (hi_along - lo_along, hi_across - lo_across, z_max - z_min), prior
        )
    ]
    return Box3D(x=x, y=y, z=0.5 * (z_min + z_max), l=dims[0], w=dims[1], h=dims[2], theta=yaw)

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
range, per-point azimuth bins turned into per-window counts by prefix
sums, and one +inf-padded block of per-window heights (windows x largest
window floats) sorted row-wise for the height quantiles. The winning
window's median range is read straight from the sorted ranges, and one
sorted two-row block of along- and across-yaw coordinates gives all four
planar extents in one quantile call. Bins, quantiles and the median follow
numpy's own arithmetic, so boxes are bit-identical to calling
np.histogram, np.quantile and np.median per window and per axis.
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

    dim_priors: dict = field(default_factory=lambda: dict(CLASS_DIMS))
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


def _linear_quantiles(rows: np.ndarray, lengths: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """np.quantile's default ('linear') quantiles of each row's leading values.

    rows is (W, L), each row sorted over its first lengths[w] entries; qs is
    a (K, 1) column of quantiles; the result is (K, W).  The index arithmetic
    is numpy's, so results match np.quantile bit for bit: virtual index
    (n - 1) * q, an index at or past the last entry takes the last value,
    and the interpolation switches to b - (b - a) * (1 - t) once t >= 0.5.
    """
    virtual = (lengths - 1) * qs
    lower = np.floor(virtual)
    above = virtual >= lengths - 1
    lower[above] = -1.0
    gamma = virtual - lower
    lo = np.where(above, lengths - 1, lower).astype(np.intp)
    hi = np.where(above, lengths - 1, lower + 1.0).astype(np.intp)
    row = np.arange(len(rows))
    a = rows[row, lo]
    b = rows[row, hi]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)


def _histogram_bins(values: np.ndarray, span: float) -> np.ndarray:
    """Bin of each value in np.histogram(values, _AZ_BINS, range=(0, span)).

    Same arithmetic and edge rules as numpy's uniform-bin path: the index
    is corrected against the linspace edges, the last bin is closed, and
    values outside [0, span] get the out-of-range bin _AZ_BINS.
    """
    # np.linspace(0.0, span, _AZ_BINS + 1): k * (span / _AZ_BINS), then span
    edges = np.arange(_AZ_BINS + 1.0) * (span / _AZ_BINS)
    edges[-1] = span
    keep = (values >= 0.0) & (values <= span)
    bins = np.where(keep, values / span * _AZ_BINS, 0.0).astype(np.intp)
    bins[bins == _AZ_BINS] -= 1
    bins[values < edges[bins]] -= 1
    bins[(values >= edges[bins + 1]) & (bins != _AZ_BINS - 1)] += 1
    bins[~keep] = _AZ_BINS
    return bins


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

    All windows are scored at once: the points are sorted by range once,
    each point's azimuth bin is computed once and every window's bin counts
    are differences of prefix sums, and the height quantiles come from one
    block holding each window's heights in a row, right-padded with +inf
    and sorted row-wise, so it takes windows x largest window floats.  Bin
    counts and quantiles reproduce np.histogram and np.quantile exactly.
    The window holds every point ranged from its start to its end, so it
    opens at the first range tied with its start, and its median is the
    middle value, or the mean of the two middle ones, as np.median takes it.
    """
    n = len(points)
    ranges = np.hypot(points[:, 0], points[:, 1])
    rel_az = np.mod(np.arctan2(points[:, 1], points[:, 0]) - extent[0], 2.0 * math.pi)
    az_width = (extent[1] - extent[0]) % (2.0 * math.pi)
    order = np.argsort(ranges, kind="stable")
    sorted_r = ranges[order]
    width = 2.0 * half_width
    stride = max(1, n // 96)
    starts = np.arange(0, n, stride)
    lengths = np.searchsorted(sorted_r, sorted_r[starts] + width, side="right") - starts
    score = lengths.astype(float)
    if az_width > 1e-9:
        bins = _histogram_bins(rel_az[order], az_width)
        in_bin = bins[:, None] == np.arange(_AZ_BINS)
        cumulative = np.zeros((n + 1, _AZ_BINS), dtype=np.intp)
        np.cumsum(in_bin, axis=0, out=cumulative[1:])
        counts = cumulative[starts + lengths] - cumulative[starts]
        threshold = np.maximum(1.0, np.ceil(0.04 * lengths))
        score = score * ((counts >= threshold[:, None]).sum(axis=1) / _AZ_BINS)
    if prior_h > 1e-9:
        longest = int(lengths.max())
        padded = np.concatenate((points[order, 2], np.full(longest, np.inf)))
        # row w views padded[starts[w] : starts[w] + longest]
        item = padded.itemsize
        windows = np.ndarray((len(starts), longest), float, buffer=padded, strides=(stride * item, item))
        block = np.where(np.arange(longest) < lengths[:, None], windows, np.inf)
        block.sort(axis=1)
        q05, q95 = _linear_quantiles(block, lengths, np.array([[0.05], [0.95]]))
        score = score * np.minimum((q95 - q05) / prior_h, 1.0)
    best = int(np.argmax(score))
    # the window runs from the first range tied with its start to its end
    first = int(np.searchsorted(sorted_r, sorted_r[starts[best]], side="left"))
    middle, odd = divmod(first + int(starts[best] + lengths[best]), 2)
    if odd:
        median = float(sorted_r[middle])
    else:
        median = float((sorted_r[middle - 1] + sorted_r[middle]) / 2.0)
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


def _trimmed_extents(rows: np.ndarray, quantile: float) -> np.ndarray:
    """The quantile and 1 - quantile points of each row, as np.quantile
    gives them: row w's are [0, w] and [1, w] of the (2, W) result."""
    return _linear_quantiles(
        np.sort(rows, axis=1),
        np.full(len(rows), rows.shape[1]),
        np.array([[quantile], [1.0 - quantile]]),
    )


def estimate_box(frustum: Frustum, class_id: str, cfg: EstimatorConfig) -> Box3D:
    """Fit an oriented box to a frustum's points.

    Deterministic and invariant to point order.  Raises TooFewPoints when
    the frustum holds fewer than cfg.min_points points, KeyError when the
    class has no dimension prior.
    """
    prior = cfg.dim_priors[class_id]
    points = np.asarray(frustum.points, dtype=float).reshape(-1, 3)
    if len(points) < cfg.min_points:
        raise TooFewPoints(f"{len(points)} points < min_points {cfg.min_points}")
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

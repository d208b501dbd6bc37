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

The fit runs on a ragged batch of frustums, their points concatenated,
with a fixed number of array operations instead of loops over windows:
the range gate scores every window of every frustum at once (see
_range_gate), and the rotation into each frustum's yaw runs over the
batch too.  What numpy computes in an order that depends on the array it
runs on stays per frustum: the sums behind the principal axis, the sort
of the along- and across-yaw rows whose quantiles give the planar
extents, and the height extremes.  Bins, quantiles and the median follow
numpy's own arithmetic, so boxes are bit-identical to calling
np.histogram, np.quantile and np.median per window and per axis, one
frustum at a time.

estimate_boxes fits a batch and keeps each box in its frustum by class and
config value, and estimate_box is its one-request call.  A frustum with
fewer than min_points points is never fitted: estimate_box raises
TooFewPoints for it from its size, so only boxes are kept.  The pipeline
hands estimate_boxes each variant's fits of a frame, so every later
estimate_box call on those frustums is a check of the frustum's size and
a lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .frustum import Frustum
from .scene import Box3D, wrap_angle
from .synthgen import CLASS_DIMS


class TooFewPoints(ValueError):
    """The frustum holds fewer points than the configured minimum."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Box fitting parameters, hashed by value without dim_priors.

    dim_priors: per-class (l, w, h) used as dimension floor (and 2x cap),
        each finite and positive.
    yaw_mode: 'pca' or 'frustum-axis'.
    min_points: frustums below this size raise TooFewPoints.
    range_gate_m: half-width floor of the median-range gate, finite.
    extent_quantile: symmetric trim fraction for planar extents.
    """

    dim_priors: dict[str, tuple[float, float, float]] = field(
        default_factory=lambda: dict(CLASS_DIMS), hash=False
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
        if not math.isfinite(self.range_gate_m):
            raise ValueError(f"range_gate_m must be finite, got {self.range_gate_m!r}")
        if not 0.0 <= self.extent_quantile < 0.5:
            raise ValueError("extent_quantile must be in [0, 0.5)")
        for class_id, prior in self.dim_priors.items():
            if not all(0.0 < dim < math.inf for dim in prior):
                raise ValueError(f"dim_priors[{class_id!r}] must be finite and positive, got {prior!r}")


_AZ_BINS = 8
# bin k's upper edge is k * (span / _AZ_BINS), as np.linspace spaces them
_EDGE_STEPS = np.arange(1.0, _AZ_BINS + 1.0)
# a product with it counts the true entries of each row of bin flags
_PER_BIN = np.ones(_AZ_BINS)
# the height quantiles of vertical coverage, as a column against windows
_HEIGHT_QS = np.array([[0.05], [0.95]])


def _below_edges(values: np.ndarray, span) -> np.ndarray:
    """Whether each value lies below each upper bin edge of
    np.histogram(values, _AZ_BINS, range=(0, span)): a (len(values),
    _AZ_BINS) block, so that a value's bin, _AZ_BINS past span, is
    _AZ_BINS less the number of edges it lies below.

    span is one float, or one per value.  values must be non-negative, as
    np.mod returns them; a value past span is below no edge, which puts it
    in the out-of-range bin _AZ_BINS.  numpy estimates a bin as
    values / span * _AZ_BINS and moves it by one where it lies outside the
    linspace edges, closing the last bin at span.  That estimate is off by
    at most one bin, so its corrected bin is exactly the number of inner
    edges at or below the value.  The float just above span ends the last
    bin.
    """
    span = np.asarray(span, dtype=float)[..., None]
    edges = _EDGE_STEPS * (span / _AZ_BINS)
    edges[..., -1] = np.nextafter(span[..., 0], np.inf)
    return values[:, None] < edges


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

    This is the one-frustum call of _range_gates, which gates a ragged
    batch: the frustums' points concatenated, segment s running from
    bounds[s] to bounds[s + 1].  Each segment is sorted by range on its
    own, and its window ends come from one search of its sorted ranges;
    from there on every array spans the whole batch, with windows and
    points in segment order.  Each point's azimuth bin is counted against
    its segment's edges, and every window's bin counts are differences of
    one prefix sum of one-hot bin rows over the batch.

    Height quantiles come from blocks of per-window height ranks: the ranks
    of all the batch's heights, one row per window gathered from a
    stride-1 view of them padded with the sentinel n, filled with n past
    the window's end and sorted row-wise, in the smallest integer type that
    holds n.  A window holds only its own segment's points, so ranking the
    whole batch at once orders each window's heights.  Every window holds
    its first point, so np.quantile's past-the-end rule only fires for
    one-point windows; clipping the upper index gives that point, as +0.0
    where numpy keeps -0.0.  That, and which of a tied -0.0 and +0.0 a rank
    picks, only flips the sign of a zero span and score, which argmax does
    not tell apart.

    Only the windows that can still win get a height block.  With finite
    coordinates, as every loaded cloud has, a window's azimuth-only score
    A (count times azimuth coverage) is a non-negative float and its
    vertical coverage c is at most 1, so its score rounds A * c to at most
    A * 1 = A: rounding is monotone, and a product with a factor of 1 is
    exact.  The score of the segment's first best window by A alone is one
    of its scores, so the segment's top score T is at least that bound.  A
    window with A below the bound scores at most A, strictly below T, and
    can be neither the best nor the first of the tied best windows, so
    argmax over the other windows, in window order, picks the same one.
    The bound's own window reaches it, so the set is never empty; a
    negative coverage only lowers the bound and widens the set.

    The window holds every point ranged from its start to its end, so it
    opens at the first range tied with its start, and its median is
    np.median's: the middle value, or the mean of the two middle ones.
    """
    bounds = (0, len(points))
    return points[_range_gates(points, bounds, (half_width,), (extent,), (prior_h,))]


def _range_gates(points, bounds, half_widths, extents, prior_hs) -> np.ndarray:
    """The mask of the points _range_gate keeps, for each segment
    points[bounds[s]:bounds[s + 1]] gated with half_widths[s], extents[s]
    and prior_hs[s]; every segment holds a point."""
    n = len(points)
    sizes = np.diff(bounds)
    ranges = np.hypot(points[:, 0], points[:, 1])
    orders, starts, ends = [], [], []
    for lo, hi, half_width in zip(bounds, bounds[1:], half_widths):
        seg = ranges[lo:hi]
        by_range = seg.argsort(kind="stable")
        sorted_seg = seg[by_range]
        stride = max(1, (hi - lo) // 96)
        orders.append(by_range)
        starts.append(np.arange(lo, hi, stride))
        ends.append(sorted_seg.searchsorted(sorted_seg[::stride] + 2.0 * half_width, side="right"))
    n_windows = list(map(len, starts))
    window_bounds = [0, *accumulate(n_windows)]
    order = np.concatenate(orders) + np.repeat(bounds[:-1], sizes)
    starts = np.concatenate(starts)
    ends = np.concatenate(ends) + np.repeat(bounds[:-1], n_windows)
    lengths = ends - starts
    sorted_r = ranges[order]
    ordered = points[order]
    score = lengths.astype(float)
    spans = np.array([(hi - lo) % (2.0 * math.pi) for lo, hi in extents])
    wide = spans > 1e-9
    if wide.any():
        first_az = np.repeat([lo for lo, _ in extents], sizes)
        rel_az = np.mod(np.arctan2(ordered[:, 1], ordered[:, 0]) - first_az, 2.0 * math.pi)
        # a value lies in the first bin whose upper edge it is below
        in_bin = _below_edges(rel_az, np.repeat(spans, sizes))
        np.not_equal(in_bin[:, 1:], in_bin[:, :-1], out=in_bin[:, 1:])
        cumulative = np.zeros((n + 1, _AZ_BINS), dtype=np.int32)
        np.cumsum(in_bin, axis=0, out=cumulative[1:])
        counts = cumulative[ends] - cumulative[starts]
        # every window holds a point, so 0.04 * lengths > 0, and an integer
        # count reaches it exactly when it reaches max(1, ceil(0.04 * lengths))
        covered = ((counts >= 0.04 * lengths[:, None]) @ _PER_BIN) / _AZ_BINS
        score = lengths * np.where(np.repeat(wide, n_windows), covered, 1.0)
    best = _first_best(score, window_bounds)
    tall = np.flatnonzero(np.array(prior_hs) > 1e-9)
    if len(tall):
        heights = ordered[:, 2]
        by_height = heights.argsort()
        # sorting height ranks sorts heights; a small integer type sorts fastest
        rank_type = np.promote_types(np.int16, np.min_scalar_type(n))
        ranks = np.empty(n, rank_type)
        ranks[by_height] = np.arange(n, dtype=rank_type)
        padded = np.concatenate((ranks, np.full(int(lengths.max()), n, rank_type)))
        window_h = np.repeat(prior_hs, n_windows)

        def scored(windows):
            span = _height_spans(heights[by_height], padded, starts[windows], lengths[windows])
            return score[windows] * np.minimum(span / window_h[windows], 1.0)

        bound = np.full(len(sizes), np.inf)
        bound[tall] = scored(best[tall])
        contenders = np.flatnonzero(~(score < np.repeat(bound, n_windows)))
        final = np.full(len(score), -np.inf)
        final[contenders] = scored(contenders)
        best[tall] = _first_best(final, window_bounds)[tall]
    # the window runs from the first range tied with its start to its end
    tie_head = np.ones(n, bool)
    np.not_equal(sorted_r[1:], sorted_r[:-1], out=tie_head[1:])
    tie_head[bounds[:-1]] = True
    run_first = np.maximum.accumulate(np.where(tie_head, np.arange(n), 0))
    middle, odd = np.divmod(run_first[starts[best]] + ends[best], 2)
    median = np.where(odd, sorted_r[middle], (sorted_r[middle - 1] + sorted_r[middle]) / 2.0)
    return np.abs(ranges - np.repeat(median, sizes)) <= np.repeat(half_widths, sizes)


def _first_best(values: np.ndarray, bounds) -> np.ndarray:
    """np.argmax of each segment values[bounds[s]:bounds[s + 1]], as an
    index into values."""
    return np.array([lo + int(values[lo:hi].argmax()) for lo, hi in zip(bounds, bounds[1:])])


def _height_spans(sorted_h, padded, starts, lengths) -> np.ndarray:
    """The 5%-95% height span of each window, as np.quantile gives it:
    padded holds the height rank of each point, in window order, followed
    by sentinels, and sorted_h the heights in rank order."""
    n = len(sorted_h)
    longest = int(lengths.max())
    rank_type, item = padded.dtype, padded.itemsize
    # row r views padded[r : r + longest]
    rows = np.ndarray((n, longest), rank_type, buffer=padded, strides=(item, item))
    block = rows[starts]
    # the rank type holds every length, and compares fastest
    block[np.arange(longest, dtype=rank_type) >= lengths.astype(rank_type)[:, None]] = n
    block.sort(axis=1)
    # np.quantile's linear rule, one row per quantile
    virtual = (lengths - 1) * _HEIGHT_QS
    lower = np.floor(virtual)
    gamma = virtual - lower
    lo = lower.astype(np.intp)
    row = np.arange(len(starts))
    a = sorted_h[block[row, lo]]
    b = sorted_h[block[row, np.minimum(lo + 1, lengths - 1)]]
    diff = b - a
    q05, q95 = np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)
    return q95 - q05


def _principal_axis_angles(xy: np.ndarray, bounds) -> list[float]:
    """Orientation of the dominant scatter direction of each segment
    xy[bounds[s]:bounds[s + 1]], in (-pi/2, pi/2].  Each sum runs on its
    segment's own slice, which numpy sums in the order it sums a frustum's
    own array: axis 0 of the (n, 2) view row by row, and a row pairwise,
    whether it is one row or one of three."""
    sizes = np.diff(bounds)
    pairs = list(zip(bounds, bounds[1:]))
    # .sum() / n is np.mean's own arithmetic, axis by axis
    means = np.array([xy[lo:hi].sum(axis=0) for lo, hi in pairs]) / sizes[:, None]
    u, v = (xy - np.repeat(means, sizes, axis=0)).T
    moments = np.array([u * u, v * v, u * v])
    angles = []
    for (lo, hi), n in zip(pairs, sizes.tolist()):
        sxx, syy, sxy = (moments[:, lo:hi].sum(axis=1) / n).tolist()
        angle = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
        if angle <= -math.pi / 2.0:
            angle += math.pi
        elif angle > math.pi / 2.0:
            angle -= math.pi
        angles.append(angle)
    return angles


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
    gives them: row w's are [0, w] and [1, w] of the (2, W) result.  The
    one-segment call of _segment_extents."""
    return np.array(_segment_extents(rows, (0, rows.shape[1]), quantile)[0])


def _segment_extents(rows: np.ndarray, bounds, quantile: float) -> list:
    """[[the quantile point of each row], [its 1 - quantile point]] of each
    segment rows[:, bounds[s]:bounds[s + 1]], in Python floats.  Each
    segment's rows are sorted apart, as a frustum's own rows are (which of
    a tied -0.0 and +0.0 comes first depends on the array sorted), and
    numpy's arithmetic on the four values each row needs runs in Python
    floats: the same IEEE operations."""
    ordered, picks, weights = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        ordered.append(np.sort(rows[:, lo:hi], axis=1))
        lo_a, lo_b, lo_t = _linear_rule(hi - lo, quantile)
        hi_a, hi_b, hi_t = _linear_rule(hi - lo, 1.0 - quantile)
        picks += [lo + lo_a, lo + lo_b, lo + hi_a, lo + hi_b]
        weights.append((lo_t, hi_t))
    picked = np.concatenate(ordered, axis=1)[:, picks].tolist()
    return [
        [
            [_lerp(row[4 * s], row[4 * s + 1], lo_t) for row in picked],
            [_lerp(row[4 * s + 2], row[4 * s + 3], hi_t) for row in picked],
        ]
        for s, (lo_t, hi_t) in enumerate(weights)
    ]


def estimate_box(frustum: Frustum, class_id: str, cfg: EstimatorConfig) -> Box3D:
    """Fit an oriented box to a frustum's points.

    Deterministic and invariant to point order.  Raises KeyError when the
    class has no dimension prior and TooFewPoints when the frustum holds
    fewer than cfg.min_points points, the latter from the frustum's size
    alone, at every call.  Otherwise a fit made for the class and an equal
    config is one lookup, so a repeated call returns the same Box3D; a fit
    not made yet is a batch of one.
    """
    prior = cfg.dim_priors[class_id]  # KeyError for a class without a prior
    if len(frustum) < cfg.min_points:
        raise TooFewPoints(f"{len(frustum)} points < min_points {cfg.min_points}")
    box = frustum.boxes.get((class_id, cfg))
    if box is None:
        _fit_batch([(frustum, class_id, prior)], cfg)
        box = frustum.boxes[class_id, cfg]
    return box


def estimate_boxes(requests, cfg: EstimatorConfig) -> None:
    """Fit every (frustum, class_id) request whose box its frustum does not
    keep yet, all in one pass, and keep each box in the frustum.

    A frustum keeps a box under the class and the config's value, so an
    equal config finds the same box.  A request whose class has no
    dimension prior, or whose frustum holds fewer than cfg.min_points
    points, is left to estimate_box, which raises its KeyError or
    TooFewPoints.
    """
    batch = {}  # (frustum, class) -> (frustum, class, prior), in request order
    for frustum, class_id in requests:
        prior = cfg.dim_priors.get(class_id)
        fittable = prior is not None and len(frustum) >= cfg.min_points
        if fittable and (class_id, cfg) not in frustum.boxes:
            batch.setdefault((frustum, class_id), (frustum, class_id, prior))
    if batch:
        _fit_batch(list(batch.values()), cfg)


def _fit_batch(batch, cfg: EstimatorConfig) -> None:
    """estimate_boxes' work: the box of each (frustum, class, prior) of
    batch, each frustum holding at least cfg.min_points points, kept in the
    frustum.  The frustums are gated, rotated and measured as one
    concatenated array; the sums, sorts and extremes of each frustum run on
    its own slice of it, as numpy's order of summation and its order of
    tied zeros depend on the array they run on."""
    fits = [  # (frustum, key, prior, points)
        (frustum, (class_id, cfg), prior, np.asarray(frustum.points, dtype=float).reshape(-1, 3))
        for frustum, class_id, prior in batch
    ]
    bounds = [0, *accumulate(len(points) for *_, points in fits)]
    points = np.concatenate([points for *_, points in fits])
    keep = _range_gates(
        points,
        bounds,
        [max(cfg.range_gate_m, 0.75 * math.hypot(prior[0], prior[1])) for _, _, prior, _ in fits],
        [frustum.extent for frustum, *_ in fits],
        [prior[2] for _, _, prior, _ in fits],
    )
    # a frustum whose gate keeps fewer than min_points is fitted to all
    kept = np.add.reduceat(keep, bounds[:-1], dtype=np.intp)
    refit = kept < cfg.min_points
    for s in np.flatnonzero(refit).tolist():
        keep[bounds[s] : bounds[s + 1]] = True
    gated = points[keep]
    bounds = [0, *accumulate(np.where(refit, np.diff(bounds), kept).tolist())]
    frustums = [frustum for frustum, *_ in fits]
    if cfg.yaw_mode == "frustum-axis":
        yaws = [frustum.central_axis for frustum in frustums]
    else:
        yaws = [
            _disambiguate(line, frustum.central_axis)
            for line, frustum in zip(_principal_axis_angles(gated[:, :2], bounds), frustums)
        ]
    sizes = np.diff(bounds)
    # math's cos and sin, as a frustum fitted alone uses
    cos_y = np.repeat([math.cos(yaw) for yaw in yaws], sizes)
    sin_y = np.repeat([math.sin(yaw) for yaw in yaws], sizes)
    x_col, y_col = gated[:, 0], gated[:, 1]
    # rows: along (x cos + y sin) and across (-x sin + y cos) the yaw
    extents = _segment_extents(
        np.array([x_col * cos_y + y_col * sin_y, -x_col * sin_y + y_col * cos_y]),
        bounds,
        cfg.extent_quantile,
    )
    for (frustum, key, prior, _), yaw, (lows, highs), lo, hi in zip(
        fits, yaws, extents, bounds, bounds[1:]
    ):
        (lo_along, lo_across), (hi_along, hi_across) = lows, highs
        cos_yaw, sin_yaw = math.cos(yaw), math.sin(yaw)
        center_along = 0.5 * (lo_along + hi_along)
        center_across = 0.5 * (lo_across + hi_across)
        x = center_along * cos_yaw - center_across * sin_yaw
        y = center_along * sin_yaw + center_across * cos_yaw
        heights = gated[lo:hi, 2]
        z_min, z_max = float(heights.min()), float(heights.max())
        dims = [
            min(max(extent, prior_dim), 2.0 * prior_dim)
            for extent, prior_dim in zip(
                (hi_along - lo_along, hi_across - lo_across, z_max - z_min), prior
            )
        ]
        box = Box3D(x=x, y=y, z=0.5 * (z_min + z_max), l=dims[0], w=dims[1], h=dims[2], theta=yaw)
        frustum.boxes[key] = box

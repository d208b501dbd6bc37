"""Detection metrics: 2D average precision and 3D center-distance metrics.

2D follows the common benchmark recipe: greedy score-descending matching at
an IoU threshold, one detection per ground truth, average precision sampled
at 40 equally spaced recall points (the interpolated precision at each), and
a difficulty gate that removes ground truth below a pixel-height / above a
truncation bound from the evaluation entirely.

3D follows the center-distance style: predictions match the nearest unmatched
same-class ground truth in the ground plane within a threshold; AP averages a
normalized precision-recall integral over several distance thresholds, and
matched pairs yield translation / scale / orientation error averages.  Each
class builds one distance table (every prediction's closeness to the ground
truth of its group, in score order) and runs one greedy pass over it per
distinct threshold; the pass at tp_error_threshold feeds the errors, so when
that threshold is one of the AP thresholds its matching runs once.

Regions: "all", and "overlap", what is visible in at least 2 cameras
(overlap_region_filter).  run, compare and eval-3d score a region through
pipeline.evaluate_boxes, with the overlap ground truth taken from the 2D
truth projections (pipeline.frame_truth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable

import numpy as np

from .scene import BBox2D, Box3D, CameraRig, box_corners, box_image_extents, wrap_angle

N_RECALL_SAMPLES_2D = 40
N_RECALL_SAMPLES_3D = 101
MIN_RECALL_3D = 0.1
MIN_PRECISION_3D = 0.1
# the per-class metrics evaluate_3d reports, in report order
METRICS_3D = ("ap", "ate", "ase", "aoe")
# the recalls each AP samples precision at; 3D AP averages those from the clip start on
_SAMPLE_RECALLS_2D = np.arange(1, N_RECALL_SAMPLES_2D + 1) / N_RECALL_SAMPLES_2D
_SAMPLE_RECALLS_3D = np.linspace(0.0, 1.0, N_RECALL_SAMPLES_3D)
_CLIP_START_3D = int(round(MIN_RECALL_3D * (N_RECALL_SAMPLES_3D - 1))) + 1


@dataclass(frozen=True)
class EvalConfig2D:
    """2D AP settings; defaults follow the Moderate difficulty convention."""

    iou_threshold: float = 0.5
    min_height_px: float = 25.0
    max_truncation: float = 0.30

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in (0, 1]")


@dataclass(frozen=True)
class EvalConfig3D:
    """3D metric settings.

    center_distance_thresholds: ground-plane match radii in meters.
    tp_error_threshold: the radius whose matches feed the error metrics.
    The region scored is no setting: run and compare score both, and
    eval-3d the one its --region flag names.
    """

    center_distance_thresholds: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    tp_error_threshold: float = 2.0

    def __post_init__(self):
        if not self.center_distance_thresholds:
            raise ValueError("need at least one center distance threshold")


@dataclass(frozen=True)
class Pred2D:
    group: Hashable
    class_id: str
    score: float
    bbox: BBox2D


@dataclass(frozen=True)
class Gt2D:
    group: Hashable
    class_id: str
    bbox: BBox2D
    height_px: float
    truncation: float


@dataclass(frozen=True)
class Pred3D:
    group: Hashable
    class_id: str
    score: float
    box: Box3D


@dataclass(frozen=True)
class Gt3D:
    group: Hashable
    class_id: str
    box: Box3D


def iou2d(a: BBox2D, b: BBox2D) -> float:
    """Intersection over union of two pixel boxes."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0.0 else 0.0


def score_order(preds) -> list[int]:
    """Indices of preds by descending score, index breaking ties."""
    return sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))


def _similarity_table(preds, gts, similarity) -> list:
    """One row per prediction, in score_order: (pred, key, candidates,
    ranked), where candidates is the ground truth of the prediction's group
    and class (its key) and ranked holds (similarity(pred, gt), index) of
    each candidate above -inf, highest first, on ties the first index first
    (a stable sort).  NaN never ranks, as it never compares true."""
    gt_by_key: dict = {}
    for g in gts:
        gt_by_key.setdefault((g.group, g.class_id), []).append(g)
    table = []
    for idx in score_order(preds):
        det = preds[idx]
        key = (det.group, det.class_id)
        candidates = gt_by_key.get(key, ())
        values = [(similarity(det, g), j) for j, g in enumerate(candidates)]
        ranked = sorted([e for e in values if e[0] > -math.inf], key=itemgetter(0), reverse=True)
        table.append((det, key, candidates, ranked))
    return table


def _greedy_pass(table, threshold) -> list:
    """Greedy matching over a _similarity_table: one prediction per ground
    truth.

    Each row's prediction takes the untaken candidate with the highest
    similarity at or above threshold, the first one on ties: the first
    untaken entry of its ranking, unless a value below threshold comes
    first.  Returns (pred, gt or None) per row, in row order.
    """
    taken: dict = {}  # key -> indices of its taken candidates
    out = []
    for det, key, candidates, ranked in table:
        used = taken.setdefault(key, set())
        match = None
        for value, j in ranked:
            if not value >= threshold:
                break
            if j not in used:
                used.add(j)
                match = candidates[j]
                break
        out.append((det, match))
    return out


def _greedy_match(preds, gts, similarity, threshold) -> list:
    """_greedy_pass over the _similarity_table of preds and gts."""
    return _greedy_pass(_similarity_table(preds, gts, similarity), threshold)


def _iou_of(pred, gt) -> float:
    return iou2d(pred.bbox, gt.bbox)


def _tp_flags(preds, gts, similarity, threshold) -> list[bool]:
    return [g is not None for _, g in _greedy_match(preds, gts, similarity, threshold)]


def _interpolated_precision_samples(tp_flags, n_gt, sample_recalls) -> np.ndarray:
    """Max precision at recall >= r for each sample r, from cumulative flags."""
    tp_cum = np.asarray(tp_flags, dtype=float).cumsum()
    counts = np.arange(1, len(tp_cum) + 1, dtype=float)
    recalls = tp_cum / n_gt
    # Suffix max gives the interpolated (monotone) precision envelope; a
    # sample past the final recall reads the 0 appended to it.
    envelope = np.append(np.maximum.accumulate((tp_cum / counts)[::-1])[::-1], 0.0)
    return envelope[np.searchsorted(recalls, sample_recalls, side="left")]


def ap_2d(predictions, ground_truth, cfg: EvalConfig2D) -> dict[str, float]:
    """Per-class 2D AP at 40 recall samples.

    Ground truth failing the difficulty gate (height below min_height_px or
    truncation above max_truncation) is removed before matching: it neither
    counts as a miss nor can absorb a detection.
    """
    kept = [
        g
        for g in ground_truth
        if g.height_px >= cfg.min_height_px and g.truncation <= cfg.max_truncation
    ]
    result = {}
    for cls in sorted({g.class_id for g in kept}):
        cls_gts = [g for g in kept if g.class_id == cls]
        cls_preds = [p for p in predictions if p.class_id == cls]
        flags = _tp_flags(cls_preds, cls_gts, _iou_of, cfg.iou_threshold)
        precs = _interpolated_precision_samples(flags, len(cls_gts), _SAMPLE_RECALLS_2D)
        result[cls] = float(np.mean(precs))
    return result


def _ground_distance(a: Box3D, b: Box3D) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _closeness(pred, gt) -> float:
    """Negated ground-plane distance (_ground_distance, inlined for speed):
    nearer is more similar, and -d >= -t exactly when d <= t."""
    return -math.hypot(pred.box.x - gt.box.x, pred.box.y - gt.box.y)


def match_3d(predictions, ground_truth, threshold: float):
    """Greedy score-descending matching by ground-plane center distance.

    Each prediction takes the nearest unmatched ground truth of its class and
    group within the threshold.  Returns matched (Pred3D, Gt3D) pairs.
    """
    pairs = _greedy_match(predictions, ground_truth, _closeness, -threshold)
    return [(p, g) for p, g in pairs if g is not None]


def aligned_iou3d(a: Box3D, b: Box3D) -> float:
    """3D IoU after aligning centers and yaw, i.e. on dimensions only."""
    inter = min(a.l, b.l) * min(a.w, b.w) * min(a.h, b.h)
    va = a.l * a.w * a.h
    vb = b.l * b.w * b.h
    union = va + vb - inter
    return inter / union if union > 0.0 else 0.0


def tp_errors(matched_pairs):
    """Mean translation, scale and orientation errors over matched
    (prediction, ground truth) pairs, each with a .box.

    ATE: mean ground-plane center distance (m).  ASE: mean 1 - aligned 3D
    IoU.  AOE: mean smallest absolute yaw difference, each term in [0, pi].
    Returns None (the no-matches sentinel) when there are no pairs.
    """
    pairs = [(p.box, g.box) for p, g in matched_pairs]
    if not pairs:
        return None
    ate = float(np.mean([_ground_distance(p, g) for p, g in pairs]))
    ase = float(np.mean([1.0 - aligned_iou3d(p, g) for p, g in pairs]))
    aoe = float(np.mean([abs(wrap_angle(p.theta - g.theta)) for p, g in pairs]))
    return ate, ase, aoe


def _normalized_ap(tp_flags, n_gt) -> float:
    """Precision sampled at 101 recall points, clipped below 10% recall and
    10% precision, then renormalized.

    The raw cumulative PR curve is collapsed to one knot per distinct recall,
    the first point of each run of equal recall (later points there only
    lower precision), and linearly interpolated between the knots; beyond
    the final recall precision is 0.
    """
    if n_gt <= 0 or not len(tp_flags):
        return 0.0
    tp_cum = np.asarray(tp_flags, dtype=float).cumsum()
    counts = np.arange(1, len(tp_cum) + 1, dtype=float)
    recalls = tp_cum / n_gt
    precisions = tp_cum / counts
    first = np.empty(len(recalls), dtype=bool)
    first[0] = True
    np.not_equal(recalls[1:], recalls[:-1], out=first[1:])
    sampled = np.interp(_SAMPLE_RECALLS_3D, recalls[first], precisions[first], right=0.0)
    clipped = np.maximum(sampled[_CLIP_START_3D:] - MIN_PRECISION_3D, 0.0)
    # the sum and division np.mean makes, without its dispatch
    return float(clipped.sum() / len(clipped)) / (1.0 - MIN_PRECISION_3D)


def ap_3d(predictions, ground_truth, cfg: EvalConfig3D) -> dict[str, float]:
    """Per-class 3D AP, averaged over the configured distance thresholds."""
    return {cls: row["ap"] for cls, row in evaluate_3d(predictions, ground_truth, cfg).items()}


def evaluate_3d(predictions, ground_truth, cfg: EvalConfig3D) -> dict[str, dict]:
    """AP plus error metrics per class; errors use matches at the configured
    tp_error_threshold and are None when that class has no matches.

    Each class builds one _similarity_table of closeness and runs one
    greedy pass over it per distinct threshold, tp_error_threshold included.
    """
    thresholds = cfg.center_distance_thresholds
    out = {}
    for cls in sorted({g.class_id for g in ground_truth}):
        cls_gts = [g for g in ground_truth if g.class_id == cls]
        cls_preds = [p for p in predictions if p.class_id == cls]
        table = _similarity_table(cls_preds, cls_gts, _closeness)
        passes = {t: _greedy_pass(table, -t) for t in {*thresholds, cfg.tp_error_threshold}}
        aps = [
            _normalized_ap([g is not None for _, g in passes[t]], len(cls_gts))
            for t in thresholds
        ]
        matched = [(p, g) for p, g in passes[cfg.tp_error_threshold] if g is not None]
        errors = tp_errors(matched)
        out[cls] = {
            "ap": float(np.mean(aps)),
            "ate": errors[0] if errors else None,
            "ase": errors[1] if errors else None,
            "aoe": errors[2] if errors else None,
            "num_gt": len(cls_gts),
            "num_pred": len(cls_preds),
            "num_matched": len(matched),
        }
    return out


def visible_camera_counts(rig: CameraRig, boxes) -> np.ndarray:
    """Per box, the number of rig cameras in which box3d_to_bbox2d gives a
    nonempty clipped bbox."""
    corners = box_corners(boxes)
    counts = np.zeros(len(corners), dtype=int)
    for cam in rig.cameras:
        counts += box_image_extents(cam, corners)[2]
    return counts


def visible_camera_count(rig: CameraRig, box: Box3D) -> int:
    """Number of rig cameras in which the box has a nonempty clipped bbox."""
    return int(visible_camera_counts(rig, [box])[0])


def overlap_region_filter(rig: CameraRig, objects):
    """Items (anything with a .box: scene objects, Gt3D, Pred3D) visible,
    as a nonempty clipped projection, in at least 2 cameras."""
    counts = visible_camera_counts(rig, [obj.box for obj in objects])
    return [obj for obj, n in zip(objects, counts) if n >= 2]

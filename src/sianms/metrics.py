"""Detection metrics: 2D average precision and 3D center-distance metrics.

2D follows the common benchmark recipe: greedy score-descending matching at
an IoU threshold, one detection per ground truth, average precision sampled
at 40 equally spaced recall points (the interpolated precision at each), and
a difficulty gate that removes ground truth below a pixel-height / above a
truncation bound from the evaluation entirely.

3D follows the center-distance style: predictions match the nearest unmatched
same-class ground truth in the ground plane within a threshold; AP averages a
normalized precision-recall integral over several distance thresholds, and
matched pairs yield translation / scale / orientation error averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .scene import BBox2D, Box3D, CameraRig, box_corners, box_image_extents, wrap_angle

N_RECALL_SAMPLES_2D = 40
N_RECALL_SAMPLES_3D = 101
MIN_RECALL_3D = 0.1
MIN_PRECISION_3D = 0.1
# the per-class metrics evaluate_3d reports, in report order
METRICS_3D = ("ap", "ate", "ase", "aoe")


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
    region: 'all' or 'overlap'; eval-3d keeps, for 'overlap', only what
    overlap_region_filter keeps.
    """

    center_distance_thresholds: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    tp_error_threshold: float = 2.0
    region: str = "all"

    def __post_init__(self):
        if not self.center_distance_thresholds:
            raise ValueError("need at least one center distance threshold")
        if self.region not in ("all", "overlap"):
            raise ValueError("region must be 'all' or 'overlap'")


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


def _greedy_match(preds, gts, similarity, threshold) -> list:
    """Greedy matching: one prediction per ground truth.

    Predictions are taken in score_order; each takes the untaken ground truth
    of its group and class with the highest similarity(pred, gt) at or above
    threshold, the first one on ties.  Returns (pred, gt or None) per
    prediction, in that order.
    """
    gt_by_key: dict = {}
    for g in gts:
        gt_by_key.setdefault((g.group, g.class_id), []).append(g)
    taken_by_key = {key: [False] * len(lst) for key, lst in gt_by_key.items()}
    out = []
    for idx in score_order(preds):
        det = preds[idx]
        key = (det.group, det.class_id)
        candidates, taken = gt_by_key.get(key, ()), taken_by_key.get(key)
        best, best_j = -math.inf, -1
        for j, g in enumerate(candidates):
            if taken[j]:
                continue
            value = similarity(det, g)
            if value >= threshold and value > best:
                best, best_j = value, j
        if best_j >= 0:
            taken[best_j] = True
            out.append((det, candidates[best_j]))
        else:
            out.append((det, None))
    return out


def _iou_of(pred, gt) -> float:
    return iou2d(pred.bbox, gt.bbox)


def _tp_flags(preds, gts, similarity, threshold) -> list[bool]:
    return [g is not None for _, g in _greedy_match(preds, gts, similarity, threshold)]


def _interpolated_precision_samples(tp_flags, n_gt, sample_recalls):
    """Max precision at recall >= r for each sample r, from cumulative flags."""
    tp_cum = np.cumsum(np.asarray(tp_flags, dtype=float))
    counts = np.arange(1, len(tp_flags) + 1, dtype=float)
    recalls = tp_cum / n_gt
    precisions = tp_cum / counts
    # Suffix max gives the interpolated (monotone) precision envelope.
    suffix = np.maximum.accumulate(precisions[::-1])[::-1] if len(precisions) else precisions
    out = []
    for r in sample_recalls:
        k = int(np.searchsorted(recalls, r, side="left")) if len(recalls) else 0
        out.append(float(suffix[k]) if k < len(recalls) else 0.0)
    return out


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
    samples = [(i + 1) / N_RECALL_SAMPLES_2D for i in range(N_RECALL_SAMPLES_2D)]
    result = {}
    for cls in sorted({g.class_id for g in kept}):
        cls_gts = [g for g in kept if g.class_id == cls]
        cls_preds = [p for p in predictions if p.class_id == cls]
        flags = _tp_flags(cls_preds, cls_gts, _iou_of, cfg.iou_threshold)
        precs = _interpolated_precision_samples(flags, len(cls_gts), samples)
        result[cls] = float(np.mean(precs)) if precs else 0.0
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
    """Mean translation, scale and orientation errors over matched pairs.

    ATE: mean ground-plane center distance (m).  ASE: mean 1 - aligned 3D
    IoU.  AOE: mean smallest absolute yaw difference, each term in [0, pi].
    Returns None (the no-matches sentinel) when there are no pairs.
    """
    pairs = []
    for p, g in matched_pairs:
        pairs.append(
            (p.box if hasattr(p, "box") else p, g.box if hasattr(g, "box") else g)
        )
    if not pairs:
        return None
    ate = float(np.mean([_ground_distance(p, g) for p, g in pairs]))
    ase = float(np.mean([1.0 - aligned_iou3d(p, g) for p, g in pairs]))
    aoe = float(np.mean([abs(wrap_angle(p.theta - g.theta)) for p, g in pairs]))
    return ate, ase, aoe


def _normalized_ap(tp_flags, n_gt) -> float:
    """Precision sampled at 101 recall points, clipped below 10% recall and
    10% precision, then renormalized.

    The raw cumulative PR curve is collapsed to one point per distinct
    recall (keeping the highest precision reached there) and linearly
    interpolated between those points; beyond the final recall precision is 0.
    """
    if n_gt <= 0:
        return 0.0
    tp_cum = np.cumsum(np.asarray(tp_flags, dtype=float))
    counts = np.arange(1, len(tp_flags) + 1, dtype=float)
    recalls = tp_cum / n_gt
    precisions = tp_cum / counts
    knots_r = []
    knots_p = []
    for r, p in zip(recalls, precisions):
        if knots_r and r == knots_r[-1]:
            continue  # later points at equal recall only lower precision
        knots_r.append(float(r))
        knots_p.append(float(p))
    sample_recalls = np.linspace(0.0, 1.0, N_RECALL_SAMPLES_3D)
    if knots_r:
        sampled = np.interp(sample_recalls, knots_r, knots_p, right=0.0)
    else:
        sampled = np.zeros_like(sample_recalls)
    start = int(round(MIN_RECALL_3D * (N_RECALL_SAMPLES_3D - 1))) + 1
    clipped = np.maximum(sampled[start:] - MIN_PRECISION_3D, 0.0)
    return float(np.mean(clipped)) / (1.0 - MIN_PRECISION_3D)


def ap_3d(predictions, ground_truth, cfg: EvalConfig3D) -> dict[str, float]:
    """Per-class 3D AP, averaged over the configured distance thresholds."""
    return {cls: row["ap"] for cls, row in evaluate_3d(predictions, ground_truth, cfg).items()}


def evaluate_3d(predictions, ground_truth, cfg: EvalConfig3D) -> dict[str, dict]:
    """AP plus error metrics per class; errors use matches at the configured
    tp_error_threshold and are None when that class has no matches."""
    out = {}
    for cls in sorted({g.class_id for g in ground_truth}):
        cls_gts = [g for g in ground_truth if g.class_id == cls]
        cls_preds = [p for p in predictions if p.class_id == cls]
        aps = [
            _normalized_ap(_tp_flags(cls_preds, cls_gts, _closeness, -threshold), len(cls_gts))
            for threshold in cfg.center_distance_thresholds
        ]
        matched = match_3d(cls_preds, cls_gts, cfg.tp_error_threshold)
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
        counts += box_image_extents(cam, corners)[1]
    return counts


def visible_camera_count(rig: CameraRig, box: Box3D) -> int:
    """Number of rig cameras in which the box has a nonempty clipped bbox."""
    return int(visible_camera_counts(rig, [box])[0])


def overlap_region_filter(rig: CameraRig, objects):
    """Items (anything with a .box: scene objects, Gt3D, Pred3D) visible,
    as a nonempty clipped projection, in at least 2 cameras."""
    counts = visible_camera_counts(rig, [obj.box for obj in objects])
    return [obj for obj, n in zip(objects, counts) if n >= 2]

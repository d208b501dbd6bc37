"""Independent reference implementations used to cross-check the package.

Deliberately built on different primitives than the library: scipy supplies
rotations, assignments come from exhaustive enumeration, precision-recall
curves are scanned directly from their definition, and the estimator's
range gate is a loop calling np.quantile and np.histogram per window.  Slow
and obvious beats fast with shared blind spots.

The functions from box3d_to_bbox2d_reference on are the plain versions that
faster code in the package replaced: per-point and per-box loops, the
nested-list scene writer, the detections file through json.dumps, the row
loader's np.asarray, rng.choice, the loss primitives as first written, the box
estimator with np.quantile extents and the np.median gate, the tuple-loop
frustum merge, the array-only wrap_angle, the detector stand-in that
calls embedding_provider for every detection and the frustum filter that
projects the whole cloud for each bbox.  The package must give their results
bit for bit.

From tp_flags_2d_reference on are the code that one implementation per
concept replaced: the three greedy matchers, the hand-written config, report
and rig (de)serializers, and the six table renderers of run, compare, eval-3d
and eval-reid.  The package must give the same matches, dicts and bytes.

From box_corners_one_box_reference on are the code that one distance table
per class and one stacked corner product replaced: per-box corners,
evaluate_3d running the greedy matcher once per threshold plus once for the
errors, the 3D AP knots collected in a Python loop and the 2D samples
searched one at a time.  The package must give their results bit for bit.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
from scipy.spatial.transform import Rotation

from sianms.estimator import EstimatorConfig
from sianms.frustum import EmptyFrustum, Frustum, MergeRejected, _combined_hull
from sianms.losses import BatchLossBreakdown, BatchLossGrads, LossConfig, ohem_select, smooth_l1
from sianms.metrics import (
    N_RECALL_SAMPLES_3D,
    MIN_PRECISION_3D,
    MIN_RECALL_3D,
    EvalConfig2D,
    EvalConfig3D,
    iou2d,
    score_order,
    tp_errors,
)
from sianms.pipeline import VARIANT_ORDER, PipelineConfig, RunReport, Variant
from sianms.scene import (
    DEPTH_EPSILON,
    BBox2D,
    Detection2D,
    angular_extent,
    box_corners,
    box_image_extents,
    extent_midpoint,
    project_points,
)
from sianms.sceneio import _box_to_list
from sianms.synthgen import GenSpec, _visible_faces, embedding_provider


def brute_force_assignment(costs, masked=None):
    """Best assignment by exhaustive search: (n_real_pairs, total_cost).

    Best means the most real (in-bounds, unmasked) pairs, with the smallest
    summed cost among those.  Feasible up to about 7x7.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.size == 0:
        return 0, 0.0
    n_rows, n_cols = costs.shape
    if masked is None:
        masked = np.zeros((n_rows, n_cols), dtype=bool)
    n = max(n_rows, n_cols)
    best_key = None
    best = (0, 0.0)
    for perm in itertools.permutations(range(n)):
        count = 0
        total = 0.0
        for i in range(n_rows):
            j = perm[i]
            if j < n_cols and not masked[i, j]:
                count += 1
                total += costs[i, j]
        key = (-count, total)
        if best_key is None or key < best_key:
            best_key = key
            best = (count, total)
    return best


def rotation_of(pose) -> np.ndarray:
    """Camera-to-vehicle rotation matrix via scipy (pose.q is w-first)."""
    w, x, y, z = pose.q
    return Rotation.from_quat([x, y, z, w]).as_matrix()


def project_reference(cam, points, depth_epsilon=1e-6):
    """(u, v, valid) arrays computed along an independent code path."""
    rot = rotation_of(cam.pose)
    t = np.asarray(cam.pose.t, dtype=float)
    local = (np.asarray(points, dtype=float).reshape(-1, 3) - t) @ rot
    depth = local[:, 2]
    valid = depth > depth_epsilon
    safe = np.where(valid, depth, 1.0)
    u = cam.cx + cam.fx * local[:, 0] / safe
    v = cam.cy + cam.fy * local[:, 1] / safe
    return u, v, valid


def inside_bbox_reference(cam, bbox, points, depth_epsilon=1e-6):
    """Frustum membership predicate: projects with scipy's rotation."""
    u, v, valid = project_reference(cam, points, depth_epsilon)
    return (
        valid
        & (u >= bbox.x_min)
        & (u <= bbox.x_max)
        & (v >= bbox.y_min)
        & (v <= bbox.y_max)
    )


def box_corners_reference(box) -> np.ndarray:
    """The 8 corners of an oriented box, rotated via scipy."""
    rot = Rotation.from_euler("z", box.theta).as_matrix()
    half = np.array([box.l, box.w, box.h]) / 2.0
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    return (signs * half) @ rot.T + np.array([box.x, box.y, box.z])


def clipped_bbox_reference(cam, box):
    """Clipped image bbox of a 3D box, or None; independent projection path."""
    u, v, valid = project_reference(cam, box_corners_reference(box))
    if not np.any(valid):
        return None
    x_min = max(min(float(u[valid].min()), cam.width), 0.0)
    x_max = max(min(float(u[valid].max()), cam.width), 0.0)
    y_min = max(min(float(v[valid].min()), cam.height), 0.0)
    y_max = max(min(float(v[valid].max()), cam.height), 0.0)
    if x_max - x_min <= 0.0 or y_max - y_min <= 0.0:
        return None
    return x_min, y_min, x_max, y_max


def count_detectable(rig, objects, cloud, min_points):
    """How many (object, camera) views should survive the box flow.

    A view counts when the object's clipped projection is nonempty and at
    least min_points cloud points fall inside it; midline duplicates from
    multi-camera visibility are counted once per camera, which is exactly
    what a per-detection box flow emits.
    """
    count = 0
    for obj in objects:
        for cam in rig.cameras:
            bbox = clipped_bbox_reference(cam, obj.box)
            if bbox is None:
                continue
            x_min, y_min, x_max, y_max = bbox
            u, v, valid = project_reference(cam, cloud)
            inside = (
                valid & (u >= x_min) & (u <= x_max) & (v >= y_min) & (v <= y_max)
            )
            if int(np.count_nonzero(inside)) >= min_points:
                count += 1
    return count


def iou2d_reference(a, b) -> float:
    """Rect intersection over union from the raw coordinates."""
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def _greedy_flags_2d(preds, gts, iou_threshold):
    """True/False per prediction in score order, one prediction per truth."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    taken = [False] * len(gts)
    flags = []
    for idx in order:
        det = preds[idx]
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(gts):
            if taken[j] or g.group != det.group or g.class_id != det.class_id:
                continue
            value = iou2d_reference(det.bbox, g.bbox)
            if value >= iou_threshold and value > best_iou:
                best_iou, best_j = value, j
        if best_j >= 0:
            taken[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def ap2d_reference(preds, gts, iou_threshold, n_samples=40) -> float:
    """Interpolated AP scanned directly: for each sampled recall, the maximum
    precision among curve points at or beyond it."""
    if not gts:
        return 0.0
    flags = _greedy_flags_2d(preds, gts, iou_threshold)
    recalls, precisions = [], []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += int(flag)
        recalls.append(tp / len(gts))
        precisions.append(tp / k)
    total = 0.0
    for s in range(1, n_samples + 1):
        r = s / n_samples
        best = 0.0
        for rec, p in zip(recalls, precisions):
            if rec >= r and p > best:
                best = p
        total += best
    return total / n_samples


def normalized_ap3d_reference(tp_flags, n_gt) -> float:
    """101-point sampled AP with the low-recall / low-precision clip,
    interpolating between distinct-recall curve points by hand."""
    if n_gt <= 0:
        return 0.0
    knots = []
    tp = 0
    for k, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        r, p = tp / n_gt, tp / k
        if knots and r == knots[-1][0]:
            continue
        knots.append((r, p))
    sampled = []
    for r in np.linspace(0.0, 1.0, 101):
        if not knots:
            sampled.append(0.0)
            continue
        if r <= knots[0][0]:
            sampled.append(knots[0][1])
            continue
        if r > knots[-1][0]:
            sampled.append(0.0)
            continue
        value = 0.0
        for (r0, p0), (r1, p1) in zip(knots, knots[1:]):
            if r0 <= r <= r1:
                w = 0.0 if r1 == r0 else (r - r0) / (r1 - r0)
                value = p0 + w * (p1 - p0)
                break
        sampled.append(value)
    clipped = [max(v - 0.1, 0.0) for v in sampled[11:]]
    return (sum(clipped) / len(clipped)) / 0.9


def _greedy_flags_3d(preds, gts, threshold):
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    taken = [False] * len(gts)
    flags = []
    for idx in order:
        det = preds[idx]
        best_dist, best_j = math.inf, -1
        for j, g in enumerate(gts):
            if taken[j] or g.group != det.group or g.class_id != det.class_id:
                continue
            dist = math.hypot(det.box.x - g.box.x, det.box.y - g.box.y)
            if dist <= threshold and dist < best_dist:
                best_dist, best_j = dist, j
        if best_j >= 0:
            taken[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def ap3d_reference(preds, gts, thresholds) -> float:
    """Distance-threshold-averaged 3D AP for one class."""
    values = []
    for threshold in thresholds:
        flags = _greedy_flags_3d(preds, gts, threshold)
        values.append(normalized_ap3d_reference(flags, len(gts)))
    return float(np.mean(values))


def full_surface_sample(box, n, rng) -> np.ndarray:
    """Area-weighted uniform sample over all six faces of a box."""
    rot = Rotation.from_euler("z", box.theta).as_matrix()
    ex, ey, ez = rot[:, 0], rot[:, 1], rot[:, 2]
    center = np.array([box.x, box.y, box.z])
    hl, hw, hh = box.l / 2.0, box.w / 2.0, box.h / 2.0
    faces = [
        (center + hl * ex, ey, ez, hw, hh),
        (center - hl * ex, ey, ez, hw, hh),
        (center + hw * ey, ex, ez, hl, hh),
        (center - hw * ey, ex, ez, hl, hh),
        (center + hh * ez, ex, ey, hl, hw),
        (center - hh * ez, ex, ey, hl, hw),
    ]
    areas = np.array([4.0 * hu * hv for _, _, _, hu, hv in faces])
    choice = rng.choice(len(faces), size=n, p=areas / areas.sum())
    ou = rng.uniform(-1.0, 1.0, n)
    ov = rng.uniform(-1.0, 1.0, n)
    out = np.empty((n, 3))
    for k in range(n):
        face_center, au, av, hu, hv = faces[choice[k]]
        out[k] = face_center + ou[k] * hu * au + ov[k] * hv * av
    return out


def central_difference(f, x, h=1e-6) -> float:
    """Two-sided difference quotient of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def grad_check(f, x, analytic, h=1e-6, rel_tol=1e-5):
    """Compare an analytic gradient against central differences, per
    coordinate of a flat vector input; returns the worst relative error."""
    x = np.asarray(x, dtype=float)
    worst = 0.0
    for k in range(x.size):
        def slice_fn(value, k=k):
            probe = x.copy()
            probe[k] = value
            return f(probe)

        numeric = central_difference(slice_fn, x[k], h)
        scale = max(abs(numeric), abs(float(analytic[k])), 1.0)
        worst = max(worst, abs(numeric - float(analytic[k])) / scale)
    assert worst < rel_tol, f"gradient mismatch: relative error {worst}"
    return worst


def _span_coverage_reference(values, full_span):
    """Fraction of full_span covered by the central 90% of values, capped at 1."""
    if full_span <= 1e-9:
        return 1.0
    span = float(np.quantile(values, 0.95) - np.quantile(values, 0.05))
    return min(span / full_span, 1.0)


def _bin_coverage_reference(values, full_span, n_bins=8):
    """Fraction of n_bins histogram bins over [0, full_span] holding at
    least 4% of the values."""
    if full_span <= 1e-9:
        return 1.0
    counts, _ = np.histogram(values, bins=n_bins, range=(0.0, full_span))
    threshold = max(1, math.ceil(0.04 * len(values)))
    return float(np.count_nonzero(counts >= threshold)) / n_bins


def range_gate_reference(points, half_width, extent, prior_h):
    """The estimator's range gate as a plain loop over windows.

    Each window of width 2*half_width, started at every stride-th point in
    range order, is scored by its size times its azimuth-bin coverage
    (np.histogram) times its 5%-95% height span over prior_h (np.quantile);
    the points within half_width of the winning window's median range are
    kept.
    """
    ranges = np.hypot(points[:, 0], points[:, 1])
    rel_az = np.mod(np.arctan2(points[:, 1], points[:, 0]) - extent[0], 2.0 * math.pi)
    az_width = (extent[1] - extent[0]) % (2.0 * math.pi)
    order = np.argsort(ranges, kind="stable")
    sorted_r = ranges[order]
    width = 2.0 * half_width
    ends = np.searchsorted(sorted_r, sorted_r + width, side="right")
    stride = max(1, len(sorted_r) // 96)
    best_score, best_start = -1.0, 0
    for start in range(0, len(sorted_r), stride):
        members = order[start : ends[start]]
        score = (
            len(members)
            * _bin_coverage_reference(rel_az[members], az_width)
            * _span_coverage_reference(points[members, 2], prior_h)
        )
        if score > best_score:
            best_score, best_start = score, start
    in_window = (ranges >= sorted_r[best_start]) & (
        ranges <= sorted_r[best_start] + width
    )
    median = float(np.median(ranges[in_window]))
    return points[np.abs(ranges - median) <= half_width]


def bbox2d_via_project_points(cam, box, clip=True):
    """(x_min, y_min, x_max, y_max) of box3d_to_bbox2d, or None, computed by
    building the corners one by one and projecting them with
    scene.project_points."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    half = (box.l / 2.0, box.w / 2.0, box.h / 2.0)
    local = np.array(
        [
            [sx * half[0], sy * half[1], sz * half[2]]
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
            for sz in (-1.0, 1.0)
        ]
    )
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    uv, _, valid = project_points(cam, local @ rot.T + box.center)
    if not np.any(valid):
        return None
    x_min, x_max = float(uv[valid, 0].min()), float(uv[valid, 0].max())
    y_min, y_max = float(uv[valid, 1].min()), float(uv[valid, 1].max())
    if clip:
        x_min = min(max(x_min, 0.0), cam.width)
        x_max = min(max(x_max, 0.0), cam.width)
        y_min = min(max(y_min, 0.0), cam.height)
        y_max = min(max(y_max, 0.0), cam.height)
    if x_max - x_min <= 0.0 or y_max - y_min <= 0.0:
        return None
    return x_min, y_min, x_max, y_max


def visible_camera_count_reference(rig, box) -> int:
    """Cameras in which the box has a nonempty clipped bbox, one
    box3d_to_bbox2d_reference call per camera."""
    return sum(1 for cam in rig.cameras if box3d_to_bbox2d_reference(cam, box) is not None)


def box3d_to_bbox2d_reference(cam, box, clip=True):
    """scene.box3d_to_bbox2d for one box and camera."""
    p_cam = (box.corners() - cam.pose.translation) @ cam.pose.rotation
    p_cam = p_cam[p_cam[:, 2] > DEPTH_EPSILON]
    if not len(p_cam):
        return None
    uv = np.array([cam.cx, cam.cy]) + np.array([cam.fx, cam.fy]) * p_cam[:, :2] / p_cam[:, 2:]
    (x_min, y_min), (x_max, y_max) = uv.min(axis=0).tolist(), uv.max(axis=0).tolist()
    if clip:
        x_min = min(max(x_min, 0.0), cam.width)
        x_max = min(max(x_max, 0.0), cam.width)
        y_min = min(max(y_min, 0.0), cam.height)
        y_max = min(max(y_max, 0.0), cam.height)
    if x_max - x_min <= 0.0 or y_max - y_min <= 0.0:
        return None
    return BBox2D(x_min, y_min, x_max, y_max)


def sample_surface_points_reference(box, n_points, rng) -> np.ndarray:
    """synthgen.sample_surface_points, one point per loop step."""
    faces = _visible_faces(box)
    if not faces or n_points <= 0:
        return np.zeros((0, 3))
    areas = np.array([4.0 * hu * hv for _, _, _, hu, hv in faces])
    choices = rng.choice(len(faces), size=n_points, p=areas / areas.sum())
    offsets_u = rng.uniform(-1.0, 1.0, size=n_points)
    offsets_v = rng.uniform(-1.0, 1.0, size=n_points)
    pts = np.empty((n_points, 3))
    for i, (face_idx, ou, ov) in enumerate(zip(choices, offsets_u, offsets_v)):
        center, axis_u, axis_v, hu, hv = faces[face_idx]
        pts[i] = center + ou * hu * axis_u + ov * hv * axis_v
    return pts


def inline_scene_text_reference(scene) -> str:
    """The text sceneio.write_scene writes for a scene with inline clouds:
    the whole payload, clouds as nested lists, through one json.dumps."""
    frames = []
    for frame in scene.frames:
        cloud = np.asarray(frame.cloud, dtype=float)
        frames.append(
            {
                "index": frame.index,
                "objects": [
                    {"uid": obj.uid, "class": obj.class_id, "box": _box_to_list(obj.box)}
                    for obj in frame.objects
                ],
                "lidar": {"inline": [[float(v) for v in row] for row in cloud]},
            }
        )
    payload = {"rig": rig_to_dict_reference(scene.rig), "frames": frames}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def detection_records(detections_by_frame: dict) -> list[dict]:
    """Flatten {frame: [Detection2D]} into the detections file payload."""
    records = []
    for frame_index in sorted(detections_by_frame):
        for det in detections_by_frame[frame_index]:
            record = {
                "frame": frame_index,
                "camera_id": det.camera_id,
                "bbox": [det.bbox.x_min, det.bbox.y_min, det.bbox.x_max, det.bbox.y_max],
                "class": det.class_id,
                "score": det.score,
            }
            if det.embedding is not None:
                record["embedding"] = [float(v) for v in det.embedding]
            if det.truth_uid is not None:
                record["truth_uid"] = det.truth_uid
            records.append(record)
    return records


def detections_text_reference(detections_by_frame) -> str:
    """The text sceneio.write_detections writes: detection_records through
    one json.dumps with the pure-Python indent-2 encoder."""
    return json.dumps(detection_records(detections_by_frame), indent=2, sort_keys=True) + "\n"


def float_rows_reference(rows, length) -> np.ndarray:
    """sceneio._float_rows on rows that pass its checks: np.asarray on the
    list of row lists."""
    return np.asarray(rows, dtype=float).reshape(-1, length)


def choice_reference(p, rng, size=None):
    """synthgen._choice: numpy's weighted draw of size indices below len(p)."""
    return rng.choice(len(p), size=size, p=p)


def cross_entropy_reference(logits, true_class):
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or len(z) == 0:
        raise ValueError("logits must be a nonempty vector")
    if not 0 <= true_class < len(z):
        raise ValueError(f"true_class {true_class} out of range for {len(z)} logits")
    shift = z - z.max()
    log_norm = float(np.log(np.sum(np.exp(shift))))
    value = log_norm - float(shift[true_class])
    softmax = np.exp(shift - log_norm)
    grad = softmax.copy()
    grad[true_class] -= 1.0
    return value, grad


def positive_pair_term_reference(a, b, cfg):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a - b
    dist = float(np.linalg.norm(diff))
    margin = dist - cfg.alpha
    if margin <= 0.0 or dist == 0.0:
        zero = np.zeros_like(a)
        return 0.5 * max(margin, 0.0) ** 2, zero, zero.copy()
    grad_a = (margin / dist) * diff
    return 0.5 * margin * margin, grad_a, -grad_a


def negative_pair_term_reference(a, b, cfg):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a - b
    dist = float(np.linalg.norm(diff))
    margin = cfg.beta - dist
    if margin <= 0.0:
        zero = np.zeros_like(a)
        return 0.0, zero, zero.copy()
    value = 0.5 * margin * margin
    if dist == 0.0:
        zero = np.zeros_like(a)
        return value, zero, zero.copy()
    grad_a = (-margin / dist) * diff
    return value, grad_a, -grad_a


def _reid_loss_reference(foregrounds, cfg):
    grads = {(i, j): np.zeros_like(emb) for i, j, emb, _ in foregrounds}
    if len(foregrounds) < 2:
        return 0.0, grads
    positives = []
    negatives = []
    for ia in range(len(foregrounds)):
        for ib in range(ia + 1, len(foregrounds)):
            pair = (foregrounds[ia], foregrounds[ib])
            if pair[0][3] == pair[1][3]:
                positives.append(pair)
            else:
                negatives.append(pair)
    total = 0.0
    for fa, fb in positives:
        value, ga, gb = positive_pair_term_reference(fa[2], fb[2], cfg)
        total += value
        grads[(fa[0], fa[1])] += ga
        grads[(fb[0], fb[1])] += gb
    neg_terms = [negative_pair_term_reference(fa[2], fb[2], cfg) for fa, fb in negatives]
    selected = ohem_select(positives, negatives, [t[0] for t in neg_terms])
    for idx in selected:
        fa, fb = negatives[idx]
        value, ga, gb = neg_terms[idx]
        total += value
        grads[(fa[0], fa[1])] += ga
        grads[(fb[0], fb[1])] += gb
    return total, grads


def batch_loss_reference(images, cfg):
    """losses.batch_loss, built on the reference primitives above (without
    its input checks)."""
    per_image = []
    fg_counts = []
    bg_counts = []
    grad_res = []
    grad_log = []
    foregrounds = []
    for img_idx, proposals in enumerate(images):
        img_total = 0.0
        n_fg = 0
        res_grads = []
        log_grads = []
        for prop_idx, prop in enumerate(proposals):
            is_fg = prop.iou_with_gt > cfg.foreground_iou
            if is_fg:
                n_fg += 1
                residual = np.asarray(prop.box_residual, dtype=float)
                g = np.zeros_like(residual)
                for k, component in enumerate(residual):
                    value, dv = smooth_l1(component, cfg.smooth_l1_delta)
                    img_total += value
                    g[k] = dv
                res_grads.append(g)
                if prop.embedding is not None and prop.truth_uid is not None:
                    foregrounds.append(
                        (img_idx, prop_idx, np.asarray(prop.embedding, float), prop.truth_uid)
                    )
            else:
                res_grads.append(None)
            ce_value, ce_grad = cross_entropy_reference(prop.class_logits, prop.true_class)
            img_total += ce_value
            log_grads.append(ce_grad)
        per_image.append(img_total)
        fg_counts.append(n_fg)
        bg_counts.append(len(proposals) - n_fg)
        grad_res.append(res_grads)
        grad_log.append(log_grads)
    reid, reid_grads = _reid_loss_reference(foregrounds, cfg)
    grad_emb = [[None] * len(proposals) for proposals in images]
    for (img_idx, prop_idx), grad in reid_grads.items():
        grad_emb[img_idx][prop_idx] = grad
    breakdown = BatchLossBreakdown(
        per_image_box_head=per_image,
        reid=reid,
        total=reid + sum(per_image),
        foreground_counts=fg_counts,
        background_counts=bg_counts,
    )
    return breakdown, BatchLossGrads(grad_res, grad_log, grad_emb)


def wrap_angle_reference(theta):
    """scene.wrap_angle through numpy arrays only."""
    with np.errstate(invalid="ignore"):
        wrapped = np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def _principal_axis_angle_reference(xy):
    centered = xy - xy.mean(axis=0)
    sxx = float(np.mean(centered[:, 0] ** 2))
    syy = float(np.mean(centered[:, 1] ** 2))
    sxy = float(np.mean(centered[:, 0] * centered[:, 1]))
    angle = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    if angle <= -math.pi / 2.0:
        angle += math.pi
    elif angle > math.pi / 2.0:
        angle -= math.pi
    return angle


def _disambiguate_reference(line_angle, reference):
    diff = wrap_angle_reference(line_angle - reference)
    if -math.pi / 2.0 < diff <= math.pi / 2.0:
        return wrap_angle_reference(line_angle)
    return wrap_angle_reference(line_angle + math.pi)


def _trimmed_extent_reference(values, quantile):
    return float(np.quantile(values, quantile)), float(np.quantile(values, 1.0 - quantile))


def estimate_box_reference(frustum, class_id, cfg, gated=None):
    """estimator.estimate_box's fields (x, y, z, l, w, h, theta), None when
    it raises TooFewPoints: range_gate_reference, then one trimmed extent
    per axis from np.quantile.  gated, when given, is range_gate_reference's
    result for the frustum, so a caller that already has it skips the loop.
    """
    prior = cfg.dim_priors[class_id]
    points = np.asarray(frustum.points, dtype=float).reshape(-1, 3)
    if len(points) < cfg.min_points:
        return None
    if gated is None:
        gate = max(cfg.range_gate_m, 0.75 * math.hypot(prior[0], prior[1]))
        gated = range_gate_reference(points, gate, frustum.extent, prior[2])
    if len(gated) < cfg.min_points:
        gated = points
    if cfg.yaw_mode == "frustum-axis":
        yaw = frustum.central_axis
    else:
        line = _principal_axis_angle_reference(gated[:, :2])
        yaw = _disambiguate_reference(line, frustum.central_axis)
    cos_y, sin_y = math.cos(yaw), math.sin(yaw)
    along = gated[:, 0] * cos_y + gated[:, 1] * sin_y
    across = -gated[:, 0] * sin_y + gated[:, 1] * cos_y
    lo_along, hi_along = _trimmed_extent_reference(along, cfg.extent_quantile)
    lo_across, hi_across = _trimmed_extent_reference(across, cfg.extent_quantile)
    center_along = 0.5 * (lo_along + hi_along)
    center_across = 0.5 * (lo_across + hi_across)
    x = center_along * cos_y - center_across * sin_y
    y = center_along * sin_y + center_across * cos_y
    z = 0.5 * (gated[:, 2].min() + gated[:, 2].max())
    dims = []
    for extent, prior_dim in zip(
        (hi_along - lo_along, hi_across - lo_across,
         gated[:, 2].max() - gated[:, 2].min()),
        prior,
    ):
        dims.append(min(max(float(extent), prior_dim), 2.0 * prior_dim))
    return (float(x), float(y), float(z), dims[0], dims[1], dims[2], wrap_angle_reference(yaw))


def merge_frustums_reference(a, b):
    """frustum.merge_frustums as (points, extent, central_axis, sources):
    rows as tuples of numpy scalars, deduplicated in a loop."""
    seen_a = {tuple(row) for row in a.points}
    rows_b = [tuple(row) for row in b.points]
    if not any(row in seen_a for row in rows_b):
        raise MergeRejected("frustums share no point")
    merged = []
    seen = set()
    for row in (tuple(r) for r in a.points):
        if row not in seen:
            seen.add(row)
            merged.append(row)
    for row in rows_b:
        if row not in seen:
            seen.add(row)
            merged.append(row)
    start, width = _combined_hull(a.extent, b.extent)
    end = start + width
    central_axis = wrap_angle_reference(
        math.atan2(math.sin(start) + math.sin(end), math.cos(start) + math.cos(end))
    )
    return (
        np.array(merged, dtype=float).reshape(-1, 3),
        (wrap_angle_reference(start), wrap_angle_reference(end)),
        central_axis,
        a.sources + b.sources,
    )


def simulate_detections_reference(rig, objects, spec, frame_index=0):
    """synthgen.simulate_detections with each embedding from its own
    embedding_provider call, which redraws the uid anchor every time."""
    rng = np.random.default_rng([spec.seed, 1, frame_index])
    detections = []
    corners = box_corners(obj.box for obj in objects)
    for cam in rig.cameras:
        _, extents, visible = box_image_extents(cam, corners)
        for obj, bbox, seen in zip(objects, extents.tolist(), visible.tolist()):
            if not seen:
                continue
            if rng.random() < spec.miss_rate:
                continue
            j = spec.bbox_jitter_px
            offsets = rng.uniform(-j, j, size=4) if j > 0.0 else np.zeros(4)
            x_min = min(max(bbox[0] + offsets[0], 0.0), cam.width)
            y_min = min(max(bbox[1] + offsets[1], 0.0), cam.height)
            x_max = min(max(bbox[2] + offsets[2], 0.0), cam.width)
            y_max = min(max(bbox[3] + offsets[3], 0.0), cam.height)
            if x_max - x_min <= 0.0 or y_max - y_min <= 0.0:
                continue
            score = float(rng.uniform(0.5, 1.0))
            detections.append(
                Detection2D(
                    camera_id=cam.id,
                    bbox=BBox2D(x_min, y_min, x_max, y_max),
                    class_id=obj.class_id,
                    score=score,
                    embedding=embedding_provider(obj.uid, spec, rng),
                    truth_uid=obj.uid,
                )
            )
    return detections


def filter_frustum_reference(cam, bbox, cloud, source=None):
    """frustum.filter_frustum as it was before camera views: the whole cloud
    projected for this one bbox, invalid points masked out afterwards."""
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    uv, _, valid = project_points(cam, pts, DEPTH_EPSILON)
    inside = (
        valid
        & (uv[:, 0] >= bbox.x_min)
        & (uv[:, 0] <= bbox.x_max)
        & (uv[:, 1] >= bbox.y_min)
        & (uv[:, 1] <= bbox.y_max)
    )
    if not np.any(inside):
        raise EmptyFrustum(f"no points inside bbox in camera {cam.id!r}")
    extent = angular_extent(cam, bbox)
    sources = (source,) if source is not None else ()
    return Frustum(
        points=pts[inside],
        extent=extent,
        central_axis=extent_midpoint(extent),
        sources=sources,
    )


# The greedy matchers metrics.py had before its one greedy assigner.


def tp_flags_2d_reference(preds, gts, iou_threshold):
    """metrics._tp_flags_2d: greedy matching flags, one detection per ground
    truth, best IoU wins; ground truth keyed by group alone."""
    gt_by_group: dict = {}
    for g in gts:
        gt_by_group.setdefault(g.group, []).append(g)
    taken: dict = {gr: [False] * len(lst) for gr, lst in gt_by_group.items()}
    flags = []
    for idx in sorted(range(len(preds)), key=lambda i: (-preds[i].score, i)):
        det = preds[idx]
        best_iou = 0.0
        best_j = -1
        for j, g in enumerate(gt_by_group.get(det.group, [])):
            if taken[det.group][j]:
                continue
            value = iou2d(det.bbox, g.bbox)
            if value >= iou_threshold and value > best_iou:
                best_iou = value
                best_j = j
        if best_j >= 0:
            taken[det.group][best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def match_3d_reference(predictions, ground_truth, threshold: float):
    """metrics.match_3d: greedy score-descending matching by ground-plane
    center distance.

    Each prediction takes the nearest unmatched ground truth of its class and
    group within the threshold.  Returns matched (Pred3D, Gt3D) pairs.
    """
    gt_by_key: dict = {}
    for g in ground_truth:
        gt_by_key.setdefault((g.group, g.class_id), []).append(g)
    taken = {key: [False] * len(lst) for key, lst in gt_by_key.items()}
    matched = []
    for idx in sorted(range(len(predictions)), key=lambda i: (-predictions[i].score, i)):
        det = predictions[idx]
        key = (det.group, det.class_id)
        best = None
        best_dist = math.inf
        for j, g in enumerate(gt_by_key.get(key, [])):
            if taken[key][j]:
                continue
            dist = math.hypot(det.box.x - g.box.x, det.box.y - g.box.y)
            if dist <= threshold and dist < best_dist:
                best_dist = dist
                best = j
        if best is not None:
            taken[key][best] = True
            matched.append((det, gt_by_key[key][best]))
    return matched


def tp_flags_3d_reference(preds, gts, threshold):
    """metrics._tp_flags_3d: ground truth keyed by group alone."""
    gt_list = list(gts)
    taken = [False] * len(gt_list)
    by_group: dict = {}
    for j, g in enumerate(gt_list):
        by_group.setdefault(g.group, []).append(j)
    flags = []
    for idx in sorted(range(len(preds)), key=lambda i: (-preds[i].score, i)):
        det = preds[idx]
        best = None
        best_dist = math.inf
        for j in by_group.get(det.group, []):
            if taken[j]:
                continue
            dist = math.hypot(det.box.x - gt_list[j].box.x, det.box.y - gt_list[j].box.y)
            if dist <= threshold and dist < best_dist:
                best_dist = dist
                best = j
        if best is not None:
            taken[best] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


# The hand-written (de)serializers that dataclass-driven code replaced.


def config_to_dict_reference(cfg) -> dict:
    """pipeline.config_to_dict, each field written out by hand."""
    return {
        "gen": {
            "seed": cfg.gen.seed,
            "n_frames": cfg.gen.n_frames,
            "objects_per_frame": list(cfg.gen.objects_per_frame),
            "class_mix": dict(cfg.gen.class_mix),
            "radius_range": list(cfg.gen.radius_range),
            "overlap_fraction": cfg.gen.overlap_fraction,
            "embed_dim": cfg.gen.embed_dim,
            "embed_noise": cfg.gen.embed_noise,
            "miss_rate": cfg.gen.miss_rate,
            "bbox_jitter_px": cfg.gen.bbox_jitter_px,
            "lidar_points_range": list(cfg.gen.lidar_points_range),
            "clutter_points": cfg.gen.clutter_points,
        },
        "loss": {
            "alpha": cfg.loss.alpha,
            "beta": cfg.loss.beta,
            "smooth_l1_delta": cfg.loss.smooth_l1_delta,
            "foreground_iou": cfg.loss.foreground_iou,
        },
        "estimator": {
            "dim_priors": {k: list(v) for k, v in cfg.estimator.dim_priors.items()},
            "yaw_mode": cfg.estimator.yaw_mode,
            "min_points": cfg.estimator.min_points,
            "range_gate_m": cfg.estimator.range_gate_m,
            "extent_quantile": cfg.estimator.extent_quantile,
        },
        "eval2d": {
            "iou_threshold": cfg.eval2d.iou_threshold,
            "min_height_px": cfg.eval2d.min_height_px,
            "max_truncation": cfg.eval2d.max_truncation,
        },
        "eval3d": {
            "center_distance_thresholds": list(cfg.eval3d.center_distance_thresholds),
            "tp_error_threshold": cfg.eval3d.tp_error_threshold,
        },
        "tau": cfg.tau,
        "nms_iou": cfg.nms_iou,
    }


def config_from_dict_reference(data: dict):
    """pipeline.config_from_dict: inverse of config_to_dict_reference;
    omitted fields keep their defaults.

    Raises ValueError naming the first key that is no PipelineConfig field,
    so a misspelled or unsupported section is not silently ignored.
    """
    sections = [f.name for f in dataclasses.fields(PipelineConfig)]
    unknown = sorted(set(data) - set(sections))
    if unknown:
        raise ValueError(
            f"unknown section {unknown[0]!r}; a config reads {', '.join(sections)}"
        )
    gen = data.get("gen", {})
    loss = data.get("loss", {})
    est = data.get("estimator", {})
    e2d = data.get("eval2d", {})
    e3d = data.get("eval3d", {})
    gen_kwargs = dict(gen)
    for key in ("objects_per_frame", "radius_range", "lidar_points_range"):
        if key in gen_kwargs:
            gen_kwargs[key] = tuple(gen_kwargs[key])
    est_kwargs = dict(est)
    if "dim_priors" in est_kwargs:
        est_kwargs["dim_priors"] = {
            k: tuple(v) for k, v in est_kwargs["dim_priors"].items()
        }
    e3d_kwargs = dict(e3d)
    if "center_distance_thresholds" in e3d_kwargs:
        e3d_kwargs["center_distance_thresholds"] = tuple(
            e3d_kwargs["center_distance_thresholds"]
        )
    return PipelineConfig(
        gen=GenSpec(**gen_kwargs),
        loss=LossConfig(**loss),
        estimator=EstimatorConfig(**est_kwargs),
        eval2d=EvalConfig2D(**e2d),
        eval3d=EvalConfig3D(**e3d_kwargs),
        tau=data.get("tau"),
        nms_iou=data.get("nms_iou", 0.5),
    )


def report_to_dict_reference(self) -> dict:
    """RunReport.to_dict, each field written out by hand."""
    return {
        "variant": self.variant,
        "seed": self.seed,
        "config": self.config,
        "counts": self.counts,
        "ap_2d": self.ap_2d,
        "reid": self.reid,
        "metrics_3d": self.metrics_3d,
        "errors": self.errors,
        "runtime_s": self.runtime_s,
    }


def report_from_dict_reference(data: dict):
    """RunReport.from_dict, each field written out by hand."""
    return RunReport(
        variant=data["variant"],
        seed=data["seed"],
        config=data["config"],
        counts=data["counts"],
        ap_2d=data["ap_2d"],
        reid=data["reid"],
        metrics_3d=data["metrics_3d"],
        errors=data["errors"],
        runtime_s=data["runtime_s"],
    )


def _camera_to_dict_reference(cam) -> dict:
    return {
        "id": cam.id,
        "fx": cam.fx,
        "fy": cam.fy,
        "cx": cam.cx,
        "cy": cam.cy,
        "width": cam.width,
        "height": cam.height,
        "pose": {"q": list(cam.pose.q), "t": list(cam.pose.t)},
    }


def rig_to_dict_reference(rig) -> dict:
    """sceneio.rig_to_dict, each field written out by hand."""
    return {
        "cameras": [_camera_to_dict_reference(c) for c in rig.cameras],
        "adjacency": [list(pair) for pair in rig.adjacency],
    }


# The table renderers that the row model in pipeline.py replaced.


def comparison_deltas_reference(self) -> dict:
    """Comparison.deltas, walking the report dicts."""
    sia = self.reports[Variant.SIANMS.value]
    out: dict = {}
    for region in ("all", "overlap"):
        region_out: dict = {}
        sia_region = sia.metrics_3d[region]
        classes = list(sia_region["per_class"].keys()) + ["mean"]
        for cls in classes:
            sia_row = (
                sia_region["mean"] if cls == "mean" else sia_region["per_class"][cls]
            )
            cls_out: dict = {}
            for metric in ("ap", "ate", "ase", "aoe"):
                metric_out = {}
                for variant in VARIANT_ORDER:
                    if variant is Variant.SIANMS:
                        continue
                    other = self.reports[variant.value].metrics_3d[region]
                    other_row = (
                        other["mean"]
                        if cls == "mean"
                        else other["per_class"].get(cls)
                    )
                    if (
                        other_row is None
                        or other_row[metric] is None
                        or sia_row[metric] is None
                    ):
                        metric_out[variant.value] = None
                    else:
                        metric_out[variant.value] = float(
                            sia_row[metric] - other_row[metric]
                        )
                cls_out[metric] = metric_out
            region_out[cls] = cls_out
        out[region] = region_out
    return out


def comparison_csv_reference(self) -> str:
    """Comparison.to_csv, walking the report dicts."""

    def fmt(value):
        return "" if value is None else f"{value:.6f}"

    names = [v.value for v in VARIANT_ORDER]
    lines = [
        "section,region,class,metric," + ",".join(names)
        + ",sianms-original,sianms-original+nms"
    ]
    classes_2d = sorted(
        {
            cls
            for name in names
            for cls in self.reports[name].ap_2d
        }
    )
    for cls in classes_2d:
        row = [
            fmt(self.reports[name].ap_2d.get(cls)) for name in names
        ]
        sia = self.reports[Variant.SIANMS.value].ap_2d.get(cls)
        d_orig = (
            None
            if sia is None or self.reports[names[0]].ap_2d.get(cls) is None
            else sia - self.reports[names[0]].ap_2d.get(cls)
        )
        d_nms = (
            None
            if sia is None or self.reports[names[2]].ap_2d.get(cls) is None
            else sia - self.reports[names[2]].ap_2d.get(cls)
        )
        lines.append(
            f"ap_2d,-,{cls},ap," + ",".join(row) + f",{fmt(d_orig)},{fmt(d_nms)}"
        )
    for key in ("precision", "recall", "f_score", "tp", "fp", "fn", "tn"):
        row = []
        for name in names:
            reid = self.reports[name].reid
            row.append("" if reid is None else fmt(float(reid[key])))
        lines.append(f"reid,-,-,{key}," + ",".join(row) + ",,")
    deltas = comparison_deltas_reference(self)
    for region in ("all", "overlap"):
        classes = list(
            self.reports[Variant.SIANMS.value].metrics_3d[region]["per_class"]
        ) + ["mean"]
        for cls in classes:
            for metric in ("ap", "ate", "ase", "aoe"):
                row = []
                for name in names:
                    block = self.reports[name].metrics_3d[region]
                    row_data = (
                        block["mean"] if cls == "mean" else block["per_class"].get(cls)
                    )
                    row.append(
                        "" if row_data is None else fmt(row_data[metric])
                    )
                delta = deltas[region][cls][metric]
                lines.append(
                    f"3d,{region},{cls},{metric},"
                    + ",".join(row)
                    + f",{fmt(delta['original'])},{fmt(delta['original+nms'])}"
                )
    return "\n".join(lines) + "\n"


def comparison_text_reference(self) -> str:
    """Comparison.to_text, walking the report dicts."""

    def fmt(value):
        return "  -  " if value is None else f"{value:.4f}"

    names = [v.value for v in VARIANT_ORDER]
    width = max(len(n) for n in names) + 2
    out = ["variant comparison", "=" * 60]
    out.append("")
    out.append("2D AP (per class)")
    header = f"{'class':<12}" + "".join(f"{n:>{width}}" for n in names)
    out.append(header)
    classes_2d = sorted(
        {cls for name in names for cls in self.reports[name].ap_2d}
    )
    for cls in classes_2d:
        out.append(
            f"{cls:<12}"
            + "".join(
                f"{fmt(self.reports[name].ap_2d.get(cls)):>{width}}" for name in names
            )
        )
    out.append("")
    out.append("re-identification")
    out.append(header)
    for key in ("precision", "recall", "f_score"):
        row = []
        for name in names:
            reid = self.reports[name].reid
            row.append(fmt(None if reid is None else reid[key]))
        out.append(f"{key:<12}" + "".join(f"{v:>{width}}" for v in row))
    for region in ("all", "overlap"):
        out.append("")
        out.append(f"3D metrics, region = {region}")
        classes = list(
            self.reports[Variant.SIANMS.value].metrics_3d[region]["per_class"]
        ) + ["mean"]
        for cls in classes:
            out.append(f"  {cls}")
            out.append("  " + header)
            for metric in ("ap", "ate", "ase", "aoe"):
                row = []
                for name in names:
                    block = self.reports[name].metrics_3d[region]
                    row_data = (
                        block["mean"]
                        if cls == "mean"
                        else block["per_class"].get(cls)
                    )
                    row.append(fmt(None if row_data is None else row_data[metric]))
                out.append(f"  {metric:<12}" + "".join(f"{v:>{width}}" for v in row))
    out.append("")
    return "\n".join(out)


def report_text_reference(report) -> str:
    """What `sianms run --text` printed, walking the report dicts."""
    lines = [f"variant: {report.variant}  seed: {report.seed}"]
    counts = report.counts
    lines.append(
        "frames: {frames_processed}/{frames}  detections: {detections_2d}  "
        "boxes: {boxes_3d} (merged {merged_boxes})".format(**counts)
    )
    if report.ap_2d:
        parts = [f"{cls} {ap:.4f}" for cls, ap in sorted(report.ap_2d.items())]
        lines.append("2D AP: " + "  ".join(parts))
    if report.reid is not None:
        lines.append(
            "re-id: precision {precision:.4f}  recall {recall:.4f}  "
            "f_score {f_score:.4f}".format(**report.reid)
        )
    for region in ("all", "overlap"):
        block = report.metrics_3d[region]
        for cls in sorted(block["per_class"]):
            row = block["per_class"][cls]
            cells = []
            for key in ("ap", "ate", "ase", "aoe"):
                value = row[key]
                cells.append(f"{key} {'-' if value is None else format(value, '.4f')}")
            lines.append(f"3D {region:<8} {cls:<12} " + "  ".join(cells))
    if report.errors:
        lines.append(f"frame errors: {len(report.errors)}")
    return "\n".join(lines) + "\n"


def report_csv_reference(report) -> str:
    """What `sianms run --csv` printed, walking the report dicts."""
    lines = ["section,region,class,metric,value"]
    for cls, ap in sorted(report.ap_2d.items()):
        lines.append(f"ap_2d,-,{cls},ap,{ap:.6f}")
    if report.reid is not None:
        for key in ("precision", "recall", "f_score", "tp", "fp", "fn", "tn"):
            lines.append(f"reid,-,-,{key},{float(report.reid[key]):.6f}")
    for region in ("all", "overlap"):
        block = report.metrics_3d[region]
        for cls in sorted(block["per_class"]):
            row = block["per_class"][cls]
            for key in ("ap", "ate", "ase", "aoe"):
                value = row[key]
                cell = "" if value is None else f"{value:.6f}"
                lines.append(f"3d,{region},{cls},{key},{cell}")
    return "\n".join(lines) + "\n"


def eval_3d_tables_reference(region, result) -> tuple[str, str]:
    """The (text, csv) `sianms eval-3d` printed for its result."""
    text_lines = [f"region: {region}"]
    csv_lines = ["class,ap,ate,ase,aoe,num_gt,num_pred,num_matched"]
    for cls in sorted(result):
        row = result[cls]
        cells = {
            key: ("-" if row[key] is None else f"{row[key]:.4f}")
            for key in ("ap", "ate", "ase", "aoe")
        }
        text_lines.append(
            f"{cls}: ap {cells['ap']}  ate {cells['ate']}  ase {cells['ase']}  "
            f"aoe {cells['aoe']}  (gt {row['num_gt']}, pred {row['num_pred']}, "
            f"matched {row['num_matched']})"
        )
        csv_cells = {
            key: ("" if row[key] is None else f"{row[key]:.6f}")
            for key in ("ap", "ate", "ase", "aoe")
        }
        csv_lines.append(
            f"{cls},{csv_cells['ap']},{csv_cells['ate']},{csv_cells['ase']},"
            f"{csv_cells['aoe']},{row['num_gt']},{row['num_pred']},{row['num_matched']}"
        )
    return "\n".join(text_lines) + "\n", "\n".join(csv_lines) + "\n"


def eval_reid_tables_reference(stats) -> tuple[str, str]:
    """The (text, csv) `sianms eval-reid` printed for its stats."""
    text = (
        "precision {precision:.4f}\nrecall {recall:.4f}\nf_score {f_score:.4f}\n"
        "tp {tp}  fp {fp}  fn {fn}  tn {tn}\n".format(**stats)
    )
    csv = "metric,value\n" + "".join(
        f"{key},{float(stats[key]):.6f}\n"
        for key in ("precision", "recall", "f_score", "tp", "fp", "fn", "tn")
    )
    return text, csv


def comparison_json_reference(self) -> dict:
    """Comparison.to_json_dict over the hand-written report dict and deltas."""
    variants = {}
    for variant in VARIANT_ORDER:
        data = report_to_dict_reference(self.reports[variant.value])
        del data["runtime_s"]
        del data["config"]
        variants[variant.value] = data
    return {
        "config": self.config,
        "variants": variants,
        "deltas": comparison_deltas_reference(self),
    }


# Evaluation and corners before one distance table per class and one
# stacked corner product.


_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def box_corners_one_box_reference(box) -> np.ndarray:
    """Box3D.corners: one box's own (8, 3) @ (3, 3) product."""
    c, s = math.cos(box.theta), math.sin(box.theta)
    local = _CORNER_SIGNS * np.array([box.l / 2.0, box.w / 2.0, box.h / 2.0])
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return local @ rot.T + box.center


def _greedy_match_reference(preds, gts, similarity, threshold) -> list:
    """metrics._greedy_match: similarity evaluated inside the matching loop."""
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


def _closeness_reference(pred, gt) -> float:
    return -math.hypot(pred.box.x - gt.box.x, pred.box.y - gt.box.y)


def _tp_flags_reference(preds, gts, similarity, threshold) -> list[bool]:
    return [g is not None for _, g in _greedy_match_reference(preds, gts, similarity, threshold)]


def interpolated_precision_samples_reference(tp_flags, n_gt, sample_recalls):
    """metrics._interpolated_precision_samples: one searchsorted per sample."""
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


def normalized_ap_reference(tp_flags, n_gt) -> float:
    """metrics._normalized_ap: the knots collected in a Python loop."""
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


def evaluate_3d_reference(predictions, ground_truth, cfg) -> dict:
    """metrics.evaluate_3d: the greedy matcher run once per distance
    threshold, then again at tp_error_threshold for the errors."""
    out = {}
    for cls in sorted({g.class_id for g in ground_truth}):
        cls_gts = [g for g in ground_truth if g.class_id == cls]
        cls_preds = [p for p in predictions if p.class_id == cls]
        aps = [
            normalized_ap_reference(
                _tp_flags_reference(cls_preds, cls_gts, _closeness_reference, -threshold),
                len(cls_gts),
            )
            for threshold in cfg.center_distance_thresholds
        ]
        pairs = _greedy_match_reference(
            cls_preds, cls_gts, _closeness_reference, -cfg.tp_error_threshold
        )
        matched = [(p, g) for p, g in pairs if g is not None]
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

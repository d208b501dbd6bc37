"""Pipeline variants, end-to-end runs and comparison reports.

Four variants over identical inputs:

* original: every 2D detection becomes its own frustum and box, so an
  object seen by two cameras yields two 3D boxes.
* 2d+embedding: the same boxes, but the cross-camera matcher runs so
  re-identification quality is reported.
* original+nms: per-camera greedy NMS before the box flow; it cannot
  suppress duplicates that live in different cameras.
* sianms: cross-camera matching; each matched pair yields exactly one box,
  from the merged frustum when the pair's frustums share points, otherwise
  from the frustum of the higher-scoring detection.

Every variant takes a frame through one flow.  Its working set is the
frame's own Detection2D objects, or the subset NMS keeps; the matcher runs
on it for 2d+embedding and sianms; each working detection gets one frustum;
then one list of box fits, for sianms one per matched pair followed by one
per unmatched detection and otherwise one per detection, goes through one
estimator loop.  Empty frustums and fits with too few points are counted as
drops.

All variants run in one loop over the frames: each frame's detections,
ground truth and camera views (its cloud projected once on each camera its
detections name) are built once, then every variant processes the frame and
filters its frustums against those views.  A frame whose processing raises
is recorded under errors and skipped by the variants it reached (all of them
when building its detections, ground truth or views raised); the run
continues with the remaining frames.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import groupby
from types import UnionType
from typing import NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .estimator import EstimatorConfig, TooFewPoints, estimate_box
from .frustum import (
    DegenerateExtent,
    EmptyFrustum,
    MergeRejected,
    camera_view,
    filter_frustum,
    merge_frustums,
)
from .losses import LossConfig
from .matching import match_adjacent
from .metrics import (
    METRICS_3D,
    EvalConfig2D,
    EvalConfig3D,
    Gt2D,
    Gt3D,
    Pred2D,
    Pred3D,
    ap_2d,
    evaluate_3d,
    iou2d,
    overlap_region_filter,
    score_order,
)
from .reid_eval import REID_KEYS, REID_RATES, accumulate, evaluate_frame
from .scene import BBox2D, Box3D, CameraRig, Detection2D, SceneObject, box_corners, box_image_extents
from .synthgen import GenSpec, simulate_detections


class SchemaError(ValueError):
    """An input does not match its documented schema or the other inputs of
    a run; the message names the path or key."""


class Variant(str, Enum):
    ORIGINAL = "original"
    EMBEDDING_2D = "2d+embedding"
    ORIGINAL_NMS = "original+nms"
    SIANMS = "sianms"


VARIANT_ORDER = (
    Variant.ORIGINAL,
    Variant.EMBEDDING_2D,
    Variant.ORIGINAL_NMS,
    Variant.SIANMS,
)

VARIANT_NAMES = tuple(v.value for v in VARIANT_ORDER)
REGIONS = ("all", "overlap")


@dataclass(frozen=True)
class PipelineConfig:
    """Bundle of all stage configurations.

    tau defaults to the midpoint of the contrastive margins when unset.
    """

    gen: GenSpec = field(default_factory=GenSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    eval2d: EvalConfig2D = field(default_factory=EvalConfig2D)
    eval3d: EvalConfig3D = field(default_factory=EvalConfig3D)
    tau: float | None = None
    nms_iou: float = 0.5

    @property
    def resolved_tau(self) -> float:
        if self.tau is not None:
            return self.tau
        return 0.5 * (self.loss.alpha + self.loss.beta)


@dataclass(frozen=True)
class Frame:
    index: int
    objects: tuple[SceneObject, ...]
    cloud: np.ndarray


@dataclass(frozen=True)
class Scene:
    rig: CameraRig
    frames: tuple[Frame, ...]


@dataclass(frozen=True)
class PredBox:
    """One 3D output box with provenance."""

    frame: int
    class_id: str
    score: float
    box: Box3D
    n_sources: int
    merged: bool


@dataclass
class RunReport:
    """Everything one run reports; round-trips exactly through to_dict."""

    variant: str
    seed: int
    config: dict
    counts: dict
    ap_2d: dict
    reid: dict | None
    metrics_3d: dict
    errors: list
    runtime_s: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


@dataclass
class PipelineResult:
    report: RunReport
    boxes: dict
    matches: dict


def json_value(value):
    """value as JSON data: dataclasses as dicts of their fields, tuples as lists."""
    if is_dataclass(value):
        return {f.name: json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    return value


def _tuples(value):
    """value with every list, at any depth, as a tuple."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    if isinstance(value, dict):
        return {k: _tuples(v) for k, v in value.items()}
    return value


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field's type hint: a number is an int or a
    float but not a bool, an int field takes no float, and a tuple field
    takes a list or tuple whose elements fit too."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if origin in (Union, UnionType):
        return any(_fits(value, arg) for arg in args)
    if hint in (int, float):
        number = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, hint)


def _check_types(cls, data: dict, prefix: str) -> None:
    """Raise TypeError naming the first of cls's fields whose value in data
    does not fit its type; sections (dataclass fields) are checked as they
    are built."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        hint = hints[f.name]
        if f.name in data and not is_dataclass(hint) and not _fits(data[f.name], hint):
            text = hint.__name__ if get_origin(hint) is None else str(hint)
            raise TypeError(f"{prefix}{f.name} must be {text}, got {data[f.name]!r}")


def section_from_dict(cls, data, prefix: str):
    """cls built from a JSON object, lists as tuples; omitted fields keep
    their defaults, data that is no object or a value of the wrong type
    raises TypeError naming the section or prefix + its key, and
    cls.__init__ rejects an unknown key with TypeError."""
    if not isinstance(data, dict):
        raise TypeError(f"{prefix[:-1]} must be an object, got {data!r}")
    _check_types(cls, data, prefix)
    return cls(**{k: _tuples(v) for k, v in data.items()})


def check_sections(data: dict, names, what: str) -> None:
    """Raise ValueError naming the first key of data that is not one of
    names, so a misspelled or unsupported section is not silently ignored."""
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ValueError(f"unknown section {unknown[0]!r}; a {what} reads {', '.join(names)}")


def config_to_dict(cfg: PipelineConfig) -> dict:
    return json_value(cfg)


def config_from_dict(data: dict) -> PipelineConfig:
    """Inverse of config_to_dict; omitted fields keep their defaults.

    Raises ValueError naming the first key that is no PipelineConfig field
    (check_sections), and TypeError naming the first value of the wrong
    type.
    """
    check_sections(data, [f.name for f in fields(PipelineConfig)], "config")
    _check_types(PipelineConfig, data, "")
    return PipelineConfig(**{
        f.name: _tuples(data[f.name]) if f.default_factory is MISSING
        else section_from_dict(f.default_factory, data[f.name], f"{f.name}.")
        for f in fields(PipelineConfig)
        if f.name in data
    })


def nms_greedy(detections, iou_threshold: float):
    """Greedy NMS: walk detections by descending score, keep one iff its IoU
    with every kept same-camera same-class detection is below the threshold."""
    kept: list[Detection2D] = []
    for idx in score_order(detections):
        det = detections[idx]
        suppressed = any(
            k.camera_id == det.camera_id
            and k.class_id == det.class_id
            and iou2d(det.bbox, k.bbox) >= iou_threshold
            for k in kept
        )
        if not suppressed:
            kept.append(det)
    return kept


def _pair_frustum(pair, frustums):
    """(frustum, merged) for a matched pair's one box: the merge when both
    detections' frustums share a point, else the higher-scoring detection's
    frustum (a's on a tie), else the non-empty one; frustum None when both
    are empty."""
    fr_a, fr_b = frustums[pair.a], frustums[pair.b]
    if fr_a is None or fr_b is None:
        return (fr_b if fr_a is None else fr_a), False
    try:
        return merge_frustums(fr_a, fr_b), True
    except (MergeRejected, DegenerateExtent):
        return (fr_a if pair.a.score >= pair.b.score else fr_b), False


def _process_frame(rig, frame, views, detections, variant, cfg, dropped):
    """Returns (working 2D detections, MatchResult or None, PredBox list).

    views maps camera id to the frame's CameraView on that camera.
    """
    working = detections
    if variant is Variant.ORIGINAL_NMS:
        working = nms_greedy(detections, cfg.nms_iou)
    matches = None
    if variant in (Variant.EMBEDDING_2D, Variant.SIANMS):
        matches = match_adjacent(rig, working, cfg.resolved_tau)
    frustums = {}  # detection -> its Frustum, None when empty
    for det in working:
        cam = rig.camera(det.camera_id)
        try:
            frustums[det] = filter_frustum(cam, det.bbox, views[cam.id], source=det)
        except EmptyFrustum:
            frustums[det] = None
            dropped["empty_frustum"] += 1
    fits = []  # (frustum, class, score, n_sources, merged), pairs first
    singles = working
    if variant is Variant.SIANMS:
        for pair in matches.pairs:
            frustum, merged = _pair_frustum(pair, frustums)
            score = max(pair.a.score, pair.b.score)
            fits.append((frustum, pair.a.class_id, score, 2, merged))
        singles = matches.unmatched
    fits += [(frustums[det], det.class_id, det.score, 1, False) for det in singles]
    boxes = []
    for frustum, class_id, score, n_sources, merged in fits:
        if frustum is None:
            continue
        try:
            box = estimate_box(frustum, class_id, cfg.estimator)
        except TooFewPoints:
            dropped["too_few_points"] += 1
            continue
        boxes.append(PredBox(frame.index, class_id, float(score), box, n_sources, merged))
    return working, matches, boxes


def frame_truth(rig, frame):
    """(2D records, 3D ground truth by region) of a frame, from one
    projection of its boxes on each camera.

    The 2D records are the projected boxes with pixel height and truncation
    ratio.  The 3D ground truth of "all" holds every object; "overlap" keeps
    those with a nonempty clipped projection in at least 2 cameras,
    overlap_region_filter's rule, counted from the same clipped projections
    as the 2D records.
    """
    corners = box_corners(obj.box for obj in frame.objects)
    n_visible = np.zeros(len(frame.objects), dtype=int)
    per_camera = []
    for cam in rig.cameras:
        raw, clipped, visible = box_image_extents(cam, corners)
        n_visible += visible
        per_camera.append((cam, clipped.tolist(), raw.tolist(), visible.tolist()))
    records = []
    for k, obj in enumerate(frame.objects):
        for cam, clipped_rows, raw_rows, visible in per_camera:
            if not visible[k]:
                continue
            clipped, raw = BBox2D(*clipped_rows[k]), BBox2D(*raw_rows[k])
            truncation = 1.0 - clipped.area / raw.area if raw.area > 0.0 else 1.0
            records.append(
                Gt2D(
                    group=(frame.index, cam.id),
                    class_id=obj.class_id,
                    bbox=clipped,
                    height_px=clipped.height,
                    truncation=min(max(truncation, 0.0), 1.0),
                )
            )
    gt3d = [Gt3D(group=frame.index, class_id=obj.class_id, box=obj.box) for obj in frame.objects]
    return records, {"all": gt3d, "overlap": [g for g, n in zip(gt3d, n_visible) if n >= 2]}


def _mean_row(per_class: dict) -> dict:
    def mean_of(key):
        values = [row[key] for row in per_class.values() if row[key] is not None]
        return float(np.mean(values)) if values else None

    mean = {key: mean_of(key) for key in METRICS_3D}
    if mean["ap"] is None:
        mean["ap"] = 0.0
    return mean


@dataclass
class _VariantRun:
    """One variant's per-frame outputs, gathered during one call."""

    variant: Variant
    dropped: dict = field(
        default_factory=lambda: {"empty_frustum": 0, "too_few_points": 0}
    )
    errors: list = field(default_factory=list)
    boxes: dict = field(default_factory=dict)  # frame index -> PredBox list
    matches: dict = field(default_factory=dict)  # frame index -> MatchResult
    pred2d: list = field(default_factory=list)
    reid_frames: list = field(default_factory=list)
    n_detections: int = 0
    seconds: float = 0.0


def _frame_error(frame: Frame, exc: Exception) -> dict:
    return {"frame": frame.index, "error": f"{type(exc).__name__}: {exc}"}


def check_inputs(scene: Scene, cfg: PipelineConfig, detections: dict | None = None) -> None:
    """Raise SchemaError unless every class of the scene's objects and of the
    detections has an estimator.dim_priors entry and every detection names a
    rig camera, so that such inputs fail once, before the first frame."""
    dets = [det for frame_dets in (detections or {}).values() for det in frame_dets]
    classes = {obj.class_id for frame in scene.frames for obj in frame.objects}
    classes.update(det.class_id for det in dets)
    missing = sorted(classes - set(cfg.estimator.dim_priors))
    if missing:
        raise SchemaError(f"config: estimator.dim_priors has no prior for class {missing[0]!r}")
    unknown = sorted({det.camera_id for det in dets} - {cam.id for cam in scene.rig.cameras})
    if unknown:
        raise SchemaError(f"detections: camera {unknown[0]!r} is not in the rig")


def _run_variants(scene, variants, cfg, detections) -> list[PipelineResult]:
    """Check the scene's classes, then run the variants over one loop of the
    frames; results in variant order.  Supplied detections are checked where
    a detections file is loaded, not here, so that a bad entry handed in by
    a caller stays an error of its own frame."""
    check_inputs(scene, cfg)
    runs = [_VariantRun(variant) for variant in variants]
    truth = {}  # frame index -> (Gt2D list, {region: Gt3D list})
    shared_s = 0.0
    for frame in scene.frames:
        shared_s += _run_frame(scene.rig, frame, runs, cfg, detections, truth)
    return [_evaluate(scene, cfg, run, truth, shared_s) for run in runs]


def _run_frame(rig, frame, runs, cfg, detections, truth) -> float:
    """Process one frame for every run; returns the seconds of shared work.

    The detections, the 2D ground-truth records, the 3D ground truth with its
    overlap subset and one CameraView per rig camera that a detection names
    are built once and shared by every variant; each variant then processes
    the frame on its own.  An exception in the shared work is recorded under
    the frame by every variant.  The views are dropped on return.
    """
    started = time.perf_counter()
    try:
        if detections is not None:
            frame_dets = list(detections.get(frame.index, []))
        else:
            frame_dets = simulate_detections(rig, frame.objects, cfg.gen, frame.index)
        truth[frame.index] = frame_truth(rig, frame)
        named = {det.camera_id for det in frame_dets}
        views = {
            cam.id: camera_view(cam, frame.cloud)
            for cam in rig.cameras
            if cam.id in named
        }
    except Exception as exc:  # noqa: BLE001 - frame isolation is the contract
        for run in runs:
            run.errors.append(_frame_error(frame, exc))
        return time.perf_counter() - started
    shared_s = time.perf_counter() - started
    for run in runs:
        started = time.perf_counter()
        try:
            working, matches, boxes = _process_frame(
                rig, frame, views, frame_dets, run.variant, cfg, run.dropped
            )
            if matches is not None:
                run.matches[frame.index] = matches
                run.reid_frames.append(evaluate_frame(matches, working, rig))
        except Exception as exc:  # noqa: BLE001 - frame isolation is the contract
            run.errors.append(_frame_error(frame, exc))
            continue
        finally:
            run.seconds += time.perf_counter() - started
        run.boxes[frame.index] = boxes
        run.n_detections += len(working)
        run.pred2d.extend(
            Pred2D(
                group=(frame.index, det.camera_id),
                class_id=det.class_id,
                score=det.score,
                bbox=det.bbox,
            )
            for det in working
        )
    return shared_s


def evaluate_boxes(rig, boxes, ground_truth, region: str, cfg: EvalConfig3D) -> dict:
    """One region's per-class 3D metrics (evaluate_3d) of PredBoxes against
    that region's Gt3D list: for "overlap", the boxes overlap_region_filter
    keeps are scored, in their order.  run, compare and eval-3d all score
    through here."""
    if region == "overlap":
        boxes = overlap_region_filter(rig, boxes)
    preds = [Pred3D(group=b.frame, class_id=b.class_id, score=b.score, box=b.box) for b in boxes]
    return evaluate_3d(preds, ground_truth, cfg)


def _evaluate(scene, cfg, run: _VariantRun, truth: dict, shared_s: float):
    """Score one variant's gathered outputs against the frames it processed."""
    started = time.perf_counter()
    processed = [f for f in scene.frames if f.index in run.boxes]
    all_boxes = [b for f in processed for b in run.boxes[f.index]]
    gt2d = [g for f in processed for g in truth[f.index][0]]
    gt3d = {region: [g for f in processed for g in truth[f.index][1][region]] for region in REGIONS}
    metrics_3d = {}
    for region in REGIONS:
        per_class = evaluate_boxes(scene.rig, all_boxes, gt3d[region], region, cfg.eval3d)
        metrics_3d[region] = {"per_class": per_class, "mean": _mean_row(per_class)}
    reid = accumulate(run.reid_frames).as_dict() if run.reid_frames else None
    counts = {
        "frames": len(scene.frames),
        "frames_processed": len(processed),
        "gt_objects": len(gt3d["all"]),
        "gt_overlap_objects": len(gt3d["overlap"]),
        "detections_2d": run.n_detections,
        "boxes_3d": len(all_boxes),
        "merged_boxes": sum(1 for b in all_boxes if b.merged),
        "dropped_empty_frustum": run.dropped["empty_frustum"],
        "dropped_too_few_points": run.dropped["too_few_points"],
    }
    report = RunReport(
        variant=run.variant.value,
        seed=cfg.gen.seed,
        config=config_to_dict(cfg),
        counts=counts,
        ap_2d=ap_2d(run.pred2d, gt2d, cfg.eval2d),
        reid=reid,
        metrics_3d=metrics_3d,
        errors=run.errors,
        runtime_s=float(shared_s + run.seconds + time.perf_counter() - started),
    )
    return PipelineResult(report=report, boxes=run.boxes, matches=run.matches)


def run_pipeline(
    scene: Scene,
    variant: Variant,
    cfg: PipelineConfig,
    detections: dict | None = None,
) -> PipelineResult:
    """Run one variant over a scene and evaluate it.

    detections maps frame index to supplied Detection2D lists, bypassing the
    simulator when given.
    """
    return _run_variants(scene, (Variant(variant),), cfg, detections)[0]


class Row(NamedTuple):
    """One table row: a metric of a class in a region ("-" for a section
    without one), with one value per report, None where a report lacks it."""

    section: str
    region: str
    class_id: str
    metric: str
    values: tuple


def report_rows(reports, reid_keys, classes_3d: dict) -> list[Row]:
    """The rows of a table over reports: 2D AP of each class any report
    scores, the re-id reid_keys, then for each region the 3D metrics of the
    classes classes_3d lists for it, where None is the region's mean."""
    rows = [
        Row("ap_2d", "-", cls, "ap", tuple(r.ap_2d.get(cls) for r in reports))
        for cls in sorted({cls for r in reports for cls in r.ap_2d})
    ]
    rows += [
        Row("reid", "-", "-", key,
            tuple(None if r.reid is None else float(r.reid[key]) for r in reports))
        for key in reid_keys
    ]
    for region, classes in classes_3d.items():
        for cls in classes:
            blocks = [r.metrics_3d[region] for r in reports]
            found = [b["mean"] if cls is None else b["per_class"].get(cls) for b in blocks]
            rows += [
                Row("3d", region, "mean" if cls is None else cls, metric,
                    tuple(None if f is None else f[metric] for f in found))
                for metric in METRICS_3D
            ]
    return rows


def text_cell(value, missing: str = "-") -> str:
    return missing if value is None else f"{value:.4f}"


def csv_cell(value) -> str:
    return "" if value is None else f"{value:.6f}"


def csv_table(columns, rows) -> str:
    """Rows as CSV under a section,region,class,metric header plus columns."""
    lines = ["section,region,class,metric," + ",".join(columns)]
    lines += [
        ",".join([r.section, r.region, r.class_id, r.metric, *map(csv_cell, r.values)])
        for r in rows
    ]
    return "\n".join(lines) + "\n"


# compare's CSV holds sianms's delta against each of these
_DELTA_COLUMNS = (Variant.ORIGINAL.value, Variant.ORIGINAL_NMS.value)


def _sianms_deltas(row: Row) -> dict:
    """Per other variant, sianms's value minus its own, None if either lacks one."""
    others = dict(zip(VARIANT_NAMES, row.values))
    sianms = others.pop(Variant.SIANMS.value)
    return {
        name: None if sianms is None or value is None else float(sianms - value)
        for name, value in others.items()
    }


@dataclass
class Comparison:
    """All four variants over identical inputs, plus sianms deltas.

    Serialized artifacts exclude wall-clock runtime so identical runs emit
    byte-identical bytes.
    """

    config: dict
    reports: dict  # variant value -> RunReport
    results: dict  # variant value -> PipelineResult

    def _rows(self) -> list[Row]:
        sianms = self.reports[Variant.SIANMS.value].metrics_3d
        return report_rows(
            [self.reports[name] for name in VARIANT_NAMES],
            REID_KEYS,
            {region: [*sianms[region]["per_class"], None] for region in REGIONS},
        )

    def deltas(self) -> dict:
        out: dict = {}
        for row in self._rows():
            if row.section == "3d":
                region = out.setdefault(row.region, {})
                region.setdefault(row.class_id, {})[row.metric] = _sianms_deltas(row)
        return out

    def to_json_dict(self) -> dict:
        variants = {}
        for variant in VARIANT_ORDER:
            report = self.reports[variant.value]
            data = report.to_dict()
            del data["runtime_s"]
            del data["config"]
            variants[variant.value] = data
        return {
            "config": self.config,
            "variants": variants,
            "deltas": self.deltas(),
        }

    def to_csv(self) -> str:
        rows = []
        for row in self._rows():
            deltas = {} if row.section == "reid" else _sianms_deltas(row)
            cells = tuple(deltas.get(name) for name in _DELTA_COLUMNS)
            rows.append(row._replace(values=row.values + cells))
        return csv_table(VARIANT_NAMES + tuple(f"sianms-{n}" for n in _DELTA_COLUMNS), rows)

    def to_text(self) -> str:
        width = max(len(n) for n in VARIANT_NAMES) + 2
        header = f"{'class':<12}" + "".join(f"{n:>{width}}" for n in VARIANT_NAMES)

        def line(label, row):
            cells = (text_cell(v, missing="  -  ") for v in row.values)
            return f"{label:<12}" + "".join(f"{c:>{width}}" for c in cells)

        rows = self._rows()
        out = ["variant comparison", "=" * 60, "", "2D AP (per class)", header]
        out += [line(r.class_id, r) for r in rows if r.section == "ap_2d"]
        out += ["", "re-identification", header]
        out += [line(r.metric, r) for r in rows if r.metric in REID_RATES]
        for region in REGIONS:
            out += ["", f"3D metrics, region = {region}"]
            in_region = (r for r in rows if r.section == "3d" and r.region == region)
            for cls, group in groupby(in_region, key=lambda r: r.class_id):
                out += [f"  {cls}", "  " + header]
                out += ["  " + line(r.metric, r) for r in group]
        out.append("")
        return "\n".join(out)


def compare_variants(
    scene: Scene, cfg: PipelineConfig, detections: dict | None = None
) -> Comparison:
    """Run all four variants on identical inputs, sharing each frame's
    detections and ground truth."""
    results = _run_variants(scene, VARIANT_ORDER, cfg, detections)
    return Comparison(
        config=config_to_dict(cfg),
        reports={r.report.variant: r.report for r in results},
        results={r.report.variant: r for r in results},
    )

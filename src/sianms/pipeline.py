"""Pipeline variants, end-to-end runs and comparison reports.

Four variants over identical inputs:

* original: every 2D detection becomes its own frustum and box, so an
  object seen by two cameras yields two 3D boxes.
* 2d+embedding: identical box flow, but embeddings are present and the
  cross-camera matcher runs so re-identification quality is reported.
* original+nms: per-camera greedy NMS before the box flow; it cannot
  suppress duplicates that live in different cameras.
* sianms: cross-camera matching; each matched pair yields exactly one box,
  from the merged frustum when the pair's frustums share points, otherwise
  from the frustum of the higher-scoring detection.

All variants run in one loop over the frames: each frame's detections,
ground truth and camera views (its cloud projected once on each camera its
detections name) are built once, then every variant processes the frame and
filters its frustums against those views.  A frame whose processing raises
is recorded under errors and skipped by the variants it reached (all of them
when building its detections, ground truth or views raised); the run
continues with the remaining frames.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from enum import Enum

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
)
from .reid_eval import accumulate, evaluate_frame
from .scene import BBox2D, Box3D, CameraRig, Detection2D, SceneObject, box_corners, box_image_extents
from .synthgen import GenSpec, simulate_detections


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

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(
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


@dataclass
class PipelineResult:
    report: RunReport
    boxes: dict
    matches: dict


def config_to_dict(cfg: PipelineConfig) -> dict:
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
            "region": cfg.eval3d.region,
        },
        "tau": cfg.tau,
        "nms_iou": cfg.nms_iou,
    }


def config_from_dict(data: dict) -> PipelineConfig:
    """Inverse of config_to_dict; omitted fields keep their defaults.

    Raises ValueError naming the first key that is no PipelineConfig field,
    so a misspelled or unsupported section is not silently ignored.
    """
    sections = [f.name for f in fields(PipelineConfig)]
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


def nms_greedy(detections, iou_threshold: float):
    """Greedy NMS: walk detections by descending score, keep one iff its IoU
    with every kept same-camera same-class detection is below the threshold."""
    order = sorted(
        range(len(detections)), key=lambda i: (-detections[i].score, i)
    )
    kept: list[Detection2D] = []
    for idx in order:
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


def _strip_embeddings(detections):
    return [
        Detection2D(
            camera_id=d.camera_id,
            bbox=d.bbox,
            class_id=d.class_id,
            score=d.score,
            embedding=None,
            truth_uid=d.truth_uid,
        )
        for d in detections
    ]


def _frustum_map(rig, detections, views):
    frustums = {}
    n_empty = 0
    for det in detections:
        cam = rig.camera(det.camera_id)
        try:
            frustums[det] = filter_frustum(cam, det.bbox, views[cam.id], source=det)
        except EmptyFrustum:
            frustums[det] = None
            n_empty += 1
    return frustums, n_empty


def _estimate(frustum, class_id, score, frame_index, n_sources, merged, cfg, dropped):
    try:
        box = estimate_box(frustum, class_id, cfg.estimator)
    except TooFewPoints:
        dropped["too_few_points"] += 1
        return None
    return PredBox(
        frame=frame_index,
        class_id=class_id,
        score=float(score),
        box=box,
        n_sources=n_sources,
        merged=merged,
    )


def _process_frame(rig, frame, views, detections, variant, cfg, dropped):
    """Returns (working 2D detections, MatchResult or None, PredBox list).

    views maps camera id to the frame's CameraView on that camera.
    """
    if variant in (Variant.ORIGINAL, Variant.ORIGINAL_NMS):
        working = _strip_embeddings(detections)
        if variant is Variant.ORIGINAL_NMS:
            working = nms_greedy(working, cfg.nms_iou)
    else:
        working = list(detections)
    matches = None
    if variant in (Variant.EMBEDDING_2D, Variant.SIANMS):
        matches = match_adjacent(rig, working, cfg.resolved_tau)
    frustums, n_empty = _frustum_map(rig, working, views)
    dropped["empty_frustum"] += n_empty
    boxes = []
    if variant is Variant.SIANMS:
        for pair in matches.pairs:
            fr_a, fr_b = frustums[pair.a], frustums[pair.b]
            merged = False
            if fr_a is not None and fr_b is not None:
                try:
                    frustum = merge_frustums(fr_a, fr_b)
                    merged = True
                except (MergeRejected, DegenerateExtent):
                    frustum = fr_a if pair.a.score >= pair.b.score else fr_b
            elif fr_a is not None or fr_b is not None:
                frustum = fr_a if fr_a is not None else fr_b
            else:
                continue
            box = _estimate(
                frustum, pair.a.class_id, max(pair.a.score, pair.b.score),
                frame.index, 2, merged, cfg, dropped,
            )
            if box:
                boxes.append(box)
        for det in matches.unmatched:
            frustum = frustums[det]
            if frustum is None:
                continue
            box = _estimate(
                frustum, det.class_id, det.score, frame.index, 1, False, cfg, dropped
            )
            if box:
                boxes.append(box)
    else:
        for det in working:
            frustum = frustums[det]
            if frustum is None:
                continue
            box = _estimate(
                frustum, det.class_id, det.score, frame.index, 1, False, cfg, dropped
            )
            if box:
                boxes.append(box)
    return working, matches, boxes


def _gt_2d_records(rig, frame):
    """Projected ground-truth boxes with pixel height and truncation ratio."""
    corners = box_corners(obj.box for obj in frame.objects)
    per_camera = []
    for cam in rig.cameras:
        clipped, visible = box_image_extents(cam, corners)
        raw, _ = box_image_extents(cam, corners, clip=False)
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
    return records


def _mean_row(per_class: dict) -> dict:
    def mean_of(key):
        values = [row[key] for row in per_class.values() if row[key] is not None]
        return float(np.mean(values)) if values else None

    if not per_class:
        return {"ap": 0.0, "ate": None, "ase": None, "aoe": None}
    return {
        "ap": mean_of("ap") if mean_of("ap") is not None else 0.0,
        "ate": mean_of("ate"),
        "ase": mean_of("ase"),
        "aoe": mean_of("aoe"),
    }


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


def _run_variants(scene, variants, cfg, detections) -> list[PipelineResult]:
    """Run the variants over one loop of the frames; results in variant order."""
    runs = [_VariantRun(variant) for variant in variants]
    truth = {}  # frame index -> (Gt2D list, Gt3D list, overlap Gt3D list)
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
        gt3d = [
            Gt3D(group=frame.index, class_id=obj.class_id, box=obj.box)
            for obj in frame.objects
        ]
        truth[frame.index] = (
            _gt_2d_records(rig, frame), gt3d, overlap_region_filter(rig, gt3d)
        )
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


def _evaluate(scene, cfg, run: _VariantRun, truth: dict, shared_s: float):
    """Score one variant's gathered outputs against the frames it processed."""
    started = time.perf_counter()
    processed = [f for f in scene.frames if f.index in run.boxes]
    all_boxes = [b for f in processed for b in run.boxes[f.index]]
    gt2d = [g for f in processed for g in truth[f.index][0]]
    gt3d_all = [g for f in processed for g in truth[f.index][1]]
    gt3d_overlap = [g for f in processed for g in truth[f.index][2]]
    pred3d_all = [
        Pred3D(group=b.frame, class_id=b.class_id, score=b.score, box=b.box)
        for b in all_boxes
    ]
    metrics_3d = {}
    for region, gts, preds in (
        ("all", gt3d_all, pred3d_all),
        ("overlap", gt3d_overlap, overlap_region_filter(scene.rig, pred3d_all)),
    ):
        per_class = evaluate_3d(preds, gts, cfg.eval3d)
        metrics_3d[region] = {"per_class": per_class, "mean": _mean_row(per_class)}
    reid = accumulate(run.reid_frames).as_dict() if run.reid_frames else None
    counts = {
        "frames": len(scene.frames),
        "frames_processed": len(processed),
        "gt_objects": len(gt3d_all),
        "gt_overlap_objects": len(gt3d_overlap),
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


@dataclass
class Comparison:
    """All four variants over identical inputs, plus sianms deltas.

    Serialized artifacts exclude wall-clock runtime so identical runs emit
    byte-identical bytes.
    """

    config: dict
    reports: dict  # variant value -> RunReport
    results: dict  # variant value -> PipelineResult

    def deltas(self) -> dict:
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
        deltas = self.deltas()
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

    def to_text(self) -> str:
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

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
on it, once for both, for 2d+embedding and sianms; each working detection
gets one frustum; then one list of box fits, for sianms one per matched
pair followed by one per unmatched detection and otherwise one per
detection, goes through one estimator loop.  Empty frustums and fits with
too few points are counted as drops.

All variants run in one loop over the frames: each frame's detections (the
supplied ones, else simulated here, for run and compare alike), ground
truth and camera views (its cloud projected once on each camera its
detections name) are built once, then every variant processes the frame and
filters its frustums against those views.  When a matching variant runs,
the frame's detections are matched, and the matches scored for
re-identification, once, before any variant, as part of that shared work.
Ground truth only scores: a frame with a detection that lacks a truth uid
is processed and its matches left unscored, and a run's re-id score is None
unless every frame it processed was scored.  Every variant makes its own
filter_frustum and estimate_box calls, but a view keeps each frustum
filtered on it and a frustum each box fitted to it, so that work is done
once per frame, by the first variant that asks, and the others get the
same Frustum and Box3D.  A drop is no kept exception: a view keeps None for
an empty frustum, and a fit with too few points is refused from the
frustum's size.  A variant's fits of a frame are first handed to
estimate_boxes, which fits the frustums no variant has fitted yet in one
batched pass; its estimate_box calls then only look the boxes up.  A frame
whose processing raises is recorded under errors, as the exception's type
and text, by the variants it reached (all of them when building its
detections, ground truth or views raised, 2d+embedding and sianms when
their matching raised, or their re-id scoring on anything but a missing
truth uid); its boxes and drops count for none of them, and the run
continues with the remaining frames.  Scoring is shared the same way:
variants with the same input over the same frames get one 2D AP (per
working set) and one set of 3D metrics (per working set and fit rule, which
original and 2d+embedding have in common), each report holding its own
copy.
"""

from __future__ import annotations

import copy
import time
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import chain, groupby
from types import UnionType
from typing import NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .estimator import EstimatorConfig, TooFewPoints, estimate_box, estimate_boxes
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
from .reid_eval import REID_KEYS, REID_RATES, MissingTruth, accumulate, evaluate_frame
from .scene import BBox2D, Box3D, CameraRig, Detection2D, SceneObject, box_corners, box_image_extents
from .synthgen import GenSpec, _simulate_projected


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
    cloud: np.ndarray | None  # None when the scene is loaded without clouds


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
    detections: dict  # frame index -> the frame's Detection2D list, supplied or simulated


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


# The kind of JSON value each type hint expects, as error texts name it.
_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "a boolean",
          list: "a list", tuple: "a list", dict: "an object", type(None): "null"}
# The value types a number hint takes in one pass over a list's types: an int
# or a float but not a bool, and no float for an int hint.
_NUMBERS = {float: {int, float}, int: {int}}


@cache
def _hint_facts(hint) -> tuple:
    """(is a section, get_origin, get_args, the kind of value it expects, and
    for a tuple of one number hint, or of rows of n of one, that hint's
    _NUMBERS and n) of a type hint, worked out once per hint for _misfit and
    _from_json."""
    section, origin, args = is_dataclass(hint), get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        kind = " or ".join(_hint_facts(arg)[3] for arg in args)
    else:
        kind = "an object" if section else _KINDS.get(origin or hint)
    numbers = row = None
    if origin is tuple and len(set(args) - {Ellipsis}) == 1:
        numbers, (_, inner, inner_args, _, inner_numbers, _) = _NUMBERS.get(args[0]), _hint_facts(args[0])
        if inner is tuple and inner_numbers:
            numbers, row = inner_numbers, len(inner_args)
    return section, origin, args, kind, numbers, row


def fail(path: str, message: str):
    """Raise SchemaError for message at a JSON path; the top level of a
    config or spec has the path '', its loader prefixing config: or spec:."""
    raise SchemaError(f"{path}: {message}" if path else message)


def _misfit(value, hint):
    """None when a JSON value fits a type hint, else (the path from value to
    its innermost element that does not, the text saying what that element
    should be): a number is an int or a float but not a bool, an int takes no
    float, a tuple a list of its length and a dict an object whose elements
    fit, a union one of its members, object anything, and a section (a
    dataclass) is checked as it is built.  A value that fits builds no text;
    a list of numbers, or of rows of them, is first checked by its types."""
    if type(value) is hint:
        return None
    section, origin, args, kind, numbers, row = _hint_facts(hint)
    if section or hint is object:
        return None
    if hint is float or hint is int:
        if isinstance(value, (int, hint)) and not isinstance(value, bool):
            return None
    elif origin is tuple and isinstance(value, (list, tuple)):
        variadic = args[-1] is Ellipsis
        if not variadic and len(value) != len(args):
            return "", f"expected {len(args)} elements, got {len(value)}"
        if numbers is not None and (
            set(map(type, value)) <= numbers if row is None else
            set(map(type, value)) <= {list} and set(map(len, value)) <= {row}
            and set(map(type, chain.from_iterable(value))) <= numbers
        ):
            return None
        for i, item in enumerate(value):
            misfit = _misfit(item, args[0] if variadic else args[i])
            if misfit:
                return f"[{i}]{misfit[0]}", misfit[1]
        return None
    elif origin is dict and isinstance(value, dict):
        for key, item in value.items():
            misfit = _misfit(key, args[0])
            if misfit:
                return f" key {key!r}", misfit[1]
            misfit = _misfit(item, args[1])
            if misfit:
                return f".{key}{misfit[0]}", misfit[1]
        return None
    elif origin in (Union, UnionType):
        if type(value) in args or any(_misfit(value, arg) is None for arg in args):
            return None
    elif origin is None and isinstance(value, hint):
        return None
    return "", f"expected {kind}, got {type(value).__name__}"


def checked(value, hint, path: str):
    """value, checked to fit hint (_misfit); SchemaError names the innermost
    element that does not, under path."""
    misfit = _misfit(value, hint)
    if misfit:
        fail(path + misfit[0], misfit[1])
    return value


def json_object(value, path: str, fields: dict, optional: dict = {}) -> dict:
    """value, checked to be an object that holds every key of fields, no key
    outside fields and optional, and under each key a value that fits the
    key's type hint (_misfit); every key is checked before any value.  The
    one check of every JSON object read, from a config section to a scene
    file's frame record; a value's path is its key under path (under '' and
    the file root '$', the key alone)."""
    if not isinstance(value, dict):
        fail(path, f"expected an object, got {type(value).__name__}")
    for key in fields:
        if key not in value:
            fail(path, f"missing required key '{key}'")
    for key in value:
        if key not in fields and key not in optional:
            fail(path, f"unknown key {key!r}; expected {', '.join([*fields, *optional])}")
    for key, item in value.items():
        misfit = _misfit(item, fields[key] if key in fields else optional[key])
        if misfit:
            fail((key if path in ("", "$") else f"{path}.{key}") + misfit[0], misfit[1])
    return value


@cache
def _section_fields(cls) -> tuple[dict, dict, dict]:
    """The type hint of each field of a section class, of those that have no
    default or are FILE_REQUIRED and of the others, all in field order;
    worked out once per class for section_from_dict."""
    hints, required, optional = get_type_hints(cls), {}, {}
    for f in fields(cls):
        file_required = f.default is f.default_factory is MISSING or f.metadata.get("required")
        (required if file_required else optional)[f.name] = hints[f.name]
    return {f.name: hints[f.name] for f in fields(cls)}, required, optional


def _from_json(hint, value, path: str):
    """A checked field value as its dataclass holds it: lists as tuples, and
    a section, or each element of a tuple of sections, built from its object."""
    section, origin, args = _hint_facts(hint)[:3]
    if section:
        return section_from_dict(hint, value, f"{path}.")
    if origin is tuple and _hint_facts(args[0])[0]:
        return tuple(section_from_dict(args[0], v, f"{path}[{i}].") for i, v in enumerate(value))
    return _tuples(value)


def section_from_dict(cls, data, prefix: str):
    """cls built from a JSON object, the one reader of configs, spec sections
    and the rig; a section field, or each element of a tuple of them, is
    built under its path (rig.cameras[2].pose.).  An omitted field keeps its
    default unless it has none or is FILE_REQUIRED.  SchemaError names the
    path of a bad key or of a value of the wrong type (json_object) and of
    the object whose constructor raises ValueError (rig.cameras[2].pose: ...)."""
    path = prefix[:-1]
    hints, required, optional = _section_fields(cls)
    json_object(data, path, required, optional)
    kwargs = {k: _from_json(h, data[k], f"{prefix}{k}") for k, h in hints.items() if k in data}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        fail(path, str(exc))


def config_to_dict(cfg: PipelineConfig) -> dict:
    return json_value(cfg)


def config_from_dict(data: dict) -> PipelineConfig:
    """Inverse of config_to_dict; omitted fields keep their defaults.

    Raises SchemaError naming the first unknown key or value of the wrong
    type (section_from_dict).
    """
    return section_from_dict(PipelineConfig, data, "")


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


def _process_frame(rig, frame, views, working, matches, variant, cfg):
    """(the PredBox list, the Counter of drops) of one variant on a frame's
    working detections.

    views maps camera id to the frame's CameraView on that camera; matches
    is the MatchResult of the frame's detections, sianms's working set,
    which sianms fits its pairs from and the other variants ignore.
    The variant's fits go to estimate_boxes as one batch, so its
    estimate_box calls, one per fit in order, are lookups that return the
    box or raise the fit's drop or error where the fit stands.
    """
    dropped = Counter()  # drop -> count: empty_frustum, too_few_points
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
    estimate_boxes([(fit[0], fit[1]) for fit in fits if fit[0] is not None], cfg.estimator)
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
    return boxes, dropped


def frame_truth(rig, frame, projection=None):
    """(2D records, 3D ground truth by region) of a frame, from one
    projection of its boxes on the whole rig: projection, if given, is
    box_image_extents(rig.cameras, corners) of the frame's boxes.

    The 2D records are the projected boxes with pixel height and truncation
    ratio.  The 3D ground truth of "all" holds every object; "overlap" keeps
    those with a nonempty clipped projection in at least 2 cameras,
    overlap_region_filter's rule, counted from the same clipped projections
    as the 2D records.
    """
    if projection is None:
        projection = box_image_extents(rig.cameras, box_corners(obj.box for obj in frame.objects))
    raw, clipped, visible = projection
    n_visible = visible.sum(axis=0)
    per_camera = list(zip(rig.cameras, clipped.tolist(), raw.tolist(), visible.tolist()))
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
    dropped: Counter = field(default_factory=Counter)  # of the frames processed
    errors: list = field(default_factory=list)
    boxes: dict = field(default_factory=dict)  # frame index -> PredBox list
    matches: dict = field(default_factory=dict)  # frame index -> MatchResult
    pred2d: list = field(default_factory=list)
    reid_frames: list = field(default_factory=list)  # ReidStats, None where unscored
    n_detections: int = 0
    seconds: float = 0.0


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def check_inputs(scene: Scene, cfg: PipelineConfig, detections: dict | None = None) -> None:
    """Raise SchemaError unless every class that will be fitted has an
    estimator.dim_priors entry and every detection names a rig camera and a
    frame of the scene, so that such inputs fail once, before the first
    frame.  The classes fitted are those of the detections, or, when
    detections is None and the pipeline simulates them, those of the
    scene's objects; a class only the ground truth holds needs no prior."""
    dets = [det for frame_dets in (detections or {}).values() for det in frame_dets]
    fitted = dets if detections is not None else [obj for f in scene.frames for obj in f.objects]
    missing = sorted({item.class_id for item in fitted} - set(cfg.estimator.dim_priors))
    if missing:
        raise SchemaError(f"config: estimator.dim_priors has no prior for class {missing[0]!r}")
    unknown = sorted({det.camera_id for det in dets} - {cam.id for cam in scene.rig.cameras})
    if unknown:
        raise SchemaError(f"detections: camera {unknown[0]!r} is not in the rig")
    strays = sorted(set(detections or {}) - {frame.index for frame in scene.frames})
    if strays:
        raise SchemaError(f"detections: frame {strays[0]} is not in the scene")


def _run_variants(scene, variants, cfg, detections) -> list[PipelineResult]:
    """Check the scene's classes when the detections are simulated, then run
    the variants over one loop of the frames; results in variant order.
    Supplied detections are checked where a detections file is loaded, so
    that a bad entry handed in by a caller stays an error of its own frame."""
    if detections is None:
        check_inputs(scene, cfg)
    runs = [_VariantRun(variant) for variant in variants]
    dets_by_frame = {}  # frame index -> its Detection2D list
    truth = {}  # frame index -> (Gt2D list, {region: Gt3D list})
    shared_s = 0.0
    for frame in scene.frames:
        shared_s += _run_frame(scene.rig, frame, runs, cfg, detections, dets_by_frame, truth)
    scores = {}  # (score, its input, frames processed) -> that score
    return [_evaluate(scene, cfg, run, dets_by_frame, truth, shared_s, scores) for run in runs]


# the variants that match their working set across cameras
_MATCHING = (Variant.EMBEDDING_2D, Variant.SIANMS)


def _run_frame(rig, frame, runs, cfg, detections, dets_by_frame, truth) -> float:
    """Process one frame for every run, keeping its detections in
    dets_by_frame and its ground truth in truth; returns the seconds of
    shared work.

    The detections (the supplied ones, else simulated) and the 2D
    ground-truth records, both from one projection of the frame's boxes on
    the rig, the 3D ground truth with its overlap subset and one CameraView
    per rig camera that a detection names are built once and shared by every
    variant; an exception there is recorded under the frame by every
    variant.  The matching variants match the same working set, the frame's
    detections, so when any run matches, match_adjacent and evaluate_frame
    run once, before the variants, and their seconds count as shared work.
    Ground truth only scores: when a detection lacks a truth uid
    (MissingTruth), the frame is processed and its matches left unscored.
    Any other exception there is kept as its text, which each matching
    variant records in place of processing the frame.  Each variant then
    filters and fits its boxes through its own calls, so an exception there
    is recorded by that variant only, and the frame's boxes and drops count
    for it only when none is raised; a repeated filter or fit is a lookup in
    the views (filter_frustum, estimate_box), and its work counts toward the
    first variant that asks.  The views, and all they keep, are dropped on
    return.
    """
    started = time.perf_counter()
    try:
        projection = box_image_extents(rig.cameras, box_corners(obj.box for obj in frame.objects))
        if detections is not None:
            frame_dets = list(detections.get(frame.index, []))
        else:
            frame_dets = _simulate_projected(rig, frame.objects, cfg.gen, frame.index, projection)
        dets_by_frame[frame.index] = frame_dets
        truth[frame.index] = frame_truth(rig, frame, projection)
        named = {det.camera_id for det in frame_dets}
        views = {
            cam.id: camera_view(cam, frame.cloud)
            for cam in rig.cameras
            if cam.id in named
        }
    except Exception as exc:  # noqa: BLE001 - frame isolation is the contract
        for run in runs:
            run.errors.append({"frame": frame.index, "error": _error_text(exc)})
        return time.perf_counter() - started
    matches = reid = match_error = None
    if any(run.variant in _MATCHING for run in runs):
        try:
            matches = match_adjacent(rig, frame_dets, cfg.resolved_tau)
            reid = evaluate_frame(matches, frame_dets, rig.adjacency, frame.index)
        except MissingTruth:
            pass  # processed, unscored
        except Exception as exc:  # noqa: BLE001 - frame isolation is the contract
            match_error = _error_text(exc)
    shared_s = time.perf_counter() - started
    for run in runs:
        matching = run.variant in _MATCHING
        if matching and match_error is not None:
            run.errors.append({"frame": frame.index, "error": match_error})
            continue
        started = time.perf_counter()
        try:
            working = frame_dets
            if run.variant is Variant.ORIGINAL_NMS:
                working = nms_greedy(frame_dets, cfg.nms_iou)
            boxes, dropped = _process_frame(rig, frame, views, working, matches, run.variant, cfg)
        except Exception as exc:  # noqa: BLE001 - frame isolation is the contract
            run.errors.append({"frame": frame.index, "error": _error_text(exc)})
            continue
        finally:
            run.seconds += time.perf_counter() - started
        if matching:
            run.matches[frame.index] = matches
            run.reid_frames.append(reid)
        run.boxes[frame.index] = boxes
        run.dropped.update(dropped)
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


def _evaluate(scene, cfg, run: _VariantRun, frame_dets: dict, truth: dict, shared_s: float, scores: dict):
    """Score one variant's gathered outputs against the frames it processed.

    Variants with the same input over the same frames share one score, from
    scores: 2D AP is keyed by the working set (all detections or the NMS
    subset) and the 3D metrics of both regions by the working set and the
    fit rule (pairs first for sianms, else one box per detection), the two
    things _run_frame and _process_frame choose the boxes by, so original
    and 2d+embedding share one.  The keys are known by construction;
    outputs are never compared.  Each report gets its own copy of a shared
    score, so editing one report leaves the others as they were.
    """
    started = time.perf_counter()
    processed = [f for f in scene.frames if f.index in run.boxes]
    frames = tuple(f.index for f in processed)
    all_boxes = [b for f in processed for b in run.boxes[f.index]]
    gt3d = {region: [g for f in processed for g in truth[f.index][1][region]] for region in REGIONS}
    nms = run.variant is Variant.ORIGINAL_NMS
    key_2d = ("2d", nms, frames)
    if key_2d not in scores:
        gt2d = [g for f in processed for g in truth[f.index][0]]
        scores[key_2d] = ap_2d(run.pred2d, gt2d, cfg.eval2d)
    key_3d = ("3d", nms, run.variant is Variant.SIANMS, frames)
    if key_3d not in scores:
        scores[key_3d] = {}
        for region in REGIONS:
            per_class = evaluate_boxes(scene.rig, all_boxes, gt3d[region], region, cfg.eval3d)
            scores[key_3d][region] = {"per_class": per_class, "mean": _mean_row(per_class)}
    scored = run.reid_frames and None not in run.reid_frames  # every processed frame
    reid = accumulate(run.reid_frames).as_dict() if scored else None
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
        ap_2d=dict(scores[key_2d]),
        reid=reid,
        metrics_3d=copy.deepcopy(scores[key_3d]),
        errors=run.errors,
        runtime_s=float(shared_s + run.seconds + time.perf_counter() - started),
    )
    return PipelineResult(report=report, boxes=run.boxes, matches=run.matches, detections=frame_dets)


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

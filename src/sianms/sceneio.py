"""File formats: scenes, detections, matches, boxes, configs, reports.

All files are UTF-8 JSON with sorted keys: scene and detections files on
one line, in json.dumps's default layout, and every other file with indent
2. LiDAR clouds may live inline, as a list of [x, y, z] rows under the
frame's "lidar": {"inline": ...}, or in a binary side file of little-endian
32-bit floats, row-major xyz triples, referenced by a path relative to the
scene file. Malformed input raises SchemaError carrying the JSON path of the
offending element. Every JSON object read, a record or a config section,
has its keys and then its values checked by pipeline.json_object, each
value against its key's type hint (frames[1].objects[0]: unknown key 'boxx';
expected uid, class, box, or $[0].bbox[3]: expected a number, got bool); the
scene's rig, like a config or spec, is read by pipeline.section_from_dict,
so a constructor's error is named by its object's path (rig.cameras[2].pose:
...).

A scene or detections file is exactly json.dumps(payload, sort_keys=True)
plus a newline. All of a detections file goes through one json.dumps; a
scene file is written frame by frame, one cloud's text at a time, so
writing it holds a small fraction of the file in memory, not copies of all
of it. Each frame's other values and the rig go through json.dumps, and an
inline cloud's rows through one % template of float.__repr__, which is how
json spells a finite float. JSON is parsed with the cyclic garbage
collector paused, as json.loads builds no reference cycles and would
otherwise set off a collector pass every few hundred lists it builds; a
scene stays paused through the walk over its records too, so that no pass
walks the parsed lists before they are dropped.

A scene file read with its clouds is parsed by json.loads. A read without
clouds walks the file's top levels (the top object, its "frames" array, each
frame and its "lidar" object), every value below them decoded by json's own
C decoder, and decodes each inline cloud with a decoder that takes each
float's text for its length: that checks the cloud's JSON in full but builds
none of its numbers, which is about half of parsing an inline scene. Where
the walk finds no JSON, json.loads of the whole text raises json's own
error, so that read too accepts exactly the files json.loads does (up to
_walk's note on deep nesting) and names a fault as it does. Files in the
indent-2 layout of earlier versions read as their compact text does.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .matching import MatchedPair, MatchResult
from .pipeline import (Frame, PipelineConfig, PredBox, Scene, SchemaError, checked, config_from_dict,
                       fail, json_object, json_value, section_from_dict)
from .scene import BBox2D, Box3D, CameraRig, Detection2D, SceneObject, as_point_cloud, check_topology
from .synthgen import GenSpec, RigSpec


def _float_rows(value, path: str, length: int) -> np.ndarray:
    """A list of rows of `length` numbers, checked by pipeline.checked, as an
    (n, length) float array."""
    rows = checked(value, tuple[tuple[(float,) * length], ...], path)
    return np.fromiter(chain.from_iterable(rows), float, len(rows) * length).reshape(-1, length)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector; leave it as it was found."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(path, walk=None) -> object:
    """The JSON value in the file at path, parsed with the cyclic garbage
    collector paused; the collector is left as it was found. With a walk
    entry (_CLOUD_FREE_SCENE_FILE) the text is read by _walked; json.loads
    reads it otherwise, or where _walked finds no JSON, and so raises json's
    own error."""
    text = Path(path).read_text(encoding="utf-8")
    with _collector_paused():
        if walk is not None:
            try:
                return _walked(text, walk)
            except (ValueError, RecursionError):
                pass
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON ({exc})") from exc


def _dump_json(path, payload) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- cameras and scenes -------------------------------------------------------


def rig_to_dict(rig: CameraRig) -> dict:
    return json_value(rig)


def rig_from_dict(data) -> CameraRig:
    """A scene file's rig, read like a config section: every camera and pose
    field and the adjacency must be present, and no other key."""
    return section_from_dict(CameraRig, data, "rig.")


def _box_to_list(box: Box3D) -> list[float]:
    return [box.x, box.y, box.z, box.l, box.w, box.h, box.theta]


# A box as a file holds it: x, y, z, l, w, h, theta.
_BOX = tuple[(float,) * 7]


def _box_from_record(rec: dict, path: str) -> Box3D:
    """The Box3D under a checked record's "box" key; path is the record's."""
    try:
        return Box3D(*map(float, rec["box"]))
    except ValueError as exc:
        raise SchemaError(f"{path}.box: {exc}") from exc


def write_scene(path, scene: Scene, lidar_bin: bool = False) -> None:
    """Write a scene file; lidar_bin switches clouds to binary side files.

    Every cloud is checked by as_point_cloud, and every frame's text but its
    cloud built by json.dumps, before any file is opened, so a cloud that is
    not (N, 3) or holds a non-finite coordinate, which load_scene would
    refuse, raises ValueError, and a value json cannot encode TypeError, and
    neither writes anything. The file is then written frame by frame, each
    inline cloud's text formatted just before it is written, so no more than
    one cloud's text is held at a time. A cloud row is laid out by a template:
    json spells a finite float as float.__repr__ does.
    """
    path = Path(path)
    clouds = [as_point_cloud(frame.cloud) for frame in scene.frames]
    frames = [
        (json.dumps(frame.index), json.dumps(
            [{"box": _box_to_list(obj.box), "class": obj.class_id, "uid": obj.uid} for obj in frame.objects],
            sort_keys=True))
        for frame in scene.frames
    ]
    rig = json.dumps(rig_to_dict(scene.rig), sort_keys=True)
    bin_names = [f"{path.stem}_frame{frame.index:04d}.bin" for frame in scene.frames]
    if lidar_bin:
        for cloud, bin_name in zip(clouds, bin_names):
            (path.parent / bin_name).write_bytes(cloud.astype("<f4").tobytes())
    with path.open("w", encoding="utf-8") as out:
        out.write('{"frames": [')
        separator = ""
        for (index, objects), cloud, bin_name in zip(frames, clouds, bin_names):
            if lidar_bin:
                lidar = json.dumps({"bin_file": bin_name})
            else:
                rows = ", ".join(["[%r, %r, %r]"] * len(cloud)) % tuple(cloud.ravel().tolist())
                lidar = '{"inline": [%s]}' % rows
            out.writelines((separator, '{"index": ', index, ', "lidar": ', lidar, ', "objects": ', objects,
                            "}"))
            separator = ", "
        out.write('], "rig": %s}\n' % rig)


# The type hint of each key of a scene file's records.
_SCENE = {"rig": CameraRig, "frames": list}
_FRAME = {"objects": list, "lidar": dict, "index": int}
_SCENE_OBJECT = {"uid": int | str, "class": str, "box": _BOX}


def _check_lidar(lidar, path: str) -> None:
    """A frame's lidar record holds exactly one of 'inline' or 'bin_file',
    whose value _load_cloud checks if it reads the cloud."""
    json_object(lidar, path, {}, {"bin_file": object, "inline": object})
    if ("inline" in lidar) == ("bin_file" in lidar):
        fail(path, "expected exactly one of 'inline' or 'bin_file'")


def _load_cloud(lidar, scene_dir: Path, path: str) -> np.ndarray:
    if "inline" in lidar:
        cloud = _float_rows(lidar["inline"], f"{path}.inline", 3)
    else:
        bin_path = scene_dir / checked(lidar["bin_file"], str, f"{path}.bin_file")
        if not bin_path.is_file():
            fail(f"{path}.bin_file", f"file not found: {bin_path}")
        blob = bin_path.read_bytes()
        if len(blob) % 12 != 0:
            fail(f"{path}.bin_file", f"byte length is not a multiple of 12: {bin_path}")
        cloud = np.frombuffer(blob, dtype="<f4").reshape(-1, 3).astype(float)
    try:
        return as_point_cloud(cloud)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# The parts of json's C decoder that _walk reads a cloud-free scene with.
# _check_syntax spells every float as the length of its text, a cached small
# int, so it checks a value's JSON in full but builds no float.
_decode = json.JSONDecoder().raw_decode
_check_syntax = json.JSONDecoder(parse_float=len).raw_decode
_skip = json.decoder.WHITESPACE.match
_scanstring = json.decoder.scanstring

# How _walk reads a scene file without its clouds: a dict is an object whose key's value is
# read by its entry, a list an array whose every element is read by its one
# entry, and _UNREAD a value whose JSON is checked but which is read as None.
# Every other value, and one not of its entry's kind, is decoded whole.
_UNREAD = object()
_CLOUD_FREE_SCENE_FILE = {"frames": [{"lidar": {"inline": _UNREAD}}]}


def _walk(text: str, end: int, entry) -> tuple[object, int]:
    """The JSON value after any whitespace at text[end:], read by entry (see
    _CLOUD_FREE_SCENE_FILE), and the index past it; ValueError or
    RecursionError where the text holds no JSON value there. It recurses
    once for each level it walks, where json's C scanner would recurse, so
    from _walked a value nests as deep before a RecursionError as it does
    under json.loads from _load_json on Pythons that count C and Python
    recursion as one, 3.10 and 3.11. Later Pythons count them apart, and
    there a value below the walked levels may nest a few levels deeper than
    json.loads allows."""
    end = _skip(text, end).end()
    if isinstance(entry, dict) and text.startswith("{", end):
        value = {}
        end = _skip(text, end + 1).end()
        if text.startswith("}", end):
            return value, end + 1
        while text.startswith('"', end):
            key, end = _scanstring(text, end + 1)
            end = _skip(text, end).end()
            if not text.startswith(":", end):
                break
            value[key], end = _walk(text, end + 1, entry.get(key))
            end = _skip(text, end).end()
            if text.startswith("}", end):
                return value, end + 1
            if not text.startswith(",", end):
                break
            end = _skip(text, end + 1).end()
        raise ValueError(f"no JSON object at char {end}")
    if isinstance(entry, list) and text.startswith("[", end):
        value = []
        end = _skip(text, end + 1).end()
        if text.startswith("]", end):
            return value, end + 1
        while True:
            item, end = _walk(text, end, entry[0])
            value.append(item)
            end = _skip(text, end).end()
            if text.startswith("]", end):
                return value, end + 1
            if not text.startswith(",", end):
                raise ValueError(f"no JSON array at char {end}")
            end += 1
    if entry is _UNREAD:
        return None, _check_syntax(text, end)[1]
    return _decode(text, end)


def _walked(text: str, walk) -> object:
    """The JSON value that fills text, read by _walk over walk; ValueError
    or RecursionError where there is none. It stands where json.loads
    stands in _load_json and calls _walk as json.loads calls its decoder,
    one call deep, which keeps _walk's values as deep as json's."""
    data, end = _walk(text, 0, walk)
    if _skip(text, end).end() != len(text):
        raise ValueError(f"extra data at char {end}")
    return data


def load_scene(path, clouds: bool = True) -> Scene:
    """The scene file at path, every record checked; no two frames share an
    index and no two objects of a frame a uid.

    With clouds=False each frame's lidar record has its keys checked, and an
    inline cloud is checked to be valid JSON, but none of its numbers is
    built and neither its values nor its shape is checked; a bin_file is
    neither read nor checked. Each Frame's cloud is then None: that reads
    what simulate and eval-3d use, the rig and each frame's index and
    objects, at about half the cost of parsing the clouds. That read is
    made by _walk, the full read by json.loads, and either raises json's own
    error for a file that holds no JSON. The cyclic collector stays paused
    until the parsed records are dropped (_collector_paused).
    """
    path = Path(path)
    walk = None if clouds else _CLOUD_FREE_SCENE_FILE
    with _collector_paused():
        return _scene_from_json(_load_json(path, walk), path, clouds)


def _scene_from_json(data, path: Path, clouds: bool) -> Scene:
    """load_scene's walk over the parsed file data."""
    json_object(data, "$", _SCENE)
    rig = rig_from_dict(data["rig"])
    frames = []
    seen = {}  # frame index -> position in the frames list
    for i, frame_data in enumerate(data["frames"]):
        fpath = f"frames[{i}]"
        json_object(frame_data, fpath, _FRAME)
        objects = []
        uids = {}  # uid -> position in the frame's objects list
        for j, obj in enumerate(frame_data["objects"]):
            opath = f"{fpath}.objects[{j}]"
            json_object(obj, opath, _SCENE_OBJECT)
            uid = obj["uid"]
            if uid in uids:
                fail(f"{opath}.uid", f"uid {uid!r} repeats {fpath}.objects[{uids[uid]}].uid")
            uids[uid] = j
            objects.append(SceneObject(uid=uid, class_id=obj["class"], box=_box_from_record(obj, opath)))
        lidar = frame_data["lidar"]
        _check_lidar(lidar, f"{fpath}.lidar")
        cloud = _load_cloud(lidar, path.parent, f"{fpath}.lidar") if clouds else None
        index = frame_data["index"]
        if index in seen:
            fail(f"{fpath}.index", f"frame {index} repeats frames[{seen[index]}].index")
        seen[index] = i
        frames.append(Frame(index=index, objects=tuple(objects), cloud=cloud))
    return Scene(rig=rig, frames=tuple(frames))


# -- detections ----------------------------------------------------------------


def write_detections(path, detections_by_frame: dict) -> None:
    """Write {frame: [Detection2D]} as the detections file: one record per
    detection, frames in sorted order, "embedding" and "truth_uid" left out
    where they are None. A value json cannot encode raises TypeError before
    the file is opened."""
    records = []
    for frame_index in sorted(detections_by_frame):
        for det in detections_by_frame[frame_index]:
            bbox = det.bbox
            rec = {"bbox": [bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max], "camera_id": det.camera_id,
                   "class": det.class_id, "frame": frame_index, "score": det.score}
            if det.embedding is not None:
                rec["embedding"] = det.embedding.tolist()
            if det.truth_uid is not None:
                rec["truth_uid"] = det.truth_uid
            records.append(rec)
    text = json.dumps(records, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


# The type hint of each required and optional key of a detection record.
_DETECTION = {"bbox": tuple[float, float, float, float], "camera_id": str, "class": str,
              "score": float, "frame": int}
_DETECTION_OPTIONAL = {"embedding": tuple[float, ...], "truth_uid": int | str | None}


def load_detection_records(path) -> list[tuple[int, Detection2D]]:
    """Flat (frame, detection) list preserving file order; match files index
    into this list.  Every embedding has the length of the file's first
    ($[1].embedding: expected 16 elements, got 1); a record may have none."""
    records = []
    dim = None  # the length of the file's first embedding
    for i, rec in enumerate(checked(_load_json(path), list, "$")):
        rpath = f"$[{i}]"
        json_object(rec, rpath, _DETECTION, _DETECTION_OPTIONAL)
        embedding = rec.get("embedding")
        if embedding is not None:
            if dim is None:
                dim = len(embedding)
            elif len(embedding) != dim:
                fail(f"{rpath}.embedding", f"expected {dim} elements, got {len(embedding)}")
            embedding = np.asarray([float(v) for v in embedding], dtype=float)
        try:
            det = Detection2D(camera_id=rec["camera_id"], bbox=BBox2D(*map(float, rec["bbox"])),
                              class_id=rec["class"], score=float(rec["score"]), embedding=embedding,
                              truth_uid=rec.get("truth_uid"))
        except ValueError as exc:
            raise SchemaError(f"{rpath}: {exc}") from exc
        records.append((rec["frame"], det))
    return records


def detections_by_frame(records) -> dict:
    out: dict[int, list[Detection2D]] = {}
    for frame_index, det in records:
        out.setdefault(frame_index, []).append(det)
    return out


# -- matches -------------------------------------------------------------------


def write_matches(path, rig: CameraRig, detections_by_frame_map: dict, matches_by_frame: dict) -> None:
    """Match file: rig topology plus matched pairs as global indices into the
    detections file written from the same run."""
    index_of: dict[int, int] = {}
    counter = 0
    for frame_index in sorted(detections_by_frame_map):
        for det in detections_by_frame_map[frame_index]:
            index_of[id(det)] = counter
            counter += 1
    pairs = []
    for frame_index in sorted(matches_by_frame):
        for pair in matches_by_frame[frame_index].pairs:
            pairs.append(
                {
                    "frame": frame_index,
                    "a": index_of[id(pair.a)],
                    "b": index_of[id(pair.b)],
                    "distance": float(pair.distance),
                }
            )
    payload = {
        "cameras": [cam.id for cam in rig.cameras],
        "adjacency": [list(p) for p in rig.adjacency],
        "pairs": pairs,
    }
    _dump_json(path, payload)


_MATCHES = {"cameras": tuple[str, ...], "adjacency": tuple[tuple[str, str], ...], "pairs": list}
_PAIR = {"frame": int, "a": int, "b": int, "distance": float}


def load_matches(path) -> dict:
    """The match file at path, every record checked and its cameras and
    adjacency checked as a rig's are (scene.check_topology)."""
    data = json_object(_load_json(path), "$", _MATCHES)
    try:
        check_topology(data["cameras"], data["adjacency"])
    except ValueError as exc:
        fail("matches", str(exc))
    pairs = []
    for i, rec in enumerate(data["pairs"]):
        json_object(rec, f"pairs[{i}]", _PAIR)
        pairs.append({"frame": rec["frame"], "a": rec["a"], "b": rec["b"], "distance": float(rec["distance"])})
    return {"cameras": list(data["cameras"]), "adjacency": [tuple(p) for p in data["adjacency"]],
            "pairs": pairs}


def matches_against_detections(matches_payload: dict, records) -> dict:
    """Rebuild per-frame MatchResults from a match file and the detection
    records it indexes; unmatched lists hold that frame's remaining detections.
    A detection whose camera the match file does not list is a SchemaError,
    as no pair of it could be scored."""
    unknown = sorted({det.camera_id for _, det in records} - set(matches_payload["cameras"]))
    if unknown:
        raise SchemaError(f"detections: camera {unknown[0]!r} is not in the match file's cameras")
    n = len(records)
    paired: dict[int, list[MatchedPair]] = {}  # frame -> its pairs, in file order
    for pair in matches_payload["pairs"]:
        for key in ("a", "b"):
            if not 0 <= pair[key] < n:
                raise SchemaError(
                    f"pairs: detection index {pair[key]} out of range 0..{n - 1}"
                )
        frame = pair["frame"]
        for key in ("a", "b"):
            if records[pair[key]][0] != frame:
                raise SchemaError(
                    f"pairs: detection {pair[key]} belongs to frame "
                    f"{records[pair[key]][0]}, pair says {frame}"
                )
        a, b = records[pair["a"]][1], records[pair["b"]][1]
        paired.setdefault(frame, []).append(MatchedPair(a=a, b=b, distance=pair["distance"]))
    results: dict[int, MatchResult] = {}
    for frame, frame_dets in sorted(detections_by_frame(records).items()):
        frame_pairs = paired.get(frame, [])
        used = {id(det) for p in frame_pairs for det in (p.a, p.b)}
        unmatched = [det for det in frame_dets if id(det) not in used]
        results[frame] = MatchResult(pairs=frame_pairs, unmatched=unmatched)
    return results


# -- 3D boxes ------------------------------------------------------------------


def write_boxes(path, boxes_by_frame: dict) -> None:
    records = []
    for frame_index in sorted(boxes_by_frame):
        for box in boxes_by_frame[frame_index]:
            records.append(
                {
                    "frame": box.frame,
                    "class": box.class_id,
                    "score": box.score,
                    "box": _box_to_list(box.box),
                    "n_sources": box.n_sources,
                    "merged": box.merged,
                }
            )
    _dump_json(path, records)


_PRED_BOX = {"merged": bool, "frame": int, "class": str, "score": float, "box": _BOX, "n_sources": int}


def load_boxes(path) -> dict:
    out: dict[int, list[PredBox]] = {}
    for i, rec in enumerate(checked(_load_json(path), list, "$")):
        rpath = f"$[{i}]"
        json_object(rec, rpath, _PRED_BOX)
        box = PredBox(frame=rec["frame"], class_id=rec["class"], score=float(rec["score"]),
                      box=_box_from_record(rec, rpath), n_sources=rec["n_sources"], merged=rec["merged"])
        out.setdefault(box.frame, []).append(box)
    return out


# -- configs and reports ---------------------------------------------------------


def apply_overrides(data: dict, overrides: dict) -> dict:
    """data with each override set in place; overrides use dotted paths into
    data, e.g. {"gen.seed": 7, "tau": 0.9}. A path through a value that is
    no object leaves that value in place, for the key check to name."""
    for dotted, value in overrides.items():
        *sections, key = dotted.split(".")
        target = data
        for section in sections:
            if isinstance(target, dict):
                target = target.setdefault(section, {})
        if isinstance(target, dict):
            target[key] = value
    return data


def _load_object(path, overrides: dict | None, what: str, build):
    """build(data) of the JSON object in an optional file plus overrides
    (apply_overrides); SchemaError, prefixed with what, for a file holding
    no object and for a ValueError of build."""
    data = {} if path is None else _load_json(path)
    try:
        return build(apply_overrides(data, overrides or {}))
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from an optional JSON file plus flag overrides
    (see apply_overrides). Missing keys keep their dataclass defaults.
    """
    return _load_object(path, overrides, "config", config_from_dict)


def _spec_from_dict(data: dict) -> tuple[RigSpec, GenSpec]:
    json_object(data, "", {}, {"rig": RigSpec, "gen": GenSpec})
    return (section_from_dict(RigSpec, data.get("rig", {}), "rig."),
            section_from_dict(GenSpec, data.get("gen", {}), "gen."))


def load_spec(path=None, overrides: dict | None = None) -> tuple[RigSpec, GenSpec]:
    """The rig and gen sections of a generate spec, read as load_config reads a config."""
    return _load_object(path, overrides, "spec", _spec_from_dict)


def write_report(path, report) -> None:
    _dump_json(path, report.to_dict())


def write_comparison(path_base, comparison) -> dict:
    """Write compare artifacts (<base>.json/.csv/.txt); returns the paths."""
    base = Path(path_base)
    json_path = base.with_suffix(".json")
    csv_path = base.with_suffix(".csv")
    txt_path = base.with_suffix(".txt")
    _dump_json(json_path, comparison.to_json_dict())
    csv_path.write_text(comparison.to_csv(), encoding="utf-8")
    txt_path.write_text(comparison.to_text(), encoding="utf-8")
    return {"json": json_path, "csv": csv_path, "text": txt_path}

"""File formats: scenes, detections, matches, boxes, configs, reports.

All files are UTF-8 JSON, written with indent 2 and sorted keys. LiDAR
clouds may live inline, as a list of [x, y, z] rows under the frame's
"lidar": {"inline": ...}, or in a binary side file of little-endian 32-bit
floats, row-major xyz triples, referenced by a path relative to the scene
file. Malformed input raises SchemaError carrying the JSON path of the
offending element. Every JSON object read, a record or a config section,
has its keys and then its values checked by pipeline.json_object, each
value against its key's type hint (frames[1].objects[0]: unknown key 'boxx';
expected uid, class, box, or $[0].bbox[3]: expected a number, got bool); the
scene's rig, like a config or spec, is read by pipeline.section_from_dict,
so a constructor's error is named by its object's path (rig.cameras[2].pose:
...).

Scene frames, inline clouds and detection records are written in bulk:
each is laid into the indent-2 layout by one % template, with a frame's
numbers (or a frame's detections') formatted by one call to json's C
encoder and a cloud's by float.__repr__, which is how json spells a finite
float; the rig goes through json.dumps. So the files are byte-identical to
json.dumps(payload, indent=2, sort_keys=True) at a fraction of the
pure-Python encoder's cost. A scene file is written frame by frame, one
cloud's text at a time, so writing it holds a small fraction of the file in
memory, not copies of all of it. JSON is parsed with the cyclic garbage
collector paused, as json.loads builds no reference cycles and would
otherwise set off a collector pass every few hundred lists it builds; a
scene stays paused through the walk over its records too, so that no pass
walks the parsed lists before they are dropped.

A scene file is parsed by one walk over its top levels (the top object, its
"frames" array, each frame and its "lidar" object), every value below them
decoded by json's own C decoder. A read without clouds decodes each inline
cloud with a decoder that takes each float's text for its length: that checks
the cloud's JSON in full but builds none of its numbers, which is about half
of parsing an inline scene. Where the walk finds no JSON, json.loads of the
whole text raises json's own error, so either read accepts exactly the files
json.loads does (up to _walk's note on deep nesting) and names a fault as it
does.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
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
    entry the text is read by _walked; json.loads reads it otherwise, or
    where _walked finds no JSON, and so raises json's own error."""
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


def _json_numbers(values: list) -> list[str]:
    """Each number as json.dumps spells it (int and float repr, NaN,
    Infinity), from one call to json's C encoder; TypeError for a value
    json cannot encode."""
    if not values:
        return []
    numbers = json.dumps(values)[1:-1].split(", ")
    if len(numbers) != len(values):
        raise TypeError("expected numbers only")
    return numbers


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


# An inline cloud row as json.dumps(indent=2) lays it out at the depth the
# scene file holds it: frames, frame, "lidar", "inline", row.
_INLINE_ROW = "          [\n            %r,\n            %r,\n            %r\n          ]"
# A scene object's record as json.dumps(indent=2, sort_keys=True) lays it
# out in its frame's "objects" list.
_OBJECT = (
    '        {\n          "box": [\n'
    + ",\n".join(["            %s"] * 7)
    + '\n          ],\n          "class": %s,\n          "uid": %s\n        }'
)


def _inline_cloud_json(cloud: np.ndarray) -> str:
    """The text json.dumps(indent=2) gives the inline rows of an (n, 3) or
    empty finite cloud in a scene file, in one pass over the values: json
    spells a finite float as float.__repr__ does."""
    if not cloud.size:
        return "[]"
    rows = ",\n".join([_INLINE_ROW] * len(cloud)) % tuple(cloud.ravel().tolist())
    return f"[\n{rows}\n        ]"


def _frame_json(frame: Frame) -> tuple[str, str]:
    """The text json.dumps(indent=2, sort_keys=True) gives a frame record in
    a scene file, as the parts before and after its lidar record's one key
    and value; every number of the frame formatted by one _json_numbers call."""
    values = [frame.index]
    for obj in frame.objects:
        values += _box_to_list(obj.box)
        if not isinstance(obj.uid, str):
            values.append(obj.uid)
    numbers = iter(_json_numbers(values))
    head = f'    {{\n      "index": {next(numbers)},\n      "lidar": {{\n        '
    fields = []
    for obj in frame.objects:
        fields += islice(numbers, 7)
        fields.append(encode_basestring_ascii(obj.class_id))
        fields.append(encode_basestring_ascii(obj.uid) if isinstance(obj.uid, str) else next(numbers))
    objects = "[\n" + ",\n".join([_OBJECT] * len(frame.objects)) + "\n      ]" if frame.objects else "[]"
    return head, ('\n      },\n      "objects": ' + objects + "\n    }") % tuple(fields)


def write_scene(path, scene: Scene, lidar_bin: bool = False) -> None:
    """Write a scene file; lidar_bin switches clouds to binary side files.

    Every cloud is checked by as_point_cloud, and every frame record but its
    cloud formatted, before any file is opened, so a cloud that is not
    (N, 3) or holds a non-finite coordinate, which load_scene would refuse,
    raises ValueError and writes nothing. The file is then written frame by
    frame, each inline cloud's text formatted just before it is written, so
    no more than one cloud's text is held at a time.
    """
    path = Path(path)
    clouds = [as_point_cloud(frame.cloud) for frame in scene.frames]
    frames = [_frame_json(frame) for frame in scene.frames]
    rig = json.dumps(rig_to_dict(scene.rig), indent=2, sort_keys=True).replace("\n", "\n  ")
    bin_names = [f"{path.stem}_frame{frame.index:04d}.bin" for frame in scene.frames]
    if lidar_bin:
        for cloud, bin_name in zip(clouds, bin_names):
            (path.parent / bin_name).write_bytes(cloud.astype("<f4").tobytes())
    with path.open("w", encoding="utf-8") as out:
        out.write('{\n  "frames": [')
        separator = "\n"
        for (head, tail), cloud, bin_name in zip(frames, clouds, bin_names):
            if lidar_bin:
                lidar = f'"bin_file": {encode_basestring_ascii(bin_name)}'
            else:
                lidar = f'"inline": {_inline_cloud_json(cloud)}'
            out.writelines((separator, head, lidar, tail))
            separator = ",\n"
        out.write(("\n  ]" if frames else "]") + f',\n  "rig": {rig}\n}}\n')


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


# The parts of json's C decoder that _walk reads a scene file with.
# _check_syntax spells every float as the length of its text, a cached small
# int, so it checks a value's JSON in full but builds no float.
_decode = json.JSONDecoder().raw_decode
_check_syntax = json.JSONDecoder(parse_float=len).raw_decode
_skip = json.decoder.WHITESPACE.match
_scanstring = json.decoder.scanstring

# How _walk reads a scene file: a dict is an object whose key's value is
# read by its entry, a list an array whose every element is read by its one
# entry, and _UNREAD a value whose JSON is checked but which is read as None.
# Every other value, and one not of its entry's kind, is decoded whole.
_UNREAD = object()
_SCENE_FILE = {"frames": [{"lidar": {"inline": None}}]}
_CLOUD_FREE_SCENE_FILE = {"frames": [{"lidar": {"inline": _UNREAD}}]}


def _walk(text: str, end: int, entry) -> tuple[object, int]:
    """The JSON value after any whitespace at text[end:], read by entry (see
    _SCENE_FILE), and the index past it; ValueError or RecursionError where
    the text holds no JSON value there. It recurses once for each level it
    walks, where json's C scanner would recurse, so from _walked a value
    nests as deep before a RecursionError as it does under json.loads from
    _load_json on Pythons that count C and Python recursion as one, 3.10
    and 3.11. Later Pythons count them apart, and there a value below the
    walked levels may nest a few levels deeper than json.loads allows."""
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
    objects, at about half the cost of parsing the clouds. Either way the
    file is read by _walk, and a file it finds no JSON in raises json's own
    error. The cyclic collector stays paused until the parsed records are
    dropped (_collector_paused).
    """
    path = Path(path)
    walk = _SCENE_FILE if clouds else _CLOUD_FREE_SCENE_FILE
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


# A detection record as json.dumps(indent=2, sort_keys=True) lays it out in
# the file's top-level list, up to the optional "embedding"; the keys follow
# in sorted order.
_RECORD_HEAD = (
    '  {\n    "bbox": [\n      %s,\n      %s,\n      %s,\n      %s\n    ],\n'
    '    "camera_id": %s,\n    "class": %s,\n'
)
_EMBEDDING_SEP = ",\n      "


def _frame_records_json(frame_index, detections) -> str:
    """The text json.dumps(indent=2, sort_keys=True) gives one frame's
    detection records in the detections file, every number of the frame
    formatted by one _json_numbers call."""
    values = [frame_index]
    for det in detections:
        bbox = det.bbox
        values += (bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max, det.score)
        if det.embedding is not None:
            values += det.embedding.tolist()
        if det.truth_uid is not None and not isinstance(det.truth_uid, str):
            values.append(det.truth_uid)
    numbers = _json_numbers(values)
    frame = numbers[0]
    i = 1
    records = []
    for det in detections:
        text = _RECORD_HEAD % (
            *numbers[i : i + 4],
            encode_basestring_ascii(det.camera_id),
            encode_basestring_ascii(det.class_id),
        )
        score = numbers[i + 4]
        i += 5
        if det.embedding is not None:
            n = len(det.embedding)
            embedding = _EMBEDDING_SEP.join(numbers[i : i + n])
            text += f'    "embedding": [\n      {embedding}\n    ],\n' if n else '    "embedding": [],\n'
            i += n
        text += f'    "frame": {frame},\n    "score": {score}'
        uid = det.truth_uid
        if isinstance(uid, str):
            text += f',\n    "truth_uid": {encode_basestring_ascii(uid)}'
        elif uid is not None:
            text += f',\n    "truth_uid": {numbers[i]}'
            i += 1
        records.append(text + "\n  }")
    return ",\n".join(records)


def write_detections(path, detections_by_frame: dict) -> None:
    """Write {frame: [Detection2D]} as the detections file: one record per
    detection, frames in sorted order, built one frame at a time."""
    chunks = [
        _frame_records_json(frame_index, detections_by_frame[frame_index])
        for frame_index in sorted(detections_by_frame)
        if detections_by_frame[frame_index]
    ]
    text = "[\n" + ",\n".join(chunks) + "\n]\n" if chunks else "[]\n"
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

"""File formats: scenes, detections, matches, boxes, configs, reports.

All files are UTF-8 JSON, written with indent 2 and sorted keys. LiDAR
clouds may live inline, as a list of [x, y, z] rows under the frame's
"lidar": {"inline": ...}, or in a binary side file of little-endian 32-bit
floats, row-major xyz triples, referenced by a path relative to the scene
file. Malformed input raises SchemaError carrying the JSON path of the
offending element.

Inline clouds and detection records are written in bulk: their numbers are
formatted by one call to json's C encoder (a cloud's at once, a frame's
detections' at once) and laid into the indent-2 layout by hand, so the
files are byte-identical to json.dumps(payload, indent=2, sort_keys=True)
at a fraction of the pure-Python encoder's cost. A scene file with inline
clouds is written piece by piece, one cloud's text at a time, so writing
it holds a small fraction of the file in memory, not copies of all of it.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .matching import MatchedPair, MatchResult
from .pipeline import (Frame, PipelineConfig, PredBox, Scene, SchemaError, check_sections,
                       config_from_dict, json_value, section_from_dict)
from .scene import BBox2D, Box3D, CameraModel, CameraRig, Detection2D, Pose, SceneObject, as_point_cloud
from .synthgen import GenSpec, RigSpec


def _fail(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _get(mapping, key, path: str):
    if not isinstance(mapping, dict):
        _fail(path, f"expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        _fail(path, f"missing required key '{key}'")
    return mapping[key]


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _uid(value, path: str) -> int | str:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        _fail(path, f"expected an integer or a string, got {type(value).__name__}")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} elements, got {len(value)}")
    return value


def _all_numbers(values) -> bool:
    """Whether every value is an int or a float (so not a bool)."""
    return set(map(type, values)) <= {int, float}


def _floats(value, path: str, length: int | None = None) -> list[float]:
    values = _list(value, path, length)
    if not _all_numbers(values):
        for i, v in enumerate(values):
            _num(v, f"{path}[{i}]")
    return [float(v) for v in values]


def _float_rows(value, path: str, length: int) -> np.ndarray:
    """A list of rows of `length` numbers as an (n, length) float array.

    The whole list is checked at once; only a list that fails the check is
    walked row by row, so that the SchemaError names the offending element.
    """
    rows = _list(value, path)
    if not (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {length}
        and _all_numbers(chain.from_iterable(rows))
    ):
        rows = [_floats(row, f"{path}[{i}]", length) for i, row in enumerate(rows)]
    return np.fromiter(chain.from_iterable(rows), float, len(rows) * length).reshape(-1, length)


def _load_json(path) -> object:
    text = Path(path).read_text(encoding="utf-8")
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


def _camera_from_dict(data, path: str) -> CameraModel:
    pose_data = _get(data, "pose", path)
    pose = Pose(
        q=tuple(_floats(_get(pose_data, "q", f"{path}.pose"), f"{path}.pose.q", 4)),
        t=tuple(_floats(_get(pose_data, "t", f"{path}.pose"), f"{path}.pose.t", 3)),
    )
    return CameraModel(
        id=_str(_get(data, "id", path), f"{path}.id"),
        fx=_num(_get(data, "fx", path), f"{path}.fx"),
        fy=_num(_get(data, "fy", path), f"{path}.fy"),
        cx=_num(_get(data, "cx", path), f"{path}.cx"),
        cy=_num(_get(data, "cy", path), f"{path}.cy"),
        width=_num(_get(data, "width", path), f"{path}.width"),
        height=_num(_get(data, "height", path), f"{path}.height"),
        pose=pose,
    )


def rig_to_dict(rig: CameraRig) -> dict:
    return json_value(rig)


def rig_from_dict(data, path: str = "rig") -> CameraRig:
    cameras = tuple(
        _camera_from_dict(c, f"{path}.cameras[{i}]")
        for i, c in enumerate(_list(_get(data, "cameras", path), f"{path}.cameras"))
    )
    adjacency = []
    for i, pair in enumerate(_list(_get(data, "adjacency", path), f"{path}.adjacency")):
        items = _list(pair, f"{path}.adjacency[{i}]", 2)
        adjacency.append(
            (
                _str(items[0], f"{path}.adjacency[{i}][0]"),
                _str(items[1], f"{path}.adjacency[{i}][1]"),
            )
        )
    try:
        return CameraRig(cameras=cameras, adjacency=tuple(adjacency))
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _box_to_list(box: Box3D) -> list[float]:
    return [box.x, box.y, box.z, box.l, box.w, box.h, box.theta]


def _box_from_list(data, path: str) -> Box3D:
    x, y, z, l, w, h, theta = _floats(data, path, 7)
    try:
        return Box3D(x=x, y=y, z=z, l=l, w=w, h=h, theta=theta)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# An inline cloud row as json.dumps(indent=2) lays it out at the depth the
# scene file holds it: frames, frame, "lidar", "inline", row.
_INLINE_ROW = "          [\n            %s,\n            %s,\n            %s\n          ]"


def _inline_cloud_json(cloud: np.ndarray) -> str:
    """The text json.dumps(indent=2) gives the inline rows of an (n, 3) or
    empty cloud in a scene file, each value formatted by json itself, but in
    one pass over the values."""
    if not cloud.size:
        return "[]"
    values = _json_numbers(cloud.ravel().tolist())
    rows = ",\n".join([_INLINE_ROW] * len(cloud)) % tuple(values)
    return f"[\n{rows}\n        ]"


def write_scene(path, scene: Scene, lidar_bin: bool = False) -> None:
    """Write a scene file; lidar_bin switches clouds to binary side files.

    Every cloud is checked by as_point_cloud before any file is opened, so
    a cloud that is not (N, 3) or holds a non-finite coordinate, which
    load_scene would refuse, raises ValueError and writes nothing. Inline
    clouds are left out of the json.dumps call, as "inline": null; the file
    is then written piece by piece, each piece of that text between two
    nulls followed by the next cloud's text, formatted just before it is
    written, so no more than one cloud's text is held at a time.
    """
    path = Path(path)
    clouds = [as_point_cloud(frame.cloud) for frame in scene.frames]
    bin_names = [f"{path.stem}_frame{frame.index:04d}.bin" for frame in scene.frames]
    frames = [
        {
            "index": frame.index,
            "objects": [
                {
                    "uid": obj.uid,
                    "class": obj.class_id,
                    "box": _box_to_list(obj.box),
                }
                for obj in frame.objects
            ],
            "lidar": {"bin_file": bin_name} if lidar_bin else {"inline": None},
        }
        for frame, bin_name in zip(scene.frames, bin_names)
    ]
    payload = {"rig": rig_to_dict(scene.rig), "frames": frames}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if lidar_bin:
        for cloud, bin_name in zip(clouds, bin_names):
            (path.parent / bin_name).write_bytes(cloud.astype("<f4").tobytes())
    # Every key is fixed here and json escapes quotes inside strings, so this
    # text can only be a cloud's placeholder (and has none with lidar_bin).
    head, *pieces = text.split('"inline": null')
    with path.open("w", encoding="utf-8") as out:
        out.write(head)
        for cloud, piece in zip(clouds, pieces):
            out.write('"inline": ')
            out.write(_inline_cloud_json(cloud))
            out.write(piece)
        out.write("\n")


def _load_cloud(lidar, scene_dir: Path, path: str) -> np.ndarray:
    if not isinstance(lidar, dict):
        _fail(path, f"expected an object, got {type(lidar).__name__}")
    if ("inline" in lidar) == ("bin_file" in lidar):
        _fail(path, "expected exactly one of 'inline' or 'bin_file'")
    if "inline" in lidar:
        cloud = _float_rows(lidar["inline"], f"{path}.inline", 3)
    else:
        bin_path = scene_dir / _str(lidar["bin_file"], f"{path}.bin_file")
        if not bin_path.is_file():
            _fail(f"{path}.bin_file", f"file not found: {bin_path}")
        blob = bin_path.read_bytes()
        if len(blob) % 12 != 0:
            _fail(f"{path}.bin_file", f"byte length is not a multiple of 12: {bin_path}")
        cloud = np.frombuffer(blob, dtype="<f4").reshape(-1, 3).astype(float)
    try:
        return as_point_cloud(cloud)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_scene(path) -> Scene:
    path = Path(path)
    data = _load_json(path)
    rig = rig_from_dict(_get(data, "rig", "$"), "rig")
    frames = []
    for i, frame_data in enumerate(_list(_get(data, "frames", "$"), "frames")):
        fpath = f"frames[{i}]"
        objects = []
        for j, obj in enumerate(
            _list(_get(frame_data, "objects", fpath), f"{fpath}.objects")
        ):
            opath = f"{fpath}.objects[{j}]"
            objects.append(
                SceneObject(
                    uid=_uid(_get(obj, "uid", opath), f"{opath}.uid"),
                    class_id=_str(_get(obj, "class", opath), f"{opath}.class"),
                    box=_box_from_list(_get(obj, "box", opath), f"{opath}.box"),
                )
            )
        cloud = _load_cloud(
            _get(frame_data, "lidar", fpath), path.parent, f"{fpath}.lidar"
        )
        frames.append(
            Frame(
                index=_int(_get(frame_data, "index", fpath), f"{fpath}.index"),
                objects=tuple(objects),
                cloud=cloud,
            )
        )
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


def load_detection_records(path) -> list[tuple[int, Detection2D]]:
    """Flat (frame, detection) list preserving file order; match files index
    into this list."""
    data = _load_json(path)
    records = []
    for i, rec in enumerate(_list(data, "$")):
        rpath = f"$[{i}]"
        bbox = _floats(_get(rec, "bbox", rpath), f"{rpath}.bbox", 4)
        embedding = None
        if "embedding" in rec:
            embedding = np.asarray(_floats(rec["embedding"], f"{rpath}.embedding"), dtype=float)
        truth_uid = rec.get("truth_uid")
        if truth_uid is not None:
            truth_uid = _uid(truth_uid, f"{rpath}.truth_uid")
        try:
            det = Detection2D(
                camera_id=_str(_get(rec, "camera_id", rpath), f"{rpath}.camera_id"),
                bbox=BBox2D(x_min=bbox[0], y_min=bbox[1], x_max=bbox[2], y_max=bbox[3]),
                class_id=_str(_get(rec, "class", rpath), f"{rpath}.class"),
                score=_num(_get(rec, "score", rpath), f"{rpath}.score"),
                embedding=embedding,
                truth_uid=truth_uid,
            )
        except ValueError as exc:
            raise SchemaError(f"{rpath}: {exc}") from exc
        records.append((_int(_get(rec, "frame", rpath), f"{rpath}.frame"), det))
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


def load_matches(path) -> dict:
    data = _load_json(path)
    cameras = [
        _str(c, f"cameras[{i}]")
        for i, c in enumerate(_list(_get(data, "cameras", "$"), "cameras"))
    ]
    adjacency = []
    for i, pair in enumerate(_list(_get(data, "adjacency", "$"), "adjacency")):
        items = _list(pair, f"adjacency[{i}]", 2)
        adjacency.append(
            (_str(items[0], f"adjacency[{i}][0]"), _str(items[1], f"adjacency[{i}][1]"))
        )
    pairs = []
    for i, rec in enumerate(_list(_get(data, "pairs", "$"), "pairs")):
        rpath = f"pairs[{i}]"
        pairs.append(
            {
                "frame": _int(_get(rec, "frame", rpath), f"{rpath}.frame"),
                "a": _int(_get(rec, "a", rpath), f"{rpath}.a"),
                "b": _int(_get(rec, "b", rpath), f"{rpath}.b"),
                "distance": _num(_get(rec, "distance", rpath), f"{rpath}.distance"),
            }
        )
    return {"cameras": cameras, "adjacency": adjacency, "pairs": pairs}


def matches_against_detections(matches_payload: dict, records) -> dict:
    """Rebuild per-frame MatchResults from a match file and the detection
    records it indexes; unmatched lists hold that frame's remaining detections."""
    n = len(records)
    paired_indices: dict[int, list[tuple[int, int, float]]] = {}
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
        paired_indices.setdefault(frame, []).append(
            (pair["a"], pair["b"], pair["distance"])
        )
    results: dict[int, MatchResult] = {}
    frames = sorted({frame for frame, _ in records})
    for frame in frames:
        frame_pairs = [
            MatchedPair(a=records[a][1], b=records[b][1], distance=d)
            for a, b, d in paired_indices.get(frame, [])
        ]
        used = {id(p.a) for p in frame_pairs} | {id(p.b) for p in frame_pairs}
        unmatched = [
            det for f, det in records if f == frame and id(det) not in used
        ]
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


def load_boxes(path) -> dict:
    data = _load_json(path)
    out: dict[int, list[PredBox]] = {}
    for i, rec in enumerate(_list(data, "$")):
        rpath = f"$[{i}]"
        merged = _get(rec, "merged", rpath)
        if not isinstance(merged, bool):
            _fail(f"{rpath}.merged", f"expected a boolean, got {type(merged).__name__}")
        box = PredBox(
            frame=_int(_get(rec, "frame", rpath), f"{rpath}.frame"),
            class_id=_str(_get(rec, "class", rpath), f"{rpath}.class"),
            score=_num(_get(rec, "score", rpath), f"{rpath}.score"),
            box=_box_from_list(_get(rec, "box", rpath), f"{rpath}.box"),
            n_sources=_int(_get(rec, "n_sources", rpath), f"{rpath}.n_sources"),
            merged=merged,
        )
        out.setdefault(box.frame, []).append(box)
    return out


# -- configs and reports ---------------------------------------------------------


def apply_overrides(data: dict, overrides: dict) -> dict:
    """data with each override set in place; overrides use dotted paths into
    data, e.g. {"gen.seed": 7, "tau": 0.9}. A path through a value that is
    no object raises TypeError naming that key."""
    for dotted, value in overrides.items():
        *sections, key = dotted.split(".")
        target = data
        for section in sections:
            target = target.setdefault(section, {})
            if not isinstance(target, dict):
                raise TypeError(f"{section} must be an object, got {target!r}")
        target[key] = value
    return data


def _load_object(path, overrides: dict | None, what: str, build):
    """build(data) of the JSON object in an optional file plus overrides
    (apply_overrides); SchemaError, prefixed with what, for a file holding
    no object and for a TypeError or ValueError of build."""
    data = {}
    if path is not None:
        data = _load_json(path)
        if not isinstance(data, dict):
            _fail(what, f"expected an object, got {type(data).__name__}")
    try:
        return build(apply_overrides(data, overrides or {}))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from an optional JSON file plus flag overrides
    (see apply_overrides). Missing keys keep their dataclass defaults.
    """
    return _load_object(path, overrides, "config", config_from_dict)


def _spec_from_dict(data: dict) -> tuple[RigSpec, GenSpec]:
    check_sections(data, ("rig", "gen"), "spec")
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
    json_path.write_text(
        json.dumps(comparison.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    csv_path.write_text(comparison.to_csv(), encoding="utf-8")
    txt_path.write_text(comparison.to_text(), encoding="utf-8")
    return {"json": json_path, "csv": csv_path, "text": txt_path}

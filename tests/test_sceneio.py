"""JSON and binary persistence for scenes, detections, matches, and boxes."""

import json
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sianms.estimator import EstimatorConfig
from sianms.losses import LossConfig
from sianms.matching import MatchedPair, MatchResult
from sianms.metrics import EvalConfig2D, EvalConfig3D
from sianms.pipeline import Frame, PipelineConfig, PredBox, Scene, config_from_dict, config_to_dict
from sianms.scene import BBox2D, Box3D, Detection2D
from sianms.sceneio import (
    SchemaError,
    detections_by_frame,
    load_boxes,
    load_config,
    load_detection_records,
    load_matches,
    load_scene,
    matches_against_detections,
    write_boxes,
    write_comparison,
    write_detections,
    write_matches,
    write_scene,
)
from sianms.synthgen import CLASS_DIMS, GenSpec, RigSpec, generate_frame, make_rig, simulate_detections

from _oracles import config_from_dict_reference, config_to_dict_reference
from conftest import build_scene


@pytest.fixture
def tiny_scene():
    rig = make_rig(RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=100.0))
    gen = GenSpec(seed=31, n_frames=2, objects_per_frame=(3, 4), clutter_points=40)
    return build_scene(rig, gen), gen


def _scene_equal(a: Scene, b: Scene):
    assert [c.id for c in a.rig.cameras] == [c.id for c in b.rig.cameras]
    assert a.rig.adjacency == b.rig.adjacency
    for ca, cb in zip(a.rig.cameras, b.rig.cameras):
        assert (ca.fx, ca.fy, ca.cx, ca.cy) == (cb.fx, cb.fy, cb.cx, cb.cy)
        np.testing.assert_allclose(ca.pose.rotation, cb.pose.rotation)
        np.testing.assert_allclose(ca.pose.translation, cb.pose.translation)
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.index == fb.index
        assert [o.uid for o in fa.objects] == [o.uid for o in fb.objects]
        for oa, ob in zip(fa.objects, fb.objects):
            assert oa.class_id == ob.class_id
            np.testing.assert_allclose(
                [oa.box.x, oa.box.y, oa.box.z, oa.box.l, oa.box.w, oa.box.h, oa.box.theta],
                [ob.box.x, ob.box.y, ob.box.z, ob.box.l, ob.box.w, ob.box.h, ob.box.theta],
            )
        np.testing.assert_allclose(fa.cloud, fb.cloud)


class TestSceneRoundTrip:
    def test_inline_clouds(self, tmp_path, tiny_scene):
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene)
        _scene_equal(scene, load_scene(path))

    def test_binary_clouds(self, tmp_path, tiny_scene):
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene, lidar_bin=True)
        bins = sorted(tmp_path.glob("scene_frame*.bin"))
        assert len(bins) == len(scene.frames)
        _scene_equal(scene, load_scene(path))

    def test_bin_size_must_be_multiple_of_twelve(self, tmp_path, tiny_scene):
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene, lidar_bin=True)
        bin_path = sorted(tmp_path.glob("scene_frame*.bin"))[0]
        bin_path.write_bytes(bin_path.read_bytes() + b"\x00" * 5)
        with pytest.raises(SchemaError):
            load_scene(path)

    def test_missing_key_reports_path(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"rig": {}}))
        with pytest.raises(SchemaError) as err:
            load_scene(path)
        assert "rig" in str(err.value) or "frames" in str(err.value)

    def test_wrong_type_reports_path(self, tmp_path, tiny_scene):
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene)
        data = json.loads(path.read_text())
        data["frames"][0]["index"] = "zero"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_scene(path)
        assert "index" in str(err.value)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_nan_box_dimension_reports_path(self, tmp_path, tiny_scene, dim):
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene)
        data = json.loads(path.read_text())
        data["frames"][1]["objects"][0]["box"][dim] = float("nan")
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=r"^frames\[1\]\.objects\[0\]\.box: box dimensions"):
            load_scene(path)


def _with_cloud(scene: Scene, index: int, cloud) -> Scene:
    frames = list(scene.frames)
    frames[index] = replace(frames[index], cloud=cloud)
    return replace(scene, frames=tuple(frames))


class TestWriteSceneCloudShapes:
    """Both cloud formats take (N, 3) clouds and empty ones of any shape,
    and reject any other shape before a file is written."""

    @pytest.mark.parametrize("lidar_bin", [False, True], ids=["inline", "bin"])
    @pytest.mark.parametrize("shape", [(2, 2), (4,), (2, 3, 1)])
    def test_malformed_cloud_writes_nothing(self, tmp_path, tiny_scene, lidar_bin, shape):
        scene, _ = tiny_scene
        scene = _with_cloud(scene, 1, np.ones(shape))
        with pytest.raises(ValueError, match=r"a cloud must be \(N, 3\)"):
            write_scene(tmp_path / "scene.json", scene, lidar_bin=lidar_bin)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("lidar_bin", [False, True], ids=["inline", "bin"])
    @pytest.mark.parametrize("shape", [(0,), (0, 2), (3, 0)])
    def test_empty_cloud_of_any_shape(self, tmp_path, tiny_scene, lidar_bin, shape):
        scene, _ = tiny_scene
        scene = _with_cloud(scene, 1, np.zeros(shape))
        path = tmp_path / "scene.json"
        write_scene(path, scene, lidar_bin=lidar_bin)
        assert load_scene(path).frames[1].cloud.shape == (0, 3)


class TestNonFiniteClouds:
    """A cloud with a NaN or infinite coordinate is refused on write, before
    any file is opened, and on load, with the frame's lidar path, in both
    formats."""

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("lidar_bin", [False, True], ids=["inline", "bin"])
    def test_refused_on_write(self, tmp_path, tiny_scene, lidar_bin, value):
        scene, _ = tiny_scene
        cloud = scene.frames[1].cloud.copy()
        cloud[2, 1] = value
        with pytest.raises(ValueError, match="^a cloud holds non-finite"):
            write_scene(tmp_path / "scene.json", _with_cloud(scene, 1, cloud), lidar_bin=lidar_bin)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("lidar_bin", [False, True], ids=["inline", "bin"])
    def test_refused_on_load(self, tmp_path, tiny_scene, lidar_bin, value):
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene, lidar_bin=lidar_bin)
        if lidar_bin:
            bin_path = tmp_path / f"scene_frame{scene.frames[1].index:04d}.bin"
            floats = np.frombuffer(bin_path.read_bytes(), dtype="<f4").copy()
            floats[2 * 3 + 1] = value
            bin_path.write_bytes(floats.tobytes())
        else:
            data = json.loads(path.read_text(encoding="utf-8"))
            data["frames"][1]["lidar"]["inline"][2][1] = value
            path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError, match=r"^frames\[1\]\.lidar: a cloud holds non-finite"):
            load_scene(path)


def test_inline_write_holds_less_than_the_file(tmp_path, clean_scene):
    """Inline clouds are written one at a time: the memory traced while
    writing a multi-frame scene stays below the size of the file written."""
    scene = Scene(rig=clean_scene.rig, frames=clean_scene.frames[:10])
    path = tmp_path / "scene.json"
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        write_scene(path, scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - before < path.stat().st_size


class TestDetectionRoundTrip:
    def test_round_trip(self, tmp_path, tiny_scene):
        scene, gen = tiny_scene
        by_frame = {
            f.index: simulate_detections(scene.rig, f.objects, gen, f.index)
            for f in scene.frames
        }
        path = tmp_path / "dets.json"
        write_detections(path, by_frame)
        records = load_detection_records(path)
        rebuilt = detections_by_frame(records)
        assert set(rebuilt) == set(by_frame)
        for idx in by_frame:
            assert len(rebuilt[idx]) == len(by_frame[idx])
            for da, db in zip(by_frame[idx], rebuilt[idx]):
                assert da.camera_id == db.camera_id
                assert da.class_id == db.class_id
                assert da.truth_uid == db.truth_uid
                assert da.score == pytest.approx(db.score)
                np.testing.assert_allclose(da.embedding, db.embedding)
                np.testing.assert_allclose(
                    [da.bbox.x_min, da.bbox.y_min, da.bbox.x_max, da.bbox.y_max],
                    [db.bbox.x_min, db.bbox.y_min, db.bbox.x_max, db.bbox.y_max],
                )

    def test_records_preserve_file_order(self, tmp_path, tiny_scene):
        scene, gen = tiny_scene
        by_frame = {
            f.index: simulate_detections(scene.rig, f.objects, gen, f.index)
            for f in scene.frames
        }
        path = tmp_path / "dets.json"
        write_detections(path, by_frame)
        records = load_detection_records(path)
        frames_seen = [frame for frame, _ in records]
        assert frames_seen == sorted(frames_seen)

    def test_score_out_of_range_rejected(self, tmp_path):
        payload = [
            {
                "frame": 0, "camera_id": "cam0", "class": "car",
                "score": 1.5, "bbox": [0.0, 0.0, 5.0, 5.0],
            }
        ]
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_detection_records(path)



class TestUidTypes:
    """Uids are typed int | str (TestRoundTripProperty round-trips both);
    other JSON types are rejected with the path of the offending uid."""

    @pytest.mark.parametrize("uid", [True, 1.5, [1], {"a": 1}], ids=["bool", "float", "list", "dict"])
    def test_other_types_rejected(self, tmp_path, tiny_scene, uid):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([{
            "frame": 0, "camera_id": "cam0", "class": "car", "score": 0.5,
            "bbox": [0.0, 0.0, 5.0, 5.0], "truth_uid": uid,
        }]))
        with pytest.raises(SchemaError) as err:
            load_detection_records(path)
        name = type(uid).__name__
        assert str(err.value) == f"$[0].truth_uid: expected an integer or a string, got {name}"
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene)
        data = json.loads(path.read_text())
        data["frames"][0]["objects"][0]["uid"] = uid
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_scene(path)
        assert str(err.value) == f"frames[0].objects[0].uid: expected an integer or a string, got {name}"


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _same_uid(got, want) -> bool:
    return type(got) is type(want) and got == want


def _assert_scene_bits(got: Scene, want: Scene, lidar_bin: bool):
    assert got.rig.adjacency == want.rig.adjacency
    assert len(got.rig.cameras) == len(want.rig.cameras)
    for cg, cw in zip(got.rig.cameras, want.rig.cameras):
        assert cg.id == cw.id
        assert _bits([cg.fx, cg.fy, cg.cx, cg.cy, cg.width, cg.height, *cg.pose.q, *cg.pose.t]) == _bits(
            [cw.fx, cw.fy, cw.cx, cw.cy, cw.width, cw.height, *cw.pose.q, *cw.pose.t]
        )
    assert len(got.frames) == len(want.frames)
    for fg, fw in zip(got.frames, want.frames):
        assert _same_uid(fg.index, fw.index)
        assert len(fg.objects) == len(fw.objects)
        for og, ow in zip(fg.objects, fw.objects):
            assert _same_uid(og.uid, ow.uid) and og.class_id == ow.class_id
            assert _bits(astuple(og.box)) == _bits(astuple(ow.box))
        cloud = np.asarray(fw.cloud, dtype=float)
        if lidar_bin:
            cloud = cloud.astype("<f4").astype(float)
        assert fg.cloud.dtype == cloud.dtype and fg.cloud.shape == cloud.shape
        assert fg.cloud.tobytes() == cloud.tobytes()


UIDS = st.integers(-(2**70), 2**70) | st.text(max_size=6)


class TestRoundTripProperty:
    """Every field of a scene, in both cloud formats, and of its simulated
    detections comes back from the files as written, floats bit for bit."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        rig_spec=st.sampled_from(
            [RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=100.0), RigSpec(),
             RigSpec(n_cameras=8, yaw_spacing_deg=45.0, hfov_deg=100.0)]
        ),
        n_frames=st.integers(1, 2),
        noisy=st.booleans(),
        data=st.data(),
    )
    def test_every_field(self, tmp_path_factory, seed, rig_spec, n_frames, noisy, data):
        rig = make_rig(rig_spec)
        gen = GenSpec(
            seed=seed, n_frames=n_frames, objects_per_frame=(1, 4), clutter_points=30,
            embed_noise=0.05 if noisy else 0.0, bbox_jitter_px=2.0 if noisy else 0.0,
        )
        frames = []
        for index in range(n_frames):
            objects, cloud = generate_frame(rig, gen, index)
            objects = tuple(replace(obj, uid=data.draw(UIDS)) for obj in objects)
            frames.append(Frame(index=index, objects=objects, cloud=cloud))
        scene = Scene(rig=rig, frames=tuple(frames))
        root = tmp_path_factory.mktemp("round-trip")
        for lidar_bin in (False, True):
            path = root / f"scene{int(lidar_bin)}.json"
            write_scene(path, scene, lidar_bin=lidar_bin)
            _assert_scene_bits(load_scene(path), scene, lidar_bin)

        by_frame = {
            frame.index: simulate_detections(rig, frame.objects, gen, frame.index)
            for frame in scene.frames
        }
        path = root / "dets.json"
        write_detections(path, by_frame)
        records = load_detection_records(path)
        want = [(index, det) for index in sorted(by_frame) for det in by_frame[index]]
        assert len(records) == len(want)
        for (frame, got), (want_frame, det) in zip(records, want):
            assert _same_uid(frame, want_frame) and _same_uid(got.truth_uid, det.truth_uid)
            assert (got.camera_id, got.class_id) == (det.camera_id, det.class_id)
            assert _bits([*astuple(got.bbox), got.score]) == _bits([*astuple(det.bbox), det.score])
            assert got.embedding.dtype == det.embedding.dtype
            assert got.embedding.tobytes() == det.embedding.tobytes()


BAD_ROWS = [
    ([1.0, True, 3.0], "[1][1]: expected a number, got bool"),
    ([1.0, 2.0, "3"], "[1][2]: expected a number, got str"),
    ([None, 2.0, 3.0], "[1][0]: expected a number, got NoneType"),
    ([1.0, 2.0], "[1]: expected 3 elements, got 2"),
    ([1.0, 2.0, 3.0, 4.0], "[1]: expected 3 elements, got 4"),
    ([1.0, [2.0], 3.0], "[1][1]: expected a number, got list"),
    ({"x": 1.0}, "[1]: expected a list, got dict"),
    (2.0, "[1]: expected a list, got float"),
]


class TestMalformedNumbers:
    """The bulk checks of inline clouds and embeddings fail with the text of
    an element-by-element walk: the JSON path of the first bad element."""

    def _scene_file(self, tmp_path, tiny_scene, inline):
        scene, _ = tiny_scene
        path = tmp_path / "scene.json"
        write_scene(path, scene)
        data = json.loads(path.read_text())
        data["frames"][1]["lidar"]["inline"] = inline
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("later_rows", [[], [[True, "first bad row wins", None]]])
    @pytest.mark.parametrize("row, message", BAD_ROWS)
    def test_inline_cloud_row(self, tmp_path, tiny_scene, row, message, later_rows):
        inline = [[0.5, 1.5, 2.5], row, *later_rows]
        path = self._scene_file(tmp_path, tiny_scene, inline)
        with pytest.raises(SchemaError) as err:
            load_scene(path)
        assert str(err.value) == f"frames[1].lidar.inline{message}"

    def test_rows_of_two_that_would_reshape(self, tmp_path, tiny_scene):
        path = self._scene_file(tmp_path, tiny_scene, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(SchemaError) as err:
            load_scene(path)
        assert str(err.value) == "frames[1].lidar.inline[0]: expected 3 elements, got 2"

    def test_inline_cloud_not_a_list(self, tmp_path, tiny_scene):
        path = self._scene_file(tmp_path, tiny_scene, {"x": [1.0, 2.0, 3.0]})
        with pytest.raises(SchemaError) as err:
            load_scene(path)
        assert str(err.value) == "frames[1].lidar.inline: expected a list, got dict"

    def test_int_rows_load_as_floats(self, tmp_path, tiny_scene):
        path = self._scene_file(tmp_path, tiny_scene, [[1, -2, 3], [4.5, 5, 2**60 + 1]])
        cloud = load_scene(path).frames[1].cloud
        assert cloud.dtype == np.float64
        assert cloud.tolist() == [[1.0, -2.0, 3.0], [4.5, 5.0, float(2**60 + 1)]]

    def test_empty_inline_cloud(self, tmp_path, tiny_scene):
        cloud = load_scene(self._scene_file(tmp_path, tiny_scene, [])).frames[1].cloud
        assert cloud.shape == (0, 3) and cloud.dtype == np.float64

    def _detections_file(self, tmp_path, embedding):
        record = {
            "frame": 0, "camera_id": "cam0", "class": "car",
            "score": 0.5, "bbox": [0.0, 0.0, 5.0, 5.0],
        }
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([record, dict(record, embedding=embedding)]))
        return path

    @pytest.mark.parametrize(
        "embedding, message",
        [
            ([0.1, True, 0.3], "[1]: expected a number, got bool"),
            ([0.1, 0.2, "0.3"], "[2]: expected a number, got str"),
            ([None, 0.2], "[0]: expected a number, got NoneType"),
            ([0.1, [0.2]], "[1]: expected a number, got list"),
            ("0.1 0.2", ": expected a list, got str"),
            (0.1, ": expected a list, got float"),
        ],
    )
    def test_embedding(self, tmp_path, embedding, message):
        with pytest.raises(SchemaError) as err:
            load_detection_records(self._detections_file(tmp_path, embedding))
        assert str(err.value) == f"$[1].embedding{message}"

    def test_int_embedding_loads_as_floats(self, tmp_path):
        records = load_detection_records(self._detections_file(tmp_path, [1, 0, -2]))
        embedding = records[1][1].embedding
        assert embedding.dtype == np.float64 and embedding.tolist() == [1.0, 0.0, -2.0]

    def test_bbox_value(self, tmp_path):
        path = self._detections_file(tmp_path, [0.1])
        data = json.loads(path.read_text())
        data[0]["bbox"][3] = False
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError) as err:
            load_detection_records(path)
        assert str(err.value) == "$[0].bbox[3]: expected a number, got bool"

class TestMatchesRoundTrip:
    def _setup(self, tiny_scene):
        scene, gen = tiny_scene
        by_frame = {
            f.index: simulate_detections(scene.rig, f.objects, gen, f.index)
            for f in scene.frames
        }
        matches = {}
        for idx, dets in by_frame.items():
            pairs = []
            if len(dets) >= 2 and dets[0].camera_id != dets[1].camera_id:
                pairs.append(MatchedPair(a=dets[0], b=dets[1], distance=0.25))
            used = {id(p.a) for p in pairs} | {id(p.b) for p in pairs}
            matches[idx] = MatchResult(
                pairs=pairs, unmatched=[d for d in dets if id(d) not in used]
            )
        return scene, by_frame, matches

    def test_round_trip(self, tmp_path, tiny_scene):
        scene, by_frame, matches = self._setup(tiny_scene)
        dpath, mpath = tmp_path / "dets.json", tmp_path / "matches.json"
        write_detections(dpath, by_frame)
        write_matches(mpath, scene.rig, by_frame, matches)
        payload = load_matches(mpath)
        assert payload["cameras"] == [c.id for c in scene.rig.cameras]
        records = load_detection_records(dpath)
        rebuilt = matches_against_detections(payload, records)
        for idx, result in matches.items():
            got = rebuilt[idx]
            assert len(got.pairs) == len(result.pairs)
            for pa, pb in zip(result.pairs, got.pairs):
                assert pa.distance == pytest.approx(pb.distance)
                assert pa.a.camera_id == pb.a.camera_id
                assert pa.a.truth_uid == pb.a.truth_uid
            assert len(got.unmatched) == len(result.unmatched)

    def test_index_out_of_range(self, tmp_path, tiny_scene):
        scene, by_frame, matches = self._setup(tiny_scene)
        dpath, mpath = tmp_path / "dets.json", tmp_path / "matches.json"
        write_detections(dpath, by_frame)
        write_matches(mpath, scene.rig, by_frame, matches)
        payload = load_matches(mpath)
        payload["pairs"] = [{"frame": 0, "a": 0, "b": 10_000, "distance": 0.1}]
        with pytest.raises(SchemaError):
            matches_against_detections(payload, load_detection_records(dpath))

    def test_frame_mismatch(self, tmp_path, tiny_scene):
        scene, by_frame, matches = self._setup(tiny_scene)
        dpath, mpath = tmp_path / "dets.json", tmp_path / "matches.json"
        write_detections(dpath, by_frame)
        write_matches(mpath, scene.rig, by_frame, matches)
        payload = load_matches(mpath)
        records = load_detection_records(dpath)
        # Claim a frame the indexed detections do not belong to.
        wrong = [i for i, (frame, _) in enumerate(records) if frame == 1][:2]
        if len(wrong) == 2:
            payload["pairs"] = [
                {"frame": 0, "a": wrong[0], "b": wrong[1], "distance": 0.1}
            ]
            with pytest.raises(SchemaError):
                matches_against_detections(payload, records)


# Finite floats, the infinities and both zeros, which json spells and reads
# back as the same bits (a NaN's sign and payload are not kept).
FLOATS = st.floats(allow_nan=False) | st.sampled_from([-0.0, 5e-324, 1e16, 0.1])


@st.composite
def _detections_and_matches(draw):
    """{frame: [Detection2D]} and {frame: MatchResult} over those frames,
    each frame's pairs disjoint and drawn from its detections."""
    frames = draw(st.lists(st.integers(-3, 1000), unique=True, max_size=4))
    by_frame, matches = {}, {}
    for frame in frames:
        dets = [
            Detection2D(
                camera_id=f"cam{i % 3}", bbox=BBox2D(0.0, 0.0, 1.0, 1.0),
                class_id="car", score=0.5, truth_uid=i,
            )
            for i in range(draw(st.integers(0, 6)))
        ]
        order = draw(st.permutations(dets))
        n_pairs = draw(st.integers(0, len(dets) // 2))
        pairs = [
            MatchedPair(a=order[2 * k], b=order[2 * k + 1], distance=draw(FLOATS))
            for k in range(n_pairs)
        ]
        used = {id(det) for pair in pairs for det in (pair.a, pair.b)}
        by_frame[frame] = dets
        matches[frame] = MatchResult(
            pairs=pairs, unmatched=[det for det in dets if id(det) not in used]
        )
    return by_frame, matches


class TestMatchesRoundTripProperty:
    """A match file read back against its detections file rebuilds every
    frame's pairs, in order and with distances bit for bit, and its
    unmatched detections in file order."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=_detections_and_matches())
    def test_every_pair(self, tmp_path_factory, bench_rig, case):
        by_frame, matches = case
        root = tmp_path_factory.mktemp("matches")
        dpath, mpath = root / "dets.json", root / "matches.json"
        write_detections(dpath, by_frame)
        write_matches(mpath, bench_rig, by_frame, matches)
        payload = load_matches(mpath)
        assert payload["cameras"] == [cam.id for cam in bench_rig.cameras]
        assert payload["adjacency"] == list(bench_rig.adjacency)

        records = load_detection_records(dpath)
        written = [det for frame in sorted(by_frame) for det in by_frame[frame]]
        want_index = {id(det): i for i, det in enumerate(written)}
        got_index = {id(det): i for i, (_, det) in enumerate(records)}
        rebuilt = matches_against_detections(payload, records)
        assert sorted(rebuilt) == sorted(frame for frame, dets in by_frame.items() if dets)
        for frame, got in rebuilt.items():
            want = matches[frame]
            assert [(got_index[id(p.a)], got_index[id(p.b)]) for p in got.pairs] == [
                (want_index[id(p.a)], want_index[id(p.b)]) for p in want.pairs
            ]
            assert _bits([p.distance for p in got.pairs]) == _bits([p.distance for p in want.pairs])
            assert [got_index[id(det)] for det in got.unmatched] == [
                want_index[id(det)] for det in want.unmatched
            ]


class TestBoxesRoundTrip:
    def test_round_trip(self, tmp_path):
        from sianms.pipeline import PredBox

        boxes = {
            0: [
                PredBox(
                    frame=0, class_id="car", score=0.9, n_sources=2, merged=True,
                    box=Box3D(x=1.0, y=2.0, z=-1.0, l=4.5, w=1.9, h=1.6, theta=0.3),
                )
            ],
        }
        path = tmp_path / "boxes.json"
        write_boxes(path, boxes)
        out = load_boxes(path)
        assert set(out) == {0}
        row = out[0][0]
        assert row.class_id == "car"
        assert row.merged is True
        assert row.n_sources == 2
        b = row.box
        np.testing.assert_allclose(
            [b.x, b.y, b.z, b.l, b.w, b.h, b.theta],
            [1.0, 2.0, -1.0, 4.5, 1.9, 1.6, 0.3],
        )

    def test_merged_must_be_bool(self, tmp_path):
        path = tmp_path / "boxes.json"
        payload = [
            {
                "frame": 0, "class": "car", "score": 0.9, "n_sources": 1,
                "merged": 1, "box": [0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0],
            }
        ]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_boxes(path)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_nan_box_dimension_reports_path(self, tmp_path, dim):
        box = [0.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0]
        box[dim] = float("nan")
        record = {"frame": 0, "class": "car", "score": 0.9, "n_sources": 1, "merged": False}
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps([dict(record, box=[1.0] * 3 + [4.0, 2.0, 1.5, 0.0]),
                                    dict(record, box=box)]))
        with pytest.raises(SchemaError, match=r"^\$\[1\]\.box: box dimensions"):
            load_boxes(path)


POSITIVE = st.floats(min_value=5e-324, allow_nan=False) | st.sampled_from([1e16, 0.1])

PRED_BOXES = st.builds(
    PredBox,
    frame=st.integers(-3, 1000),
    class_id=st.text(max_size=6) | st.sampled_from(['"', "\\", "雪", "car"]),
    score=FLOATS,
    box=st.builds(
        Box3D, x=FLOATS, y=FLOATS, z=FLOATS, l=POSITIVE, w=POSITIVE, h=POSITIVE,
        theta=st.floats(allow_nan=False, allow_infinity=False),
    ),
    n_sources=st.integers(-(2**70), 2**70),
    merged=st.booleans(),
)


class TestBoxesRoundTripProperty:
    """Every field of every box comes back from a box file as written,
    floats bit for bit, grouped by frame in file order."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(boxes=st.lists(PRED_BOXES, max_size=8))
    def test_every_field(self, tmp_path_factory, boxes):
        by_frame = {}
        for box in boxes:
            by_frame.setdefault(box.frame, []).append(box)
        path = tmp_path_factory.mktemp("boxes") / "boxes.json"
        write_boxes(path, by_frame)
        loaded = load_boxes(path)
        assert sorted(loaded) == sorted(by_frame)
        for frame, want in by_frame.items():
            got = loaded[frame]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.frame, g.class_id, g.n_sources) == (w.frame, w.class_id, w.n_sources)
                assert g.merged is w.merged
                assert _bits([g.score, *astuple(g.box)]) == _bits([w.score, *astuple(w.box)])


class TestConfig:
    def test_default(self):
        cfg = load_config(None)
        assert isinstance(cfg, PipelineConfig)

    def test_file_with_overrides(self, tmp_path):
        base = PipelineConfig()
        from sianms.pipeline import config_to_dict

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(base)))
        cfg = load_config(path, overrides={"gen.seed": 123, "loss.alpha": 0.25})
        assert cfg.gen.seed == 123
        assert cfg.loss.alpha == 0.25
        assert cfg.loss.beta == base.loss.beta

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"tau": [1.0]}, "tau"),
            ({"tau": "0.9"}, "tau"),
            ({"nms_iou": True}, "nms_iou"),
            ({"gen": {"seed": 3.0}}, "gen.seed"),
            ({"gen": {"n_frames": False}}, "gen.n_frames"),
            ({"gen": {"objects_per_frame": [1]}}, "gen.objects_per_frame"),
            ({"gen": {"objects_per_frame": [1, 2, 3]}}, "gen.objects_per_frame"),
            ({"gen": {"radius_range": [8.0, "30"]}}, "gen.radius_range"),
            ({"gen": {"lidar_points_range": [60.0, 120.0]}}, "gen.lidar_points_range"),
            ({"gen": {"class_mix": [["car", 1.0]]}}, "gen.class_mix"),
            ({"loss": {"alpha": None}}, "loss.alpha"),
            ({"estimator": {"yaw_mode": 1}}, "estimator.yaw_mode"),
            ({"estimator": {"min_points": 5.0}}, "estimator.min_points"),
            ({"eval3d": {"center_distance_thresholds": [1.0, True]}}, "eval3d.center_distance_thresholds"),
            ({"eval3d": {"center_distance_thresholds": 1.0}}, "eval3d.center_distance_thresholds"),
        ],
    )
    def test_wrong_type_names_the_key(self, tmp_path, data, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=rf"^config: {key} must be .*, got "):
            load_config(path)

    def test_numbers_take_either_json_number_type(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "tau": 1, "nms_iou": 0.5,
            "gen": {"radius_range": [8, 30], "embed_noise": 0},
            "eval3d": {"center_distance_thresholds": [1, 2.5]},
        }))
        cfg = load_config(path)
        assert cfg.tau == 1 and cfg.gen.radius_range == (8, 30)
        assert cfg.eval3d.center_distance_thresholds == (1, 2.5)
        path.write_text(json.dumps({"tau": None}))
        assert load_config(path).tau is None

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises((KeyError, SchemaError, ValueError)):
            load_config(None, overrides={"gen.nonexistent": 1})


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(0.0, 1e6)
CLASS_NAMES = st.sampled_from(sorted(CLASS_DIMS))


def _ordered_pairs(elements):
    """(low, high) pairs with low <= high, as GenSpec's ranges must be."""
    return st.tuples(elements, elements).map(lambda pair: tuple(sorted(pair)))


PIPELINE_CONFIGS = st.builds(
    PipelineConfig,
    gen=st.builds(
        GenSpec,
        seed=st.integers(0, 2**63),
        n_frames=st.integers(0, 1000),
        objects_per_frame=_ordered_pairs(st.integers(0, 50)),
        class_mix=st.dictionaries(CLASS_NAMES, st.floats(0.0, 1e6), min_size=1).filter(
            lambda mix: sum(mix.values()) > 0.0
        ),
        radius_range=_ordered_pairs(FINITE),
        overlap_fraction=st.floats(0.0, 1.0),
        embed_dim=st.integers(1, 512),
        embed_noise=NONNEGATIVE,
        miss_rate=st.floats(0.0, 1.0),
        bbox_jitter_px=NONNEGATIVE,
        lidar_points_range=_ordered_pairs(st.integers(0, 10**4)),
        clutter_points=st.integers(0, 10**4),
    ),
    loss=st.builds(
        LossConfig,
        alpha=st.floats(0.0, 1.0),
        beta=st.floats(1.5, 1e6),
        smooth_l1_delta=st.floats(1e-9, 1e6),
        foreground_iou=FINITE,
    ),
    estimator=st.builds(
        EstimatorConfig,
        dim_priors=st.dictionaries(
            CLASS_NAMES | st.text(max_size=5), st.tuples(FINITE, FINITE, FINITE), max_size=4
        ),
        yaw_mode=st.sampled_from(["pca", "frustum-axis"]),
        min_points=st.integers(1, 10**4),
        range_gate_m=FINITE,
        extent_quantile=st.floats(0.0, 0.5, exclude_max=True),
    ),
    eval2d=st.builds(
        EvalConfig2D,
        iou_threshold=st.floats(0.0, 1.0, exclude_min=True),
        min_height_px=FINITE,
        max_truncation=FINITE,
    ),
    eval3d=st.builds(
        EvalConfig3D,
        center_distance_thresholds=st.lists(FINITE, min_size=1, max_size=5).map(tuple),
        tp_error_threshold=FINITE,
    ),
    tau=st.none() | FINITE,
    nms_iou=FINITE,
)
CONFIG_SECTIONS = ["gen", "loss", "estimator", "eval2d", "eval3d"]


class TestConfigRoundTripProperty:
    """config_to_dict and config_from_dict, driven by the dataclass fields,
    against the hand-written pair they replaced (tests/_oracles.py)."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cfg=PIPELINE_CONFIGS)
    def test_every_field(self, tmp_path_factory, cfg):
        data = config_to_dict(cfg)
        text = json.dumps(data)
        assert text == json.dumps(config_to_dict_reference(cfg))
        loaded = json.loads(text)
        back = config_from_dict(loaded)
        assert back == cfg == config_from_dict_reference(loaded)
        assert config_to_dict(back) == data
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(text)
        assert load_config(path) == cfg

    @pytest.mark.parametrize("section", CONFIG_SECTIONS)
    def test_unknown_key_names_the_key(self, section):
        data = {section: {"no_such_key": 1}}
        with pytest.raises(TypeError) as want:
            config_from_dict_reference(data)
        with pytest.raises(SchemaError, match="no_such_key") as err:
            load_config(None, overrides={f"{section}.no_such_key": 1})
        assert str(err.value) == f"config: {want.value}"

    def test_unknown_section_text(self):
        with pytest.raises(ValueError) as want:
            config_from_dict_reference({"gen": {}, "eval": {}})
        with pytest.raises(SchemaError) as err:
            load_config(None, overrides={"eval.region": "all"})
        assert str(err.value) == f"config: {want.value}"


class TestComparisonFiles:
    def test_three_artifacts(self, tmp_path, tiny_scene):
        scene, gen = tiny_scene
        from sianms.pipeline import PipelineConfig, compare_variants

        cfg = PipelineConfig(gen=gen)
        comparison = compare_variants(scene, cfg)
        out = write_comparison(tmp_path / "cmp", comparison)
        assert set(out) == {"json", "csv", "text"}
        data = json.loads((tmp_path / "cmp.json").read_text())
        assert "variants" in data or len(data) > 0
        csv_text = (tmp_path / "cmp.csv").read_text()
        assert csv_text.splitlines()[0].startswith("section,region,class,metric")
        assert (tmp_path / "cmp.txt").read_text()

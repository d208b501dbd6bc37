"""Command-line interface, exercised in process."""

import json
import re
import shutil

import pytest

import sianms.pipeline as pipeline_module
from sianms.cli import main
from sianms.pipeline import REGIONS, PipelineConfig, config_to_dict
from sianms.pipeline import SchemaError
from sianms.sceneio import load_scene, write_scene
from sianms.synthgen import GenSpec, RigSpec, benchmark_gen_spec, make_rig

from conftest import build_scene


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("spec")
    path = root / "spec.json"
    path.write_text(json.dumps({
        "rig": {"n_cameras": 4, "hfov_deg": 100.0, "yaw_spacing_deg": 90.0,
                "width": 400, "height": 300},
        "gen": {"seed": 37, "n_frames": 3, "objects_per_frame": [3, 5],
                "clutter_points": 50},
    }))
    return path


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("scene")
    assert main(["generate", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_scene(self, scene_dir):
        scene_path = scene_dir / "scene.json"
        assert scene_path.is_file()
        data = json.loads(scene_path.read_text())
        assert len(data["frames"]) == 3
        assert len(data["rig"]["cameras"]) == 4

    def test_lidar_bin(self, tmp_path, spec_file):
        out = tmp_path / "binscene"
        assert main(["generate", "--spec", str(spec_file), "--out", str(out),
                     "--lidar-bin"]) == 0
        assert sorted(out.glob("scene_frame*.bin"))

    def test_seed_override_changes_scene(self, tmp_path, spec_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--spec", str(spec_file), "--out", str(out_a),
                     "--seed", "99"]) == 0
        assert main(["generate", "--spec", str(spec_file), "--out", str(out_b)]) == 0
        a = (out_a / "scene.json").read_text()
        b = (out_b / "scene.json").read_text()
        assert a != b


class TestSimulate:
    def test_writes_detections(self, tmp_path, scene_dir):
        out = tmp_path / "dets.json"
        code = main(["simulate", "--scene", str(scene_dir / "scene.json"),
                     "--out", str(out), "--seed", "37"])
        assert code == 0
        data = json.loads(out.read_text())
        assert isinstance(data, list) and data
        assert {"frame", "camera_id", "class", "score", "bbox"} <= set(data[0])


class TestRun:
    @pytest.mark.parametrize(
        "variant", ["original", "2d+embedding", "original+nms", "sianms"]
    )
    def test_each_variant(self, tmp_path, scene_dir, variant):
        out = tmp_path / variant.replace("+", "_")
        code = main(["run", "--scene", str(scene_dir / "scene.json"),
                     "--variant", variant, "--out", str(out), "--seed", "37"])
        assert code == 0
        assert (out / "report.json").is_file()
        assert (out / "boxes.json").is_file()
        assert (out / "detections.json").is_file()
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == variant
        has_matches = (out / "matches.json").is_file()
        assert has_matches == (variant in ("2d+embedding", "sianms"))

    def test_run_with_external_detections(self, tmp_path, scene_dir):
        dets = tmp_path / "dets.json"
        assert main(["simulate", "--scene", str(scene_dir / "scene.json"),
                     "--out", str(dets), "--seed", "37"]) == 0
        out = tmp_path / "run"
        code = main(["run", "--scene", str(scene_dir / "scene.json"),
                     "--variant", "sianms", "--detections", str(dets),
                     "--out", str(out), "--seed", "37"])
        assert code == 0

    def test_unlabeled_detections_give_the_labeled_boxes(self, tmp_path, scene_dir, run_dir, capsys):
        """Truth uids only score: without them sianms processes every frame
        and writes the labeled run's boxes, its re-id is unscored, and
        eval-reid, which needs them, refuses the run's files."""
        records = json.loads((run_dir / "detections.json").read_text())
        assert all("truth_uid" in rec for rec in records)
        for rec in records:
            del rec["truth_uid"]
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps(records))
        out = tmp_path / "run"
        assert main(["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                     "--detections", str(dets), "--out", str(out), "--seed", "37"]) == 0
        assert (out / "boxes.json").read_bytes() == (run_dir / "boxes.json").read_bytes()
        report = json.loads((out / "report.json").read_text())
        assert report["reid"] is None and report["errors"] == []
        assert report["counts"]["frames_processed"] == report["counts"]["frames"] == 3
        capsys.readouterr()
        assert main(["eval-reid", "--matches", str(out / "matches.json"),
                     "--detections", str(out / "detections.json")]) == 2
        camera = records[0]["camera_id"]
        assert capsys.readouterr().err == (
            f"schema error: input data incomplete: detection in camera {camera!r} lacks truth_uid\n"
        )


class TestCompare:
    def test_writes_three_files(self, tmp_path, scene_dir, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--scene", str(scene_dir / "scene.json"),
                     "--out", str(out), "--seed", "37"])
        assert code == 0
        for suffix in (".json", ".csv", ".txt"):
            assert (out / f"compare{suffix}").is_file()
        data = json.loads((out / "compare.json").read_text())
        assert set(data["variants"]) == {
            "original", "2d+embedding", "original+nms", "sianms"
        }

    def test_byte_identical_rerun(self, tmp_path, scene_dir):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["compare", "--scene", str(scene_dir / "scene.json"),
                         "--out", str(out), "--seed", "37"]) == 0
        for suffix in (".json", ".csv", ".txt"):
            assert (out_a / f"compare{suffix}").read_bytes() == \
                (out_b / f"compare{suffix}").read_bytes()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, scene_dir):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", "--scene", str(scene_dir / "scene.json"),
                 "--variant", "sianms", "--out", str(out), "--seed", "37"]) == 0
    return out


class TestEval:
    def test_eval_reid_perfect_on_clean(self, run_dir, capsys):
        code = main(["eval-reid", "--matches", str(run_dir / "matches.json"),
                     "--detections", str(run_dir / "detections.json"), "--json"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["precision"] == 1.0
        assert stats["recall"] == 1.0

    def test_eval_reid_same_camera_pair_is_two(self, tmp_path, capsys):
        det = {"frame": 0, "camera_id": "cam0", "class": "car", "score": 0.5,
               "bbox": [0.0, 0.0, 5.0, 5.0], "embedding": [0.0], "truth_uid": 1}
        detections = tmp_path / "dets.json"
        detections.write_text(json.dumps([det, dict(det, bbox=[9.0, 0.0, 14.0, 5.0])]))
        matches = tmp_path / "matches.json"
        matches.write_text(json.dumps({"cameras": ["cam0", "cam1"], "adjacency": [["cam0", "cam1"]],
                                       "pairs": [{"frame": 0, "a": 0, "b": 1, "distance": 0.0}]}))
        assert main(["eval-reid", "--matches", str(matches), "--detections", str(detections)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "schema error: frame 0: pair of a 'car' in camera 'cam0' and a 'car' in camera "
            "'cam0' is no same-class pair across adjacent cameras\n"
        )

    def test_eval_reid_camera_outside_match_file_is_two(self, tmp_path, capsys):
        """A detection of a camera the match file does not list could be in
        no pair, so scoring it as nothing would hide the mismatch."""
        det = {"frame": 0, "camera_id": "cam6", "class": "car", "score": 0.5,
               "bbox": [0.0, 0.0, 5.0, 5.0], "truth_uid": 1}
        detections = tmp_path / "dets.json"
        detections.write_text(json.dumps([det, dict(det, camera_id="cam5")]))
        matches = tmp_path / "matches.json"
        matches.write_text(json.dumps({"cameras": ["cam0", "cam1"], "adjacency": [["cam0", "cam1"]],
                                       "pairs": []}))
        assert main(["eval-reid", "--matches", str(matches), "--detections", str(detections)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "schema error: detections: camera 'cam5' is not in the match file's cameras\n"

    @pytest.mark.parametrize("cameras, adjacency, message", [
        (["cam0", "cam1", "cam0"], [["cam0", "cam1"]], "camera ids must be unique"),
        (["cam0", "cam1"], [["cam0", "cam0"]], "self-pair 'cam0' in adjacency"),
        (["cam0", "cam1"], [["cam0", "cam9"]], "adjacency pair ('cam0', 'cam9') references unknown camera"),
    ], ids=["repeated-id", "self-pair", "unknown-camera"])
    def test_eval_reid_bad_match_topology_is_two(self, tmp_path, capsys, cameras, adjacency, message):
        det = {"frame": 0, "camera_id": "cam0", "class": "car", "score": 0.5,
               "bbox": [0.0, 0.0, 5.0, 5.0], "truth_uid": 1}
        detections = tmp_path / "dets.json"
        detections.write_text(json.dumps([det, dict(det, camera_id="cam1")]))
        matches = tmp_path / "matches.json"
        matches.write_text(json.dumps({"cameras": cameras, "adjacency": adjacency, "pairs": []}))
        assert main(["eval-reid", "--matches", str(matches), "--detections", str(detections)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error: matches: {message}\n"

    @pytest.mark.parametrize("region", ["all", "overlap"])
    def test_eval_3d(self, run_dir, scene_dir, region, capsys):
        code = main(["eval-3d", "--pred", str(run_dir / "boxes.json"),
                     "--gt", str(scene_dir / "scene.json"),
                     "--region", region, "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["region"] == region
        assert data["classes"]
        for row in data["classes"].values():
            assert "ap" in row

    def test_text_format_default(self, run_dir, scene_dir, capsys):
        code = main(["eval-3d", "--pred", str(run_dir / "boxes.json"),
                     "--gt", str(scene_dir / "scene.json")])
        assert code == 0
        out = capsys.readouterr().out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "ap" in out


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["run", "--scene", "x.json", "--variant", "bogus",
                     "--out", "y"]) == 1
        assert main([]) == 1

    def test_schema_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a scene"}')
        out = tmp_path / "out"
        assert main(["run", "--scene", str(bad), "--variant", "sianms",
                     "--out", str(out)]) == 2

    def test_malformed_json_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        out = tmp_path / "out"
        assert main(["run", "--scene", str(bad), "--variant", "sianms",
                     "--out", str(out)]) == 2

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_class_weight_is_two(self, tmp_path, spec_file, capsys, weight):
        spec = json.loads(spec_file.read_text())
        spec["gen"]["class_mix"] = {"car": 1.0, "cyclist": weight}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["generate", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "class_mix" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_frame_index_is_two(self, tmp_path, scene_dir, capsys):
        data = json.loads((scene_dir / "scene.json").read_text())
        data["frames"][1]["index"] = 0
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["compare", "--scene", str(scene), "--out", str(out)]) == 2
        assert "frames[1].index: frame 0 repeats frames[0].index" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_object_uid_is_two(self, tmp_path, scene_dir, capsys):
        data = json.loads((scene_dir / "scene.json").read_text())
        objects = data["frames"][0]["objects"]
        objects[2]["uid"] = objects[0]["uid"]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["compare", "--scene", str(scene), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"schema error: frames[0].objects[2].uid: uid {objects[0]['uid']!r} repeats "
            "frames[0].objects[0].uid\n")
        assert not out.exists()

    def test_missing_file_is_three(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scene", str(tmp_path / "absent.json"),
                     "--variant", "sianms", "--out", str(out)]) == 3


class TestInputsBeforeTheFirstFrame:
    """Inputs that would fail every frame exit 2 before any frame runs; a run
    that processes no frame exits 3 after writing its report."""

    @staticmethod
    def _argv(command, scene_dir, out, *extra):
        variant = ["--variant", "sianms"] if command == "run" else []
        return [command, "--scene", str(scene_dir / "scene.json"), *variant,
                "--out", str(out), *extra]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_missing_class_prior_is_two(self, tmp_path, scene_dir, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": {"dim_priors": {"car": [4.5, 1.9, 1.6]}}}))
        out = tmp_path / "out"
        assert main(self._argv(command, scene_dir, out, "--config", str(config))) == 2
        assert "estimator.dim_priors has no prior for class" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_ground_truth_only_class_needs_no_prior(self, tmp_path, scene_dir, command):
        """Supplied detections are fitted by their own classes: a scene class
        that no detection has needs no prior."""
        dets = tmp_path / "dets.json"
        assert main(["simulate", "--scene", str(scene_dir / "scene.json"), "--out", str(dets)]) == 0
        records = json.loads(dets.read_text())
        cars = [rec for rec in records if rec["class"] == "car"]
        assert cars and len(cars) < len(records)
        dets.write_text(json.dumps(cars))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": {"dim_priors": {"car": [4.5, 1.9, 1.6]}}}))
        out = tmp_path / "out"
        argv = self._argv(command, scene_dir, out, "--config", str(config), "--detections", str(dets))
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_eval3d_region_is_an_unknown_key(self, tmp_path, scene_dir, capsys, command):
        # run and compare score both regions; eval-3d takes its region from --region
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"eval3d": {"region": "overlap"}}))
        out = tmp_path / "out"
        assert main(self._argv(command, scene_dir, out, "--config", str(config))) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: config: ") and "'region'" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("camera_id", "cam9", "detections: camera 'cam9' is not in the rig"),
        ("class", "truck", "no prior for class 'truck'"),
        ("frame", 7, "detections: frame 7 is not in the scene"),
        ("embedding", [1.0], "].embedding: expected 16 elements, got 1"),
    ], ids=["camera", "class", "frame", "embedding"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_detection_outside_rig_or_priors_is_two(
        self, tmp_path, scene_dir, capsys, command, key, value, message
    ):
        dets = tmp_path / "dets.json"
        assert main(["simulate", "--scene", str(scene_dir / "scene.json"),
                     "--out", str(dets)]) == 0
        records = json.loads(dets.read_text())
        records[-1][key] = value
        dets.write_text(json.dumps(records))
        out = tmp_path / "out"
        assert main(self._argv(command, scene_dir, out, "--detections", str(dets))) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({"tau": -1}, "tau must be positive, got -1"),
        ({"tau": 0}, "tau must be positive, got 0"),
        ({"tau": float("nan")}, "tau must be positive, got nan"),
        ({"nms_iou": 7}, "nms_iou must be in (0, 1], got 7"),
        ({"nms_iou": -1}, "nms_iou must be in (0, 1], got -1"),
        ({"nms_iou": 0.0}, "nms_iou must be in (0, 1], got 0.0"),
        ({"estimator": {"range_gate_m": float("nan")}}, "estimator: range_gate_m must be finite, got nan"),
        ({"estimator": {"range_gate_m": float("inf")}}, "estimator: range_gate_m must be finite, got inf"),
        ({"estimator": {"range_gate_m": -float("inf")}}, "estimator: range_gate_m must be finite, got -inf"),
        ({"eval2d": {"min_height_px": float("nan")}},
         "eval2d: min_height_px must be finite and non-negative, got nan"),
        ({"eval2d": {"min_height_px": -1}}, "eval2d: min_height_px must be finite and non-negative, got -1"),
        ({"eval2d": {"max_truncation": float("inf")}},
         "eval2d: max_truncation must be finite and non-negative, got inf"),
        ({"eval2d": {"max_truncation": -0.5}},
         "eval2d: max_truncation must be finite and non-negative, got -0.5"),
        ({"eval3d": {"center_distance_thresholds": [-1.0]}},
         "eval3d: center_distance_thresholds[0] must be finite and positive, got -1.0"),
        ({"eval3d": {"center_distance_thresholds": [1.0, float("nan")]}},
         "eval3d: center_distance_thresholds[1] must be finite and positive, got nan"),
        ({"eval3d": {"center_distance_thresholds": [0.5, float("inf")]}},
         "eval3d: center_distance_thresholds[1] must be finite and positive, got inf"),
        ({"eval3d": {"center_distance_thresholds": [0]}},
         "eval3d: center_distance_thresholds[0] must be finite and positive, got 0"),
        ({"eval3d": {"tp_error_threshold": float("nan")}},
         "eval3d: tp_error_threshold must be finite and positive, got nan"),
        ({"eval3d": {"tp_error_threshold": float("inf")}},
         "eval3d: tp_error_threshold must be finite and positive, got inf"),
        ({"eval3d": {"tp_error_threshold": 0.0}}, "eval3d: tp_error_threshold must be finite and positive, got 0.0"),
    ], ids=["tau-1", "tau0", "tau-nan", "nms7", "nms-1", "nms0", "gate-nan", "gate-inf", "gate-minf",
            "height-nan", "height-1", "trunc-inf", "trunc-neg", "dist-1", "dist-nan", "dist-inf", "dist0",
            "tp-nan", "tp-inf", "tp0"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_out_of_range_config_value_is_two(self, tmp_path, scene_dir, capsys, command,
                                              config, message):
        """A tau that is not positive failed every matched frame, an nms_iou
        outside (0, 1] changed what NMS keeps, a range gate that is not
        finite switched the gate off, a NaN 2D height bound emptied 2D AP, a
        3D distance that is not finite and positive zeroed 3D AP and a NaN
        error radius nulled the 3D errors; each is refused, naming its key."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(self._argv(command, scene_dir, out, "--config", str(path))) == 2
        assert capsys.readouterr().err == f"schema error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--tau", "-1", "tau must be positive, got -1.0"),
        ("--tau", "0", "tau must be positive, got 0.0"),
        ("--nms-iou", "1.5", "nms_iou must be in (0, 1], got 1.5"),
        ("--nms-iou", "0", "nms_iou must be in (0, 1], got 0.0"),
    ])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_out_of_range_flag_is_two(self, tmp_path, scene_dir, capsys, command, flag, value,
                                      message):
        out = tmp_path / "out"
        assert main(self._argv(command, scene_dir, out, flag, value)) == 2
        assert capsys.readouterr().err == f"schema error: config: {message}\n"
        assert not out.exists()

    def test_range_ends_are_accepted(self, tmp_path, scene_dir):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tau": 1e-9, "nms_iou": 1, "estimator": {"range_gate_m": -5.0},
                                    "eval2d": {"min_height_px": 0, "max_truncation": 0.0},
                                    "eval3d": {"center_distance_thresholds": [1e-9, 1e300],
                                               "tp_error_threshold": 1e-9}}))
        assert main(self._argv("compare", scene_dir, tmp_path / "out", "--config", str(path))) == 0

    @pytest.mark.parametrize("variant", ["sianms", "original", None], ids=["sianms", "original", "compare"])
    def test_detections_without_embeddings(self, tmp_path, scene_dir, capsys, variant):
        """Matching reads the embeddings inside each frame, so a detections
        file without them is an error of the matching variants in each frame
        where two adjacent cameras hold detections, here every frame: run of
        sianms processes no frame and exits 3, while run of original and
        compare exit 0."""
        dets = tmp_path / "dets.json"
        assert main(["simulate", "--scene", str(scene_dir / "scene.json"), "--out", str(dets)]) == 0
        records = json.loads(dets.read_text())
        for record in records:
            del record["embedding"]
        dets.write_text(json.dumps(records))
        out = tmp_path / "out"
        command = ["compare"] if variant is None else ["run", "--variant", variant]
        code = main([*command, "--scene", str(scene_dir / "scene.json"), "--out", str(out),
                     "--detections", str(dets), "--json"])
        err = capsys.readouterr().err
        if variant == "sianms":
            assert code == 3
            assert err.startswith("error: no frame processed; frame 0: MissingEmbedding: detection in camera ")
            return
        assert code == 0
        if variant == "original":
            report = json.loads((out / "report.json").read_text())
            assert report["counts"]["frames_processed"] == 3 and report["errors"] == []
            return
        reports = json.loads((out / "compare.json").read_text())["variants"]
        for name, report in reports.items():
            matching = name in ("2d+embedding", "sianms")
            assert report["counts"]["frames_processed"] == (0 if matching else 3)
            assert [e["frame"] for e in report["errors"]] == ([0, 1, 2] if matching else [])
            assert all(e["error"].startswith("MissingEmbedding: ") for e in report["errors"])

    @pytest.mark.parametrize("name, pair", [
        ("objects_per_frame", [5, 3]), ("radius_range", [30.0, 8.0]),
        ("lidar_points_range", [120, 60]),
    ])
    def test_reversed_range_is_two(self, tmp_path, capsys, name, pair):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"gen": {"seed": 3, "n_frames": 2, name: pair}}))
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert f"{name} must have low <= high" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_no_frame_processed_is_three(self, tmp_path, scene_dir, capsys, monkeypatch,
                                         command):
        def unviewable(cam, cloud):
            raise RuntimeError("no view")

        monkeypatch.setattr(pipeline_module, "camera_view", unviewable)
        out = tmp_path / "out"
        assert main(self._argv(command, scene_dir, out, "--json")) == 3
        err = capsys.readouterr().err
        assert "error: no frame processed; frame 0: RuntimeError: no view" in err
        written = out / ("report.json" if command == "run" else "compare.json")
        report = json.loads(written.read_text())
        reports = [report] if command == "run" else report["variants"].values()
        assert [r["counts"]["frames_processed"] for r in reports] == [0] * len(reports)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_partial_failure_is_zero(self, tmp_path, scene_dir, capsys, monkeypatch, command):
        real, calls = pipeline_module.camera_view, []

        def first_unviewable(cam, cloud):
            calls.append(cam.id)
            if len(calls) == 1:
                raise RuntimeError("no view")
            return real(cam, cloud)

        monkeypatch.setattr(pipeline_module, "camera_view", first_unviewable)
        out = tmp_path / "out"
        assert main(self._argv(command, scene_dir, out, "--json")) == 0
        written = out / ("report.json" if command == "run" else "compare.json")
        report = json.loads(written.read_text())
        reports = [report] if command == "run" else report["variants"].values()
        assert [r["counts"]["frames_processed"] for r in reports] == [2] * len(reports)


class TestConfigSections:
    """--spec and --config reject sections their loader would not read."""

    @pytest.mark.parametrize("section", ["match", "nms", "rig"])
    def test_unknown_config_section_is_two(self, tmp_path, scene_dir, capsys, section):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {"tau": 0.01}}))
        code = main(["compare", "--scene", str(scene_dir / "scene.json"),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert repr(section) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["estimator", "match"])
    def test_unknown_spec_section_is_two(self, tmp_path, spec_file, capsys, section):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(json.loads(spec_file.read_text()), **{section: {}})))
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert code == 2
        assert repr(section) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "{what}: expected an object, got list"),
        ("{truncated", "{what}.json: invalid JSON ("),
    ], ids=["list", "truncated"])
    @pytest.mark.parametrize("what", ["spec", "config"])
    def test_spec_and_config_load_alike(self, tmp_path, scene_dir, capsys, what, text, message):
        path = tmp_path / f"{what}.json"
        path.write_text(text)
        out = tmp_path / "out"
        if what == "spec":
            argv = ["generate", "--spec", str(path), "--out", str(out)]
        else:
            argv = ["simulate", "--scene", str(scene_dir / "scene.json"),
                    "--config", str(path), "--out", str(out)]
        assert main(argv) == 2
        assert message.format(what=what) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["gen", "loss", "estimator", "eval2d", "eval3d"])
    def test_unknown_config_key_is_two(self, tmp_path, scene_dir, capsys, section):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {"no_such_key": 1}}))
        code = main(["simulate", "--scene", str(scene_dir / "scene.json"),
                     "--config", str(config), "--out", str(tmp_path / "dets.json")])
        assert code == 2
        assert "'no_such_key'" in capsys.readouterr().err
        assert not (tmp_path / "dets.json").exists()

    @pytest.mark.parametrize("section", ["rig", "gen"])
    def test_unknown_spec_key_is_two(self, tmp_path, spec_file, capsys, section):
        spec = json.loads(spec_file.read_text())
        spec[section]["no_such_key"] = 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["generate", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "spec: " in err and "'no_such_key'" in err
        assert not (tmp_path / "out").exists()

    def test_wrong_typed_config_value_is_two(self, tmp_path, scene_dir, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tau": [1.0]}))
        code = main(["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "schema error: config: tau: expected a number or null, got list\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["objects_per_frame", "radius_range", "lidar_points_range"])
    def test_malformed_spec_range_is_two(self, tmp_path, spec_file, capsys, key):
        spec = json.loads(spec_file.read_text())
        spec["gen"][key] = [1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["generate", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"schema error: spec: gen.{key}: expected 2 elements, got 1\n"
        assert not (tmp_path / "out").exists()

    def test_every_config_section_is_read(self, tmp_path, scene_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "gen": {"seed": 37}, "loss": {"alpha": 0.5}, "estimator": {"min_points": 5},
            "eval2d": {}, "eval3d": {}, "tau": 0.9, "nms_iou": 0.5,
        }))
        out = tmp_path / "dets.json"
        assert main(["simulate", "--scene", str(scene_dir / "scene.json"),
                     "--config", str(config), "--out", str(out)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("gen", [5, [["seed", 3]], "seed"], ids=["int", "pairs", "str"])
    def test_non_object_section_is_two(self, tmp_path, scene_dir, spec_file, capsys, gen):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gen": gen}))
        code = main(["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        kind = type(gen).__name__
        assert capsys.readouterr().err == f"schema error: config: gen: expected an object, got {kind}\n"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"gen": gen}))
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "gen")])
        assert code == 2
        assert capsys.readouterr().err == f"schema error: spec: gen: expected an object, got {kind}\n"
        assert not (tmp_path / "out").exists() and not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("what, data, message", [
        ("config", {"gen": {"sed": 3}},
         "config: gen: unknown key 'sed'; expected seed, n_frames, objects_per_frame, class_mix, "
         "radius_range, overlap_fraction, embed_dim, embed_noise, miss_rate, bbox_jitter_px, "
         "lidar_points_range, clutter_points"),
        ("config", {"gnn": {}},
         "config: unknown key 'gnn'; expected gen, loss, estimator, eval2d, eval3d, tau, nms_iou"),
        ("spec", {"estimator": {}}, "spec: unknown key 'estimator'; expected rig, gen"),
    ], ids=["config_key", "config_section", "spec_section"])
    def test_unknown_key_text(self, tmp_path, scene_dir, capsys, what, data, message):
        path = tmp_path / f"{what}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        if what == "spec":
            argv = ["generate", "--spec", str(path), "--out", str(out)]
        else:
            argv = ["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                    "--config", str(path), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"schema error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("what", ["spec", "config"])
    def test_list_file_with_override_is_two(self, tmp_path, scene_dir, capsys, what):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        out = tmp_path / "out"
        if what == "spec":
            argv = ["generate", "--spec", str(path), "--seed", "3", "--out", str(out)]
        else:
            argv = ["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                    "--config", str(path), "--tau", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"schema error: {what}: expected an object, got list\n"
        assert not out.exists()

    def test_override_into_non_object_config_section_is_two(self, tmp_path, scene_dir, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gen": 5}))
        code = main(["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                     "--config", str(config), "--seed", "3", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config: gen: expected an object, got int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_override_into_non_object_spec_section_is_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"gen": 5}))
        code = main(["generate", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "spec: gen: expected an object, got int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFlags:
    """Each subcommand takes only the flags it reads; any other is a usage
    error."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--out", "o", "--tau", "1.0"],
        ["generate", "--out", "o", "--json"],
        ["simulate", "--scene", "s.json", "--out", "d.json", "--csv"],
        ["simulate", "--scene", "s.json", "--out", "d.json", "--nms-iou", "0.1"],
        ["eval-reid", "--matches", "m.json", "--detections", "d.json", "--seed", "9"],
        ["eval-3d", "--pred", "b.json", "--gt", "s.json", "--tau", "2"],
    ], ids=["generate-tau", "generate-json", "simulate-csv", "simulate-nms-iou",
            "eval-reid-seed", "eval-3d-tau"])
    def test_unread_flag_is_one(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_takes_every_override_and_format(self, tmp_path, scene_dir, capsys):
        code = main(["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                     "--out", str(tmp_path / "out"), "--seed", "37", "--emb-dim", "16",
                     "--tau", "0.9", "--alpha", "0.5", "--beta", "1.5", "--nms-iou", "0.4",
                     "--csv"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        config = report["config"]
        assert (config["gen"]["seed"], config["gen"]["embed_dim"]) == (37, 16)
        assert (config["tau"], config["nms_iou"]) == (0.9, 0.4)
        assert (config["loss"]["alpha"], config["loss"]["beta"]) == (0.5, 1.5)
        assert capsys.readouterr().out.startswith("section,region,class,metric,value\n")


@pytest.fixture(scope="module", params=["noisy", "ring8"])
def scored_run(request, tmp_path_factory):
    """(scene file, sianms run directory) of the noisy benchmark scene and of
    a 10-frame eight-camera ring, run through the console entry point."""
    root = tmp_path_factory.mktemp(request.param)
    if request.param == "noisy":
        scene, gen = request.getfixturevalue("noisy_scene"), benchmark_gen_spec(42, noisy=True)
    else:
        gen = GenSpec(seed=3, n_frames=10)
        scene = build_scene(make_rig(RigSpec(n_cameras=8, yaw_spacing_deg=45.0, hfov_deg=100.0)), gen)
    write_scene(root / "scene.json", scene)
    (root / "config.json").write_text(json.dumps(config_to_dict(PipelineConfig(gen=gen))))
    out = root / "run"
    assert main(["run", "--scene", str(root / "scene.json"), "--config", str(root / "config.json"),
                 "--variant", "sianms", "--out", str(out)]) == 0
    return root / "scene.json", out


@pytest.mark.parametrize("region", REGIONS)
def test_eval_3d_scores_as_run_does(scored_run, region, capsys):
    """eval-3d on a run's boxes gives the per-class metrics of the run's own
    report, overlap included: both score through one path."""
    scene_path, out = scored_run
    report = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    assert main(["eval-3d", "--pred", str(out / "boxes.json"), "--gt", str(scene_path),
                 "--region", region, "--json"]) == 0
    classes = json.loads(capsys.readouterr().out)["classes"]
    assert classes and classes == report["metrics_3d"][region]["per_class"]


def _edited(tmp_path, source, edit):
    """The path of a copy of the JSON file source, in tmp_path, with edit applied."""
    data = json.loads(source.read_text())
    edit(data)
    path = tmp_path / source.name
    path.write_text(json.dumps(data))
    return str(path)


def _written(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestOneValueGrammar:
    """A value of the wrong type, in any file any reader reads, is a schema
    error in one grammar that names the innermost element at fault."""

    GRAMMAR = re.compile(r"schema error: (config: |spec: )?\S+: expected (.+, got \w+|\d+ elements, got \d+)\n")

    @pytest.mark.parametrize("argv, text", [
        (lambda t, scene, spec, run: ["run", "--scene", str(scene), "--variant", "sianms", "--config",
                                      _written(t, {"nms_iou": "0.5"})],
         "config: nms_iou: expected a number, got str"),
        (lambda t, scene, spec, run: ["generate", "--spec", _written(t, {"rig": {"width": 400.5}})],
         "spec: rig.width: expected an integer, got float"),
        (lambda t, scene, spec, run: ["simulate", "--scene", _edited(
            t, scene, lambda d: d["rig"]["cameras"][0].update(cy="200"))],
         "rig.cameras[0].cy: expected a number, got str"),
        (lambda t, scene, spec, run: ["simulate", "--scene", _edited(
            t, scene, lambda d: d["frames"][0]["objects"][1].update({"class": 3}))],
         "frames[0].objects[1].class: expected a string, got int"),
        (lambda t, scene, spec, run: ["simulate", "--scene", _edited(
            t, scene, lambda d: d["frames"][1].update(index="1"))],
         "frames[1].index: expected an integer, got str"),
        (lambda t, scene, spec, run: ["run", "--variant", "sianms", "--scene", _edited(
            t, scene, lambda d: d["frames"][1].update(lidar={"bin_file": 7}))],
         "frames[1].lidar.bin_file: expected a string, got int"),
        (lambda t, scene, spec, run: ["run", "--variant", "sianms", "--scene", str(scene), "--detections",
                                      _edited(t, run / "detections.json", lambda d: d[2].update(score="0.5"))],
         "$[2].score: expected a number, got str"),
        (lambda t, scene, spec, run: ["eval-reid", "--detections", str(run / "detections.json"), "--matches",
                                      _edited(t, run / "matches.json", lambda d: d["pairs"][0].update(a=0.0))],
         "pairs[0].a: expected an integer, got float"),
        (lambda t, scene, spec, run: ["eval-3d", "--gt", str(scene), "--pred",
                                      _edited(t, run / "boxes.json", lambda d: d[1]["box"].pop())],
         "$[1].box: expected 7 elements, got 6"),
    ], ids=["config", "spec", "rig", "scene_object", "frame_index", "bin_file", "detection",
            "match", "boxes"])
    def test_every_reader(self, tmp_path, scene_dir, spec_file, run_dir, capsys, argv, text):
        out = tmp_path / "out"
        argv = argv(tmp_path, scene_dir / "scene.json", spec_file, run_dir)
        if argv[0] in ("generate", "simulate", "run"):
            argv += ["--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"schema error: {text}\n"
        assert self.GRAMMAR.fullmatch(err) and " must be " not in err
        assert not out.exists()


class TestRigIsReadLikeAConfig:
    """A scene whose rig the reader refuses exits 2 with the JSON path of the
    offending camera, from every subcommand that loads the scene."""

    @pytest.mark.parametrize("edit, message", [
        (lambda rig: rig["cameras"][1].update(fx=0.0), "rig.cameras[1]: focal lengths must be positive"),
        (lambda rig: rig["cameras"][1].update(fy=-1), "rig.cameras[1]: focal lengths must be positive"),
        (lambda rig: rig["cameras"][1].update(width=0), "rig.cameras[1]: image dimensions must be positive"),
        (lambda rig: rig["cameras"][1]["pose"].update(q=[1.0, 1.0, 0.0, 0.0]),
         "rig.cameras[1].pose: quaternion norm 1.4142135623730951 deviates from 1 by more than 1e-9"),
        (lambda rig: rig["cameras"][1].update(typo_fx=400.0),
         "rig.cameras[1]: unknown key 'typo_fx'; expected id, fx, fy, cx, cy, width, height, pose"),
        (lambda rig: rig["cameras"][1]["pose"].update(r=[0.0, 0.0, 0.0]),
         "rig.cameras[1].pose: unknown key 'r'; expected q, t"),
        (lambda rig: rig["cameras"][1].pop("pose"), "rig.cameras[1]: missing required key 'pose'"),
        (lambda rig: rig.pop("adjacency"), "rig: missing required key 'adjacency'"),
    ], ids=["fx_zero", "fy_negative", "width_zero", "non_unit_q", "camera_key", "pose_key",
            "no_pose", "no_adjacency"])
    @pytest.mark.parametrize("command", ["simulate", "compare", "eval-3d"])
    def test_bad_rig_is_two(self, tmp_path, scene_dir, capsys, command, edit, message):
        data = json.loads((scene_dir / "scene.json").read_text())
        edit(data["rig"])
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))
        out = tmp_path / "out"
        if command == "eval-3d":
            boxes = tmp_path / "boxes.json"
            boxes.write_text("[]")
            argv = ["eval-3d", "--pred", str(boxes), "--gt", str(scene)]
        else:
            argv = [command, "--scene", str(scene), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"schema error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, text", [
        ("estimator", "dim_priors", {"car": [4.5, 1.9], "pedestrian": [0.6, 0.6, 1.7],
                                     "cyclist": [1.8, 0.6, 1.7]}, "car: expected 3 elements, got 2"),
        ("estimator", "dim_priors", {"car": "abc", "pedestrian": [0.6, 0.6, 1.7],
                                     "cyclist": [1.8, 0.6, 1.7]}, "car: expected a list, got str"),
        ("gen", "class_mix", {"car": "0.5"}, "car: expected a number, got str"),
    ], ids=["two_number_prior", "string_prior", "string_weight"])
    def test_malformed_mapping_is_two(self, tmp_path, scene_dir, capsys, section, key, value, text):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "out"
        assert main(["compare", "--scene", str(scene_dir / "scene.json"),
                     "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"schema error: config: {section}.{key}.{text}\n"
        assert not out.exists()


def _break_bin(scene):
    (scene.parent / "scene_frame0001.bin").unlink()


def _break_inline(edit):
    def apply(scene):
        data = json.loads(scene.read_text())
        edit(data["frames"][1]["lidar"]["inline"])
        scene.write_text(json.dumps(data))
    return apply


class TestCommandsThatSkipClouds:
    """simulate and eval-3d read only the rig and each frame's objects: a
    scene whose cloud load_scene refuses gives them exit 0 and the bytes of
    the intact scene, while run and compare still exit 2."""

    @staticmethod
    def _outputs(scene, boxes, out, capsys):
        capsys.readouterr()
        assert main(["simulate", "--scene", str(scene), "--out", str(out / "dets.json")]) == 0
        texts = [(out / "dets.json").read_bytes()]
        for region in REGIONS:
            capsys.readouterr()
            assert main(["eval-3d", "--pred", str(boxes), "--gt", str(scene),
                         "--region", region, "--csv"]) == 0
            texts.append(capsys.readouterr().out)
        return texts

    @pytest.mark.parametrize("lidar_bin, breaking, message", [
        (True, _break_bin, r"frames\[1\]\.lidar\.bin_file: file not found"),
        (False, _break_inline(lambda rows: rows[2].__setitem__(1, float("nan"))),
         r"frames\[1\]\.lidar: a cloud holds non-finite coordinates"),
        (False, _break_inline(lambda rows: rows[2].pop()),
         r"frames\[1\]\.lidar\.inline\[2\]: expected 3 elements, got 2"),
    ], ids=["missing_bin", "non_finite_inline", "ragged_inline"])
    def test_same_bytes_without_the_cloud(self, tmp_path, spec_file, run_dir, capsys,
                                          lidar_bin, breaking, message):
        intact = tmp_path / "intact"
        argv = ["generate", "--spec", str(spec_file), "--out", str(intact)]
        assert main(argv + ["--lidar-bin"] * lidar_bin) == 0
        broken = tmp_path / "broken"
        shutil.copytree(intact, broken)
        breaking(broken / "scene.json")
        boxes = run_dir / "boxes.json"
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        want = self._outputs(intact / "scene.json", boxes, tmp_path / "a", capsys)
        assert self._outputs(broken / "scene.json", boxes, tmp_path / "b", capsys) == want
        with pytest.raises(SchemaError, match=message):
            load_scene(broken / "scene.json")
        for command in (["run", "--variant", "sianms"], ["compare"]):
            out = tmp_path / command[0]
            assert main([command[0], "--scene", str(broken / "scene.json"), *command[1:],
                         "--out", str(out)]) == 2
            assert not out.exists()

    def test_lidar_record_keys_are_still_checked(self, tmp_path, scene_dir, capsys):
        data = json.loads((scene_dir / "scene.json").read_text())
        data["frames"][1]["lidar"]["bin_file"] = "scene_frame0001.bin"
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(data))
        out = tmp_path / "dets.json"
        assert main(["simulate", "--scene", str(scene), "--out", str(out)]) == 2
        assert "frames[1].lidar: expected exactly one of 'inline' or 'bin_file'" in (
            capsys.readouterr().err)
        assert not out.exists()

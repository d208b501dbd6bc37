"""Command-line interface, exercised in process."""

import json

import pytest

import sianms.pipeline as pipeline_module
from sianms.cli import main
from sianms.pipeline import REGIONS, PipelineConfig, config_to_dict
from sianms.sceneio import write_scene
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
    ], ids=["camera", "class"])
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
        assert "config: tau must be float | None, got [1.0]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["objects_per_frame", "radius_range", "lidar_points_range"])
    def test_malformed_spec_range_is_two(self, tmp_path, spec_file, capsys, key):
        spec = json.loads(spec_file.read_text())
        spec["gen"][key] = [1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["generate", "--spec", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"spec: gen.{key} must be " in capsys.readouterr().err
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
        assert f"config: gen must be an object, got {gen!r}" in capsys.readouterr().err
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"gen": gen}))
        code = main(["generate", "--spec", str(spec), "--out", str(tmp_path / "gen")])
        assert code == 2
        assert f"spec: gen must be an object, got {gen!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "gen").exists()

    def test_override_into_non_object_config_section_is_two(self, tmp_path, scene_dir, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gen": 5}))
        code = main(["run", "--scene", str(scene_dir / "scene.json"), "--variant", "sianms",
                     "--config", str(config), "--seed", "3", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config: gen must be an object, got 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_override_into_non_object_spec_section_is_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"gen": 5}))
        code = main(["generate", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "spec: gen must be an object, got 5" in capsys.readouterr().err
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

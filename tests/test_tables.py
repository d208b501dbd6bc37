"""Every table the console entry point renders, byte for byte against the
renderers the row model replaced (tests/_oracles.py).

Each scene runs as is; the small one also runs with reports edited into the
shapes the renderers must handle: no re-id block, a region without matches
(ate, ase and aoe None), frame errors with no 2D AP, and a class only one
variant scores.
"""

import json
from dataclasses import replace

import pytest

from sianms import cli
from sianms.cli import main
from sianms.pipeline import VARIANT_ORDER, PipelineConfig, RunReport, Variant, config_to_dict
from sianms.sceneio import load_boxes, write_boxes, write_scene
from sianms.synthgen import GenSpec, RigSpec, benchmark_gen_spec, make_rig

from _oracles import (
    comparison_csv_reference,
    comparison_json_reference,
    comparison_text_reference,
    config_from_dict_reference,
    config_to_dict_reference,
    eval_3d_tables_reference,
    eval_reid_tables_reference,
    report_csv_reference,
    report_from_dict_reference,
    report_text_reference,
    report_to_dict_reference,
)
from conftest import build_scene

FORMATS = ("text", "csv", "json")
VARIANTS = [v.value for v in VARIANT_ORDER]
# the scene of tests/test_pipeline.py's small_comparison
SMALL_GEN = GenSpec(seed=7, n_frames=4, objects_per_frame=(3, 5), clutter_points=60)


def _write_case(root, scene, gen):
    write_scene(root / "scene.json", scene, lidar_bin=True)
    (root / "config.json").write_text(json.dumps(config_to_dict(PipelineConfig(gen=gen))))
    return root


@pytest.fixture(scope="module")
def small_case(tmp_path_factory):
    rig = make_rig(RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=100.0))
    return _write_case(tmp_path_factory.mktemp("small"), build_scene(rig, SMALL_GEN), SMALL_GEN)


@pytest.fixture(scope="module", params=["small", "noisy"])
def case(request, tmp_path_factory):
    if request.param == "small":
        return request.getfixturevalue("small_case")
    scene = request.getfixturevalue("noisy_scene")
    return _write_case(tmp_path_factory.mktemp("noisy"), scene, benchmark_gen_spec(42, noisy=True))


@pytest.fixture(scope="module")
def sianms_run(case):
    out = case / "run_sianms"
    assert main(["run", "--scene", str(case / "scene.json"), "--config",
                 str(case / "config.json"), "--variant", "sianms", "--out", str(out)]) == 0
    return out


def _cli(capsys, *argv) -> str:
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def _no_reid(report):
    report.reid = None


def _no_matches(report):
    block = report.metrics_3d["overlap"]
    for row in [*block["per_class"].values(), block["mean"]]:
        row.update(ate=None, ase=None, aoe=None)


def _errors_without_2d(report):
    report.errors = [{"frame": 0, "error": "ValueError: injected"}]
    report.ap_2d = {}


REPORT_EDITS = {"no_reid": _no_reid, "no_matches": _no_matches, "errors": _errors_without_2d}


def _one_variant_class(comparison):
    """The first class only sianms scores, the last one all but sianms."""
    classes = sorted(comparison.reports[Variant.SIANMS.value].ap_2d)
    for name, report in comparison.reports.items():
        drop = classes[-1] if name == Variant.SIANMS.value else classes[0]
        report.ap_2d.pop(drop, None)
        for block in report.metrics_3d.values():
            block["per_class"].pop(drop, None)


def _each_report(edit):
    def apply(comparison):
        for report in comparison.reports.values():
            edit(report)

    return apply


COMPARISON_EDITS = {name: _each_report(edit) for name, edit in REPORT_EDITS.items()}
COMPARISON_EDITS["one_variant_class"] = _one_variant_class


def _check_run(root, variant, tmp_path, capsys):
    outs = {
        fmt: _cli(capsys, "run", "--scene", root / "scene.json", "--config", root / "config.json",
                  "--variant", variant, "--out", tmp_path / fmt, f"--{fmt}")
        for fmt in FORMATS
    }
    written = (tmp_path / "json" / "report.json").read_text()
    data = json.loads(written)
    report = RunReport.from_dict(data)
    assert outs["text"] == report_text_reference(report)
    assert outs["csv"] == report_csv_reference(report)
    want = report_to_dict_reference(report_from_dict_reference(data))
    assert outs["json"] == written == json.dumps(want, indent=2, sort_keys=True) + "\n"


def _check_compare(root, tmp_path, capsys, monkeypatch, edit=None):
    captured = []
    real = cli.compare_variants

    def capturing(*args, **kwargs):
        comparison = real(*args, **kwargs)
        if edit is not None:
            edit(comparison)
        captured.append(comparison)
        return comparison

    monkeypatch.setattr(cli, "compare_variants", capturing)
    cfg = config_from_dict_reference(json.loads((root / "config.json").read_text()))
    for fmt in FORMATS:
        out = _cli(capsys, "compare", "--scene", root / "scene.json", "--config",
                   root / "config.json", "--out", tmp_path / fmt, f"--{fmt}")
        comparison = captured[-1]
        assert comparison.config == config_to_dict_reference(cfg)
        want = {
            "text": comparison_text_reference(comparison),
            "csv": comparison_csv_reference(comparison),
            "json": json.dumps(comparison_json_reference(comparison), indent=2, sort_keys=True) + "\n",
        }
        assert out == want[fmt]
        for suffix, key in (("txt", "text"), ("csv", "csv"), ("json", "json")):
            assert (tmp_path / fmt / f"compare.{suffix}").read_text() == want[key]


class TestRun:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_format(self, case, variant, tmp_path, capsys):
        _check_run(case, variant, tmp_path, capsys)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("edit", sorted(REPORT_EDITS))
    def test_edited_report(self, small_case, variant, edit, tmp_path, capsys, monkeypatch):
        real = cli.run_pipeline

        def edited(*args, **kwargs):
            result = real(*args, **kwargs)
            REPORT_EDITS[edit](result.report)
            return result

        monkeypatch.setattr(cli, "run_pipeline", edited)
        _check_run(small_case, variant, tmp_path, capsys)


class TestCompare:
    def test_every_format_and_file(self, case, tmp_path, capsys, monkeypatch):
        _check_compare(case, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("edit", sorted(COMPARISON_EDITS))
    def test_edited_reports(self, small_case, edit, tmp_path, capsys, monkeypatch):
        _check_compare(small_case, tmp_path, capsys, monkeypatch, COMPARISON_EDITS[edit])


def _check_eval_3d(boxes, scene, region, capsys):
    outs = {
        fmt: _cli(capsys, "eval-3d", "--pred", boxes, "--gt", scene, "--region", region, f"--{fmt}")
        for fmt in FORMATS
    }
    data = json.loads(outs["json"])
    assert data["region"] == region
    assert (outs["text"], outs["csv"]) == eval_3d_tables_reference(region, data["classes"])
    return data["classes"]


class TestEval:
    @pytest.mark.parametrize("region", ["all", "overlap"])
    def test_eval_3d(self, case, sianms_run, region, capsys):
        _check_eval_3d(sianms_run / "boxes.json", case / "scene.json", region, capsys)

    @pytest.mark.parametrize("region", ["all", "overlap"])
    def test_eval_3d_without_matches(self, case, sianms_run, region, tmp_path, capsys):
        boxes = {
            frame: [replace(b, box=replace(b.box, x=b.box.x + 1000.0)) for b in frame_boxes]
            for frame, frame_boxes in load_boxes(sianms_run / "boxes.json").items()
        }
        write_boxes(tmp_path / "far.json", boxes)
        classes = _check_eval_3d(tmp_path / "far.json", case / "scene.json", region, capsys)
        assert classes
        assert all(row["num_matched"] == 0 and row["ate"] is None for row in classes.values())

    def test_eval_reid(self, sianms_run, capsys):
        outs = {
            fmt: _cli(capsys, "eval-reid", "--matches", sianms_run / "matches.json",
                      "--detections", sianms_run / "detections.json", f"--{fmt}")
            for fmt in FORMATS
        }
        assert (outs["text"], outs["csv"]) == eval_reid_tables_reference(json.loads(outs["json"]))

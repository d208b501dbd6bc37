"""End-to-end variant pipelines and their comparison artifacts."""

import copy
import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sianms.estimator as estimator_module
import sianms.frustum as frustum_module
import sianms.pipeline as pipeline_module
from sianms.estimator import EstimatorConfig, TooFewPoints, estimate_box
from sianms.frustum import EmptyFrustum, camera_view, filter_frustum, merge_frustums
from sianms.pipeline import (
    Frame,
    PipelineConfig,
    PredBox,
    RunReport,
    Scene,
    SchemaError,
    Variant,
    VARIANT_NAMES,
    VARIANT_ORDER,
    check_inputs,
    compare_variants,
    config_from_dict,
    config_to_dict,
    nms_greedy,
    run_pipeline,
)
from sianms.scene import BBox2D, Detection2D, SceneObject, project_points
from sianms.synthgen import GenSpec, RigSpec, make_rig

from _oracles import filter_frustum_reference
from conftest import build_scene, simulate_all

SMALL_GEN = GenSpec(seed=7, n_frames=4, objects_per_frame=(3, 5), clutter_points=60)


def _det(cam, bbox, score, cls="car"):
    return Detection2D(camera_id=cam, bbox=BBox2D(*bbox), class_id=cls, score=score)


def _flat(boxes_by_frame):
    out = []
    for idx in sorted(boxes_by_frame):
        out.extend(boxes_by_frame[idx])
    return out


class TestNmsGreedy:
    def test_same_camera_duplicate_suppressed(self):
        keep_me = _det("cam0", (0, 0, 10, 10), 0.9)
        dup = _det("cam0", (1, 0, 11, 10), 0.8)
        kept = nms_greedy([keep_me, dup], iou_threshold=0.5)
        assert kept == [keep_me]

    def test_cross_camera_duplicates_survive(self):
        a = _det("cam0", (0, 0, 10, 10), 0.9)
        b = _det("cam1", (0, 0, 10, 10), 0.8)
        assert set(map(id, nms_greedy([a, b], iou_threshold=0.5))) == {id(a), id(b)}

    def test_different_classes_survive(self):
        a = _det("cam0", (0, 0, 10, 10), 0.9, cls="car")
        b = _det("cam0", (0, 0, 10, 10), 0.8, cls="pedestrian")
        assert len(nms_greedy([a, b], iou_threshold=0.5)) == 2

    def test_below_threshold_survives(self):
        a = _det("cam0", (0, 0, 10, 10), 0.9)
        b = _det("cam0", (8, 0, 18, 10), 0.8)
        assert len(nms_greedy([a, b], iou_threshold=0.5)) == 2

    def test_chain_suppression_uses_kept_only(self):
        # b is suppressed by a (IoU 2/3); c clears kept a (IoU 0.43) and
        # survives even though it would have hit the suppressed b.
        a = _det("cam0", (0.0, 0.0, 10.0, 10.0), 0.9)
        b = _det("cam0", (2.0, 0.0, 12.0, 10.0), 0.8)
        c = _det("cam0", (4.0, 0.0, 14.0, 10.0), 0.7)
        kept = nms_greedy([a, b, c], iou_threshold=0.5)
        assert set(map(id, kept)) == {id(a), id(c)}


class TestConfig:
    def test_resolved_tau_default_is_margin_midpoint(self):
        cfg = PipelineConfig()
        assert cfg.resolved_tau == pytest.approx(
            (cfg.loss.alpha + cfg.loss.beta) / 2.0
        )

    def test_resolved_tau_explicit(self):
        cfg = PipelineConfig(tau=0.8)
        assert cfg.resolved_tau == 0.8

    def test_round_trip(self):
        cfg = PipelineConfig(gen=GenSpec(seed=5, embed_noise=0.02), tau=0.9)
        data = config_to_dict(cfg)
        back = config_from_dict(json.loads(json.dumps(data)))
        assert back.gen.seed == 5
        assert back.gen.embed_noise == pytest.approx(0.02)
        assert back.tau == pytest.approx(0.9)
        assert back.estimator.extent_quantile == cfg.estimator.extent_quantile
        assert config_to_dict(back) == data


class TestRunPipeline:
    def test_original_and_embedding_boxes_identical(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        res_orig = run_pipeline(small_scene, Variant.ORIGINAL, cfg)
        res_emb = run_pipeline(small_scene, Variant.EMBEDDING_2D, cfg)
        # Matching changes bookkeeping, never the per-camera boxes themselves.
        flat_orig, flat_emb = _flat(res_orig.boxes), _flat(res_emb.boxes)
        assert len(flat_orig) == len(flat_emb)
        for a, b in zip(flat_orig, flat_emb):
            np.testing.assert_allclose(
                [a.box.x, a.box.y, a.box.z, a.box.theta],
                [b.box.x, b.box.y, b.box.z, b.box.theta],
            )
        assert res_emb.matches
        assert not res_orig.matches

    def test_sianms_merges_matched_pairs(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        res = run_pipeline(small_scene, Variant.SIANMS, cfg)
        orig = run_pipeline(small_scene, Variant.ORIGINAL, cfg)
        n_pairs = sum(len(m.pairs) for m in res.matches.values())
        assert n_pairs > 0
        assert len(_flat(res.boxes)) == len(_flat(orig.boxes)) - n_pairs
        assert any(b.n_sources == 2 for b in _flat(res.boxes))

    def test_counts_consistent(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        res = run_pipeline(small_scene, Variant.SIANMS, cfg)
        counts = res.report.counts
        assert counts["frames"] == len(small_scene.frames)
        assert counts["frames_processed"] == counts["frames"]
        assert counts["gt_objects"] == sum(len(f.objects) for f in small_scene.frames)
        assert counts["gt_overlap_objects"] <= counts["gt_objects"]
        assert counts["boxes_3d"] == len(_flat(res.boxes))
        assert counts["merged_boxes"] == sum(
            1 for b in _flat(res.boxes) if b.merged
        )
        assert res.report.errors == []

    def test_metrics_structure(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        res = run_pipeline(small_scene, Variant.SIANMS, cfg)
        assert set(res.report.metrics_3d) == {"all", "overlap"}
        for region in res.report.metrics_3d.values():
            assert {"per_class", "mean"} <= set(region)
            for row in region["per_class"].values():
                assert {"ap", "ate", "ase", "aoe", "num_gt"} <= set(row)

    def test_reid_stats_only_for_matching_variants(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        res_orig = run_pipeline(small_scene, Variant.ORIGINAL, cfg)
        res_sia = run_pipeline(small_scene, Variant.SIANMS, cfg)
        assert res_orig.report.reid is None
        assert res_sia.report.reid is not None
        assert 0.0 <= res_sia.report.reid["precision"] <= 1.0

    def test_frame_errors_isolated(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        bad = {
            f.index: [_det("nonexistent", (0, 0, 10, 10), 0.9)] if f.index == 1 else []
            for f in small_scene.frames
        }
        res = run_pipeline(small_scene, Variant.ORIGINAL, cfg, detections=bad)
        assert len(res.report.errors) == 1
        assert res.report.errors[0]["frame"] == 1
        assert res.report.counts["frames_processed"] == len(small_scene.frames) - 1

    def test_detections_override_used(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        empty = {f.index: [] for f in small_scene.frames}
        res = run_pipeline(small_scene, Variant.ORIGINAL, cfg, detections=empty)
        assert res.report.counts["detections_2d"] == 0
        assert _flat(res.boxes) == []


class TestInputChecks:
    """Inputs that would fail every frame are rejected before the first."""

    def test_missing_prior_fails_before_the_first_frame(self, small_scene, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline_module, "_simulate_projected", lambda *a: calls.append(a))
        classes = {obj.class_id for f in small_scene.frames for obj in f.objects}
        assert classes - {"car"}
        cfg = PipelineConfig(
            gen=SMALL_GEN, estimator=EstimatorConfig(dim_priors={"car": (4.5, 1.9, 1.6)})
        )
        with pytest.raises(SchemaError, match="estimator.dim_priors has no prior for class"):
            run_pipeline(small_scene, Variant.ORIGINAL, cfg)
        with pytest.raises(SchemaError, match="estimator.dim_priors has no prior for class"):
            compare_variants(small_scene, cfg)
        assert calls == []

    def test_detections_outside_the_rig_or_the_priors(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        dets = simulate_all(small_scene, SMALL_GEN)
        check_inputs(small_scene, cfg, dets)
        dets[2] = dets[2] + [_det("cam9", (0, 0, 10, 10), 0.9)]
        with pytest.raises(SchemaError, match="detections: camera 'cam9' is not in the rig"):
            check_inputs(small_scene, cfg, dets)
        dets[2][-1] = _det(small_scene.rig.cameras[0].id, (0, 0, 10, 10), 0.9, cls="truck")
        with pytest.raises(SchemaError, match="no prior for class 'truck'"):
            check_inputs(small_scene, cfg, dets)
        dets[2].pop()
        dets[7] = dets.pop(1)
        with pytest.raises(SchemaError, match="^detections: frame 7 is not in the scene$"):
            check_inputs(small_scene, cfg, dets)


class TestRunReport:
    def test_round_trip(self, small_scene):
        cfg = PipelineConfig(gen=SMALL_GEN)
        report = run_pipeline(small_scene, Variant.SIANMS, cfg).report
        data = json.loads(json.dumps(report.to_dict()))
        back = RunReport.from_dict(data)
        assert back.variant == report.variant
        assert back.counts == report.counts
        assert back.metrics_3d == report.metrics_3d
        assert back.reid == report.reid


@pytest.fixture(scope="module")
def small_comparison():
    rig = make_rig(RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=100.0))
    scene = build_scene(rig, SMALL_GEN)
    return compare_variants(scene, PipelineConfig(gen=SMALL_GEN))


class TestCompareVariants:
    def test_all_variants_present(self, small_comparison):
        assert set(small_comparison.reports) == {v.value for v in VARIANT_ORDER}

    def test_json_dict_drops_runtime_and_config(self, small_comparison):
        data = small_comparison.to_json_dict()
        for variant_block in data["variants"].values():
            assert "runtime_s" not in variant_block
            assert "config" not in variant_block

    def test_csv_shape(self, small_comparison):
        lines = small_comparison.to_csv().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["section", "region", "class", "metric"]
        assert header[4:8] == [v.value for v in VARIANT_ORDER]
        assert header[8:] == ["sianms-original", "sianms-original+nms"]
        assert len(lines) > 1
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_text_includes_all_variants(self, small_comparison):
        text = small_comparison.to_text()
        for v in VARIANT_ORDER:
            assert v.value in text

    def test_deltas_keyed_by_variant(self, small_comparison):
        deltas = small_comparison.deltas()
        assert set(deltas) == {"all", "overlap"}


class TestDeterminism:
    def test_rerun_identical_artifacts(self, small_rig):
        gen = GenSpec(seed=19, n_frames=3, objects_per_frame=(3, 4),
                      embed_noise=0.05, bbox_jitter_px=2.0, clutter_points=60)
        scene = build_scene(small_rig, gen)
        cfg = PipelineConfig(gen=gen)
        a = compare_variants(scene, cfg)
        b = compare_variants(scene, cfg)
        assert a.to_csv() == b.to_csv()
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )


def _counting(monkeypatch, name):
    """Replace pipeline's binding of name with a wrapper; returns its call list."""
    real = getattr(pipeline_module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, name, wrapper)
    return calls


def _counting_projections(monkeypatch, scene):
    """Replace frustum's binding of project_points with a wrapper; returns
    the (frame index, camera id) of each call, the frame found by the cloud
    the points come from."""
    real = frustum_module.project_points
    calls = []

    def wrapper(cam, points, *args):
        frame = next(f for f in scene.frames if np.shares_memory(points, f.cloud))
        calls.append((frame.index, cam.id))
        return real(cam, points, *args)

    monkeypatch.setattr(frustum_module, "project_points", wrapper)
    return calls


class _RaisingDetections:
    def __iter__(self):
        raise RuntimeError("corrupt detections entry")


def _with_drops(scene):
    """(config, detections) of a compare on scene in which every frame has
    an empty frustum, and some fits too few points."""
    dets = simulate_all(scene, SMALL_GEN)
    for frame_dets in dets.values():
        # a zero-area bbox in an image corner holds no point
        frame_dets.append(dataclasses.replace(frame_dets[0], bbox=BBox2D(0.0, 0.0, 0.0, 0.0)))
    return PipelineConfig(gen=SMALL_GEN, estimator=EstimatorConfig(min_points=100)), dets


class TestSharedFrameWork:
    """compare_variants runs every variant in one loop over the frames."""

    @pytest.mark.parametrize("supplied", [False, True], ids=["simulated", "supplied"])
    def test_compare_reports_equal_single_variant_runs(self, small_scene, supplied):
        cfg = PipelineConfig(gen=SMALL_GEN)
        dets = simulate_all(small_scene, SMALL_GEN) if supplied else None
        comparison = compare_variants(small_scene, cfg, detections=dets)
        for variant in VARIANT_ORDER:
            alone = run_pipeline(small_scene, variant, cfg, detections=dets).report.to_dict()
            shared = comparison.reports[variant.value].to_dict()
            del alone["runtime_s"], shared["runtime_s"]
            assert shared == alone

    def test_simulates_each_frame_once(self, small_scene, monkeypatch):
        calls = _counting(monkeypatch, "_simulate_projected")
        compare_variants(small_scene, PipelineConfig(gen=SMALL_GEN))
        assert [args[3] for args in calls] == [f.index for f in small_scene.frames]

    def test_stage_calls_reconcile_with_reports(self, small_scene, monkeypatch):
        estimates = _counting(monkeypatch, "estimate_box")
        filters = _counting(monkeypatch, "filter_frustum")
        comparison = compare_variants(small_scene, PipelineConfig(gen=SMALL_GEN))
        counts = [r.counts for r in comparison.reports.values()]
        assert len(estimates) == sum(
            c["boxes_3d"] + c["dropped_too_few_points"] for c in counts
        )
        assert len(filters) == sum(c["detections_2d"] for c in counts)

    def test_filter_and_fit_run_once_per_distinct_input(self, small_scene, monkeypatch):
        """Every variant calls filter_frustum and estimate_box, as many times
        as its report implies, but a frame's view filters each detection
        once, and a frustum with at least min_points points is fitted once,
        in the batch of the first variant that asks for it: the later calls
        get the same Frustum and Box3D, whose shared points are read-only.
        No smaller frustum reaches the batch."""
        cfg, dets = _with_drops(small_scene)
        filters, estimates = _counting(monkeypatch, "filter_frustum"), _counting(monkeypatch, "estimate_box")
        made = {}  # function name -> (args, result) of each call that returned
        for module, name in [(frustum_module, "_select"), (estimator_module, "_fit_batch"),
                             (pipeline_module, "merge_frustums")]:
            calls, real = made.setdefault(name, []), getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, calls=calls, real=real: calls.append((a, real(*a))) or calls[-1][1])
        comparison = compare_variants(small_scene, cfg, detections=dets)
        counts = [r.counts for r in comparison.reports.values()]
        assert not any(r.errors for r in comparison.reports.values())
        assert len(estimates) == sum(c["boxes_3d"] + c["dropped_too_few_points"] for c in counts)
        assert len(filters) == sum(c["detections_2d"] for c in counts)
        # the call lists hold every detection and frustum, so ids are unique
        selects, batches = made["_select"], made["_fit_batch"]
        every_det = [det for frame_dets in dets.values() for det in frame_dets]
        assert sorted(id(args[3]) for args, _ in selects) == sorted(map(id, every_det))
        fitted = [frustum for (batch, _), _ in batches for frustum, _, _ in batch]
        assert len({id(frustum) for frustum in fitted}) == len(fitted)
        min_points = cfg.estimator.min_points
        asked = {id(args[0]): len(args[0]) for args in estimates}
        assert {id(frustum) for frustum in fitted} == {i for i, n in asked.items() if n >= min_points}
        assert min(asked.values()) < min_points <= min(map(len, fitted))
        assert len(selects) < len(filters) and len(batches) < len(fitted) < len(estimates)
        # a view keeps an empty frustum as None
        assert None in [frustum for _, frustum in selects] and made["merge_frustums"]
        frustums = [frustum for _, frustum in selects + made["merge_frustums"] if frustum is not None]
        assert all(not f.points.flags.writeable for f in frustums)
        with pytest.raises(ValueError, match="read-only"):
            frustums[0].points[0, 0] = 0.0

    def test_frame_work_is_freed_with_the_frame(self, small_scene, monkeypatch):
        """The views, frustums and their memos, kept drops included, form no
        reference cycle: with the cyclic collector paused, none is alive
        after compare returns.  That holds too when every frame's matching
        raises, whose exception the frame's matching variants share."""
        cfg, dets = _with_drops(small_scene)
        refs = []
        for name in ("camera_view", "filter_frustum", "merge_frustums"):
            real = getattr(pipeline_module, name)

            def keeping(*args, real=real, **kwargs):
                made = real(*args, **kwargs)
                refs.append(weakref.ref(made))
                return made

            monkeypatch.setattr(pipeline_module, name, keeping)

        def failing(rig, detections, tau):
            raise RuntimeError("injected matching failure")

        n_frames = len(small_scene.frames)
        for matcher in ("working", "raising"):
            if matcher == "raising":
                monkeypatch.setattr(pipeline_module, "match_adjacent", failing)
            refs.clear()
            enabled = gc.isenabled()
            gc.disable()
            try:
                comparison = compare_variants(small_scene, cfg, detections=dets)
                alive = [ref() for ref in refs if ref() is not None]
            finally:
                if enabled:
                    gc.enable()
            assert len(refs) > n_frames and alive == [], matcher
            reports = comparison.reports
            # with the matching failing, sianms drops nothing: original does
            variant = Variant.SIANMS if matcher == "working" else Variant.ORIGINAL
            counts = reports[variant.value].counts
            assert counts["dropped_empty_frustum"] and counts["dropped_too_few_points"]
            errors = [e["error"] for e in reports[Variant.SIANMS.value].errors]
            assert errors == ([] if matcher == "working" else ["RuntimeError: injected matching failure"] * n_frames)

    def test_unlabeled_detections_are_processed_unscored(self, small_scene, monkeypatch):
        """Ground truth only scores.  Supplied detections without truth_uid
        make evaluate_frame raise MissingTruth on every frame, yet every
        variant processes every frame: 2d+embedding and sianms report no
        re-id score and no error, and sianms fits the boxes it fits from the
        labeled detections.  The frames' views and frustums are freed with
        the cyclic collector paused, as when matching raises."""
        cfg, labeled = _with_drops(small_scene)
        dets = {
            index: [dataclasses.replace(det, truth_uid=None) for det in frame_dets]
            for index, frame_dets in labeled.items()
        }
        refs = []
        for name in ("camera_view", "filter_frustum"):
            real = getattr(pipeline_module, name)

            def keeping(*args, real=real, **kwargs):
                made = real(*args, **kwargs)
                refs.append(weakref.ref(made))
                return made

            monkeypatch.setattr(pipeline_module, name, keeping)
        enabled = gc.isenabled()
        gc.disable()
        try:
            comparison = compare_variants(small_scene, cfg, detections=dets)
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            if enabled:
                gc.enable()
        assert len(refs) > len(dets) and alive == []
        reports = comparison.reports
        for name in VARIANT_NAMES:
            counts = reports[name].counts
            if name != Variant.SIANMS.value:  # which fits one box per matched pair
                assert counts["detections_2d"] == (
                    counts["boxes_3d"] + counts["dropped_empty_frustum"] + counts["dropped_too_few_points"]
                )
            assert counts["frames_processed"] == len(dets) and reports[name].errors == []
            assert reports[name].reid is None
        scored = run_pipeline(small_scene, Variant.SIANMS, cfg, detections=labeled)
        assert scored.report.reid is not None
        assert comparison.results[Variant.SIANMS.value].boxes == scored.boxes

    def test_kept_drops_reach_every_variant_as_fresh_exceptions(self, small_scene, monkeypatch):
        """An empty frustum and a fit with too few points are raised again,
        as new exceptions with the first one's type and text, to each later
        variant that asks; every report is the one it is when no call finds
        a kept outcome, drop counts included."""
        cfg, dets = _with_drops(small_scene)
        raised = {}  # detection or frustum -> exceptions raised for it
        for name, kind in (("filter_frustum", EmptyFrustum), ("estimate_box", TooFewPoints)):
            real = getattr(pipeline_module, name)

            def raising(first, *args, real=real, kind=kind, **kwargs):
                try:
                    return real(first, *args, **kwargs)
                except kind as exc:
                    # a detection's filter, or a frustum's fit
                    raised.setdefault(kwargs.get("source", first), []).append(exc)
                    raise

            monkeypatch.setattr(pipeline_module, name, raising)
        kept = compare_variants(small_scene, cfg, detections=dets)
        repeated = [excs for excs in raised.values() if len(excs) > 1]
        assert {type(excs[0]) for excs in repeated} == {EmptyFrustum, TooFewPoints}
        for excs in raised.values():
            assert len(set(map(id, excs))) == len(excs)
            assert {(type(e), str(e)) for e in excs} == {(type(excs[0]), str(excs[0]))}
        # a fresh view per call: nothing is found kept, as before the memo
        real = frustum_module.filter_frustum
        monkeypatch.setattr(pipeline_module, "filter_frustum",
                            lambda cam, bbox, view, source: real(cam, bbox, dataclasses.replace(view), source=source))
        unkept = compare_variants(small_scene, cfg, detections=dets)
        for name in VARIANT_NAMES:
            got, want = kept.reports[name].to_dict(), unkept.reports[name].to_dict()
            del got["runtime_s"], want["runtime_s"]
            assert got == want and not got["errors"]
            assert got["counts"]["dropped_empty_frustum"] == len(dets)
            assert got["counts"]["dropped_too_few_points"] > 0
            assert kept.results[name].boxes == unkept.results[name].boxes

    def test_shared_stages_run_once_per_distinct_input(self, small_scene, monkeypatch):
        """2d+embedding and sianms match one working set, so each frame is
        matched and its re-id scored once; 2D AP is scored once per working
        set (all detections, the NMS subset) and each region's 3D metrics
        once per box set (original's, shared with 2d+embedding, NMS's and
        sianms's)."""
        names = ("match_adjacent", "evaluate_frame", "ap_2d", "evaluate_3d",
                 "overlap_region_filter")
        calls = {name: _counting(monkeypatch, name) for name in names}
        comparison = compare_variants(small_scene, PipelineConfig(gen=SMALL_GEN))
        assert not any(report.errors for report in comparison.reports.values())
        n_frames = len(small_scene.frames)
        assert {name: len(c) for name, c in calls.items()} == {
            "match_adjacent": n_frames,
            "evaluate_frame": n_frames,
            "ap_2d": 2,
            "evaluate_3d": 6,
            "overlap_region_filter": 3,
        }

    def test_shared_scores_are_copied_per_report(self, small_scene):
        """Editing one report's ap_2d or metrics_3d, down to a class's row,
        leaves the reports that share its score as they were."""
        comparison = compare_variants(small_scene, PipelineConfig(gen=SMALL_GEN))
        reports = [comparison.reports[v.value] for v in VARIANT_ORDER]
        before = copy.deepcopy([r.to_dict() for r in reports])
        for edited, report in enumerate(reports):
            assert report.ap_2d and all(b["per_class"] for b in report.metrics_3d.values())
            report.ap_2d.clear()
            for block in report.metrics_3d.values():
                for row in block["per_class"].values():
                    row.clear()
                block["mean"].clear()
            assert [r.to_dict() for r in reports[edited + 1:]] == before[edited + 1:]

    @pytest.mark.parametrize("supplied", [False, True], ids=["simulated", "supplied"])
    def test_projects_each_named_camera_once_per_frame(self, small_scene, monkeypatch, supplied):
        dets = simulate_all(small_scene, SMALL_GEN)
        if supplied:
            dets[1] = []
        calls = _counting_projections(monkeypatch, small_scene)
        compare_variants(
            small_scene, PipelineConfig(gen=SMALL_GEN), detections=dets if supplied else None
        )
        named = {(index, det.camera_id) for index, frame_dets in dets.items() for det in frame_dets}
        assert sorted(calls) == sorted(named)
        assert len(named) < len(dets) * len(small_scene.rig.cameras)
        if supplied:
            assert 1 not in {index for index, _ in calls}

    def test_view_of_another_camera_is_refused(self, small_scene):
        cam_a, cam_b = small_scene.rig.cameras[:2]
        view = camera_view(cam_a, small_scene.frames[0].cloud)
        whole_image = BBox2D(0.0, 0.0, cam_b.width, cam_b.height)
        with pytest.raises(ValueError, match="view of camera") as refused:
            filter_frustum(cam_b, whole_image, view)
        assert type(refused.value) is ValueError

    @pytest.mark.parametrize("broken", ["detections", "ground_truth", "cloud"])
    def test_shared_frame_error_recorded_by_every_variant(self, small_scene, broken):
        cfg = PipelineConfig(gen=SMALL_GEN)
        dets = simulate_all(small_scene, SMALL_GEN)
        clean = compare_variants(small_scene, cfg, detections=dets)
        frames = list(small_scene.frames)
        if broken == "detections":
            dets[1] = _RaisingDetections()
            expected = "RuntimeError: corrupt detections entry"
        elif broken == "ground_truth":
            ghost = SceneObject(uid="ghost", class_id="car", box=None)
            frames[1] = dataclasses.replace(frames[1], objects=frames[1].objects + (ghost,))
            expected = "AttributeError"
        else:
            # the text the per-bbox filter raised before clouds were viewed
            frames[1] = dataclasses.replace(frames[1], cloud=np.zeros((4, 2)))
            det = dets[1][0]
            with pytest.raises(ValueError) as unviewable:
                filter_frustum_reference(small_scene.rig.camera(det.camera_id), det.bbox, frames[1].cloud)
            expected = f"ValueError: {unviewable.value}"
        scene = dataclasses.replace(small_scene, frames=tuple(frames))
        comparison = compare_variants(scene, cfg, detections=dets)
        single = run_pipeline(scene, Variant.SIANMS, cfg, detections=dets)
        for result in [*comparison.results.values(), single]:
            report = result.report
            assert [e["frame"] for e in report.errors] == [1]
            assert report.errors[0]["error"].startswith(expected)
            assert report.counts["frames_processed"] == len(frames) - 1
            assert sorted(result.boxes) == [f.index for f in frames if f.index != 1]
            reference = clean.results[report.variant].boxes
            assert all(result.boxes[i] == reference[i] for i in result.boxes)


class TestFrameIsolation:
    """A failure injected into one frame of a compare costs that frame only,
    and only in the variants its failing stage serves: a bad cloud or a
    detections entry that raises in every variant, a match_adjacent or an
    evaluate_frame that raises in 2d+embedding and sianms.  Each variant
    still reports what it would report alone on the same inputs, and a
    variant that fits one box per detection accounts for each detection of
    the frames it processed as a box or a drop."""

    RIG = make_rig(RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=100.0))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        n_frames=st.integers(2, 4),
        failure=st.sampled_from(["cloud", "detections", "match", "reid"]),
        data=st.data(),
    )
    def test_other_frames_keep_their_boxes(self, seed, n_frames, failure, data):
        gen = dataclasses.replace(SMALL_GEN, seed=seed, n_frames=n_frames)
        scene = build_scene(self.RIG, gen)
        cfg = PipelineConfig(gen=gen)
        dets = simulate_all(scene, gen)
        broken = data.draw(st.sampled_from([i for i, d in dets.items() if d]), label="broken")
        clean = compare_variants(scene, cfg, detections=dets)
        assert not any(report.errors for report in clean.reports.values())
        frames = list(scene.frames)
        failing = VARIANT_NAMES
        if failure == "cloud":
            frames[broken] = dataclasses.replace(frames[broken], cloud=np.zeros((4, 2)))
        elif failure == "detections":
            dets[broken] = _RaisingDetections()
        else:
            failing = (Variant.EMBEDDING_2D.value, Variant.SIANMS.value)
        scene = dataclasses.replace(scene, frames=tuple(frames))
        broken_ids = [id(det) for det in dets[broken]] if failure in ("match", "reid") else None
        real_match, real_reid = pipeline_module.match_adjacent, pipeline_module.evaluate_frame

        def match_adjacent(rig, detections, tau):
            if failure == "match" and [id(det) for det in detections] == broken_ids:
                raise RuntimeError("injected matching failure")
            return real_match(rig, detections, tau)

        def evaluate_frame(matches, detections, rig, frame_index):
            if failure == "reid" and [id(det) for det in detections] == broken_ids:
                raise RuntimeError("injected re-id scoring failure")
            return real_reid(matches, detections, rig, frame_index)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline_module, "match_adjacent", match_adjacent)
            patch.setattr(pipeline_module, "evaluate_frame", evaluate_frame)
            comparison = compare_variants(scene, cfg, detections=dets)
            alone = {v.value: run_pipeline(scene, v, cfg, detections=dets) for v in VARIANT_ORDER}
        for name in VARIANT_NAMES:
            result = comparison.results[name]
            errors = [e["frame"] for e in result.report.errors]
            assert errors == ([broken] if name in failing else [])
            kept = [f.index for f in frames if f.index != broken or name not in failing]
            assert sorted(result.boxes) == kept
            assert all(result.boxes[i] == clean.results[name].boxes[i] for i in kept)
            shared, single = result.report.to_dict(), alone[name].report.to_dict()
            del shared["runtime_s"], single["runtime_s"]
            assert shared == single
            counts = shared["counts"]
            if name != Variant.SIANMS.value:
                assert counts["detections_2d"] == (
                    counts["boxes_3d"] + counts["dropped_empty_frustum"] + counts["dropped_too_few_points"]
                )


@st.composite
def _small_scenes(draw):
    """A 1-2 frame scene on a 4-, 6- or 8-camera ring of varied FoV, with
    the benchmark's noise or none, and its generation spec."""
    n_cameras, spacing = draw(st.sampled_from([(4, 90.0), (6, 60.0), (8, 45.0)]))
    hfov = spacing + draw(st.floats(5.0, 50.0))
    noisy = draw(st.booleans())
    gen = GenSpec(
        seed=draw(st.integers(0, 2**16)),
        n_frames=draw(st.integers(1, 2)),
        objects_per_frame=(2, 6),
        embed_noise=0.05 if noisy else 0.0,
        bbox_jitter_px=2.0 if noisy else 0.0,
        clutter_points=100,
    )
    rig = make_rig(RigSpec(n_cameras=n_cameras, yaw_spacing_deg=spacing, hfov_deg=hfov))
    return build_scene(rig, gen), gen


class TestPropertiesAcrossRigs:
    """The invariants perfbench checks on its benchmark scenes, on small
    scenes of other rig shapes and noise levels."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=_small_scenes())
    def test_compare_invariants(self, case):
        scene, gen = case
        cfg = PipelineConfig(gen=gen)
        comparison = compare_variants(scene, cfg)
        reports, results = comparison.reports, comparison.results
        assert not any(report.errors for report in reports.values())
        boxes = {name: _flat(result.boxes) for name, result in results.items()}
        assert boxes[Variant.EMBEDDING_2D.value] == boxes[Variant.ORIGINAL.value]
        assert len(boxes[Variant.SIANMS.value]) <= len(boxes[Variant.ORIGINAL.value])
        for variant in (Variant.ORIGINAL, Variant.EMBEDDING_2D, Variant.ORIGINAL_NMS):
            counts = reports[variant.value].counts
            assert counts["boxes_3d"] == len(boxes[variant.value])
            assert counts["detections_2d"] == (
                counts["boxes_3d"]
                + counts["dropped_empty_frustum"]
                + counts["dropped_too_few_points"]
            )
        rerun = compare_variants(scene, cfg)
        assert json.dumps(rerun.to_json_dict(), sort_keys=True) == json.dumps(
            comparison.to_json_dict(), sort_keys=True
        )


def _block(azimuth_deg, range_m=10.0):
    """48 points of a 0.8 m block standing at azimuth_deg, range_m out."""
    x, y = range_m * np.cos(np.radians(azimuth_deg)), range_m * np.sin(np.radians(azimuth_deg))
    side = np.linspace(-0.4, 0.4, 4)
    return np.array([(x + dx, y + dy, z) for dx in side for dy in side for z in (-1.5, -1.0, -0.5)])


def _tight_bbox(cam, points):
    uv, _, valid = project_points(cam, points)
    assert valid.all()
    return BBox2D(*uv.min(axis=0), *uv.max(axis=0))


class TestSianmsPairStep:
    """The one box of a matched pair, through the pipeline: fit to the merge
    when the pair's frustums share a point, else to the higher-scoring
    detection's frustum (a's on a tie), else to the non-empty one; none when
    both are empty."""

    RIG = make_rig(RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=140.0))
    # two blocks that cam0 and cam1 both see, 20 degrees apart
    NEAR, FAR = _block(35.0), _block(55.0)
    CLOUD = np.vstack([NEAR, FAR])
    EMPTY = BBox2D(0.0, 0.0, 2.0, 2.0)

    def _run(self, bbox_a, bbox_b, score_a, score_b):
        """The sianms result of cam0's a and cam1's b, matched, and the
        frustums of a and b (None when empty)."""
        a = Detection2D("cam0", bbox_a, "car", score_a, np.ones(4), truth_uid=1)
        b = Detection2D("cam1", bbox_b, "car", score_b, np.ones(4), truth_uid=1)
        scene = Scene(rig=self.RIG, frames=(Frame(index=0, objects=(), cloud=self.CLOUD),))
        result = run_pipeline(scene, Variant.SIANMS, PipelineConfig(), detections={0: [a, b]})
        assert result.report.errors == []
        assert [(p.a, p.b) for p in result.matches[0].pairs] == [(a, b)]
        frustums = []
        for cam, det in zip(self.RIG.cameras, (a, b)):
            try:
                frustums.append(filter_frustum(cam, det.bbox, self.CLOUD, source=det))
            except frustum_module.EmptyFrustum:
                frustums.append(None)
        return result, frustums

    def _bbox(self, k, points):
        return self.EMPTY if points is None else _tight_bbox(self.RIG.cameras[k], points)

    @staticmethod
    def _pred(frustum, score, merged):
        box = estimate_box(frustum, "car", EstimatorConfig())
        return PredBox(0, "car", score, box, n_sources=2, merged=merged)

    def test_shared_point_gives_the_merged_box(self):
        result, (fr_a, fr_b) = self._run(self._bbox(0, self.NEAR), self._bbox(1, self.NEAR), 0.6, 0.9)
        merged = merge_frustums(fr_a, fr_b)
        assert merged.sources == fr_a.sources + fr_b.sources
        assert result.boxes[0] == [self._pred(merged, 0.9, merged=True)]
        assert result.report.counts["merged_boxes"] == 1

    @pytest.mark.parametrize("score_a, score_b, winner", [
        (0.9, 0.6, 0), (0.6, 0.9, 1), (0.7, 0.7, 0),
    ], ids=["a-higher", "b-higher", "tie"])
    def test_disjoint_frustums_give_the_higher_scoring_box(self, score_a, score_b, winner):
        result, frustums = self._run(
            self._bbox(0, self.NEAR), self._bbox(1, self.FAR), score_a, score_b
        )
        with pytest.raises(frustum_module.MergeRejected):
            merge_frustums(*frustums)
        expected = self._pred(frustums[winner], max(score_a, score_b), merged=False)
        assert result.boxes[0] == [expected]
        assert result.report.counts["merged_boxes"] == 0

    @pytest.mark.parametrize("empty", [0, 1], ids=["a-empty", "b-empty"])
    def test_one_empty_frustum_gives_the_other_box(self, empty):
        blocks = [self.NEAR, self.NEAR]
        blocks[empty] = None
        result, frustums = self._run(self._bbox(0, blocks[0]), self._bbox(1, blocks[1]), 0.6, 0.9)
        assert frustums[empty] is None
        expected = self._pred(frustums[1 - empty], 0.9, merged=False)
        assert result.boxes[0] == [expected]
        assert result.report.counts["dropped_empty_frustum"] == 1

    def test_two_empty_frustums_give_no_box(self):
        result, frustums = self._run(self.EMPTY, self.EMPTY, 0.6, 0.9)
        assert frustums == [None, None]
        assert result.boxes[0] == []
        counts = result.report.counts
        assert (counts["dropped_empty_frustum"], counts["dropped_too_few_points"]) == (2, 0)


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_frustum_sources_are_the_frames_own_detections(small_scene, monkeypatch, variant):
    """Every variant builds its frustums from the frame's own Detection2D
    objects, so per-detection work can be keyed by identity."""
    dets = simulate_all(small_scene, SMALL_GEN)
    own = {id(det) for frame_dets in dets.values() for det in frame_dets}
    estimates = _counting(monkeypatch, "estimate_box")
    run_pipeline(small_scene, variant, PipelineConfig(gen=SMALL_GEN), detections=dets)
    sources = [source for args in estimates for source in args[0].sources]
    assert len(sources) >= len(estimates) > 0
    assert {id(source) for source in sources} <= own

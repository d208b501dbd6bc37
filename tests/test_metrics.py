"""Detection metrics: 2D AP, 3D AP, and true-positive error statistics."""

import math

import numpy as np
import pytest

from sianms.metrics import (
    EvalConfig2D,
    EvalConfig3D,
    Gt2D,
    Gt3D,
    Pred2D,
    Pred3D,
    aligned_iou3d,
    ap_2d,
    evaluate_3d,
    iou2d,
    match_3d,
    overlap_region_filter,
    tp_errors,
    visible_camera_count,
)
from sianms.scene import BBox2D, Box3D, SceneObject
from sianms.synthgen import GROUND_Z, RigSpec, make_rig

from _oracles import ap2d_reference, ap3d_reference


def _b3(center, dims, theta):
    return Box3D(x=center[0], y=center[1], z=center[2],
                 l=dims[0], w=dims[1], h=dims[2], theta=theta)


def _oracle_ap2d_by_class(preds, gts, cfg):
    out = {}
    for cls in {g.class_id for g in gts}:
        kept = [
            g for g in gts
            if g.class_id == cls
            and g.height_px >= cfg.min_height_px
            and g.truncation <= cfg.max_truncation
        ]
        if kept:
            cls_preds = [p for p in preds if p.class_id == cls]
            out[cls] = ap2d_reference(cls_preds, kept, cfg.iou_threshold)
    return out


def _oracle_ap3d_by_class(preds, gts, cfg):
    out = {}
    for cls in {g.class_id for g in gts}:
        cls_gts = [g for g in gts if g.class_id == cls]
        cls_preds = [p for p in preds if p.class_id == cls]
        out[cls] = ap3d_reference(cls_preds, cls_gts, cfg.center_distance_thresholds)
    return out


def _p2(group, bbox, score, cls="car"):
    return Pred2D(group=group, class_id=cls, bbox=BBox2D(*bbox), score=score)


def _g2(group, bbox, cls="car", height_px=None, truncation=0.0):
    box = BBox2D(*bbox)
    h = box.height if height_px is None else height_px
    return Gt2D(group=group, class_id=cls, bbox=box, height_px=h, truncation=truncation)


class TestIou2d:
    def test_identical(self):
        b = BBox2D(0.0, 0.0, 2.0, 3.0)
        assert iou2d(b, b) == pytest.approx(1.0)

    def test_one_third_overlap(self):
        a = BBox2D(0.0, 0.0, 1.0, 1.0)
        b = BBox2D(0.5, 0.0, 1.5, 1.0)
        assert iou2d(a, b) == pytest.approx(1.0 / 3.0)

    def test_disjoint(self):
        a = BBox2D(0.0, 0.0, 1.0, 1.0)
        b = BBox2D(2.0, 2.0, 3.0, 3.0)
        assert iou2d(a, b) == 0.0

    def test_touching_edges(self):
        a = BBox2D(0.0, 0.0, 1.0, 1.0)
        b = BBox2D(1.0, 0.0, 2.0, 1.0)
        assert iou2d(a, b) == 0.0


class TestAp2d:
    def test_perfect_detections(self):
        gts = [_g2("f0", (0, 0, 10, 30)), _g2("f0", (20, 0, 30, 30))]
        preds = [_p2("f0", (0, 0, 10, 30), 0.9), _p2("f0", (20, 0, 30, 30), 0.8)]
        out = ap_2d(preds, gts, EvalConfig2D())
        assert out["car"] == pytest.approx(1.0)

    def test_no_predictions(self):
        gts = [_g2("f0", (0, 0, 10, 30))]
        assert ap_2d([], gts, EvalConfig2D())["car"] == 0.0

    def test_no_ground_truth_class_absent(self):
        preds = [_p2("f0", (0, 0, 10, 30), 0.9)]
        out = ap_2d(preds, [], EvalConfig2D())
        assert out == {}

    def test_difficulty_gate_removes_gt(self):
        # One easy GT matched, one hard GT (too short) with a matching pred.
        gts = [
            _g2("f0", (0, 0, 10, 30)),
            _g2("f0", (20, 0, 30, 30), height_px=10.0),
        ]
        preds = [_p2("f0", (0, 0, 10, 30), 0.9), _p2("f0", (20, 0, 30, 30), 0.8)]
        out = ap_2d(preds, gts, EvalConfig2D(min_height_px=25.0))
        # The hard GT is removed entirely, so its pred counts as FP at rank 2
        # but recall over the single remaining GT reaches 1.0 at rank 1.
        assert out["car"] == pytest.approx(1.0)

    def test_truncation_gate(self):
        gts = [_g2("f0", (0, 0, 10, 30), truncation=0.5)]
        preds = [_p2("f0", (0, 0, 10, 30), 0.9)]
        out = ap_2d(preds, gts, EvalConfig2D(max_truncation=0.30))
        assert out == {}

    def test_half_recall(self):
        gts = [_g2("f0", (0, 0, 10, 30)), _g2("f0", (100, 0, 110, 30))]
        preds = [_p2("f0", (0, 0, 10, 30), 0.9)]
        out = ap_2d(preds, gts, EvalConfig2D())
        # 40-sample interpolation: 20 of 40 samples lie at recall <= 0.5
        assert out["car"] == pytest.approx(0.5)

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            gts = []
            preds = []
            for g in range(rng.integers(2, 6)):
                frame = f"f{rng.integers(0, 3)}"
                x = float(rng.uniform(0, 200))
                y = float(rng.uniform(0, 100))
                w = float(rng.uniform(8, 40))
                h = float(rng.uniform(26, 60))
                gts.append(_g2(frame, (x, y, x + w, y + h)))
                if rng.random() < 0.8:
                    dx, dy = rng.uniform(-4, 4, size=2)
                    preds.append(
                        _p2(frame, (x + dx, y + dy, x + w + dx, y + h + dy),
                            float(rng.uniform(0.1, 1.0)))
                    )
            for _ in range(rng.integers(0, 3)):
                frame = f"f{rng.integers(0, 3)}"
                x = float(rng.uniform(300, 400))
                preds.append(_p2(frame, (x, 0, x + 20, 40), float(rng.uniform(0.1, 1.0))))
            cfg = EvalConfig2D()
            got = ap_2d(preds, gts, cfg)
            want = _oracle_ap2d_by_class(preds, gts, cfg)
            assert set(got) == set(want)
            for cls in got:
                assert got[cls] == pytest.approx(want[cls], abs=1e-12), f"trial {trial}"


class TestMatch3d:
    def test_greedy_nearest_first(self):
        gt = [
            Gt3D(group="f0", class_id="car", box=_b3((0, 0, 0), (4, 2, 2), 0.0)),
            Gt3D(group="f0", class_id="car", box=_b3((2, 0, 0), (4, 2, 2), 0.0)),
        ]
        preds = [
            Pred3D(group="f0", class_id="car", score=0.9,
                   box=_b3((0.4, 0, 0), (4, 2, 2), 0.0)),
            Pred3D(group="f0", class_id="car", score=0.8,
                   box=_b3((0.2, 0, 0), (4, 2, 2), 0.0)),
        ]
        pairs = match_3d(preds, gt, threshold=2.0)
        by_pred = {id(p): g for p, g in pairs}
        # Higher score matches first and takes the nearest GT.
        assert by_pred[id(preds[0])] is gt[0]
        assert by_pred[id(preds[1])] is gt[1]

    def test_threshold_excludes_far(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        preds = [Pred3D(group="f0", class_id="car", score=0.9,
                        box=_b3((5, 0, 0), (4, 2, 2), 0.0))]
        assert match_3d(preds, gt, threshold=2.0) == []

    def test_group_and_class_must_agree(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        preds = [
            Pred3D(group="f1", class_id="car", score=0.9,
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0)),
            Pred3D(group="f0", class_id="pedestrian", score=0.9,
                   box=_b3((0, 0, 0), (0.6, 0.6, 1.7), 0.0)),
        ]
        assert match_3d(preds, gt, threshold=2.0) == []


class TestErrorStats:
    def test_aligned_iou_half(self):
        a = _b3((0, 0, 0), (4, 2, 2), 0.0)
        b = _b3((10, 10, 0), (2, 2, 2), 1.0)
        # Dims-only IoU: intersection 8, union 16.
        assert aligned_iou3d(a, b) == pytest.approx(0.5)

    def test_aligned_iou_identity(self):
        a = _b3((0, 0, 0), (4, 2, 2), 0.3)
        assert aligned_iou3d(a, a) == pytest.approx(1.0)

    def test_tp_errors_values(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        preds = [Pred3D(group="f0", class_id="car", score=0.9,
                        box=_b3((1, 0, 0), (2, 2, 2), math.pi / 4))]
        out = tp_errors(match_3d(preds, gt, threshold=2.0))
        assert out is not None
        ate, ase, aoe = out
        # 4x2x2 vs 2x2x2 aligned: intersection 8, union 16.
        assert ate == pytest.approx(1.0, abs=1e-12)
        assert ase == pytest.approx(0.5, abs=1e-12)
        assert aoe == pytest.approx(math.pi / 4, abs=1e-12)

    def test_tp_errors_ate_is_ground_plane_distance(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        preds = [Pred3D(group="f0", class_id="car", score=0.9,
                        box=_b3((0.6, 0.8, 5.0), (4, 2, 2), 0.0))]
        out = tp_errors(match_3d(preds, gt, threshold=2.0))
        assert out is not None
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_tp_errors_none_when_unmatched(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        preds = [Pred3D(group="f0", class_id="car", score=0.9,
                        box=_b3((50, 0, 0), (4, 2, 2), 0.0))]
        assert tp_errors(match_3d(preds, gt, threshold=2.0)) is None

    def test_orientation_error_wraps(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), math.pi - 0.05))]
        preds = [Pred3D(group="f0", class_id="car", score=0.9,
                        box=_b3((0, 0, 0), (4, 2, 2), -math.pi + 0.05))]
        out = tp_errors(match_3d(preds, gt, threshold=2.0))
        assert out is not None
        assert out[2] == pytest.approx(0.1, abs=1e-9)


class TestAp3d:
    def test_perfect(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        preds = [Pred3D(group="f0", class_id="car", score=0.9,
                        box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        assert evaluate_3d(preds, gt, EvalConfig3D())["car"]["ap"] == pytest.approx(1.0)

    def test_empty_predictions(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        assert evaluate_3d([], gt, EvalConfig3D())["car"]["ap"] == 0.0

    def test_matches_reference(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            gt = []
            preds = []
            for g in range(rng.integers(2, 7)):
                frame = f"f{rng.integers(0, 3)}"
                c = rng.uniform(-20, 20, size=2)
                box = _b3((c[0], c[1], GROUND_Z + 0.8), (4.5, 1.9, 1.6), float(rng.uniform(-3, 3)))
                gt.append(Gt3D(group=frame, class_id="car", box=box))
                if rng.random() < 0.75:
                    off = rng.uniform(-1.5, 1.5, size=2)
                    pb = _b3((c[0] + off[0], c[1] + off[1], GROUND_Z + 0.8), (4.5, 1.9, 1.6), box.theta)
                    preds.append(Pred3D(group=frame, class_id="car",
                                        score=float(rng.uniform(0.1, 1.0)), box=pb))
            for _ in range(rng.integers(0, 3)):
                frame = f"f{rng.integers(0, 3)}"
                c = rng.uniform(30, 60, size=2)
                preds.append(Pred3D(
                    group=frame, class_id="car", score=float(rng.uniform(0.1, 1.0)),
                    box=_b3((c[0], c[1], GROUND_Z + 0.8), (4.5, 1.9, 1.6), 0.0)))
            cfg = EvalConfig3D()
            got = {cls: row["ap"] for cls, row in evaluate_3d(preds, gt, cfg).items()}
            want = _oracle_ap3d_by_class(preds, gt, cfg)
            assert set(got) == set(want)
            for cls in got:
                assert got[cls] == pytest.approx(want[cls], abs=1e-9), f"trial {trial}"


class TestEvaluate3d:
    def test_summary_fields(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        preds = [Pred3D(group="f0", class_id="car", score=0.9,
                        box=_b3((0.5, 0, 0), (4, 2, 2), 0.1))]
        out = evaluate_3d(preds, gt, EvalConfig3D())
        row = out["car"]
        assert row["num_gt"] == 1
        assert row["num_pred"] == 1
        assert row["num_matched"] == 1
        assert row["ate"] == pytest.approx(0.5, abs=1e-12)
        assert row["aoe"] == pytest.approx(0.1, abs=1e-12)
        assert 0.0 < row["ap"] <= 1.0 + 1e-9

    def test_unmatched_class_has_none_errors(self):
        gt = [Gt3D(group="f0", class_id="car",
                   box=_b3((0, 0, 0), (4, 2, 2), 0.0))]
        out = evaluate_3d([], gt, EvalConfig3D())
        row = out["car"]
        assert row["ap"] == 0.0
        assert row["ate"] is None


class TestRegions:
    def test_visible_camera_count_on_rig(self):
        rig = make_rig(RigSpec())
        # Straight down +x at modest range: inside cam0 only.
        on_axis = SceneObject(
            uid=1, class_id="car",
            box=_b3((12.0, 0.0, GROUND_Z + 0.8), (4.5, 1.9, 1.6), 0.0))
        # On the cam0/cam1 boundary at 30 deg: seen by both.
        a = math.radians(30.0)
        both = SceneObject(
            uid=2, class_id="car",
            box=_b3((12.0 * math.cos(a), 12.0 * math.sin(a), GROUND_Z + 0.8),
                    (4.5, 1.9, 1.6), a))
        assert visible_camera_count(rig, on_axis.box) == 1
        assert visible_camera_count(rig, both.box) >= 2

    def test_overlap_region_filter(self):
        rig = make_rig(RigSpec())
        a = math.radians(30.0)
        objs = [
            SceneObject(uid=1, class_id="car",
                        box=_b3((12.0, 0.0, GROUND_Z + 0.8), (4.5, 1.9, 1.6), 0.0)),
            SceneObject(uid=2, class_id="car",
                        box=_b3((12.0 * math.cos(a), 12.0 * math.sin(a),
                                 GROUND_Z + 0.8),
                                (4.5, 1.9, 1.6), a)),
        ]
        kept = overlap_region_filter(rig, objs)
        assert [o.uid for o in kept] == [2]

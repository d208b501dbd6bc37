"""Acceptance suite: one test per shipped guarantee, each printing a PASS
line with the measured values when run with -s (pytest -v already emits one
pass/fail line per criterion)."""

import json
import math
import time

import numpy as np
import pytest

from sianms.cli import main as cli_main
from sianms.estimator import EstimatorConfig, estimate_box
from sianms.frustum import EmptyFrustum, Frustum, MergeRejected, filter_frustum, merge_frustums
from sianms.losses import (
    LossConfig,
    Proposal,
    batch_loss,
    cross_entropy,
    negative_pair_term,
    positive_pair_term,
    smooth_l1,
)
from sianms.matching import hungarian
from sianms.metrics import EvalConfig2D, EvalConfig3D, Gt2D, Gt3D, Pred2D, Pred3D, ap_2d, evaluate_3d, iou2d, match_3d, tp_errors
from sianms.pipeline import Variant
from sianms.scene import BBox2D, Box3D, box3d_to_bbox2d, wrap_angle
from sianms.synthgen import (
    CLASS_DIMS,
    GROUND_Z,
    overlap_wedges,
    sample_surface_points,
)

from _oracles import (
    ap2d_reference,
    ap3d_reference,
    brute_force_assignment,
    count_detectable,
    grad_check,
    inside_bbox_reference,
)

LOSS_CFG = LossConfig(alpha=0.5, beta=1.5)


def test_01_loss_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = {}

    # scalar smooth-L1, sampled away from the curvature jumps at |x| = delta
    w = 0.0
    n = 0
    while n < 100:
        x = float(rng.uniform(-3.0, 3.0))
        if abs(abs(x) - 1.0) < 1e-3:
            continue
        w = max(w, grad_check(lambda v: smooth_l1(float(v[0]))[0],
                              np.array([x]), np.array([smooth_l1(x)[1]])))
        n += 1
    worst["smooth_l1"] = w

    # cross-entropy over random logit vectors (smooth everywhere)
    w = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        logits = rng.uniform(-4.0, 4.0, k)
        true = int(rng.integers(0, k))
        _, grad = cross_entropy(logits, true)
        w = max(w, grad_check(lambda v: cross_entropy(v, true)[0], logits, grad))
    worst["cross_entropy"] = w

    # contrastive pair terms, joint gradient in (a, b), away from the
    # hinge kinks at alpha/beta and the norm kink at zero distance
    for name, term in (("positive", positive_pair_term),
                       ("negative", negative_pair_term)):
        w = 0.0
        n = 0
        while n < 100:
            dim = int(rng.integers(2, 5))
            a = rng.uniform(-1.0, 1.0, dim)
            b = rng.uniform(-1.0, 1.0, dim)
            d = float(np.linalg.norm(a - b))
            if d < 0.05 or abs(d - LOSS_CFG.alpha) < 2e-3 or abs(d - LOSS_CFG.beta) < 2e-3:
                continue
            _, ga, gb = term(a, b, LOSS_CFG)
            w = max(w, grad_check(
                lambda v, dim=dim, term=term: term(v[:dim], v[dim:], LOSS_CFG)[0],
                np.concatenate([a, b]), np.concatenate([ga, gb])))
            n += 1
        worst[name] = w

    # batch composition: two images, five foregrounds over two identities
    # plus one background; |negative pairs| <= |positive pairs| keeps the
    # hard-example selection away from reordering boundaries.
    n_res, n_log, n_emb = 4, 3, 4
    layout = [[(1, 0.9), (1, 0.9), (1, 0.9), (None, 0.3)],
              [(1, 0.9), (2, 0.9)]]
    n_params = sum(
        (n_res + n_emb if uid is not None else 0) + n_log
        for img in layout for uid, _ in img
    )

    def rebuild(params):
        images = []
        pos = 0
        for img in layout:
            props = []
            for uid, iou in img:
                res = emb = None
                if uid is not None:
                    res = params[pos:pos + n_res]
                    pos += n_res
                logits = params[pos:pos + n_log]
                pos += n_log
                if uid is not None:
                    emb = params[pos:pos + n_emb]
                    pos += n_emb
                props.append(Proposal(class_logits=logits, true_class=0,
                                      iou_with_gt=iou, box_residual=res,
                                      embedding=emb, truth_uid=uid))
            images.append(props)
        return images

    def flat_grads(params):
        _, grads = batch_loss(rebuild(params), LOSS_CFG)
        out = []
        for i, img in enumerate(layout):
            for j, (uid, _) in enumerate(img):
                if uid is not None:
                    out.append(grads.residuals[i][j])
                out.append(grads.logits[i][j])
                if uid is not None:
                    e = grads.embeddings[i][j]
                    out.append(e if e is not None else np.zeros(n_emb))
        return np.concatenate(out)

    def smooth_point(params):
        images = rebuild(params)
        embs = []
        for img in images:
            for p in img:
                if p.box_residual is not None and np.any(
                    np.abs(np.abs(np.asarray(p.box_residual)) - 1.0) < 2e-3
                ):
                    return False
                if p.embedding is not None:
                    embs.append(np.asarray(p.embedding))
        for ia in range(len(embs)):
            for ib in range(ia + 1, len(embs)):
                d = float(np.linalg.norm(embs[ia] - embs[ib]))
                if d < 0.05 or abs(d - LOSS_CFG.alpha) < 2e-3 or abs(d - LOSS_CFG.beta) < 2e-3:
                    return False
        return True

    w = 0.0
    n = 0
    while n < 100:
        params = rng.uniform(-0.9, 0.9, n_params)
        if not smooth_point(params):
            continue
        w = max(w, grad_check(
            lambda v: batch_loss(rebuild(v), LOSS_CFG)[0].total,
            params, flat_grads(params)))
        n += 1
    worst["batch"] = w

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"gradient suite took {elapsed:.2f}s"
    assert max(worst.values()) < 1e-5
    print(f"PASS: gradients at 100 points/primitive, worst rel err "
          f"{max(worst.values()):.2e}, {elapsed:.2f}s")


def test_02_assignment_matches_exhaustive_minimum():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(1000):
        if trial % 10 == 0:
            r = c = 7
        else:
            r = int(rng.integers(1, 8))
            c = int(rng.integers(1, 8))
        # quarter-integer costs are exact in binary, so the optimum's total
        # is comparable with == rather than a tolerance
        costs = rng.integers(0, 101, size=(r, c)).astype(float) * 0.25
        masked = None
        if trial % 3 == 0:
            masked = rng.random((r, c)) < 0.3
        pairs = hungarian(costs, masked)
        total = 0.0
        for i, j in pairs:
            total += costs[i, j]
        best_count, best_total = brute_force_assignment(costs, masked)
        assert len(pairs) == best_count, f"trial {trial}: pair count"
        assert total == best_total, f"trial {trial}: {total} != {best_total}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"assignment suite took {elapsed:.2f}s"
    print(f"PASS: 1000 assignments equal the exhaustive optimum exactly, "
          f"{elapsed:.2f}s")


def test_03_frustum_membership_matches_projection(bench_rig):
    rng = np.random.default_rng(303)
    pts = np.column_stack([
        rng.uniform(-40.0, 40.0, 10_000),
        rng.uniform(-40.0, 40.0, 10_000),
        rng.uniform(-3.0, 3.0, 10_000),
    ])
    mismatches = 0
    for _ in range(20):
        cam = bench_rig.cameras[int(rng.integers(0, len(bench_rig.cameras)))]
        x0 = float(rng.uniform(0.0, 700.0))
        y0 = float(rng.uniform(0.0, 400.0))
        bbox = BBox2D(x0, y0, x0 + float(rng.uniform(20.0, 100.0)),
                      y0 + float(rng.uniform(20.0, 100.0)))
        want = {tuple(row) for row in pts[inside_bbox_reference(cam, bbox, pts)]}
        try:
            got = {tuple(row) for row in filter_frustum(cam, bbox, pts).points}
        except EmptyFrustum:
            got = set()
        if got != want:
            mismatches += 1
    assert mismatches == 0
    print("PASS: frustum membership identical to the reference predicate "
          "on 10000 points x 20 bboxes")


def test_04_merge_set_identities():
    rng = np.random.default_rng(404)
    n_disjoint = 0
    for trial in range(500):
        az = float(rng.uniform(-math.pi, math.pi))
        pool = np.column_stack([
            10.0 * np.cos(az) + rng.uniform(-2.0, 2.0, 90),
            10.0 * np.sin(az) + rng.uniform(-2.0, 2.0, 90),
            rng.uniform(-2.0, 0.0, 90),
        ])
        n_a = int(rng.integers(5, 41))
        n_b = int(rng.integers(5, 41))
        extent_a = (wrap_angle(az - 0.3), wrap_angle(az + 0.25))
        extent_b = (wrap_angle(az - 0.25), wrap_angle(az + 0.3))
        if trial % 5 == 4:
            # disjoint rows must be rejected outright
            a = Frustum(points=pool[:n_a], extent=extent_a,
                        central_axis=wrap_angle(az - 0.02), sources=("cam0",))
            b = Frustum(points=pool[n_a:n_a + n_b], extent=extent_b,
                        central_axis=wrap_angle(az + 0.02), sources=("cam1",))
            with pytest.raises(MergeRejected):
                merge_frustums(a, b)
            n_disjoint += 1
            continue
        shared = int(rng.integers(1, min(n_a, n_b) + 1))
        rows_a = pool[:n_a]
        rows_b = pool[n_a - shared:n_a - shared + n_b]
        a = Frustum(points=rows_a, extent=extent_a,
                    central_axis=wrap_angle(az - 0.02), sources=("cam0",))
        b = Frustum(points=rows_b, extent=extent_b,
                    central_axis=wrap_angle(az + 0.02), sources=("cam1",))
        merged = merge_frustums(a, b)
        assert len(merged) == n_a + n_b - shared
        flipped = merge_frustums(b, a)
        assert len(flipped) == len(merged)
        key = lambda arr: sorted(map(tuple, arr))
        assert key(flipped.points) == key(merged.points)
        assert flipped.extent == merged.extent
        assert flipped.central_axis == merged.central_axis
    print(f"PASS: union size, commutativity and rejection hold over 500 "
          f"pairs ({n_disjoint} disjoint)")


def test_05_clean_benchmark_exact_recovery(bench_rig, clean_scene, clean_runs):
    sia = clean_runs[Variant.SIANMS]
    orig = clean_runs[Variant.ORIGINAL]

    reid = sia.report.reid
    assert reid["precision"] == 1.0
    assert reid["recall"] == 1.0

    for frame in clean_scene.frames:
        assert len(sia.boxes[frame.index]) == len(frame.objects), (
            f"frame {frame.index}: {len(sia.boxes[frame.index])} boxes "
            f"for {len(frame.objects)} objects"
        )
    total_gt = sum(len(f.objects) for f in clean_scene.frames)
    total_sia = sum(len(b) for b in sia.boxes.values())
    assert total_sia == total_gt

    oracle = sum(
        count_detectable(bench_rig, f.objects, f.cloud, 5)
        for f in clean_scene.frames
    )
    total_orig = sum(len(b) for b in orig.boxes.values())
    assert total_orig == oracle
    print(f"PASS: clean benchmark P=R=1.0, {total_sia} boxes for {total_gt} "
          f"objects, original {total_orig} == visibility oracle {oracle}")


def _car_ap(report, region):
    return report.metrics_3d[region]["per_class"]["car"]["ap"]


def test_06_noisy_benchmark_overlap_car_ap_gain(noisy_comparison):
    comparison, elapsed = noisy_comparison
    assert elapsed < 60.0, f"comparison took {elapsed:.1f}s"
    reports = comparison.reports
    sia = reports[Variant.SIANMS.value]
    nms = reports[Variant.ORIGINAL_NMS.value]
    gain = _car_ap(sia, "overlap") - _car_ap(nms, "overlap")
    assert gain >= 0.05, f"overlap car AP gain {gain:.4f}"
    for region in ("all", "overlap"):
        for name, report in reports.items():
            assert _car_ap(sia, region) >= _car_ap(report, region) - 1e-12, (
                f"{region}: sianms {_car_ap(sia, region):.4f} < "
                f"{name} {_car_ap(report, region):.4f}"
            )
    print(f"PASS: overlap car AP gain +{gain * 100:.1f} pts over per-camera "
          f"NMS, best in both regions, {elapsed:.1f}s")


def test_07_noisy_benchmark_error_metrics(noisy_comparison):
    comparison, _ = noisy_comparison
    reports = comparison.reports
    sia = reports[Variant.SIANMS.value]
    rows = {
        name: reports[name].metrics_3d["overlap"]["per_class"]["car"]
        for name in (Variant.ORIGINAL.value, Variant.ORIGINAL_NMS.value)
    }
    sia_row = sia.metrics_3d["overlap"]["per_class"]["car"]
    for name, row in rows.items():
        assert sia_row["ate"] <= row["ate"], f"ATE vs {name}"
        assert sia_row["aoe"] <= row["aoe"], f"AOE vs {name}"
    worst_ate = max(row["ate"] for row in rows.values())
    worst_aoe = max(row["aoe"] for row in rows.values())
    print(f"PASS: overlap car ATE {sia_row['ate']:.3f} <= {worst_ate:.3f}, "
          f"AOE {sia_row['aoe']:.3f} <= {worst_aoe:.3f}")


def test_08_average_precision_oracles_and_hand_values():
    rng = np.random.default_rng(808)

    worst_2d = 0.0
    for _ in range(200):
        gts, preds = [], []
        for _g in range(int(rng.integers(2, 6))):
            frame = f"f{rng.integers(0, 3)}"
            x = float(rng.uniform(0.0, 200.0))
            y = float(rng.uniform(0.0, 100.0))
            w = float(rng.uniform(8.0, 40.0))
            h = float(rng.uniform(26.0, 60.0))
            bbox = BBox2D(x, y, x + w, y + h)
            gts.append(Gt2D(group=frame, class_id="car", bbox=bbox,
                            height_px=bbox.height, truncation=0.0))
            if rng.random() < 0.8:
                dx, dy = rng.uniform(-4.0, 4.0, size=2)
                preds.append(Pred2D(group=frame, class_id="car",
                                    bbox=BBox2D(x + dx, y + dy, x + w + dx, y + h + dy),
                                    score=float(rng.uniform(0.1, 1.0))))
        for _f in range(int(rng.integers(0, 3))):
            frame = f"f{rng.integers(0, 3)}"
            x = float(rng.uniform(300.0, 400.0))
            preds.append(Pred2D(group=frame, class_id="car",
                                bbox=BBox2D(x, 0.0, x + 20.0, 40.0),
                                score=float(rng.uniform(0.1, 1.0))))
        cfg = EvalConfig2D()
        got = ap_2d(preds, gts, cfg)["car"]
        want = ap2d_reference(preds, gts, cfg.iou_threshold)
        worst_2d = max(worst_2d, abs(got - want))
    assert worst_2d <= 1.0 / 40.0

    worst_3d = 0.0
    for _ in range(200):
        gts, preds = [], []
        for _g in range(int(rng.integers(2, 7))):
            frame = f"f{rng.integers(0, 3)}"
            cx, cy = rng.uniform(-20.0, 20.0, size=2)
            theta = float(rng.uniform(-3.0, 3.0))
            box = Box3D(x=cx, y=cy, z=GROUND_Z + 0.8, l=4.5, w=1.9, h=1.6,
                        theta=theta)
            gts.append(Gt3D(group=frame, class_id="car", box=box))
            if rng.random() < 0.75:
                ox, oy = rng.uniform(-1.5, 1.5, size=2)
                pb = Box3D(x=cx + ox, y=cy + oy, z=GROUND_Z + 0.8,
                           l=4.5, w=1.9, h=1.6, theta=theta)
                preds.append(Pred3D(group=frame, class_id="car",
                                    score=float(rng.uniform(0.1, 1.0)), box=pb))
        for _f in range(int(rng.integers(0, 3))):
            frame = f"f{rng.integers(0, 3)}"
            fx, fy = rng.uniform(30.0, 60.0, size=2)
            preds.append(Pred3D(
                group=frame, class_id="car", score=float(rng.uniform(0.1, 1.0)),
                box=Box3D(x=fx, y=fy, z=GROUND_Z + 0.8, l=4.5, w=1.9, h=1.6,
                          theta=0.0)))
        cfg = EvalConfig3D()
        got = evaluate_3d(preds, gts, cfg)["car"]["ap"]
        want = ap3d_reference(preds, gts, cfg.center_distance_thresholds)
        worst_3d = max(worst_3d, abs(got - want))
    assert worst_3d <= 1e-9

    # hand-checkable values
    third = iou2d(BBox2D(0.0, 0.0, 1.0, 1.0), BBox2D(0.5, 0.0, 1.5, 1.0))
    assert abs(third - 1.0 / 3.0) <= 1e-12
    gt = [Gt3D(group="f0", class_id="car",
               box=Box3D(x=0.0, y=0.0, z=0.0, l=4.0, w=2.0, h=2.0, theta=0.0))]
    pred = [Pred3D(group="f0", class_id="car", score=0.9,
                   box=Box3D(x=0.0, y=0.0, z=0.0, l=2.0, w=2.0, h=2.0,
                             theta=math.pi / 4.0))]
    ate, ase, aoe = tp_errors(match_3d(pred, gt, threshold=2.0))
    assert abs(ase - 0.5) <= 1e-12
    assert abs(aoe - math.pi / 4.0) <= 1e-12
    assert ate == 0.0
    print(f"PASS: ap_2d within {worst_2d:.2e} of oracle, 3D AP within "
          f"{worst_3d:.2e}, hand values exact")


def test_09_compare_cli_byte_identical(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "rig": {},
        "gen": {"seed": 5, "n_frames": 6, "objects_per_frame": [4, 7],
                "embed_noise": 0.05, "bbox_jitter_px": 2.0,
                "clutter_points": 120},
    }))
    scene_dir = tmp_path / "scene"
    assert cli_main(["generate", "--spec", str(spec), "--out",
                     str(scene_dir)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "gen": {"seed": 5, "n_frames": 6, "objects_per_frame": [4, 7],
                "embed_noise": 0.05, "bbox_jitter_px": 2.0,
                "clutter_points": 120},
    }))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(["compare", "--scene", str(scene_dir / "scene.json"),
                         "--config", str(cfg), "--out", str(out)])
        assert code == 0
    json_a = (out_a / "compare.json").read_bytes()
    json_b = (out_b / "compare.json").read_bytes()
    csv_a = (out_a / "compare.csv").read_bytes()
    csv_b = (out_b / "compare.csv").read_bytes()
    assert json_a == json_b
    assert csv_a == csv_b
    print(f"PASS: compare reruns byte-identical ({len(json_a)} JSON bytes, "
          f"{len(csv_a)} CSV bytes)")


def test_10_merged_beats_truncated_center_error(bench_rig):
    wedges = overlap_wedges(bench_rig)
    cfg = EstimatorConfig()
    rng = np.random.default_rng(4242)
    l, w, h = CLASS_DIMS["car"]
    wins = ties = losses = 0
    pairs = 200
    for i in range(pairs):
        # broadside cars centered in an overlap wedge at close range, so
        # both cameras crop an appreciable slice of the surface
        start, width = wedges[i % len(wedges)]
        az = wrap_angle(start + width * (0.45 + 0.10 * rng.random()))
        r = rng.uniform(8.0, 12.0)
        yaw = wrap_angle(az + math.pi / 2.0 + rng.uniform(-0.5, 0.5))
        box = Box3D(x=r * math.cos(az), y=r * math.sin(az),
                    z=GROUND_Z + h / 2.0, l=l, w=w, h=h, theta=yaw)
        pts = sample_surface_points(box, 200, rng)
        views = []
        for cam in bench_rig.cameras:
            bbox = box3d_to_bbox2d(cam, box)
            if bbox is None:
                continue
            try:
                views.append(filter_frustum(cam, bbox, pts))
            except EmptyFrustum:
                continue
        assert len(views) == 2, f"pair {i}: {len(views)} cameras"
        fa, fb = views
        merged = merge_frustums(fa, fb)
        err_merged = float(np.linalg.norm(
            estimate_box(merged, "car", cfg).center - box.center))
        err_trunc = min(
            float(np.linalg.norm(estimate_box(fa, "car", cfg).center - box.center)),
            float(np.linalg.norm(estimate_box(fb, "car", cfg).center - box.center)),
        )
        if err_merged < err_trunc:
            wins += 1
        elif err_merged == err_trunc:
            ties += 1
        else:
            losses += 1
    assert wins >= 0.9 * pairs, f"{wins} wins, {ties} ties, {losses} losses"
    print(f"PASS: merged frustum closer on {wins}/{pairs} pairs "
          f"({ties} ties, {losses} losses)")

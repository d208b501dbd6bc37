"""Synthetic rig, scene, and detection generation."""

import math

import numpy as np
import pytest

from sianms.scene import Box3D, box3d_to_bbox2d, wrap_angle
from sianms.synthgen import (
    CLASS_DIMS,
    GROUND_Z,
    GenSpec,
    NoOverlap,
    RigSpec,
    benchmark_gen_spec,
    embedding_provider,
    generate_frame,
    make_rig,
    overlap_wedges,
    sample_surface_points,
    simulate_detections,
)


class TestMakeRig:
    def test_benchmark_layout(self):
        rig = make_rig(RigSpec())
        assert [c.id for c in rig.cameras] == [f"cam{i}" for i in range(6)]
        cam0 = rig.cameras[0]
        assert cam0.fx == pytest.approx(400.0 / math.tan(math.radians(35.0)))
        assert cam0.hfov == pytest.approx(math.radians(70.0))
        for i, cam in enumerate(rig.cameras):
            assert cam.yaw == pytest.approx(wrap_angle(math.radians(60.0 * i)), abs=1e-12)

    def test_ring_adjacency(self):
        rig = make_rig(RigSpec())
        assert ("cam5", "cam0") in rig.adjacency or ("cam0", "cam5") in rig.adjacency
        assert len(rig.unordered_adjacent_pairs()) == 6

    def test_no_overlap_rejected(self):
        with pytest.raises(NoOverlap):
            make_rig(RigSpec(hfov_deg=60.0, yaw_spacing_deg=60.0))

    def test_custom_counts(self):
        rig = make_rig(RigSpec(n_cameras=4, yaw_spacing_deg=90.0, hfov_deg=100.0))
        assert len(rig.cameras) == 4
        assert len(rig.unordered_adjacent_pairs()) == 4


class TestOverlapWedges:
    def test_six_ten_degree_wedges(self):
        rig = make_rig(RigSpec())
        wedges = overlap_wedges(rig)
        assert len(wedges) == 6
        for _, width in wedges:
            assert width == pytest.approx(math.radians(10.0), abs=1e-9)

    def test_wedges_centered_between_cameras(self):
        rig = make_rig(RigSpec())
        centers = sorted(
            wrap_angle(start + width / 2.0) for start, width in overlap_wedges(rig)
        )
        want = sorted(wrap_angle(math.radians(30.0 + 60.0 * i)) for i in range(6))
        np.testing.assert_allclose(centers, want, atol=1e-9)


class TestSampleSurfacePoints:
    def test_points_on_surface(self):
        rng = np.random.default_rng(3)
        box = Box3D(x=10.0, y=2.0, z=GROUND_Z + 0.8, l=4.5, w=1.9, h=1.6, theta=0.7)
        pts = sample_surface_points(box, 400, rng)
        assert pts.shape == (400, 3)
        c, s = math.cos(box.theta), math.sin(box.theta)
        local = (pts - [box.x, box.y, box.z]) @ np.array(
            [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
        )
        half = np.array([box.l, box.w, box.h]) / 2.0
        assert np.all(np.abs(local) <= half + 1e-9)
        # Every sample sits on at least one face plane.
        on_face = np.any(np.abs(np.abs(local) - half) < 1e-9, axis=1)
        assert np.all(on_face)

    def test_only_origin_facing_faces(self):
        rng = np.random.default_rng(4)
        # Box straight down +x with theta=0: the far face at x = box.x + l/2
        # points away from the origin and must receive no samples.
        box = Box3D(x=15.0, y=0.0, z=GROUND_Z + 0.8, l=4.0, w=2.0, h=1.6, theta=0.0)
        pts = sample_surface_points(box, 500, rng)
        assert np.max(pts[:, 0]) < box.x + box.l / 2.0 - 1e-9

    def test_empty_request(self):
        rng = np.random.default_rng(5)
        box = Box3D(x=10.0, y=0.0, z=0.0, l=4.0, w=2.0, h=1.6, theta=0.0)
        assert sample_surface_points(box, 0, rng).shape == (0, 3)


class TestGenerateFrame:
    def test_deterministic(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=9, n_frames=2)
        a_objs, a_cloud = generate_frame(rig, spec, 1)
        b_objs, b_cloud = generate_frame(rig, spec, 1)
        assert [o.uid for o in a_objs] == [o.uid for o in b_objs]
        for oa, ob in zip(a_objs, b_objs):
            np.testing.assert_allclose(oa.box.center, ob.box.center)
            assert oa.box.theta == ob.box.theta
        np.testing.assert_allclose(a_cloud, b_cloud)

    def test_frames_differ(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=9, n_frames=2)
        a_objs, _ = generate_frame(rig, spec, 0)
        b_objs, _ = generate_frame(rig, spec, 1)
        assert {o.uid for o in a_objs}.isdisjoint({o.uid for o in b_objs})

    def test_object_properties(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=11, n_frames=1, objects_per_frame=(6, 10))
        objs, cloud = generate_frame(rig, spec, 0)
        assert 6 <= len(objs) <= 10
        assert len({o.uid for o in objs}) == len(objs)
        for obj in objs:
            r = math.hypot(obj.box.x, obj.box.y)
            assert spec.radius_range[0] - 1e-9 <= r <= spec.radius_range[1] + 1e-9
            dims = CLASS_DIMS[obj.class_id]
            assert (obj.box.l, obj.box.w, obj.box.h) == dims
            assert obj.box.z == pytest.approx(GROUND_Z + dims[2] / 2.0)
            az = math.atan2(obj.box.y, obj.box.x)
            assert abs(wrap_angle(obj.box.theta - az)) <= 1.4 + 1e-9
        assert cloud.shape[1] == 3

    def test_minimum_center_spacing(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=13, n_frames=1, objects_per_frame=(8, 10))
        objs, _ = generate_frame(rig, spec, 0)
        centers = np.array([[o.box.x, o.box.y] for o in objs])
        for i in range(len(objs)):
            for j in range(i + 1, len(objs)):
                assert np.linalg.norm(centers[i] - centers[j]) >= 2.0 - 1e-9

    def test_overlap_fraction_places_objects_in_wedges(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=17, n_frames=1, objects_per_frame=(10, 10),
                       overlap_fraction=1.0)
        objs, _ = generate_frame(rig, spec, 0)
        wedges = overlap_wedges(rig)
        for obj in objs:
            az = math.atan2(obj.box.y, obj.box.x)
            inside = any(
                0.0 <= (az - start) % (2.0 * math.pi) <= width
                for start, width in wedges
            )
            assert inside

    def test_clutter_near_ground(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=19, n_frames=1, objects_per_frame=(6, 6),
                       lidar_points_range=(0, 1), clutter_points=200)
        _, cloud = generate_frame(rig, spec, 0)
        ground = cloud[np.abs(cloud[:, 2] - GROUND_Z) < 1e-9]
        assert len(ground) >= 200

    def test_uid_encodes_frame(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=9, n_frames=4)
        objs, _ = generate_frame(rig, spec, 3)
        for obj in objs:
            assert obj.uid // 10000 == 3


class TestEmbeddingProvider:
    def test_stable_per_uid(self):
        spec = GenSpec(seed=0, embed_dim=16)
        a = embedding_provider(7, spec)
        b = embedding_provider(7, spec)
        np.testing.assert_allclose(a, b)
        assert a.shape == (16,)

    def test_distinct_uids_far_apart(self):
        spec = GenSpec(seed=0, embed_dim=16)
        rng = np.random.default_rng(0)
        uids = rng.integers(0, 10_000_000, size=40)
        anchors = np.array([embedding_provider(int(u), spec) for u in uids])
        d = np.linalg.norm(anchors[:, None, :] - anchors[None, :, :], axis=-1)
        off_diag = d[~np.eye(len(uids), dtype=bool)]
        assert off_diag.min() > 2.0

    def test_noise_requires_rng(self):
        spec = GenSpec(seed=0, embed_dim=16, embed_noise=0.1)
        with pytest.raises(ValueError):
            embedding_provider(7, spec)
        rng = np.random.default_rng(1)
        noisy = embedding_provider(7, spec, rng)
        clean = embedding_provider(7, GenSpec(seed=0, embed_dim=16))
        delta = np.linalg.norm(noisy - clean)
        assert 0.0 < delta < 1.0


class TestSimulateDetections:
    def test_noise_free_matches_projection(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=21, n_frames=1)
        objs, _ = generate_frame(rig, spec, 0)
        dets = simulate_detections(rig, objs, spec, 0)
        assert dets
        by_key = {}
        for det in dets:
            assert det.truth_uid is not None
            by_key[(det.camera_id, det.truth_uid)] = det
        for obj in objs:
            for cam in rig.cameras:
                bbox = box3d_to_bbox2d(cam, obj.box)
                det = by_key.get((cam.id, obj.uid))
                if bbox is None:
                    assert det is None
                    continue
                assert det is not None
                np.testing.assert_allclose(
                    [det.bbox.x_min, det.bbox.y_min, det.bbox.x_max, det.bbox.y_max],
                    [bbox.x_min, bbox.y_min, bbox.x_max, bbox.y_max],
                )
                assert det.class_id == obj.class_id
                assert 0.5 <= det.score <= 1.0
                assert det.embedding is not None

    def test_miss_rate_one_drops_everything(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=21, n_frames=1, miss_rate=1.0)
        objs, _ = generate_frame(rig, spec, 0)
        assert simulate_detections(rig, objs, spec, 0) == []

    def test_jitter_stays_in_image(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=23, n_frames=1, bbox_jitter_px=25.0)
        objs, _ = generate_frame(rig, spec, 0)
        dets = simulate_detections(rig, objs, spec, 0)
        for det in dets:
            cam = rig.camera(det.camera_id)
            assert 0.0 <= det.bbox.x_min < det.bbox.x_max <= cam.width
            assert 0.0 <= det.bbox.y_min < det.bbox.y_max <= cam.height

    def test_deterministic(self):
        rig = make_rig(RigSpec())
        spec = GenSpec(seed=29, n_frames=1, bbox_jitter_px=2.0, embed_noise=0.05)
        objs, _ = generate_frame(rig, spec, 0)
        d1 = simulate_detections(rig, objs, spec, 0)
        d2 = simulate_detections(rig, objs, spec, 0)
        assert len(d1) == len(d2)
        for a, b in zip(d1, d2):
            assert a.camera_id == b.camera_id
            assert a.score == b.score
            np.testing.assert_allclose(
                [a.bbox.x_min, a.bbox.y_min, a.bbox.x_max, a.bbox.y_max],
                [b.bbox.x_min, b.bbox.y_min, b.bbox.x_max, b.bbox.y_max],
            )
            np.testing.assert_allclose(a.embedding, b.embedding)


class TestBenchmarkGenSpec:
    def test_clean_profile(self):
        spec = benchmark_gen_spec(seed=42, noisy=False)
        assert spec.seed == 42
        assert spec.n_frames == 50
        assert spec.embed_noise == 0.0
        assert spec.bbox_jitter_px == 0.0

    def test_noisy_profile(self):
        spec = benchmark_gen_spec(seed=42, noisy=True)
        assert spec.embed_noise == pytest.approx(0.05)
        assert spec.bbox_jitter_px == pytest.approx(2.0)


class TestGenSpecValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            GenSpec(overlap_fraction=1.5)
        with pytest.raises(ValueError):
            GenSpec(miss_rate=-0.1)
        with pytest.raises(ValueError):
            GenSpec(embed_noise=-0.01)
        with pytest.raises(ValueError):
            GenSpec(embed_dim=0)
        with pytest.raises(ValueError):
            GenSpec(class_mix={"car": 0.0})
        with pytest.raises(ValueError):
            GenSpec(class_mix={"boat": 1.0})

    @pytest.mark.parametrize(
        "weight", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_class_weights(self, weight):
        with pytest.raises(ValueError, match="finite"):
            GenSpec(class_mix={"car": 1.0, "pedestrian": weight})

    def test_class_weights_whose_sum_overflows(self):
        with pytest.raises(ValueError):
            GenSpec(class_mix={"car": 1e308, "pedestrian": 1e308})

    @pytest.mark.parametrize("name", ["objects_per_frame", "radius_range", "lidar_points_range"])
    @pytest.mark.parametrize("pair", [(1,), (1, 2, 3), (), 5, (1, "2"), (True, 2), (None, 1.0)])
    def test_ranges_must_be_pairs_of_numbers(self, name, pair):
        with pytest.raises(ValueError, match=name):
            GenSpec(**{name: pair})

    @pytest.mark.parametrize("name", ["objects_per_frame", "radius_range", "lidar_points_range"])
    @pytest.mark.parametrize("pair", [(3, 2), (8.0, math.nextafter(8.0, 0.0)), (math.nan, 1.0),
                                      (1.0, math.nan)], ids=["by-one", "by-one-ulp", "nan-low", "nan-high"])
    def test_ranges_must_be_ordered(self, name, pair):
        with pytest.raises(ValueError, match=f"{name} must have low <= high"):
            GenSpec(**{name: pair})

    def test_ranges_take_any_two_numbers(self):
        spec = GenSpec(objects_per_frame=[2, 2], radius_range=(8, 30.5), lidar_points_range=(60, 120))
        assert spec.objects_per_frame == [2, 2] and spec.radius_range == (8, 30.5)

    def test_bad_rig(self):
        with pytest.raises(ValueError):
            RigSpec(n_cameras=0)
        with pytest.raises(ValueError):
            RigSpec(hfov_deg=180.0)

"""Geometry core: angles, quaternions, poses, projection, bbox handling."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from sianms.scene import (
    BBox2D,
    Box3D,
    CameraModel,
    CameraRig,
    Pose,
    angular_extent,
    as_point_cloud,
    box3d_to_bbox2d,
    extent_midpoint,
    extent_width,
    matrix_to_quat,
    project_points,
    quat_to_matrix,
    wrap_angle,
)

from _oracles import box_corners_reference, project_reference


def random_pose(rng) -> Pose:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return Pose(q=tuple(q), t=tuple(rng.uniform(-2.0, 2.0, 3)))


def random_camera(rng, cam_id="cam") -> CameraModel:
    return CameraModel(
        id=cam_id,
        fx=float(rng.uniform(200.0, 800.0)),
        fy=float(rng.uniform(200.0, 800.0)),
        cx=float(rng.uniform(300.0, 500.0)),
        cy=float(rng.uniform(200.0, 300.0)),
        width=800.0,
        height=500.0,
        pose=random_pose(rng),
    )


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.0) == 0.0

    def test_matches_atan2_identity(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-50.0, 50.0, 500)
        expected = np.arctan2(np.sin(theta), np.cos(theta))
        np.testing.assert_allclose(wrap_angle(theta), expected, atol=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(wrap_angle(1.0), float)
        assert isinstance(wrap_angle(np.zeros(3)), np.ndarray)


class TestQuaternions:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            if q[0] < 0:
                q = -q
            np.testing.assert_allclose(
                matrix_to_quat(quat_to_matrix(q)), q, atol=1e-12
            )

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            expected = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
            np.testing.assert_allclose(quat_to_matrix(q), expected, atol=1e-12)

    def test_matrix_to_quat_canonical_sign(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rot = Rotation.random(rng=rng).as_matrix()
            q = matrix_to_quat(rot)
            assert q[0] >= 0.0
            assert math.isclose(sum(c * c for c in q), 1.0, abs_tol=1e-12)


class TestPose:
    def test_default_is_identity(self):
        pose = Pose()
        np.testing.assert_allclose(pose.rotation, np.eye(3))
        np.testing.assert_allclose(pose.translation, np.zeros(3))

    def test_rejects_unnormalized_quaternion(self):
        with pytest.raises(ValueError):
            Pose(q=(1.0, 1.0, 0.0, 0.0))

    def test_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            Pose(q=(1.0, 0.0, 0.0), t=(0.0, 0.0, 0.0))


class TestCameraModel:
    def test_hfov_round_trip(self):
        width = 640.0
        hfov = math.radians(90.0)
        fx = (width / 2.0) / math.tan(hfov / 2.0)
        cam = CameraModel(id="c", fx=fx, fy=fx, cx=320.0, cy=240.0, width=width, height=480.0)
        assert cam.hfov == pytest.approx(hfov)

    def test_yaw_of_rotated_camera(self):
        # optical axis along vehicle +y: x_cam -> +x, y_cam -> -z, z_cam -> +y
        rot = np.column_stack([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        cam = CameraModel(
            id="c", fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=10.0, height=10.0,
            pose=Pose(q=matrix_to_quat(rot)),
        )
        assert cam.yaw == pytest.approx(math.pi / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CameraModel(id="c", fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=1.0, height=1.0)
        with pytest.raises(ValueError):
            CameraModel(id="c", fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=0.0, height=1.0)


class TestBBox2D:
    def test_measures(self):
        bbox = BBox2D(10.0, 20.0, 40.0, 80.0)
        assert bbox.width == 30.0
        assert bbox.height == 60.0
        assert bbox.area == 1800.0

    def test_rejects_inverted_edges(self):
        with pytest.raises(ValueError):
            BBox2D(5.0, 0.0, 4.0, 1.0)


class TestBox3D:
    def test_theta_normalized_on_construction(self):
        box = Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, theta=3.0 * math.pi)
        assert box.theta == pytest.approx(math.pi)

    def test_corners_match_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            box = Box3D(
                x=float(rng.uniform(-10, 10)),
                y=float(rng.uniform(-10, 10)),
                z=float(rng.uniform(-2, 2)),
                l=float(rng.uniform(0.5, 5.0)),
                w=float(rng.uniform(0.5, 3.0)),
                h=float(rng.uniform(0.5, 3.0)),
                theta=float(rng.uniform(-math.pi, math.pi)),
            )
            got = np.array(sorted(map(tuple, box.corners())))
            expected = np.array(sorted(map(tuple, box_corners_reference(box))))
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_corner_centroid_is_center(self):
        box = Box3D(3.0, -2.0, 1.0, 4.0, 2.0, 1.5, theta=0.7)
        np.testing.assert_allclose(box.corners().mean(axis=0), box.center, atol=1e-12)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1.0, 1.0, 0.0)


class TestProjection:
    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(23)
        cam = random_camera(rng)
        points = rng.uniform(-10.0, 10.0, (200, 3))
        uv, _, valid = project_points(cam, points)
        u_ref, v_ref, valid_ref = project_reference(cam, points)
        np.testing.assert_array_equal(valid, valid_ref)
        np.testing.assert_allclose(uv[valid, 0], u_ref[valid], atol=1e-9)
        np.testing.assert_allclose(uv[valid, 1], v_ref[valid], atol=1e-9)
        assert (~valid).any()
        assert np.isnan(uv[~valid]).all()


class TestBox3dToBbox2d:
    def setup_method(self):
        # camera at origin looking along +x (vehicle forward)
        rot = np.column_stack([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        self.cam = CameraModel(
            id="front", fx=400.0, fy=400.0, cx=400.0, cy=250.0,
            width=800.0, height=500.0, pose=Pose(q=matrix_to_quat(rot)),
        )

    def test_centered_box_projects_symmetric(self):
        box = Box3D(10.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)
        bbox = box3d_to_bbox2d(self.cam, box)
        assert bbox.x_min + bbox.x_max == pytest.approx(2.0 * self.cam.cx)
        assert bbox.y_min + bbox.y_max == pytest.approx(2.0 * self.cam.cy)
        # near face at x=9 bounds the projection: half width 400 * 1/9
        assert bbox.x_max - self.cam.cx == pytest.approx(400.0 / 9.0)

    def test_clip_is_contained_in_unclipped(self):
        box = Box3D(6.0, 5.5, 0.0, 4.0, 2.0, 1.5, 0.3)
        clipped = box3d_to_bbox2d(self.cam, box, clip=True)
        raw = box3d_to_bbox2d(self.cam, box, clip=False)
        assert clipped.x_min >= 0.0 and clipped.x_max <= self.cam.width
        assert raw.x_min <= clipped.x_min and raw.x_max >= clipped.x_max

    def test_behind_camera_is_none(self):
        assert box3d_to_bbox2d(self.cam, Box3D(-10.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)) is None

    def test_fully_off_image_is_none(self):
        assert box3d_to_bbox2d(self.cam, Box3D(1.0, 30.0, 0.0, 1.0, 1.0, 1.0, 0.0)) is None


class TestAngularExtent:
    def setup_method(self):
        rot = np.column_stack([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        self.cam = CameraModel(
            id="front", fx=400.0, fy=400.0, cx=400.0, cy=250.0,
            width=800.0, height=500.0, pose=Pose(q=matrix_to_quat(rot)),
        )

    def test_full_image_extent_is_hfov(self):
        bbox = BBox2D(0.0, 0.0, 800.0, 500.0)
        extent = angular_extent(self.cam, bbox)
        assert extent_width(extent) == pytest.approx(self.cam.hfov)
        assert extent_midpoint(extent) == pytest.approx(0.0, abs=1e-12)

    def test_image_right_is_negative_azimuth(self):
        bbox = BBox2D(600.0, 200.0, 800.0, 300.0)  # right part of the image
        extent = angular_extent(self.cam, bbox)
        assert extent[0] < extent[1] <= 0.0

    def test_width_and_midpoint_wrap(self):
        extent = (math.pi - 0.1, -math.pi + 0.1)
        assert extent_width(extent) == pytest.approx(0.2)
        assert extent_midpoint(extent) == pytest.approx(math.pi)


class TestCameraRig:
    def test_duplicate_ids_rejected(self):
        cam = CameraModel(id="a", fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1.0, height=1.0)
        with pytest.raises(ValueError):
            CameraRig(cameras=(cam, cam))

    def test_adjacency_validation(self):
        cams = tuple(
            CameraModel(id=f"c{i}", fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1.0, height=1.0)
            for i in range(2)
        )
        with pytest.raises(ValueError):
            CameraRig(cameras=cams, adjacency=(("c0", "c0"),))
        with pytest.raises(ValueError):
            CameraRig(cameras=cams, adjacency=(("c0", "nope"),))

    def test_unordered_pairs_dedup(self):
        cams = tuple(
            CameraModel(id=f"c{i}", fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1.0, height=1.0)
            for i in range(3)
        )
        rig = CameraRig(cameras=cams, adjacency=(("c0", "c1"), ("c1", "c0"), ("c1", "c2")))
        assert rig.unordered_adjacent_pairs() == [("c0", "c1"), ("c1", "c2")]

    def test_camera_lookup(self, bench_rig):
        assert bench_rig.camera("cam3").id == "cam3"


class TestAsPointCloud:
    def test_empty_and_shape(self):
        assert as_point_cloud([]).shape == (0, 3)
        cloud = as_point_cloud([[1.0, 2.0, 3.0]])
        assert cloud.shape == (1, 3)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            as_point_cloud([[1.0, 2.0]])
        with pytest.raises(ValueError):
            as_point_cloud([[np.nan, 0.0, 0.0]])

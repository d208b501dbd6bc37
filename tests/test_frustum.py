"""Frustum point selection, angular extents and coherence-gated merging."""

import math

import numpy as np
import pytest

from sianms.frustum import (
    DegenerateExtent,
    EmptyFrustum,
    Frustum,
    MergeRejected,
    camera_view,
    filter_frustum,
    merge_frustums,
)
from sianms.scene import BBox2D, Detection2D, wrap_angle

from _oracles import inside_bbox_reference


@pytest.fixture()
def front_cam(bench_rig):
    return bench_rig.camera("cam0")


def _detection(cam_id="cam0"):
    return Detection2D(
        camera_id=cam_id, bbox=BBox2D(0, 0, 1, 1), class_id="car", score=0.5
    )


class TestFrustumType:
    def test_at_most_two_sources(self):
        dets = tuple(_detection() for _ in range(3))
        with pytest.raises(ValueError):
            Frustum(points=np.zeros((1, 3)), extent=(0.0, 0.1), central_axis=0.05, sources=dets)

    def test_central_axis_normalized(self):
        with pytest.raises(ValueError):
            Frustum(points=np.zeros((1, 3)), extent=(0.0, 0.1), central_axis=4.0)

    def test_len_counts_points(self):
        fr = Frustum(points=np.zeros((5, 3)), extent=(0.0, 0.1), central_axis=0.05)
        assert len(fr) == 5


class TestFilterFrustum:
    def test_view_keeps_each_filter(self, front_cam):
        """A view answers a repeated camera, bbox and source with the same
        Frustum, or a new EmptyFrustum with the same text; any other input,
        or a raw cloud, is filtered afresh."""
        cloud = np.random.default_rng(60).uniform(-30.0, 30.0, (2000, 3))
        view = camera_view(front_cam, cloud)
        w, h = front_cam.width, front_cam.height
        bbox, det = BBox2D(0.3 * w, 0.3 * h, 0.7 * w, 0.7 * h), _detection()
        kept = filter_frustum(front_cam, bbox, view, source=det)
        assert filter_frustum(front_cam, bbox, view, source=det) is kept
        assert filter_frustum(front_cam, BBox2D(0.3 * w, 0.3 * h, 0.7 * w, 0.7 * h), view, source=det) is kept
        others = [
            filter_frustum(front_cam, bbox, view, source=_detection()),
            filter_frustum(front_cam, bbox, view),
            filter_frustum(front_cam, bbox, cloud, source=det),
        ]
        assert all(o is not kept and o.points.tolist() == kept.points.tolist() for o in others)
        assert [o.sources for o in others] != [kept.sources] * 3
        assert len(filter_frustum(front_cam, BBox2D(0.0, 0.0, w, h), view, source=det)) > len(kept)
        assert not kept.points.flags.writeable
        empties = []
        for _ in range(2):
            with pytest.raises(EmptyFrustum) as empty:
                filter_frustum(front_cam, BBox2D(0.0, 0.0, 0.0, 0.0), view, source=det)
            empties.append(empty.value)
        assert empties[0] is not empties[1] and str(empties[0]) == str(empties[1])

    def test_matches_reference_predicate(self, front_cam):
        rng = np.random.default_rng(60)
        cloud = rng.uniform(-30.0, 30.0, (2000, 3))
        for _ in range(10):
            x0, y0 = rng.uniform(0, 700), rng.uniform(0, 400)
            bbox = BBox2D(x0, y0, x0 + rng.uniform(5, 100), y0 + rng.uniform(5, 100))
            expected = inside_bbox_reference(front_cam, bbox, cloud)
            if not expected.any():
                with pytest.raises(EmptyFrustum):
                    filter_frustum(front_cam, bbox, cloud)
                continue
            frustum = filter_frustum(front_cam, bbox, cloud)
            np.testing.assert_allclose(frustum.points, cloud[expected], atol=0.0)

    def test_points_behind_camera_excluded(self, front_cam):
        cloud = np.array([[10.0, 0.0, 0.0], [-10.0, 0.0, 0.0]])
        bbox = BBox2D(0.0, 0.0, 800.0, 500.0)
        frustum = filter_frustum(front_cam, bbox, cloud)
        np.testing.assert_allclose(frustum.points, [[10.0, 0.0, 0.0]])

    def test_empty_raises(self, front_cam):
        with pytest.raises(EmptyFrustum):
            filter_frustum(front_cam, BBox2D(0, 0, 1, 1), np.array([[-5.0, 0.0, 0.0]]))

    def test_extent_and_axis_of_full_bbox(self, front_cam):
        bbox = BBox2D(0.0, 0.0, front_cam.width, front_cam.height)
        frustum = filter_frustum(front_cam, bbox, np.array([[10.0, 0.0, 0.0]]))
        assert frustum.central_axis == pytest.approx(0.0, abs=1e-9)
        lo, hi = frustum.extent
        assert lo == pytest.approx(-front_cam.hfov / 2.0)
        assert hi == pytest.approx(front_cam.hfov / 2.0)

    def test_source_recorded(self, front_cam):
        det = _detection()
        frustum = filter_frustum(
            front_cam, BBox2D(0.0, 0.0, 800.0, 500.0), np.array([[5.0, 0.0, 0.0]]), source=det
        )
        assert frustum.sources == (det,)


def _frustum_from_indices(cloud, indices, extent):
    return Frustum(
        points=cloud[np.asarray(indices, dtype=int)],
        extent=extent,
        central_axis=wrap_angle(extent[0] + 0.5 * ((extent[1] - extent[0]) % (2 * math.pi))),
    )


class TestMergeFrustums:
    def test_union_size_identity(self):
        rng = np.random.default_rng(61)
        cloud = rng.uniform(-10.0, 10.0, (60, 3))
        for _ in range(50):
            size_a = int(rng.integers(1, 40))
            size_b = int(rng.integers(1, 40))
            idx_a = rng.choice(60, size_a, replace=False)
            idx_b = rng.choice(60, size_b, replace=False)
            fa = _frustum_from_indices(cloud, idx_a, (0.0, 0.4))
            fb = _frustum_from_indices(cloud, idx_b, (0.2, 0.6))
            shared = len(set(idx_a) & set(idx_b))
            if shared == 0:
                with pytest.raises(MergeRejected):
                    merge_frustums(fa, fb)
                continue
            merged = merge_frustums(fa, fb)
            assert len(merged) == size_a + size_b - shared

    def test_commutative(self):
        rng = np.random.default_rng(62)
        cloud = rng.uniform(-10.0, 10.0, (30, 3))
        fa = _frustum_from_indices(cloud, range(0, 20), (-0.3, 0.2))
        fb = _frustum_from_indices(cloud, range(10, 30), (0.0, 0.5))
        ab = merge_frustums(fa, fb)
        ba = merge_frustums(fb, fa)
        np.testing.assert_array_equal(
            np.array(sorted(map(tuple, ab.points))),
            np.array(sorted(map(tuple, ba.points))),
        )
        assert ab.extent == ba.extent
        assert ab.central_axis == ba.central_axis

    def test_extent_hull_covers_both(self):
        cloud = np.tile(np.array([[1.0, 0.0, 0.0]]), (3, 1))
        fa = _frustum_from_indices(cloud, [0, 1], (-0.4, -0.1))
        fb = _frustum_from_indices(cloud, [1, 2], (0.1, 0.3))
        merged = merge_frustums(fa, fb)
        assert merged.extent[0] == pytest.approx(-0.4)
        assert merged.extent[1] == pytest.approx(0.3)
        assert merged.central_axis == pytest.approx(-0.05, abs=1e-9)

    def test_wraparound_extents(self):
        cloud = np.array([[-5.0, 0.0, 0.0], [-5.0, 0.1, 0.0], [-5.0, -0.1, 0.0]])
        fa = _frustum_from_indices(cloud, [0, 1], (math.pi - 0.2, math.pi - 0.05))
        fb = _frustum_from_indices(cloud, [0, 2], (math.pi - 0.1, -math.pi + 0.15))
        merged = merge_frustums(fa, fb)
        assert merged.extent[0] == pytest.approx(math.pi - 0.2)
        assert wrap_angle(merged.extent[1]) == pytest.approx(-math.pi + 0.15)

    def test_first_copy_wins_across_signed_zeros_and_duplicates(self):
        """a repeats a row, once with -0.0 for 0.0, and b holds it with the
        other signs: every copy is one point, kept with the bits of its first
        appearance in a, and the shared row alone accepts the merge."""
        a_rows = [[-0.0, 1.0, 0.0], [2.0, 3.0, 4.0], [0.0, 1.0, -0.0], [2.0, 3.0, 4.0], [5.0, 5.0, 5.0]]
        b_rows = [[7.0, 8.0, 9.0], [0.0, 1.0, 0.0], [7.0, 8.0, 9.0], [-0.0, 1.0, -0.0]]
        fa = Frustum(points=np.array(a_rows), extent=(0.0, 0.2), central_axis=0.1)
        fb = Frustum(points=np.array(b_rows), extent=(0.1, 0.3), central_axis=0.2)
        merged = merge_frustums(fa, fb)
        want = np.array([[-0.0, 1.0, 0.0], [2.0, 3.0, 4.0], [5.0, 5.0, 5.0], [7.0, 8.0, 9.0]])
        assert merged.points.tobytes() == want.tobytes()
        alone = Frustum(points=np.array(a_rows[1:4]), extent=(0.0, 0.2), central_axis=0.1)
        with pytest.raises(MergeRejected):
            merge_frustums(alone, Frustum(points=np.array(b_rows[:1]), extent=(0.1, 0.3), central_axis=0.2))

    def test_disjoint_rejected(self):
        cloud = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        fa = _frustum_from_indices(cloud, [0], (0.0, 0.1))
        fb = _frustum_from_indices(cloud, [1], (0.05, 0.2))
        with pytest.raises(MergeRejected):
            merge_frustums(fa, fb)

    def test_wide_hull_rejected(self):
        cloud = np.array([[1.0, 0.0, 0.0]])
        fa = _frustum_from_indices(cloud, [0], (-1.8, -1.5))
        fb = _frustum_from_indices(cloud, [0], (1.5, 1.8))
        with pytest.raises(DegenerateExtent):
            merge_frustums(fa, fb)

    def test_sources_concatenate(self, bench_rig):
        cam_a, cam_b = bench_rig.camera("cam0"), bench_rig.camera("cam1")
        cloud = np.array([[8.0, 4.5, 0.0]])  # inside the cam0/cam1 wedge
        det_a, det_b = _detection("cam0"), _detection("cam1")
        full_a = BBox2D(0.0, 0.0, cam_a.width, cam_a.height)
        full_b = BBox2D(0.0, 0.0, cam_b.width, cam_b.height)
        fa = filter_frustum(cam_a, full_a, cloud, source=det_a)
        fb = filter_frustum(cam_b, full_b, cloud, source=det_b)
        merged = merge_frustums(fa, fb)
        assert merged.sources == (det_a, det_b)


class TestCentralAxisOfPair:
    """The merged axis is the circular mean of the hull's two boundaries."""

    def test_mean_of_boundaries(self):
        cloud = np.array([[1.0, 0.0, 0.0]])
        fa = _frustum_from_indices(cloud, [0], (-0.2, 0.0))
        fb = _frustum_from_indices(cloud, [0], (0.1, 0.4))
        assert merge_frustums(fa, fb).central_axis == pytest.approx(0.1)

    def test_wraps_at_pi(self):
        # hull runs from pi-0.2 counterclockwise to pi+0.2: midpoint is pi
        cloud = np.array([[-1.0, 0.0, 0.0]])
        fa = _frustum_from_indices(cloud, [0], (math.pi - 0.2, math.pi - 0.1))
        fb = _frustum_from_indices(cloud, [0], (math.pi - 0.05, -math.pi + 0.2))
        assert abs(merge_frustums(fa, fb).central_axis) == pytest.approx(math.pi, abs=1e-9)

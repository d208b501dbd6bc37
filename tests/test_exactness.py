"""Bit-identity of the vectorized code against plain oracles.

The range gate, the trimmed extents and the 3D-to-2D box projection are
computed with index arithmetic instead of np.quantile, np.histogram,
np.median and project_points; every box on a camera is projected at once;
frustums are filtered against a cloud projected once per camera;
surface points are sampled without a per-point loop, and a frame's
points are placed after all its draws, with face visibility decided in
Python floats and the camera angles cached; inline clouds are
formatted apart from the rest of the scene file; detection files are laid
out by hand around one json call per frame; the loaders build arrays with
np.fromiter; weighted draws skip rng.choice; the loss primitives skip
numpy's argument handling; frustums are merged on rows of Python floats;
wrap_angle wraps a number without an array; the detector stand-in
draws each object's embedding anchor once; one greedy assigner does
the 2D and 3D matching that three matchers did; evaluate_3d matches over
one distance table per class; the AP curves are built without Python
loops; all boxes' corners come from one stacked product; and a frame's
overlap ground truth comes from its 2D ground-truth projections.  These
tests hold each to the exact results of the plain implementations in
_oracles.py, on random inputs and on every frustum and box of the
benchmark scenes.
"""

import dataclasses
import math
import struct
from dataclasses import astuple, replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sianms.metrics as metrics_module
import sianms.pipeline as pipeline_module
from sianms.estimator import (
    _AZ_BINS,
    EstimatorConfig,
    TooFewPoints,
    _below_edges,
    _range_gate,
    _trimmed_extents,
    estimate_box,
)
from sianms.frustum import (
    DegenerateExtent,
    EmptyFrustum,
    Frustum,
    MergeRejected,
    camera_view,
    filter_frustum,
    merge_frustums,
)
from sianms.losses import (
    LossConfig,
    Proposal,
    batch_loss,
    cross_entropy,
    negative_pair_term,
    positive_pair_term,
)
from sianms.metrics import (
    N_RECALL_SAMPLES_2D,
    _SAMPLE_RECALLS_2D,
    EvalConfig3D,
    Gt2D,
    Gt3D,
    Pred2D,
    Pred3D,
    _closeness,
    _interpolated_precision_samples,
    _iou_of,
    _normalized_ap,
    _tp_flags,
    evaluate_3d,
    match_3d,
    overlap_region_filter,
    visible_camera_count,
    visible_camera_counts,
)
from sianms.pipeline import Frame, PipelineConfig, Scene, Variant, compare_variants, run_pipeline
from sianms.scene import (
    DEPTH_EPSILON,
    BBox2D,
    Box3D,
    CameraModel,
    CameraRig,
    Detection2D,
    Pose,
    SceneObject,
    box3d_to_bbox2d,
    box_corners,
    box_image_extents,
    matrix_to_quat,
    project_points,
    quat_to_matrix,
    wrap_angle,
)
from sianms.sceneio import _float_rows, write_detections, write_scene
from sianms.synthgen import (
    CLASS_DIMS,
    GenSpec,
    RigSpec,
    _choice,
    _faces_origin,
    _visible_faces,
    benchmark_gen_spec,
    generate_frame,
    make_rig,
    overlap_wedges,
    sample_surface_points,
    simulate_detections,
)

from _oracles import (
    batch_loss_reference,
    bbox2d_via_project_points,
    box3d_to_bbox2d_reference,
    box_corners_one_box_reference,
    camera_hfov_reference,
    camera_yaw_reference,
    box_image_extents_reference,
    choice_reference,
    cross_entropy_reference,
    detections_text_reference,
    estimate_box_reference,
    evaluate_3d_reference,
    filter_frustum_reference,
    float_rows_reference,
    generate_frame_reference,
    interpolated_precision_samples_reference,
    match_3d_reference,
    merge_frustums_reference,
    negative_pair_term_reference,
    normalized_ap_reference,
    positive_pair_term_reference,
    range_gate_reference,
    sample_surface_points_reference,
    scene_text_reference,
    simulate_detections_reference,
    tp_flags_2d_reference,
    tp_flags_3d_reference,
    visible_camera_count_reference,
    visible_faces_reference,
    wrap_angle_reference,
)
from conftest import build_scene

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True)


def _frustum_points(n, seed, ties):
    """n points around a random ground position; ties rounds coordinates to
    decimeters so ranges and heights repeat."""
    rng = np.random.default_rng(seed)
    center = np.array([rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0), 0.0])
    points = center + rng.normal(size=(n, 3)) * rng.uniform(0.2, 8.0, size=3)
    return np.round(points, 1) if ties else points


def _assert_gate_matches(points, half_width, extent, prior_h):
    """Asserts bit-identity with the loop oracle; returns the gated points."""
    got = _range_gate(points, half_width, extent, prior_h)
    want = range_gate_reference(points, half_width, extent, prior_h)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return want


def _float_bits(values):
    """The IEEE bits of each value, which must be a Python float."""
    assert all(type(v) is float for v in values)
    return struct.pack(f"<{len(values)}d", *values)


def _assert_box_matches(frustum, class_id, cfg, gated=None):
    """estimate_box against the oracle, field bits and TooFewPoints alike."""
    want = estimate_box_reference(frustum, class_id, cfg, gated)
    if want is None:
        with pytest.raises(TooFewPoints):
            estimate_box(frustum, class_id, cfg)
        return
    box = estimate_box(frustum, class_id, cfg)
    got = (box.x, box.y, box.z, box.l, box.w, box.h, box.theta)
    assert _float_bits(got) == _float_bits(want)


def _merge_outcome(merge, a, b):
    """(points bytes, extent, central axis, sources), or the exception type."""
    try:
        merged = merge(a, b)
    except (MergeRejected, DegenerateExtent) as exc:
        return type(exc)
    if isinstance(merged, Frustum):
        merged = (merged.points, merged.extent, merged.central_axis, merged.sources)
    points, extent, central_axis, sources = merged
    assert points.dtype == float and points.shape == (len(points), 3)
    return points.tobytes(), _float_bits(extent), _float_bits([central_axis]), sources


def _assert_merge_matches(a, b):
    assert _merge_outcome(merge_frustums, a, b) == _merge_outcome(merge_frustums_reference, a, b)


class TestRangeGate:
    @EXAMPLES
    @given(
        n=st.integers(1, 450),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        start=st.floats(-math.pi, math.pi),
        az_width=st.floats(0.0, 2.0 * math.pi - 1e-6),
        half_width=st.floats(0.05, 6.0),
        prior_h=st.sampled_from([0.0, 1e-10, 0.5, 1.5, 3.2]),
    )
    def test_matches_loop_oracle(self, n, seed, ties, start, az_width, half_width, prior_h):
        points = _frustum_points(n, seed, ties)
        _assert_gate_matches(points, half_width, (start, start + az_width), prior_h)

    @pytest.mark.parametrize(
        "n, ties, extent, prior_h",
        [
            (1, False, (0.2, 0.9), 1.5),  # one point
            (60, True, (-0.5, 0.5), 1.5),  # tied ranges and heights
            (80, False, (2.0, 2.1), 1.5),  # most points outside the extent
            (80, False, (0.3, 0.3), 1.5),  # zero-width extent
            (80, False, (0.3, 0.3 + 1e-12), 1.5),  # below the width floor
            (80, False, (-1.0, -1.0 + math.pi), 1.5),  # half the circle
            (80, False, (1.0, 0.5), 1.5),  # wraps past 2*pi - 0.5
            (80, False, (-0.5, 0.5), 0.0),  # no height prior
            (193, False, (-0.5, 0.5), 1.5),  # stride 2
            (1000, True, (-0.5, 0.5), 1.5),  # stride 10, ties
        ],
    )
    def test_edge_cases(self, n, ties, extent, prior_h):
        for seed in range(5):
            _assert_gate_matches(_frustum_points(n, seed, ties), 2.0, extent, prior_h)

    def test_identical_points(self):
        points = np.tile([[12.0, -3.0, 0.4]], (25, 1))
        _assert_gate_matches(points, 1.0, (-0.4, 0.0), 1.5)

    def test_window_start_inside_a_tie_run(self):
        """n = 200 gives stride 2, so windows start at even ranks only.  Ranks
        5-40 share range 10.0; the best window starts at rank 6, inside that
        run, yet holds rank 5 as well: 195 points, whose median is rank 102
        (10.2), where ranks 6-199 alone would give (10.2 + 11.8) / 2 and keep
        the 11.8 points too.  Zero-width extent and no height prior leave the
        point count as the score."""
        ranges = np.array([1.0, 1.1, 1.2, 1.3, 1.4] + [10.0] * 36 + [10.2] * 62 + [11.8] * 97)
        points = np.column_stack([ranges, np.zeros(200), np.zeros(200)])
        gated = _assert_gate_matches(points, 1.0, (0.3, 0.3), 0.0)
        assert len(gated) == 98 and gated[:, 0].max() == 10.2

    @pytest.mark.parametrize("n", [9, 10, 11, 12, 95, 96])
    def test_even_and_odd_windows(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            ranges = np.sort(rng.uniform(10.0, 13.0, n))
            az = rng.uniform(-0.2, 0.2, n)
            heights = rng.uniform(-1.5, 0.5, n)
            points = np.column_stack([ranges * np.cos(az), ranges * np.sin(az), heights])
            for half_width in (0.6, 1.5, 5.0):  # the whole set is one window at 5.0
                _assert_gate_matches(points, half_width, (-0.2, 0.2), 1.5)
                _assert_gate_matches(points, half_width, (0.3, 0.3), 0.0)

    def test_every_noisy_benchmark_frustum(self, bench_rig, monkeypatch):
        """Each distinct frustum the estimator sees in the original and
        sianms variants (the other two reuse the original's) of the noisy
        benchmark, through the range gate and the whole box fit, and each
        distinct pair the sianms variant merges."""
        gen = benchmark_gen_spec(42, noisy=True)
        scene = build_scene(bench_rig, gen)
        cfg = PipelineConfig(gen=gen)
        seen = {}
        pairs = {}
        real_estimate = pipeline_module.estimate_box
        real_merge = pipeline_module.merge_frustums

        def record(frustum, class_id, est_cfg):
            key = (frustum.points.tobytes(), frustum.extent, class_id)
            seen.setdefault(key, (frustum, class_id, est_cfg))
            return real_estimate(frustum, class_id, est_cfg)

        def record_merge(a, b):
            key = (a.points.tobytes(), a.extent, b.points.tobytes(), b.extent)
            pairs.setdefault(key, (a, b))
            return real_merge(a, b)

        monkeypatch.setattr(pipeline_module, "estimate_box", record)
        monkeypatch.setattr(pipeline_module, "merge_frustums", record_merge)
        for variant in (Variant.ORIGINAL, Variant.SIANMS):
            run_pipeline(scene, variant, cfg)
        assert len(seen) > 600
        n_merged = 0
        for frustum, class_id, est_cfg in seen.values():
            prior = est_cfg.dim_priors[class_id]
            gate = max(est_cfg.range_gate_m, 0.75 * math.hypot(prior[0], prior[1]))
            points = np.asarray(frustum.points, dtype=float).reshape(-1, 3)
            gated = _assert_gate_matches(points, gate, frustum.extent, prior[2])
            enough = len(points) >= est_cfg.min_points
            _assert_box_matches(frustum, class_id, est_cfg, gated if enough else None)
            n_merged += len(frustum.sources) == 2
        assert n_merged > 100
        assert len(pairs) > 100
        for a, b in pairs.values():
            _assert_merge_matches(a, b)


    def test_every_ring8_frustum(self, monkeypatch):
        """Each distinct frustum the estimator sees in the four variants of a
        clean 3-frame scene on the eight-camera rig, where most objects are
        seen by three cameras, through the range gate and the whole box fit."""
        rig = make_rig(RigSpec(n_cameras=8, yaw_spacing_deg=45.0, hfov_deg=100.0))
        gen = GenSpec(seed=3, n_frames=3)
        seen = {}
        real_estimate = pipeline_module.estimate_box

        def record(frustum, class_id, est_cfg):
            key = (frustum.points.tobytes(), frustum.extent, class_id)
            seen.setdefault(key, (frustum, class_id, est_cfg))
            return real_estimate(frustum, class_id, est_cfg)

        monkeypatch.setattr(pipeline_module, "estimate_box", record)
        compare_variants(build_scene(rig, gen), PipelineConfig(gen=gen))
        assert len(seen) > 50
        n_merged = 0
        for frustum, class_id, est_cfg in seen.values():
            prior = est_cfg.dim_priors[class_id]
            gate = max(est_cfg.range_gate_m, 0.75 * math.hypot(prior[0], prior[1]))
            points = np.asarray(frustum.points, dtype=float).reshape(-1, 3)
            gated = _assert_gate_matches(points, gate, frustum.extent, prior[2])
            enough = len(points) >= est_cfg.min_points
            _assert_box_matches(frustum, class_id, est_cfg, gated if enough else None)
            n_merged += len(frustum.sources) == 2
        assert n_merged > 5

    def test_one_point_windows_at_negative_zero_height(self):
        """Ranges 10 m apart under a 1 m gate leave one point per window, where
        np.quantile gives -0.0 for both heights and the clipped index +0.0;
        a cluster of -0.0 and +0.0 heights ties them within windows too."""
        ranges = np.arange(1.0, 9.0) * 10.0
        points = np.column_stack([ranges, np.zeros(8), np.full(8, -0.0)])
        gated = _assert_gate_matches(points, 1.0, (-0.1, 0.1), 1.5)
        assert len(gated) == 1
        cluster = np.column_stack([
            np.linspace(45.0, 45.5, 20), np.linspace(-0.5, 0.5, 20), np.tile([-0.0, 0.0], 10),
        ])
        for heights in (np.full(8, -0.0), np.linspace(-1.0, 1.0, 8)):
            lone = np.column_stack([ranges, np.zeros(8), heights])
            _assert_gate_matches(np.concatenate([lone, cluster]), 1.0, (-0.1, 0.1), 1.5)
            _assert_gate_matches(np.concatenate([cluster, lone]), 1.0, (-0.1, 0.1), 0.5)

    def test_azimuth_equal_to_the_span(self):
        """A point whose azimuth closes the extent lands on the span itself,
        which the last bin holds; one just past it holds no bin."""
        for seed in range(5):
            points = _frustum_points(80, seed, False)
            azimuths = np.arctan2(points[:, 1], points[:, 0])
            start = float(azimuths.min()) - 0.01
            extent = (start, float(azimuths[7]))
            span = (extent[1] - extent[0]) % (2.0 * math.pi)
            assert np.mod(azimuths[7] - start, 2.0 * math.pi) == span
            _assert_gate_matches(points, 2.0, extent, 1.5)
            _assert_gate_matches(points, 2.0, (start, math.nextafter(extent[1], -math.inf)), 1.5)

    def test_half_way_height_blend_breaks_a_tie(self):
        """Eleven-point windows put both height quantiles half way between two
        values, where numpy blends from the upper one.  The nearer cluster's
        5% height, so blended, gives the farther cluster's span exactly, and
        the first of the tied windows wins; blended from the lower value it
        would round up, shrink the nearer span and hand the win over."""
        near = np.array([-535.6693731611109, 0.10490011715303971] + [0.2] * 7 + [0.5, 0.5])
        q05 = float(np.quantile(near, 0.05))
        assert q05 != near[0] + (near[1] - near[0]) * 0.5
        far = np.array([q05, q05] + [0.2] * 7 + [0.5, 0.5])
        offsets = np.arange(11) * 0.01
        points = np.column_stack([
            np.concatenate([10.0 + offsets, 20.0 + offsets]), np.zeros(22), np.concatenate([near, far]),
        ])
        gated = _assert_gate_matches(points, 0.5, (0.3, 0.3), 1e4)
        assert gated.tobytes() == points[:11].tobytes()

    def test_more_points_than_int16_ranks(self):
        """Past 32767 points the height ranks need a wider integer type."""
        points = _frustum_points(33000, 3, False)
        _assert_gate_matches(points, 1.0, (-0.5, 0.5), 1.5)


def _np_histogram_bin(value, span):
    """The bin np.histogram puts one value in, _AZ_BINS when none."""
    counts, _ = np.histogram([value], _AZ_BINS, range=(0.0, span))
    return int(np.argmax(counts)) if counts.any() else _AZ_BINS


class TestHistogramBins:
    @EXAMPLES
    @given(span=st.floats(1e-9, 2.0 * math.pi, exclude_min=True), data=st.data())
    def test_matches_np_histogram(self, span, data):
        edges = np.linspace(0.0, span, _AZ_BINS + 1)
        near_edges = st.sampled_from(edges).flatmap(
            lambda e: st.sampled_from([e, np.nextafter(e, 0.0), np.nextafter(e, np.inf)])
        )
        values = data.draw(st.lists(near_edges | st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=40))
        # a value's bin is _AZ_BINS less the number of upper edges it lies below
        got = _AZ_BINS - _below_edges(np.array(values, dtype=float), span).sum(axis=1)
        assert got.tolist() == [_np_histogram_bin(v, span) for v in values]

    def test_estimates_numpy_corrects(self):
        """values / span * _AZ_BINS is exactly _AZ_BINS at the span, lands
        past the inner edge just above one value and short of the inner edge
        another value sits on; np.histogram moves each back by one bin."""
        cases = [
            (0.3, 0.3, _AZ_BINS),
            (5.109927617896309, 3.193704761185193, 5),  # just below edge 5
            (5.387229953110554, 2.0202112324164574, 2),  # exactly on edge 3
        ]
        for span, value, estimate in cases:
            assert int(value / span * _AZ_BINS) == estimate
            want = _np_histogram_bin(value, span)
            assert abs(want - estimate) == 1
            assert (_AZ_BINS - _below_edges(np.array([value]), span).sum(axis=1)).tolist() == [want]


QUANTILES = st.one_of(
    st.sampled_from([0.0, EstimatorConfig().extent_quantile, 0.25]),
    st.floats(0.0, 0.4999),
)


class TestTrimmedExtent:
    @EXAMPLES
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), ties=st.booleans(), quantile=QUANTILES)
    def test_matches_np_quantile(self, n, seed, ties, quantile):
        rows = _frustum_points(n, seed, ties).T
        (lows, highs) = _trimmed_extents(rows, quantile)
        for values, lo, hi in zip(rows, lows, highs):
            assert lo.tobytes() == np.quantile(values, quantile).tobytes()
            assert hi.tobytes() == np.quantile(values, 1.0 - quantile).tobytes()


    @pytest.mark.parametrize("quantile", [0.0, 0.04, 0.25, 0.4999])
    @pytest.mark.parametrize(
        "rows",
        [
            [[-0.0], [0.0]],
            [[-0.0, -0.0], [0.0, 0.0]],
            [[-0.0, 0.0], [0.0, -0.0]],
            [[1.5, 1.5], [-2.0, 3.0]],
            [[-0.0, 1.0], [2.0, -0.0]],
        ],
    )
    def test_one_and_two_values(self, rows, quantile):
        rows = np.array(rows)
        (lows, highs) = _trimmed_extents(rows, quantile)
        for values, lo, hi in zip(rows, lows, highs):
            assert lo.tobytes() == np.quantile(values, quantile).tobytes()
            assert hi.tobytes() == np.quantile(values, 1.0 - quantile).tobytes()


    def test_blend_half_way(self):
        """(3 - 1) * 0.25 falls half way between two values, where numpy
        blends from the upper one; from the lower, these two round apart."""
        rows = np.array([[-535.6693731611109, 0.10490011715303971, 1.0]])
        (lows, highs) = _trimmed_extents(rows, 0.25)
        assert lows[0].tobytes() == np.quantile(rows[0], 0.25).tobytes()
        assert highs[0].tobytes() == np.quantile(rows[0], 0.75).tobytes()
        a, b = rows[0, :2]
        assert lows[0] != a + (b - a) * 0.5


def _frustum(points, extent, central_axis=0.0):
    return Frustum(points=points, extent=extent, central_axis=central_axis)


class TestEstimateBox:
    @EXAMPLES
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        start=st.floats(-math.pi, math.pi),
        az_width=st.floats(0.0, 2.0 * math.pi - 1e-6),
        central_axis=st.floats(-math.pi, math.pi, exclude_min=True),
        class_id=st.sampled_from(sorted(CLASS_DIMS)),
        yaw_mode=st.sampled_from(["pca", "frustum-axis"]),
        min_points=st.integers(1, 12),
        range_gate_m=st.floats(0.1, 6.0),
        quantile=QUANTILES,
    )
    def test_matches_oracle(
        self, n, seed, ties, start, az_width, central_axis, class_id, yaw_mode, min_points,
        range_gate_m, quantile,
    ):
        cfg = EstimatorConfig(
            yaw_mode=yaw_mode, min_points=min_points, range_gate_m=range_gate_m,
            extent_quantile=quantile,
        )
        frustum = _frustum(_frustum_points(n, seed, ties), (start, start + az_width), central_axis)
        _assert_box_matches(frustum, class_id, cfg)

    def test_falls_back_to_all_points(self):
        """Three clusters of at most 3 points, 20 m apart: the gate keeps
        one cluster, fewer than min_points, so the box is fit to all 8."""
        points = np.array(
            [[10.0, 0.1 * k, -1.0 + 0.5 * k] for k in range(3)]
            + [[30.0, 0.2 * k, -1.0 + 0.4 * k] for k in range(3)]
            + [[50.0, 0.3 * k, -0.5 * k] for k in range(2)]
        )
        cfg = EstimatorConfig()
        frustum = _frustum(points, (-0.05, 0.05))
        gate = max(cfg.range_gate_m, 0.75 * math.hypot(*CLASS_DIMS["car"][:2]))
        assert len(_range_gate(points, gate, frustum.extent, CLASS_DIMS["car"][2])) < cfg.min_points
        _assert_box_matches(frustum, "car", cfg)

    @pytest.mark.parametrize("yaw_mode", ["pca", "frustum-axis"])
    def test_identical_points(self, yaw_mode):
        frustum = _frustum(np.tile([[12.0, -3.0, 0.4]], (25, 1)), (-0.4, 0.0), -0.2)
        _assert_box_matches(frustum, "pedestrian", EstimatorConfig(yaw_mode=yaw_mode))


# a few coordinates, so rows repeat within and across frustums, and any float
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
ROWS = st.lists(st.tuples(COORDS, COORDS, COORDS), max_size=12)
EXTENTS = st.tuples(st.floats(-math.pi, math.pi), st.floats(0.0, 2.0)).map(
    lambda sw: (sw[0], sw[0] + sw[1])
)


def _merge_input(rows, extent, source):
    points = np.array(rows, dtype=float).reshape(-1, 3)
    return Frustum(points=points, extent=extent, central_axis=0.0, sources=(source,))


class TestMergeFrustums:
    @EXAMPLES
    @given(rows_a=ROWS, rows_b=ROWS, extent_a=EXTENTS, extent_b=EXTENTS)
    def test_matches_oracle(self, rows_a, rows_b, extent_a, extent_b):
        _assert_merge_matches(_merge_input(rows_a, extent_a, "a"), _merge_input(rows_b, extent_b, "b"))

    def test_signed_zeros_are_shared(self):
        a = _merge_input([(0.0, 1.0, -0.0), (4.0, 5.0, 6.0)], (0.1, 0.3), "a")
        b = _merge_input([(-0.0, 1.0, 0.0), (7.0, 8.0, 9.0)], (0.2, 0.4), "b")
        merged = merge_frustums(a, b)
        assert len(merged) == 3 and np.signbit(merged.points[0]).tolist() == [False, False, True]
        _assert_merge_matches(a, b)

    def test_nan_rows_are_never_shared(self):
        nan_row = (math.nan, 1.0, 2.0)
        a = _merge_input([nan_row, (4.0, 5.0, 6.0)], (0.1, 0.3), "a")
        with pytest.raises(MergeRejected):
            merge_frustums(a, _merge_input([nan_row], (0.2, 0.4), "b"))
        b = _merge_input([nan_row, (4.0, 5.0, 6.0), nan_row], (0.2, 0.4), "b")
        assert len(merge_frustums(a, b)) == 4
        _assert_merge_matches(a, b)

    def test_duplicate_rows_within_a(self):
        a = _merge_input([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (1.0, 2.0, 3.0)], (0.1, 0.3), "a")
        b = _merge_input([(4.0, 5.0, 6.0), (7.0, 8.0, 9.0)], (0.2, 0.4), "b")
        merged = merge_frustums(a, b).points.tolist()
        assert merged == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
        _assert_merge_matches(a, b)


def _assert_wrap_matches(theta):
    got, want = wrap_angle(theta), wrap_angle_reference(theta)
    assert type(got) is type(want) is float
    assert _float_bits([got]) == _float_bits([want])


class TestWrapAngle:
    @EXAMPLES
    @given(theta=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-10**6, 10**6)))
    def test_matches_array_path(self, theta):
        _assert_wrap_matches(theta)

    @pytest.mark.parametrize(
        "theta",
        [
            math.pi, -math.pi, 3.0 * math.pi, -3.0 * math.pi, 2.0 * math.pi, -0.0, 0.0,
            5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf, 7, -7, 0,
            True, False, np.float64(-math.pi), np.float64(3.5), np.array(-math.pi), np.array(2.0),
        ],
    )
    def test_edge_cases(self, theta):
        _assert_wrap_matches(theta)

    def test_arrays_keep_their_shape(self):
        theta = np.array([-math.pi, 3.0 * math.pi, -0.0, 7.5])
        got = wrap_angle(theta)
        assert isinstance(got, np.ndarray) and got.tobytes() == wrap_angle_reference(theta).tobytes()


def _assert_bbox_matches(cam, box, clip):
    """Asserts bit-identity with the oracle; returns whether a bbox came out."""
    got = box3d_to_bbox2d(cam, box, clip=clip)
    want = bbox2d_via_project_points(cam, box, clip=clip)
    assert (got is None) == (want is None)
    if got is None:
        return False
    edges = np.array([got.x_min, got.y_min, got.x_max, got.y_max])
    assert edges.tobytes() == np.array(want).tobytes()
    return True


def _camera(yaw, pitch, height, fx, width=1600.0, image_height=900.0):
    """A camera looking along azimuth yaw, tilted down by pitch."""
    # camera axes (x right, y down, z forward) in the vehicle frame
    forward = np.array(
        [math.cos(yaw) * math.cos(pitch), math.sin(yaw) * math.cos(pitch), -math.sin(pitch)]
    )
    right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    down = np.cross(forward, right)
    rot = np.column_stack([right, down, forward])
    return CameraModel(
        id="cam", fx=fx, fy=fx, cx=width / 2.0, cy=image_height / 2.0, width=width,
        height=image_height, pose=Pose(q=matrix_to_quat(rot), t=(0.1, -0.2, height)),
    )


class TestBoxProjection:
    @EXAMPLES
    @given(
        yaw=st.floats(-math.pi, math.pi),
        pitch=st.floats(-0.3, 0.3),
        cam_height=st.floats(0.5, 3.0),
        fx=st.floats(100.0, 2000.0),
        x=st.floats(-30.0, 30.0),
        y=st.floats(-30.0, 30.0),
        z=st.floats(-2.0, 2.0),
        dims=st.tuples(st.floats(0.1, 8.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0)),
        theta=st.floats(-4.0, 4.0),
        clip=st.booleans(),
    )
    def test_matches_project_points_oracle(
        self, yaw, pitch, cam_height, fx, x, y, z, dims, theta, clip
    ):
        cam = _camera(yaw, pitch, cam_height, fx)
        box = Box3D(x=x, y=y, z=z, l=dims[0], w=dims[1], h=dims[2], theta=theta)
        _assert_bbox_matches(cam, box, clip)

    def test_benchmark_ground_truth_on_every_camera(self, bench_rig, clean_scene):
        n_visible = 0
        for frame in clean_scene.frames:
            for obj in frame.objects:
                for cam in bench_rig.cameras:
                    n_visible += _assert_bbox_matches(cam, obj.box, clip=True)
        assert n_visible > 100


RIGS = {
    "bench6": RigSpec(),
    "ring8": RigSpec(n_cameras=8, yaw_spacing_deg=45.0, hfov_deg=100.0),
}


def _filter_outcome(filter_fn, cam, bbox, cloud, source):
    """(points bytes, extent bits, central axis bits, source ids), or
    EmptyFrustum."""
    try:
        frustum = filter_fn(cam, bbox, cloud, source=source)
    except EmptyFrustum:
        return EmptyFrustum
    points = frustum.points
    assert points.dtype == float and points.shape == (len(points), 3)
    return (
        points.tobytes(),
        _float_bits(frustum.extent),
        _float_bits([frustum.central_axis]),
        tuple(map(id, frustum.sources)),
    )


def _assert_filter_matches(cam, bbox, cloud, view=None, source=None):
    """filter_frustum on a shared view and on the raw cloud against the
    oracle that projects the cloud for this bbox; returns whether a frustum
    came out."""
    want = _filter_outcome(filter_frustum_reference, cam, bbox, cloud, source)
    view = camera_view(cam, cloud) if view is None else view
    assert _filter_outcome(filter_frustum, cam, bbox, view, source) == want
    assert _filter_outcome(filter_frustum, cam, bbox, cloud, source) == want
    return want is not EmptyFrustum


# identity pose: a point's depth is its z exactly, and u, v are 1 + x / z,
# 1 + y / z on a 2 x 2 pixel image
AXIS_CAMERA = CameraModel(id="axis", fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=2.0, height=2.0)
EDGE_DEPTHS = [
    DEPTH_EPSILON,
    float(np.nextafter(DEPTH_EPSILON, math.inf)),
    float(np.nextafter(DEPTH_EPSILON, -math.inf)),
]
COORDS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([*EDGE_DEPTHS, 0.0, -0.0, math.nan, math.inf, -math.inf]),
)
CLOUDS = st.lists(st.tuples(COORDS, COORDS, COORDS), max_size=40)


def _draw_span(data, values, lo, hi):
    """A sorted (min, max) pair: free floats in [lo, hi], which reach past
    the image, or the finite projected values themselves, so points lie
    exactly on the edges."""
    ends = [st.floats(lo, hi)]
    finite = sorted({float(x) for x in values if math.isfinite(x)})
    if finite:
        ends.append(st.sampled_from(finite))
    a, b = data.draw(st.tuples(st.one_of(ends), st.one_of(ends)))
    return min(a, b), max(a, b)


class TestCameraView:
    @EXAMPLES
    @given(
        cam=st.one_of(
            st.just(AXIS_CAMERA),
            st.builds(_camera, st.floats(-math.pi, math.pi), st.floats(-0.3, 0.3),
                      st.floats(0.5, 3.0), st.floats(0.5, 4.0), st.just(2.0), st.just(2.0)),
        ),
        rows=CLOUDS,
        data=st.data(),
    )
    def test_matches_per_bbox_projection(self, cam, rows, data):
        cloud = np.array(rows, dtype=float).reshape(-1, 3)
        with np.errstate(all="ignore"):
            uv, _, _ = project_points(cam, cloud)
            x_min, x_max = _draw_span(data, uv[:, 0], -1.0, 3.0)
            y_min, y_max = _draw_span(data, uv[:, 1], -1.0, 3.0)
            bbox = BBox2D(x_min, y_min, x_max, y_max)
            _assert_filter_matches(cam, bbox, cloud, source=data.draw(st.sampled_from([None, "det"])))

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(0.0, 0.0, 1.0)],
            [(0.0, 0.0, DEPTH_EPSILON)],
            [(0.0, 0.0, EDGE_DEPTHS[1])],
            [(0.0, 0.0, -1.0), (math.nan, 0.0, 1.0), (0.0, 0.0, math.inf), (math.inf, 0.0, 1.0)],
            [(-1.0, -1.0, 1.0), (1.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0)],
        ],
        ids=["empty", "one", "at-epsilon", "past-epsilon", "non-finite", "corners"],
    )
    @pytest.mark.parametrize(
        "bbox",
        [BBox2D(0.0, 0.0, 2.0, 2.0), BBox2D(1.0, 1.0, 1.0, 1.0), BBox2D(-5.0, 0.5, 0.5, 9.0)],
        ids=["image", "center", "overhanging"],
    )
    def test_edge_cases(self, rows, bbox):
        with np.errstate(all="ignore"):
            _assert_filter_matches(AXIS_CAMERA, bbox, np.array(rows, dtype=float).reshape(-1, 3))

    def test_every_noisy_benchmark_detection(self, bench_rig, noisy_scene):
        """Every simulated detection of the noisy benchmark through one view
        per frame and camera, as the pipeline filters them."""
        gen = benchmark_gen_spec(42, noisy=True)
        n_frustums = n_detections = 0
        for frame in noisy_scene.frames:
            views = {cam.id: camera_view(cam, frame.cloud) for cam in bench_rig.cameras}
            for det in simulate_detections(bench_rig, frame.objects, gen, frame.index):
                cam = bench_rig.camera(det.camera_id)
                n_frustums += _assert_filter_matches(
                    cam, det.bbox, frame.cloud, views[cam.id], source=det
                )
                n_detections += 1
        assert n_frustums > 600 and n_detections >= n_frustums


def _assert_counts_match(rig, boxes):
    got = visible_camera_counts(rig, boxes)
    want = [visible_camera_count_reference(rig, box) for box in boxes]
    assert got.tolist() == want
    assert [visible_camera_count(rig, box) for box in boxes] == want
    return want


def _depths(cam, box):
    return ((box.corners() - cam.pose.translation) @ cam.pose.rotation)[:, 2]


class TestVisibleCameraCount:
    @EXAMPLES
    @pytest.mark.parametrize("rig_name", sorted(RIGS))
    @given(
        boxes=st.lists(
            st.builds(
                Box3D,
                x=st.floats(-30.0, 30.0),
                y=st.floats(-30.0, 30.0),
                z=st.floats(-3.0, 12.0),
                l=st.floats(0.01, 8.0),
                w=st.floats(0.01, 4.0),
                h=st.floats(0.01, 4.0),
                theta=st.floats(-4.0, 4.0),
            ),
            max_size=12,
        )
    )
    def test_matches_per_camera_oracle(self, rig_name, boxes):
        _assert_counts_match(make_rig(RIGS[rig_name]), boxes)

    @pytest.mark.parametrize("rig_name", sorted(RIGS))
    def test_edge_cases(self, rig_name):
        rig = make_rig(RIGS[rig_name])
        cam0 = rig.cameras[0]
        straddling = Box3D(x=0.5, y=0.0, z=0.0, l=4.0, w=2.0, h=1.5, theta=0.0)
        behind = Box3D(x=-12.0, y=0.0, z=0.0, l=4.0, w=2.0, h=1.5, theta=0.3)
        beside = Box3D(x=2.0, y=12.0, z=0.0, l=1.0, w=1.0, h=1.0, theta=0.0)
        overhead = Box3D(x=5.0, y=0.0, z=30.0, l=1.0, w=1.0, h=1.0, theta=0.0)
        depths = _depths(cam0, straddling)
        assert (depths > DEPTH_EPSILON).any() and (depths <= DEPTH_EPSILON).any()
        assert (_depths(cam0, behind) <= DEPTH_EPSILON).all()
        for box in (beside, overhead):
            # in front of cam0 but clipped to zero area on its image
            assert (_depths(cam0, box) > DEPTH_EPSILON).all()
            assert box3d_to_bbox2d(cam0, box) is None
            assert box3d_to_bbox2d(cam0, box, clip=False) is not None
        counts = _assert_counts_match(rig, [straddling, behind, beside, overhead])
        assert counts[1] >= 1 and counts[3] == 0
        assert visible_camera_counts(rig, []).tolist() == []

    def test_every_noisy_benchmark_box(self, bench_rig, noisy_scene, noisy_comparison):
        """Every ground-truth box and every box any variant predicts."""
        comparison, _ = noisy_comparison
        gt = [obj.box for frame in noisy_scene.frames for obj in frame.objects]
        preds = [
            pred.box
            for result in comparison.results.values()
            for frame_boxes in result.boxes.values()
            for pred in frame_boxes
        ]
        counts = _assert_counts_match(bench_rig, gt + preds)
        assert len(preds) > 2000 and max(counts) >= 2


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


BOXES = st.builds(
    Box3D,
    x=st.floats(-30.0, 30.0),
    y=st.floats(-30.0, 30.0),
    z=st.floats(-3.0, 12.0),
    l=st.floats(0.01, 8.0),
    w=st.floats(0.01, 4.0),
    h=st.floats(0.01, 4.0),
    theta=st.floats(-4.0, 4.0),
)


def _assert_extents_match(cam, boxes):
    """box_image_extents on the stacked boxes against one
    box3d_to_bbox2d_reference call per box: the clipped part and visible
    mask against clip=True, the raw part against clip=False, wherever the
    reference gives a bbox, and box3d_to_bbox2d gives one where it does;
    returns the number of visible boxes."""
    raw, clipped, visible = (part[0] for part in box_image_extents([cam], box_corners(boxes)))
    assert raw.shape == clipped.shape == (len(boxes), 4) and visible.shape == (len(boxes),)
    for k, box in enumerate(boxes):
        for clip, rows in ((True, clipped), (False, raw)):
            want = box3d_to_bbox2d_reference(cam, box, clip)
            assert (box3d_to_bbox2d(cam, box, clip) is None) == (want is None)
            if want is not None:
                assert _same_bits(rows[k].tolist(), [want.x_min, want.y_min, want.x_max, want.y_max])
            if clip:
                assert bool(visible[k]) == (want is not None)
    return int(visible.sum())


class TestBatchedProjection:
    @EXAMPLES
    @given(
        yaw=st.floats(-math.pi, math.pi),
        pitch=st.floats(-0.3, 0.3),
        fx=st.floats(100.0, 2000.0),
        boxes=st.lists(BOXES, max_size=10),
    )
    def test_matches_per_box_oracle(self, yaw, pitch, fx, boxes):
        _assert_extents_match(_camera(yaw, pitch, 1.5, fx), boxes)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("y", [1e307, -1e307])
    def test_overflowing_extents(self, y):
        """Every corner of a box this far aside projects to one infinite u,
        so the raw width is inf - inf = NaN, which box3d_to_bbox2d with
        clip=False counts as a bbox, as the reference does."""
        cam = _camera(0.0, 0.0, 1.5, 500.0)
        box = Box3D(x=5.0, y=y, z=0.0, l=4.0, w=2.0, h=1.5, theta=0.0)
        assert _assert_extents_match(cam, [box]) == 0
        assert box3d_to_bbox2d(cam, box, clip=False) is not None

    def test_every_benchmark_ground_truth_box(self, bench_rig, clean_scene, noisy_scene):
        n_visible = 0
        for scene in (clean_scene, noisy_scene):
            for frame in scene.frames:
                boxes = [obj.box for obj in frame.objects]
                for cam in bench_rig.cameras:
                    n_visible += _assert_extents_match(cam, boxes)
        assert n_visible > 500

    def test_every_noisy_benchmark_predicted_box(self, bench_rig, noisy_comparison):
        comparison, _ = noisy_comparison
        boxes = [pred.box for result in comparison.results.values()
                 for frame_boxes in result.boxes.values() for pred in frame_boxes]
        n_visible = sum(_assert_extents_match(cam, boxes) for cam in bench_rig.cameras)
        assert n_visible > 500


def _assert_rig_extents_match(cameras, boxes):
    """box_image_extents on the whole rig against one
    box_image_extents_reference call per camera, as float bits; returns
    the number of visible (camera, box) pairs."""
    corners = box_corners(boxes)
    got = box_image_extents(cameras, corners)
    want = [box_image_extents_reference(cam, corners) for cam in cameras]
    shapes = ((len(cameras), len(boxes), 4),) * 2 + ((len(cameras), len(boxes)),)
    for part, (got_part, shape) in enumerate(zip(got, shapes)):
        assert got_part.shape == shape
        for k in range(len(cameras)):
            assert _same_bits(got_part[k], want[k][part])
    return int(got[2].sum())


class TestRigProjection:
    """One stacked projection of a box set on all the cameras it is given
    keeps the bits of one projection per camera."""

    @EXAMPLES
    @given(
        poses=st.lists(
            st.tuples(
                st.floats(-math.pi, math.pi),
                st.floats(-0.3, 0.3),
                st.floats(0.5, 3.0),
                st.floats(100.0, 2000.0),
                st.floats(200.0, 2000.0),
            ),
            max_size=8,
        ),
        boxes=st.lists(BOXES, max_size=10),
    )
    def test_matches_per_camera_oracle(self, poses, boxes):
        """Cameras of their own pose, focal length and image width."""
        cameras = [
            _camera(yaw, pitch, height, fx, width=width)
            for yaw, pitch, height, fx, width in poses
        ]
        _assert_rig_extents_match(cameras, boxes)

    def test_every_noisy_benchmark_frame(self, bench_rig, noisy_scene):
        n_visible = sum(
            _assert_rig_extents_match(bench_rig.cameras, [obj.box for obj in frame.objects])
            for frame in noisy_scene.frames
        )
        assert n_visible > 500

    def test_every_ring8_frame(self):
        rig = make_rig(RIGS["ring8"])
        frames = build_scene(rig, GenSpec(seed=3, n_frames=10)).frames
        n_visible = sum(
            _assert_rig_extents_match(rig.cameras, [obj.box for obj in frame.objects])
            for frame in frames
        )
        # every object of this rig lies in an overlap (TestOverlapTruth)
        assert n_visible >= 2 * sum(len(frame.objects) for frame in frames)


class TestSurfaceSampling:
    @EXAMPLES
    @given(box=BOXES, n_points=st.integers(0, 400), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle(self, box, n_points, seed):
        got = sample_surface_points(box, n_points, np.random.default_rng(seed))
        want = sample_surface_points_reference(box, n_points, np.random.default_rng(seed))
        assert _same_bits(got, want)

    @pytest.mark.parametrize("n_points", [-1, 0, 1, 2])
    def test_few_points(self, n_points):
        box = Box3D(x=9.0, y=-4.0, z=-0.9, l=4.5, w=1.9, h=1.6, theta=2.0)
        for seed in range(20):
            got = sample_surface_points(box, n_points, np.random.default_rng(seed))
            want = sample_surface_points_reference(box, n_points, np.random.default_rng(seed))
            assert _same_bits(got, want)
            assert got.shape == (max(n_points, 0), 3)

    def test_rng_left_in_the_same_state(self):
        box = Box3D(x=9.0, y=-4.0, z=-0.9, l=4.5, w=1.9, h=1.6, theta=2.0)
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        sample_surface_points(box, 50, rng)
        sample_surface_points_reference(box, 50, reference_rng)
        assert rng.random() == reference_rng.random()


def _uneven_ring() -> CameraRig:
    """Nine cameras at uneven yaws with uneven fields of view, so the rig
    has nine overlap wedges of nine different widths."""
    base = make_rig(RigSpec(n_cameras=9, yaw_spacing_deg=40.0, hfov_deg=50.0))
    yaws = (0.0, 37.0, 81.0, 118.0, 160.0, 205.0, 242.0, 290.0, 323.0)
    hfovs = (52.0, 61.0, 47.0, 55.0, 58.0, 49.0, 66.0, 53.0, 47.0)
    forward = quat_to_matrix(base.cameras[0].pose.q)  # the camera at yaw 0
    cameras = []
    for cam, yaw, hfov in zip(base.cameras, yaws, hfovs):
        c, s = math.cos(math.radians(yaw)), math.sin(math.radians(yaw))
        rot_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        q = matrix_to_quat(rot_z @ forward)
        fx = (cam.width / 2.0) / math.tan(math.radians(hfov) / 2.0)
        cameras.append(dataclasses.replace(cam, fx=fx, fy=fx, pose=Pose(q=q)))
    return CameraRig(cameras=tuple(cameras), adjacency=base.adjacency)


GEN_RIGS = {
    "one": make_rig(RigSpec(n_cameras=1)),
    "bench6": make_rig(RIGS["bench6"]),
    "ring8": make_rig(RIGS["ring8"]),
    "uneven9": _uneven_ring(),
}


def _ordered(pairs):
    return pairs.map(lambda p: tuple(sorted(p)))


GEN_SPECS = st.builds(
    GenSpec,
    seed=st.integers(0, 2**32 - 1),
    objects_per_frame=_ordered(st.tuples(st.integers(0, 12), st.integers(0, 12))),
    class_mix=st.sampled_from([{"car": 1.0}, {"pedestrian": 2.0}, {"cyclist": 0.3, "car": 0.7}])
    | st.dictionaries(st.sampled_from(sorted(CLASS_DIMS)), st.floats(0.01, 5.0), min_size=1),
    radius_range=st.sampled_from([(0.0, 6.0), (0.0, 0.0), (0.0, 2.0), (8.0, 30.0)])
    | _ordered(st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0))),
    overlap_fraction=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    lidar_points_range=st.sampled_from([(0, 0), (1, 1), (60, 120)])
    | _ordered(st.tuples(st.integers(-5, 200), st.integers(-5, 200))),
    clutter_points=st.sampled_from([0, 300]) | st.integers(0, 400),
)


def _assert_frame_matches(rig, spec, frame_index):
    """generate_frame against the loop that samples each object as it
    goes: objects field for field, as float bits, and the cloud's bits."""
    objects, cloud = generate_frame(rig, spec, frame_index)
    want_objects, want_cloud = generate_frame_reference(rig, spec, frame_index)
    assert [(o.uid, o.class_id) for o in objects] == [(o.uid, o.class_id) for o in want_objects]
    assert _float_bits([v for o in objects for v in astuple(o.box)]) == _float_bits(
        [v for o in want_objects for v in astuple(o.box)]
    )
    assert _same_bits(cloud, want_cloud)
    return objects, cloud


class TestFrameGeneration:
    """generate_frame makes every draw in the object loop and builds the
    surface points of all objects in one pass; the oracle samples each
    object inside the loop, with rng.choice and per-box face arrays."""

    def test_the_uneven_ring_has_nine_unequal_wedges(self):
        widths = [width for _, width in overlap_wedges(GEN_RIGS["uneven9"])]
        assert len(widths) == 9 and len(set(widths)) == 9

    @EXAMPLES
    @given(rig=st.sampled_from(sorted(GEN_RIGS)), spec=GEN_SPECS, frame_index=st.integers(0, 3))
    def test_matches_the_per_object_loop(self, rig, spec, frame_index):
        _assert_frame_matches(GEN_RIGS[rig], spec, frame_index)

    @pytest.mark.parametrize("rig, spec, frames", [
        ("bench6", benchmark_gen_spec(5), 100),
        ("bench6", benchmark_gen_spec(7, noisy=True), 50),
        ("ring8", GenSpec(seed=3), 20),
        ("bench6", GenSpec(seed=11, radius_range=(0.0, 6.0)), 20),
        ("uneven9", GenSpec(seed=12, overlap_fraction=0.9), 20),
    ], ids=["generate-io", "noisy", "ring8", "radius-0-6", "uneven9"])
    def test_every_frame_of_a_scene(self, rig, spec, frames):
        n_points = sum(len(_assert_frame_matches(GEN_RIGS[rig], spec, i)[1]) for i in range(frames))
        assert n_points > frames * spec.clutter_points

    @EXAMPLES
    @given(areas=st.lists(st.floats(1e-4, 1e4) | st.sampled_from([1e-300, 1.0, 1e300]),
                          min_size=1, max_size=7))
    def test_area_total_is_numpys_sum(self, areas):
        """A box shows at most 3 faces; numpy sums up to 7 terms left to
        right, as accumulate does."""
        assert _float_bits([list(accumulate(areas))[-1]]) == _float_bits([float(np.sum(areas))])

    def test_origin_inside_a_box_samples_nothing(self):
        spec = GenSpec(seed=4, objects_per_frame=(1, 1), radius_range=(0.0, 0.0), clutter_points=0)
        objects, cloud = _assert_frame_matches(GEN_RIGS["bench6"], spec, 0)
        assert len(objects) == 1 and cloud.shape == (0, 3)

    def test_rng_left_in_the_same_state(self):
        """The draws after the last object (the clutter) come out the same, so
        every object's draws used the generator as the loop did."""
        spec = GenSpec(seed=8, lidar_points_range=(0, 3), clutter_points=5)
        for index in range(10):
            _, cloud = _assert_frame_matches(GEN_RIGS["ring8"], spec, index)
            assert len(cloud) >= 5


class TestFaceVisibility:
    """_faces_origin decides normal . center < 0 from the Python sum of the
    products outside a band around 0 and with np.dot inside it."""

    def test_a_face_plane_through_the_origin(self):
        # the -x face of this box has its center at the origin's x, so the
        # dot product with its normal is exactly 0: not visible
        box = Box3D(x=2.25, y=0.0, z=-0.9, l=4.5, w=1.9, h=1.6, theta=0.0)
        assert not _faces_origin((-1.0, -0.0, -0.0), (0.0, 0.0, -0.9))
        faces = _visible_faces(box)
        want = visible_faces_reference(box)
        assert len(faces) == len(want) == 1  # the bottom face only
        assert _float_bits(list(faces[0])) == _float_bits(
            [v for part in want[0] for v in np.atleast_1d(part).tolist()]
        )

    def test_inside_the_band_np_dot_decides(self):
        """x * x - x * x is 0 in Python; a fused multiply-add leaves the
        rounding error of x * x, of either sign."""
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.1, 30.0, 500).tolist():
            normal, center = (x, -x, 0.0), (x, x, 0.0)
            assert _faces_origin(normal, center) == (float(np.dot(normal, center)) < 0.0)

    def test_near_grazing_faces(self):
        """Boxes placed so that one face plane passes within about 1e-12 m
        of the origin: every face row, visibility included, has the bits of
        the per-box arrays the np.dot test was made on."""
        rng = np.random.default_rng(1)
        for _ in range(2000):
            theta = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(theta), math.sin(theta)
            l, w, h = rng.uniform(0.5, 5.0, 3).tolist()
            along = rng.uniform(-20.0, 20.0)
            tiny = rng.uniform(-1e-12, 1e-12)
            # the -x face center sits along the box's y axis, tiny off the plane
            x = -s * along + c * (l / 2.0 + tiny)
            y = c * along + s * (l / 2.0 + tiny)
            box = Box3D(x=x, y=y, z=rng.uniform(-2.0, 2.0), l=l, w=w, h=h, theta=theta)
            faces = _visible_faces(box)
            want = visible_faces_reference(box)
            assert [_float_bits(list(f)) for f in faces] == [
                _float_bits([v for part in f for v in np.atleast_1d(part).tolist()]) for f in want
            ]

    def test_non_finite_input_goes_to_np_dot(self):
        for center in [(math.inf, 0.0, 0.0), (math.nan, 1.0, 1.0), (-math.inf, 0.0, 0.0)]:
            assert _faces_origin((1.0, 0.0, 0.0), center) == (
                float(np.dot((1.0, 0.0, 0.0), center)) < 0.0
            )


class TestCameraAngles:
    @pytest.mark.parametrize("rig", sorted(GEN_RIGS))
    def test_cached_yaw_and_hfov_are_the_property_values(self, rig):
        for cam in GEN_RIGS[rig].cameras:
            fresh = dataclasses.replace(cam)
            assert _float_bits([fresh.yaw]) == _float_bits([camera_yaw_reference(cam)])
            assert _float_bits([fresh.hfov]) == _float_bits([camera_hfov_reference(cam)])
            assert fresh.yaw is fresh.yaw and fresh.hfov is fresh.hfov


class TestSimulateDetections:
    @pytest.mark.parametrize(
        "rig_spec, gen",
        [
            (RigSpec(), benchmark_gen_spec(7, noisy=True)),
            (RigSpec(), GenSpec(seed=8, embed_noise=0.2, miss_rate=0.3, bbox_jitter_px=40.0)),
            (RigSpec(), GenSpec(seed=9)),
            (RigSpec(n_cameras=8, yaw_spacing_deg=45.0, hfov_deg=100.0),
             GenSpec(seed=10, embed_noise=0.05, bbox_jitter_px=2.0, embed_dim=5)),
        ],
    )
    def test_matches_per_detection_provider(self, rig_spec, gen):
        """Every detection field, embedding bits included, equals those of
        the loop that calls embedding_provider once per detection."""
        rig = make_rig(rig_spec)
        n_shared = 0
        for index in range(6):
            objects, _ = generate_frame(rig, gen, index)
            got = simulate_detections(rig, objects, gen, index)
            want = simulate_detections_reference(rig, objects, gen, index)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.camera_id, g.class_id, g.truth_uid) == (w.camera_id, w.class_id, w.truth_uid)
                fields, want_fields = (g.score, *astuple(g.bbox)), (w.score, *astuple(w.bbox))
                assert [type(v) for v in fields] == [type(v) for v in want_fields]
                assert struct.pack("<5d", *fields) == struct.pack("<5d", *want_fields)
                assert g.embedding.dtype == w.embedding.dtype
                assert g.embedding.tobytes() == w.embedding.tobytes()
            uids = [d.truth_uid for d in got]
            n_shared += len(uids) - len(set(uids))
        assert n_shared > 0  # some objects are detected by two cameras


def _one_frame_scene(cloud, class_id="car"):
    rig = make_rig(RigSpec(n_cameras=2, yaw_spacing_deg=90.0, hfov_deg=120.0))
    obj = SceneObject(uid=3, class_id=class_id, box=Box3D(8.0, 1.0, -0.9, 4.5, 1.9, 1.6, 0.2))
    frames = (
        Frame(index=0, objects=(obj,), cloud=np.asarray(cloud, dtype=float)),
        Frame(index=1, objects=(), cloud=np.zeros((0, 3))),
    )
    return Scene(rig=rig, frames=frames)


def _written_text(tmp_path, scene):
    path = tmp_path / "scene.json"
    write_scene(path, scene)
    return path.read_text(encoding="utf-8")


_SAMPLED_CLOUD_VALUES = st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e16, -1e16, 1.5e300, 0.1, 1.0 / 3.0])
# write_scene refuses a non-finite cloud; other float lists (embeddings) hold any float
FINITE_CLOUD_VALUES = st.floats(allow_nan=False, allow_infinity=False) | _SAMPLED_CLOUD_VALUES
CLOUD_VALUES = st.floats(allow_nan=True, allow_infinity=True) | _SAMPLED_CLOUD_VALUES


class TestInlineSceneText:
    @EXAMPLES
    @given(values=st.lists(FINITE_CLOUD_VALUES, max_size=60))
    def test_matches_one_json_dumps(self, tmp_path_factory, values):
        cloud = np.array(values[: len(values) // 3 * 3], dtype=float).reshape(-1, 3)
        scene = _one_frame_scene(cloud)
        text = _written_text(tmp_path_factory.mktemp("scene"), scene)
        assert text == scene_text_reference(scene)

    @pytest.mark.parametrize(
        "cloud",
        [
            np.zeros((0, 3)),
            [[1.0, -2.5, 3.25]],
            [[-0.0, 0.0, -0.0]],
            [[1e-300, 5e-324, -1e-300]],
            [[1e16, -1e16, 123456789012345678.0]],
        ],
        ids=["empty", "one-point", "signed-zeros", "tiny", "huge"],
    )
    def test_edge_cases(self, tmp_path, cloud):
        scene = _one_frame_scene(cloud)
        assert _written_text(tmp_path, scene) == scene_text_reference(scene)

    def test_class_name_that_looks_like_a_cloud(self, tmp_path):
        scene = _one_frame_scene([[1.0, 2.0, 3.0]], class_id='"inline": null')
        assert _written_text(tmp_path, scene) == scene_text_reference(scene)

    def test_benchmark_scene(self, tmp_path, clean_scene):
        scene = Scene(rig=clean_scene.rig, frames=clean_scene.frames[:5])
        assert _written_text(tmp_path, scene) == scene_text_reference(scene)


TEXTS = st.text(max_size=6) | st.sampled_from(['"', "\\", "%", "%s", ", ", "pé-7", "雪", "cam0"])
BBOX_VALUES = (
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0, 3, -(2**60)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-(10**20), 10**20)
)


POSITIVE_BOX_VALUES = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from([1, 4.5, 1e16])


@st.composite
def _objects(draw):
    x, y, z, theta = draw(st.tuples(*[FINITE_CLOUD_VALUES | st.integers(-9, 9)] * 4))
    l, w, h = draw(st.tuples(*[POSITIVE_BOX_VALUES] * 3))
    return SceneObject(
        uid=draw(st.integers(-(2**70), 2**70) | TEXTS),
        class_id=draw(TEXTS),
        box=Box3D(x, y, z, l, w, h, theta),
    )


@st.composite
def _scenes(draw):
    frames = tuple(
        Frame(
            index=index,
            objects=tuple(draw(st.lists(_objects(), max_size=3))),
            cloud=np.array(draw(st.lists(st.tuples(*[FINITE_CLOUD_VALUES] * 3), max_size=4)), dtype=float),
        )
        for index in draw(st.lists(st.integers(0, 10**5), unique=True, max_size=3))
    )
    return Scene(rig=make_rig(RigSpec(n_cameras=2, yaw_spacing_deg=90.0, hfov_deg=120.0)), frames=frames)


BOX = Box3D(8.0, 1.0, -0.9, 4.5, 1.9, 1.6, 0.2)


class TestSceneText:
    """write_scene in both cloud formats against one json.dumps of the whole
    payload (scene_text_reference), and each side file against the cloud."""

    @staticmethod
    def _check(tmp_path, scene, lidar_bin):
        path = tmp_path / "scene.json"
        with np.errstate(over="ignore"):  # side files hold float32, which values above 3.4e38 overflow
            write_scene(path, scene, lidar_bin=lidar_bin)
        assert path.read_text(encoding="utf-8") == scene_text_reference(scene, lidar_bin)
        side_files = sorted(f.name for f in tmp_path.iterdir() if f.suffix == ".bin")
        if lidar_bin:
            assert side_files == sorted(f"scene_frame{frame.index:04d}.bin" for frame in scene.frames)
            for frame in scene.frames:
                blob = (tmp_path / f"scene_frame{frame.index:04d}.bin").read_bytes()
                with np.errstate(over="ignore"):
                    assert blob == np.asarray(frame.cloud, dtype="<f4").tobytes()
        else:
            assert side_files == []

    @EXAMPLES
    @given(scene=_scenes(), lidar_bin=st.booleans())
    def test_matches_one_json_dumps(self, tmp_path_factory, scene, lidar_bin):
        self._check(tmp_path_factory.mktemp("scene"), scene, lidar_bin)

    @pytest.mark.parametrize("lidar_bin", [False, True], ids=["inline", "bin"])
    @pytest.mark.parametrize(
        "objects",
        [
            (SceneObject(3, "car", BOX), SceneObject(-(2**70), "car", BOX)),
            (SceneObject("ped-7", "car", BOX), SceneObject('"%s雪', "car", BOX)),
            (SceneObject(3, 'say "car"', BOX),),
            (SceneObject(3, "%s %d %%", BOX), SceneObject("%s", "%r", BOX)),
            (SceneObject(3, "pé-7 雪 \U0001f697", BOX),),
            (),
            None,
        ],
        ids=["int_uids", "str_uids", "quote_class", "percent_class", "non_ascii_class", "no_objects",
             "no_frames"],
    )
    def test_edge_cases(self, tmp_path, objects, lidar_bin):
        """Frame 0 holds the objects (no frame at all for None); frame 1 has none."""
        scene = _one_frame_scene([[1.0, -2.5, 3.25], [0.0, -0.0, 1e16]])
        frames = () if objects is None else (replace(scene.frames[0], objects=objects), scene.frames[1])
        self._check(tmp_path, Scene(rig=scene.rig, frames=frames), lidar_bin)


@st.composite
def _detections(draw):
    x_min, x_max = sorted(draw(st.tuples(BBOX_VALUES, BBOX_VALUES)))
    y_min, y_max = sorted(draw(st.tuples(BBOX_VALUES, BBOX_VALUES)))
    embedding = draw(st.none() | st.lists(CLOUD_VALUES, max_size=5))
    return Detection2D(
        camera_id=draw(TEXTS),
        bbox=BBox2D(x_min, y_min, x_max, y_max),
        class_id=draw(TEXTS),
        score=draw(st.sampled_from([0, 1, 0.0, 1.0, np.float64(0.25)]) | st.floats(0.0, 1.0)),
        embedding=None if embedding is None else np.array(embedding, dtype=float),
        truth_uid=draw(st.none() | st.integers(-(2**70), 2**70) | TEXTS),
    )


def _detections_text(tmp_path, detections_by_frame):
    path = tmp_path / "dets.json"
    write_detections(path, detections_by_frame)
    return path.read_text(encoding="utf-8")


class TestDetectionText:
    @EXAMPLES
    @given(
        by_frame=st.dictionaries(
            st.integers(-3, 10**6), st.lists(_detections(), max_size=4), max_size=4
        )
    )
    def test_matches_one_json_dumps(self, tmp_path_factory, by_frame):
        text = _detections_text(tmp_path_factory.mktemp("dets"), by_frame)
        assert text == detections_text_reference(by_frame)

    def test_edge_cases(self, tmp_path):
        box = BBox2D(-0.0, 5e-324, 1e16, 7)
        by_frame = {
            9: [],
            5: [
                Detection2D("cam1", box, "car", 1, np.zeros(0), "ped-7"),
                Detection2D('c"\\', box, "%s, %d", np.float64(0.5), None, 3),
            ],
            2: [Detection2D("雪", BBox2D(0, 0, 1, 1), "x", 0.0, np.array([np.nan, -np.inf]))],
        }
        assert _detections_text(tmp_path, by_frame) == detections_text_reference(by_frame)
        assert _detections_text(tmp_path, {}) == detections_text_reference({}) == "[]\n"
        assert _detections_text(tmp_path, {0: [], 1: []}) == "[]\n"

    def test_simulated_benchmark_detections(self, tmp_path, bench_rig, noisy_scene):
        gen = benchmark_gen_spec(42, noisy=True)
        by_frame = {
            frame.index: simulate_detections(bench_rig, frame.objects, gen, frame.index)
            for frame in noisy_scene.frames[:5]
        }
        assert _detections_text(tmp_path, by_frame) == detections_text_reference(by_frame)

    def test_unencodable_uid_raises_before_writing(self, tmp_path):
        path = tmp_path / "dets.json"
        path.write_text("old", encoding="utf-8")
        det = Detection2D("cam0", BBox2D(0.0, 0.0, 1.0, 1.0), "car", 0.5, truth_uid=np.int64(4))
        with pytest.raises(TypeError):
            detections_text_reference({0: [det]})
        with pytest.raises(TypeError):
            write_detections(path, {0: [det]})
        assert path.read_text(encoding="utf-8") == "old"


PROBABILITY_WEIGHTS = st.lists(
    st.sampled_from([0.0, 1.0, 2.0, 0.1]) | st.floats(0.0, 100.0), min_size=1, max_size=6
)


class TestChoice:
    @EXAMPLES
    @given(
        weights=PROBABILITY_WEIGHTS,
        size=st.sampled_from([None, 0, 1]) | st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rng_choice(self, weights, size, seed):
        weights = np.array(weights)
        if not weights.sum() > 0.0:
            weights[-1] = 1.0
        p = weights / weights.sum()
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _choice(p, rng, size), choice_reference(p, reference_rng, size)
        if size is None:
            assert int(got) == want
        else:
            assert got.tolist() == want.tolist()
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize(
        "p",
        [
            [math.nan, 0.5],
            [0.5, 0.5, math.nan],
            [math.nan, math.nan],
            [-0.5, 1.5],
            [0.3, 0.3],
            [0.0, 0.0],
            [math.inf, 0.0, 0.0],
            [1.0, 1.0],
        ],
    )
    def test_raises_where_rng_choice_does(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            choice_reference(p, np.random.default_rng(0))
        with pytest.raises(ValueError):
            _choice(p, np.random.default_rng(0))

    def test_box_with_a_nan_dimension(self):
        # Box3D rejects it, so no sampler is handed a NaN face area; _choice's
        # own NaN guard is held by test_raises_where_rng_choice_does
        for l, w, h in [(math.nan, 1.9, 1.6), (4.5, math.nan, 1.6), (4.5, 1.9, math.nan)]:
            with pytest.raises(ValueError, match="box dimensions must be positive"):
                Box3D(x=9.0, y=-4.0, z=-0.9, l=l, w=w, h=h, theta=2.0)


ROW_VALUES = st.integers(-(2**70), 2**70) | st.floats(allow_nan=True, allow_infinity=True)


class TestFloatRows:
    @EXAMPLES
    @given(rows=st.lists(st.lists(ROW_VALUES, min_size=3, max_size=3), max_size=8))
    def test_matches_np_asarray(self, rows):
        assert _same_bits(_float_rows(rows, "rows", 3), float_rows_reference(rows, 3))

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[2**53 + 1, 2**60 + 3, -(2**63) - 1]],
            [[2**64, 2**64 + 1, -(2**80)], [3, 4, 5]],
            [[-0.0, math.nan, math.inf], [-math.inf, 0, 1.5]],
        ],
        ids=["empty", "above-2**53", "above-2**64", "non-finite"],
    )
    def test_edge_cases(self, rows):
        assert _same_bits(_float_rows(rows, "rows", 3), float_rows_reference(rows, 3))

    def test_int_too_large_for_a_float(self):
        rows = [[1.0, 2.0, 3.0], [10**400, 0, 0]]
        with pytest.raises(Exception) as want:
            float_rows_reference(rows, 3)
        with pytest.raises(want.type):
            _float_rows(rows, "rows", 3)


LOSS_CFG = LossConfig(alpha=0.5, beta=1.5)
VECTOR_VALUES = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, 0.5, 1.5])


def _assert_same_loss_results(got, want):
    for g, w in zip(got, want, strict=True):
        assert _same_bits(g, w)


class TestLossPrimitives:
    @EXAMPLES
    @given(logits=st.lists(VECTOR_VALUES, min_size=1, max_size=8), data=st.data())
    def test_cross_entropy(self, logits, data):
        true_class = data.draw(st.integers(0, len(logits) - 1))
        _assert_same_loss_results(
            cross_entropy(logits, true_class), cross_entropy_reference(logits, true_class)
        )

    @EXAMPLES
    @given(
        dim=st.integers(1, 6),
        data=st.data(),
        coincide=st.booleans(),
        scale=st.sampled_from([1e-3, 0.3, 1.0, 3.0]),
    )
    def test_pair_terms(self, dim, data, coincide, scale):
        a = np.array(data.draw(st.lists(VECTOR_VALUES, min_size=dim, max_size=dim))) * scale
        b = a.copy() if coincide else np.array(
            data.draw(st.lists(VECTOR_VALUES, min_size=dim, max_size=dim))
        ) * scale
        for term, reference in (
            (positive_pair_term, positive_pair_term_reference),
            (negative_pair_term, negative_pair_term_reference),
        ):
            _assert_same_loss_results(term(a, b, LOSS_CFG), reference(a, b, LOSS_CFG))

    def test_pair_terms_at_the_margins(self):
        a = np.zeros(2)
        for dist in (0.0, LOSS_CFG.alpha, LOSS_CFG.beta, 1.0, 2.0):
            b = np.array([dist, 0.0])
            for term, reference in (
                (positive_pair_term, positive_pair_term_reference),
                (negative_pair_term, negative_pair_term_reference),
            ):
                _assert_same_loss_results(term(a, b, LOSS_CFG), reference(a, b, LOSS_CFG))

    @EXAMPLES
    @given(
        images=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([None, 1, 2, 3]),
                    st.sampled_from([0.2, 0.9]),
                    st.integers(0, 2**32 - 1),
                ),
                max_size=5,
            ),
            max_size=3,
        )
    )
    def test_batch_loss(self, images):
        batch = []
        for proposals in images:
            batch.append([])
            for uid, iou, seed in proposals:
                rng = np.random.default_rng(seed)
                batch[-1].append(
                    Proposal(
                        class_logits=rng.uniform(-4.0, 4.0, 3),
                        true_class=int(rng.integers(0, 3)),
                        iou_with_gt=iou,
                        box_residual=rng.uniform(-2.0, 2.0, 4),
                        embedding=rng.uniform(-1.0, 1.0, 4),
                        truth_uid=uid,
                    )
                )
        got_breakdown, got_grads = batch_loss(batch, LOSS_CFG)
        want_breakdown, want_grads = batch_loss_reference(batch, LOSS_CFG)
        assert _same_bits(got_breakdown.total, want_breakdown.total)
        assert _same_bits(got_breakdown.reid, want_breakdown.reid)
        assert _same_bits(got_breakdown.per_image_box_head, want_breakdown.per_image_box_head)
        assert got_breakdown.foreground_counts == want_breakdown.foreground_counts
        assert got_breakdown.background_counts == want_breakdown.background_counts
        for field in ("residuals", "logits", "embeddings"):
            got_rows, want_rows = getattr(got_grads, field), getattr(want_grads, field)
            assert len(got_rows) == len(want_rows)
            for got_row, want_row in zip(got_rows, want_rows):
                assert len(got_row) == len(want_row)
                for g, w in zip(got_row, want_row):
                    assert (g is None) == (w is None)
                    if g is not None:
                        assert _same_bits(g, w)


# Few groups, classes, scores and grid positions, so that scores, IoUs and
# distances tie and distances land exactly on the thresholds.
MATCH_GROUPS = st.sampled_from([0, 1])
MATCH_CLASSES = st.sampled_from(["car", "cyclist"])
TIED_SCORES = st.sampled_from([0.25, 0.5, 0.75])
GRID = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
SIDES = st.sampled_from([1.0, 2.0])


@st.composite
def _grid_bboxes(draw):
    x, y = draw(GRID), draw(GRID)
    return BBox2D(x, y, x + draw(SIDES), y + draw(SIDES))


GRID_BOXES = st.builds(
    Box3D, x=GRID, y=GRID, z=st.just(-0.9), l=st.just(4.0), w=st.just(1.9), h=st.just(1.6),
    theta=st.just(0.0),
)
PREDS_2D = st.lists(
    st.builds(Pred2D, group=MATCH_GROUPS, class_id=MATCH_CLASSES, score=TIED_SCORES,
              bbox=_grid_bboxes()),
    max_size=8,
)
GTS_2D = st.lists(
    st.builds(Gt2D, group=MATCH_GROUPS, class_id=MATCH_CLASSES, bbox=_grid_bboxes(),
              height_px=st.just(30.0), truncation=st.just(0.0)),
    max_size=8,
)
PREDS_3D = st.lists(
    st.builds(Pred3D, group=MATCH_GROUPS, class_id=MATCH_CLASSES, score=TIED_SCORES,
              box=GRID_BOXES),
    max_size=8,
)
GTS_3D = st.lists(
    st.builds(Gt3D, group=MATCH_GROUPS, class_id=MATCH_CLASSES, box=GRID_BOXES), max_size=8
)


def _by_class(preds, gts):
    for cls in ("car", "cyclist"):
        yield [p for p in preds if p.class_id == cls], [g for g in gts if g.class_id == cls]


class TestGreedyMatcher:
    """ap_2d and evaluate_3d call the matcher one class at a time, as they called
    the old flag functions, which keyed ground truth by group alone."""

    @EXAMPLES
    @given(
        preds=PREDS_2D,
        gts=GTS_2D,
        threshold=st.sampled_from([0.25, 0.5, 1.0, 1 / 3]) | st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_2d_flags(self, preds, gts, threshold):
        for cls_preds, cls_gts in _by_class(preds, gts):
            want = tp_flags_2d_reference(cls_preds, cls_gts, threshold)
            assert _tp_flags(cls_preds, cls_gts, _iou_of, threshold) == want

    @EXAMPLES
    @given(
        preds=PREDS_3D,
        gts=GTS_3D,
        threshold=st.sampled_from([0.5, 1.0, 2.0, math.hypot(1.0, 1.0), math.hypot(1.0, 0.5)])
        | st.floats(0.0, 5.0),
    )
    def test_3d_flags_and_matches(self, preds, gts, threshold):
        got = match_3d(preds, gts, threshold)
        want = match_3d_reference(preds, gts, threshold)
        assert [(id(p), id(g)) for p, g in got] == [(id(p), id(g)) for p, g in want]
        for cls_preds, cls_gts in _by_class(preds, gts):
            want = tp_flags_3d_reference(cls_preds, cls_gts, threshold)
            assert _tp_flags(cls_preds, cls_gts, _closeness, -threshold) == want


# thresholds that grid distances meet exactly, so matches sit on their edge
EDGE_THRESHOLDS = st.sampled_from(
    [0.0, 0.5, 1.0, 2.0, 4.0, math.hypot(1.0, 1.0), math.hypot(1.0, 0.5), math.hypot(2.0, 1.0)]
)
THRESHOLDS = EDGE_THRESHOLDS | st.floats(0.0, 5.0)


@st.composite
def _eval_configs(draw):
    """Up to five distance thresholds, repeats allowed, and an error
    threshold that is one of them or any other."""
    thresholds = draw(st.lists(THRESHOLDS, min_size=1, max_size=5))
    inside = draw(st.booleans())
    tp = draw(st.sampled_from(thresholds) if inside else THRESHOLDS)
    return EvalConfig3D(center_distance_thresholds=tuple(thresholds), tp_error_threshold=tp)


GRID_BOXES_YAWED = st.builds(
    Box3D, x=GRID, y=GRID, z=st.just(-0.9), l=st.sampled_from([4.0, 0.8]),
    w=st.just(1.9), h=st.just(1.6), theta=st.sampled_from([0.0, 0.5, -3.0]),
)
# group 2 and class pedestrian have predictions but never ground truth
EVAL_PREDS = st.lists(
    st.builds(Pred3D, group=st.sampled_from([0, 1, 2]),
              class_id=st.sampled_from(["car", "cyclist", "pedestrian"]),
              score=TIED_SCORES, box=GRID_BOXES_YAWED),
    max_size=12,
)
EVAL_GTS = st.lists(
    st.builds(Gt3D, group=MATCH_GROUPS, class_id=MATCH_CLASSES, box=GRID_BOXES_YAWED),
    max_size=10,
)


def _bits_tree(value):
    """value with every float replaced by its IEEE bits."""
    if isinstance(value, dict):
        return {k: _bits_tree(v) for k, v in value.items()}
    if type(value) is float:
        return _float_bits([value])
    return value


FLAGS = st.lists(st.booleans(), max_size=30)


class TestEvaluation:
    """evaluate_3d over one distance table per class, and the AP curves
    without Python loops, against the code they replaced."""

    @EXAMPLES
    @given(preds=EVAL_PREDS, gts=EVAL_GTS, cfg=_eval_configs())
    def test_evaluate_3d(self, preds, gts, cfg):
        want = evaluate_3d_reference(preds, gts, cfg)
        assert _bits_tree(evaluate_3d(preds, gts, cfg)) == _bits_tree(want)

    @pytest.mark.parametrize("tp_error_threshold, passes", [(2.0, 4), (3.0, 5)],
                             ids=["inside", "outside"])
    def test_one_pass_per_distinct_threshold(self, monkeypatch, tp_error_threshold, passes):
        calls = []
        real = metrics_module._greedy_pass
        monkeypatch.setattr(metrics_module, "_greedy_pass",
                            lambda table, t: calls.append(t) or real(table, t))
        box = Box3D(0.0, 0.0, 0.0, 4.0, 1.9, 1.6, 0.0)
        preds = [Pred3D(0, "car", 0.9, box), Pred3D(0, "car", 0.8, box)]
        cfg = EvalConfig3D(center_distance_thresholds=(0.5, 1.0, 2.0, 4.0, 1.0),
                           tp_error_threshold=tp_error_threshold)
        got = evaluate_3d(preds, [Gt3D(0, "car", box)], cfg)
        assert got == evaluate_3d_reference(preds, [Gt3D(0, "car", box)], cfg)
        assert len(calls) == passes

    @EXAMPLES
    @given(data=st.data())
    def test_non_finite_distances_and_thresholds(self, data):
        """NaN and infinite centers give NaN and -inf closeness, which never
        match, whatever the threshold."""
        xs = GRID | st.sampled_from([math.nan, math.inf, -math.inf])
        boxes = st.builds(Box3D, x=xs, y=GRID, z=st.just(0.0), l=st.just(4.0),
                          w=st.just(1.9), h=st.just(1.6), theta=st.just(0.0))
        preds = data.draw(st.lists(st.builds(Pred3D, group=st.just(0), class_id=st.just("car"),
                                             score=TIED_SCORES, box=boxes), max_size=8))
        gts = data.draw(st.lists(st.builds(Gt3D, group=st.just(0), class_id=st.just("car"),
                                           box=boxes), max_size=8))
        edges = st.sampled_from([math.inf, -math.inf, math.nan])
        thresholds = data.draw(st.lists(THRESHOLDS | edges, min_size=1, max_size=3))
        cfg = EvalConfig3D(center_distance_thresholds=tuple(thresholds),
                           tp_error_threshold=data.draw(THRESHOLDS | edges))
        want = evaluate_3d_reference(preds, gts, cfg)
        assert _bits_tree(evaluate_3d(preds, gts, cfg)) == _bits_tree(want)

    def test_empty_inputs(self):
        cfg = EvalConfig3D()
        box = Box3D(0.0, 0.0, 0.0, 4.0, 1.9, 1.6, 0.0)
        for preds, gts in [([], []), ([Pred3D(0, "car", 0.5, box)], []),
                           ([], [Gt3D(0, "car", box)])]:
            want = evaluate_3d_reference(preds, gts, cfg)
            assert _bits_tree(evaluate_3d(preds, gts, cfg)) == _bits_tree(want)

    @EXAMPLES
    @given(flags=FLAGS, n_gt=st.integers(-1, 25))
    def test_normalized_ap(self, flags, n_gt):
        want = normalized_ap_reference(flags, n_gt)
        assert _float_bits([_normalized_ap(flags, n_gt)]) == _float_bits([want])

    @EXAMPLES
    @given(
        flags=FLAGS,
        n_gt=st.integers(1, 25),
        samples=st.none() | st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0, 0.5]),
                                     max_size=10),
    )
    def test_interpolated_precision_samples(self, flags, n_gt, samples):
        # the benchmark's samples, or others that also land on reachable recalls
        if samples is None:
            samples = _SAMPLE_RECALLS_2D.tolist()
        else:
            samples += [k / n_gt for k in range(n_gt + 1)]
        got = _interpolated_precision_samples(flags, n_gt, np.array(samples))
        want = interpolated_precision_samples_reference(flags, n_gt, samples)
        assert _float_bits(got.tolist()) == _float_bits(want)

    def test_2d_sample_recalls(self):
        want = [(i + 1) / N_RECALL_SAMPLES_2D for i in range(N_RECALL_SAMPLES_2D)]
        assert _float_bits(_SAMPLE_RECALLS_2D.tolist()) == _float_bits(want)


YAWS = st.sampled_from(
    [math.pi, -math.pi, 0.0, -0.0, float(np.nextafter(math.pi, 0.0)),
     float(np.nextafter(-math.pi, 0.0)), math.pi / 2, -math.pi / 2]
) | st.floats(-4.0, 4.0)


class TestBoxCorners:
    """box_corners' one stacked product against each box's own product."""

    @EXAMPLES
    @given(boxes=st.lists(
        st.builds(Box3D, x=st.floats(-60.0, 60.0), y=st.floats(-60.0, 60.0),
                  z=st.floats(-3.0, 12.0), l=st.floats(0.01, 20.0), w=st.floats(0.01, 4.0),
                  h=st.floats(0.01, 4.0), theta=YAWS),
        max_size=12,
    ))
    def test_stacked_equals_one_box_at_a_time(self, boxes):
        want = np.array([box_corners_one_box_reference(b) for b in boxes]).reshape(-1, 8, 3)
        assert _same_bits(box_corners(boxes), want)
        for box in boxes:
            assert _same_bits(box.corners(), box_corners_one_box_reference(box))

    def test_every_noisy_benchmark_box(self, noisy_scene, noisy_comparison):
        comparison, _ = noisy_comparison
        boxes = [obj.box for frame in noisy_scene.frames for obj in frame.objects]
        boxes += [pred.box for result in comparison.results.values()
                  for frame_boxes in result.boxes.values() for pred in frame_boxes]
        want = np.array([box_corners_one_box_reference(b) for b in boxes])
        assert _same_bits(box_corners(boxes), want)


class TestOverlapTruth:
    """A frame's overlap ground truth, counted from its 2D ground-truth
    projections, is what overlap_region_filter keeps."""

    @staticmethod
    def _kept_and_dropped(rig, frames):
        kept = dropped = 0
        for frame in frames:
            _, by_region = pipeline_module.frame_truth(rig, frame)
            gt3d, overlap = by_region["all"], by_region["overlap"]
            want = overlap_region_filter(rig, gt3d)
            assert [id(g) for g in overlap] == [id(g) for g in want]
            kept += len(want)
            dropped += len(gt3d) - len(want)
        return kept, dropped

    def test_noisy_benchmark(self, bench_rig, noisy_scene):
        kept, dropped = self._kept_and_dropped(bench_rig, noisy_scene.frames)
        assert kept > 0 and dropped > 0

    def test_ring8(self):
        # every object of this rig lies in an overlap
        rig = make_rig(RIGS["ring8"])
        frames = build_scene(rig, GenSpec(seed=3, n_frames=10)).frames
        assert self._kept_and_dropped(rig, frames) == (83, 0)

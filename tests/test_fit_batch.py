"""The batched box fit.

estimate_boxes fits a ragged batch of frustums in one pass.  These tests
hold it to the plain oracles on every frustum of the noisy benchmark and of
an eight-camera scene, batched as the pipeline batches them and as one
batch per scene, and to estimate_box called on one frustum at a time on
random batches.  The oracle keeps its gates by input, so the frustums that
tests/test_exactness.py also checks run the loop over windows once.
"""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sianms.pipeline as pipeline_module
from sianms.estimator import EstimatorConfig, TooFewPoints, _range_gate, estimate_box, estimate_boxes
from sianms.frustum import Frustum
from sianms.pipeline import PipelineConfig, Variant, compare_variants, run_pipeline
from sianms.synthgen import CLASS_DIMS, GenSpec, RigSpec, benchmark_gen_spec, make_rig

from _oracles import estimate_box_reference, range_gate_reference
from conftest import build_scene

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True)

# a class whose height prior is below the gate's 1e-9: its gate scores no
# vertical coverage
PRIORS = {**CLASS_DIMS, "flat": (4.0, 1.8, 1e-12)}


def _fields(box) -> bytes:
    return struct.pack("<7d", box.x, box.y, box.z, box.l, box.w, box.h, box.theta)


def _outcome(frustum, class_id, cfg):
    """estimate_box's fields as float bits, or the type and text of what it
    raises."""
    try:
        return _fields(estimate_box(frustum, class_id, cfg))
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def _reference(frustum, class_id, cfg):
    """estimate_box_reference's fields as float bits, None for TooFewPoints."""
    prior = cfg.dim_priors[class_id]
    points = np.asarray(frustum.points, dtype=float).reshape(-1, 3)
    gated = None
    if len(points) >= cfg.min_points:
        gate = max(cfg.range_gate_m, 0.75 * math.hypot(prior[0], prior[1]))
        gated = range_gate_reference(points, gate, frustum.extent, prior[2])
    want = estimate_box_reference(frustum, class_id, cfg, gated)
    return None if want is None else struct.pack("<7d", *want)


def _assert_batch_fits_as_alone(requests, cfg):
    """One batch of requests gives each the outcome a fresh copy of its
    frustum gets on its own."""
    estimate_boxes(requests, cfg)
    for frustum, class_id in requests:
        assert _outcome(frustum, class_id, cfg) == _outcome(dataclasses.replace(frustum), class_id, cfg)


def _pipeline_batches(run, monkeypatch):
    """Each list of requests estimate_boxes gets while run() runs."""
    batches = []
    real = pipeline_module.estimate_boxes

    def record(requests, cfg):
        batches.append((list(requests), cfg))
        return real(requests, cfg)

    monkeypatch.setattr(pipeline_module, "estimate_boxes", record)
    run()
    monkeypatch.undo()
    return batches


def _assert_batches_match_oracle(batches):
    """Fit each batch again on fresh frustums, then every distinct request
    of all of them in one batch; each outcome equals the oracle's."""
    distinct = {}
    for requests, cfg in batches:
        fresh = {id(f): dataclasses.replace(f) for f, _ in requests}
        estimate_boxes([(fresh[id(f)], class_id) for f, class_id in requests], cfg)
        for f, class_id in requests:
            distinct.setdefault((id(f), class_id), (fresh[id(f)], class_id, cfg))
    cfg = batches[0][1]
    assert all(c is cfg for _, c in batches)
    whole = [(dataclasses.replace(f), class_id) for f, class_id, _ in distinct.values()]
    estimate_boxes(whole, cfg)
    for (f, class_id, _), (g, _) in zip(distinct.values(), whole):
        want = _reference(f, class_id, cfg)
        if want is None:
            want = TooFewPoints, f"{len(f)} points < min_points {cfg.min_points}"
        assert _outcome(f, class_id, cfg) == want and _outcome(g, class_id, cfg) == want
    return distinct


class TestEveryBenchmarkFrustum:
    def test_every_noisy_benchmark_frustum(self, noisy_scene, monkeypatch):
        """The original and sianms variants' batches of the noisy benchmark
        (the other two variants reuse the original's frustums)."""
        cfg = PipelineConfig(gen=benchmark_gen_spec(42, noisy=True))
        batches = _pipeline_batches(
            lambda: [run_pipeline(noisy_scene, v, cfg) for v in (Variant.ORIGINAL, Variant.SIANMS)],
            monkeypatch,
        )
        assert len(batches) == 2 * len(noisy_scene.frames)
        distinct = _assert_batches_match_oracle(batches)
        assert len(distinct) > 600
        # the whole scene's batch ranks its heights wider than int16
        assert sum(len(f) for f, _, _ in distinct.values()) > 32767
        assert sum(len(f.sources) == 2 for f, _, _ in distinct.values()) > 100

    def test_every_ring8_frustum(self, monkeypatch):
        """The four variants' batches of a clean 3-frame scene on the
        eight-camera rig, where most objects are seen by three cameras."""
        rig = make_rig(RigSpec(n_cameras=8, yaw_spacing_deg=45.0, hfov_deg=100.0))
        gen = GenSpec(seed=3, n_frames=3)
        scene = build_scene(rig, gen)
        batches = _pipeline_batches(lambda: compare_variants(scene, PipelineConfig(gen=gen)), monkeypatch)
        distinct = _assert_batches_match_oracle(batches)
        assert len(distinct) > 50
        assert sum(len(f.sources) == 2 for f, _, _ in distinct.values()) > 5


def _points(n, seed, kind):
    """n points around a random ground position.  ties rounds coordinates to
    decimeters, so ranges and heights repeat; zeros also sets every height
    to -0.0 or +0.0."""
    rng = np.random.default_rng(seed)
    center = np.array([rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0), 0.0])
    points = center + rng.normal(size=(n, 3)) * rng.uniform(0.2, 8.0, size=3)
    if kind != "plain":
        points = np.round(points, 1)
    if kind == "zeros":
        points[:, 2] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return points


SEGMENTS = st.lists(
    st.tuples(
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["plain", "ties", "zeros"]),
        st.floats(-math.pi, math.pi),
        st.sampled_from([0.0, 1e-12, 0.2]) | st.floats(0.0, 2.0 * math.pi - 1e-6),
        st.floats(-math.pi, math.pi, exclude_min=True),
        st.sampled_from([*sorted(PRIORS), "boat"]),
        st.integers(1, 2),
    ),
    min_size=1,
    max_size=8,
)


class TestBatchEqualsOneAtATime:
    @EXAMPLES
    @given(
        segments=SEGMENTS,
        yaw_mode=st.sampled_from(["pca", "frustum-axis"]),
        min_points=st.integers(1, 12),
        range_gate_m=st.floats(0.1, 6.0),
        quantile=st.sampled_from([0.0, 0.04, 0.25]) | st.floats(0.0, 0.4999),
    )
    def test_ragged_batch(self, segments, yaw_mode, min_points, range_gate_m, quantile):
        """Segments below min_points and of one point, tied ranges, heights
        of tied -0.0 and +0.0, zero-width extents, a height prior below 1e-9, a
        class without a prior, and a frustum asked for twice in one batch."""
        cfg = EstimatorConfig(
            dim_priors=PRIORS, yaw_mode=yaw_mode, min_points=min_points,
            range_gate_m=range_gate_m, extent_quantile=quantile,
        )
        requests = []
        for n, seed, kind, start, width, axis, class_id, asked in segments:
            frustum = Frustum(points=_points(n, seed, kind), extent=(start, start + width), central_axis=axis)
            requests += [(frustum, class_id)] * asked
        _assert_batch_fits_as_alone(requests, cfg)

    def test_more_points_than_int16_ranks_among_small_frustums(self):
        cfg = EstimatorConfig()
        sizes = (40, 33000, 1, 120)
        requests = [
            (Frustum(points=_points(n, seed, "ties"), extent=(-0.5, 0.5), central_axis=0.0), "car")
            for seed, n in enumerate(sizes)
        ]
        _assert_batch_fits_as_alone(requests, cfg)

    def test_range_tied_across_frustums(self):
        """The first frustum's last range equals the second's first, 5 m.
        The second's best window holds its three points, whose median is
        6 m; counting the first frustum's 5 m point into the window's tie
        run would give 5.5 m and drop the point at 7 m."""
        cfg = EstimatorConfig(dim_priors={"pedestrian": (0.8, 0.6, 1.75)}, min_points=1, range_gate_m=1.0)
        first = Frustum(points=np.array([[1.0, 0.0, 0.0], [5.0, 0.0, 0.0]]), extent=(0.3, 0.3), central_axis=0.0)
        second = Frustum(
            points=np.array([[5.0, 0.0, 0.0], [6.0, 0.0, 2.0], [7.0, 0.0, 4.0]]),
            extent=(0.3, 0.3), central_axis=0.0,
        )
        _assert_batch_fits_as_alone([(first, "pedestrian"), (second, "pedestrian")], cfg)
        assert _range_gate(second.points, 1.0, second.extent, 1.75).tobytes() == second.points.tobytes()

    def test_class_without_prior_raises_when_asked(self):
        """The batch fits the other requests and leaves the one without a
        prior to estimate_box, which raises KeyError as a fit alone does."""
        kept = Frustum(points=_points(50, 1, "plain"), extent=(-0.5, 0.5), central_axis=0.0)
        other = Frustum(points=_points(50, 2, "plain"), extent=(-0.5, 0.5), central_axis=0.0)
        cfg = EstimatorConfig()
        estimate_boxes([(other, "boat"), (kept, "car")], cfg)
        assert len(kept.boxes) == 1 and other.boxes == {}
        with pytest.raises(KeyError, match="boat"):
            estimate_box(other, "boat", cfg)


def test_window_scoring_the_bound_exactly_can_win():
    """The gate scores a height block only for windows whose azimuth-only
    score reaches the bound, the score of the best such window.  Here the
    20-point window at 20 m scores 20 by count alone and 20 * 0.5 = 10 with
    its height span of half the prior, which is the bound; the 10-point
    window at 10 m scores 10 by count and keeps it, as its heights span the
    whole prior.  It comes first, so it wins the tie, and only if a window
    at the bound is scored."""
    near = np.column_stack([10.0 + 0.1 * np.arange(10), np.zeros(10), np.linspace(0.0, 3.0, 10)])
    far = np.column_stack([20.0 + 0.1 * np.arange(20), np.zeros(20), np.tile([0.0, 0.75], 10)])
    points = np.concatenate([far, near])
    gated = _range_gate(points, 1.0, (0.3, 0.3), 1.5)
    assert gated.tobytes() == near.tobytes()
    assert gated.tobytes() == range_gate_reference(points, 1.0, (0.3, 0.3), 1.5).tobytes()

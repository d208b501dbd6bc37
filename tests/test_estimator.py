"""Box fitting from frustum point sets."""

import math

import numpy as np
import pytest

from sianms.estimator import EstimatorConfig, TooFewPoints, estimate_box, estimate_boxes
from sianms.frustum import Frustum
from sianms.scene import Box3D, wrap_angle
from sianms.synthgen import CLASS_DIMS, GROUND_Z, sample_surface_points

from _oracles import full_surface_sample

CFG = EstimatorConfig()


def _frustum_around(box, points, pad=0.10):
    """Frustum whose wedge covers the box footprint with a small margin."""
    az = math.atan2(box.y, box.x)
    r = math.hypot(box.x, box.y)
    half = math.atan2(math.hypot(box.l, box.w) / 2.0, r) + pad
    return Frustum(
        points=np.asarray(points, dtype=float),
        extent=(wrap_angle(az - half), wrap_angle(az + half)),
        central_axis=wrap_angle(az),
        sources=("cam0",),
    )


def _make_box(x, y, theta, cls="car"):
    l, w, h = CLASS_DIMS[cls]
    return Box3D(x=x, y=y, z=GROUND_Z + h / 2.0, l=l, w=w, h=h, theta=theta)


def _yaw_error_mod_pi(a, b):
    err = abs(wrap_angle(a - b))
    return min(err, abs(wrap_angle(err - math.pi)))


class TestValidation:
    def test_too_few_points(self):
        box = _make_box(10.0, 0.0, 0.3)
        pts = np.tile([[10.0, 0.0, GROUND_Z]], (4, 1))
        with pytest.raises(TooFewPoints):
            estimate_box(_frustum_around(box, pts), "car", CFG)

    def test_unknown_class(self):
        box = _make_box(10.0, 0.0, 0.3)
        rng = np.random.default_rng(0)
        pts = sample_surface_points(box, 100, rng)
        with pytest.raises(KeyError):
            estimate_box(_frustum_around(box, pts), "boat", CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(min_points=0)
        with pytest.raises(ValueError):
            EstimatorConfig(extent_quantile=0.6)
        with pytest.raises(ValueError):
            EstimatorConfig(yaw_mode="magic")


class TestDeterminism:
    def test_repeatable(self):
        box = _make_box(12.0, 3.0, 0.9)
        rng = np.random.default_rng(1)
        pts = sample_surface_points(box, 150, rng)
        # two frustums, so that the second fit is not the first one kept
        a = estimate_box(_frustum_around(box, pts), "car", CFG)
        b = estimate_box(_frustum_around(box, pts), "car", CFG)
        assert (a.x, a.y, a.z, a.theta) == (b.x, b.y, b.z, b.theta)
        assert (a.l, a.w, a.h) == (b.l, b.w, b.h)

    def test_fit_is_kept_per_class_and_config(self):
        """A frustum answers a repeated class and config with the same box,
        or a new TooFewPoints with the same text; another class or a config
        of another value is fitted afresh, and the fit stays right for
        configs made after earlier ones are dropped."""
        box = _make_box(12.0, 3.0, 0.9)
        f = _frustum_around(box, sample_surface_points(box, 150, np.random.default_rng(1)))
        kept = estimate_box(f, "car", CFG)
        assert estimate_box(f, "car", CFG) is kept
        assert estimate_box(f, "pedestrian", CFG).l < kept.l
        assert estimate_box(f, "car", EstimatorConfig(yaw_mode="frustum-axis")).theta == f.central_axis
        few = EstimatorConfig(min_points=1000)
        texts = []
        for _ in range(2):
            with pytest.raises(TooFewPoints) as raised:
                estimate_box(f, "car", few)
            texts.append(raised.value)
        assert texts[0] is not texts[1] and str(texts[0]) == str(texts[1])
        for _ in range(20):
            with pytest.raises(TooFewPoints):
                estimate_box(f, "car", EstimatorConfig(min_points=1000))
            assert estimate_box(f, "car", EstimatorConfig()) == kept

    def test_equal_configs_share_a_fit(self):
        """A frustum keeps a box by class and config value, so a distinct but
        equal config gets the same Box3D object, from estimate_box and after
        estimate_boxes alike."""
        box = _make_box(12.0, 3.0, 0.9)
        points = sample_surface_points(box, 150, np.random.default_rng(1))
        f = _frustum_around(box, points)
        first, second = EstimatorConfig(), EstimatorConfig(dim_priors=dict(CLASS_DIMS))
        assert first is not second and first == second
        kept = estimate_box(f, "car", first)
        assert estimate_box(f, "car", second) is kept
        assert len(f.boxes) == 1
        g = _frustum_around(box, points)
        estimate_boxes([(g, "car")], first)
        assert estimate_box(g, "car", EstimatorConfig()) is g.boxes["car", first]

    @pytest.mark.parametrize("change", [
        {"dim_priors": {**CLASS_DIMS, "car": (4.0, 1.8, 1.5)}},
        {"dim_priors": {**CLASS_DIMS, "cyclist": (1.7, 0.6, 1.7)}},
        {"range_gate_m": 0.5},
        {"extent_quantile": 0.2},
        {"min_points": 4},
        {"yaw_mode": "frustum-axis"},
    ], ids=["car-prior", "other-prior", "range-gate", "quantile", "min-points", "yaw-mode"])
    def test_config_of_another_value_gets_its_own_fit(self, change):
        box = _make_box(12.0, 3.0, 0.9)
        f = _frustum_around(box, sample_surface_points(box, 150, np.random.default_rng(1)))
        kept = estimate_box(f, "car", CFG)
        other = EstimatorConfig(**change)
        assert other != CFG
        fitted = estimate_box(f, "car", other)
        assert fitted is not kept and estimate_box(f, "car", other) is fitted
        assert len(f.boxes) == 2 and estimate_box(f, "car", CFG) is kept
        # each box is the one a fresh frustum fits under its own config
        for cfg, expected in ((CFG, kept), (other, fitted)):
            assert estimate_box(_frustum_around(box, f.points), "car", cfg) == expected

    def test_equal_configs_hash_equal(self):
        assert hash(EstimatorConfig()) == hash(EstimatorConfig(dim_priors=dict(CLASS_DIMS)))
        assert hash(EstimatorConfig(range_gate_m=3)) == hash(EstimatorConfig(range_gate_m=3.0))
        # dim_priors is left out of the hash, not out of equality
        other = EstimatorConfig(dim_priors={"car": (4.0, 1.8, 1.5)})
        assert hash(other) == hash(CFG) and other != CFG
        assert len({EstimatorConfig(), EstimatorConfig(), other}) == 2

    def test_permutation_invariant(self):
        box = _make_box(12.0, 3.0, 0.9)
        rng = np.random.default_rng(2)
        pts = sample_surface_points(box, 150, rng)
        perm = rng.permutation(len(pts))
        a = estimate_box(_frustum_around(box, pts), "car", CFG)
        b = estimate_box(_frustum_around(box, pts[perm]), "car", CFG)
        np.testing.assert_allclose(a.center, b.center, atol=1e-9)
        assert a.theta == pytest.approx(b.theta, abs=1e-9)
        np.testing.assert_allclose([a.l, a.w, a.h], [b.l, b.w, b.h], atol=1e-9)


class TestAccuracySweep:
    def test_full_surface_recovery(self):
        # 200 random cars sampled over their whole surface: center within
        # 0.3 m and yaw within 0.2 rad (mod pi, the footprint symmetry).
        rng = np.random.default_rng(777)
        worst_center, worst_yaw = 0.0, 0.0
        for _ in range(200):
            az = rng.uniform(-math.pi, math.pi)
            r = rng.uniform(5.0, 30.0)
            yaw = rng.uniform(-math.pi, math.pi)
            box = _make_box(r * math.cos(az), r * math.sin(az), yaw)
            pts = full_surface_sample(box, 240, rng)
            half = math.radians(6.0) + math.atan2(math.hypot(box.l, box.w) / 2.0, r)
            f = Frustum(
                points=pts,
                extent=(wrap_angle(az - half), wrap_angle(az + half)),
                central_axis=wrap_angle(az),
                sources=("cam0",),
            )
            est = estimate_box(f, "car", CFG)
            center_err = float(
                np.linalg.norm(np.subtract(est.center, box.center))
            )
            yaw_err = _yaw_error_mod_pi(est.theta, box.theta)
            worst_center = max(worst_center, center_err)
            worst_yaw = max(worst_yaw, yaw_err)
        assert worst_center < 0.3
        assert worst_yaw < 0.2

    def test_dimension_floor_and_cap(self):
        prior = CLASS_DIMS["car"]
        box = _make_box(10.0, 0.0, 0.0)
        rng = np.random.default_rng(5)
        pts = full_surface_sample(box, 300, rng)
        est = estimate_box(_frustum_around(box, pts), "car", CFG)
        assert est.l >= prior[0] - 1e-9 and est.l <= 2.0 * prior[0] + 1e-9
        assert est.w >= prior[1] - 1e-9 and est.w <= 2.0 * prior[1] + 1e-9
        assert est.h >= prior[2] - 1e-9 and est.h <= 2.0 * prior[2] + 1e-9

    def test_tight_cluster_falls_back_to_prior_dims(self):
        box = _make_box(10.0, 0.0, 0.0)
        rng = np.random.default_rng(6)
        pts = np.array([10.0, 0.0, GROUND_Z + 0.8]) + 0.01 * rng.standard_normal((30, 3))
        est = estimate_box(_frustum_around(box, pts), "car", CFG)
        assert (est.l, est.w, est.h) == CLASS_DIMS["car"]


class TestRangeGate:
    def test_far_clutter_ignored(self):
        box = _make_box(10.0, 0.0, 0.2)
        rng = np.random.default_rng(7)
        surface = sample_surface_points(box, 150, rng)
        # A sparse wall of clutter 12 m behind the car inside the same wedge.
        far = np.array([24.0, 0.0, GROUND_Z]) + rng.uniform(-1.0, 1.0, size=(20, 3))
        pts = np.vstack([surface, far])
        est = estimate_box(_frustum_around(box, pts), "car", CFG)
        err = float(np.linalg.norm(np.subtract(est.center, box.center)))
        assert err < 0.5

    def test_near_clutter_ignored(self):
        box = _make_box(14.0, 0.0, 0.2)
        rng = np.random.default_rng(8)
        surface = sample_surface_points(box, 150, rng)
        near = np.array([5.0, 0.0, GROUND_Z]) + rng.uniform(-0.8, 0.8, size=(15, 3))
        pts = np.vstack([surface, near])
        est = estimate_box(_frustum_around(box, pts), "car", CFG)
        err = float(np.linalg.norm(np.subtract(est.center, box.center)))
        assert err < 0.5


class TestContainment:
    def test_majority_of_points_inside_output(self):
        # Single-object frustums with modest clutter keep at least half the
        # input points inside the fitted box.
        rng = np.random.default_rng(9)
        for trial in range(25):
            az = rng.uniform(-math.pi, math.pi)
            r = rng.uniform(8.0, 25.0)
            yaw = rng.uniform(-math.pi, math.pi)
            box = _make_box(r * math.cos(az), r * math.sin(az), yaw)
            pts = sample_surface_points(box, 140, rng)
            est = estimate_box(_frustum_around(box, pts), "car", CFG)
            c, s = math.cos(est.theta), math.sin(est.theta)
            local = (pts - np.asarray(est.center)) @ np.array(
                [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
            )
            half = np.array([est.l, est.w, est.h]) / 2.0
            inside = np.all(np.abs(local) <= half + 1e-9, axis=1)
            assert inside.mean() >= 0.5, f"trial {trial}: {inside.mean():.3f}"


class TestYawModes:
    def test_axis_mode_uses_frustum_axis(self):
        box = _make_box(10.0, 0.0, 0.4)
        rng = np.random.default_rng(10)
        pts = sample_surface_points(box, 150, rng)
        f = _frustum_around(box, pts)
        est = estimate_box(f, "car", EstimatorConfig(yaw_mode="frustum-axis"))
        assert est.theta == pytest.approx(f.central_axis, abs=1e-12)

    def test_pca_mode_recovers_heading(self):
        box = _make_box(10.0, 0.0, 0.4)
        rng = np.random.default_rng(11)
        pts = full_surface_sample(box, 300, rng)
        est = estimate_box(_frustum_around(box, pts), "car", CFG)
        assert _yaw_error_mod_pi(est.theta, 0.4) < 0.15

    def test_yaw_in_half_open_interval_about_axis(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            az = rng.uniform(-math.pi, math.pi)
            box = _make_box(12.0 * math.cos(az), 12.0 * math.sin(az),
                            rng.uniform(-math.pi, math.pi))
            pts = full_surface_sample(box, 220, rng)
            half = math.radians(6.0) + math.atan2(math.hypot(box.l, box.w) / 2.0, 12.0)
            f = Frustum(
                points=pts,
                extent=(wrap_angle(az - half), wrap_angle(az + half)),
                central_axis=wrap_angle(az),
                sources=("cam0",),
            )
            est = estimate_box(f, "car", CFG)
            rel = wrap_angle(est.theta - f.central_axis)
            assert -math.pi / 2.0 < rel <= math.pi / 2.0 + 1e-12

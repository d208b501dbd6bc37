"""Loss primitives: hand values, analytic gradients, batch composition."""

import math

import numpy as np
import pytest
from scipy.special import log_softmax

from sianms.losses import (
    BatchLossBreakdown,
    LossConfig,
    MismatchedDims,
    Proposal,
    batch_loss,
    cross_entropy,
    negative_pair_term,
    ohem_select,
    positive_pair_term,
    smooth_l1,
)

from _oracles import central_difference, grad_check

CFG = LossConfig(alpha=0.5, beta=1.5)


class TestLossConfig:
    def test_margin_ordering_enforced(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.5, beta=0.5)
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1, beta=1.0)
        with pytest.raises(ValueError):
            LossConfig(smooth_l1_delta=0.0)


class TestSmoothL1:
    def test_hand_values(self):
        assert smooth_l1(0.5, 1.0) == (0.125, 0.5)
        assert smooth_l1(2.0, 1.0) == (1.5, 1.0)
        assert smooth_l1(-2.0, 1.0) == (1.5, -1.0)
        assert smooth_l1(0.0, 1.0) == (0.0, 0.0)

    def test_continuous_at_crossover(self):
        delta = 0.7
        below, _ = smooth_l1(delta - 1e-12, delta)
        above, _ = smooth_l1(delta + 1e-12, delta)
        assert below == pytest.approx(above, abs=1e-9)
        assert below == pytest.approx(delta / 2.0, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = float(rng.uniform(-3.0, 3.0))
            delta = float(rng.uniform(0.3, 2.0))
            if abs(abs(x) - delta) < 1e-4 or abs(x) < 1e-4:
                continue  # kink of the piecewise definition
            _, grad = smooth_l1(x, delta)
            numeric = central_difference(lambda v: smooth_l1(v, delta)[0], x)
            assert grad == pytest.approx(numeric, rel=1e-6, abs=1e-9)


class TestCrossEntropy:
    def test_matches_scipy_log_softmax(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            logits = rng.standard_normal(rng.integers(2, 8))
            true_class = int(rng.integers(0, len(logits)))
            value, _ = cross_entropy(logits, true_class)
            assert value == pytest.approx(-log_softmax(logits)[true_class], abs=1e-12)

    def test_uniform_logits(self):
        value, grad = cross_entropy(np.zeros(4), 2)
        assert value == pytest.approx(math.log(4.0))
        np.testing.assert_allclose(grad.sum(), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        logits = rng.standard_normal(5)
        _, grad = cross_entropy(logits, 1)
        grad_check(lambda z: cross_entropy(z, 1)[0], logits, grad)

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_entropy([], 0)
        with pytest.raises(ValueError):
            cross_entropy([1.0, 2.0], 2)

    def test_large_logits_stable(self):
        value, _ = cross_entropy(np.array([1000.0, 0.0]), 0)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestPairTerms:
    def test_positive_hand_value(self):
        a, b = np.array([0.0, 0.0]), np.array([1.5, 0.0])
        value, ga, gb = positive_pair_term(a, b, CFG)
        assert value == pytest.approx(0.5)  # 0.5 * (1.5 - 0.5)^2
        np.testing.assert_allclose(ga, [-1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(gb, [1.0, 0.0], atol=1e-12)

    def test_positive_zero_inside_margin(self):
        a, b = np.array([0.0]), np.array([0.3])
        value, ga, gb = positive_pair_term(a, b, CFG)
        assert value == 0.0
        assert not ga.any() and not gb.any()

    def test_negative_hand_value(self):
        a, b = np.array([0.0]), np.array([0.5])
        value, ga, gb = negative_pair_term(a, b, CFG)
        assert value == pytest.approx(0.5)  # 0.5 * (1.5 - 0.5)^2
        np.testing.assert_allclose(ga, [1.0], atol=1e-12)
        np.testing.assert_allclose(gb, [-1.0], atol=1e-12)

    def test_negative_zero_outside_margin(self):
        value, ga, gb = negative_pair_term(np.zeros(2), np.array([2.0, 0.0]), CFG)
        assert value == 0.0
        assert not ga.any() and not gb.any()

    def test_coincident_points_subgradient_zero(self):
        a = np.array([0.7, -0.2])
        value, ga, gb = negative_pair_term(a, a.copy(), CFG)
        assert value == pytest.approx(0.5 * CFG.beta**2)
        assert not ga.any() and not gb.any()
        value, ga, gb = positive_pair_term(a, a.copy(), CFG)
        assert value == 0.0 and not ga.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(34)
        for term in (positive_pair_term, negative_pair_term):
            for _ in range(25):
                a = rng.standard_normal(4)
                b = rng.standard_normal(4)
                dist = float(np.linalg.norm(a - b))
                if min(abs(dist - CFG.alpha), abs(dist - CFG.beta)) < 1e-3:
                    continue  # hinge kink
                _, ga, gb = term(a, b, CFG)
                grad_check(lambda v: term(v, b, CFG)[0], a, ga)
                grad_check(lambda v: term(a, v, CFG)[0], b, gb)


class TestOhemSelect:
    def test_selects_hardest_negatives(self):
        picked = ohem_select(["p1", "p2"], ["n1", "n2", "n3"], [0.1, 0.9, 0.5])
        assert picked == [1, 2]

    def test_tie_breaks_by_index(self):
        picked = ohem_select(["p1"], ["n1", "n2"], [0.5, 0.5])
        assert picked == [0]

    def test_count_capped_by_both_sides(self):
        assert ohem_select([], ["n1"], [1.0]) == []
        assert ohem_select(["p1", "p2"], ["n1"], [1.0]) == [0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ohem_select(["p"], ["n1", "n2"], [1.0])


def _proposal(rng, uid, fg=True, dim=4):
    return Proposal(
        class_logits=rng.standard_normal(3),
        true_class=int(rng.integers(0, 3)),
        iou_with_gt=0.9 if fg else 0.2,
        box_residual=rng.uniform(-2.0, 2.0, 4) if fg else None,
        embedding=rng.standard_normal(dim) if fg else None,
        truth_uid=uid,
    )


class TestBatchLoss:
    def test_total_decomposition(self):
        rng = np.random.default_rng(36)
        images = [
            [_proposal(rng, 1), _proposal(rng, 2), _proposal(rng, None, fg=False)],
            [_proposal(rng, 1), _proposal(rng, 3)],
        ]
        breakdown, _ = batch_loss(images, CFG)
        assert isinstance(breakdown, BatchLossBreakdown)
        assert breakdown.total == pytest.approx(
            breakdown.reid + sum(breakdown.per_image_box_head)
        )
        assert breakdown.foreground_counts == [2, 2]
        assert breakdown.background_counts == [1, 0]

    def test_foreground_threshold_is_strict(self):
        rng = np.random.default_rng(37)
        prop = Proposal(
            class_logits=rng.standard_normal(2),
            true_class=0,
            iou_with_gt=CFG.foreground_iou,  # not strictly above
        )
        breakdown, _ = batch_loss([[prop]], CFG)
        assert breakdown.foreground_counts == [0]

    def test_foreground_without_residual_rejected(self):
        prop = Proposal(class_logits=np.zeros(2), true_class=0, iou_with_gt=0.9)
        with pytest.raises(ValueError):
            batch_loss([[prop]], CFG)

    def test_mixed_embedding_dims_rejected(self):
        rng = np.random.default_rng(38)
        images = [[_proposal(rng, 1, dim=4), _proposal(rng, 2, dim=5)]]
        with pytest.raises(MismatchedDims):
            batch_loss(images, CFG)

    def test_gradient_structure(self):
        rng = np.random.default_rng(39)
        images = [[_proposal(rng, 1), _proposal(rng, None, fg=False)]]
        _, grads = batch_loss(images, CFG)
        assert grads.residuals[0][0] is not None
        assert grads.residuals[0][1] is None
        assert len(grads.logits[0]) == 2
        # a lone foreground embedding joins no pair: zero gradient, not None
        np.testing.assert_array_equal(grads.embeddings[0][0], np.zeros(4))
        assert grads.embeddings[0][1] is None

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(40)
        images = [
            [_proposal(rng, 1), _proposal(rng, 2)],
            [_proposal(rng, 1), _proposal(rng, 3), _proposal(rng, None, fg=False)],
        ]
        _, grads = batch_loss(images, CFG)

        def rebuild(images, img_idx, prop_idx, field, value):
            rebuilt = []
            for i, props in enumerate(images):
                row = []
                for j, prop in enumerate(props):
                    if i == img_idx and j == prop_idx:
                        kwargs = {
                            "class_logits": prop.class_logits,
                            "true_class": prop.true_class,
                            "iou_with_gt": prop.iou_with_gt,
                            "box_residual": prop.box_residual,
                            "embedding": prop.embedding,
                            "truth_uid": prop.truth_uid,
                        }
                        kwargs[field] = value
                        prop = Proposal(**kwargs)
                    row.append(prop)
                rebuilt.append(row)
            return rebuilt

        for i, props in enumerate(images):
            for j, prop in enumerate(props):
                for field, grad in (
                    ("box_residual", grads.residuals[i][j]),
                    ("class_logits", grads.logits[i][j]),
                    ("embedding", grads.embeddings[i][j]),
                ):
                    base = getattr(prop, field)
                    if base is None or grad is None:
                        continue
                    grad_check(
                        lambda v, f=field: batch_loss(rebuild(images, i, j, f, v), CFG)[0].total,
                        np.asarray(base, dtype=float),
                        grad,
                        rel_tol=1e-4,
                    )

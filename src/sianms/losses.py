"""Detection and re-identification losses with analytic gradients.

The batch loss combines, per image, smooth-L1 box regression over foreground
proposals and cross-entropy classification over all proposals, plus one
batch-level re-identification term: a double-margin contrastive loss over
embedding pairs, where each positive pair contributes a pull-in hinge and an
equal number of hardest negative pairs (online hard example mining)
contribute push-out hinges.

Every primitive returns its value together with gradients with respect to
its real-valued inputs so the whole composition can be checked against
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# An embedding is a flat float vector of fixed dimension d.
Embedding = np.ndarray


class MismatchedDims(ValueError):
    """Embeddings of different dimensions were mixed in one batch."""


@dataclass(frozen=True)
class LossConfig:
    """Margins and shape parameters for the loss stack.

    alpha: positive-pair distance margin (pull pairs closer than alpha).
    beta: negative-pair distance margin (push pairs farther than beta).
    smooth_l1_delta: quadratic/linear crossover of the smooth-L1.
    foreground_iou: proposals with IoU strictly above this are foreground.
    """

    alpha: float = 0.5
    beta: float = 1.5
    smooth_l1_delta: float = 1.0
    foreground_iou: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.alpha < self.beta:
            raise ValueError("need 0 <= alpha < beta")
        if self.smooth_l1_delta <= 0.0:
            raise ValueError("smooth_l1_delta must be positive")


def smooth_l1(x: float, delta: float = 1.0) -> tuple[float, float]:
    """Huber-style smooth-L1 of a scalar residual; returns (value, d/dx)."""
    x = float(x)
    if abs(x) < delta:
        return 0.5 * x * x / delta, x / delta
    return abs(x) - 0.5 * delta, math.copysign(1.0, x)


def cross_entropy(logits, true_class: int) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy from raw logits; returns (value, grad wrt logits).

    Uses the max-shifted log-sum-exp for numeric stability.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or len(z) == 0:
        raise ValueError("logits must be a nonempty vector")
    if not 0 <= true_class < len(z):
        raise ValueError(f"true_class {true_class} out of range for {len(z)} logits")
    shift = z - z.max()
    log_norm = float(np.log(np.exp(shift).sum()))
    value = log_norm - float(shift[true_class])
    grad = np.exp(shift - log_norm)
    grad[true_class] -= 1.0
    return value, grad


def _hinge_term(a: np.ndarray, b: np.ndarray, cfg: LossConfig, positive: bool):
    """The positive (pull-in) or negative (push-out) hinge of one pair of
    float vectors, as (value, grad_a); grad_a is None where the subgradient
    is taken as 0, and the gradient with respect to b is -grad_a."""
    diff = a - b
    dist = math.sqrt(diff.dot(diff))  # np.linalg.norm's own arithmetic
    if positive:
        margin = dist - cfg.alpha
        if margin <= 0.0 or dist == 0.0:
            return 0.5 * max(margin, 0.0) ** 2, None
        return 0.5 * margin * margin, (margin / dist) * diff
    margin = cfg.beta - dist
    if margin <= 0.0:
        return 0.0, None
    value = 0.5 * margin * margin
    if dist == 0.0:
        return value, None
    return value, (-margin / dist) * diff


def _pair_term(a, b, cfg: LossConfig, positive: bool):
    a = np.asarray(a, dtype=float)
    value, grad_a = _hinge_term(a, np.asarray(b, dtype=float), cfg, positive)
    if grad_a is None:
        zero = np.zeros(a.shape)
        return value, zero, zero.copy()
    return value, grad_a, -grad_a


def positive_pair_term(a, b, cfg: LossConfig):
    """Pull-in hinge 0.5*max(||a-b|| - alpha, 0)^2; returns (value, ga, gb).

    The subgradient at the hinge kink and at zero distance is taken as 0.
    """
    return _pair_term(a, b, cfg, positive=True)


def negative_pair_term(a, b, cfg: LossConfig):
    """Push-out hinge 0.5*max(beta - ||a-b||, 0)^2; returns (value, ga, gb).

    The subgradient at the hinge kink and at zero distance is taken as 0.
    """
    return _pair_term(a, b, cfg, positive=False)


def ohem_select(positive_pairs, negative_pairs, negative_losses) -> list[int]:
    """Hard negative mining: indices of the min(|P|, |N|) largest-loss
    negatives, ties broken by ascending pair index."""
    losses = [float(v) for v in negative_losses]
    if len(losses) != len(negative_pairs):
        raise ValueError("one loss per negative pair required")
    k = min(len(positive_pairs), len(negative_pairs))
    order = sorted(range(len(losses)), key=lambda i: (-losses[i], i))
    return order[:k]


@dataclass(frozen=True)
class Proposal:
    """One region proposal's contribution to the batch loss.

    box_residual is the (4,) regression residual (prediction minus target)
    and is required for foreground proposals.  embedding and truth_uid enter
    the re-identification term when both are present on a foreground.
    """

    class_logits: np.ndarray
    true_class: int
    iou_with_gt: float = 0.0
    box_residual: np.ndarray | None = None
    embedding: Embedding | None = None
    truth_uid: int | str | None = None


@dataclass
class BatchLossBreakdown:
    """Loss decomposition; total == reid + sum(per_image_box_head)."""

    per_image_box_head: list[float]
    reid: float
    total: float
    foreground_counts: list[int]
    background_counts: list[int]


@dataclass
class BatchLossGrads:
    """Gradients aligned with the proposal structure of the batch.

    Entries are None where the corresponding input was absent or unused
    (e.g. residual gradients of background proposals, embedding gradients of
    embeddings outside every scored pair are zero arrays).
    """

    residuals: list[list[np.ndarray | None]]
    logits: list[list[np.ndarray]]
    embeddings: list[list[np.ndarray | None]]


def _reid_loss(foregrounds, cfg: LossConfig):
    """Contrastive re-id loss over all foreground embedding pairs.

    foregrounds is a list of (image_idx, prop_idx, embedding, uid).  Returns
    (value, {(image_idx, prop_idx): grad}).
    """
    if len(foregrounds) < 2:
        return 0.0, {(i, j): np.zeros(emb.shape) for i, j, emb, _ in foregrounds}
    dims = {len(emb) for _, _, emb, _ in foregrounds}
    if len(dims) > 1:
        raise MismatchedDims(f"embedding dims differ: {sorted(dims)}")
    embeddings = [emb for _, _, emb, _ in foregrounds]
    uids = [uid for _, _, _, uid in foregrounds]
    grads = [np.zeros(emb.shape) for emb in embeddings]
    positives = []
    negatives = []
    for ia in range(len(foregrounds)):
        for ib in range(ia + 1, len(foregrounds)):
            (positives if uids[ia] == uids[ib] else negatives).append((ia, ib))
    # A pair without a gradient would add zeros, which leaves every sum as is.
    total = 0.0
    for ia, ib in positives:
        value, grad = _hinge_term(embeddings[ia], embeddings[ib], cfg, positive=True)
        total += value
        if grad is not None:
            grads[ia] += grad
            grads[ib] -= grad
    neg_terms = [
        _hinge_term(embeddings[ia], embeddings[ib], cfg, positive=False)
        for ia, ib in negatives
    ]
    selected = ohem_select(positives, negatives, [t[0] for t in neg_terms])
    for idx in selected:
        ia, ib = negatives[idx]
        value, grad = neg_terms[idx]
        total += value
        if grad is not None:
            grads[ia] += grad
            grads[ib] -= grad
    return total, {(i, j): g for (i, j, _, _), g in zip(foregrounds, grads)}


def batch_loss(images, cfg: LossConfig) -> tuple[BatchLossBreakdown, BatchLossGrads]:
    """Full batch loss over a list of images, each a list of Proposals.

    Per image: smooth-L1 summed over every foreground residual component
    plus cross-entropy over every proposal.  Batch-level: the contrastive
    re-id term over foreground embeddings.  Returns the breakdown and the
    gradients of the total with respect to residuals, logits and embeddings.
    """
    per_image = []
    fg_counts = []
    bg_counts = []
    grad_res: list[list[np.ndarray | None]] = []
    grad_log: list[list[np.ndarray]] = []
    foregrounds = []
    for img_idx, proposals in enumerate(images):
        img_total = 0.0
        n_fg = 0
        res_grads: list[np.ndarray | None] = []
        log_grads: list[np.ndarray] = []
        for prop_idx, prop in enumerate(proposals):
            is_fg = prop.iou_with_gt > cfg.foreground_iou
            if is_fg:
                n_fg += 1
                if prop.box_residual is None:
                    raise ValueError("foreground proposal lacks a box residual")
                residual = np.asarray(prop.box_residual, dtype=float)
                g = []
                for component in residual.tolist():
                    value, dv = smooth_l1(component, cfg.smooth_l1_delta)
                    img_total += value
                    g.append(dv)
                res_grads.append(np.array(g, dtype=float))
                if prop.embedding is not None and prop.truth_uid is not None:
                    foregrounds.append(
                        (img_idx, prop_idx, np.asarray(prop.embedding, float), prop.truth_uid)
                    )
            else:
                res_grads.append(None)
            ce_value, ce_grad = cross_entropy(prop.class_logits, prop.true_class)
            img_total += ce_value
            log_grads.append(ce_grad)
        per_image.append(img_total)
        fg_counts.append(n_fg)
        bg_counts.append(len(proposals) - n_fg)
        grad_res.append(res_grads)
        grad_log.append(log_grads)
    reid, reid_grads = _reid_loss(foregrounds, cfg)
    grad_emb: list[list[np.ndarray | None]] = [
        [None] * len(proposals) for proposals in images
    ]
    for (img_idx, prop_idx), grad in reid_grads.items():
        grad_emb[img_idx][prop_idx] = grad
    breakdown = BatchLossBreakdown(
        per_image_box_head=per_image,
        reid=reid,
        total=reid + sum(per_image),
        foreground_counts=fg_counts,
        background_counts=bg_counts,
    )
    return breakdown, BatchLossGrads(grad_res, grad_log, grad_emb)

"""Set-prediction losses with analytic gradients.

Scalar kernels return (value, gradient) pairs. Classification gradients are
taken with respect to the pre-sigmoid logit of the given probability; box
gradients with respect to the normalized center-form parameters (cx, cy, h, w).
Probabilities are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] before logs.

The weights are constants: CLS_WEIGHT 2, L1_WEIGHT 5 and GIOU_WEIGHT 2 weigh
both the matching cost (detr_cost) and the loss terms, as in Deformable DETR
(Zhu et al. 2021); every focal term uses FOCAL_ALPHA 0.25 and FOCAL_GAMMA 2
(Lin et al. 2017). GIoU is Rezatofighi et al. (2019). The matching and the
loss read one (query, gt) table of L1 and giou_loss values, so the loss
charges exactly the GIoU the matching minimized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assign
from .geometry import BoxRel, ImageSize, rel_to_abs

CLAMP_EPS = 1e-7
CLS_WEIGHT = 2.0
L1_WEIGHT = 5.0
GIOU_WEIGHT = 2.0
FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
_UNIT = ImageSize(1, 1)


@dataclass(frozen=True)
class LossBreakdown:
    """Raw per-term sums plus the weighted total; pairs are (query, gt) matches."""

    total: float
    cls_term: float
    l1_term: float
    giou_term: float
    behavior_term: float
    pairs: tuple[tuple[int, int], ...]


def focal_loss(p: float, target: int) -> tuple[float, float]:
    """Binary focal loss and its derivative with respect to the logit of p.

    target 1: -alpha * (1-p)^gamma * log(p)
    target 0: -(1-alpha) * p^gamma * log(1-p)
    with alpha = FOCAL_ALPHA and gamma = FOCAL_GAMMA.
    """
    alpha, gamma = FOCAL_ALPHA, FOCAL_GAMMA
    if target not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {target}")
    p = float(np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS))
    if target == 1:
        value = -alpha * (1.0 - p) ** gamma * np.log(p)
        grad = alpha * (1.0 - p) ** gamma * (gamma * p * np.log(p) - (1.0 - p))
    else:
        value = -(1.0 - alpha) * p**gamma * np.log(1.0 - p)
        grad = (1.0 - alpha) * p**gamma * (p - gamma * (1.0 - p) * np.log(1.0 - p))
    return float(value), float(grad)


def l1_box_loss(pred, gt) -> tuple[float, np.ndarray]:
    """Sum of absolute coordinate errors; subgradient 0 at kinks."""
    pred = np.asarray(pred, dtype=float).reshape(4)
    gt = np.asarray(gt, dtype=float).reshape(4)
    diff = pred - gt
    return float(np.abs(diff).sum()), np.sign(diff)


def _corner_partials(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """GIoU of corner boxes a, b and its gradient with respect to a's corners."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    wa, ha = ax2 - ax1, ay2 - ay1
    area_a = wa * ha
    area_b = (bx2 - bx1) * (by2 - by1)

    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    overlap = iw > 0.0 and ih > 0.0
    inter = iw * ih if overlap else 0.0

    d_inter = np.zeros(4)
    if overlap:
        d_inter[0] = -ih if ax1 > bx1 else 0.0
        d_inter[2] = ih if ax2 < bx2 else 0.0
        d_inter[1] = -iw if ay1 > by1 else 0.0
        d_inter[3] = iw if ay2 < by2 else 0.0

    d_area = np.array([-ha, -wa, ha, wa])

    cw = max(ax2, bx2) - min(ax1, bx1)
    ch = max(ay2, by2) - min(ay1, by1)
    enclose = cw * ch
    if enclose <= 0.0:
        raise ValueError("giou undefined: enclosing box has zero area")
    d_cw = np.array([-1.0 if ax1 < bx1 else 0.0, 0.0, 1.0 if ax2 > bx2 else 0.0, 0.0])
    d_ch = np.array([0.0, -1.0 if ay1 < by1 else 0.0, 0.0, 1.0 if ay2 > by2 else 0.0])
    d_enclose = ch * d_cw + cw * d_ch

    union = area_a + area_b - inter
    if union <= 0.0:
        raise ValueError("giou undefined: both boxes are degenerate")
    d_union = d_area - d_inter

    # giou = inter/union - 1 + union/enclose
    value = inter / union - 1.0 + union / enclose
    grad = (
        (d_inter * union - inter * d_union) / union**2
        + (d_union * enclose - union * d_enclose) / enclose**2
    )
    return float(value), grad


def giou_loss(pred, gt) -> tuple[float, np.ndarray]:
    """1 - GIoU between normalized center-form boxes.

    Gradient is with respect to the predicted (cx, cy, h, w). Both boxes must
    have positive height and width.
    """
    pred = np.asarray(pred, dtype=float).reshape(4)
    gt = np.asarray(gt, dtype=float).reshape(4)
    if pred[2] <= 0.0 or pred[3] <= 0.0 or gt[2] <= 0.0 or gt[3] <= 0.0:
        raise ValueError("giou_loss requires boxes with positive height and width")
    value, d_corners = _corner_partials(rel_to_abs(BoxRel(*pred), _UNIT), rel_to_abs(BoxRel(*gt), _UNIT))
    dx1, dy1, dx2, dy2 = d_corners
    grad = -np.array([
        dx1 + dx2,                # cx
        dy1 + dy2,                # cy
        (dy2 - dy1) / 2.0,        # h
        (dx2 - dx1) / 2.0,        # w
    ])
    return 1.0 - value, grad


def multilabel_focal(probs, targets) -> tuple[float, np.ndarray]:
    """Sum of per-class binary focal losses over a multi-hot target vector.

    Returns the summed value and per-class gradients with respect to each
    class logit.
    """
    probs = np.asarray(probs, dtype=float).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    if probs.shape != targets.shape:
        raise ValueError("probs and targets must have the same length")
    if not np.isin(targets, (0, 1)).all():
        raise ValueError("targets must be multi-hot (0/1)")
    total = 0.0
    grads = np.empty_like(probs)
    for k in range(probs.shape[0]):
        v, g = focal_loss(probs[k], int(targets[k]))
        total += v
        grads[k] = g
    return total, grads


def _cost_table(class_probs, pred_boxes, gt_boxes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """detr_cost and the (Q, G) tables of L1 and giou_loss values it is assembled from."""
    p = np.asarray(class_probs, dtype=float).reshape(-1)
    pred = np.asarray(pred_boxes, dtype=float).reshape(-1, 4)
    gt = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    if pred.shape[0] != p.shape[0]:
        raise ValueError("class_probs and pred_boxes disagree on the number of queries")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("class probabilities must lie strictly inside (0, 1)")

    cls_cost = FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA * -np.log(p)
    l1 = np.abs(pred[:, None, :] - gt[None, :, :]).sum(axis=2)
    giou = np.array([[giou_loss(b, t)[0] for t in gt] for b in pred]).reshape(l1.shape)
    return CLS_WEIGHT * cls_cost[:, None] + L1_WEIGHT * l1 + GIOU_WEIGHT * giou, l1, giou


def detr_cost(class_probs, pred_boxes, gt_boxes) -> np.ndarray:
    """Matching cost between predicted detections and ground-truth boxes.

    entry(q, g) = CLS_WEIGHT * FOCAL_ALPHA * (1 - p_q)^FOCAL_GAMMA * (-log p_q)
                + L1_WEIGHT * ||b_q - t_g||_1
                + GIOU_WEIGHT * giou_loss(b_q, t_g)

    Boxes are normalized center-form (cx, cy, h, w) with positive height and
    width. Behavior scores do not enter the matching cost.

    Args:
        class_probs: (Q,) class probabilities, each strictly inside (0, 1).
        pred_boxes: (Q, 4) predicted boxes.
        gt_boxes: (G, 4) ground-truth boxes.

    Returns:
        (Q, G) cost matrix.
    """
    return _cost_table(class_probs, pred_boxes, gt_boxes)[0]


def set_prediction_loss(class_probs, pred_boxes, behavior_probs, gt_boxes, gt_behaviors) -> LossBreakdown:
    """Matching-based loss over a fixed query set.

    Queries are matched one-to-one to ground truth by the Hungarian algorithm
    on detr_cost. Each matched query contributes
    CLS_WEIGHT * focal(p, 1) + L1_WEIGHT * L1 + GIOU_WEIGHT * giou_loss, with
    L1 and giou_loss the entries of the table the matching read, plus an
    unweighted multi-label behavior focal term; every unmatched query
    contributes CLS_WEIGHT * focal(p, 0). Term fields hold the raw
    (unweighted) sums.

    Raises ValueError when there are more ground-truth boxes than queries,
    and on queries that detr_cost rejects, with or without ground truth.
    Without queries (and so without ground truth) every term is 0.
    """
    p = np.asarray(class_probs, dtype=float).reshape(-1)
    pred = np.asarray(pred_boxes, dtype=float).reshape(-1, 4)
    gt = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    n_q, n_g = p.shape[0], gt.shape[0]
    if n_g > n_q:
        raise ValueError(f"more ground-truth boxes ({n_g}) than queries ({n_q})")
    cost, l1, giou = _cost_table(p, pred, gt)  # checks the queries on every call, gt or none
    if not n_q:
        return LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, ())
    beh = np.asarray(behavior_probs, dtype=float).reshape(n_q, -1)
    gt_beh = np.asarray(gt_behaviors, dtype=float).reshape(n_g, -1) if n_g else np.zeros((0, beh.shape[1]))

    pairs = assign.hungarian(cost).pairs

    matched = {q for q, _ in pairs}
    cls_term = 0.0
    l1_term = 0.0
    giou_term = 0.0
    behavior_term = 0.0
    for q, g in pairs:
        cls_term += focal_loss(p[q], 1)[0]
        l1_term += float(l1[q, g])
        giou_term += float(giou[q, g])
        behavior_term += multilabel_focal(beh[q], gt_beh[g])[0]
    for q in range(n_q):
        if q not in matched:
            cls_term += focal_loss(p[q], 0)[0]

    total = CLS_WEIGHT * cls_term + L1_WEIGHT * l1_term + GIOU_WEIGHT * giou_term + behavior_term
    return LossBreakdown(total, cls_term, l1_term, giou_term, behavior_term, pairs)

import math

import numpy as np
import pytest

from chimptrack.geometry import BoxRel, ImageSize, iou, rel_to_abs
from chimptrack.loss import (
    CLAMP_EPS,
    CLS_WEIGHT,
    FOCAL_ALPHA,
    FOCAL_GAMMA,
    GIOU_WEIGHT,
    L1_WEIGHT,
    LossBreakdown,
    detr_cost,
    focal_loss,
    giou_loss,
    l1_box_loss,
    multilabel_focal,
    set_prediction_loss,
)
from chimptrack.oracles import brute_set_loss, finite_difference
from chimptrack.rng import Xoshiro256


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def test_focal_loss_hand_values():
    v1, _ = focal_loss(0.5, 1)
    assert v1 == pytest.approx(0.25 * 0.25 * -math.log(0.5), rel=1e-12)
    v0, _ = focal_loss(0.5, 0)
    assert v0 == pytest.approx(0.75 * 0.25 * -math.log(0.5), rel=1e-12)


def test_focal_loss_clamps_instead_of_diverging():
    for p in (0.0, 1.0, -0.5, 2.0):
        for t in (0, 1):
            v, g = focal_loss(p, t)
            assert math.isfinite(v) and math.isfinite(g)
    # clamp means exact-0 input behaves like CLAMP_EPS
    assert focal_loss(0.0, 1)[0] == focal_loss(CLAMP_EPS, 1)[0]


def test_focal_loss_rejects_bad_target():
    with pytest.raises(ValueError):
        focal_loss(0.5, 2)


def test_focal_gradient_is_logit_space():
    rng = Xoshiro256(11)
    for _ in range(40):
        z = rng.uniform(-3.0, 3.0)
        for t in (0, 1):
            _, grad = focal_loss(sigmoid(z), t)
            fd = finite_difference(lambda x: focal_loss(sigmoid(x[0]), t)[0], np.array([z]))
            assert grad == pytest.approx(fd[0], rel=1e-5, abs=1e-9)


def test_l1_box_loss_value_and_subgradient():
    pred = np.array([0.5, 0.5, 0.3, 0.2])
    gt = np.array([0.4, 0.6, 0.3, 0.25])
    value, grad = l1_box_loss(pred, gt)
    assert value == pytest.approx(0.1 + 0.1 + 0.0 + 0.05, rel=1e-12)
    assert grad.tolist() == [1.0, -1.0, 0.0, -1.0]


def test_l1_gradient_matches_finite_difference_off_kinks():
    rng = Xoshiro256(13)
    gt = np.array([0.5, 0.5, 0.2, 0.3])
    for _ in range(20):
        pred = gt + np.array([rng.uniform(0.01, 0.1) * (1 if rng.random() < 0.5 else -1) for _ in range(4)])
        _, grad = l1_box_loss(pred, gt)
        fd = finite_difference(lambda x: l1_box_loss(x, gt)[0], pred)
        assert np.allclose(grad, fd, atol=1e-9)


def test_giou_loss_zero_for_identical_boxes():
    box = np.array([0.5, 0.5, 0.25, 0.3])
    value, _ = giou_loss(box, box)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_giou_loss_gradient_matches_finite_difference():
    rng = Xoshiro256(17)
    for _ in range(40):
        pred = np.array([
            rng.uniform(0.3, 0.7),
            rng.uniform(0.3, 0.7),
            rng.uniform(0.1, 0.3),
            rng.uniform(0.1, 0.3),
        ])
        gt = np.array([
            rng.uniform(0.3, 0.7),
            rng.uniform(0.3, 0.7),
            rng.uniform(0.1, 0.3),
            rng.uniform(0.1, 0.3),
        ])
        _, grad = giou_loss(pred, gt)
        fd = finite_difference(lambda x: giou_loss(x, gt)[0], pred)
        scale = max(1.0, float(np.abs(grad).max()))
        assert float(np.abs(grad - fd).max()) / scale < 1e-4


def test_giou_loss_disjoint_boxes_still_differentiable():
    pred = np.array([0.2, 0.2, 0.1, 0.1])
    gt = np.array([0.8, 0.8, 0.1, 0.1])
    value, grad = giou_loss(pred, gt)
    assert value > 1.0  # disjoint: GIoU < 0
    fd = finite_difference(lambda x: giou_loss(x, gt)[0], pred)
    assert np.allclose(grad, fd, rtol=1e-4, atol=1e-7)


def test_giou_loss_reduces_to_iou_loss_when_hull_is_union():
    a = np.array([0.25, 0.5, 0.5, 0.5])
    b = np.array([0.5, 0.5, 0.5, 0.5])  # same height, overlapping along x: hull area == union
    unit = ImageSize(1, 1)
    want = 1.0 - iou(rel_to_abs(BoxRel(*a), unit), rel_to_abs(BoxRel(*b), unit))
    assert giou_loss(a, b)[0] == pytest.approx(want)


def test_giou_loss_disjoint_exceeds_one_and_is_bounded():
    value, _ = giou_loss(np.array([0.05, 0.05, 0.1, 0.1]), np.array([0.95, 0.95, 0.1, 0.1]))
    assert 1.0 < value <= 2.0


def test_giou_loss_zero_enclosing_area_raises():
    # two zero-height boxes on one line: their enclosing box has no area
    with pytest.raises(ValueError):
        giou_loss(np.array([0.2, 0.5, 0.0, 0.2]), np.array([0.6, 0.5, 0.0, 0.2]))


def test_giou_loss_rejects_degenerate_boxes():
    with pytest.raises(ValueError):
        giou_loss(np.array([0.5, 0.5, 0.0, 0.2]), np.array([0.5, 0.5, 0.2, 0.2]))


def test_multilabel_focal_sums_per_class_terms():
    probs = np.array([0.9, 0.2, 0.6])
    targets = np.array([1, 0, 1])
    total, grads = multilabel_focal(probs, targets)
    want = sum(focal_loss(p, int(t))[0] for p, t in zip(probs, targets))
    assert total == pytest.approx(want, rel=1e-12)
    assert grads.shape == (3,)
    for k in range(3):
        assert grads[k] == pytest.approx(focal_loss(probs[k], int(targets[k]))[1], rel=1e-12)


def test_multilabel_focal_validation():
    with pytest.raises(ValueError):
        multilabel_focal(np.array([0.5, 0.5]), np.array([1]))
    with pytest.raises(ValueError):
        multilabel_focal(np.array([0.5]), np.array([2]))


def test_set_loss_empty_gt_closed_form():
    probs = np.array([0.3, 0.8, 0.55])
    boxes = np.tile(np.array([0.5, 0.5, 0.2, 0.2]), (3, 1))
    beh = np.full((3, 5), 0.5)
    out = set_prediction_loss(probs, boxes, beh, np.zeros((0, 4)), np.zeros((0, 5)))
    want = sum(focal_loss(p, 0)[0] for p in probs)
    assert out.pairs == ()
    assert out.cls_term == pytest.approx(want, rel=1e-12)
    assert out.l1_term == 0.0 and out.giou_term == 0.0 and out.behavior_term == 0.0
    assert out.total == pytest.approx(CLS_WEIGHT * want, rel=1e-12)


def test_set_loss_without_queries_or_gt_is_zero():
    args = ([], np.zeros((0, 4)), np.zeros((0, 23)), [], [])
    assert set_prediction_loss(*args) == LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, ())
    assert brute_set_loss(*args) == 0.0


@pytest.mark.parametrize("n_gt", [0, 1])
def test_set_loss_checks_its_queries_with_or_without_gt(n_gt):
    # the checks detr_cost makes run on every call, not only when there is gt to match
    box = np.array([[0.5, 0.5, 0.2, 0.2]])
    gt, gt_beh = np.tile(box, (n_gt, 1)), np.zeros((n_gt, 5))
    beh = np.full((3, 5), 0.5)
    with pytest.raises(ValueError, match="disagree on the number of queries"):
        set_prediction_loss(np.array([2.0, 0.5, 0.3]), box, beh, gt, gt_beh)  # one box for three probabilities
    with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
        set_prediction_loss(np.array([2.0, 0.5, 0.3]), np.tile(box, (3, 1)), beh, gt, gt_beh)


def test_set_loss_perfect_predictions_near_zero():
    rng = Xoshiro256(23)
    gt = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.6, 0.15, 0.25]])
    gt_beh = np.array([[1, 0, 0, 1, 0], [0, 1, 0, 0, 0]], dtype=float)
    probs = np.array([1.0 - 1e-9, 1.0 - 1e-9, 1e-9])
    boxes = np.vstack([gt, [[0.5, 0.5, 0.1, 0.1]]])
    beh = np.vstack([np.clip(gt_beh, 1e-9, 1 - 1e-9), np.full((1, 5), 1e-9)])
    out = set_prediction_loss(probs, boxes, beh, gt, gt_beh)
    assert out.total < 1e-3
    assert sorted(g for _, g in out.pairs) == [0, 1]
    del rng


def test_set_loss_rejects_more_gt_than_queries():
    with pytest.raises(ValueError):
        set_prediction_loss(
            np.array([0.5]),
            np.array([[0.5, 0.5, 0.2, 0.2]]),
            np.array([[0.5]]),
            np.tile(np.array([0.5, 0.5, 0.2, 0.2]), (2, 1)),
            np.zeros((2, 1)),
        )


def test_set_loss_total_combines_terms_with_weights():
    rng = Xoshiro256(29)
    probs = np.array([rng.uniform(0.05, 0.95) for _ in range(4)])
    boxes = np.array([[rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)] for _ in range(4)])
    beh = np.array([[rng.uniform(0.05, 0.95) for _ in range(5)] for _ in range(4)])
    gt = np.array([[0.4, 0.4, 0.2, 0.2], [0.6, 0.6, 0.2, 0.2]])
    gt_beh = np.array([[1, 0, 0, 0, 1], [0, 0, 1, 0, 0]], dtype=float)
    out = set_prediction_loss(probs, boxes, beh, gt, gt_beh)
    assert (CLS_WEIGHT, L1_WEIGHT, GIOU_WEIGHT) == (2.0, 5.0, 2.0)  # Deformable DETR's weights
    assert out.total == CLS_WEIGHT * out.cls_term + L1_WEIGHT * out.l1_term + GIOU_WEIGHT * out.giou_term + out.behavior_term


def test_set_loss_behaviors_do_not_steer_matching():
    rng = Xoshiro256(31)
    probs = np.array([0.6, 0.7, 0.4])
    boxes = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]])
    gt = np.array([[0.31, 0.29, 0.2, 0.2], [0.69, 0.71, 0.2, 0.2]])
    gt_beh = np.array([[1, 0], [0, 1]], dtype=float)
    beh_a = np.array([[rng.uniform(0.05, 0.95) for _ in range(2)] for _ in range(3)])
    beh_b = 1.0 - beh_a
    out_a = set_prediction_loss(probs, boxes, beh_a, gt, gt_beh)
    out_b = set_prediction_loss(probs, boxes, beh_b, gt, gt_beh)
    assert out_a.pairs == out_b.pairs == ((0, 0), (1, 1))


def test_set_loss_agrees_with_exhaustive_oracle():
    rng = Xoshiro256(37)
    for _ in range(50):
        n_q = 2 + rng.randint(3)
        n_g = 1 + rng.randint(min(n_q, 3))
        probs = np.array([rng.uniform(0.05, 0.95) for _ in range(n_q)])
        boxes = np.array([
            [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)]
            for _ in range(n_q)
        ])
        beh = np.array([[rng.uniform(0.05, 0.95) for _ in range(4)] for _ in range(n_q)])
        gt = np.array([
            [rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)]
            for _ in range(n_g)
        ])
        gt_beh = np.array([[float(rng.random() < 0.3) for _ in range(4)] for _ in range(n_g)])
        got = set_prediction_loss(probs, boxes, beh, gt, gt_beh).total
        want = brute_set_loss(probs, boxes, beh, gt, gt_beh)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_detr_cost_single_entry_matches_hand_formula():
    p = 0.7
    pred = np.array([[0.5, 0.5, 0.2, 0.3]])
    gt = np.array([[0.55, 0.45, 0.25, 0.2]])
    cost = detr_cost(np.array([p]), pred, gt)
    assert cost.shape == (1, 1)
    cls_term = 0.25 * (1.0 - p) ** 2 * -np.log(p)
    l1_term = 0.05 + 0.05 + 0.05 + 0.1
    # pred spans x 0.35..0.65, y 0.4..0.6; gt x 0.45..0.65, y 0.325..0.575; hull x 0.35..0.65, y 0.325..0.6
    inter, union, hull = 0.2 * 0.175, 0.06 + 0.05 - 0.2 * 0.175, 0.3 * 0.275
    giou_term = 1.0 - (inter / union - (hull - union) / hull)
    want = 2.0 * cls_term + 5.0 * l1_term + 2.0 * giou_term
    assert cost[0, 0] == pytest.approx(want, rel=1e-12)


def test_detr_cost_is_assembled_from_giou_loss_exactly():
    # exact: the set loss charges giou_loss on each matched pair, so the
    # matching must minimize that same value
    rng = Xoshiro256(41)
    n_q, n_g = 20, 20

    def box():
        return [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.01, 0.6), rng.uniform(0.01, 0.6)]

    probs = np.array([rng.uniform(0.01, 0.99) for _ in range(n_q)])
    pred = np.array([box() for _ in range(n_q)])
    gt = np.array([box() for _ in range(n_g)])
    cls_cost = FOCAL_ALPHA * (1.0 - probs) ** FOCAL_GAMMA * -np.log(probs)
    want = [
        [
            CLS_WEIGHT * cls_cost[q] + L1_WEIGHT * l1_box_loss(pred[q], gt[g])[0] + GIOU_WEIGHT * giou_loss(pred[q], gt[g])[0]
            for g in range(n_g)
        ]
        for q in range(n_q)
    ]
    assert detr_cost(probs, pred, gt).tolist() == want


def test_detr_cost_shape_and_validation():
    rng = Xoshiro256(3)
    probs = np.array([rng.uniform(0.01, 0.99) for _ in range(4)])
    pred = np.array([[rng.uniform(0.3, 0.7) for _ in range(4)] for _ in range(4)])
    gt = np.array([[rng.uniform(0.3, 0.7) for _ in range(4)] for _ in range(2)])
    assert detr_cost(probs, pred, gt).shape == (4, 2)
    with pytest.raises(ValueError):
        detr_cost(probs[:3], pred, gt)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            detr_cost(np.array([bad, 0.5, 0.5, 0.5]), pred, gt)
    zero_width = pred.copy()
    zero_width[1, 3] = 0.0
    with pytest.raises(ValueError, match="positive height and width"):
        detr_cost(probs, zero_width, gt)

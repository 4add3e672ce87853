import math

import numpy as np
import pytest
from conftest import nan_equal, tiny_behavior_sets, tiny_detection_sets, tiny_tracks

from chimptrack import assign, geometry, metrics
from chimptrack.dataio import TrackedBox
from chimptrack.geometry import BoxXYXY
from chimptrack.metrics import (
    ALPHA_GRID,
    IOU_THRESHOLDS,
    _rank_and_match,
    behavior_map,
    clear_metrics,
    detection_ap,
    hota,
    idf1,
    keypoint_ap,
    oks,
    pair_frames,
    pck,
)
from chimptrack.oracles import (
    _area,
    _iou,
    _naive_greedy,
    _oks,
    brute_behavior_map,
    brute_clear,
    brute_detection_ap,
    brute_hota,
    brute_idf1,
    brute_keypoint_ap,
    hota_hand_case,
    scalar_rank_and_match,
)
from chimptrack.rng import Xoshiro256

BOX = BoxXYXY(0.0, 0.0, 10.0, 10.0)
# same-size box shifted so IoU is exactly 0.6 (overlap fraction 0.75)
BOX_IOU06 = BoxXYXY(0.0, 2.5, 10.0, 12.5)
FAR = BoxXYXY(200.0, 200.0, 210.0, 210.0)
AP_KEYS = ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar")


def track(frame, tid, box=BOX):
    return TrackedBox(frame, tid, box)


# -------------------------------------------------------------------- CLEAR


def test_clear_perfect_tracking():
    gt = [track(f, i) for f in range(3) for i in (1, 2)]
    out = clear_metrics(pair_frames(gt, list(gt)))
    assert out.mota == 100.0
    assert out.motp == 100.0
    assert (out.fp, out.fn, out.idsw) == (0, 0, 0)
    assert out.matched == 6
    assert out.gt_count == 6


def test_clear_mota_is_identity_of_components():
    gt = [track(0, 1), track(1, 1)]
    pred = [track(0, 1), TrackedBox(1, 9, FAR)]
    out = clear_metrics(pair_frames(gt, pred))
    assert (out.fp, out.fn, out.idsw) == (1, 1, 0)
    assert out.n_fp == 50.0 and out.n_fn == 50.0 and out.n_ids == 0.0
    assert out.mota == 100.0 - out.n_fp - out.n_fn - out.n_ids == 0.0


def test_clear_single_identity_swap_counts_once():
    gt = [track(f, 1) for f in range(10)]
    pred = [track(f, 1) for f in range(5)] + [track(f, 2) for f in range(5, 10)]
    out = clear_metrics(pair_frames(gt, pred))
    assert out.idsw == 1
    assert (out.fp, out.fn) == (0, 0)
    assert out.mota == pytest.approx(90.0)


def test_clear_carryover_keeps_previous_pair():
    # frame 1 offers a better box under a new id; CLEAR keeps the old pair
    gt = [track(0, 1), track(1, 1)]
    pred = [
        TrackedBox(0, 1, BOX_IOU06),
        TrackedBox(1, 1, BOX_IOU06),
        TrackedBox(1, 2, BOX),  # IoU 1.0 but must not steal the match
    ]
    out = clear_metrics(pair_frames(gt, pred))
    assert out.idsw == 0
    assert out.fp == 1
    assert out.matched == 2
    assert out.motp == pytest.approx(60.0)  # mean matched IoU stays 0.6
    assert out.mota == pytest.approx(100.0 - 50.0)


def test_clear_idsw_compares_against_last_known_id():
    gt = [track(0, 1), track(1, 1), track(2, 1)]
    pred = [track(0, 1), track(2, 2)]  # gap at frame 1, then a new id
    out = clear_metrics(pair_frames(gt, pred))
    assert out.fn == 1
    assert out.idsw == 1


def test_clear_motp_is_mean_matched_iou():
    gt = [track(0, 1), track(1, 1)]
    pred = [TrackedBox(0, 1, BOX_IOU06), TrackedBox(1, 1, BOX_IOU06)]
    assert clear_metrics(pair_frames(gt, pred)).motp == pytest.approx(60.0)


def test_clear_threshold_is_inclusive_gate():
    # CLEAR gates at MATCH_IOU = 0.5: IoU exactly 0.5 matches, one ulp below does not
    gt = [track(0, 1)]
    for height, matched in ((5.0, 1), (math.nextafter(5.0, 0.0), 0)):
        pred = [track(0, 1, BoxXYXY(0.0, 0.0, 10.0, height))]
        assert geometry.iou(BOX, pred[0].box) == (0.5 if matched else math.nextafter(0.5, 0.0))
        assert clear_metrics(pair_frames(gt, pred)).matched == matched
        assert brute_clear(gt, pred)["matched"] == matched


def test_clear_takes_most_pairs_where_trackeval_takes_largest_iou_sum():
    # one frame, all boxes 10 high; the IoUs at or above the gate are
    # g0-p0 19/33, g0-p1 12/13, g0-p2 23/29, g1-p2 15/29, g2-p1 19/35, g2-p2 3/4.
    # The cardinality-first gated matching takes 3 pairs (IoU sum 1.636); the
    # largest IoU sum over the valid pairs, TrackEval's rule, is 2 pairs
    # g0-p1, g2-p2 (1.673) and would count fp = fn = 1
    def strips(*spans):
        return [track(0, i + 1, BoxXYXY(x1, 0.0, x2, 10.0)) for i, (x1, x2) in enumerate(spans)]

    gt = strips((11, 24), (18, 27), (13.5, 28.5))
    pred = strips((7.5, 20.5), (11, 23), (12.5, 25.5))
    table = pair_frames(gt, pred)
    ious = table.frames[0][2]
    max_sum = assign.hungarian(-np.where(ious >= 0.5, ious, 0.0)).pairs
    assert [(r, c) for r, c in max_sum if ious[r, c] >= 0.5] == [(0, 1), (2, 2)]
    out = clear_metrics(table)
    want = brute_clear(gt, pred)
    assert (out.matched, out.fp, out.fn, out.idsw) == (3, 0, 0, 0)
    assert (want["matched"], want["fp"], want["fn"], want["idsw"]) == (3, 0, 0, 0)
    assert out.motp == pytest.approx(100.0 * (19 / 33 + 15 / 29 + 19 / 35) / 3, abs=1e-12)
    assert nan_equal(out.motp, want["motp"])


def test_clear_rejects_empty_gt_and_duplicates():
    with pytest.raises(ValueError, match="^tracking metrics need at least one ground-truth box$"):
        clear_metrics(pair_frames([], [track(0, 1)]))
    with pytest.raises(ValueError):
        clear_metrics(pair_frames([track(0, 1), track(0, 1)], [track(0, 1)]))
    with pytest.raises(ValueError):
        clear_metrics(pair_frames([track(0, 1)], [track(0, 2), track(0, 2)]))


# --------------------------------------------------------------------- IDF1


def test_idf1_perfect():
    gt = [track(f, i) for f in range(4) for i in (1, 2)]
    out = idf1(pair_frames(gt, list(gt)))
    assert out.idf1 == 100.0
    assert out.idtp == 8 and out.idfp == 0 and out.idfn == 0


def test_idf1_half_split_identity():
    gt = [track(f, 1) for f in range(10)]
    pred = [track(f, 1) for f in range(5)] + [track(f, 2) for f in range(5, 10)]
    out = idf1(pair_frames(gt, pred))
    assert out.idtp == 5
    assert out.idfp == 5 and out.idfn == 5
    assert out.idf1 == pytest.approx(50.0)


def test_idf1_prefers_longest_joint_coverage():
    # pred id 7 covers gt 1 for 3 frames, pred id 8 covers it for 1 frame
    gt = [track(f, 1) for f in range(4)]
    pred = [track(0, 7), track(1, 7), track(2, 7), track(3, 8)]
    out = idf1(pair_frames(gt, pred))
    assert out.idtp == 3


# --------------------------------------------------------------------- HOTA


def test_hota_perfect():
    gt = [track(f, i) for f in range(5) for i in (1, 2)]
    out = hota(pair_frames(gt, list(gt)))
    assert out.hota == pytest.approx(100.0)
    assert out.deta == pytest.approx(100.0)
    assert out.assa == pytest.approx(100.0)
    assert out.alphas == tuple(float(a) for a in ALPHA_GRID)
    assert len(out.hota_alpha) == 19


def test_hota_identity_swap_halves_association():
    gt = [track(f, 1) for f in range(10)]
    pred = [track(f, 1) for f in range(5)] + [track(f, 2) for f in range(5, 10)]
    out = hota(pair_frames(gt, pred))
    assert out.deta == pytest.approx(100.0)
    assert out.assa == pytest.approx(50.0)
    assert out.hota == pytest.approx(100.0 * math.sqrt(0.5))


def test_hota_published_matching_differs_from_per_alpha_gating():
    # gt A, x the prediction that tracks it: alone with IoU 1 on frames 0-3.
    # Frame 4 adds gt B and prediction y, all boxes 10 high at y 0..10:
    # A [10, 20], x [11, 21], y [5, 15], B [16, 26], so S(A, x) = 9/11,
    # S(A, y) = S(B, x) = 5/15 = 1/3 and S(B, y) = 0.
    # Potential: frames 0-3 give A-x 1 each; on frame 4 the row and column
    # sums of A and x are 9/11 + 1/3 = 38/33, so A-x gains (27/33) / (49/33)
    # = 27/49, and A-y, B-x gain (11/33) / (38/33) = 11/38 each.
    # GAS(A, x) = (4 + 27/49) / (10 - 4 - 27/49) = 223/267 and
    # GAS(A, y) = GAS(B, x) = (11/38) / (6 - 11/38) = 11/217, so frame 4's one
    # max-sum matching is {A-x, B-y} (0.683 against 2/3 * 11/217 = 0.034).
    # The TPs at every alpha are frames 0-3's A-x (S = 1) plus frame 4's A-x
    # where alpha <= 9/11, i.e. the 16 alphas 0.05..0.80:
    #   16 alphas: TP 5, FN 1, FP 1, DetA 5/7, AssA 5/(5 + 5 - 5) = 1;
    #    3 alphas: TP 4, FN 2, FP 2, DetA 1/2, AssA 4/(5 + 5 - 4) = 2/3.
    # The per-alpha gated variant maximises the pair count first, so at the 6
    # alphas <= 1/3 it took A-y and B-x on frame 4 (DetA 1, AssA 23/45) and
    # reported DetA 77.07, AssA 79.30, HOTA 76.17 against 68.05, 94.74, 80.29.
    gt, pred = hota_hand_case()
    out = hota(pair_frames(gt, pred))
    assert out.tp == (5,) * 16 + (4,) * 3
    assert out.deta == pytest.approx(100.0 * (16 * 5 / 7 + 3 / 2) / 19, abs=1e-12)
    assert out.assa == pytest.approx(100.0 * (16 + 3 * 2 / 3) / 19, abs=1e-12)
    assert out.hota == pytest.approx(100.0 * (16 * math.sqrt(5 / 7) + 3 * math.sqrt(1 / 3)) / 19, abs=1e-12)
    want = brute_hota(gt, pred)
    assert all(nan_equal(getattr(out, k), want[k]) for k in ("hota", "deta", "assa"))


def test_hota_alpha_test_allows_eps():
    # S >= alpha - eps, with eps = np.finfo(float).eps as in TrackEval: IoU
    # 0.3499999999999999 (one ulp below ALPHA_GRID[6] = 0.35) still counts at
    # alpha 0.35, and 0.3499999999999997 (more than eps below) does not
    for height, alphas in ((3.4999999999999996, 7), (3.4999999999999973, 6)):
        out = hota(pair_frames([track(0, 1)], [track(0, 1, BoxXYXY(0.0, 0.0, 10.0, height))]))
        assert out.tp == (1,) * alphas + (0,) * (19 - alphas), height


def test_hota_solves_each_frame_once_with_hungarian(monkeypatch):
    # one assignment per frame with both gt and predictions serves all 19
    # alphas; the gated matching plays no part
    gt, pred = tiny_tracks(Xoshiro256(3007))
    gt += [track(40, 1), track(41, 2)]
    pred += [track(41, 5), track(42, 6)]
    calls = []
    real = metrics.assign.hungarian

    def counting(cost):
        calls.append(np.shape(cost))
        return real(cost)

    def forbidden(*args):
        raise AssertionError("hota must not call gated_match")

    monkeypatch.setattr(metrics.assign, "hungarian", counting)
    monkeypatch.setattr(metrics.assign, "gated_match", forbidden)
    hota(pair_frames(gt, pred))
    frames = {t.frame for t in gt} & {t.frame for t in pred}
    assert 41 in frames and 40 not in frames and 42 not in frames
    assert calls == [(sum(t.frame == f for t in gt), sum(t.frame == f for t in pred)) for f in sorted(frames)]


def test_hota_rejects_empty_gt():
    with pytest.raises(ValueError):
        hota(pair_frames([], [track(0, 1)]))


# ------------------------------------------------------------- detection AP


def test_detection_ap_perfect():
    gts = [(0, BOX), (1, FAR)]
    preds = [(0, BOX, 0.9), (1, FAR, 0.8)]
    out = detection_ap(preds, gts)
    assert out.ap == 100.0
    assert out.ap50 == 100.0 and out.ap75 == 100.0
    assert out.ar == 100.0
    assert out.gt_count == 2 and out.pred_count == 2


def test_detection_ap_high_confidence_fp_halves_ap():
    gts = [(0, BOX)]
    preds = [(0, FAR, 0.95), (0, BOX, 0.9)]
    out = detection_ap(preds, gts)
    assert out.ap == pytest.approx(50.0)
    assert out.ap50 == pytest.approx(50.0)


def test_detection_ap_grades_localization_across_thresholds():
    gts = [(0, BOX)]
    preds = [(0, BOX_IOU06, 0.9)]  # IoU exactly 0.6: passes 0.50, 0.55, 0.60
    out = detection_ap(preds, gts)
    assert out.ap50 == 100.0
    assert out.ap75 == 0.0
    assert out.ap == pytest.approx(30.0)
    assert out.ar == pytest.approx(30.0)


def test_detection_ap_area_splits_filter_both_sides():
    medium = BoxXYXY(0.0, 0.0, 40.0, 40.0)       # 1600 in [1024, 9216)
    large = BoxXYXY(100.0, 100.0, 200.0, 200.0)  # 10000 >= 9216
    small = BoxXYXY(50.0, 50.0, 55.0, 55.0)      # 25: excluded from both splits
    gts = [(0, medium), (0, large)]
    preds = [(0, medium, 0.9), (0, small, 0.8)]
    out = detection_ap(preds, gts)
    assert out.ap_medium == pytest.approx(100.0)
    assert out.ap_large == pytest.approx(0.0)  # large gt exists, nothing predicted there
    # recall caps at 0.5, so 51 of the 101 interpolation points score 1.0
    assert out.ap == pytest.approx(100.0 * 51.0 / 101.0)


def test_detection_ap_zero_gt_conventions():
    flagged = detection_ap([(0, BOX, 0.9)], [])
    assert flagged.ap == 0.0
    assert math.isnan(flagged.ar)
    empty = detection_ap([], [])
    assert math.isnan(empty.ap)
    # subranges with no gt are NaN even when the overall has gt
    out = detection_ap([(0, BOX, 0.9)], [(0, BOX)])  # BOX area 100: below medium
    assert math.isnan(out.ap_medium) and math.isnan(out.ap_large)


def test_detection_ap_score_ties_break_by_frame_then_order():
    # both predictions score 0.5; the frame-0 one must rank first and win the gt
    gts = [(0, BOX)]
    preds = [(1, BOX, 0.5), (0, BOX, 0.5)]
    out = detection_ap(preds, gts)
    # TP at rank 1 of 2: precision envelope 1.0 up to recall 1.0
    assert out.ap == pytest.approx(100.0)


# ------------------------------------------------------------------ OKS/PCK


def test_oks_hand_value():
    gt_pose = np.zeros((16, 3))
    gt_pose[0] = (5.0, 5.0, 2)  # one labeled joint
    pred_pose = np.zeros((16, 2))
    pred_pose[0] = (9.0, 5.0)  # displaced by 4
    got = oks(pred_pose, gt_pose, BOX)
    want = math.exp(-16.0 / (2.0 * 100.0 * 0.08**2))
    assert got == pytest.approx(want, rel=1e-12)


def test_oks_ignores_unlabeled_joints():
    gt_pose = np.zeros((16, 3))
    gt_pose[0] = (5.0, 5.0, 1)
    gt_pose[1] = (0.0, 0.0, 0)  # unlabeled, wildly wrong prediction is fine
    pred_pose = np.zeros((16, 2))
    pred_pose[0] = (5.0, 5.0)
    pred_pose[1] = (999.0, 999.0)
    assert oks(pred_pose, gt_pose, BOX) == pytest.approx(1.0)
    assert math.isnan(oks(pred_pose, np.zeros((16, 3)), BOX))
    with pytest.raises(ValueError):
        oks(pred_pose, gt_pose, BoxXYXY(0.0, 0.0, 0.0, 10.0))


def test_keypoint_ap_perfect_and_dropped_unlabeled_gts():
    pose = np.array([[float(j), float(2 * j)] for j in range(16)])
    gt_pose = np.hstack([pose, np.full((16, 1), 2.0)])
    gts = [(0, gt_pose, BOX), (0, np.zeros((16, 3)), FAR)]  # second has no labels
    preds = [(0, pose, 0.9)]
    out = keypoint_ap(preds, gts)
    assert out.gt_count == 1  # unlabeled gt dropped
    assert out.ap == pytest.approx(100.0)


def test_pck_hand_case_with_inclusive_boundary():
    gt_pose = np.zeros((1, 16, 3))
    pred_pose = np.zeros((1, 16, 2))
    gt_pose[0, :, 2] = 0  # default invisible
    gt_pose[0, 0] = (5.0, 5.0, 2)
    gt_pose[0, 1] = (8.0, 8.0, 1)
    gt_pose[0, 2] = (2.0, 2.0, 2)
    gt_pose[0, 3] = (1.0, 1.0, 0)  # not counted
    pred_pose[0, 0] = (5.5, 5.0)   # dist 0.5 < 1.0
    pred_pose[0, 1] = (9.0, 8.0)   # dist 1.0 == threshold: correct (inclusive)
    pred_pose[0, 2] = (3.5, 2.0)   # dist 1.5 > 1.0
    pred_pose[0, 3] = (99.0, 99.0)
    boxes = np.array([[0.0, 0.0, 10.0, 20.0]])  # max dim 20, delta 0.05 -> thresh 1.0
    out = pck(pred_pose, gt_pose, boxes, delta=0.05)
    assert out.mean == pytest.approx(100.0 * 2.0 / 3.0)
    assert out.counted[3] == 0
    assert math.isnan(out.per_joint[3])
    assert out.per_joint[0] == 100.0 and out.per_joint[2] == 0.0


def test_pck_validation():
    with pytest.raises(ValueError):
        pck(np.zeros((2, 16, 2)), np.zeros((1, 16, 3)), np.zeros((1, 4)))
    with pytest.raises(ValueError):
        pck(np.zeros((1, 16, 2)), np.zeros((1, 16, 3)), np.array([[0.0, 0.0, 1.0, 1.0]]), delta=0.0)
    with pytest.raises(ValueError):
        pck(np.zeros((1, 16, 2)), np.zeros((1, 16, 3)), np.array([[0.0, 0.0, 0.0, 1.0]]))



def loop_pck(pred_poses, gt_poses, gt_boxes, delta):
    """PCK one instance at a time, as plain Python takes each box's longer side."""
    correct = np.zeros(16, dtype=int)
    counted = np.zeros(16, dtype=int)
    for i in range(len(pred_poses)):
        w = gt_boxes[i][2] - gt_boxes[i][0]
        h = gt_boxes[i][3] - gt_boxes[i][1]
        if w <= 0.0 or h <= 0.0:
            raise ValueError(f"degenerate ground-truth box at instance {i}")
        dists = np.sqrt(((pred_poses[i] - gt_poses[i][:, :2]) ** 2).sum(axis=1))
        visible = gt_poses[i][:, 2] > 0
        counted += visible
        correct += visible & (dists <= delta * max(h, w))
    return metrics._pck_scores(correct, counted, delta)


def random_pck_instances(rng: Xoshiro256):
    """0-5 instances; sides are sometimes equal or NaN, and one box may be degenerate."""
    n = rng.randint(6)
    preds, gts, boxes = np.zeros((n, 16, 2)), np.zeros((n, 16, 3)), np.zeros((n, 4))
    for i in range(n):
        x0, y0, w = rng.uniform(0.0, 500.0), rng.uniform(0.0, 400.0), rng.uniform(5.0, 150.0)
        h = [w, rng.uniform(5.0, 150.0)][rng.randint(2)]
        box = [x0, y0, x0 + w, y0 + h]
        if rng.random() < 0.1:
            box[2 + rng.randint(2)] = float("nan")
        boxes[i] = box
        for j in range(16):
            gx, gy = rng.uniform(x0, x0 + w), rng.uniform(y0, y0 + h)
            gts[i, j] = (gx, gy, rng.randint(3))
            preds[i, j] = (gx + rng.gauss(0.0, 0.06 * w), gy + rng.gauss(0.0, 0.06 * h))
    if n and rng.random() < 0.2:
        i = rng.randint(n)
        boxes[i, 2 + rng.randint(2)] = boxes[i, rng.randint(2)] - rng.uniform(0.0, 10.0) * rng.randint(2)
    return preds, gts, boxes


def pck_outcome(fn, *args):
    """(repr, correct, counted) of a PckResult, or ("error: <message>", (), ())."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return f"error: {exc}", (), ()
    return repr(result), result.correct, result.counted


def test_pck_agrees_with_a_loop_over_instances():
    kinds = {"empty": 0, "tie": 0, "nan": 0, "degenerate": 0, "scored": 0}
    for seed in range(400):
        preds, gts, boxes = random_pck_instances(Xoshiro256(seed))
        w, h = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
        kinds["empty"] += len(boxes) == 0
        kinds["tie"] += bool((w == h).any())
        kinds["nan"] += bool(np.isnan(boxes).any())
        for delta in (0.05, 0.10):
            want = pck_outcome(loop_pck, preds, gts, boxes, delta)
            assert pck_outcome(pck, preds, gts, boxes, delta) == want, (seed, delta)
            kinds["scored"] += 0 < sum(want[1]) < sum(want[2])  # some joints in, some out
        kinds["degenerate"] += want[0].startswith("error: degenerate ground-truth box at instance")
    assert all(kinds.values()), kinds


# -------------------------------------------------------------- behavior mAP


def multihot(*indices):
    hot = np.zeros(23, dtype=int)
    for i in indices:
        hot[i] = 1
    return hot


def scores(**kv):
    s = np.zeros(23)
    for k, v in kv.items():
        s[int(k[1:])] = v
    return s


def test_behavior_map_perfect_and_category_means():
    gts = [(0, BOX, multihot(0, 19)), (1, FAR, multihot(5))]
    preds = [
        (0, BOX, scores(c0=0.9, c19=0.8)),
        (1, FAR, scores(c5=0.7)),
    ]
    out = behavior_map(preds, gts)
    assert out.per_class[0] == pytest.approx(100.0)
    assert out.per_class[19] == pytest.approx(100.0)
    assert out.per_class[5] == pytest.approx(100.0)
    assert math.isnan(out.per_class[1])
    assert out.map == pytest.approx(100.0)
    assert out.map_locomotion == pytest.approx(100.0)
    assert out.map_object == pytest.approx(100.0)
    assert out.map_social == pytest.approx(100.0)
    assert math.isnan(out.map_others)  # no class 21/22 ground truth
    assert out.gt_counts[0] == 1 and out.gt_counts[1] == 0


def test_behavior_map_high_scoring_wrong_box_halves_class_ap():
    gts = [(0, BOX, multihot(2))]
    preds = [
        (0, FAR, scores(c2=0.95)),
        (0, BOX, scores(c2=0.9)),
    ]
    out = behavior_map(preds, gts)
    assert out.per_class[2] == pytest.approx(50.0)
    assert out.map == pytest.approx(50.0)


def test_behavior_map_gt_consumed_once_per_class():
    gts = [(0, BOX, multihot(0))]
    preds = [
        (0, BOX, scores(c0=0.9)),
        (0, BOX, scores(c0=0.8)),  # duplicate hit: FP for class 0
    ]
    out = behavior_map(preds, gts)
    # AP stays 100: the TP outranks the duplicate
    assert out.per_class[0] == pytest.approx(100.0)
    flipped = behavior_map(list(reversed(preds)), gts)
    assert flipped.per_class[0] == pytest.approx(100.0)


def test_behavior_map_falls_back_to_next_free_gt_where_ava_counts_fp():
    # both gts carry class 0. The first-ranked prediction takes gt A (IoU 1).
    # The second's argmax-IoU gt is A too (9/11), already taken; gt B is free
    # at IoU 17/23 >= 0.5, so it takes B and both are TPs (AP 100). AVA's
    # evaluator counts it a false positive instead: TP, FP, AP 50
    box_b = BoxXYXY(0.0, 2.5, 10.0, 12.5)
    second = BoxXYXY(0.0, 1.0, 10.0, 11.0)
    assert geometry.iou(second, BOX) == pytest.approx(9 / 11) and geometry.iou(second, box_b) == pytest.approx(17 / 23)
    gts = [(0, BOX, multihot(0)), (0, box_b, multihot(0))]
    preds = [(0, BOX, scores(c0=0.9)), (0, second, scores(c0=0.8))]
    out = behavior_map(preds, gts)
    assert out.classes[0].tp.tolist() == [[True, True]]
    assert out.per_class[0] == 100.0
    assert brute_behavior_map(preds, gts).per_class[0] == 100.0


# ------------------------------------------------------- greedy AP matching


def _pair_count_case(metric: str):
    """Inputs of one AP metric and the gts it scores.

    Three frames each hold a small, a medium and a large gt box with two
    jittered predictions; one prediction sits on a frame without gt. The
    behavior gt and the pose gt at index 1 are left unscored: an empty
    multi-hot, no labeled joint.
    """
    rng = Xoshiro256(7100)
    gts, preds = [], []
    for frame in range(3):
        for side in (10.0, 40.0, 100.0):
            x, y = rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)
            gts.append((frame, BoxXYXY(x, y, x + side, y + side)))
            for _ in range(2):
                dx, dy = rng.gauss(0.0, 0.1 * side), rng.gauss(0.0, 0.1 * side)
                preds.append((frame, BoxXYXY(x + dx, y + dy, x + dx + side, y + dy + side), rng.uniform(0.1, 0.99)))
    preds.append((5, BoxXYXY(0.0, 0.0, 50.0, 50.0), 0.5))
    assert {(_area(box) >= 32.0**2) + (_area(box) >= 96.0**2) for _, box in gts} == {0, 1, 2}
    if metric == "detection_ap":
        return preds, gts, gts
    if metric == "behavior_map":
        beh_gts = [(f, box, multihot(j % 23) if j != 1 else multihot()) for j, (f, box) in enumerate(gts)]
        beh_preds = [(f, box, np.array([rng.random() for _ in range(23)])) for f, box, _ in preds]
        return beh_preds, beh_gts, beh_gts[:1] + beh_gts[2:]

    def grid(box):
        side = box[2] - box[0]
        return np.array([[box[0] + side * (j % 4 + 0.5) / 4, box[1] + side * (j // 4 + 0.5) / 4] for j in range(16)])

    pose_gts = [(f, np.hstack([grid(box), np.full((16, 1), 2.0 * (j != 1))]), box) for j, (f, box) in enumerate(gts)]
    pose_preds = [(f, grid(box), score) for f, box, score in preds]
    return pose_preds, pose_gts, pose_gts[:1] + pose_gts[2:]


@pytest.mark.parametrize(
    "metric, oracle, module, similarity, keys",
    [
        (detection_ap, brute_detection_ap, geometry, "iou", AP_KEYS),
        (keypoint_ap, brute_keypoint_ap, metrics, "oks", AP_KEYS),
        (behavior_map, brute_behavior_map, geometry, "iou", ("map", "per_class")),
    ],
    ids=["detection_ap", "keypoint_ap", "behavior_map"],
)
def test_ap_metric_scores_each_same_frame_pair_once(monkeypatch, metric, oracle, module, similarity, keys):
    # one similarity table per metric call: area splits, behavior classes and
    # thresholds all read it, so each same-frame pair of the scored gts is
    # scored exactly once
    preds, gts, scored = _pair_count_case(metric.__name__)
    real = getattr(module, similarity)
    calls = []

    def counting(pred, gt, *rest):
        calls.append((id(pred), id(gt)))
        return real(pred, gt, *rest)

    monkeypatch.setattr(module, similarity, counting)
    got = metric(preds, gts)
    monkeypatch.undo()
    pairs = [(id(p[1]), id(g[1])) for p in preds for g in scored if p[0] == g[0]]
    assert pairs and sorted(calls) == sorted(pairs)
    want = oracle(preds, gts)
    for key in keys:
        assert all(map(nan_equal, np.ravel(getattr(got, key)), np.ravel(getattr(want, key)))), key


def test_rank_and_match_tie_takes_lowest_gt_index_at_every_threshold():
    # pred 0 is equally similar to gts 0 and 1 and must take the lowest kept
    # index at every threshold; pred 1 (ranked second) matches only the gt
    # that pred 0 takes or only the one it leaves. With gt 0 masked out, pred 0
    # takes gt 1 and gt 0 is never consumed, so pred 1 matches neither.
    at = np.array([[0, 0], [0, 1]])
    for keep, lone_gt, pred1_hits in (
        ((True, True), 0, False),
        ((True, True), 1, True),
        ((False, True), 0, False),
        ((False, True), 1, False),
    ):
        pairs = (np.array([[[0.95, 0.95], np.eye(2)[lone_gt]]]), at, at)
        out = _rank_and_match(pairs, [0.9, 0.8], np.ones(2, dtype=bool), np.array(keep), IOU_THRESHOLDS)
        assert out.n_gt == sum(keep)
        assert out.tp[:, 0].all(), (keep, lone_gt)
        assert (out.tp[:, 1] == pred1_hits).all(), (keep, lone_gt)


def _random_match_table(rng, columns: int):
    """A _rank_and_match input as _score_pairs lays it out, with many ties.

    Up to 6 frames, in shuffled order, hold 0-4 gts and 0-6 predictions, and
    both sides are shuffled across frames; similarities and scores come from
    small grids. Each of `columns` (score, keep) columns keeps about 80% of the
    predictions and 70% of the gts. Returns the pairs, a (predictions,
    columns) score array and the (predictions, columns) and (gts, columns)
    keep arrays.
    """
    preds, gts = [], []
    for frame in rng.permutation(20)[: rng.integers(1, 7)]:
        ng = int(rng.integers(0, 5))
        gts += [(int(frame), j) for j in range(ng)]
        for _ in range(rng.integers(0, 7)):
            preds.append((int(frame), rng.choice([0.0, 0.3, 0.5, 0.5, 0.75, 0.9, 0.9, 1.0], size=ng)))
    preds = [preds[i] for i in rng.permutation(len(preds))]
    gts = [gts[j] for j in rng.permutation(len(gts))]
    pairs = metrics._score_pairs(preds, gts, lambda p, g: p[1][g[1]])
    scores = rng.choice([0.1, 0.5, 0.5, 0.9], size=(len(preds), columns))
    return pairs, scores, rng.random((len(preds), columns)) < 0.8, rng.random((len(gts), columns)) < 0.7


def _assert_same_matches(got, want, label):
    assert got.n_gt == want.n_gt, label
    assert got.score.tolist() == want.score.tolist(), label
    assert got.tp.shape == want.tp.shape and (got.tp == want.tp).all(), label


def test_stepped_matcher_equals_the_scalar_matcher():
    # ties in score and similarity, masked predictions, unkept gts, frames with
    # no (kept) gt and tables without predictions, at 1 and at 10 thresholds
    seen = {"tied scores": 0, "masked prediction": 0, "frame without kept gt": 0, "no predictions": 0, "hits": 0}
    for seed in range(600):
        rng = np.random.default_rng(seed)
        pairs, scores, keep_pred, keep = _random_match_table(rng, 1)
        thresholds = IOU_THRESHOLDS if seed % 2 else (0.5,)
        got = _rank_and_match(pairs, scores[:, 0], keep_pred[:, 0], keep[:, 0], thresholds)
        want = scalar_rank_and_match(pairs, scores[:, 0], keep_pred[:, 0], keep[:, 0], thresholds)
        _assert_same_matches(got, want, seed)
        _, pred_at, gt_at = pairs
        seen["tied scores"] += len(set(scores[:, 0].tolist())) < len(scores)
        seen["masked prediction"] += not keep_pred.all()
        seen["frame without kept gt"] += bool(set(pred_at[:, 0]) - set(gt_at[keep[:, 0], 0]))
        seen["no predictions"] += not len(scores)
        seen["hits"] += int(got.tp.sum())
    assert min(seen.values()) >= 10, seen
    pairs = metrics._score_pairs([], [(0,)] * 3, None)
    empty = _rank_and_match(pairs, [], np.ones(0, dtype=bool), np.ones(3, dtype=bool), IOU_THRESHOLDS)
    assert (empty.score.shape, empty.tp.shape, empty.n_gt) == ((0,), (10, 0), 3)


def test_stepped_matcher_equals_the_scalar_matcher_on_23_behavior_columns():
    # behavior mAP's layout: one table, one (score, multi-hot) column per class
    for seed in range(40):
        rng = np.random.default_rng(10_000 + seed)
        pairs, scores, keep_pred, keep = _random_match_table(rng, 23)
        for k in range(23):
            got = _rank_and_match(pairs, scores[:, k], keep_pred[:, k], keep[:, k], (0.5,))
            want = scalar_rank_and_match(pairs, scores[:, k], keep_pred[:, k], keep[:, k], (0.5,))
            _assert_same_matches(got, want, (seed, k))


# -------------------------------------------------- oracle agreement sweeps


def test_clear_agrees_with_oracle():
    for seed in range(40):
        rng = Xoshiro256(1000 + seed)
        gt, pred = tiny_tracks(rng)
        if not gt:
            continue
        got = clear_metrics(pair_frames(gt, pred))
        want = brute_clear(gt, pred)
        for key in ("mota", "motp", "n_fp", "n_fn", "n_ids"):
            assert nan_equal(getattr(got, key), want[key]), (seed, key)
        for key in ("fp", "fn", "idsw", "matched"):
            assert getattr(got, key) == want[key], (seed, key)


def test_idf1_agrees_with_oracle():
    for seed in range(40):
        rng = Xoshiro256(2000 + seed)
        gt, pred = tiny_tracks(rng)
        if not gt:
            continue
        got = idf1(pair_frames(gt, pred))
        want = brute_idf1(gt, pred)
        assert nan_equal(got.idf1, want["idf1"]), seed
        assert got.idtp == want["idtp"]


def test_hota_agrees_with_oracle():
    for seed in range(40):
        rng = Xoshiro256(3000 + seed)
        gt, pred = tiny_tracks(rng)
        if not gt:
            continue
        got = hota(pair_frames(gt, pred))
        want = brute_hota(gt, pred)
        assert nan_equal(got.hota, want["hota"]), seed
        assert nan_equal(got.deta, want["deta"]), seed
        assert nan_equal(got.assa, want["assa"]), seed


def _assert_oracle_flags(matches, preds, gts, thresholds, sim, label):
    """The rank-ordered tp flags equal oracles._naive_greedy's exactly, threshold by threshold."""
    assert matches.tp.shape == (len(thresholds), len(preds)), label
    for t, flags in zip(thresholds, matches.tp):
        assert flags.tolist() == _naive_greedy(preds, gts, float(t), sim), (label, float(t))


def _iou_sim(p, g) -> float:
    return _iou(p[1], g[1])


def _oks_sim(p, g) -> float:
    return _oks(p[1], g[1], g[2])


def _oracle_splits(preds, gts, pred_box, gt_box):
    """(preds, gts) of all instances, then of the medium and large area splits,
    filtered as the oracles filter them; pred_box None keeps every prediction."""
    splits = [(preds, gts)]
    for lo, hi in ((32.0**2, 96.0**2), (96.0**2, math.inf)):
        splits.append(
            (
                [p for p in preds if pred_box is None or lo <= _area(pred_box(p)) < hi],
                [g for g in gts if lo <= _area(gt_box(g)) < hi],
            )
        )
    return splits


def test_detection_ap_agrees_with_oracle():
    # tiny_tracks boxes are all small; scaled copies fill the medium and large splits
    split_gts = np.zeros(3, dtype=int)
    for seed in range(40):
        rng = Xoshiro256(4000 + seed)
        gt, pred = tiny_tracks(rng)
        det_pred, det_gt = tiny_detection_sets(rng, gt, pred)
        for scale in (1.0, 2.0, 4.0):
            s_pred = [(f, BoxXYXY(*(scale * v for v in box)), score) for f, box, score in det_pred]
            s_gt = [(f, BoxXYXY(*(scale * v for v in box))) for f, box in det_gt]
            got = detection_ap(s_pred, s_gt)
            want = brute_detection_ap(s_pred, s_gt)
            for key in AP_KEYS:
                assert nan_equal(getattr(got, key), getattr(want, key)), (seed, scale, key)
            splits = _oracle_splits(s_pred, s_gt, lambda p: p[1], lambda g: g[1])
            for split, (matches, (p_sub, g_sub)) in enumerate(zip(got.splits, splits)):
                _assert_oracle_flags(matches, p_sub, g_sub, IOU_THRESHOLDS, _iou_sim, (seed, scale, split))
                split_gts[split] += len(g_sub)
    assert (split_gts > 0).all()


def test_behavior_map_agrees_with_oracle():
    for seed in range(40):
        rng = Xoshiro256(5000 + seed)
        gt, pred = tiny_tracks(rng)
        det_pred, det_gt = tiny_detection_sets(rng, gt, pred)
        beh_pred, beh_gt = tiny_behavior_sets(rng, det_pred, det_gt)
        got = behavior_map(beh_pred, beh_gt)
        want = brute_behavior_map(beh_pred, beh_gt)
        assert nan_equal(got.map, want.map), seed
        for k in range(23):
            assert nan_equal(got.per_class[k], want.per_class[k]), (seed, k)
        for key in ("map_locomotion", "map_object", "map_social", "map_others"):
            assert nan_equal(getattr(got, key), getattr(want, key)), (seed, key)
        for k, matches in enumerate(got.classes):
            k_preds = [(p[0], p[1], float(p[2][k])) for p in beh_pred]
            k_gts = [(g[0], g[1]) for g in beh_gt if g[2][k]]
            _assert_oracle_flags(matches, k_preds, k_gts, (0.5,), _iou_sim, (seed, k))


def _tiny_keypoint_sets(rng: Xoshiro256):
    """OKS-AP inputs: gt poses on a grid inside square boxes of every area
    split, partly labeled, and jittered predictions with rounded (tied) scores."""
    preds, gts = [], []
    for frame in range(1 + rng.randint(3)):
        for _ in range(rng.randint(4)):
            x, y, side = rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0), rng.uniform(20.0, 120.0)
            grid = np.array([[x + side * (j % 4 + 0.5) / 4, y + side * (j // 4 + 0.5) / 4] for j in range(16)])
            vis = [0 if rng.random() < 0.4 else 1 + rng.randint(2) for _ in range(16)]
            if rng.random() < 0.1:
                vis = [0] * 16
            gts.append((frame, np.hstack([grid, np.array(vis, dtype=float)[:, None]]), BoxXYXY(x, y, x + side, y + side)))
            for _ in range(rng.randint(3)):
                sigma = rng.uniform(0.0, 0.1) * side
                jitter = np.array([[rng.gauss(0.0, sigma), rng.gauss(0.0, sigma)] for _ in range(16)])
                preds.append((frame, grid + jitter, round(rng.uniform(0.1, 0.99), 1)))
        if rng.random() < 0.3:
            clutter = np.array([[rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)] for _ in range(16)])
            preds.append((frame, clutter, round(rng.uniform(0.1, 0.99), 1)))
    return preds, gts


def test_keypoint_ap_agrees_with_oracle():
    for seed in range(60):
        preds, gts = _tiny_keypoint_sets(Xoshiro256(8000 + seed))
        got = keypoint_ap(preds, gts)
        want = brute_keypoint_ap(preds, gts)
        assert (got.gt_count, got.pred_count) == (want.gt_count, want.pred_count), seed
        for key in AP_KEYS:
            assert nan_equal(getattr(got, key), getattr(want, key)), (seed, key)
        labeled = [g for g in gts if g[1][:, 2].max() > 0]
        splits = _oracle_splits(preds, labeled, None, lambda g: g[2])
        for split, (matches, (p_sub, g_sub)) in enumerate(zip(got.splits, splits)):
            _assert_oracle_flags(matches, p_sub, g_sub, IOU_THRESHOLDS, _oks_sim, (seed, split))

"""Brute-force reference implementations for verification.

Everything here recomputes results from first principles: exhaustive
enumeration instead of the Hungarian solver, naive per-point curve sampling
instead of envelope tricks, one-point-at-a-time bilinear loops instead of
the batched gather, the standard library's JSON encoder instead of the
string-joining writer, and local re-derivations of IoU and the loss
formulas instead of calls into the production code paths. The only shared
pieces are plain data containers. These oracles are exponential and guarded
against large inputs; they exist to check the fast implementations on small
instances, not to be fast. tiny_tracks draws such instances for the tests and
the selfcheck.

Two references check batching rather than an algorithm, so they reuse the
production steps and undo only the batching: window_forward runs the toy
detector one window at a time, every window from its own frames, and
scalar_track runs the tracker one track at a time with its own 7-dim Kalman
filter. The batched code must match them bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import assign, kernels, tracker
from .assign import Assignment
from .dataio import BEHAVIOR_CATEGORIES, BEHAVIOR_COUNT, DetectionRecord, SequenceAnnotation, TrackedBox
from .geometry import BoxXYXY, iou_matrix
from .loss import LossWeights
from .metrics import ALPHA_GRID, IOU_THRESHOLDS, RECALL_POINTS, BehaviorMAP, DetectionAP
from .rng import Xoshiro256

_ENUM_LIMIT = 5_000_000


@lru_cache(maxsize=None)
def _perm_table(n_cols: int, k: int) -> np.ndarray:
    return np.array(list(permutations(range(n_cols), k)), dtype=int)


def brute_assignment(cost) -> Assignment:
    """Exhaustive minimum-cost assignment with the lex-smallest tie-break.

    Enumerates every maximal matching, finds the minimum total, then returns
    the lexicographically smallest pair list among totals within 1e-9
    (relative) of the minimum.
    """
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    if k == 0:
        return Assignment((), 0.0)
    row_sets = [tuple(range(n_rows))] if n_rows <= n_cols else list(combinations(range(n_rows), k))
    perms = _perm_table(n_cols, k)
    if len(row_sets) * len(perms) > _ENUM_LIMIT:
        raise ValueError("instance too large for exhaustive assignment")

    best = math.inf
    per_set_totals = []
    for rows in row_sets:
        sub = cost[list(rows), :]
        totals = sub[np.arange(k), perms].sum(axis=1)
        per_set_totals.append(totals)
        best = min(best, float(totals.min()))
    tol = 1e-9 * max(1.0, abs(best))

    best_pairs = None
    for rows, totals in zip(row_sets, per_set_totals):
        for idx in np.nonzero(totals <= best + tol)[0]:
            pairs = tuple(zip(rows, (int(c) for c in perms[idx])))
            if best_pairs is None or pairs < best_pairs:
                best_pairs = pairs
    rr = [r for r, _ in best_pairs]
    cc = [c for _, c in best_pairs]
    return Assignment(best_pairs, float(cost[rr, cc].sum()))


def finite_difference(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def _iou(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0.0 else 0.0


def _brute_gated(benefit: np.ndarray, valid: np.ndarray) -> list[tuple[int, int]]:
    """The gated matching from its definition, by enumerating valid matchings:
    the most pairs, then the largest summed benefit (ties within 1e-9
    relative), then the lexicographically smallest pair list."""
    n_rows, n_cols = valid.shape
    if sum(math.comb(n_rows, k) * math.perm(n_cols, k) for k in range(min(n_rows, n_cols) + 1)) > _ENUM_LIMIT:
        raise ValueError("instance too large for exhaustive gated matching")
    found = [()]
    for r in range(n_rows):
        found += [m + ((r, c),) for m in found for c in range(n_cols) if valid[r, c] and c not in {d for _, d in m}]
    most = max(map(len, found))
    score = {m: sum(float(benefit[r, c]) for r, c in m) for m in found if len(m) == most}
    best = max(score.values())
    return list(min(m for m, s in score.items() if s >= best - 1e-9 * max(1.0, abs(best))))


def _frame_table(tracks: list[TrackedBox]) -> dict[int, list[TrackedBox]]:
    table: dict[int, list[TrackedBox]] = {}
    for t in tracks:
        table.setdefault(t.frame, []).append(t)
    for items in table.values():
        items.sort(key=lambda t: t.track_id)
    return table


def brute_clear(gt, pred, iou_thresh: float = 0.5, motp_mode: str = "iou") -> dict:
    """CLEAR protocol replicated with exhaustive matching; returns raw fields."""
    gt_frames = _frame_table(gt)
    pred_frames = _frame_table(pred)
    gt_total = sum(len(v) for v in gt_frames.values())
    fp = fn = idsw = matched = 0
    iou_sum = 0.0
    carry: dict[int, int] = {}
    last: dict[int, int] = {}
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        g_items = gt_frames.get(frame, [])
        p_items = pred_frames.get(frame, [])
        pairs: dict[int, int] = {}
        used_g, used_p = set(), set()
        for gi, g in enumerate(g_items):
            p_id = carry.get(g.track_id)
            pi = next((i for i, p in enumerate(p_items) if p.track_id == p_id), None)
            if pi is not None and _iou(g.box, p_items[pi].box) >= iou_thresh:
                pairs[g.track_id] = p_id
                used_g.add(gi)
                used_p.add(pi)
                iou_sum += _iou(g.box, p_items[pi].box)
        rest_g = [i for i in range(len(g_items)) if i not in used_g]
        rest_p = [i for i in range(len(p_items)) if i not in used_p]
        if rest_g and rest_p:
            benefit = np.array(
                [[_iou(g_items[i].box, p_items[j].box) for j in rest_p] for i in rest_g]
            )
            for r, c in _brute_gated(benefit, benefit >= iou_thresh):
                pairs[g_items[rest_g[r]].track_id] = p_items[rest_p[c]].track_id
                iou_sum += float(benefit[r, c])
        matched += len(pairs)
        fn += len(g_items) - len(pairs)
        fp += len(p_items) - len(pairs)
        for g_id, p_id in pairs.items():
            if g_id in last and last[g_id] != p_id:
                idsw += 1
            last[g_id] = p_id
        carry = pairs
    n_fp = 100.0 * fp / gt_total
    n_fn = 100.0 * fn / gt_total
    n_ids = 100.0 * idsw / gt_total
    mean_iou = iou_sum / matched if matched else 0.0
    return {
        "mota": 100.0 - n_fp - n_fn - n_ids,
        "motp": 100.0 * mean_iou if motp_mode == "iou" else 100.0 * (1.0 - mean_iou),
        "n_fp": n_fp,
        "n_fn": n_fn,
        "n_ids": n_ids,
        "fp": fp,
        "fn": fn,
        "idsw": idsw,
        "matched": matched,
    }


def brute_idf1(gt, pred, iou_thresh: float = 0.5) -> dict:
    gt_frames = _frame_table(gt)
    pred_frames = _frame_table(pred)
    gt_total = sum(len(v) for v in gt_frames.values())
    pred_total = sum(len(v) for v in pred_frames.values())
    gt_ids = sorted({t.track_id for t in gt})
    pred_ids = sorted({t.track_id for t in pred})
    overlap = np.zeros((len(gt_ids), len(pred_ids)))
    for frame in set(gt_frames) & set(pred_frames):
        for g in gt_frames[frame]:
            for p in pred_frames[frame]:
                if _iou(g.box, p.box) >= iou_thresh:
                    overlap[gt_ids.index(g.track_id), pred_ids.index(p.track_id)] += 1.0
    idtp = 0
    if overlap.size:
        idtp = int(round(-brute_assignment(-overlap).total_cost))
    return {
        "idf1": 100.0 * 2.0 * idtp / (2.0 * idtp + (pred_total - idtp) + (gt_total - idtp)),
        "idtp": idtp,
        "idfp": pred_total - idtp,
        "idfn": gt_total - idtp,
    }


def brute_hota(gt, pred) -> dict:
    gt_frames = _frame_table(gt)
    pred_frames = _frame_table(pred)
    gt_total = sum(len(v) for v in gt_frames.values())
    pred_total = sum(len(v) for v in pred_frames.values())
    gt_ids = sorted({t.track_id for t in gt})
    pred_ids = sorted({t.track_id for t in pred})
    n_g = {g: sum(1 for v in gt_frames.values() for t in v if t.track_id == g) for g in gt_ids}
    n_p = {p: sum(1 for v in pred_frames.values() for t in v if t.track_id == p) for p in pred_ids}
    frames = sorted(set(gt_frames) | set(pred_frames))

    hota_a, deta_a, assa_a = [], [], []
    for alpha in ALPHA_GRID:
        potential: dict[tuple[int, int], int] = {}
        for frame in frames:
            for g in gt_frames.get(frame, []):
                for p in pred_frames.get(frame, []):
                    if _iou(g.box, p.box) >= alpha:
                        key = (g.track_id, p.track_id)
                        potential[key] = potential.get(key, 0) + 1

        def affinity(g_id: int, p_id: int) -> float:
            a = potential.get((g_id, p_id), 0)
            return a / (n_g[g_id] + n_p[p_id] - a) if a else 0.0

        tp = 0
        match_counts: dict[tuple[int, int], int] = {}
        for frame in frames:
            g_items = gt_frames.get(frame, [])
            p_items = pred_frames.get(frame, [])
            if not g_items or not p_items:
                continue
            ious = np.array([[_iou(g.box, p.box) for p in p_items] for g in g_items])
            benefit = np.array(
                [[affinity(g.track_id, p.track_id) for p in p_items] for g in g_items]
            )
            for r, c in _brute_gated(benefit, ious >= alpha):
                tp += 1
                key = (g_items[r].track_id, p_items[c].track_id)
                match_counts[key] = match_counts.get(key, 0) + 1

        deta = tp / (tp + (gt_total - tp) + (pred_total - tp)) if gt_total + pred_total else 0.0
        if tp:
            total = 0.0
            for (g_id, p_id), m in match_counts.items():
                total += m * (m / (n_g[g_id] + n_p[p_id] - m))
            assa = total / tp
        else:
            assa = 0.0
        deta_a.append(deta)
        assa_a.append(assa)
        hota_a.append(math.sqrt(deta * assa))

    return {
        "hota": 100.0 * float(np.mean(hota_a)),
        "deta": 100.0 * float(np.mean(deta_a)),
        "assa": 100.0 * float(np.mean(assa_a)),
    }


def _naive_greedy(preds, gts, thresh: float, sim) -> list[bool]:
    """Greedy matching in score order, matching the documented ranking rule."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][2], preds[i][0], i))
    taken: set[int] = set()
    flags = []
    for i in order:
        best_j, best_s = None, None
        for j in range(len(gts)):
            if j in taken or gts[j][0] != preds[i][0]:
                continue
            s = sim(preds[i], gts[j])
            if s < thresh:
                continue
            if best_s is None or s > best_s:
                best_j, best_s = j, s
        if best_j is None:
            flags.append(False)
        else:
            taken.add(best_j)
            flags.append(True)
    return flags


def _naive_ap_101(flags: list[bool], n_gt: int) -> float:
    if n_gt == 0:
        return float("nan")
    if not flags:
        return 0.0
    rec, prec = [], []
    tp = fp = 0
    for f in flags:
        tp += int(f)
        fp += int(not f)
        rec.append(tp / n_gt)
        prec.append(tp / (tp + fp))
    total = 0.0
    for r in RECALL_POINTS:
        eligible = [max(prec[j:]) for j in range(len(rec)) if rec[j] >= r]
        total += max(eligible) if eligible else 0.0
    return total / len(RECALL_POINTS)


def _naive_ap_all(flags: list[bool], n_gt: int) -> float:
    if n_gt == 0:
        return float("nan")
    if not flags:
        return 0.0
    rec, prec = [0.0], [1.0]
    tp = fp = 0
    for f in flags:
        tp += int(f)
        fp += int(not f)
        rec.append(tp / n_gt)
        prec.append(tp / (tp + fp))
    total = 0.0
    for j in range(1, len(rec)):
        total += (rec[j] - rec[j - 1]) * max(prec[j:])
    return total


def _area(b) -> float:
    return max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])


def _naive_ap_summary(splits, sim) -> DetectionAP:
    """COCO AP summary of (preds, gts) over all instances, then the medium and large area splits."""

    def eval_subset(p_sub, g_sub):
        flags = [_naive_greedy(p_sub, g_sub, float(t), sim) for t in IOU_THRESHOLDS]
        aps = [_naive_ap_101(f, len(g_sub)) for f in flags]
        recs = [sum(f) / len(g_sub) for f in flags]
        return aps, sum(aps) / len(aps), sum(recs) / len(recs)

    (preds, gts), medium, large = splits
    if gts:
        per, ap, ar = eval_subset(preds, gts)
    else:
        ap, ar = (0.0 if preds else float("nan")), float("nan")
        per = [ap] * len(IOU_THRESHOLDS)
    ap_m, ap_l = (eval_subset(*split)[1] if split[1] else float("nan") for split in (medium, large))

    def scale(v):
        return 100.0 * v if not math.isnan(v) else v

    return DetectionAP(scale(ap), scale(per[0]), scale(per[5]), scale(ap_m), scale(ap_l), scale(ar), len(gts), len(preds))


def brute_detection_ap(preds, gts) -> DetectionAP:
    """Naive COCO-style AP; same containers, from-scratch computation."""

    def within(lo, hi):
        return [p for p in preds if lo <= _area(p[1]) < hi], [g for g in gts if lo <= _area(g[1]) < hi]

    splits = ((preds, gts), within(32.0**2, 96.0**2), within(96.0**2, math.inf))
    return _naive_ap_summary(splits, lambda p, g: _iou(p[1], g[1]))


def _oks(pred_pose, gt_pose, gt_box, kappa: float) -> float:
    sims = [
        math.exp(-((px - gx) ** 2 + (py - gy) ** 2) / (2.0 * _area(gt_box) * kappa * kappa))
        for (px, py), (gx, gy, vis) in zip(pred_pose, gt_pose)
        if vis > 0
    ]
    return sum(sims) / len(sims)


def brute_keypoint_ap(preds, gts, kappa: float = 0.08) -> DetectionAP:
    """Naive OKS AP with one kappa for every joint; same containers as keypoint_ap.

    Ground truths without labeled joints are dropped; the area splits filter
    ground truth by its box and keep every prediction.
    """
    gts = [g for g in gts if any(vis > 0 for _, _, vis in g[1])]

    def within(lo, hi):
        return preds, [g for g in gts if lo <= _area(g[2]) < hi]

    splits = ((preds, gts), within(32.0**2, 96.0**2), within(96.0**2, math.inf))
    return _naive_ap_summary(splits, lambda p, g: _oks(p[1], g[1], g[2], kappa))


def brute_behavior_map(preds, gts, iou_thresh: float = 0.5) -> BehaviorMAP:
    per_class = []
    counts = []
    for k in range(BEHAVIOR_COUNT):
        k_gts = [(g[0], g[1]) for g in gts if g[2][k]]
        counts.append(len(k_gts))
        if not k_gts:
            per_class.append(float("nan"))
            continue
        k_preds = [(p[0], p[1], float(p[2][k])) for p in preds]
        flags = _naive_greedy(k_preds, k_gts, iou_thresh, lambda p, g: _iou(p[1], g[1]))
        per_class.append(100.0 * _naive_ap_all(flags, len(k_gts)))

    def mean_over(idx):
        vals = [per_class[i] for i in idx if not math.isnan(per_class[i])]
        return float(np.mean(vals)) if vals else float("nan")

    return BehaviorMAP(
        mean_over(range(BEHAVIOR_COUNT)),
        mean_over(BEHAVIOR_CATEGORIES["locomotion"]),
        mean_over(BEHAVIOR_CATEGORIES["object"]),
        mean_over(BEHAVIOR_CATEGORIES["social"]),
        mean_over(BEHAVIOR_CATEGORIES["others"]),
        tuple(per_class),
        tuple(counts),
    )


def combine_sequences(
    items: list[tuple[SequenceAnnotation, dict[int, list[DetectionRecord]], list[TrackedBox]]],
) -> tuple[SequenceAnnotation, dict[int, list[DetectionRecord]], list[TrackedBox]]:
    """Concatenate sequences with disjoint frame and id ranges.

    This is the reference aggregate: the aggregate over several sequences is
    defined as one evaluation of the concatenation (report.evaluate_sequence
    on its result), which report.evaluate_sequences reproduces by merging
    per-sequence statistics. Frames are shifted by the running frame count
    and track ids by the running maximum so nothing collides across
    sequences.
    """
    if not items:
        raise ValueError("nothing to combine")
    frames: dict[int, tuple] = {}
    detections: dict[int, list[DetectionRecord]] = {}
    tracks: list[TrackedBox] = []
    frame_base = 0
    gt_base = 0
    pred_base = 0
    stride = items[0][0].stride
    size = items[0][0].image_size
    for annotation, dets, seq_tracks in items:
        if annotation.image_size != size:
            raise ValueError("cannot aggregate sequences with different image sizes")
        for frame, insts in annotation.frames.items():
            frames[frame + frame_base] = tuple(
                replace(inst, track_id=inst.track_id + gt_base) for inst in insts
            )
        for frame, recs in dets.items():
            if 0 <= frame < annotation.frame_count:  # keep shifted ranges disjoint
                detections[frame + frame_base] = list(recs)
        tracks.extend(
            TrackedBox(t.frame + frame_base, t.track_id + pred_base, t.box, t.score, t.behavior_scores)
            for t in seq_tracks
            if 0 <= t.frame < annotation.frame_count
        )
        gt_ids = [i.track_id for insts in annotation.frames.values() for i in insts]
        gt_base += max(gt_ids, default=0)
        pred_base += max((t.track_id for t in seq_tracks), default=0)
        frame_base += annotation.frame_count
    combined = SequenceAnnotation(
        sequence_id="aggregate",
        image_size=size,
        frame_count=frame_base,
        stride=stride,
        frames=frames,
    )
    return combined, detections, tracks


def _corners(b):
    cx, cy, h, w = b
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def _giou_value(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    cw = max(a[2], b[2]) - min(a[0], b[0])
    ch = max(a[3], b[3]) - min(a[1], b[1])
    hull = cw * ch
    return inter / union - (hull - union) / hull


def brute_set_loss(class_probs, pred_boxes, behavior_probs, gt_boxes, gt_behaviors, weights: LossWeights = LossWeights()) -> float:
    """Set-prediction loss with the matching found by exhaustive search.

    The matching minimizes the detection matching cost (classification +
    box terms; behaviors excluded); the loss then scores matched pairs with
    focal/L1/GIoU/behavior terms and unmatched queries as pure negatives.
    """
    p = np.asarray(class_probs, dtype=float)
    boxes = np.asarray(pred_boxes, dtype=float)
    beh = np.asarray(behavior_probs, dtype=float)
    gts = np.asarray(gt_boxes, dtype=float)
    targets = np.asarray(gt_behaviors, dtype=float)
    n_q, n_g = p.shape[0], gts.shape[0]
    a, gmm = weights.alpha, weights.gamma

    cost = np.zeros((n_q, n_g))
    for q in range(n_q):
        for g in range(n_g):
            cls = a * (1.0 - p[q]) ** gmm * -math.log(p[q])
            l1 = float(np.abs(boxes[q] - gts[g]).sum())
            giou = _giou_value(_corners(boxes[q]), _corners(gts[g]))
            cost[q, g] = weights.cls * cls + weights.l1 * l1 + weights.giou * (1.0 - giou)
    # rows are queries, columns ground truths; every gt ends up matched
    match = {int(q): int(g) for q, g in brute_assignment(cost).pairs} if n_g else {}

    def clamp(v: float) -> float:
        return min(max(v, 1e-7), 1.0 - 1e-7)

    total = 0.0
    for q in range(n_q):
        pq = clamp(p[q])
        if q in match:
            g = match[q]
            total += weights.cls * (a * (1.0 - pq) ** gmm * -math.log(pq))
            total += weights.l1 * float(np.abs(boxes[q] - gts[g]).sum())
            total += weights.giou * (1.0 - _giou_value(_corners(boxes[q]), _corners(gts[g])))
            for k in range(targets.shape[1]):
                pk = clamp(beh[q, k])
                if targets[g, k]:
                    total += a * (1.0 - pk) ** gmm * -math.log(pk)
                else:
                    total += (1.0 - a) * pk**gmm * -math.log(1.0 - pk)
        else:
            total += weights.cls * ((1.0 - a) * pq**gmm * -math.log(1.0 - pq))
    return total


def naive_bilinear_sample(feature: np.ndarray, x: float, y: float) -> np.ndarray:
    """Bilinear lookup at one normalized point, one corner at a time."""
    h, w = feature.shape[:2]
    px = x * w - 0.5
    py = y * h - 0.5
    x0 = int(np.floor(px))
    y0 = int(np.floor(py))
    fx = px - x0
    fy = py - y0
    out = np.zeros(feature.shape[2:], dtype=float)
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            r, c = y0 + dy, x0 + dx
            if 0 <= r < h and 0 <= c < w and wy * wx != 0.0:
                out = out + wy * wx * feature[r, c]
    return out


def naive_deformable_sample(feature: np.ndarray, ref, offsets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted bilinear samples around one (x, y) reference, one offset at a time."""
    out = np.zeros(feature.shape[2:], dtype=float)
    for r in range(offsets.shape[0]):
        out = out + weights[r] * naive_bilinear_sample(feature, ref[0] + offsets[r, 0], ref[1] + offsets[r, 1])
    return out


def window_forward(video: np.ndarray, params: dict, dims: kernels.ModelDims) -> kernels.ForwardResult:
    """kernels.toy_forward one window at a time, stacked into one result.

    Each window partitions its own frames and runs every stage without a
    window axis. Inputs are taken as valid.
    """
    video = np.asarray(video, dtype=float)
    results = []
    for start in range(video.shape[0] - dims.frames + 1):
        stage = kernels.patch_partition_3d(video[start : start + dims.frames], params["patch_proj"])
        shapes = {"patch_tokens": stage.shape}
        features = []
        for i in (1, 2, 3, 4):
            stage = kernels.stage_transform(stage, i, params["stage_map_1"] if i == 1 else params[f"stage_merge_{i}"])
            shapes[f"stage_{i}"] = stage.shape
            f = kernels.channel_map(kernels.temporal_merge(stage, params[f"temporal_kernel_{i}"]), params[f"channel_map_{i}"])
            features.append(f)
            shapes[f"fused_{i}"] = f.shape
        tokens, index = kernels.flatten_concat(features)
        shapes["tokens"] = tokens.shape
        confidence = kernels._sigmoid(kernels._mlp(tokens, kernels._head_layers(params, "cls")))[:, 0]
        selected, anchors = kernels.query_select(confidence, index, dims.scale_shapes, dims.queries)
        sampled = np.zeros((dims.queries, dims.channels), dtype=float)
        for s, f in enumerate(features):
            sampled += kernels.deformable_sample(f, anchors[:, :2], params["deform_offsets"][s], params["deform_weights"][s])
        feats = sampled / len(features)
        shapes["query_features"] = feats.shape
        out = kernels.head_forward(feats, params)
        shapes.update(boxes=out.boxes.shape, class_conf=out.class_conf.shape, behavior_probs=out.behavior_probs.shape)
        results.append(kernels.ForwardResult(out, confidence, selected, anchors, shapes))
    stack = np.stack
    return kernels.ForwardResult(
        kernels.HeadOutputs(
            stack([r.outputs.boxes for r in results]),
            stack([r.outputs.class_conf for r in results]),
            stack([r.outputs.behavior_probs for r in results]),
        ),
        stack([r.token_confidence for r in results]),
        stack([r.selected_tokens for r in results]),
        stack([r.anchors for r in results]),
        results[0].shapes,
    )


def _scalar_measurement(box) -> np.ndarray:
    x1, y1, x2, y2 = box
    w = x2 - x1
    h = y2 - y1
    return np.array([x1 + w / 2.0, y1 + h / 2.0, w * h, w / h])


def _scalar_box(mean) -> BoxXYXY:
    cx, cy, area, aspect = mean[:4]
    w = float(np.sqrt(max(area, 1e-12) * max(aspect, 1e-12)))
    h = float(max(area, 1e-12) / w)
    return BoxXYXY(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


@dataclass
class _ScalarTrack:
    track_id: int
    mean: np.ndarray
    cov: np.ndarray
    hits: int = 1
    misses: int = 0


def scalar_track(frames, config: tracker.TrackerConfig = tracker.TrackerConfig()) -> list[TrackedBox]:
    """tracker.run with one 7-dim Kalman filter per track, predicted and updated alone.

    Inputs are taken as valid: nothing here checks covariances or boxes.
    """
    F, H, Q, R = tracker._F, tracker._H, tracker._Q, tracker._R
    if isinstance(frames, dict):
        frames = sorted(frames.items())
    tracks: list[_ScalarTrack] = []
    next_id, count, prev = 1, 0, -1
    out: list[TrackedBox] = []

    def associate(rows: list[_ScalarTrack], dets: list[DetectionRecord]):
        if not rows or not dets:
            return [], list(range(len(rows)))
        ious = iou_matrix(np.array([_scalar_box(t.mean) for t in rows]), np.array([d.box for d in dets]))
        pairs = assign.gated_match(ious, ious >= config.iou_gate)
        return pairs, [i for i in range(len(rows)) if i not in {r for r, _ in pairs}]

    def step(detections: list[DetectionRecord]) -> list[TrackedBox]:
        nonlocal tracks, next_id, count
        frame, count = count, count + 1
        for t in tracks:
            t.mean = F @ t.mean
            cov = F @ t.cov @ F.T + Q
            t.cov = (cov + cov.T) / 2.0
        if config.two_stage:
            high = [d for d in detections if d.score >= config.conf_split]
            low = [d for d in detections if d.score < config.conf_split]
        else:
            high, low = list(detections), []
        pairs, unmatched_t = associate(tracks, high)
        updates = [(tracks[r], high[c]) for r, c in pairs]
        unmatched_d = [i for i in range(len(high)) if i not in {c for _, c in pairs}]
        if low and unmatched_t:
            rest = [tracks[i] for i in unmatched_t]
            pairs2, still_t = associate(rest, low)
            updates += [(rest[r], low[c]) for r, c in pairs2]
            unmatched_t = [unmatched_t[i] for i in still_t]
        emitted = []
        for t, det in updates:
            innovation = _scalar_measurement(det.box) - H @ t.mean
            gain = t.cov @ H.T @ np.linalg.inv(H @ t.cov @ H.T + R)
            t.mean = t.mean + gain @ innovation
            joseph = np.eye(7) - gain @ H
            cov = joseph @ t.cov @ joseph.T + gain @ R @ gain.T
            t.cov = (cov + cov.T) / 2.0
            t.hits += 1
            t.misses = 0
            if t.hits >= config.min_hits or count <= config.min_hits:
                emitted.append(TrackedBox(frame, t.track_id, _scalar_box(t.mean), det.score, det.behavior_scores))
        for i in unmatched_t:
            tracks[i].misses += 1
        tracks = [t for t in tracks if t.misses <= config.max_misses]
        for i in unmatched_d:
            mean = np.zeros(7)
            mean[:4] = _scalar_measurement(high[i].box)
            tracks.append(_ScalarTrack(next_id, mean, tracker._P0.copy()))
            if count <= config.min_hits:
                emitted.append(TrackedBox(frame, next_id, _scalar_box(mean), high[i].score, high[i].behavior_scores))
            next_id += 1
        return sorted(emitted, key=lambda t: t.track_id)

    for frame, detections in frames:
        if frame <= prev:
            raise ValueError(f"frame indices must be strictly increasing, got {frame} after {prev}")
        while count < frame:
            step([])
        out.extend(step(detections))
        prev = frame
    return out


def stdlib_dump_json(obj) -> str:
    """Canonical JSON text as the standard library writes it.

    dataio.dump_json must return the same text for every input and raise the
    same exception type where this raises.
    """
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def tiny_tracks(rng: Xoshiro256, max_ids: int = 3, max_frames: int = 10):
    """A small gt/pred track pair with jitter, id noise, and clutter."""
    gt, pred = [], []
    n_frames = 2 + rng.randint(max_frames - 1)
    for frame in range(n_frames):
        for tid in range(1, max_ids + 1):
            if rng.random() < 0.7:
                x = rng.uniform(0.0, 60.0)
                y = rng.uniform(0.0, 60.0)
                w = rng.uniform(10.0, 30.0)
                h = rng.uniform(10.0, 30.0)
                gt.append(TrackedBox(frame, tid, BoxXYXY(x, y, x + w, y + h)))
                if rng.random() < 0.8:
                    dx = rng.uniform(-4.0, 4.0)
                    dy = rng.uniform(-4.0, 4.0)
                    pid = tid if rng.random() < 0.8 else 1 + rng.randint(max_ids)
                    pred.append(
                        TrackedBox(frame, pid, BoxXYXY(x + dx, y + dy, x + w + dx, y + h + dy))
                    )
        if rng.random() < 0.3:
            x = rng.uniform(0.0, 60.0)
            y = rng.uniform(0.0, 60.0)
            pred.append(TrackedBox(frame, max_ids + 6, BoxXYXY(x, y, x + 20.0, y + 20.0)))
    dedup: dict[tuple[int, int], TrackedBox] = {}
    for t in pred:
        dedup[(t.frame, t.track_id)] = t
    return gt, list(dedup.values())

"""Evaluation protocol: CLEAR, IDF1, HOTA, detection AP, OKS AP, PCK, behavior mAP.

Tracking inputs are flat lists of TrackedBox (0-based frame, 1-based id).
Metrics evaluate exactly the frames present in the inputs; callers decide
which frames to feed (the CLI restricts predictions to annotated frames).

Gated matchings (CLEAR's per-frame step and HOTA's per-alpha step) share one
documented construction: benefit values in [0, 1], pairs below the validity
gate get cost B = min(rows, cols) + 2 while valid pairs cost 1 - benefit, the
assignment problem is solved with the deterministic lexicographic tie-break
of assign.hungarian, and invalid pairs are discarded afterwards. This
maximizes the number of valid pairs first and the summed benefit second; the
tie-break makes the result, and therefore every downstream number, unique.

Every result also carries, in fields excluded from comparison, the statistics
needed to merge it with the results of other sequences (the merge_* functions).
The merge equals one evaluation of the sequences' concatenation with frames and
ids shifted apart: counts add up, the IDF1 bijection and the HOTA association
are block-diagonal, and the greedy AP matching is per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import assign
from .dataio import BEHAVIOR_CATEGORIES, BEHAVIOR_COUNT, KEYPOINT_COUNT, TrackedBox
from .geometry import iou_matrix

ALPHA_GRID = np.linspace(0.05, 0.95, 19)
IOU_THRESHOLDS = np.linspace(0.5, 0.95, 10)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
MEDIUM_AREA = 32.0**2
LARGE_AREA = 96.0**2
DEFAULT_KAPPA = 0.08


@dataclass(frozen=True)
class ClearMetrics:
    mota: float
    motp: float
    n_fp: float
    n_fn: float
    n_ids: float
    fp: int
    fn: int
    idsw: int
    gt_count: int
    matched: int
    iou_sum: float = field(default=0.0, compare=False, repr=False)


@dataclass(frozen=True)
class Idf1Metrics:
    idf1: float
    idtp: int
    idfp: int
    idfn: int


@dataclass(frozen=True)
class HotaMetrics:
    hota: float
    deta: float
    assa: float
    alphas: tuple[float, ...]
    hota_alpha: tuple[float, ...]
    deta_alpha: tuple[float, ...]
    assa_alpha: tuple[float, ...]
    # per alpha: true positives and the AssA numerator sum(match_counts * ass_ratio)
    tp: tuple[int, ...] = field(default=(), compare=False, repr=False)
    assa_numerator: tuple[float, ...] = field(default=(), compare=False, repr=False)
    gt_total: int = field(default=0, compare=False, repr=False)
    pred_total: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class RankedMatches:
    """Outcome of the greedy AP matching of one prediction set against one gt set.

    Predictions are in rank order: score descending, ties by frame, then input
    index. tp[t, r] is True when the prediction of rank r matched at threshold
    t. Stable-sorting several sequences' concatenated scores therefore ranks
    them by (-score, sequence, frame, index), as in their concatenation.
    """

    score: np.ndarray  # (n,)
    tp: np.ndarray  # (thresholds, n) bool
    n_gt: int


@dataclass(frozen=True)
class DetectionAP:
    ap: float
    ap50: float
    ap75: float
    ap_medium: float
    ap_large: float
    ar: float
    gt_count: int
    pred_count: int
    # matches over all instances, then the medium and large area splits
    splits: tuple[RankedMatches, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class PckResult:
    mean: float
    per_joint: tuple[float, ...]
    counted: tuple[int, ...]
    delta: float
    correct: tuple[int, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class BehaviorMAP:
    map: float
    map_locomotion: float
    map_object: float
    map_social: float
    map_others: float
    per_class: tuple[float, ...]
    gt_counts: tuple[int, ...]
    classes: tuple[RankedMatches, ...] = field(default=(), compare=False, repr=False)


def _by_frame(tracks: list[TrackedBox], label: str) -> dict[int, tuple[list[int], np.ndarray]]:
    """Group boxes by frame as (ids, (n, 4) boxes), ids ascending; reject duplicates."""
    seen: set[tuple[int, int]] = set()
    grouped: dict[int, list[TrackedBox]] = {}
    for t in tracks:
        key = (t.frame, t.track_id)
        if key in seen:
            raise ValueError(f"duplicate {label} entry for frame {t.frame}, id {t.track_id}")
        seen.add(key)
        grouped.setdefault(t.frame, []).append(t)
    out = {}
    for frame, items in grouped.items():
        items.sort(key=lambda t: t.track_id)
        out[frame] = ([t.track_id for t in items], np.array([t.box for t in items], dtype=float))
    return out


def gated_match(benefit: np.ndarray, valid: np.ndarray) -> list[tuple[int, int]]:
    """Maximize valid pair count, then summed benefit, then lex order.

    Implemented by solving the assignment problem on cost = 1 - benefit for
    valid pairs and B = min(rows, cols) + 2 for invalid ones, then dropping
    invalid pairs from the solution.
    """
    if benefit.size == 0:
        return []
    big = min(benefit.shape) + 2.0
    cost = np.where(valid, 1.0 - benefit, big)
    return [(r, c) for r, c in assign.hungarian(cost).pairs if valid[r, c]]


def clear_metrics(
    gt: list[TrackedBox],
    pred: list[TrackedBox],
    iou_thresh: float = 0.5,
    motp_mode: str = "iou",
) -> ClearMetrics:
    """CLEAR multi-object tracking scores.

    Per frame, pairings carried over from the previous evaluated frame are
    kept while both parties exist and still overlap at or above the
    threshold; the remainder is matched by the gated assignment. An identity
    switch is counted whenever a ground-truth track's matched id differs from
    its last known matched id. MOTA is computed as 100 - nFP - nFN - nIDs so
    the normalized identity holds exactly.

    motp_mode "iou" reports 100 * mean matched IoU; "distance" reports
    100 * mean (1 - IoU).
    """
    _check_motp_mode(motp_mode)
    gt_frames = _by_frame(gt, "ground-truth")
    pred_frames = _by_frame(pred, "prediction")
    gt_total = sum(len(ids) for ids, _ in gt_frames.values())
    if gt_total == 0:
        raise ValueError("CLEAR metrics need at least one ground-truth box")

    fp = fn = idsw = matched = 0
    iou_sum = 0.0
    carry: dict[int, int] = {}       # gt id -> pred id matched in the previous frame
    last_match: dict[int, int] = {}  # gt id -> most recent matched pred id
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gt_ids, gt_boxes = gt_frames.get(frame, ([], np.zeros((0, 4))))
        pred_ids, pred_boxes = pred_frames.get(frame, ([], np.zeros((0, 4))))
        ious = iou_matrix(gt_boxes, pred_boxes)

        pairs: dict[int, int] = {}
        used_g: set[int] = set()
        used_p: set[int] = set()
        for gi, g in enumerate(gt_ids):
            p = carry.get(g)
            if p is None or p not in pred_ids:
                continue
            pi = pred_ids.index(p)
            if ious[gi, pi] >= iou_thresh:
                pairs[g] = p
                used_g.add(gi)
                used_p.add(pi)
                iou_sum += float(ious[gi, pi])

        rest_g = [i for i in range(len(gt_ids)) if i not in used_g]
        rest_p = [i for i in range(len(pred_ids)) if i not in used_p]
        if rest_g and rest_p:
            sub = ious[np.ix_(rest_g, rest_p)]
            for r, c in gated_match(sub, sub >= iou_thresh):
                pairs[gt_ids[rest_g[r]]] = pred_ids[rest_p[c]]
                iou_sum += float(sub[r, c])

        matched += len(pairs)
        fn += len(gt_ids) - len(pairs)
        fp += len(pred_ids) - len(pairs)
        for g, p in pairs.items():
            if g in last_match and last_match[g] != p:
                idsw += 1
            last_match[g] = p
        carry = pairs

    return _clear_scores(fp, fn, idsw, gt_total, matched, iou_sum, motp_mode)


def _check_motp_mode(motp_mode: str) -> None:
    if motp_mode not in ("iou", "distance"):
        raise ValueError(f"motp_mode must be 'iou' or 'distance', got {motp_mode}")


def _clear_scores(
    fp: int, fn: int, idsw: int, gt_total: int, matched: int, iou_sum: float, motp_mode: str
) -> ClearMetrics:
    n_fp = 100.0 * fp / gt_total
    n_fn = 100.0 * fn / gt_total
    n_ids = 100.0 * idsw / gt_total
    mean_iou = iou_sum / matched if matched else 0.0
    motp = 100.0 * mean_iou if motp_mode == "iou" else 100.0 * (1.0 - mean_iou)
    return ClearMetrics(
        100.0 - n_fp - n_fn - n_ids, motp, n_fp, n_fn, n_ids, fp, fn, idsw, gt_total, matched, iou_sum
    )


def merge_clear(parts: list[ClearMetrics], motp_mode: str = "iou") -> ClearMetrics:
    """CLEAR over the concatenation of the sequences that produced parts.

    Ground-truth ids are disjoint across sequences, so no pairing carries over
    and no identity switch spans two of them; every count adds up. MOTP differs
    from the concatenation only by the summation order of the matched IoUs.
    """
    _check_motp_mode(motp_mode)
    return _clear_scores(
        sum(p.fp for p in parts),
        sum(p.fn for p in parts),
        sum(p.idsw for p in parts),
        sum(p.gt_count for p in parts),
        sum(p.matched for p in parts),
        sum(p.iou_sum for p in parts),
        motp_mode,
    )


def idf1(gt: list[TrackedBox], pred: list[TrackedBox], iou_thresh: float = 0.5) -> Idf1Metrics:
    """Identity F1: optimal global bijection between gt and predicted identities.

    The benefit between a gt identity and a predicted identity is the number
    of frames where both exist and overlap at IoU >= threshold; IDTP is the
    maximum total benefit over bijections.
    """
    gt_frames = _by_frame(gt, "ground-truth")
    pred_frames = _by_frame(pred, "prediction")
    gt_total = sum(len(ids) for ids, _ in gt_frames.values())
    pred_total = sum(len(ids) for ids, _ in pred_frames.values())
    if gt_total == 0:
        raise ValueError("IDF1 needs at least one ground-truth box")

    gt_id_list = sorted({t.track_id for t in gt})
    pred_id_list = sorted({t.track_id for t in pred})
    overlap = np.zeros((len(gt_id_list), len(pred_id_list)))
    g_index = {g: i for i, g in enumerate(gt_id_list)}
    p_index = {p: i for i, p in enumerate(pred_id_list)}
    for frame in sorted(set(gt_frames) & set(pred_frames)):
        gt_ids, gt_boxes = gt_frames[frame]
        pred_ids, pred_boxes = pred_frames[frame]
        ious = iou_matrix(gt_boxes, pred_boxes)
        for gi, g in enumerate(gt_ids):
            for pi, p in enumerate(pred_ids):
                if ious[gi, pi] >= iou_thresh:
                    overlap[g_index[g], p_index[p]] += 1.0

    idtp = 0
    if overlap.size:
        result = assign.hungarian(-overlap)
        idtp = int(round(-result.total_cost))
    return _idf1_scores(idtp, pred_total - idtp, gt_total - idtp)


def _idf1_scores(idtp: int, idfp: int, idfn: int) -> Idf1Metrics:
    return Idf1Metrics(100.0 * 2.0 * idtp / (2.0 * idtp + idfp + idfn), idtp, idfp, idfn)


def merge_idf1(parts: list[Idf1Metrics]) -> Idf1Metrics:
    """IDF1 over the concatenation: its identity overlaps are block-diagonal
    by sequence, so the optimal bijection's IDTP is the sum of the per-sequence
    optima."""
    return _idf1_scores(sum(p.idtp for p in parts), sum(p.idfp for p in parts), sum(p.idfn for p in parts))


def hota(gt: list[TrackedBox], pred: list[TrackedBox]) -> HotaMetrics:
    """Higher-order tracking accuracy over the 19-point localization grid.

    Per alpha: pair potentials count frames where a gt and predicted identity
    overlap at IoU >= alpha; the association affinity is the Jaccard ratio
    potential / (n_gt + n_pred - potential); per-frame TPs come from the
    gated matching restricted to pairs at IoU >= alpha with that affinity as
    benefit. DetA = TP / (TP + FN + FP); AssA averages TPA / (TPA + FNA +
    FPA) over TPs; HOTA_alpha = sqrt(DetA * AssA); headline numbers are means
    over the grid, scaled to 100.
    """
    gt_frames = _by_frame(gt, "ground-truth")
    pred_frames = _by_frame(pred, "prediction")
    gt_total = sum(len(ids) for ids, _ in gt_frames.values())
    pred_total = sum(len(ids) for ids, _ in pred_frames.values())
    if gt_total == 0:
        raise ValueError("HOTA needs at least one ground-truth box")

    gt_id_list = sorted({t.track_id for t in gt})
    pred_id_list = sorted({t.track_id for t in pred})
    g_index = {g: i for i, g in enumerate(gt_id_list)}
    p_index = {p: i for i, p in enumerate(pred_id_list)}
    n_g = np.zeros(len(gt_id_list))
    n_p = np.zeros(len(pred_id_list))
    for ids, _ in gt_frames.values():
        for g in ids:
            n_g[g_index[g]] += 1.0
    for ids, _ in pred_frames.values():
        for p in ids:
            n_p[p_index[p]] += 1.0

    frames = sorted(set(gt_frames) | set(pred_frames))
    frame_data = []
    for frame in frames:
        gt_ids, gt_boxes = gt_frames.get(frame, ([], np.zeros((0, 4))))
        pred_ids, pred_boxes = pred_frames.get(frame, ([], np.zeros((0, 4))))
        gi = np.array([g_index[g] for g in gt_ids], dtype=int)
        pi = np.array([p_index[p] for p in pred_ids], dtype=int)
        frame_data.append((gi, pi, iou_matrix(gt_boxes, pred_boxes)))

    tps = []
    numerators = []
    for alpha in ALPHA_GRID:
        potential = np.zeros((len(gt_id_list), len(pred_id_list)))
        for gi, pi, ious in frame_data:
            hits = ious >= alpha
            if hits.any():
                potential[np.ix_(gi, pi)] += hits
        denom = n_g[:, None] + n_p[None, :] - potential
        affinity = np.divide(potential, denom, out=np.zeros_like(potential), where=denom > 0)

        tp = 0
        match_counts = np.zeros_like(potential)
        for gi, pi, ious in frame_data:
            if gi.size == 0 or pi.size == 0:
                continue
            benefit = affinity[np.ix_(gi, pi)]
            for r, c in gated_match(benefit, ious >= alpha):
                tp += 1
                match_counts[gi[r], pi[c]] += 1.0

        numerator = 0.0
        if tp:
            pair_denom = n_g[:, None] + n_p[None, :] - match_counts
            ass_ratio = np.divide(match_counts, pair_denom, out=np.zeros_like(match_counts), where=pair_denom > 0)
            numerator = float((match_counts * ass_ratio).sum())
        tps.append(tp)
        numerators.append(numerator)

    return _hota_scores(tuple(tps), tuple(numerators), gt_total, pred_total)


def _hota_scores(tps: tuple[int, ...], numerators: tuple[float, ...], gt_total: int, pred_total: int) -> HotaMetrics:
    deta_alpha = []
    assa_alpha = []
    hota_alpha = []
    for tp, numerator in zip(tps, numerators):
        fn = gt_total - tp
        fp = pred_total - tp
        deta = tp / (tp + fn + fp) if tp + fn + fp else 0.0
        assa = numerator / tp if tp else 0.0
        deta_alpha.append(deta)
        assa_alpha.append(assa)
        hota_alpha.append(float(np.sqrt(deta * assa)))

    return HotaMetrics(
        100.0 * float(np.mean(hota_alpha)),
        100.0 * float(np.mean(deta_alpha)),
        100.0 * float(np.mean(assa_alpha)),
        tuple(float(a) for a in ALPHA_GRID),
        tuple(hota_alpha),
        tuple(deta_alpha),
        tuple(assa_alpha),
        tps,
        numerators,
        gt_total,
        pred_total,
    )


def merge_hota(parts: list[HotaMetrics]) -> HotaMetrics:
    """HOTA over the concatenation: pair potentials, affinities and matches are
    block-diagonal by sequence, so per alpha TP, the gt and prediction totals
    and the AssA numerator add up. AssA and HOTA differ from the concatenation
    only by the summation order of the numerators."""
    return _hota_scores(
        tuple(sum(tp) for tp in zip(*(p.tp for p in parts))),
        tuple(sum(num) for num in zip(*(p.assa_numerator for p in parts))),
        sum(p.gt_total for p in parts),
        sum(p.pred_total for p in parts),
    )


def _box_area(box) -> float:
    return max(0.0, box[2] - box[0]) * max(0.0, box[3] - box[1])


def _sorted_pred_order(preds: list) -> list[int]:
    # score descending; ties by frame then insertion index, so ranking is total
    return sorted(range(len(preds)), key=lambda i: (-preds[i][2], preds[i][0], i))


def _greedy_tp_flags(preds, gts, order, thresh, similarity) -> np.ndarray:
    """Greedy confidence-descending matching; each gt is consumed at most once.

    similarity(pred, gt) -> score in [0, 1]; a pair is matchable at
    similarity >= thresh; the best (highest-similarity, then lowest-index)
    unconsumed gt of the same frame wins.
    """
    gt_by_frame: dict[int, list[int]] = {}
    for j, g in enumerate(gts):
        gt_by_frame.setdefault(g[0], []).append(j)
    consumed = set()
    flags = np.zeros(len(order), dtype=bool)
    for rank, i in enumerate(order):
        frame = preds[i][0]
        best_j = -1
        best_sim = thresh
        for j in gt_by_frame.get(frame, []):
            if j in consumed:
                continue
            sim = similarity(preds[i], gts[j])
            if sim > best_sim or (sim == best_sim and best_j == -1 and sim >= thresh):
                best_sim = sim
                best_j = j
        if best_j >= 0:
            consumed.add(best_j)
            flags[rank] = True
    return flags


def _ap_101(tp_flags: np.ndarray, n_gt: int) -> float:
    """COCO-style AP: interpolated precision sampled at 101 recall points."""
    if n_gt == 0:
        return float("nan")
    if tp_flags.size == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    for i in range(precision.size - 1, 0, -1):
        precision[i - 1] = max(precision[i - 1], precision[i])
    idx = np.searchsorted(recall, RECALL_POINTS, side="left")
    sampled = np.where(idx < precision.size, precision[np.minimum(idx, precision.size - 1)], 0.0)
    return float(sampled.mean())


def _ap_all_points(tp_flags: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP (area under the enveloped PR curve)."""
    if n_gt == 0:
        return float("nan")
    if tp_flags.size == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = np.concatenate([[0.0], tp / n_gt])
    precision = np.concatenate([[1.0], tp / (tp + fp)])
    for i in range(precision.size - 1, 0, -1):
        precision[i - 1] = max(precision[i - 1], precision[i])
    # fsum keeps the telescoping recall increments exact (perfect input -> 1.0)
    return math.fsum((recall[1:] - recall[:-1]) * precision[1:])


def _box_iou_similarity(pred, gt) -> float:
    from .geometry import iou

    return iou(pred[1], gt[1])


def _rank_and_match(preds: list, gts: list, thresholds, similarity) -> RankedMatches:
    """Rank predictions (entries (frame, ..., score)) and match them greedily per threshold."""
    order = _sorted_pred_order(preds)
    tp = np.zeros((len(thresholds), len(preds)), dtype=bool)
    if gts:
        for t, thresh in enumerate(thresholds):
            tp[t] = _greedy_tp_flags(preds, gts, order, float(thresh), similarity)
    return RankedMatches(np.array([preds[i][2] for i in order], dtype=float), tp, len(gts))


def _merge_matches(parts: tuple[RankedMatches, ...]) -> RankedMatches:
    """Matches of the concatenated prediction and gt sets; parts in sequence order."""
    score = np.concatenate([p.score for p in parts])
    order = np.argsort(-score, kind="stable")
    tp = np.concatenate([p.tp for p in parts], axis=1)[:, order]
    return RankedMatches(score[order], tp, sum(p.n_gt for p in parts))


def _curve(matches: RankedMatches, interpolate) -> tuple[list[float], list[float]]:
    """Per-threshold AP and final recall; needs ground truth."""
    n_gt = matches.n_gt
    return [interpolate(flags, n_gt) for flags in matches.tp], [flags.sum() / n_gt for flags in matches.tp]


def _ap_scores(splits: tuple[RankedMatches, ...]) -> DetectionAP:
    """COCO AP summary from the matches over all instances and the two area splits.

    With zero ground truth the overall AP is 0 when there are predictions
    (every one is a false positive) and NaN otherwise; AR is then NaN. An area
    split without ground truth is NaN.
    """
    overall, medium, large = splits
    pred_count = overall.score.size
    if overall.n_gt:
        per_thresh, recalls = _curve(overall, _ap_101)
        ap = float(np.mean(per_thresh))
        ar = float(np.mean(recalls))
    else:
        ap = 0.0 if pred_count else float("nan")
        per_thresh = [ap] * len(IOU_THRESHOLDS)
        ar = float("nan")
    ap_medium, ap_large = (
        float(np.mean(_curve(m, _ap_101)[0])) if m.n_gt else float("nan") for m in (medium, large)
    )
    return DetectionAP(
        _scale(ap),
        _scale(per_thresh[0]),
        _scale(per_thresh[5]),
        _scale(ap_medium),
        _scale(ap_large),
        _scale(ar),
        overall.n_gt,
        pred_count,
        splits,
    )


def merge_ap(parts: list[DetectionAP]) -> DetectionAP:
    """Detection or keypoint AP over the concatenation of the parts' sequences.

    The greedy matching is per frame and merging keeps each frame's ranking,
    so every prediction's match flags are those of its own sequence.
    """
    return _ap_scores(tuple(_merge_matches(split) for split in zip(*(p.splits for p in parts))))


def detection_ap(preds: list, gts: list) -> DetectionAP:
    """COCO-style detection AP.

    Args:
        preds: list of (frame, box, score).
        gts: list of (frame, box).

    Matching is greedy in confidence-descending order (ties: frame, then
    insertion index) per IoU threshold in {0.50:0.05:0.95}; precision is
    101-point interpolated. Area splits drop out-of-range boxes from both
    sides: medium is [32^2, 96^2), large is [96^2, inf). AR is the mean over
    thresholds of the final recall. With zero ground truth the overall AP is
    0; area-split APs without ground truth are NaN.
    """

    def _in_range(box, lo, hi):
        return lo <= _box_area(box) < hi

    splits = [(preds, gts)]
    for lo, hi in ((MEDIUM_AREA, LARGE_AREA), (LARGE_AREA, float("inf"))):
        splits.append(([p for p in preds if _in_range(p[1], lo, hi)], [g for g in gts if _in_range(g[1], lo, hi)]))
    return _ap_scores(tuple(_rank_and_match(p, g, IOU_THRESHOLDS, _box_iou_similarity) for p, g in splits))


def _scale(v: float) -> float:
    return 100.0 * v if not np.isnan(v) else v


def oks(pred_pose, gt_pose, gt_box, kappas=None) -> float:
    """Object keypoint similarity averaged over labeled joints.

    exp(-d^2 / (2 * s^2 * kappa_j^2)) with s^2 the gt box area; labeled means
    visibility > 0. Returns NaN when no joint is labeled.
    """
    pred_pose = np.asarray(pred_pose, dtype=float).reshape(KEYPOINT_COUNT, 2)
    gt_pose = np.asarray(gt_pose, dtype=float).reshape(KEYPOINT_COUNT, 3)
    if kappas is None:
        kappas = np.full(KEYPOINT_COUNT, DEFAULT_KAPPA)
    kappas = np.asarray(kappas, dtype=float).reshape(KEYPOINT_COUNT)
    labeled = gt_pose[:, 2] > 0
    if not labeled.any():
        return float("nan")
    s2 = _box_area(gt_box)
    if s2 <= 0.0:
        raise ValueError("OKS needs a ground-truth box with positive area")
    d2 = ((pred_pose - gt_pose[:, :2]) ** 2).sum(axis=1)
    sims = np.exp(-d2 / (2.0 * s2 * kappas**2))
    return float(sims[labeled].mean())


def keypoint_ap(preds: list, gts: list, kappas=None) -> DetectionAP:
    """OKS-thresholded AP with the detection machinery.

    Args:
        preds: list of (frame, pose (16, 2), score).
        gts: list of (frame, pose (16, 3), box).

    Ground truths without labeled joints are dropped. Area splits filter
    ground truth by box area; every prediction stays in (predictions carry no
    box of their own).
    """
    gts = [g for g in gts if np.asarray(g[1]).reshape(KEYPOINT_COUNT, 3)[:, 2].max() > 0]

    def _sim(pred, gt) -> float:
        return oks(pred[1], gt[1], gt[2], kappas)

    split_gts = (
        gts,
        [g for g in gts if MEDIUM_AREA <= _box_area(g[2]) < LARGE_AREA],
        [g for g in gts if _box_area(g[2]) >= LARGE_AREA],
    )
    return _ap_scores(tuple(_rank_and_match(preds, g, IOU_THRESHOLDS, _sim) for g in split_gts))


def pck(pred_poses, gt_poses, gt_boxes, delta: float = 0.05) -> PckResult:
    """Percentage of correct keypoints at threshold delta * max(box h, w).

    Inputs are paired per instance: (N, 16, 2) predictions, (N, 16, 3)
    ground truth with visibility, (N, 4) ground-truth boxes. Joints with
    visibility 0 are not counted. The mean is micro-averaged over all counted
    joints.
    """
    pred_poses = np.asarray(pred_poses, dtype=float).reshape(-1, KEYPOINT_COUNT, 2)
    gt_poses = np.asarray(gt_poses, dtype=float).reshape(-1, KEYPOINT_COUNT, 3)
    gt_boxes = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    if not (pred_poses.shape[0] == gt_poses.shape[0] == gt_boxes.shape[0]):
        raise ValueError("pck inputs must pair up instance-for-instance")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")

    correct = np.zeros(KEYPOINT_COUNT, dtype=int)
    counted = np.zeros(KEYPOINT_COUNT, dtype=int)
    for i in range(pred_poses.shape[0]):
        w = gt_boxes[i, 2] - gt_boxes[i, 0]
        h = gt_boxes[i, 3] - gt_boxes[i, 1]
        if w <= 0.0 or h <= 0.0:
            raise ValueError(f"degenerate ground-truth box at instance {i}")
        thresh = delta * max(h, w)
        dists = np.sqrt(((pred_poses[i] - gt_poses[i, :, :2]) ** 2).sum(axis=1))
        visible = gt_poses[i, :, 2] > 0
        counted += visible
        correct += visible & (dists <= thresh)
    return _pck_scores(correct, counted, delta)


def _pck_scores(correct: np.ndarray, counted: np.ndarray, delta: float) -> PckResult:
    per_joint = tuple(
        100.0 * correct[j] / counted[j] if counted[j] else float("nan") for j in range(KEYPOINT_COUNT)
    )
    total = counted.sum()
    mean = 100.0 * correct.sum() / total if total else float("nan")
    return PckResult(mean, per_joint, tuple(int(c) for c in counted), delta, tuple(int(c) for c in correct))


def merge_pck(parts: list[PckResult]) -> PckResult:
    """PCK over the pooled instances of the parts, which share one delta."""
    correct = np.sum([p.correct for p in parts], axis=0)
    counted = np.sum([p.counted for p in parts], axis=0)
    return _pck_scores(correct, counted, parts[0].delta)


def behavior_map(preds: list, gts: list, iou_thresh: float = 0.5) -> BehaviorMAP:
    """Frame-level multi-label behavior mAP.

    Args:
        preds: list of (frame, box, scores (23,)).
        gts: list of (frame, box, multihot (23,)).

    Per class, every prediction competes with its class score; a prediction
    is a true positive when it overlaps (IoU >= threshold) an unconsumed
    ground truth whose multi-hot includes the class. AP is all-point
    interpolated. Classes without ground truth are excluded from the mean and
    from category means; an empty category is NaN.
    """
    return _behavior_scores(
        tuple(
            _rank_and_match(
                [(p[0], p[1], float(p[2][k])) for p in preds],
                [(g[0], g[1]) for g in gts if g[2][k]],
                (iou_thresh,),
                _box_iou_similarity,
            )
            for k in range(BEHAVIOR_COUNT)
        )
    )


def _behavior_scores(classes: tuple[RankedMatches, ...]) -> BehaviorMAP:
    per_class = tuple(
        100.0 * _curve(m, _ap_all_points)[0][0] if m.n_gt else float("nan") for m in classes
    )

    def _mean_over(indices) -> float:
        vals = [per_class[i] for i in indices if not np.isnan(per_class[i])]
        return float(np.mean(vals)) if vals else float("nan")

    return BehaviorMAP(
        _mean_over(range(BEHAVIOR_COUNT)),
        _mean_over(BEHAVIOR_CATEGORIES["locomotion"]),
        _mean_over(BEHAVIOR_CATEGORIES["object"]),
        _mean_over(BEHAVIOR_CATEGORIES["social"]),
        _mean_over(BEHAVIOR_CATEGORIES["others"]),
        per_class,
        tuple(m.n_gt for m in classes),
        classes,
    )


def merge_behavior_map(parts: list[BehaviorMAP]) -> BehaviorMAP:
    """Behavior mAP over the concatenation; per class as in merge_ap."""
    return _behavior_scores(tuple(_merge_matches(c) for c in zip(*(p.classes for p in parts))))

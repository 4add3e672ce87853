"""Evaluation protocol: CLEAR, IDF1, HOTA, detection AP, OKS AP, PCK, behavior mAP.

Tracking inputs are flat lists of TrackedBox (0-based frame, 1-based id).
Metrics evaluate exactly the frames present in the inputs; callers decide
which frames to feed (the CLI restricts predictions to annotated frames).

CLEAR, IDF1 and HOTA take one frame table (pair_frames), which the caller
builds once per sequence: ids re-indexed densely in ascending order, the
boxes per id, and each frame's dense indices and IoU matrix. IDF1's identity
overlap counts its frames at IoU >= MATCH_IOU. CLEAR's per-frame step uses
assign.gated_match, the one gated-matching rule (documented in the assign
module); MOTP is 100 * mean matched IoU. HOTA follows its published
definition (Luiten et al. 2021): one ungated max-sum assignment per frame,
solved with assign.hungarian, serves every alpha of the grid.

Detection AP, OKS AP and behavior mAP share one AP engine. Each metric call
scores every same-frame (prediction, gt) pair once into one similarity table
laid out by frame (_score_pairs): a (frames, predictions, gts) block padded
with -inf, and each prediction's and gt's (frame, place) in it. The greedy
matcher (_rank_and_match) runs prediction and gt masks (area splits, behavior
classes) and thresholds over that one table. The greedy matching is per frame,
as in COCO's per-image evaluation: a prediction only competes for the gts of
its own frame, so its match depends on nothing but the predictions ranked
above it in that frame. The matcher therefore steps across frames, gathering
the k-th ranked kept prediction of every frame into one step, and the result
is exactly that of matching one prediction at a time in global rank order
(oracles.scalar_rank_and_match).

IDF1, behavior mAP and PCK's pose pairing match at IoU >= MATCH_IOU (0.5),
where CLEAR gates; OKS uses one kappa, KAPPA, for every joint.

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

from . import assign, geometry
from .dataio import BEHAVIOR_CATEGORIES, BEHAVIOR_COUNT, KEYPOINT_COUNT, TrackedBox
from .geometry import iou_matrix

ALPHA_GRID = np.linspace(0.05, 0.95, 19)
IOU_THRESHOLDS = np.linspace(0.5, 0.95, 10)
RECALL_POINTS = np.linspace(0.0, 1.0, 101)
MATCH_IOU = 0.5  # CLEAR's gate, IDF1's overlap, behavior mAP's and PCK pose pairing's match threshold
MEDIUM_AREA = 32.0**2
LARGE_AREA = 96.0**2
KAPPA = 0.08
EPS = np.finfo(float).eps  # HOTA's tolerance on the potential denominator and the alpha test, as in TrackEval


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


@dataclass(frozen=True)
class FrameTable:
    """Ground truth and predictions paired per frame, ids re-indexed densely.

    frames holds, for every frame present on either side in ascending order,
    the dense gt indices, the dense prediction indices (both ascending by id)
    and their (n_gt, n_pred) IoU matrix.
    """

    gt_counts: np.ndarray  # boxes per gt id
    pred_counts: np.ndarray  # boxes per prediction id
    frames: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def pair_frames(gt: list[TrackedBox], pred: list[TrackedBox]) -> FrameTable:
    """The frame table of CLEAR, IDF1 and HOTA; rejects an empty ground truth and duplicate (frame, id) entries."""
    gt_frames = _by_frame(gt, "ground-truth")
    pred_frames = _by_frame(pred, "prediction")
    if not gt_frames:
        raise ValueError("tracking metrics need at least one ground-truth box")
    gt_ids = sorted({t.track_id for t in gt})
    pred_ids = sorted({t.track_id for t in pred})
    g_index = {g: i for i, g in enumerate(gt_ids)}
    p_index = {p: i for i, p in enumerate(pred_ids)}
    gt_counts = np.zeros(len(gt_ids))
    pred_counts = np.zeros(len(pred_ids))
    frames = []
    for frame in sorted(set(gt_frames) | set(pred_frames)):
        gt_frame_ids, gt_boxes = gt_frames.get(frame, ([], np.zeros((0, 4))))
        pred_frame_ids, pred_boxes = pred_frames.get(frame, ([], np.zeros((0, 4))))
        gi = np.array([g_index[g] for g in gt_frame_ids], dtype=int)
        pi = np.array([p_index[p] for p in pred_frame_ids], dtype=int)
        gt_counts[gi] += 1.0
        pred_counts[pi] += 1.0
        frames.append((gi, pi, iou_matrix(gt_boxes, pred_boxes)))
    return FrameTable(gt_counts, pred_counts, frames)


def clear_metrics(table: FrameTable) -> ClearMetrics:
    """CLEAR multi-object tracking scores.

    Per frame, pairings carried over from the previous evaluated frame are
    kept while both parties exist and still overlap at IoU MATCH_IOU (0.5) or
    above; the remainder is matched by the gated assignment at that gate,
    which takes the most pairs first and the largest IoU sum among those.
    TrackEval instead takes the largest IoU sum over the valid pairs, so where
    a larger matching has a smaller sum the two rules count different FP and
    FN. An identity switch is counted whenever a ground-truth track's matched
    id differs from its last known matched id. MOTA is computed as
    100 - nFP - nFN - nIDs so the normalized identity holds exactly. MOTP is
    100 * mean matched IoU.
    """
    fp = fn = idsw = matched = 0
    iou_sum = 0.0
    carry: dict[int, int] = {}       # gt index -> pred index matched in the previous frame
    last_match: dict[int, int] = {}  # gt index -> most recent matched pred index
    for gi, pi, ious in table.frames:
        gi, pi = gi.tolist(), pi.tolist()
        column = {p: c for c, p in enumerate(pi)}
        valid = ious >= MATCH_IOU
        pairs: dict[int, int] = {}
        for r, g in enumerate(gi):
            c = column.get(carry.get(g))
            if c is not None and valid[r, c]:
                pairs[g] = pi[c]
                iou_sum += float(ious[r, c])
                valid[r, :] = valid[:, c] = False
        # gated_match ignores invalid pairs: this matches the rest of the frame
        for r, c in assign.gated_match(ious, valid):
            pairs[gi[r]] = pi[c]
            iou_sum += float(ious[r, c])

        matched += len(pairs)
        fn += len(gi) - len(pairs)
        fp += len(pi) - len(pairs)
        for g, p in pairs.items():
            if g in last_match and last_match[g] != p:
                idsw += 1
            last_match[g] = p
        carry = pairs

    return _clear_scores(fp, fn, idsw, int(table.gt_counts.sum()), matched, iou_sum)


def _clear_scores(fp: int, fn: int, idsw: int, gt_total: int, matched: int, iou_sum: float) -> ClearMetrics:
    n_fp = 100.0 * fp / gt_total
    n_fn = 100.0 * fn / gt_total
    n_ids = 100.0 * idsw / gt_total
    motp = 100.0 * (iou_sum / matched) if matched else 0.0
    return ClearMetrics(
        100.0 - n_fp - n_fn - n_ids, motp, n_fp, n_fn, n_ids, fp, fn, idsw, gt_total, matched, iou_sum
    )


def merge_clear(parts: list[ClearMetrics]) -> ClearMetrics:
    """CLEAR over the concatenation of the sequences that produced parts.

    Ground-truth ids are disjoint across sequences, so no pairing carries over
    and no identity switch spans two of them; every count adds up. MOTP differs
    from the concatenation only by the summation order of the matched IoUs.
    """
    return _clear_scores(
        sum(p.fp for p in parts),
        sum(p.fn for p in parts),
        sum(p.idsw for p in parts),
        sum(p.gt_count for p in parts),
        sum(p.matched for p in parts),
        sum(p.iou_sum for p in parts),
    )


def idf1(table: FrameTable) -> Idf1Metrics:
    """Identity F1: optimal global bijection between gt and predicted identities.

    The benefit between a gt identity and a predicted identity is the number
    of frames where both exist and overlap at IoU >= MATCH_IOU; IDTP is the
    maximum total benefit over bijections.
    """
    overlap = np.zeros((table.gt_counts.size, table.pred_counts.size))
    for gi, pi, ious in table.frames:
        overlap[np.ix_(gi, pi)] += ious >= MATCH_IOU
    idtp = 0
    if overlap.size:
        # a max-sum bijection over all identity pairs, with no gate: hungarian, not gated_match
        result = assign.hungarian(-overlap)
        idtp = int(round(-result.total_cost))
    return _idf1_scores(idtp, int(table.pred_counts.sum()) - idtp, int(table.gt_counts.sum()) - idtp)


def _idf1_scores(idtp: int, idfp: int, idfn: int) -> Idf1Metrics:
    return Idf1Metrics(100.0 * 2.0 * idtp / (2.0 * idtp + idfp + idfn), idtp, idfp, idfn)


def merge_idf1(parts: list[Idf1Metrics]) -> Idf1Metrics:
    """IDF1 over the concatenation: its identity overlaps are block-diagonal
    by sequence, so the optimal bijection's IDTP is the sum of the per-sequence
    optima."""
    return _idf1_scores(sum(p.idtp for p in parts), sum(p.idfp for p in parts), sum(p.idfn for p in parts))


def hota(table: FrameTable) -> HotaMetrics:
    """Higher-order tracking accuracy (Luiten et al. 2021) over the 19-point alpha grid.

    With S a frame's gt x prediction IoU matrix and n the boxes per id:
    - every frame adds S / (rowsum(S) + colsum(S) - S), where that
      denominator is > EPS, to the potential of its (gt id, prediction id)
      pairs;
    - the global alignment score is GAS = potential / (n_gt + n_pred - potential);
    - every frame with gt and predictions is solved once, with
      assign.hungarian on -GAS * S: a plain max-sum matching of
      min(rows, cols) pairs, not the cardinality-first gated_match, with ties
      going to the lexicographically smallest pair list;
    - per alpha, the matched pairs with S >= alpha - EPS are the TPs.

    DetA = TP / (TP + FN + FP); AssA averages TPA / (TPA + FNA + FPA) over
    TPs, with TPA a TP's (gt id, prediction id) TP count at that alpha;
    HOTA_alpha = sqrt(DetA * AssA); headline numbers are means over the grid,
    scaled to 100.
    """
    n_g = table.gt_counts[:, None]
    n_p = table.pred_counts[None, :]
    frames = [(gi, pi, ious) for gi, pi, ious in table.frames if gi.size and pi.size]
    potential = np.zeros((n_g.size, n_p.size))
    for gi, pi, ious in frames:
        denom = ious.sum(axis=1, keepdims=True) + ious.sum(axis=0) - ious
        potential[np.ix_(gi, pi)] += np.divide(ious, denom, out=np.zeros_like(ious), where=denom > EPS)
    gas = potential / (n_g + n_p - potential)

    cells, sims = [np.zeros(0, dtype=int)], [np.zeros(0)]  # per matched pair: flat (gt id, pred id) cell and S
    for gi, pi, ious in frames:
        rows, cols = np.array(assign.hungarian(-gas[np.ix_(gi, pi)] * ious).pairs).T
        cells.append(gi[rows] * n_p.size + pi[cols])
        sims.append(ious[rows, cols])
    cells, sims = np.concatenate(cells), np.concatenate(sims)

    tps = []
    numerators = []
    for hits in sims >= ALPHA_GRID[:, None] - EPS:
        match_counts = np.bincount(cells[hits], minlength=potential.size).reshape(potential.shape)
        # every id has a box, so n_gt + n_pred - match_count >= 1
        numerators.append(float((match_counts * (match_counts / (n_g + n_p - match_counts))).sum()))
        tps.append(int(hits.sum()))
    return _hota_scores(tuple(tps), tuple(numerators), int(n_g.sum()), int(n_p.sum()))


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
    """HOTA over the concatenation: pair potentials, alignment scores and
    matches are block-diagonal by sequence, so per alpha TP, the gt and
    prediction totals and the AssA numerator add up. AssA and HOTA differ from
    the concatenation only by the summation order of the numerators."""
    return _hota_scores(
        tuple(sum(tp) for tp in zip(*(p.tp for p in parts))),
        tuple(sum(num) for num in zip(*(p.assa_numerator for p in parts))),
        sum(p.gt_total for p in parts),
        sum(p.pred_total for p in parts),
    )


def _area_masks(boxes: list) -> list[np.ndarray]:
    """Masks of all instances, then the medium [32^2, 96^2) and large [96^2, inf) area splits."""
    area = np.array([geometry.area(b) for b in boxes], dtype=float)
    ranges = ((MEDIUM_AREA, LARGE_AREA), (LARGE_AREA, np.inf))
    return [np.ones(area.size, dtype=bool)] + [(lo <= area) & (area < hi) for lo, hi in ranges]


def _pr_envelope(tp_flags: np.ndarray, n_gt: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall after each rank and the precision envelope (its running maximum from the right)."""
    tp = np.cumsum(tp_flags)
    precision = tp / np.arange(1, tp.size + 1)
    return tp / n_gt, np.maximum.accumulate(precision[::-1])[::-1]


def _ap_101(tp_flags: np.ndarray, n_gt: int) -> float:
    """COCO-style AP: interpolated precision sampled at 101 recall points."""
    recall, precision = _pr_envelope(tp_flags, n_gt)
    # a recall point beyond the final recall samples precision 0
    return float(np.append(precision, 0.0)[np.searchsorted(recall, RECALL_POINTS, side="left")].mean())


def _ap_all_points(tp_flags: np.ndarray, n_gt: int) -> float:
    """All-point interpolated AP (area under the enveloped PR curve)."""
    recall, precision = _pr_envelope(tp_flags, n_gt)
    # fsum keeps the telescoping recall increments exact (perfect input -> 1.0)
    return math.fsum(np.diff(recall, prepend=0.0) * precision)


def _score_pairs(preds: list, gts: list, similarity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every same-frame (prediction, gt) similarity, laid out by frame: (sims, pred_at, gt_at).

    Frames present on either side are numbered densely in ascending order.
    pred_at (predictions, 2) and gt_at (gts, 2) give each entry's (frame,
    place), in input order; place counts the frame's entries of that side in
    input order. sims[f, p, g] is the similarity of frame f's p-th prediction
    to its g-th gt, a (frames, most predictions, most gts) array padded with
    -inf. Entries are (frame, ...); similarity(pred, gt) runs once for each
    same-frame pair and nowhere else.
    """
    slot = {frame: f for f, frame in enumerate(sorted({p[0] for p in preds} | {g[0] for g in gts}))}

    def _places(items: list) -> tuple[np.ndarray, list[list]]:
        by_frame: list[list] = [[] for _ in slot]
        at = []
        for item in items:
            f = slot[item[0]]
            at.append((f, len(by_frame[f])))
            by_frame[f].append(item)
        return np.array(at, dtype=int).reshape(-1, 2), by_frame

    (pred_at, frame_preds), (gt_at, frame_gts) = _places(preds), _places(gts)
    sims = np.full((len(slot), max(map(len, frame_preds), default=0), max(map(len, frame_gts), default=0)), -np.inf)
    for p, (f, place) in zip(preds, pred_at.tolist()):
        sims[f, place, : len(frame_gts[f])] = [similarity(p, g) for g in frame_gts[f]]
    return sims, pred_at, gt_at


def _rank_and_match(pairs: tuple, scores, keep_pred: np.ndarray, keep_gt: np.ndarray, thresholds) -> RankedMatches:
    """Rank the kept predictions by score and match them greedily per threshold.

    pairs is _score_pairs' (sims, pred_at, gt_at); scores, keep_pred and
    keep_gt are in input order. A pair is matchable at similarity >=
    threshold; in rank order the highest-similarity unconsumed gt of the same
    frame with keep_gt set wins (ties: the lowest gt index), and each gt is
    consumed at most once. Nothing is rescored: splits, classes and thresholds
    are masks over one table.

    A frame's matches depend only on its own predictions in rank order, so
    step k matches the k-th ranked prediction of every frame at once: each
    rank's row of its frame's block is gathered into (frame, step, gt), with
    unkept gts at -inf, and the loop runs as many steps as the deepest frame
    has kept predictions. oracles.scalar_rank_and_match matches one
    prediction at a time and must give the same result.
    """
    sims, pred_at, gt_at = pairs
    thresholds = np.asarray(thresholds, dtype=float)
    kept = np.flatnonzero(keep_pred)
    score, (frame, place) = np.asarray(scores, dtype=float)[kept], pred_at[kept].T
    n = kept.size
    # score descending; ties by frame then position (lexsort is stable), so ranking is total
    order = np.lexsort((frame, -score))
    tp = np.zeros((thresholds.size, n + 1), dtype=bool)  # column n collects the steps past a frame's last rank
    if n and keep_gt.any():
        frame, place = frame[order], place[order]
        by_frame = np.argsort(frame, kind="stable")  # ranks grouped by frame, rank order inside
        depth = np.empty(n, dtype=int)
        depth[by_frame] = np.arange(n) - np.searchsorted(frame[by_frame], frame[by_frame])
        kept_gt = np.zeros(sims.shape[::2], dtype=bool)
        kept_gt[gt_at[:, 0], gt_at[:, 1]] = keep_gt
        stepped = np.full((sims.shape[0], depth.max() + 1, sims.shape[2]), -np.inf)
        stepped[frame, depth] = np.where(kept_gt[frame], sims[frame, place], -np.inf)
        rank_at = np.full(stepped.shape[:2], n)
        rank_at[frame, depth] = np.arange(n)
        consumed = np.zeros((stepped.shape[0], thresholds.size, stepped.shape[2]), dtype=bool)
        for k in range(stepped.shape[1]):
            s = stepped[:, k, None, :]
            free = ~consumed & (s >= thresholds[:, None])
            hit = free.any(axis=2)
            best = np.where(free, s, -np.inf).argmax(axis=2)  # first maximum: lowest gt index
            f, t = np.nonzero(hit)
            consumed[f, t, best[f, t]] = True
            tp[:, rank_at[:, k]] = hit.T
    return RankedMatches(score[order], tp[:, :n], int(keep_gt.sum()))


def _merge_matches(parts: tuple[RankedMatches, ...]) -> RankedMatches:
    """Matches of the concatenated prediction and gt sets; parts in sequence order."""
    score = np.concatenate([p.score for p in parts])
    order = np.argsort(-score, kind="stable")
    tp = np.concatenate([p.tp for p in parts], axis=1)[:, order]
    return RankedMatches(score[order], tp, sum(p.n_gt for p in parts))


def _curve(matches: RankedMatches, interpolate) -> tuple[list[float], list[float]]:
    """Per-threshold AP and final recall; needs ground truth (n_gt > 0)."""
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
    pairs = _score_pairs(preds, gts, lambda p, g: geometry.iou(p[1], g[1]))
    scores = [p[2] for p in preds]
    masks = zip(_area_masks([p[1] for p in preds]), _area_masks([g[1] for g in gts]))
    return _ap_scores(tuple(_rank_and_match(pairs, scores, kp, kg, IOU_THRESHOLDS) for kp, kg in masks))


def _scale(v: float) -> float:
    return 100.0 * v if not np.isnan(v) else v


def oks(pred_pose, gt_pose, gt_box) -> float:
    """Object keypoint similarity averaged over labeled joints.

    exp(-d^2 / (2 * s^2 * kappa^2)) with s^2 the gt box area and one
    kappa = KAPPA for every joint; labeled means visibility > 0. Returns NaN
    when no joint is labeled.
    """
    pred_pose = np.asarray(pred_pose, dtype=float).reshape(KEYPOINT_COUNT, 2)
    gt_pose = np.asarray(gt_pose, dtype=float).reshape(KEYPOINT_COUNT, 3)
    labeled = gt_pose[:, 2] > 0
    if not labeled.any():
        return float("nan")
    s2 = geometry.area(gt_box)
    if s2 <= 0.0:
        raise ValueError("OKS needs a ground-truth box with positive area")
    d2 = ((pred_pose - gt_pose[:, :2]) ** 2).sum(axis=1)
    sims = np.exp(-d2 / (2.0 * s2 * KAPPA**2))
    return float(sims[labeled].mean())


def keypoint_ap(preds: list, gts: list) -> DetectionAP:
    """OKS-thresholded AP with the detection machinery.

    Args:
        preds: list of (frame, pose (16, 2), score).
        gts: list of (frame, pose (16, 3), box).

    Ground truths without labeled joints are dropped before any pair is
    scored. Area splits mask ground truth by box area; every prediction stays
    in (predictions carry no box of their own).
    """
    labeled = np.array([g[1] for g in gts], dtype=float).reshape(-1, KEYPOINT_COUNT, 3)[:, :, 2].max(axis=1) > 0
    gts = [gts[j] for j in np.flatnonzero(labeled)]
    pairs = _score_pairs(preds, gts, lambda p, g: oks(p[1], g[1], g[2]))
    scores, every = [p[2] for p in preds], np.ones(len(preds), dtype=bool)
    return _ap_scores(
        tuple(_rank_and_match(pairs, scores, every, keep, IOU_THRESHOLDS) for keep in _area_masks([g[2] for g in gts]))
    )


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

    w = gt_boxes[:, 2] - gt_boxes[:, 0]
    h = gt_boxes[:, 3] - gt_boxes[:, 1]
    degenerate = np.flatnonzero((w <= 0.0) | (h <= 0.0))
    if degenerate.size:
        raise ValueError(f"degenerate ground-truth box at instance {degenerate[0]}")
    thresh = delta * np.where(w > h, w, h)  # max(h, w) as Python takes it: np.maximum differs on a NaN side
    dists = np.sqrt(((pred_poses - gt_poses[:, :, :2]) ** 2).sum(axis=2))
    visible = gt_poses[:, :, 2] > 0
    correct = (visible & (dists <= thresh[:, None])).sum(axis=0)
    return _pck_scores(correct, visible.sum(axis=0), delta)


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


def behavior_map(preds: list, gts: list) -> BehaviorMAP:
    """Frame-level multi-label behavior mAP.

    Args:
        preds: list of (frame, box, scores (23,)).
        gts: list of (frame, box, multihot (23,)).

    Per class, every prediction competes with its class score; a prediction
    is a true positive when it overlaps (IoU >= MATCH_IOU) an unconsumed
    ground truth whose multi-hot includes the class, and it takes the
    highest-IoU such gt. AVA's evaluator instead gives each prediction its
    highest-IoU gt of the class, consumed or not, and counts a false positive
    when that gt is already taken. AP is all-point
    interpolated. Classes without ground truth are excluded from the mean and
    from category means; an empty category is NaN. Ground truths with an
    empty multi-hot are dropped first; the IoU does not depend on the class,
    so each class is a score column and a multi-hot column over one IoU table.
    """
    hot = np.array([g[2] for g in gts], dtype=bool).reshape(-1, BEHAVIOR_COUNT)
    labeled = np.flatnonzero(hot.any(axis=1))
    gts, hot = [gts[j] for j in labeled], hot[labeled]
    pairs = _score_pairs(preds, gts, lambda p, g: geometry.iou(p[1], g[1]))
    scores = np.array([p[2] for p in preds], dtype=float).reshape(-1, BEHAVIOR_COUNT)
    every = np.ones(len(preds), dtype=bool)
    classes = [_rank_and_match(pairs, s, every, h, (MATCH_IOU,)) for s, h in zip(scores.T, hot.T)]
    return _behavior_scores(tuple(classes))


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

"""Sequence evaluation drivers and report rendering.

The aggregate row over several sequences is defined as one evaluation of
their concatenation, with frames and ids shifted apart
(oracles.combine_sequences builds it). It is computed by merging the
per-sequence statistics that every metric result carries, so no sequence is
scored twice.

Rendering is byte-stable: fixed one-decimal formatting, two-space column
gutters, ASCII "-" for undefined (NaN) cells. JSON output maps NaN to null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import BEHAVIOR_COUNT, DetectionRecord, SequenceAnnotation, TrackedBox
from .metrics import (
    BehaviorMAP,
    ClearMetrics,
    DetectionAP,
    HotaMetrics,
    Idf1Metrics,
    PckResult,
    behavior_map,
    clear_metrics,
    detection_ap,
    gated_match,
    hota,
    idf1,
    keypoint_ap,
    merge_ap,
    merge_behavior_map,
    merge_clear,
    merge_hota,
    merge_idf1,
    merge_pck,
    pck,
)
from .geometry import iou_matrix


@dataclass(frozen=True)
class MetricsReport:
    sequence_id: str
    clear: ClearMetrics
    idf1: Idf1Metrics
    hota: HotaMetrics
    detection: DetectionAP
    behavior: BehaviorMAP
    pose_ap: DetectionAP | None = None
    pck05: PckResult | None = None
    pck10: PckResult | None = None
    # keypoint AP of a sequence with pose predictions but no pose ground truth:
    # not reported, but its predictions are false positives in an aggregate
    unreported_pose_ap: DetectionAP | None = field(default=None, compare=False, repr=False)


def _gt_records(annotation: SequenceAnnotation):
    """Flatten annotated frames into per-metric ground-truth lists."""
    tracks = []
    det_gt = []
    beh_gt = []
    pose_gt = []
    for frame in sorted(annotation.frames):
        for inst in annotation.frames[frame]:
            tracks.append(TrackedBox(frame, inst.track_id, inst.box))
            det_gt.append((frame, inst.box))
            multihot = np.zeros(BEHAVIOR_COUNT, dtype=int)
            multihot[list(inst.behaviors)] = 1
            beh_gt.append((frame, inst.box, multihot))
            if inst.pose is not None:
                pose_gt.append((frame, np.array(inst.pose, dtype=float), inst.box))
    return tracks, det_gt, beh_gt, pose_gt


def _paired_poses(annotation: SequenceAnnotation, detections: dict[int, list[DetectionRecord]]):
    """Pair predicted and ground-truth poses per frame by box IoU at 0.5."""
    pred_poses = []
    gt_poses = []
    gt_boxes = []
    for frame in sorted(annotation.frames):
        insts = [i for i in annotation.frames[frame] if i.pose is not None]
        dets = [d for d in detections.get(frame, []) if d.pose is not None]
        if not insts or not dets:
            continue
        ious = iou_matrix(
            np.array([i.box for i in insts], dtype=float),
            np.array([d.box for d in dets], dtype=float),
        )
        for r, c in gated_match(ious, ious >= 0.5):
            pred_poses.append(np.array(dets[c].pose, dtype=float))
            gt_poses.append(np.array(insts[r].pose, dtype=float))
            gt_boxes.append(insts[r].box)
    return pred_poses, gt_poses, gt_boxes


def evaluate_sequence(
    annotation: SequenceAnnotation,
    detections: dict[int, list[DetectionRecord]],
    tracks: list[TrackedBox],
    motp_mode: str = "iou",
) -> MetricsReport:
    """Score one sequence on its annotated frames only.

    Predictions on frames without annotations are ignored; everything on an
    annotated frame counts.
    """
    annotated = set(annotation.frames)
    gt_tracks, det_gt, beh_gt, pose_gt = _gt_records(annotation)

    pred_tracks = [t for t in tracks if t.frame in annotated]
    det_pred = []
    beh_pred = []
    pose_pred = []
    for frame in sorted(annotated):
        for d in detections.get(frame, []):
            det_pred.append((frame, d.box, d.score))
            if d.behavior_scores is not None:
                beh_pred.append((frame, d.box, np.array(d.behavior_scores, dtype=float)))
            if d.pose is not None:
                pose_pred.append((frame, np.array(d.pose, dtype=float), d.score))

    report = MetricsReport(
        sequence_id=annotation.sequence_id,
        clear=clear_metrics(gt_tracks, pred_tracks, motp_mode=motp_mode),
        idf1=idf1(gt_tracks, pred_tracks),
        hota=hota(gt_tracks, pred_tracks),
        detection=detection_ap(det_pred, det_gt),
        behavior=behavior_map(beh_pred, beh_gt),
    )
    if pose_gt:
        paired_pred, paired_gt, paired_boxes = _paired_poses(annotation, detections)
        pck05 = pck10 = None
        if paired_pred:
            pck05 = pck(paired_pred, paired_gt, paired_boxes, delta=0.05)
            pck10 = pck(paired_pred, paired_gt, paired_boxes, delta=0.10)
        report = replace(report, pose_ap=keypoint_ap(pose_pred, pose_gt), pck05=pck05, pck10=pck10)
    elif pose_pred:
        report = replace(report, unreported_pose_ap=keypoint_ap(pose_pred, pose_gt))
    return report


def evaluate_sequences(reports: list[MetricsReport], motp_mode: str = "iou") -> MetricsReport:
    """Aggregate the reports of several sequences, given in sequence order.

    The result equals evaluate_sequence on oracles.combine_sequences of the
    same inputs: exactly in every count, MOTA, IDF1, DetA, AP, AR, mAP and
    PCK, and up to float summation order in MOTP, AssA and HOTA. motp_mode
    must be the one the reports were computed with. A single report keeps its
    sequence id; several are labeled "aggregate".
    """
    if not reports:
        raise ValueError("nothing to aggregate")
    pose_parts = [r.pose_ap if r.pose_ap is not None else r.unreported_pose_ap for r in reports]
    pose_ap = None
    if any(r.pose_ap is not None for r in reports):
        pose_ap = merge_ap([p for p in pose_parts if p is not None])

    def _pck(results):
        results = [p for p in results if p is not None]
        return merge_pck(results) if results else None

    return MetricsReport(
        sequence_id=reports[0].sequence_id if len(reports) == 1 else "aggregate",
        clear=merge_clear([r.clear for r in reports], motp_mode),
        idf1=merge_idf1([r.idf1 for r in reports]),
        hota=merge_hota([r.hota for r in reports]),
        detection=merge_ap([r.detection for r in reports]),
        behavior=merge_behavior_map([r.behavior for r in reports]),
        pose_ap=pose_ap,
        pck05=_pck(r.pck05 for r in reports),
        pck10=_pck(r.pck10 for r in reports),
    )


# --- rendering ---


@dataclass(frozen=True)
class TrackingRow:
    name: str
    hota: float
    mota: float
    motp: float
    idf1: float
    det_map: float
    n_fp: float
    n_fn: float
    n_ids: float


@dataclass(frozen=True)
class BehaviorRow:
    name: str
    map: float
    map_locomotion: float
    map_object: float
    map_social: float


@dataclass(frozen=True)
class PoseRow:
    name: str
    pck05: float
    pck10: float
    ap: float
    ap50: float
    ap75: float
    ap_medium: float
    ap_large: float
    ar: float


TRACKING_COLUMNS = ("HOTA", "MOTA", "MOTP", "IDF1", "mAP", "nFP", "nFN", "nIDs")
BEHAVIOR_COLUMNS = ("mAP", "mAP_L", "mAP_O", "mAP_S")
POSE_COLUMNS = ("PCK@0.05", "PCK@0.1", "AP", "AP50", "AP75", "AP_M", "AP_L", "AR")


def _cell(value: float) -> str:
    if value is None or math.isnan(value):
        return "-"
    return f"{value:.1f}"


def _render(columns: tuple[str, ...], names: list[str], values: list[list[float]]) -> str:
    name_width = max(len("Method"), *(len(n) for n in names)) if names else len("Method")
    cells = [[_cell(v) for v in row] for row in values]
    widths = [
        max(len(columns[j]), *(len(row[j]) for row in cells)) if cells else len(columns[j])
        for j in range(len(columns))
    ]
    lines = ["Method".ljust(name_width) + "".join("  " + c.rjust(widths[j]) for j, c in enumerate(columns))]
    for name, row in zip(names, cells):
        lines.append(name.ljust(name_width) + "".join("  " + c.rjust(widths[j]) for j, c in enumerate(row)))
    return "\n".join(lines) + "\n"


def render_tracking_table(rows: list[TrackingRow]) -> str:
    return _render(
        TRACKING_COLUMNS,
        [r.name for r in rows],
        [[r.hota, r.mota, r.motp, r.idf1, r.det_map, r.n_fp, r.n_fn, r.n_ids] for r in rows],
    )


def render_behavior_table(rows: list[BehaviorRow]) -> str:
    return _render(
        BEHAVIOR_COLUMNS,
        [r.name for r in rows],
        [[r.map, r.map_locomotion, r.map_object, r.map_social] for r in rows],
    )


def render_pose_table(rows: list[PoseRow]) -> str:
    return _render(
        POSE_COLUMNS,
        [r.name for r in rows],
        [[r.pck05, r.pck10, r.ap, r.ap50, r.ap75, r.ap_medium, r.ap_large, r.ar] for r in rows],
    )


DETECTION_COLUMNS = ("AP", "AP50", "AP75", "AP_M", "AP_L", "AR")


def render_detection_table(names: list[str], results: list[DetectionAP]) -> str:
    return _render(
        DETECTION_COLUMNS,
        names,
        [[d.ap, d.ap50, d.ap75, d.ap_medium, d.ap_large, d.ar] for d in results],
    )


def tracking_row(name: str, report: MetricsReport) -> TrackingRow:
    return TrackingRow(
        name,
        report.hota.hota,
        report.clear.mota,
        report.clear.motp,
        report.idf1.idf1,
        report.detection.ap,
        report.clear.n_fp,
        report.clear.n_fn,
        report.clear.n_ids,
    )


def behavior_row(name: str, report: MetricsReport) -> BehaviorRow:
    b = report.behavior
    return BehaviorRow(name, b.map, b.map_locomotion, b.map_object, b.map_social)


def pose_row(name: str, report: MetricsReport) -> PoseRow | None:
    if report.pose_ap is None:
        return None
    p = report.pose_ap
    pck05 = report.pck05.mean if report.pck05 is not None else float("nan")
    pck10 = report.pck10.mean if report.pck10 is not None else float("nan")
    return PoseRow(name, pck05, pck10, p.ap, p.ap50, p.ap75, p.ap_medium, p.ap_large, p.ar)


def render_report(report: MetricsReport, name: str | None = None) -> str:
    label = name if name is not None else report.sequence_id
    parts = [
        "Tracking\n" + render_tracking_table([tracking_row(label, report)]),
        "Behavior recognition\n" + render_behavior_table([behavior_row(label, report)]),
    ]
    prow = pose_row(label, report)
    if prow is not None:
        parts.append("Pose estimation\n" + render_pose_table([prow]))
    return "\n".join(parts)


def _num(value: float | None) -> float | None:
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def report_to_json(report: MetricsReport) -> dict:
    """JSON-ready dict; undefined values become null."""
    out = {
        "sequence_id": report.sequence_id,
        "tracking": {
            "hota": _num(report.hota.hota),
            "deta": _num(report.hota.deta),
            "assa": _num(report.hota.assa),
            "mota": _num(report.clear.mota),
            "motp": _num(report.clear.motp),
            "idf1": _num(report.idf1.idf1),
            "n_fp": _num(report.clear.n_fp),
            "n_fn": _num(report.clear.n_fn),
            "n_ids": _num(report.clear.n_ids),
            "fp": report.clear.fp,
            "fn": report.clear.fn,
            "idsw": report.clear.idsw,
            "gt_count": report.clear.gt_count,
        },
        "detection": {
            "ap": _num(report.detection.ap),
            "ap50": _num(report.detection.ap50),
            "ap75": _num(report.detection.ap75),
            "ap_medium": _num(report.detection.ap_medium),
            "ap_large": _num(report.detection.ap_large),
            "ar": _num(report.detection.ar),
        },
        "behavior": {
            "map": _num(report.behavior.map),
            "map_locomotion": _num(report.behavior.map_locomotion),
            "map_object": _num(report.behavior.map_object),
            "map_social": _num(report.behavior.map_social),
            "map_others": _num(report.behavior.map_others),
            "per_class": [_num(v) for v in report.behavior.per_class],
        },
        "pose": None,
    }
    if report.pose_ap is not None:
        out["pose"] = {
            "ap": _num(report.pose_ap.ap),
            "ap50": _num(report.pose_ap.ap50),
            "ap75": _num(report.pose_ap.ap75),
            "ap_medium": _num(report.pose_ap.ap_medium),
            "ap_large": _num(report.pose_ap.ap_large),
            "ar": _num(report.pose_ap.ar),
            "pck05": _num(report.pck05.mean) if report.pck05 else None,
            "pck10": _num(report.pck10.mean) if report.pck10 else None,
        }
    return out

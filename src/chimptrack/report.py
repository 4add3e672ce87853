"""Sequence evaluation drivers, JSON export and table rendering.

evaluate_sequence reads each annotated frame once, in frame order, and
builds from that one pass the inputs of all seven metrics and one
MetricsReport. The aggregate row over several sequences is defined as one evaluation of
their concatenation, with frames and ids shifted apart
(oracles.combine_sequences builds it). It is computed by merging the
per-sequence statistics that every metric result carries, so no sequence is
scored twice.

report_to_json exports a report with undefined (NaN) values as null. One
column table, COLUMNS, gives each evaluate task its columns as (header,
sidecar section, key). A task's sidecar entry is the sequence id plus the
sections its columns read (sidecar_entry), and its text table prints those
same entries, one row each, named by their sequence id. Rendering is
byte-stable: fixed one-decimal formatting, two-space column gutters, ASCII
"-" for null cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import assign
from .dataio import BEHAVIOR_COUNT, DetectionRecord, SequenceAnnotation, TrackedBox
from .metrics import (
    MATCH_IOU,
    BehaviorMAP,
    ClearMetrics,
    DetectionAP,
    HotaMetrics,
    Idf1Metrics,
    PckResult,
    behavior_map,
    clear_metrics,
    detection_ap,
    hota,
    idf1,
    keypoint_ap,
    merge_ap,
    merge_behavior_map,
    merge_clear,
    merge_hota,
    merge_idf1,
    merge_pck,
    pair_frames,
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


def evaluate_sequence(
    annotation: SequenceAnnotation,
    detections: dict[int, list[DetectionRecord]],
    tracks: list[TrackedBox],
) -> MetricsReport:
    """Score one sequence on its annotated frames only.

    Predictions on frames without annotations are ignored; everything on an
    annotated frame counts. So a caller may pass only the annotated frames'
    tracks and detections: evaluate builds its tracks with
    parse_mot_csv(text, annotation.frames). One pass over the annotated
    frames, in frame order, builds every metric's ground-truth and
    prediction lists and pairs each frame's posed instances with its posed
    detections by box IoU at MATCH_IOU for PCK. CLEAR, IDF1 and HOTA read
    one frame table.
    """
    gt_tracks, det_gt, beh_gt, pose_gt = [], [], [], []
    det_pred, beh_pred, pose_pred = [], [], []
    paired_pred, paired_gt, paired_boxes = [], [], []
    for frame in sorted(annotation.frames):
        insts, dets = annotation.frames[frame], detections.get(frame, [])
        for inst in insts:
            gt_tracks.append(TrackedBox(frame, inst.track_id, inst.box))
            det_gt.append((frame, inst.box))
            multihot = np.zeros(BEHAVIOR_COUNT, dtype=int)
            multihot[list(inst.behaviors)] = 1
            beh_gt.append((frame, inst.box, multihot))
            if inst.pose is not None:
                pose_gt.append((frame, np.array(inst.pose, dtype=float), inst.box))
        for d in dets:
            det_pred.append((frame, d.box, d.score))
            if d.behavior_scores is not None:
                beh_pred.append((frame, d.box, np.array(d.behavior_scores, dtype=float)))
            if d.pose is not None:
                pose_pred.append((frame, np.array(d.pose, dtype=float), d.score))
        posed_insts = [i for i in insts if i.pose is not None]
        posed_dets = [d for d in dets if d.pose is not None]
        if posed_insts and posed_dets:
            ious = iou_matrix(
                np.array([i.box for i in posed_insts], dtype=float),
                np.array([d.box for d in posed_dets], dtype=float),
            )
            for r, c in assign.gated_match(ious, ious >= MATCH_IOU):
                paired_pred.append(np.array(posed_dets[c].pose, dtype=float))
                paired_gt.append(np.array(posed_insts[r].pose, dtype=float))
                paired_boxes.append(posed_insts[r].box)

    table = pair_frames(gt_tracks, [t for t in tracks if t.frame in annotation.frames])
    pairs = (paired_pred, paired_gt, paired_boxes)
    # without pose ground truth, keypoint AP is not reported; without pose at all, it is not scored
    pose_ap = keypoint_ap(pose_pred, pose_gt) if pose_gt or pose_pred else None
    return MetricsReport(
        sequence_id=annotation.sequence_id,
        clear=clear_metrics(table),
        idf1=idf1(table),
        hota=hota(table),
        detection=detection_ap(det_pred, det_gt),
        behavior=behavior_map(beh_pred, beh_gt),
        pose_ap=pose_ap if pose_gt else None,
        pck05=pck(*pairs, delta=0.05) if paired_pred else None,
        pck10=pck(*pairs, delta=0.10) if paired_pred else None,
        unreported_pose_ap=None if pose_gt else pose_ap,
    )


def evaluate_sequences(reports: list[MetricsReport]) -> MetricsReport:
    """Aggregate the reports of several sequences, given in sequence order.

    The result equals evaluate_sequence on oracles.combine_sequences of the
    same inputs: exactly in every count, MOTA, IDF1, DetA, AP, AR, mAP and
    PCK, and up to float summation order in MOTP, AssA and HOTA. A single
    report keeps its sequence id; several are labeled "aggregate".
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
        clear=merge_clear([r.clear for r in reports]),
        idf1=merge_idf1([r.idf1 for r in reports]),
        hota=merge_hota([r.hota for r in reports]),
        detection=merge_ap([r.detection for r in reports]),
        behavior=merge_behavior_map([r.behavior for r in reports]),
        pose_ap=pose_ap,
        pck05=_pck(r.pck05 for r in reports),
        pck10=_pck(r.pck10 for r in reports),
    )


# --- export and rendering ---


def _num(value: float | None) -> float | None:
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


# (table header, sidecar key) of each AP field; the key is also the DetectionAP attribute
_AP_KEYS = (("AP", "ap"), ("AP50", "ap50"), ("AP75", "ap75"), ("AP_M", "ap_medium"), ("AP_L", "ap_large"), ("AR", "ar"))


def _ap_section(ap: DetectionAP) -> dict:
    return {key: _num(getattr(ap, key)) for _, key in _AP_KEYS}


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
        "detection": _ap_section(report.detection),
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
            **_ap_section(report.pose_ap),
            "pck05": _num(report.pck05.mean) if report.pck05 else None,
            "pck10": _num(report.pck10.mean) if report.pck10 else None,
        }
    return out


# Each evaluate task's table, column by column: (header, sidecar section, key).
COLUMNS = {
    "tracking": (
        ("HOTA", "tracking", "hota"),
        ("MOTA", "tracking", "mota"),
        ("MOTP", "tracking", "motp"),
        ("IDF1", "tracking", "idf1"),
        ("mAP", "detection", "ap"),
        ("nFP", "tracking", "n_fp"),
        ("nFN", "tracking", "n_fn"),
        ("nIDs", "tracking", "n_ids"),
    ),
    "detection": tuple((header, "detection", key) for header, key in _AP_KEYS),
    "behavior": (
        ("mAP", "behavior", "map"),
        ("mAP_L", "behavior", "map_locomotion"),
        ("mAP_O", "behavior", "map_object"),
        ("mAP_S", "behavior", "map_social"),
    ),
    "pose": (
        ("PCK@0.05", "pose", "pck05"),
        ("PCK@0.1", "pose", "pck10"),
        *((header, "pose", key) for header, key in _AP_KEYS),
    ),
}


def sidecar_entry(report: MetricsReport, task: str) -> dict:
    """A task's entry in the metrics sidecar: sequence_id plus the sections its columns read."""
    full = report_to_json(report)
    return {"sequence_id": full["sequence_id"], **{section: full[section] for _, section, _ in COLUMNS[task]}}


def _render_table(columns, entries: list[dict]) -> str:
    """One row per sidecar entry, named by its sequence_id; a null value or section prints as "-"."""
    rows = [["Method", *(header for header, _, _ in columns)]]
    for entry in entries:
        values = [None if entry[section] is None else entry[section][key] for _, section, key in columns]
        rows.append([entry["sequence_id"], *("-" if v is None else f"{v:.1f}" for v in values)])
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    lines = ["  ".join([row[0].ljust(widths[0]), *(c.rjust(w) for c, w in zip(row[1:], widths[1:]))]) for row in rows]
    return "\n".join(lines) + "\n"


def render_tracking_table(entries: list[dict]) -> str:
    return _render_table(COLUMNS["tracking"], entries)


def render_detection_table(entries: list[dict]) -> str:
    return _render_table(COLUMNS["detection"], entries)


def render_behavior_table(entries: list[dict]) -> str:
    return _render_table(COLUMNS["behavior"], entries)


def render_pose_table(entries: list[dict]) -> str:
    return _render_table(COLUMNS["pose"], entries)

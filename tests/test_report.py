import dataclasses
import json
import math

import pytest
from conftest import nan_equal

from chimptrack.dataio import DetectionRecord, SequenceAnnotation, TrackedBox
from chimptrack.geometry import BoxXYXY
from chimptrack.oracles import combine_sequences
from chimptrack.report import (
    BehaviorRow,
    TrackingRow,
    behavior_row,
    evaluate_sequence,
    evaluate_sequences,
    pose_row,
    render_behavior_table,
    render_report,
    render_tracking_table,
    report_to_json,
    tracking_row,
)
from chimptrack.synth import NoiseConfig, SceneConfig, generate, perturb_detections, perturb_tracks

CFG = SceneConfig(agents=3, frames=30, stride=10)


def identity_inputs(seed=1, cfg=CFG):
    scene = generate(cfg, seed)
    return scene, scene.detections, scene.gt_tracks


def strip_poses(annotation: SequenceAnnotation) -> SequenceAnnotation:
    frames = {
        f: tuple(dataclasses.replace(i, pose=None) for i in insts)
        for f, insts in annotation.frames.items()
    }
    return dataclasses.replace(annotation, frames=frames)


def same_ap(a, b) -> bool:
    return all(
        nan_equal(getattr(a, k), getattr(b, k))
        for k in ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar")
    ) and a.gt_count == b.gt_count and a.pred_count == b.pred_count


def test_identity_predictions_score_100_everywhere():
    scene, dets, tracks = identity_inputs()
    report = evaluate_sequence(scene.annotation, dets, tracks)
    assert report.clear.mota == 100.0
    assert report.idf1.idf1 == 100.0
    assert report.hota.hota == 100.0
    assert report.detection.ap == 100.0
    assert report.behavior.map == 100.0
    assert report.pose_ap is not None and report.pose_ap.ap == 100.0
    assert report.pck05 is not None and report.pck05.mean == 100.0
    assert report.pck10 is not None and report.pck10.mean == 100.0


def test_only_annotated_frames_are_scored():
    scene, dets, tracks = identity_inputs()
    clean = evaluate_sequence(scene.annotation, dets, tracks)
    # clutter on unannotated frames changes nothing
    noisy_tracks = tracks + [TrackedBox(f, 9, BoxXYXY(0.0, 0.0, 30.0, 30.0)) for f in (1, 5, 15)]
    noisy_dets = {f: list(v) for f, v in dets.items()}
    noisy_dets[3] = noisy_dets[3] + [DetectionRecord(BoxXYXY(0.0, 0.0, 30.0, 30.0), 0.99)]
    out = evaluate_sequence(scene.annotation, noisy_dets, noisy_tracks)
    assert out.clear == clean.clear
    assert same_ap(out.detection, clean.detection)
    # the same clutter on an annotated frame does count
    noisy_tracks_on = tracks + [TrackedBox(10, 9, BoxXYXY(600.0, 400.0, 630.0, 430.0))]
    hit = evaluate_sequence(scene.annotation, dets, noisy_tracks_on)
    assert hit.clear.fp == 1


def test_missing_annotated_frame_counts_misses():
    scene, dets, tracks = identity_inputs()
    dropped = [t for t in tracks if t.frame != 20]
    out = evaluate_sequence(scene.annotation, dets, dropped)
    assert out.clear.fn == CFG.agents
    assert out.clear.mota == pytest.approx(100.0 - 100.0 * CFG.agents / out.clear.gt_count)


def test_combine_sequences_offsets_and_additivity():
    scene_a, dets_a, tracks_a = identity_inputs(seed=1)
    scene_b, dets_b, tracks_b = identity_inputs(seed=2)
    noisy_b = perturb_tracks(tracks_b, scene_b.annotation.image_size, NoiseConfig(fn_rate=0.2), 3)

    combined, dets, tracks = combine_sequences(
        [(scene_a.annotation, dets_a, tracks_a), (scene_b.annotation, dets_b, noisy_b)]
    )
    assert combined.frame_count == 60
    assert sorted(combined.frames) == [0, 10, 20, 30, 40, 50]
    # ids from the two sequences stay disjoint
    ids_a = {i.track_id for f in (0, 10, 20) for i in combined.frames[f]}
    ids_b = {i.track_id for f in (30, 40, 50) for i in combined.frames[f]}
    assert ids_a == {1, 2, 3}
    assert ids_b == {4, 5, 6}

    solo_a = evaluate_sequence(scene_a.annotation, dets_a, tracks_a)
    solo_b = evaluate_sequence(scene_b.annotation, dets_b, noisy_b)
    agg = evaluate_sequences([solo_a, solo_b])
    assert agg.sequence_id == "aggregate"
    assert agg.clear.gt_count == solo_a.clear.gt_count + solo_b.clear.gt_count
    assert agg.clear.fp == solo_a.clear.fp + solo_b.clear.fp
    assert agg.clear.fn == solo_a.clear.fn + solo_b.clear.fn
    assert agg.clear.idsw == solo_a.clear.idsw + solo_b.clear.idsw


def test_combine_sequences_validation():
    scene_a, dets_a, tracks_a = identity_inputs(seed=1)
    other = generate(SceneConfig(agents=2, frames=20, width=320, height=240), 5)
    with pytest.raises(ValueError, match="image sizes"):
        combine_sequences(
            [
                (scene_a.annotation, dets_a, tracks_a),
                (other.annotation, other.detections, other.gt_tracks),
            ]
        )
    with pytest.raises(ValueError, match="nothing to combine"):
        combine_sequences([])


def test_evaluate_sequences_single_item_matches_direct_call():
    scene, dets, tracks = identity_inputs(seed=4)
    noisy = perturb_tracks(tracks, scene.annotation.image_size, NoiseConfig(box_jitter=2.0, fn_rate=0.2), 5)
    b = evaluate_sequence(scene.annotation, dets, noisy)
    a = evaluate_sequences([b])
    assert a.sequence_id == b.sequence_id
    assert a.clear == b.clear and a.idf1 == b.idf1 and a.hota == b.hota
    assert same_ap(a.detection, b.detection)
    assert nan_equal(a.behavior.map, b.behavior.map, tol=0.0)
    assert all(nan_equal(x, y, tol=0.0) for x, y in zip(a.behavior.per_class, b.behavior.per_class))
    assert same_ap(a.pose_ap, b.pose_ap)
    assert a.pck05 == b.pck05 and a.pck10 == b.pck10
    with pytest.raises(ValueError, match="nothing to aggregate"):
        evaluate_sequences([])


AGG_CFG = SceneConfig(agents=4, frames=60, stride=10)
DET_NOISE = NoiseConfig(box_jitter=2.0, kp_jitter=1.0, fn_rate=0.1, fp_rate=0.5)
TRACK_NOISE = NoiseConfig(box_jitter=2.0, fn_rate=0.1, id_swap_rate=0.1)


def task_items(task: str, seeds=(11, 12, 13)):
    """Noisy sequences as the CLI feeds them to evaluate_sequence for a task.

    Tracking scores tracks (their boxes double as detections); the other tasks
    score detections with no tracks. Detection and behavior scores are rounded
    to one decimal, so equal scores span sequences and the merge has to keep
    the concatenation's tie order. The second sequence has no predictions on
    two of its annotated frames.
    """
    items = []
    for i, seed in enumerate(seeds):
        scene = generate(AGG_CFG, seed)
        size = scene.annotation.image_size
        if task == "tracking":
            tracks = perturb_tracks(scene.gt_tracks, size, TRACK_NOISE, seed + 100)
            dets = {}
            for t in tracks:
                dets.setdefault(t.frame, []).append(DetectionRecord(t.box, t.score, t.behavior_scores))
        else:
            tracks = []
            dets = {
                f: [
                    dataclasses.replace(
                        d,
                        score=round(d.score, 1),
                        behavior_scores=tuple(round(b, 1) for b in d.behavior_scores),
                    )
                    for d in v
                ]
                for f, v in perturb_detections(scene.detections, size, DET_NOISE, seed + 100).items()
            }
        if i == 1:
            tracks = [t for t in tracks if t.frame not in (10, 30)]
            dets = {f: v for f, v in dets.items() if f not in (10, 30)}
        items.append((scene.annotation, dets, tracks))
    return items


def exact(a, b) -> bool:
    return nan_equal(a, b, tol=0.0)


def assert_same_ap(merged, ref):
    assert merged.gt_count == ref.gt_count and merged.pred_count == ref.pred_count
    for k in ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar"):
        assert exact(getattr(merged, k), getattr(ref, k)), k


def assert_same_pck(merged, ref):
    assert (merged is None) == (ref is None)
    if ref is not None:
        assert merged.counted == ref.counted and merged.correct == ref.correct
        assert exact(merged.mean, ref.mean)
        assert all(exact(x, y) for x, y in zip(merged.per_joint, ref.per_joint))


@pytest.mark.parametrize("task", ["tracking", "detection", "behavior", "pose"])
def test_merged_aggregate_equals_concatenated_evaluation(task):
    items = task_items(task)
    merged = evaluate_sequences([evaluate_sequence(*item) for item in items])
    ref = evaluate_sequence(*combine_sequences(items))
    assert merged.sequence_id == ref.sequence_id == "aggregate"
    if task == "tracking":
        m, r = merged.clear, ref.clear
        assert (m.fp, m.fn, m.idsw, m.gt_count, m.matched) == (r.fp, r.fn, r.idsw, r.gt_count, r.matched)
        assert m.idsw > 0 and m.fn > 0
        assert (m.mota, m.n_fp, m.n_fn, m.n_ids) == (r.mota, r.n_fp, r.n_fn, r.n_ids)
        assert abs(m.motp - r.motp) <= 1e-9
        assert merged.idf1 == ref.idf1
        m, r = merged.hota, ref.hota
        assert (m.tp, m.gt_total, m.pred_total) == (r.tp, r.gt_total, r.pred_total)
        assert m.deta == r.deta and m.deta_alpha == r.deta_alpha
        for x, y in zip((m.hota, m.assa, *m.hota_alpha, *m.assa_alpha), (r.hota, r.assa, *r.hota_alpha, *r.assa_alpha)):
            assert abs(x - y) <= 1e-9
    if task in ("tracking", "detection"):
        assert_same_ap(merged.detection, ref.detection)
    if task == "behavior":
        assert merged.behavior.gt_counts == ref.behavior.gt_counts
        for k in ("map", "map_locomotion", "map_object", "map_social", "map_others"):
            assert exact(getattr(merged.behavior, k), getattr(ref.behavior, k)), k
        assert all(exact(x, y) for x, y in zip(merged.behavior.per_class, ref.behavior.per_class))
    if task == "pose":
        assert_same_ap(merged.pose_ap, ref.pose_ap)
        assert_same_pck(merged.pck05, ref.pck05)
        assert_same_pck(merged.pck10, ref.pck10)


def test_merged_aggregate_counts_pose_predictions_without_pose_ground_truth():
    items = task_items("pose")
    items[0] = (strip_poses(items[0][0]), *items[0][1:])
    reports = [evaluate_sequence(*item) for item in items]
    assert reports[0].pose_ap is None
    merged = evaluate_sequences(reports)
    ref = evaluate_sequence(*combine_sequences(items))
    # the first sequence's pose predictions are false positives in the aggregate
    own = [sum(d.pose is not None for f in ann.frames for d in dets.get(f, ())) for ann, dets, _ in items]
    assert own[0] > 0
    assert merged.pose_ap.pred_count == ref.pose_ap.pred_count == sum(own)
    assert_same_ap(merged.pose_ap, ref.pose_ap)
    assert_same_pck(merged.pck05, ref.pck05)


def test_tracking_table_layout_and_nan_dash():
    rows = [TrackingRow("a", 1.0, 2.0, float("nan"), 4.0, 5.0, 6.0, 7.0, 8.0)]
    text = render_tracking_table(rows)
    lines = text.split("\n")
    assert lines[0] == "Method  HOTA  MOTA  MOTP  IDF1  mAP  nFP  nFN  nIDs"
    assert lines[1] == "a        1.0   2.0     -   4.0  5.0  6.0  7.0   8.0"
    assert text.endswith("\n")


def test_behavior_table_layout():
    rows = [
        BehaviorRow("x", 34.3, 50.3, 31.3, 29.3),
        BehaviorRow("longer-name", 1.0, float("nan"), 2.0, 3.0),
    ]
    text = render_behavior_table(rows)
    lines = text.split("\n")
    assert lines[0].startswith("Method")
    assert "mAP_L" in lines[0] and "mAP_O" in lines[0] and "mAP_S" in lines[0]
    assert "34.3" in lines[1]
    assert lines[2].startswith("longer-name")
    assert "-" in lines[2].split()


def test_rows_pull_from_report_fields():
    scene, dets, tracks = identity_inputs(seed=6)
    report = evaluate_sequence(scene.annotation, dets, tracks)
    trow = tracking_row("ref", report)
    assert trow.hota == report.hota.hota
    assert trow.n_ids == report.clear.n_ids
    brow = behavior_row("ref", report)
    assert brow.map == report.behavior.map
    prow = pose_row("ref", report)
    assert prow is not None and prow.pck05 == report.pck05.mean


def test_render_report_sections():
    scene, dets, tracks = identity_inputs(seed=7)
    report = evaluate_sequence(scene.annotation, dets, tracks)
    text = render_report(report, name="run")
    assert "Tracking\n" in text
    assert "Behavior recognition\n" in text
    assert "Pose estimation\n" in text
    assert "run" in text
    # no pose section when the annotation carries no poses
    report2 = evaluate_sequence(strip_poses(scene.annotation), dets, tracks)
    assert report2.pose_ap is None
    assert "Pose estimation" not in render_report(report2)


def test_report_to_json_nan_becomes_null():
    scene, dets, tracks = identity_inputs(seed=8)
    report = evaluate_sequence(scene.annotation, dets, tracks)
    doc = report_to_json(report)
    text = json.dumps(doc)
    assert "NaN" not in text
    assert doc["sequence_id"] == scene.annotation.sequence_id
    assert doc["tracking"]["mota"] == 100.0
    assert doc["tracking"]["idsw"] == 0
    # behavior classes with no ground truth serialize as null
    per_class = doc["behavior"]["per_class"]
    assert len(per_class) == 23
    assert any(v is None for v in per_class)
    assert all(v is None or isinstance(v, float) for v in per_class)
    roundtrip = json.loads(text)
    assert roundtrip["tracking"]["hota"] == 100.0


def test_report_to_json_handles_missing_pose_sections():
    scene, dets, tracks = identity_inputs(seed=9)
    doc = report_to_json(evaluate_sequence(strip_poses(scene.annotation), dets, tracks))
    assert doc["pose"] is None
    assert not math.isnan(doc["tracking"]["hota"])

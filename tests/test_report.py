import dataclasses
import json
import math

import pytest
from conftest import nan_equal

from chimptrack import metrics, tracker
from chimptrack.dataio import DetectionRecord, SequenceAnnotation, TrackedBox
from chimptrack.geometry import BoxXYXY
from chimptrack.oracles import combine_sequences
from chimptrack.report import (
    COLUMNS,
    evaluate_sequence,
    evaluate_sequences,
    render_behavior_table,
    render_pose_table,
    render_tracking_table,
    report_to_json,
    sidecar_entry,
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


def merge_statistics(report):
    """What evaluate_sequences merges, beyond the sidecar: ranked matches, HOTA sums, PCK counts."""

    def ranked(parts):
        return [(m.score.tolist(), m.tp.tolist(), m.n_gt) for m in parts]

    c, h = report.clear, report.hota
    return (
        (c.matched, c.iou_sum),
        (h.tp, h.assa_numerator, h.gt_total, h.pred_total),
        report.idf1,
        ranked(report.detection.splits),
        ranked(report.behavior.classes),
        ranked(report.pose_ap.splits) if report.pose_ap else None,
        [(p.counted, p.correct) if p else None for p in (report.pck05, report.pck10)],
    )


def posed_clutter(annotation, frame_of):
    """Per gt instance, a 0.99 detection on frame_of(its frame): its box, a pose 40 px off, every behavior."""
    out = {}
    for f, insts in annotation.frames.items():
        for inst in insts:
            pose = tuple((x + 40.0, y + 40.0) for x, y, _ in inst.pose)
            out.setdefault(frame_of(f), []).append(DetectionRecord(inst.box, 0.99, (1.0,) * 23, pose))
    return out


def test_only_annotated_frames_are_scored():
    scene, dets, tracks = identity_inputs()
    clean = evaluate_sequence(scene.annotation, dets, tracks)
    # clutter on unannotated frames changes nothing: a stray track, a copy of every gt box one frame
    # later under another id, and posed, behavior-scored detections on the frames before and after
    annotated = sorted(scene.annotation.frames)
    assert annotated == [0, 10, 20]
    noisy_tracks = tracks + [TrackedBox(f, 9, BoxXYXY(0.0, 0.0, 30.0, 30.0)) for f in (1, 5, 15)]
    noisy_tracks += [TrackedBox(t.frame + 1, t.track_id + 50, t.box) for t in tracks if t.frame in annotated]
    noisy_dets = {f: list(v) for f, v in dets.items()}
    noisy_dets[3] = noisy_dets[3] + [DetectionRecord(BoxXYXY(0.0, 0.0, 30.0, 30.0), 0.99)]
    for shift in (-1, 1):
        for f, extra in posed_clutter(scene.annotation, lambda f: f + shift).items():
            if f >= 0:
                noisy_dets[f] = noisy_dets[f] + extra
    out = evaluate_sequence(scene.annotation, noisy_dets, noisy_tracks)
    assert report_to_json(out) == report_to_json(clean)
    assert merge_statistics(out) == merge_statistics(clean)
    assert clean.pck05.counted == clean.pck10.counted and sum(clean.pck05.correct) > 0
    # the same clutter on an annotated frame does count
    noisy_tracks_on = tracks + [TrackedBox(10, 9, BoxXYXY(600.0, 400.0, 630.0, 430.0))]
    hit = evaluate_sequence(scene.annotation, dets, noisy_tracks_on)
    assert hit.clear.fp == 1
    posed_on = {f: v + posed_clutter(scene.annotation, lambda f: f).get(f, []) for f, v in dets.items()}
    hit = evaluate_sequence(scene.annotation, posed_on, tracks)
    assert hit.pose_ap.pred_count == 2 * clean.pose_ap.pred_count
    assert hit.detection.pred_count == 2 * clean.detection.pred_count
    assert hit.behavior.map < clean.behavior.map


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
                dets.setdefault(t.frame, []).append(DetectionRecord(t.box, t.score))
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


def test_one_frame_table_per_sequence(monkeypatch):
    # CLEAR, IDF1 and HOTA read the one frame table evaluate_sequence builds,
    # so metrics.iou_matrix runs once per annotated frame, for tracks and for
    # detections alike (the README noise on 8 x 250 at seed 9)
    scene = generate(SceneConfig(agents=8, frames=250), 9)
    noisy = perturb_detections(scene.detections, scene.annotation.image_size, DET_NOISE, 10)
    tracks = tracker.run(noisy, tracker.TrackerConfig())
    track_dets = {}
    for t in tracks:
        track_dets.setdefault(t.frame, []).append(DetectionRecord(t.box, t.score))
    calls = []
    real = metrics.iou_matrix

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(metrics, "iou_matrix", counting)
    per_frame_gt = [len(scene.annotation.frames[f]) for f in sorted(scene.annotation.frames)]
    assert len(per_frame_gt) == 25
    for dets, preds in ((track_dets, tracks), (noisy, [])):
        calls.clear()
        evaluate_sequence(scene.annotation, dets, preds)
        assert calls == per_frame_gt


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
    entry = {
        "sequence_id": "a",
        "tracking": {"hota": 1.0, "mota": 2.0, "motp": None, "idf1": 4.0, "n_fp": 6.0, "n_fn": 7.0, "n_ids": 8.0},
        "detection": {"ap": 5.0},
    }
    text = render_tracking_table([entry])
    lines = text.split("\n")
    assert lines[0] == "Method  HOTA  MOTA  MOTP  IDF1  mAP  nFP  nFN  nIDs"
    assert lines[1] == "a        1.0   2.0     -   4.0  5.0  6.0  7.0   8.0"
    assert text.endswith("\n")


def test_behavior_table_layout():
    def entry(name, *values):
        keys = ("map", "map_locomotion", "map_object", "map_social")
        return {"sequence_id": name, "behavior": dict(zip(keys, values))}

    text = render_behavior_table([entry("x", 34.3, 50.3, 31.3, 29.3), entry("longer-name", 1.0, None, 2.0, 3.0)])
    lines = text.split("\n")
    assert lines[0].startswith("Method")
    assert "mAP_L" in lines[0] and "mAP_O" in lines[0] and "mAP_S" in lines[0]
    assert "34.3" in lines[1]
    assert lines[2].startswith("longer-name")
    assert "-" in lines[2].split()


def test_rows_pull_from_report_fields():
    scene, dets, tracks = identity_inputs(seed=6)
    report = evaluate_sequence(scene.annotation, dets, tracks)
    tracking = render_tracking_table([sidecar_entry(report, "tracking")]).split("\n")[1].split()
    assert tracking[0] == scene.annotation.sequence_id
    assert tracking[1] == f"{report.hota.hota:.1f}"
    assert tracking[8] == f"{report.clear.n_ids:.1f}"
    behavior = render_behavior_table([sidecar_entry(report, "behavior")]).split("\n")[1].split()
    assert behavior[1] == f"{report.behavior.map:.1f}"
    pose = render_pose_table([sidecar_entry(report, "pose")]).split("\n")[1].split()
    assert pose[1] == f"{report.pck05.mean:.1f}"


def test_sidecar_entry_keeps_the_sections_its_columns_read():
    scene, dets, tracks = identity_inputs(seed=7)
    report = evaluate_sequence(scene.annotation, dets, tracks)
    full = report_to_json(report)
    for task, sections in (
        ("tracking", {"tracking", "detection"}),
        ("detection", {"detection"}),
        ("behavior", {"behavior"}),
        ("pose", {"pose"}),
    ):
        assert {section for _, section, _ in COLUMNS[task]} == sections
        assert sidecar_entry(report, task) == {"sequence_id": full["sequence_id"], **{s: full[s] for s in sections}}
    # without pose annotations the pose section is null and its table row is all "-"
    stripped = sidecar_entry(evaluate_sequence(strip_poses(scene.annotation), dets, tracks), "pose")
    assert stripped["pose"] is None
    row = render_pose_table([stripped]).split("\n")[1].split()
    assert row == [scene.annotation.sequence_id] + ["-"] * len(COLUMNS["pose"])


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


def test_a_sequence_merged_with_itself_keeps_every_ratio_and_doubles_every_count():
    # README noise on 8 x 250 at seed 9: the tracker's tracks and the noisy
    # detections fill every section. No scored score is tied, so the merge's
    # stable ranking interleaves the two copies rank by rank.
    scene = generate(SceneConfig(agents=8, frames=250), 9)
    noisy = perturb_detections(scene.detections, scene.annotation.image_size, DET_NOISE, 10)
    tracks = tracker.run(noisy, tracker.TrackerConfig())
    scored = [d for f in scene.annotation.frames for d in noisy.get(f, ())]
    for column in [[d.score for d in scored], *zip(*(d.behavior_scores for d in scored))]:
        assert len(set(column)) == len(column)
    one = evaluate_sequence(scene.annotation, noisy, tracks)
    two = evaluate_sequences([one, one])
    checked = {"counts": 0, "ratios": 0}
    for section in ("clear", "idf1", "hota", "detection", "behavior", "pose_ap", "pck05", "pck10"):
        a, b = getattr(one, section), getattr(two, section)
        for f in dataclasses.fields(a):
            if not f.compare:
                continue
            values = [getattr(r, f.name) for r in (a, b)]
            for x, y in zip(*(v if isinstance(v, tuple) else (v,) for v in values), strict=True):
                if isinstance(x, int):
                    assert y == 2 * x, (section, f.name)
                    checked["counts"] += 1
                else:
                    assert y == x or (math.isnan(x) and math.isnan(y)), (section, f.name)
                    checked["ratios"] += 1
    assert min(one.clear.fp, one.clear.fn, one.clear.idsw) > 0 and min(checked.values()) > 50, checked

import math

import pytest

from chimptrack.dataio import BEHAVIOR_COUNT, KEYPOINT_COUNT
from chimptrack.geometry import ImageSize
from chimptrack.synth import (
    BORDER_MARGIN,
    EATING,
    MOVING,
    PLAYING,
    POSE_FRACTIONS,
    RESTING,
    NoiseConfig,
    SceneConfig,
    generate,
    perturb_detections,
    perturb_tracks,
)

CFG = SceneConfig(agents=4, frames=60, stride=10)


def centers(instances):
    return {
        inst.track_id: ((inst.box.x1 + inst.box.x2) / 2.0, (inst.box.y1 + inst.box.y2) / 2.0)
        for inst in instances
    }


def test_generate_is_deterministic_and_seed_sensitive():
    a = generate(CFG, 7)
    b = generate(CFG, 7)
    c = generate(CFG, 8)
    assert a.annotation == b.annotation
    assert a.detections == b.detections
    assert a.gt_tracks == b.gt_tracks
    assert c.annotation != a.annotation


def test_scene_structure():
    scene = generate(CFG, 3)
    ann = scene.annotation
    assert ann.sequence_id == "synth-3"
    assert ann.frame_count == 60
    assert sorted(ann.frames) == list(range(0, 60, 10))
    assert sorted(scene.detections) == list(range(60))
    for frame, dets in scene.detections.items():
        assert len(dets) == CFG.agents
    for frame, insts in ann.frames.items():
        assert sorted(i.track_id for i in insts) == [1, 2, 3, 4]
        for inst in insts:
            assert inst.pose is not None and len(inst.pose) == KEYPOINT_COUNT
            assert all(v == 2 for _, _, v in inst.pose)
    assert len(scene.gt_tracks) == CFG.agents * CFG.frames
    assert {t.track_id for t in scene.gt_tracks} == {1, 2, 3, 4}


def test_boxes_and_poses_stay_inside_the_image():
    scene = generate(SceneConfig(agents=6, frames=120, max_speed=12.0), 11)
    w, h = scene.annotation.image_size
    for dets in scene.detections.values():
        for det in dets:
            assert 0.0 <= det.box.x1 < det.box.x2 <= w
            assert 0.0 <= det.box.y1 < det.box.y2 <= h
            for x, y in det.pose:
                assert det.box.x1 <= x <= det.box.x2
                assert det.box.y1 <= y <= det.box.y2


def test_every_agent_is_moving_or_resting_but_not_both():
    scene = generate(CFG, 5)
    for insts in scene.annotation.frames.values():
        for inst in insts:
            assert (MOVING in inst.behaviors) != (RESTING in inst.behaviors)


def test_motion_label_is_constant_per_agent():
    # reflection preserves speed, so the moving/resting label never changes
    scene = generate(CFG, 13)
    label: dict[int, bool] = {}
    for insts in scene.annotation.frames.values():
        for inst in insts:
            moving = MOVING in inst.behaviors
            assert label.setdefault(inst.track_id, moving) == moving


def test_eating_fires_exactly_near_left_or_top_border():
    scene = generate(SceneConfig(agents=6, frames=100, max_speed=10.0), 17)
    seen_eating = False
    for insts in scene.annotation.frames.values():
        for inst in insts:
            near = inst.box.x1 < BORDER_MARGIN or inst.box.y1 < BORDER_MARGIN
            assert (EATING in inst.behaviors) == near
            seen_eating = seen_eating or near
    assert seen_eating  # the scene actually exercises the rule


def test_playing_is_symmetric_and_matches_proximity():
    scene = generate(SceneConfig(agents=5, frames=100, proximity=120.0), 19)
    for insts in scene.annotation.frames.values():
        pos = centers(insts)
        for inst in insts:
            cx, cy = pos[inst.track_id]
            near = any(
                math.hypot(cx - ox, cy - oy) < 120.0
                for tid, (ox, oy) in pos.items()
                if tid != inst.track_id
            )
            assert (PLAYING in inst.behaviors) == near


def test_behavior_scores_separate_active_from_inactive():
    scene = generate(CFG, 23)
    for frame, insts in scene.annotation.frames.items():
        dets = scene.detections[frame]
        for inst, det in zip(insts, dets):
            assert 0.6 <= det.score <= 0.95
            assert len(det.behavior_scores) == BEHAVIOR_COUNT
            for k, s in enumerate(det.behavior_scores):
                if k in inst.behaviors:
                    assert 0.7 <= s <= 0.95
                else:
                    assert 0.02 <= s <= 0.2


def test_pose_anchor_table():
    assert len(POSE_FRACTIONS) == KEYPOINT_COUNT
    for fx, fy in POSE_FRACTIONS:
        assert 0.0 <= fx <= 1.0 and 0.0 <= fy <= 1.0


def test_scene_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(agents=0)
    with pytest.raises(ValueError, match="max_size must leave room inside the image"):
        SceneConfig(height=120)  # MAX_SIZE leaves no room inside 640x120
    with pytest.raises(ValueError):
        SceneConfig(stride=0)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(fn_rate=1.0)
    with pytest.raises(ValueError):
        NoiseConfig(box_jitter=-1.0)
    with pytest.raises(ValueError):
        NoiseConfig(fp_rate=-0.5)
    NoiseConfig(fp_rate=2.5)  # Poisson mean above 1 is fine


def test_perturb_detections_identity_when_noise_is_zero():
    scene = generate(CFG, 29)
    out = perturb_detections(scene.detections, scene.annotation.image_size, NoiseConfig(), 1)
    assert out == scene.detections


def test_perturb_detections_drops_jitters_and_adds_clutter():
    scene = generate(CFG, 31)
    size = scene.annotation.image_size
    noise = NoiseConfig(box_jitter=2.0, kp_jitter=1.0, fn_rate=0.3, fp_rate=1.0)
    out = perturb_detections(scene.detections, size, noise, 2)
    n_in = sum(len(v) for v in scene.detections.values())
    n_out = sum(len(v) for v in out.values())
    assert n_out != n_in
    clutter = [d for dets in out.values() for d in dets if d.pose is None]
    assert clutter  # injected false positives carry no pose
    for d in clutter:
        assert 0.05 <= d.score <= 0.95
        assert all(0.02 <= s <= 0.2 for s in d.behavior_scores)
    for dets in out.values():
        for d in dets:
            assert 0.0 <= d.box.x1 < d.box.x2 <= size.width
            assert 0.0 <= d.box.y1 < d.box.y2 <= size.height
    # deterministic under the same seed
    again = perturb_detections(scene.detections, size, noise, 2)
    assert again == out


def test_perturb_detections_rejects_track_noise():
    scene = generate(CFG, 37)
    with pytest.raises(ValueError):
        perturb_detections(
            scene.detections, scene.annotation.image_size, NoiseConfig(id_swap_rate=0.1), 1
        )


def test_perturb_tracks_swaps_preserve_id_multiset():
    scene = generate(CFG, 41)
    size = scene.annotation.image_size
    noise = NoiseConfig(id_swap_rate=0.5)
    out = perturb_tracks(scene.gt_tracks, size, noise, 3)
    assert len(out) == len(scene.gt_tracks)
    by_frame_in: dict[int, list[int]] = {}
    by_frame_out: dict[int, list[int]] = {}
    for t in scene.gt_tracks:
        by_frame_in.setdefault(t.frame, []).append(t.track_id)
    for t in out:
        by_frame_out.setdefault(t.frame, []).append(t.track_id)
    swapped_frames = 0
    for frame, ids in by_frame_in.items():
        got = by_frame_out[frame]
        assert sorted(got) == sorted(ids)  # swaps permute ids, never duplicate them
        if got != sorted(got) or any(a != b for a, b in zip(sorted(ids), sorted(got))):
            swapped_frames += 1
    mixed = [t for t in out if t.track_id != scene.gt_tracks[0].track_id]
    assert mixed
    # some frame must actually carry a swapped assignment
    diff = sum(
        1
        for a, b in zip(sorted(scene.gt_tracks, key=lambda t: (t.frame, t.box.x1)),
                        sorted(out, key=lambda t: (t.frame, t.box.x1)))
        if a.track_id != b.track_id
    )
    assert diff > 0


def test_perturb_tracks_single_identity_gets_fresh_id():
    scene = generate(SceneConfig(agents=1, frames=30), 43)
    out = perturb_tracks(scene.gt_tracks, scene.annotation.image_size, NoiseConfig(id_swap_rate=0.9), 4)
    ids = {t.track_id for t in out}
    assert len(ids) > 1  # swaps with one live track mint fresh ids
    assert 1 in ids or min(ids) > 1
    assert max(ids) > 1
    # never two boxes with the same (frame, id)
    seen = set()
    for t in out:
        key = (t.frame, t.track_id)
        assert key not in seen
        seen.add(key)


def test_perturb_tracks_rejects_detection_noise():
    scene = generate(CFG, 47)
    with pytest.raises(ValueError):
        perturb_tracks(scene.gt_tracks, scene.annotation.image_size, NoiseConfig(fp_rate=0.5), 1)
    with pytest.raises(ValueError):
        perturb_tracks(scene.gt_tracks, scene.annotation.image_size, NoiseConfig(kp_jitter=0.5), 1)


def test_perturb_tracks_fn_only_drops_boxes():
    scene = generate(CFG, 53)
    noise = NoiseConfig(fn_rate=0.25)
    out = perturb_tracks(scene.gt_tracks, scene.annotation.image_size, noise, 5)
    assert len(out) < len(scene.gt_tracks)
    kept = {(t.frame, t.track_id): t for t in out}
    for key, t in kept.items():
        assert t.box in {g.box for g in scene.gt_tracks if (g.frame, g.track_id) == key}

import numpy as np
import pytest

from chimptrack import kernels, synth
from chimptrack.dataio import DetectionRecord
from chimptrack.geometry import BoxXYXY, iou, iou_matrix
from chimptrack.oracles import _brute_gated, scalar_track
from chimptrack.rng import Xoshiro256
from chimptrack.tracker import (
    Tracker,
    TrackerConfig,
    box_to_measurement,
    kalman_predict,
    kalman_update,
    measurement_to_box,
    run,
)


def det(x, y, w=40.0, h=50.0, score=0.9):
    return DetectionRecord(BoxXYXY(x, y, x + w, y + h), score)


def moving_frames(n=20, dx=3.0, start=(100.0, 100.0)):
    return {f: [det(start[0] + dx * f, start[1])] for f in range(n)}


def test_measurement_round_trip():
    box = BoxXYXY(10.0, 20.0, 50.0, 80.0)
    z = box_to_measurement(box)
    assert z[0] == pytest.approx(30.0)
    assert z[1] == pytest.approx(50.0)
    assert z[2] == pytest.approx(40.0 * 60.0)
    assert z[3] == pytest.approx(40.0 / 60.0)
    back = measurement_to_box(z)
    for a, b in zip(back, box):
        assert a == pytest.approx(b, abs=1e-9)
    with pytest.raises(ValueError):
        box_to_measurement(BoxXYXY(5.0, 5.0, 5.0, 9.0))


def test_kalman_predict_grows_and_update_shrinks_uncertainty():
    mean = np.zeros(7)
    mean[:4] = box_to_measurement(BoxXYXY(0.0, 0.0, 40.0, 40.0))
    cov = np.eye(7)
    mean2, cov2 = kalman_predict(mean, cov)
    assert np.trace(cov2) > np.trace(cov)
    mean3, cov3 = kalman_update(mean2, cov2, BoxXYXY(1.0, 1.0, 41.0, 41.0))
    assert np.trace(cov3) < np.trace(cov2)
    # updates stay PSD under repetition
    for _ in range(50):
        mean3, cov3 = kalman_predict(mean3, cov3)
        mean3, cov3 = kalman_update(mean3, cov3, BoxXYXY(1.0, 1.0, 41.0, 41.0))
    assert np.linalg.eigvalsh((cov3 + cov3.T) / 2).min() > -1e-9


def test_kalman_validates_covariance():
    with pytest.raises(ValueError):
        kalman_predict(np.zeros(7), np.eye(6))
    bad = -np.eye(7)
    with pytest.raises(ValueError):
        kalman_predict(np.zeros(7), bad)


def test_single_steady_target_keeps_one_id():
    tracks = run(moving_frames(20), TrackerConfig())
    ids = {t.track_id for t in tracks}
    assert ids == {1}
    assert {t.frame for t in tracks} == set(range(20))  # warm-up window emits too
    # track follows the motion: late boxes overlap the detections well
    frames = moving_frames(20)
    by_frame = {t.frame: t for t in tracks}
    for f in range(10, 20):
        assert iou(by_frame[f].box, frames[f][0].box) > 0.8


def test_two_crossing_free_targets_keep_distinct_ids():
    frames = {}
    for f in range(15):
        frames[f] = [det(50.0 + 4.0 * f, 50.0), det(400.0 - 4.0 * f, 300.0)]
    tracks = run(frames, TrackerConfig())
    ids = {t.track_id for t in tracks}
    assert len(ids) == 2
    # each frame emits both identities once past warm-up
    per_frame = {}
    for t in tracks:
        per_frame.setdefault(t.frame, set()).add(t.track_id)
    for f in range(3, 15):
        assert len(per_frame[f]) == 2


def test_track_ids_start_at_one_and_never_reuse():
    frames = {0: [det(100.0, 100.0)], 1: [det(103.0, 100.0)]}
    # long gap kills the first track (max_misses=2), then a new target appears
    frames.update({10: [det(100.0, 100.0)], 11: [det(103.0, 100.0)], 12: [det(106.0, 100.0)]})
    tracks = run(frames, TrackerConfig(max_misses=2, min_hits=1))
    first = {t.track_id for t in tracks if t.frame <= 1}
    second = {t.track_id for t in tracks if t.frame >= 10}
    assert first == {1}
    assert second == {2}


def test_min_hits_suppresses_single_frame_clutter():
    frames = moving_frames(12)
    frames[5] = frames[5] + [det(500.0, 400.0, score=0.95)]  # one-frame flash
    tracks = run(frames, TrackerConfig(min_hits=3))
    clutter = [t for t in tracks if t.box.x1 > 400.0]
    assert clutter == []  # never confirmed, never emitted after warm-up


def test_coasting_track_does_not_emit_but_survives_gap():
    frames = moving_frames(16)
    del frames[7], frames[8]
    tracks = run(frames, TrackerConfig(max_misses=5))
    frames_emitted = {t.frame for t in tracks}
    assert 7 not in frames_emitted and 8 not in frames_emitted
    assert {t.track_id for t in tracks} == {1}  # survived the gap with the same id
    assert 9 in frames_emitted


def test_max_misses_drops_tracks():
    frames = moving_frames(4)
    frames[12] = [det(100.0 + 3.0 * 12, 100.0)]
    frames[13] = [det(100.0 + 3.0 * 13, 100.0)]
    tracks = run(frames, TrackerConfig(max_misses=3, min_hits=1))
    assert {t.track_id for t in tracks if t.frame >= 12} == {2}


def test_two_stage_recovers_low_confidence_detections():
    frames = {}
    for f in range(14):
        score = 0.2 if 6 <= f <= 8 else 0.9  # confidence dips mid-sequence
        frames[f] = [det(100.0 + 3.0 * f, 100.0, score=score)]
    single = run(frames, TrackerConfig(min_hits=1, max_misses=1))
    double = run(frames, TrackerConfig(conf_split=0.5, min_hits=1, max_misses=1))
    # the 0.5 split keeps one identity; the default split (one stage) drops the
    # track in the dip (low-confidence detections still seed tracks in one stage)
    assert len({t.track_id for t in double}) == 1
    assert {t.frame for t in double} == set(range(14))
    assert len({t.track_id for t in single}) == 1


def test_two_stage_low_conf_cannot_seed_tracks():
    frames = {f: [det(100.0, 100.0, score=0.2)] for f in range(6)}
    tracks = run(frames, TrackerConfig(conf_split=0.5, min_hits=1))
    assert tracks == []


def test_run_accepts_pairs_and_rejects_disorder():
    frames = [(0, [det(10.0, 10.0)]), (2, [det(16.0, 10.0)])]
    tracks = run(frames, TrackerConfig(min_hits=1))
    assert {t.frame for t in tracks} == {0, 2}
    with pytest.raises(ValueError, match="strictly increasing"):
        run([(2, []), (1, [])])


def test_association_respects_iou_gate():
    tracker = Tracker(TrackerConfig(iou_gate=0.5, min_hits=1))
    tracker.step([det(100.0, 100.0)])
    # far detection: below gate, so the old track coasts and a new one seeds
    out = tracker.step([det(300.0, 300.0)])
    assert out == []  # tentative outside the warm-up window
    assert tracker.ids.tolist() == [1, 2]
    out = tracker.step([det(300.0, 300.0)])  # confirms track 2
    assert [t.track_id for t in out] == [2]


def test_association_takes_the_optimal_crossed_pairs():
    # Two overlapping tracks whose detections cross, plus a third track and a
    # third detection far from everything. The optimum matches the crossed
    # pairs (total 1 - IoU about 0.04) rather than the diagonal (about 0.7);
    # a sentinel cost for the gated-out third pair would let the relative
    # tie tolerance accept the diagonal.
    boxes = np.array([
        BoxXYXY(0.0, 0.0, 100.0, 100.0),
        BoxXYXY(20.0, 0.0, 120.0, 100.0),
        BoxXYXY(500.0, 500.0, 560.0, 560.0),
    ])
    dets = [det(21.0, 0.0, 100.0, 100.0), det(1.0, 0.0, 100.0, 100.0), det(800.0, 800.0)]
    ious = iou_matrix(boxes, np.array([d.box for d in dets]))
    gate = TrackerConfig().iou_gate
    assert gate <= ious[0, 0] < 0.7 and ious[0, 1] > 0.95
    assert ious[1, 0] > 0.95 and gate <= ious[1, 1] < 0.7
    assert (ious[2, :] < gate).all() and (ious[:, 2] < gate).all()

    pairs, unmatched_t, unmatched_d = Tracker()._associate(boxes, dets)
    assert pairs == [(0, 1), (1, 0)]
    assert unmatched_t == [2] and unmatched_d == [2]


def test_association_matches_brute_force_gated_matching():
    # Both stages of a two-stage tracker, checked call by call against the
    # exhaustive gated matching on random frames of up to 6 x 6 boxes.
    gate = 0.3
    config = TrackerConfig(iou_gate=gate, conf_split=0.5, min_hits=1)
    rng = Xoshiro256(2024)

    def random_dets(n):
        out = []
        for _ in range(n):
            x, y = rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)
            out.append(det(x, y, rng.uniform(30.0, 60.0), rng.uniform(30.0, 60.0), rng.uniform(0.0, 1.0)))
        return out

    calls = {1: 0, 2: 0}
    for _ in range(200):
        tracker = Tracker(config)
        seeds = random_dets(1 + rng.randint(6))
        tracker.step([DetectionRecord(d.box, 0.9) for d in seeds])
        associate = tracker._associate

        def checked(boxes, detections):
            got = associate(boxes, detections)
            ious = iou_matrix(boxes, np.array([d.box for d in detections]))
            want = _brute_gated(ious, ious >= gate)
            assert got[0] == want
            assert got[1] == [i for i in range(len(boxes)) if i not in {r for r, _ in want}]
            assert got[2] == [i for i in range(len(detections)) if i not in {c for _, c in want}]
            if len(boxes) and detections:
                calls[1 if detections[0].score >= config.conf_split else 2] += 1
            return got

        tracker._associate = checked
        tracker.step(random_dets(1 + rng.randint(6)))
    assert calls[1] > 100 and calls[2] > 20


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(iou_gate=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(min_hits=0)
    with pytest.raises(ValueError):
        TrackerConfig(max_misses=-1)


def test_emitted_boxes_sorted_by_id_within_frame():
    frames = {f: [det(50.0 + 3.0 * f, 50.0), det(300.0, 300.0)] for f in range(8)}
    tracks = run(frames, TrackerConfig(min_hits=1))
    per_frame: dict[int, list[int]] = {}
    for t in tracks:
        per_frame.setdefault(t.frame, []).append(t.track_id)
    for ids in per_frame.values():
        assert ids == sorted(ids)


def test_stacked_kalman_matches_one_track_at_a_time_exactly():
    rng = np.random.default_rng(12)
    means = np.zeros((6, 7))
    means[:, :4] = box_to_measurement(np.array([[x, y, x + 30.0, y + 40.0] for x, y in rng.uniform(0.0, 200.0, size=(6, 2))]))
    covs = np.stack([np.diag(rng.uniform(0.5, 20.0, size=7)) for _ in range(6)])
    boxes = np.array([[x, y, x + 31.0, y + 39.0] for x, y in rng.uniform(0.0, 200.0, size=(6, 2))])
    for _ in range(5):
        pm, pc = kalman_predict(means, covs)
        um, uc = kalman_update(pm, pc, boxes)
        for i in range(6):
            one_m, one_c = kalman_predict(means[i], covs[i])
            assert one_m.tobytes() == pm[i].tobytes() and one_c.tobytes() == pc[i].tobytes()
            one_m, one_c = kalman_update(one_m, one_c, BoxXYXY(*boxes[i]))
            assert one_m.tobytes() == um[i].tobytes() and one_c.tobytes() == uc[i].tobytes()
        means, covs = um, uc
    with pytest.raises(ValueError, match="positive semidefinite"):
        kalman_predict(means, np.concatenate([covs, -np.eye(7)[None]]))
    with pytest.raises(ValueError, match="degenerate"):
        kalman_update(means[:2], covs[:2], [[0.0, 0.0, 5.0, 5.0], [3.0, 3.0, 3.0, 9.0]])


def _box_bits(tracks):
    return [(t.frame, t.track_id, tuple(float(v).hex() for v in t.box), t.score) for t in tracks]


def _readme_noise_scene():
    scene = synth.generate(synth.SceneConfig(agents=6, frames=120), 9)
    noise = synth.NoiseConfig(fn_rate=0.1, fp_rate=0.5, box_jitter=2.0, kp_jitter=1.0)
    return synth.perturb_detections(scene.detections, scene.annotation.image_size, noise, 9)


def _forward_detections():
    dims = kernels.ModelDims()
    video = np.random.default_rng(9).random((60, 64, 64, 3))
    return kernels.emit_detections(kernels.toy_forward(video, kernels.init_params(dims, 0), dims), dims, 0.3)


@pytest.mark.parametrize("scene", ["readme-noise", "forward", "gaps"])
@pytest.mark.parametrize("config", [
    TrackerConfig(),
    TrackerConfig(conf_split=0.5),
    TrackerConfig(min_hits=1),
    TrackerConfig(max_misses=2, conf_split=0.6),
], ids=["default", "two-stage", "min-hits-1", "short-memory"])
def test_stacked_tracker_matches_scalar_oracle_exactly(scene, config):
    if scene == "forward":
        frames = _forward_detections()
    else:
        frames = _readme_noise_scene()
        if scene == "gaps":
            frames = {f: dets for f, dets in frames.items() if f % 9 not in (4, 5, 6)}
    got = run(frames, config)
    assert len(got) > 100
    assert _box_bits(got) == _box_bits(scalar_track(frames, config))

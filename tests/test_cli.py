import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from chimptrack import cli, dataio, kernels
from chimptrack.cli import main
from chimptrack.dataio import DetectionRecord
from chimptrack.geometry import BoxRel, BoxXYXY, ImageSize, rel_to_abs
from chimptrack.kernels import WINDOW_BLOCK, ModelDims, init_params, save_params
from chimptrack.oracles import window_forward
from chimptrack.rng import Xoshiro256
from chimptrack.tracker import TrackerConfig, run

SYNTH_ARGS = ["synth", "--seed", "3", "--agents", "3", "--frames", "30", "--stride", "10"]


def make_scene(tmp_path, extra=()):
    out = tmp_path / "scene"
    assert main(SYNTH_ARGS + ["--out", str(out), *extra]) == 0
    return out


def test_synth_writes_three_files_and_summary(tmp_path, capsys):
    out = make_scene(tmp_path)
    captured = capsys.readouterr().out
    assert "seed 3: 3 agents, 30 frames, 3 annotated frames" in captured
    assert captured.count("wrote ") == 3
    names = sorted(p.name for p in out.iterdir())
    assert names == ["annotations.json", "detections_clean.json", "detections_noisy.json"]
    ann = dataio.parse_annotations(out / "annotations.json")
    assert ann.frame_count == 30
    sid, _, clean = dataio.parse_detections(out / "detections_clean.json")
    assert sid == ann.sequence_id
    assert len(clean) == 30


def test_synth_output_is_byte_deterministic(tmp_path):
    a = make_scene(tmp_path / "a")
    b = make_scene(tmp_path / "b")
    for name in ("annotations.json", "detections_clean.json", "detections_noisy.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c" / "scene"
    assert main(["synth", "--seed", "4", "--agents", "3", "--frames", "30", "--out", str(c)]) == 0
    assert (a / "annotations.json").read_bytes() != (c / "annotations.json").read_bytes()


def test_synth_noise_flags_change_only_noisy_file(tmp_path):
    plain = make_scene(tmp_path / "plain")
    noisy = make_scene(tmp_path / "noisy", extra=["--fn-rate", "0.2", "--fp-rate", "0.5", "--box-jitter", "1.5"])
    assert (plain / "annotations.json").read_bytes() == (noisy / "annotations.json").read_bytes()
    assert (plain / "detections_clean.json").read_bytes() == (noisy / "detections_clean.json").read_bytes()
    assert (plain / "detections_noisy.json").read_bytes() != (noisy / "detections_noisy.json").read_bytes()


def test_synth_invalid_config_exits_2(tmp_path, capsys):
    code = main(["synth", "--agents", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("synth", "--box-jitter", "nan", "box_jitter must be finite, got nan"),
        ("synth", "--kp-jitter", "nan", "kp_jitter must be finite, got nan"),
        ("synth", "--box-jitter", "inf", "box_jitter must be finite, got inf"),
        ("synth", "--fp-rate", "inf", "fp_rate must be finite, got inf"),
        ("track", "--conf-split", "nan", "conf_split must lie in [0, 1], got nan"),
        ("forward", "--cls-thresh", "nan", "cls_thresh must lie in [0, 1], got nan"),
    ],
)
def test_non_finite_option_values_exit_2(tmp_path, capsys, command, option, value, message):
    scene = tmp_path / "scene"
    assert main(["synth", "--seed", "1", "--agents", "2", "--frames", "20", "--out", str(scene)]) == 0
    clip = tmp_path / "clip.npy"
    np.save(clip, np.random.default_rng(0).random((10, 64, 64, 3)))
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--seed", "1", "--agents", "2", "--frames", "20", "--out", str(out)],
        "track": ["track", str(scene / "detections_clean.json"), "--out", str(out)],
        "forward": ["forward", str(clip), "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv + [option, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_forward_checks_cls_thresh_before_the_forward_pass(tmp_path, capsys, monkeypatch):
    clip = tmp_path / "clip.npy"
    np.save(clip, np.zeros((8, 64, 64, 3)))

    def no_forward(*args):
        raise AssertionError("toy_forward ran")

    monkeypatch.setattr(kernels, "toy_forward", no_forward)
    assert main(["forward", str(clip), "--cls-thresh", "nan", "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: cls_thresh must lie in [0, 1], got nan\n"
    assert not (tmp_path / "out.json").exists()


def test_removed_settings_exit_2(tmp_path, capsys):
    scene = make_scene(tmp_path)
    with pytest.raises(SystemExit) as exc:  # --conf-split alone turns on the second stage
        main(["track", str(scene / "detections_noisy.json"), "--two-stage"])
    assert exc.value.code == 2
    clip = tmp_path / "clip.npy"
    np.save(clip, np.zeros((8, 64, 64, 3)))
    capsys.readouterr()
    # the behavior head is as wide as the ethogram, and the image size is the clip's
    for field in ("behavior_classes=5", "height=64", "width=64"):
        assert main(["forward", str(clip), "--dims", field, "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == f"error: unknown dims field {field.split('=')[0]!r}\n"
    assert not (tmp_path / "out.json").exists()


def test_track_conf_split_turns_on_the_second_stage(tmp_path, capsys):
    scene = make_scene(tmp_path, extra=["--fn-rate", "0.1", "--fp-rate", "0.5", "--box-jitter", "2.0"])
    noisy = scene / "detections_noisy.json"
    _, _, detections = dataio.parse_detections(noisy)
    for split in ("0", "0.5"):
        out = tmp_path / f"split-{split}.csv"
        assert main(["track", str(noisy), "--conf-split", split, "--out", str(out)]) == 0
        assert out.read_text() == dataio.write_mot_csv(run(detections, TrackerConfig(conf_split=float(split))))
    assert main(["track", str(noisy), "--out", str(tmp_path / "default.csv")]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "split-0.csv").read_bytes()
    assert (tmp_path / "split-0.5.csv").read_bytes() != (tmp_path / "split-0.csv").read_bytes()
    capsys.readouterr()


def test_track_produces_csv_with_default_path(tmp_path, capsys):
    out = make_scene(tmp_path)
    dets = out / "detections_clean.json"
    assert main(["track", str(dets), "--min-hits", "1"]) == 0
    csv_path = out / "detections_clean.csv"
    assert csv_path.exists()
    tracks = dataio.parse_mot_csv(csv_path.read_text())
    assert {t.frame for t in tracks} == set(range(30))
    assert len({t.track_id for t in tracks}) == 3
    assert str(csv_path) in capsys.readouterr().out


def test_track_empty_detections_gives_empty_csv(tmp_path):
    doc = dataio.write_detections("empty-seq", ImageSize(64, 64), {})
    src = tmp_path / "empty.json"
    src.write_text(dataio.dump_json(doc))
    dst = tmp_path / "tracks.csv"
    assert main(["track", str(src), "--out", str(dst)]) == 0
    assert dst.read_text() == ""


FINITE = "expected a finite number, got"


@pytest.mark.parametrize(
    "keys, value, where, message",
    [
        (("frames", 0, "detections", 0, "box", 0), math.nan, "$.frames[0].detections[0].box[0]", f"{FINITE} nan"),
        (("frames", 0, "detections", 0, "box", 2), math.inf, "$.frames[0].detections[0].box[2]", f"{FINITE} inf"),
        (("frames", 0, "detections", 0, "box", 3), 10**400, "$.frames[0].detections[0].box[3]", f"{FINITE} {10**400}"),
        (("frames", 0, "detections", 0, "pose", 3, 1), math.nan, "$.frames[0].detections[0].pose[3][1]", f"{FINITE} nan"),
        (("image_size", "width"), 0, "$.image_size", "image size must be positive, got 0x64"),
        (("image_size", "height"), -5, "$.image_size", "image size must be positive, got 64x-5"),
        (("frames", 0, "detections", 0, "score"), math.inf, "$.frames[0].detections[0].score", f"{FINITE} inf"),
        (
            ("frames", 0, "detections", 0, "behavior_scores", 5),
            math.nan,
            "$.frames[0].detections[0].behavior_scores[5]",
            f"{FINITE} nan",
        ),
        (("frames", 0, "detections", 0, "box", 1), True, "$.frames[0].detections[0].box[1]", "expected a number, got True"),
    ],
    ids=[
        "nan-box",
        "inf-box",
        "huge-int-box",
        "nan-pose-joint",
        "zero-width",
        "negative-height",
        "inf-score",
        "nan-behavior-score",
        "bool-box",
    ],
)
def test_track_rejects_malformed_detections_with_path(tmp_path, capsys, keys, value, where, message):
    pose = tuple((float(k), float(k)) for k in range(16))
    record = DetectionRecord(BoxXYXY(1.0, 2.0, 30.0, 40.0), 0.9, None, pose)
    doc = dataio.write_detections("s", ImageSize(64, 64), {0: [record]})
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    src = tmp_path / "dets.json"
    src.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    assert main(["track", str(src), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err == f"input error: {where}: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_evaluate_rejects_non_finite_annotation_pose_joint_with_path(tmp_path, capsys):
    out = make_scene(tmp_path)
    gt = out / "annotations.json"
    doc = json.loads(gt.read_text())
    doc["frames"][0]["instances"][0]["pose"][3][0] = math.nan
    gt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["evaluate", "--gt", str(gt), "--pred", str(out / "detections_noisy.json"), "--task", "pose"]) == 2
    assert capsys.readouterr().err == f"input error: $.frames[0].instances[0].pose[3][0]: {FINITE} nan\n"


@pytest.mark.parametrize("frame", [-1, -10])
def test_track_rejects_negative_frame_with_path(tmp_path, capsys, frame):
    doc = dataio.write_detections("s", ImageSize(64, 64), {0: [DetectionRecord(BoxXYXY(1.0, 2.0, 30.0, 40.0), 0.9)]})
    doc["frames"][0]["frame"] = frame
    src = tmp_path / "dets.json"
    src.write_text(json.dumps(doc))
    assert main(["track", str(src), "--out", str(tmp_path / "out.csv")]) == 2
    assert f"input error: $.frames[0].frame: frames must be non-negative, got {frame}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, lineno",
    [("1,1,nan,0.0,5.0,5.0,1.0,-1,-1,-1", 1), ("1,1,0.0,0.0,inf,5.0,1.0,-1,-1,-1", 1), ("2,1,0,0,5,5,-inf,-1,-1,-1", 2)],
    ids=["nan-x", "inf-width", "inf-conf"],
)
def test_evaluate_rejects_non_finite_mot_csv_with_line(tmp_path, capsys, row, lineno):
    out = make_scene(tmp_path)
    csv = tmp_path / "pred.csv"
    good = "1,1,0.0,0.0,5.0,5.0,1.0,-1,-1,-1"
    csv.write_text("\n".join([row] if lineno == 1 else [good, row]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--gt", str(out / "annotations.json"), "--pred", str(csv)]) == 2
    assert f"error: line {lineno}: non-finite value" in capsys.readouterr().err


def evaluate_pair(tmp_path):
    out = make_scene(tmp_path)
    dets = out / "detections_clean.json"
    csv = out / "pred.csv"
    assert main(["track", str(dets), "--min-hits", "1", "--out", str(csv)]) == 0
    return out / "annotations.json", csv


def test_evaluate_tracking_table_and_sidecar(tmp_path, capsys):
    gt, pred = evaluate_pair(tmp_path)
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred)]) == 0
    captured = capsys.readouterr().out
    for col in ("HOTA", "MOTA", "MOTP", "IDF1", "mAP", "nFP", "nFN", "nIDs"):
        assert col in captured
    assert "metrics written to" in captured
    sidecar = pred.with_name(pred.name + ".metrics.json")
    doc = json.loads(sidecar.read_text())
    assert doc["task"] == "tracking"
    assert set(doc["sequences"]) == {"synth-3"}
    assert doc["aggregate"]["tracking"]["mota"] == 100.0


def test_evaluate_json_format_prints_sidecar(tmp_path, capsys):
    gt, pred = evaluate_pair(tmp_path)
    capsys.readouterr()
    assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["task"] == "tracking"
    assert "aggregate" in doc and "sequences" in doc


def test_evaluate_missing_sequence_exits_3(tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for seed in (1, 2):
        scene = tmp_path / f"s{seed}"
        assert main(["synth", "--seed", str(seed), "--agents", "2", "--frames", "20", "--out", str(scene)]) == 0
        (gt_dir / f"synth-{seed}.json").write_bytes((scene / "annotations.json").read_bytes())
        if seed == 1:
            csv = pred_dir / f"synth-{seed}.csv"
            assert main(["track", str(scene / "detections_clean.json"), "--min-hits", "1", "--out", str(csv)]) == 0
    code = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir)])
    assert code == 3
    assert "synth-2" in capsys.readouterr().err


def test_evaluate_extra_prediction_exits_3(tmp_path, capsys):
    gt, pred = evaluate_pair(tmp_path)
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    (pred_dir / "synth-3.csv").write_bytes(pred.read_bytes())
    (pred_dir / "stray.csv").write_bytes(pred.read_bytes())
    code = main(["evaluate", "--gt", str(gt), "--pred", str(pred_dir)])
    assert code == 3
    assert "stray" in capsys.readouterr().err


def test_evaluate_missing_file_exits_2(tmp_path, capsys):
    gt, _ = evaluate_pair(tmp_path)
    code = main(["evaluate", "--gt", str(gt), "--pred", str(tmp_path / "nope.csv")])
    assert code == 2
    assert capsys.readouterr().err


def test_evaluate_gt_directory_without_annotations_exits_2_and_names_it(tmp_path, capsys):
    gt, pred = evaluate_pair(tmp_path)
    empty, pred_dir = tmp_path / "empty", tmp_path / "preds"
    empty.mkdir()
    pred_dir.mkdir()
    (empty / "notes.txt").write_text("no annotations here\n")
    for task, preds in (("tracking", pred_dir), ("tracking", pred), ("detection", gt.with_name("detections_clean.json"))):
        out = tmp_path / "empty.metrics.json"
        capsys.readouterr()
        assert main(["evaluate", "--task", task, "--gt", str(empty), "--pred", str(preds), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: no .json annotation file in {empty}\n"
        assert not out.exists()


def test_evaluate_mixed_image_sizes_exits_2(tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    for seed, width in ((1, "640"), (2, "320")):
        scene = tmp_path / f"s{seed}"
        argv = ["synth", "--seed", str(seed), "--agents", "2", "--frames", "20", "--width", width, "--out", str(scene)]
        assert main(argv) == 0
        (gt_dir / f"synth-{seed}.json").write_bytes((scene / "annotations.json").read_bytes())
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    for seed in (1, 2):
        (pred_dir / f"synth-{seed}.json").write_bytes((tmp_path / f"s{seed}" / "detections_clean.json").read_bytes())
    capsys.readouterr()
    assert main(["evaluate", "--task", "detection", "--gt", str(gt_dir), "--pred", str(pred_dir)]) == 2
    assert capsys.readouterr().err == (
        "input error: $.image_size: sequences synth-1 (640x480) and synth-2 (320x480) differ; "
        "the aggregate needs one image size\n"
    )
    assert not (tmp_path / "pred.metrics.json").exists()


def two_scenes_with_one_id(tmp_path):
    """Scenes a (2 x 20) and b (3 x 20) of synth --seed 1, both with sequence id synth-1."""
    for name, agents in (("a", "2"), ("b", "3")):
        assert main(["synth", "--seed", "1", "--agents", agents, "--frames", "20", "--out", str(tmp_path / name)]) == 0
    return tmp_path / "a", tmp_path / "b"


def test_evaluate_gt_directory_with_a_duplicated_sequence_id_exits_3(tmp_path, capsys):
    a, b = two_scenes_with_one_id(tmp_path)
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    (gt_dir / "a.json").write_bytes((a / "annotations.json").read_bytes())
    (gt_dir / "b.json").write_bytes((b / "annotations.json").read_bytes())
    pred = a / "detections_clean.json"
    capsys.readouterr()
    assert main(["evaluate", "--task", "detection", "--gt", str(gt_dir), "--pred", str(pred)]) == 3
    err = capsys.readouterr().err
    assert err == f"sequence synth-1 appears in two files: {gt_dir / 'a.json'} and {gt_dir / 'b.json'}\n"
    assert not (a / "detections_clean.json.metrics.json").exists()


def test_evaluate_pred_directory_with_a_duplicated_sequence_id_exits_3(tmp_path, capsys):
    a, b = two_scenes_with_one_id(tmp_path)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    (pred_dir / "a.json").write_bytes((a / "detections_clean.json").read_bytes())
    (pred_dir / "b.json").write_bytes((b / "detections_noisy.json").read_bytes())
    capsys.readouterr()
    assert main(["evaluate", "--task", "detection", "--gt", str(a / "annotations.json"), "--pred", str(pred_dir)]) == 3
    err = capsys.readouterr().err
    assert err == f"sequence synth-1 appears in two files: {pred_dir / 'a.json'} and {pred_dir / 'b.json'}\n"
    assert not (tmp_path / "pred.metrics.json").exists()


def evaluate_detections_declaring(tmp_path, task, width, height):
    """evaluate's argv and sidecar path for a 2 x 20 scene (640 x 480) whose noisy detections declare width x height."""
    scene = tmp_path / "scene"
    assert main(["synth", "--seed", "1", "--agents", "2", "--frames", "20", "--out", str(scene)]) == 0
    dets = scene / "detections_noisy.json"
    doc = json.loads(dets.read_text())
    doc["image_size"] = {"width": width, "height": height}
    dets.write_text(json.dumps(doc))
    sidecar = tmp_path / "out.metrics.json"
    argv = ["evaluate", "--task", task, "--gt", str(scene / "annotations.json"), "--pred", str(dets), "--out", str(sidecar)]
    return argv, sidecar


@pytest.mark.parametrize("task", ["detection", "pose", "behavior"])
def test_evaluate_rejects_detections_of_another_image_size(tmp_path, capsys, task):
    argv, sidecar = evaluate_detections_declaring(tmp_path, task, 64, 64)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "input error: $.image_size: sequence synth-1: detections are 64x64, annotations are 640x480\n"
    )
    assert not sidecar.exists()


def test_evaluate_accepts_detections_of_the_annotations_image_size(tmp_path, capsys):
    argv, sidecar = evaluate_detections_declaring(tmp_path, "detection", 640, 480)
    assert main(argv) == 0
    assert json.loads(sidecar.read_text())["task"] == "detection"
    capsys.readouterr()


def test_evaluate_detection_behavior_and_pose_tasks(tmp_path, capsys):
    out = make_scene(tmp_path)
    gt = out / "annotations.json"
    dets = out / "detections_clean.json"
    for task, key in (("detection", "detection"), ("behavior", "behavior"), ("pose", "pose")):
        sidecar = tmp_path / f"{task}.json"
        assert main(["evaluate", "--task", task, "--gt", str(gt), "--pred", str(dets), "--out", str(sidecar)]) == 0
        doc = json.loads(sidecar.read_text())
        assert doc["task"] == task
        agg = doc["aggregate"]
        assert key in agg and "tracking" not in agg
    capsys.readouterr()


README_NOISE = ["--fn-rate", "0.1", "--fp-rate", "0.5", "--box-jitter", "2.0", "--kp-jitter", "1.0"]


def test_evaluate_sidecars_do_not_depend_on_input_order(tmp_path, capsys):
    # the noisy detections shuffled within each frame, and the tracked CSV's
    # rows shuffled, score byte for byte as before: the AP matcher steps each
    # frame in rank order. The scored scores hold no tie, so no ranking falls
    # back to input order.
    scene = tmp_path / "scene"
    assert main(["synth", "--seed", "9", "--agents", "8", "--frames", "250", *README_NOISE, "--out", str(scene)]) == 0
    gt, noisy, csv = scene / "annotations.json", scene / "detections_noisy.json", scene / "pred.csv"
    assert main(["track", str(noisy), "--out", str(csv)]) == 0
    annotated = {f["frame"] for f in json.loads(gt.read_text())["frames"]}
    doc = json.loads(noisy.read_text())
    scored = [d for f in doc["frames"] if f["frame"] in annotated for d in f["detections"]]
    rows = csv.read_text().splitlines(keepends=True)
    track_scores = [r.split(",")[6] for r in rows if int(r.split(",")[0]) - 1 in annotated]
    for column in [[d["score"] for d in scored], *zip(*(d["behavior_scores"] for d in scored)), track_scores]:
        assert len(set(column)) == len(column)

    rng = Xoshiro256(0)
    for frame in doc["frames"]:
        rng.shuffle(frame["detections"])
    rng.shuffle(rows)
    moved_dets, moved_csv = tmp_path / "moved.json", tmp_path / "moved.csv"
    moved_dets.write_text(dataio.dump_json(doc))
    moved_csv.write_text("".join(rows))
    for task, pred, moved in (
        ("tracking", csv, moved_csv),
        ("detection", noisy, moved_dets),
        ("pose", noisy, moved_dets),
        ("behavior", noisy, moved_dets),
    ):
        sidecars = [tmp_path / f"{task}-{i}.metrics.json" for i in range(2)]
        for path, out in zip((pred, moved), sidecars):
            assert main(["evaluate", "--task", task, "--gt", str(gt), "--pred", str(path), "--out", str(out)]) == 0
        assert sidecars[0].read_bytes() == sidecars[1].read_bytes(), task
    capsys.readouterr()


def scene_dirs(tmp_path, seeds=(1, 2), strip_pose=(), widths=None):
    """gt/ and pred/ for the seeds, pred/ holding each track CSV and noisy detections.

    strip_pose drops those seeds' gt poses; widths maps a seed to its image width.
    """
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for seed in seeds:
        scene = tmp_path / f"s{seed}"
        argv = ["synth", "--seed", str(seed), "--agents", "2", "--frames", "20", "--fp-rate", "0.5", "--out", str(scene)]
        assert main(argv + ["--width", str((widths or {}).get(seed, 640))]) == 0
        doc = json.loads((scene / "annotations.json").read_text())
        if seed in strip_pose:
            for frame in doc["frames"]:
                for inst in frame["instances"]:
                    del inst["pose"]
        (gt_dir / f"synth-{seed}.json").write_text(json.dumps(doc))
        (pred_dir / f"synth-{seed}.json").write_bytes((scene / "detections_noisy.json").read_bytes())
        assert main(["track", str(scene / "detections_noisy.json"), "--out", str(pred_dir / f"synth-{seed}.csv")]) == 0
    return gt_dir, pred_dir


def evaluate_dirs(gt_dir, pred_dir, out, *extra):
    return ["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out), *extra]


@pytest.fixture
def bounded():
    """Ends the run with every thread's traceback if the test waits on a child for a minute."""
    import faulthandler

    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    yield
    faulthandler.cancel_dump_traceback_later()


def test_evaluate_workers_do_not_change_results(tmp_path, capsys, bounded):
    gt_dir, pred_dir = scene_dirs(tmp_path, seeds=(1, 2, 3))
    for task in ("tracking", "detection", "pose", "behavior"):
        sidecars = [tmp_path / f"{task}-{n}.json" for n in (1, 2, 4)]
        for n, out in zip((1, 2, 4), sidecars):
            assert main(evaluate_dirs(gt_dir, pred_dir, out, "--task", task, "--workers", str(n))) == 0
        assert sidecars[0].read_bytes() == sidecars[1].read_bytes() == sidecars[2].read_bytes(), task
        assert set(json.loads(sidecars[0].read_text())["sequences"]) == {"synth-1", "synth-2", "synth-3"}
    assert main(evaluate_dirs(gt_dir, pred_dir, tmp_path / "none.json", "--workers", "0")) == 2
    assert not (tmp_path / "none.json").exists()
    capsys.readouterr()


def bad_row(csv):
    """Append a degenerate box on 0-based frame 1 (not annotated at stride 10) to csv; returns its line number."""
    with csv.open("a") as f:
        f.write("2,1,0,0,0,5,1,-1,-1,-1\n")
    return len(csv.read_text().splitlines())


def break_second_annotation(gt_dir, pred_dir):
    doc = json.loads((gt_dir / "synth-2.json").read_text())
    doc["frames"][0]["instances"][0]["box"] = [0, 0, -5, 5]
    (gt_dir / "synth-2.json").write_text(json.dumps(doc))
    return "tracking", 2, "input error: $.frames[0].instances[0].box"


def break_third_csv(gt_dir, pred_dir):
    return "tracking", 2, f"error: line {bad_row(pred_dir / 'synth-3.csv')}: degenerate box"


def stray_csv_and_a_missing_sequence(gt_dir, pred_dir):
    # stray.csv sorts before every synth-*.csv, so its parse error comes before
    # synth-3.csv's and before the missing pairing
    (pred_dir / "synth-2.csv").unlink()
    (pred_dir / "stray.csv").write_text("1,1,nan,0,5,5,1,-1,-1,-1\n")
    bad_row(pred_dir / "synth-3.csv")
    return "tracking", 2, "error: line 1: non-finite value"


def duplicate_sequence_id(gt_dir, pred_dir):
    (gt_dir / "synth-3.json").write_bytes((gt_dir / "synth-1.json").read_bytes())
    return "tracking", 3, f"sequence synth-1 appears in two files: {gt_dir / 'synth-1.json'} and {gt_dir / 'synth-3.json'}"


def mixed_image_sizes(gt_dir, pred_dir):
    return "detection", 2, "input error: $.image_size: sequences synth-1 (640x480) and synth-2 (320x480) differ"


@pytest.mark.parametrize(
    "breakage",
    [break_second_annotation, break_third_csv, stray_csv_and_a_missing_sequence, duplicate_sequence_id, mixed_image_sizes],
)
def test_evaluate_errors_do_not_depend_on_workers(tmp_path, capsys, bounded, breakage):
    widths = {2: 320} if breakage is mixed_image_sizes else None
    gt_dir, pred_dir = scene_dirs(tmp_path, seeds=(1, 2, 3), widths=widths)
    task, code, message = breakage(gt_dir, pred_dir)
    errors = []
    for n in (1, 2, 3):
        out = tmp_path / f"m{n}.json"
        capsys.readouterr()
        assert main(evaluate_dirs(gt_dir, pred_dir, out, "--task", task, "--workers", str(n))) == code
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0].startswith(message), errors[0]
    assert errors[0] == errors[1] == errors[2]


def counting_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evaluate_forks_at_most_one_child_per_sequence(tmp_path, monkeypatch, capsys, bounded):
    gt_dir, pred_dir = scene_dirs(tmp_path)
    forks = counting_forks(monkeypatch)
    assert main(evaluate_dirs(gt_dir, pred_dir, tmp_path / "m.json", "--workers", "1000")) == 0
    assert len(forks) == 1
    assert_no_child_left()
    capsys.readouterr()


def test_evaluate_reaps_every_child(tmp_path, monkeypatch, capsys, bounded):
    gt_dir, pred_dir = scene_dirs(tmp_path, seeds=(1, 2, 3))
    forks = counting_forks(monkeypatch)
    assert main(evaluate_dirs(gt_dir, pred_dir, tmp_path / "good.json", "--workers", "4")) == 0
    assert_no_child_left()
    bad_row(pred_dir / "synth-2.csv")
    assert main(evaluate_dirs(gt_dir, pred_dir, tmp_path / "bad.json", "--workers", "4")) == 2
    assert_no_child_left()
    assert len(forks) == 4 and not (tmp_path / "bad.json").exists()
    capsys.readouterr()


def test_evaluate_fails_when_a_child_dies_without_a_result(tmp_path, monkeypatch, capsys, bounded):
    from chimptrack import report

    gt_dir, pred_dir = scene_dirs(tmp_path, seeds=(1, 2, 3))
    parent, score = os.getpid(), report.evaluate_sequence

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return score(*args)

    monkeypatch.setattr(report, "evaluate_sequence", dies_in_a_child)
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert main(evaluate_dirs(gt_dir, pred_dir, out, "--workers", "2")) != 0
    err = capsys.readouterr().err
    # the child's share is the second of the three files, dealt round-robin
    assert str(gt_dir / "synth-2.json") in err and "synth-1.json" not in err and "synth-3.json" not in err, err
    assert not out.exists()
    assert_no_child_left()


def test_evaluate_prints_the_sidecar_once_whatever_the_workers(tmp_path):
    # "buffered" sits unflushed in the piped stdout when evaluate forks; a child
    # that flushed it on exit would print it twice
    gt_dir, pred_dir = scene_dirs(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    outputs = []
    for n in (1, 2):
        out = tmp_path / f"m{n}.json"
        argv = evaluate_dirs(gt_dir, pred_dir, out, "--format", "json", "--workers", str(n))
        script = f"import sys\nfrom chimptrack.cli import main\nprint('buffered')\nsys.exit(main({argv!r}))\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "buffered\n" + out.read_text()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "error",
    [dataio.AnnotationError("$.frames[0]", "bad"), cli.PairingError("missing predictions for sequences: synth-2")],
    ids=["annotation", "pairing"],
)
def test_evaluate_errors_survive_pickling(error):
    # evaluate's children send their errors back pickled
    import pickle

    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert getattr(back, "path", None) == getattr(error, "path", None)


def test_evaluate_pose_without_pose_annotations_exits_0_in_both_formats(tmp_path, capsys):
    # a sequence without pose ground truth prints a row of "-", as its sidecar entry is "pose": null
    gt_dir, pred_dir = scene_dirs(tmp_path, strip_pose=(1,))
    for gt, pred in ((gt_dir / "synth-1.json", pred_dir / "synth-1.json"), (gt_dir, pred_dir)):
        sidecars = {fmt: tmp_path / f"{gt.stem}-{fmt}.json" for fmt in ("json", "table")}
        printed = {}
        for fmt, sidecar in sidecars.items():
            capsys.readouterr()
            argv = ["evaluate", "--task", "pose", "--gt", str(gt), "--pred", str(pred), "--format", fmt]
            assert main(argv + ["--out", str(sidecar)]) == 0
            printed[fmt] = capsys.readouterr().out
        assert sidecars["table"].read_bytes() == sidecars["json"].read_bytes()
        assert printed["json"] == sidecars["json"].read_text()
        doc = json.loads(printed["json"])
        assert doc["sequences"]["synth-1"]["pose"] is None
        rows = [line.split() for line in printed["table"].split("\n")[1:-2]]
        assert rows[0] == ["synth-1"] + ["-"] * 8
        if gt == gt_dir:
            assert doc["sequences"]["synth-2"]["pose"]["pck05"] is not None
            assert [row[0] for row in rows] == ["synth-1", "synth-2", "aggregate"]
            assert rows[1][1] != "-" and rows[2][1] != "-"
        else:
            assert len(rows) == 1 and doc["aggregate"]["pose"] is None


# each table column and the sidecar value it prints, as "section.key"
TABLE_CELLS = {
    "tracking": (
        "tracking.hota", "tracking.mota", "tracking.motp", "tracking.idf1",
        "detection.ap", "tracking.n_fp", "tracking.n_fn", "tracking.n_ids",
    ),
    "detection": tuple(f"detection.{k}" for k in ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar")),
    "behavior": ("behavior.map", "behavior.map_locomotion", "behavior.map_object", "behavior.map_social"),
    "pose": tuple(f"pose.{k}" for k in ("pck05", "pck10", "ap", "ap50", "ap75", "ap_medium", "ap_large", "ar")),
}


def test_evaluate_tables_print_the_sidecar_values(tmp_path, capsys):
    gt_dir, pred_dir = scene_dirs(tmp_path)
    single = (gt_dir / "synth-1.json", pred_dir / "synth-1.csv", pred_dir / "synth-1.json")
    for gt, tracks, dets in (single, (gt_dir, pred_dir, pred_dir)):
        for task, cells in TABLE_CELLS.items():
            sidecar = tmp_path / f"{task}-{gt.stem}.json"
            capsys.readouterr()
            pred = tracks if task == "tracking" else dets
            argv = ["evaluate", "--task", task, "--gt", str(gt), "--pred", str(pred), "--out", str(sidecar)]
            assert main(argv) == 0
            lines = capsys.readouterr().out.split("\n")
            assert lines[-2] == f"metrics written to {sidecar}" and lines[-1] == ""
            doc = json.loads(sidecar.read_text())
            entries = list(doc["sequences"].values())
            entries += [doc["aggregate"]] if len(entries) > 1 else []
            assert len(lines[0].split()) == len(cells) + 1
            assert len(lines) - 3 == len(entries)
            for line, entry in zip(lines[1:], entries):
                row = line.split()
                assert row[0] == entry["sequence_id"]
                for cell, where in zip(row[1:], cells, strict=True):
                    section, key = where.split(".")
                    value = entry[section][key]
                    assert cell == ("-" if value is None else f"{value:.1f}"), (task, entry["sequence_id"], where)


def test_forward_window_layout_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(5)
    video = rng.normal(size=(12, 64, 64, 3))
    clip = tmp_path / "clip.npy"
    np.save(clip, video)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["forward", str(clip), "--cls-thresh", "0", "--seed", "1"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    sid, size, frames = dataio.parse_detections(out_a)
    assert sid == "forward"
    assert size == ImageSize(64, 64)
    assert sorted(frames) == [7, 8, 9, 10, 11]  # one window per start, scoring its last frame
    assert all(len(v) == 10 for v in frames.values())
    assert "50 detections over 5 frames" in capsys.readouterr().out


def test_forward_respects_dims_and_params(tmp_path, capsys):
    rng = np.random.default_rng(6)
    video = rng.normal(size=(8, 64, 64, 3))
    clip = tmp_path / "clip.npy"
    np.save(clip, video)
    dims = ModelDims(queries=5)
    params_path = tmp_path / "params.json"
    save_params(init_params(dims, seed=2), params_path)
    out = tmp_path / "out.json"
    code = main([
        "forward", str(clip), "--dims", "queries=5", "--params", str(params_path),
        "--cls-thresh", "0", "--out", str(out),
    ])
    assert code == 0
    _, _, frames = dataio.parse_detections(out)
    assert sorted(frames) == [7]
    assert len(frames[7]) == 5
    capsys.readouterr()


def test_forward_errors_exit_2(tmp_path, capsys):
    short = tmp_path / "short.npy"
    np.save(short, np.zeros((4, 64, 64, 3)))
    assert main(["forward", str(short)]) == 2
    wrong = tmp_path / "wrong.npy"
    np.save(wrong, np.zeros((8, 48, 48, 3)))  # sides must be multiples of 32
    assert main(["forward", str(wrong)]) == 2
    for bad_shape in ((8, 64, 64), (8, 64, 64, 1)):
        np.save(wrong, np.zeros(bad_shape))
        assert main(["forward", str(wrong)]) == 2
    small = tmp_path / "small.npy"
    np.save(small, np.zeros((8, 32, 32, 3)))
    assert main(["forward", str(small), "--out", str(tmp_path / "small.json")]) == 0
    assert dataio.parse_detections(tmp_path / "small.json")[1] == ImageSize(32, 32)
    good = tmp_path / "good.npy"
    np.save(good, np.zeros((8, 64, 64, 3)))
    assert main(["forward", str(good), "--dims", "bogus=3"]) == 2
    assert main(["forward", str(good), "--dims", "stages=4"]) == 2  # the four stages are fixed, not a field
    assert main(["forward", str(tmp_path / "missing.npy")]) == 2
    with pytest.raises(SystemExit) as exc:  # no behavior threshold: the file holds every score
        main(["forward", str(good), "--beh-thresh", "0.5"])
    assert exc.value.code == 2
    capsys.readouterr()
    # one NaN or Inf in the last frame of a clip longer than one block of windows
    for bad in (np.nan, np.inf):
        video = np.random.default_rng(1).random((WINDOW_BLOCK + 12, 64, 64, 3))
        video[-1, 63, 63, 0] = bad
        clip = tmp_path / "bad.npy"
        np.save(clip, video)
        assert main(["forward", str(clip), "--out", str(tmp_path / "bad.json")]) == 2
        assert capsys.readouterr().err == "error: video contains non-finite values\n"
        assert not (tmp_path / "bad.json").exists()


def test_forward_takes_the_image_size_from_the_clip(tmp_path, capsys):
    # a 32 x 96 clip runs at ModelDims(height=32, width=96), and track reads its output
    video = np.random.default_rng(3).random((10, 32, 96, 3))
    clip, out, csv = tmp_path / "clip.npy", tmp_path / "clip.json", tmp_path / "clip.csv"
    np.save(clip, video)
    assert main(["forward", str(clip), "--cls-thresh", "0", "--out", str(out)]) == 0
    dims = ModelDims(height=32, width=96)
    want = kernels.emit_detections(window_forward(video, init_params(dims, 0), dims), dims, 0.0)
    assert out.read_text() == dataio.dump_json(dataio.write_detections("forward", ImageSize(96, 32), want))
    assert sorted(want) == [7, 8, 9] and all(len(v) == dims.queries for v in want.values())
    assert main(["track", str(out), "--out", str(csv)]) == 0
    assert len(dataio.parse_mot_csv(csv.read_text())) > 0
    capsys.readouterr()


def test_forward_detections_match_the_window_oracle_byte_for_byte(tmp_path, capsys):
    # the CLI's blocked, pair-sharing forward pass against one window at a time
    dims = ModelDims()
    video = np.random.default_rng(8).random((WINDOW_BLOCK + dims.frames, 64, 64, 3))  # WINDOW_BLOCK + 1 windows
    clip, out = tmp_path / "clip.npy", tmp_path / "clip.json"
    np.save(clip, video)
    assert main(["forward", str(clip), "--seed", "4", "--cls-thresh", "0.55", "--out", str(out)]) == 0
    capsys.readouterr()
    size = ImageSize(dims.width, dims.height)
    want = window_forward(video, init_params(dims, 4), dims).outputs
    detections = {}
    for start, (boxes, conf, behavior) in enumerate(zip(want.boxes, want.class_conf, want.behavior_probs)):
        detections[start + dims.frames - 1] = [
            DetectionRecord(rel_to_abs(BoxRel(*map(float, boxes[q])), size), float(conf[q]), behavior[q])
            for q in range(dims.queries) if conf[q] >= 0.55
        ]
    assert 0 < sum(map(len, detections.values())) < dims.queries * len(detections)
    assert out.read_text() == dataio.dump_json(dataio.write_detections("forward", size, detections))


def test_selfcheck_passes_clean(capsys):
    assert main(["selfcheck"]) == 0
    captured = capsys.readouterr().out
    assert "all checks passed" in captured
    assert "\x1b[" not in captured  # no ANSI when stdout is not a tty
    for name in (
        "hungarian-brute-force",
        "gradient-finite-difference",
        "metric-oracles",
        "shape-contract",
        "clean-scene-fixed-point",
    ):
        assert name in captured


def test_selfcheck_json_format(capsys):
    assert main(["selfcheck", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert len(doc["checks"]) == 5
    assert all(c["ok"] for c in doc["checks"])


def test_selfcheck_bad_params_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}\n')
    assert main(["selfcheck", "--params", str(bad)]) == 1
    captured = capsys.readouterr().out
    assert "params-file" in captured
    assert "failed:" in captured


def test_selfcheck_color_toggle(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}\n')
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("CHIMPTRACK_NO_COLOR", raising=False)
    main(["selfcheck", "--params", str(bad)])
    assert "\x1b[31mFAIL\x1b[0m" in capsys.readouterr().out
    monkeypatch.setenv("CHIMPTRACK_NO_COLOR", "1")
    main(["selfcheck", "--params", str(bad)])
    assert "\x1b[" not in capsys.readouterr().out


def test_unknown_command_raises_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs_as_subprocess(tmp_path):
    out = tmp_path / "scene"
    proc = subprocess.run(
        [sys.executable, "-m", "chimptrack.cli", "synth", "--seed", "1", "--agents", "2",
         "--frames", "20", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "annotations.json").exists()


def test_no_command_imports_scipy(tmp_path):
    # every command runs on NumPy alone; SciPy is only a test dependency
    scene, pred, clip = tmp_path / "scene", tmp_path / "pred.csv", tmp_path / "clip.npy"
    np.save(clip, np.random.default_rng(5).normal(size=(8, 64, 64, 3)))
    ann, noisy = str(scene / "annotations.json"), str(scene / "detections_noisy.json")
    commands = [
        SYNTH_ARGS + ["--out", str(scene)],
        ["track", noisy, "--out", str(pred)],
        ["evaluate", "--gt", ann, "--pred", str(pred), "--out", str(tmp_path / "track.json")],
        ["evaluate", "--task", "pose", "--gt", ann, "--pred", noisy, "--out", str(tmp_path / "pose.json")],
        ["forward", str(clip), "--out", str(tmp_path / "clip.json")],
        ["selfcheck"],
    ]
    script = (
        "import sys\n"
        "from chimptrack.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_cli_loads_no_numerical_module():
    # each command imports what it runs; the CLI module itself needs only the stdlib, dataio, geometry and rng
    heavy = ["numpy"] + [
        f"chimptrack.{m}" for m in ("tracker", "assign", "metrics", "report", "kernels", "loss", "oracles", "synth")
    ]
    script = f"import sys, chimptrack.cli\nprint([m for m in {heavy!r} if m in sys.modules])\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_synth_runs_without_numpy(tmp_path):
    # the README's noise plus keypoint jitter; `import numpy` raises ImportError in the child
    noise = ["--fn-rate", "0.1", "--fp-rate", "0.5", "--box-jitter", "2.0", "--kp-jitter", "1.0"]
    plain = make_scene(tmp_path / "plain", extra=noise)
    bare = tmp_path / "bare"
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from chimptrack.cli import main\n"
        f"sys.exit(main({SYNTH_ARGS + noise + ['--out', str(bare)]!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("annotations.json", "detections_clean.json", "detections_noisy.json"):
        assert (bare / name).read_bytes() == (plain / name).read_bytes(), name


def test_bench_wrap_points_are_looked_up_per_call(tmp_path, monkeypatch):
    # perfbench/traced.py times the tracker and the JSON writer by replacing these two cli globals
    calls = {"run_tracker": 0, "dump_json": 0}

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    scene = make_scene(tmp_path)
    assert main(["track", str(scene / "detections_noisy.json"), "--out", str(tmp_path / "pred.csv")]) == 0
    assert calls == {"run_tracker": 1, "dump_json": 3}


def load_traced():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_wrap_points_resolve_to_callables():
    # perfbench/traced.py wraps these names by attribute; deleting one breaks the traced bench
    import importlib

    traced = load_traced()
    for module, dotted, *_ in traced.SPANNED + traced.COUNTED:
        owner = importlib.import_module(f"chimptrack.{module}")
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{module}.{dotted}"
        assert callable(owner), f"{module}.{dotted}"


def test_evaluate_calls_the_report_wrap_points_through_the_module(tmp_path, monkeypatch, capsys):
    # the bench's report.render span wraps report_to_json and render_<task>_table on the report module
    from chimptrack import report

    calls = {"report_to_json": 0, "render_tracking_table": 0}

    def counting(name):
        original = getattr(report, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    gt_dir, pred_dir = scene_dirs(tmp_path)
    for name in calls:
        monkeypatch.setattr(report, name, counting(name))
    assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(tmp_path / "m.json")]) == 0
    assert calls == {"report_to_json": 3, "render_tracking_table": 1}

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from chimptrack import dataio
from chimptrack.cli import main
from chimptrack.dataio import DetectionRecord
from chimptrack.geometry import BoxRel, BoxXYXY, ImageSize, rel_to_abs
from chimptrack.kernels import WINDOW_BLOCK, ModelDims, init_params, save_params
from chimptrack.oracles import window_forward

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


def test_evaluate_workers_do_not_change_results(tmp_path):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for seed in (1, 2, 3):
        scene = tmp_path / f"s{seed}"
        assert main(["synth", "--seed", str(seed), "--agents", "2", "--frames", "20", "--out", str(scene)]) == 0
        (gt_dir / f"synth-{seed}.json").write_bytes((scene / "annotations.json").read_bytes())
        csv = pred_dir / f"synth-{seed}.csv"
        assert main(["track", str(scene / "detections_clean.json"), "--min-hits", "1", "--out", str(csv)]) == 0
    out1 = tmp_path / "m1.json"
    out4 = tmp_path / "m4.json"
    assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out4), "--workers", "4"]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc["sequences"]) == {"synth-1", "synth-2", "synth-3"}
    assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--workers", "0"]) == 2


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
    assert "different image sizes" in capsys.readouterr().err


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
    np.save(wrong, np.zeros((8, 32, 32, 3)))
    assert main(["forward", str(wrong)]) == 2
    good = tmp_path / "good.npy"
    np.save(good, np.zeros((8, 64, 64, 3)))
    assert main(["forward", str(good), "--dims", "bogus=3"]) == 2
    assert main(["forward", str(tmp_path / "missing.npy")]) == 2
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

"""Command-line entry point.

Subcommands: synth, track, evaluate, forward, selfcheck. Exit codes are part
of the contract: 0 success, 1 selfcheck failure, 2 input or IO error, 3
sequence pairing error. All randomness flows from --seed; --workers changes
wall time only.

evaluate over several sequences scores each once and adds an aggregate row,
defined as one evaluation of the sequences' concatenation and computed by
merging their per-sequence statistics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import dataio, kernels, oracles, report, synth
from .dataio import AnnotationError, DetectionRecord, TrackedBox, dump_json
from .geometry import BoxXYXY, ImageSize, rel_to_abs
from .rng import Xoshiro256
from .tracker import TrackerConfig, run as run_tracker


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("CHIMPTRACK_NO_COLOR")


def _mark(ok: bool) -> str:
    text = "ok" if ok else "FAIL"
    if not _color_enabled():
        return text
    return f"\x1b[32m{text}\x1b[0m" if ok else f"\x1b[31m{text}\x1b[0m"


def _parse_dims(spec: str | None) -> kernels.ModelDims:
    """Parse comma-separated key=value overrides onto the default dims."""
    values = {}
    if spec:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad dims entry {part!r}; expected key=value")
            key, _, raw = part.partition("=")
            field_names = {f.name for f in kernels.ModelDims.__dataclass_fields__.values()}
            if key.strip() not in field_names:
                raise ValueError(f"unknown dims field {key.strip()!r}")
            values[key.strip()] = int(raw)
    return kernels.ModelDims(**values)


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = synth.SceneConfig(
        agents=args.agents,
        frames=args.frames,
        width=args.width,
        height=args.height,
        stride=args.stride,
    )
    noise = synth.NoiseConfig(
        box_jitter=args.box_jitter,
        kp_jitter=args.kp_jitter,
        fn_rate=args.fn_rate,
        fp_rate=args.fp_rate,
    )
    scene = synth.generate(config, args.seed)
    noisy = synth.perturb_detections(scene.detections, scene.annotation.image_size, noise, args.seed + 1)

    sid = scene.annotation.sequence_id
    size = scene.annotation.image_size
    (out / "annotations.json").write_text(dump_json(dataio.write_annotations(scene.annotation)))
    (out / "detections_clean.json").write_text(dump_json(dataio.write_detections(sid, size, scene.detections)))
    (out / "detections_noisy.json").write_text(dump_json(dataio.write_detections(sid, size, noisy)))

    n_clean = sum(len(v) for v in scene.detections.values())
    n_noisy = sum(len(v) for v in noisy.values())
    n_annotated = len(scene.annotation.frames)
    print(
        f"seed {args.seed}: {config.agents} agents, {config.frames} frames, "
        f"{n_annotated} annotated frames, {n_clean} clean detections, {n_noisy} noisy detections"
    )
    print(f"wrote {out / 'annotations.json'}")
    print(f"wrote {out / 'detections_clean.json'}")
    print(f"wrote {out / 'detections_noisy.json'}")
    return 0


def _cmd_track(args) -> int:
    sequence_id, size, detections = dataio.parse_detections(Path(args.detections))
    config = TrackerConfig(
        iou_gate=args.iou_gate,
        max_misses=args.max_misses,
        min_hits=args.min_hits,
        two_stage=args.two_stage,
        conf_split=args.conf_split,
    )
    tracks = run_tracker(detections, config)
    out = Path(args.out) if args.out else Path(args.detections).with_suffix(".csv")
    out.write_text(dataio.write_mot_csv(tracks))
    print(f"{sequence_id}: {len(tracks)} tracked boxes -> {out}")
    return 0


def _gather_annotation_files(path: Path) -> list[Path]:
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix == ".json")
    return [path]


def _load_gt(path: Path) -> dict[str, dataio.SequenceAnnotation]:
    out = {}
    for f in _gather_annotation_files(path):
        ann = dataio.parse_annotations(f)
        out[ann.sequence_id] = ann
    return out


def _load_pred_tracks(path: Path, gt_ids: list[str]) -> dict[str, list[TrackedBox]]:
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".csv")
        return {f.stem: dataio.parse_mot_csv(f.read_text()) for f in files}
    if len(gt_ids) == 1:
        return {gt_ids[0]: dataio.parse_mot_csv(path.read_text())}
    return {path.stem: dataio.parse_mot_csv(path.read_text())}


def _load_pred_detections(path: Path) -> dict[str, tuple[ImageSize, dict[int, list[DetectionRecord]]]]:
    files = sorted(p for p in path.iterdir() if p.suffix == ".json") if path.is_dir() else [path]
    out = {}
    for f in files:
        sequence_id, size, dets = dataio.parse_detections(f)
        out[sequence_id] = (size, dets)
    return out


def _tracks_as_detections(tracks: list[TrackedBox]) -> dict[int, list[DetectionRecord]]:
    out: dict[int, list[DetectionRecord]] = {}
    for t in tracks:
        out.setdefault(t.frame, []).append(DetectionRecord(t.box, t.score, t.behavior_scores))
    return out


def _json_for_task(rep: report.MetricsReport, task: str) -> dict:
    full = report.report_to_json(rep)
    keep = {
        "tracking": ("tracking", "detection"),
        "detection": ("detection",),
        "behavior": ("behavior",),
        "pose": ("pose",),
    }[task]
    return {"sequence_id": full["sequence_id"], **{k: full[k] for k in keep}}


def _render_for_task(labeled: list[tuple[str, report.MetricsReport]], task: str) -> str:
    if task == "tracking":
        return report.render_tracking_table([report.tracking_row(n, r) for n, r in labeled])
    if task == "behavior":
        return report.render_behavior_table([report.behavior_row(n, r) for n, r in labeled])
    if task == "pose":
        rows = []
        for n, r in labeled:
            row = report.pose_row(n, r)
            if row is None:
                raise AnnotationError(n, "no pose annotations to evaluate")
            rows.append(row)
        return report.render_pose_table(rows)
    return report.render_detection_table([n for n, _ in labeled], [r.detection for _, r in labeled])


def _cmd_evaluate(args) -> int:
    gt = _load_gt(Path(args.gt))
    gt_ids = sorted(gt)
    pred_path = Path(args.pred)
    if args.task == "tracking":
        preds = _load_pred_tracks(pred_path, gt_ids)
        items = {
            sid: (gt[sid], _tracks_as_detections(preds[sid]), preds[sid])
            for sid in gt_ids
            if sid in preds
        }
    else:
        dets = _load_pred_detections(pred_path)
        preds = dets
        items = {sid: (gt[sid], dets[sid][1], []) for sid in gt_ids if sid in dets}

    missing = [sid for sid in gt_ids if sid not in items]
    if missing:
        print(f"missing predictions for sequences: {', '.join(missing)}", file=sys.stderr)
        return 3
    extra = set(preds) - set(gt_ids)
    if extra:
        print(f"predictions without ground truth: {', '.join(sorted(extra))}", file=sys.stderr)
        return 3

    if len({gt[sid].image_size for sid in gt_ids}) > 1:
        raise ValueError("cannot aggregate sequences with different image sizes")

    ordered = [items[sid] for sid in gt_ids]
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        futures = [pool.submit(report.evaluate_sequence, *item, motp_mode=args.motp_mode) for item in ordered]
        per_seq = [f.result() for f in futures]
    aggregate = per_seq[0] if len(per_seq) == 1 else report.evaluate_sequences(per_seq, motp_mode=args.motp_mode)

    sidecar = {
        "task": args.task,
        "sequences": {r.sequence_id: _json_for_task(r, args.task) for r in per_seq},
        "aggregate": _json_for_task(aggregate, args.task),
    }
    out = Path(args.out) if args.out else pred_path.with_name(pred_path.name + ".metrics.json")
    out.write_text(dump_json(sidecar))

    if args.format == "json":
        print(json.dumps(sidecar, indent=2, sort_keys=True))
    else:
        labeled = [(r.sequence_id, r) for r in per_seq]
        if len(per_seq) > 1:
            labeled.append(("aggregate", aggregate))
        print(_render_for_task(labeled, args.task), end="")
        print(f"metrics written to {out}")
    return 0


def _cmd_forward(args) -> int:
    dims = _parse_dims(args.dims)
    video = np.load(Path(args.video))
    if args.params:
        params = kernels.load_params(Path(args.params))
    else:
        params = kernels.init_params(dims, args.seed)
    kernels.validate_params(params, dims)

    if video.ndim != 4 or video.shape[3] != 3:
        raise ValueError(f"video must be (frames, height, width, 3), got {video.shape}")
    n = video.shape[0]
    if n < dims.frames:
        raise ValueError(f"video has {n} frames; need at least {dims.frames}")
    if video.shape[1] != dims.height or video.shape[2] != dims.width:
        raise ValueError(
            f"video is {video.shape[1]}x{video.shape[2]}, dims expect {dims.height}x{dims.width}"
        )

    size = ImageSize(dims.width, dims.height)
    detections: dict[int, list[DetectionRecord]] = {}
    for start in range(0, n - dims.frames + 1):
        window = video[start : start + dims.frames]
        result = kernels.toy_forward(window, params, dims)
        dets = kernels.emit_detections(result, args.cls_thresh, args.beh_thresh)
        # each window scores its final frame
        detections[start + dims.frames - 1] = [
            DetectionRecord(rel_to_abs(d.box, size), d.score, d.behavior_scores) for d in dets
        ]
    out = Path(args.out) if args.out else Path(args.video).with_suffix(".detections.json")
    out.write_text(dump_json(dataio.write_detections(args.seq_id, size, detections)))
    total = sum(len(v) for v in detections.values())
    print(f"{args.seq_id}: {total} detections over {len(detections)} frames -> {out}")
    return 0


# --- selfcheck ---


def _check_hungarian(rng: Xoshiro256) -> tuple[bool, str]:
    from .assign import hungarian

    for trial in range(60):
        rows = 1 + rng.randint(6)
        cols = 1 + rng.randint(6)
        cost = np.array([[rng.uniform(0.0, 10.0) for _ in range(cols)] for _ in range(rows)])
        fast = hungarian(cost)
        slow = oracles.brute_assignment(cost)
        if fast.pairs != slow.pairs or abs(fast.total_cost - slow.total_cost) > 1e-9:
            return False, f"divergence on trial {trial} shape {rows}x{cols}"
    return True, "60 matrices"


def _check_gradients(rng: Xoshiro256) -> tuple[bool, str]:
    from . import loss

    worst = 0.0
    for _ in range(20):
        p = rng.uniform(0.05, 0.95)
        logit = math.log(p / (1.0 - p))
        for target in (0, 1):
            def f(x, t=target):
                q = 1.0 / (1.0 + math.exp(-x[0]))
                return loss.focal_loss(q, t)[0]

            grad = loss.focal_loss(p, target)[1]
            fd = oracles.finite_difference(f, np.array([logit]))[0]
            worst = max(worst, abs(grad - fd) / max(1e-12, abs(fd)))
        pred = np.array([rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.2, 0.4), rng.uniform(0.2, 0.4)])
        gt = np.array([rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.2, 0.4), rng.uniform(0.2, 0.4)])

        def g(x):
            return loss.giou_loss(x, gt)[0]

        grad = loss.giou_loss(pred, gt)[1]
        fd = oracles.finite_difference(g, pred)
        denom = np.maximum(np.abs(fd), 1e-6)
        worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    ok = worst < 1e-4
    return ok, f"max rel err {worst:.2e}"


def _tiny_tracks(rng: Xoshiro256) -> tuple[list[TrackedBox], list[TrackedBox]]:
    gt, pred = [], []
    n_frames = 2 + rng.randint(5)
    for frame in range(n_frames):
        for tid in range(1, 4):
            if rng.random() < 0.7:
                x = rng.uniform(0.0, 60.0)
                y = rng.uniform(0.0, 60.0)
                w = rng.uniform(10.0, 30.0)
                h = rng.uniform(10.0, 30.0)
                gt.append(TrackedBox(frame, tid, BoxXYXY(x, y, x + w, y + h)))
                if rng.random() < 0.8:
                    dx = rng.uniform(-4.0, 4.0)
                    dy = rng.uniform(-4.0, 4.0)
                    pid = tid if rng.random() < 0.8 else 1 + rng.randint(3)
                    pred.append(TrackedBox(frame, pid, BoxXYXY(x + dx, y + dy, x + w + dx, y + h + dy)))
        if rng.random() < 0.3:
            x = rng.uniform(0.0, 60.0)
            y = rng.uniform(0.0, 60.0)
            pred.append(TrackedBox(frame, 9, BoxXYXY(x, y, x + 20.0, y + 20.0)))
    dedup: dict[tuple[int, int], TrackedBox] = {}
    for t in pred:
        dedup[(t.frame, t.track_id)] = t
    return gt, list(dedup.values())


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= tol


def _check_metric_oracles(rng: Xoshiro256) -> tuple[bool, str]:
    from . import metrics

    for trial in range(25):
        gt, pred = _tiny_tracks(rng)
        if not gt:
            continue
        fast = metrics.clear_metrics(gt, pred)
        slow = oracles.brute_clear(gt, pred)
        if not all(
            _close(getattr(fast, k), slow[k])
            for k in ("mota", "motp", "n_fp", "n_fn", "n_ids")
        ):
            return False, f"CLEAR divergence on trial {trial}"
        if not _close(metrics.idf1(gt, pred).idf1, oracles.brute_idf1(gt, pred)["idf1"]):
            return False, f"IDF1 divergence on trial {trial}"
        if not _close(metrics.hota(gt, pred).hota, oracles.brute_hota(gt, pred)["hota"]):
            return False, f"HOTA divergence on trial {trial}"

        det_gt = [(t.frame, t.box) for t in gt]
        det_pred = [(t.frame, t.box, rng.uniform(0.1, 0.99)) for t in pred]
        fast_ap = metrics.detection_ap(det_pred, det_gt)
        slow_ap = oracles.brute_detection_ap(det_pred, det_gt)
        if not all(
            _close(getattr(fast_ap, k), getattr(slow_ap, k))
            for k in ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar")
        ):
            return False, f"detection AP divergence on trial {trial}"
    return True, "25 instances"


def _check_shapes() -> tuple[bool, str]:
    dims = kernels.ModelDims()
    params = kernels.init_params(dims, seed=7)
    video = np.zeros((dims.frames, dims.height, dims.width, 3))
    result = kernels.toy_forward(video, params, dims)
    out = result.outputs
    checks = [
        out.boxes.shape == (dims.queries, 4),
        out.class_conf.shape == (dims.queries,),
        out.behavior_probs.shape == (dims.queries, dims.behavior_classes),
        bool(((out.boxes >= 0.0) & (out.boxes <= 1.0)).all()),
        bool(((out.class_conf >= 0.0) & (out.class_conf <= 1.0)).all()),
        bool(((out.behavior_probs >= 0.0) & (out.behavior_probs <= 1.0)).all()),
        result.shapes["tokens"] == (dims.token_count, dims.channels),
    ]
    return all(checks), "toy_forward contract"


def _check_clean_scene() -> tuple[bool, str]:
    scene = synth.generate(synth.SceneConfig(agents=3, frames=40), seed=11)
    rep = report.evaluate_sequence(scene.annotation, scene.detections, scene.gt_tracks)
    values = [
        rep.clear.mota,
        rep.idf1.idf1,
        rep.hota.hota,
        rep.detection.ap,
        rep.behavior.map,
        rep.pck05.mean if rep.pck05 else float("nan"),
        rep.pck10.mean if rep.pck10 else float("nan"),
    ]
    ok = all(v == 100.0 for v in values)
    return ok, "clean scene fixed point" if ok else f"got {values}"


def _check_params_file(path: Path) -> tuple[bool, str]:
    try:
        params = kernels.load_params(path)
        kernels.validate_params(params, kernels.ModelDims())
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return False, str(exc)
    return True, str(path)


def _cmd_selfcheck(args) -> int:
    rng = Xoshiro256(args.seed)
    checks = [
        ("hungarian-brute-force", lambda: _check_hungarian(rng)),
        ("gradient-finite-difference", lambda: _check_gradients(rng)),
        ("metric-oracles", lambda: _check_metric_oracles(rng)),
        ("shape-contract", _check_shapes),
        ("clean-scene-fixed-point", _check_clean_scene),
    ]
    if args.params:
        checks.append(("params-file", lambda: _check_params_file(Path(args.params))))

    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": ok, "detail": detail})

    if args.format == "json":
        print(json.dumps({"ok": all(r["ok"] for r in results), "checks": results}, indent=2, sort_keys=True))
    else:
        for r in results:
            print(f"{_mark(r['ok'])} {r['name']}: {r['detail']}")
        failed = [r["name"] for r in results if not r["ok"]]
        print("all checks passed" if not failed else f"failed: {', '.join(failed)}")
    return 0 if all(r["ok"] for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chimptrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=5)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--box-jitter", type=float, default=0.0)
    p.add_argument("--kp-jitter", type=float, default=0.0)
    p.add_argument("--fn-rate", type=float, default=0.0)
    p.add_argument("--fp-rate", type=float, default=0.0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("track", help="run the tracker over detections")
    p.add_argument("detections", help="detections JSON file")
    p.add_argument("--out", help="output MOT CSV path")
    p.add_argument("--iou-gate", type=float, default=0.3)
    p.add_argument("--max-misses", type=int, default=30)
    p.add_argument("--min-hits", type=int, default=3)
    p.add_argument("--two-stage", action="store_true")
    p.add_argument("--conf-split", type=float, default=0.5)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("evaluate", help="score predictions against annotations")
    p.add_argument("--task", choices=("tracking", "detection", "pose", "behavior"), default="tracking")
    p.add_argument("--pred", required=True, help="MOT CSV (tracking) or detections JSON; or a directory")
    p.add_argument("--gt", required=True, help="annotations JSON file or directory")
    p.add_argument("--out", help="metrics JSON sidecar path")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--motp-mode", choices=("iou", "distance"), default="iou")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("forward", help="run the toy detector over a video tensor")
    p.add_argument("video", help=".npy array of shape (frames, height, width, 3)")
    p.add_argument("--params", help="parameter JSON; omitted means seeded random init")
    p.add_argument("--dims", help="comma-separated ModelDims overrides, e.g. frames=8,queries=10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cls-thresh", type=float, default=0.3)
    p.add_argument("--beh-thresh", type=float, default=0.3)
    p.add_argument("--seq-id", default="forward")
    p.add_argument("--out", help="output detections JSON path")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("selfcheck", help="run the built-in oracle suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params", help="also validate this parameter file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except AnnotationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

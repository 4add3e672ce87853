"""Command-line entry point.

Subcommands: synth, track, evaluate, forward, selfcheck. Exit codes are part
of the contract: 0 success, 1 selfcheck failure, 2 input or IO error, 3
sequence pairing error. All randomness flows from --seed.

evaluate scores no detections file whose image size differs from its
annotations'. Over several sequences it scores each once and adds an
aggregate row, defined as one evaluation of the sequences' concatenation and
computed by merging their per-sequence statistics. It writes the metrics
sidecar, then prints it (--format json) or the same entries as a table
(--format table).

evaluate scores the sequences one after another in this process. For
tracking it takes each annotation file from parse to report, so it holds one
sequence's annotation and tracks at a time. For the detection tasks it first
parses every annotation file, then the detections files, keeping records
only on frames that some file annotates, and then scores. Errors come in one
order: the annotations' errors in file order, then the predictions', then
the pairing checks, then scoring errors in sequence id order. --workers N is
accepted (N >= 1) and changes nothing; it stays because the benchmark's
workloads pass it.

forward runs the toy detector over every stride-1 window of a .npy clip and
writes one detections frame per window (kernels.emit_detections): the
window's last frame, holding its queries at or above --cls-thresh, at the
clip's image size. It reads the clip through kernels.NpyClip, one block of
windows at a time, so its memory does not grow with a C-order clip; the
parameters are checked before the first frame is read. track's
--conf-split alone turns on a second stage.

Each command imports only the modules it runs: importing this module loads
neither NumPy nor the numerical modules, and synth (synth, rng, dataio)
runs without NumPy.

A command's phases run one after another, and each keeps only what the next
reads, so its memory peaks at its largest phase rather than at the sum of
phases held together. Detections files are read a chunk and a frame entry at
a time (dataio.parse_detections), and JSON files are written as each frame
entry's text ends (dataio.write_json), so no command holds a file's text or
its decoded tree whole. track and evaluate parse their detections files
before they import the modules that load NumPy (about 17 MB), whose import
then reuses the pages the parse freed; a malformed file is reported before
NumPy loads. track keeps only each detection's box and score, all that the tracker
and the MOT CSV read, and evaluate's detection tasks keep records only on
annotated frames, the only ones scored; every entry is still checked. synth
writes the annotations and drops the scene, keeping only its clean
detections; it writes those, perturbs them, drops them and writes the noisy
ones.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless the caller set
it, so every command runs NumPy with one BLAS thread. OpenBLAS would
otherwise start a worker thread when NumPy loads, and on a 2-vCPU machine
that thread busy-spins against the main one: `import numpy` alone took
0.209 s and 0.190 s of user time, against 0.148 s and 0.127 s with one
thread (medians of 15 alternating runs). OpenBLAS splits a product over
output blocks, not over the sum, so no output byte depends on the count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import dataio
from .dataio import AnnotationError, DetectionRecord, TrackedBox, dump_json, write_json
from .geometry import BoxXYXY, ImageSize
from .rng import Xoshiro256

# set before any command imports NumPy, which none of the imports above does;
# a value the caller set wins (see the module docstring)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("CHIMPTRACK_NO_COLOR")


def _mark(ok: bool) -> str:
    text = "ok" if ok else "FAIL"
    if not _color_enabled():
        return text
    return f"\x1b[32m{text}\x1b[0m" if ok else f"\x1b[31m{text}\x1b[0m"


def _parse_dims(spec: str | None, clip_shape: tuple[int, ...]) -> kernels.ModelDims:
    """Parse comma-separated key=value overrides onto the default dims, at the clip's image size."""
    from . import kernels

    if len(clip_shape) != 4:
        raise ValueError(f"video must be (frames, height, width, 3), got shape {clip_shape}")
    field_names = {f.name for f in dataclasses.fields(kernels.ModelDims)} - {"height", "width"}
    values = {"height": clip_shape[1], "width": clip_shape[2]}
    if spec:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad dims entry {part!r}; expected key=value")
            key, _, raw = part.partition("=")
            if key.strip() not in field_names:
                raise ValueError(f"unknown dims field {key.strip()!r}")
            values[key.strip()] = int(raw)
    return kernels.ModelDims(**values)


def run_tracker(detections, config):
    """tracker.run, looked up here at call time so a wrapper set on this name sees every track."""
    from .tracker import run

    return run(detections, config)


def _cmd_synth(args) -> int:
    from . import synth

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
    sid = scene.annotation.sequence_id
    size = scene.annotation.image_size
    n_annotated = len(scene.annotation.frames)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "annotations.json", dataio.write_annotations(scene.annotation))
    clean = scene.detections
    del scene  # the annotation and the gt tracks are written or unused from here on
    write_json(out / "detections_clean.json", dataio.write_detections(sid, size, clean))
    n_clean = sum(len(v) for v in clean.values())
    noisy = synth.perturb_detections(clean, size, noise, args.seed + 1)
    del clean
    write_json(out / "detections_noisy.json", dataio.write_detections(sid, size, noisy))
    n_noisy = sum(len(v) for v in noisy.values())
    print(
        f"seed {args.seed}: {config.agents} agents, {config.frames} frames, "
        f"{n_annotated} annotated frames, {n_clean} clean detections, {n_noisy} noisy detections"
    )
    print(f"wrote {out / 'annotations.json'}")
    print(f"wrote {out / 'detections_clean.json'}")
    print(f"wrote {out / 'detections_noisy.json'}")
    return 0


def _cmd_track(args) -> int:
    # the tracker and the MOT CSV read only boxes and scores
    sequence_id, size, detections = dataio.parse_detections(Path(args.detections), boxes_only=True)
    from .tracker import TrackerConfig

    config = TrackerConfig(
        iou_gate=args.iou_gate,
        max_misses=args.max_misses,
        min_hits=args.min_hits,
        conf_split=args.conf_split,
    )
    tracks = run_tracker(detections, config)
    out = Path(args.out) if args.out else Path(args.detections).with_suffix(".csv")
    out.write_text(dataio.write_mot_csv(tracks))
    print(f"{sequence_id}: {len(tracks)} tracked boxes -> {out}")
    return 0


class PairingError(Exception):
    """Sequences that cannot be paired between annotations and predictions (exit 3)."""


def _json_files(path: Path) -> list[Path]:
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix == ".json")
    return [path]


def _by_sequence(entries) -> dict:
    """{sequence_id: value} from (file, sequence_id, value) entries; an id in two files is a pairing error."""
    out, source = {}, {}
    for f, sid, value in entries:
        if sid in source:
            raise PairingError(f"sequence {sid} appears in two files: {source[sid]} and {f}")
        out[sid], source[sid] = value, f
    return out


def _load_pred_detections(path: Path, frames: set[int]) -> dict[str, tuple[ImageSize, dict[int, list[DetectionRecord]]]]:
    """Each detections file by its sequence id, with records on the given frames only."""
    parsed = ((f, *dataio.parse_detections(f, frames)) for f in _json_files(path))
    return _by_sequence((f, sid, (size, dets)) for f, sid, size, dets in parsed)


def _csv_files(path: Path, sole: str | None) -> dict[str, Path]:
    """Each MOT CSV by the sequence id it is scored as, in parse order.

    A directory's files go by name; a lone file scores `sole`, the only
    annotated sequence, when there is one, and otherwise goes by name.
    """
    if path.is_dir():
        return {p.stem: p for p in sorted(path.iterdir()) if p.suffix == ".csv"}
    return {path.stem if sole is None else sole: path}


def _tracks_as_detections(tracks: list[TrackedBox]) -> dict[int, list[DetectionRecord]]:
    out: dict[int, list[DetectionRecord]] = {}
    for t in tracks:
        out.setdefault(t.frame, []).append(DetectionRecord(t.box, t.score))
    return out


def _outcome(fn, *args) -> tuple[bool, object]:
    """(True, fn(*args)), or (False, the exception it raised)."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _value(outcome: tuple[bool, object]):
    ok, value = outcome
    if not ok:
        raise value
    return value


def _paired_ids(sizes: dict[str, ImageSize], pred_ids: set[str]) -> list[str]:
    """The annotated sequence ids, sorted, once each has predictions, each prediction has annotations, and all share one image size."""
    gt_ids = sorted(sizes)
    missing = [sid for sid in gt_ids if sid not in pred_ids]
    if missing:
        raise PairingError(f"missing predictions for sequences: {', '.join(missing)}")
    extra = pred_ids - set(gt_ids)
    if extra:
        raise PairingError(f"predictions without ground truth: {', '.join(sorted(extra))}")

    # the aggregate is one evaluation of the concatenation, defined over one image size
    for sid in gt_ids[1:]:
        want, got = sizes[gt_ids[0]], sizes[sid]
        if got != want:
            raise AnnotationError(
                "$.image_size",
                f"sequences {gt_ids[0]} ({want.width}x{want.height}) and {sid} "
                f"({got.width}x{got.height}) differ; the aggregate needs one image size",
            )
    return gt_ids


def _evaluate_tracks(files: list[Path], pred_path: Path) -> list:
    """The tracking task's per-sequence reports, in sequence id order."""
    from . import report  # loads NumPy

    def unit(f: Path):
        """One annotation file from parse to report: (id, (image size, CSV parse, score)), the last two as outcomes."""
        ann = dataio.parse_annotations(f)
        sid, parsed, scored = ann.sequence_id, None, None
        csv = _csv_files(pred_path, sid if len(files) == 1 else None).get(sid)
        if csv is not None:
            ok, tracks = _outcome(lambda: dataio.parse_mot_csv(csv.read_text(), ann.frames))
            parsed = (True, None) if ok else (False, tracks)  # the tracks themselves are not kept
            if ok:
                scored = _outcome(report.evaluate_sequence, ann, _tracks_as_detections(tracks), tracks)
        return sid, (ann.image_size, parsed, scored)

    # annotation errors raise in file order; the CSV and scoring outcomes wait until every file is parsed
    units = _by_sequence((f, *unit(f)) for f in files)
    csvs = _csv_files(pred_path, next(iter(units)) if len(units) == 1 else None)
    for sid, f in csvs.items():
        if sid in units:  # parsed by that sequence's unit
            _value(units[sid][1])
        else:  # no ground truth: checked row by row, and no track is kept
            dataio.parse_mot_csv(f.read_text(), set())
    gt_ids = _paired_ids({sid: size for sid, (size, _, _) in units.items()}, set(csvs))
    return [_value(units[sid][2]) for sid in gt_ids]


def _evaluate_detections(files: list[Path], pred_path: Path) -> list:
    """A detections task's per-sequence reports, in sequence id order.

    The annotations are parsed first, so their errors come before any in the
    detections, and the detections keep records only on annotated frames,
    the only ones scored.
    """
    parsed = ((f, dataio.parse_annotations(f)) for f in files)
    anns = _by_sequence((f, ann.sequence_id, ann) for f, ann in parsed)
    # detections files are keyed by the id inside them, so they are all read before any is paired
    preds = _load_pred_detections(pred_path, set().union(*(ann.frames for ann in anns.values())))
    for sid in sorted(anns.keys() & preds.keys()):
        size, want = preds[sid][0], anns[sid].image_size
        if size != want:
            raise AnnotationError(
                "$.image_size",
                f"sequence {sid}: detections are {size.width}x{size.height}, "
                f"annotations are {want.width}x{want.height}",
            )
    gt_ids = _paired_ids({sid: ann.image_size for sid, ann in anns.items()}, set(preds))
    from . import report  # loads NumPy

    return [report.evaluate_sequence(anns[sid], preds[sid][1], []) for sid in gt_ids]


def _cmd_evaluate(args) -> int:
    files = _json_files(Path(args.gt))
    if not files:
        raise ValueError(f"no .json annotation file in {Path(args.gt)}")
    pred_path = Path(args.pred)
    if args.task == "tracking":
        per_seq = _evaluate_tracks(files, pred_path)
    else:
        per_seq = _evaluate_detections(files, pred_path)
    from . import report

    entries = [report.sidecar_entry(r, args.task) for r in per_seq]
    aggregate = report.sidecar_entry(report.evaluate_sequences(per_seq), args.task)

    sidecar = {
        "task": args.task,
        "sequences": {e["sequence_id"]: e for e in entries},
        "aggregate": aggregate,
    }
    out = Path(args.out) if args.out else pred_path.with_name(pred_path.name + ".metrics.json")
    text = dump_json(sidecar)
    out.write_text(text)

    if args.format == "json":
        print(text, end="")
    else:
        # looked up on the module at call time, so a wrapper set on the renderer sees it
        render = getattr(report, f"render_{args.task}_table")
        print(render(entries + [aggregate] if len(entries) > 1 else entries), end="")
        print(f"metrics written to {out}")
    return 0


def _cmd_forward(args) -> int:
    from . import kernels

    kernels.check_cls_thresh(args.cls_thresh)
    video = kernels.NpyClip(args.video)
    dims = _parse_dims(args.dims, video.shape)
    if args.params:
        params = kernels.load_params(Path(args.params))
    else:
        params = kernels.init_params(dims, args.seed)

    # toy_forward validates the clip's shape and the parameters, then reads the clip block by block
    detections = kernels.emit_detections(kernels.toy_forward(video, params, dims), dims, args.cls_thresh)
    out = Path(args.out) if args.out else Path(args.video).with_suffix(".detections.json")
    size = ImageSize(dims.width, dims.height)
    write_json(out, dataio.write_detections(args.seq_id, size, detections))
    total = sum(len(v) for v in detections.values())
    print(f"{args.seq_id}: {total} detections over {len(detections)} frames -> {out}")
    return 0


# --- selfcheck ---


def _check_hungarian(rng: Xoshiro256) -> tuple[bool, str]:
    import numpy as np

    from . import oracles
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
    import numpy as np

    from . import loss, oracles

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


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= tol


def _check_metric_oracles(rng: Xoshiro256) -> tuple[bool, str]:
    from . import metrics, oracles

    both_splits = 0  # instances where ap_medium and ap_large are both numbers
    for trial in range(25):
        gt, pred = oracles.tiny_tracks(rng, max_ids=3, max_frames=6)
        if not gt:
            continue
        table = metrics.pair_frames(gt, pred)
        fast = metrics.clear_metrics(table)
        slow = oracles.brute_clear(gt, pred)
        if not all(
            _close(getattr(fast, k), slow[k])
            for k in ("mota", "motp", "n_fp", "n_fn", "n_ids")
        ):
            return False, f"CLEAR divergence on trial {trial}"
        if not _close(metrics.idf1(table).idf1, oracles.brute_idf1(gt, pred)["idf1"]):
            return False, f"IDF1 divergence on trial {trial}"
        if not _close(metrics.hota(table).hota, oracles.brute_hota(gt, pred)["hota"]):
            return False, f"HOTA divergence on trial {trial}"

        # tiny_tracks boxes are 10-30 px a side, all below the medium split; x4
        # fills both splits, and a power of two keeps every IoU's bits
        det_gt = [(t.frame, BoxXYXY(*(4.0 * v for v in t.box))) for t in gt]
        det_pred = [(t.frame, BoxXYXY(*(4.0 * v for v in t.box)), rng.uniform(0.1, 0.99)) for t in pred]
        fast_ap = metrics.detection_ap(det_pred, det_gt)
        slow_ap = oracles.brute_detection_ap(det_pred, det_gt)
        if not all(
            _close(getattr(fast_ap, k), getattr(slow_ap, k))
            for k in ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar")
        ):
            return False, f"detection AP divergence on trial {trial}"
        both_splits += not (math.isnan(slow_ap.ap_medium) or math.isnan(slow_ap.ap_large))

        # each class is a gt mask over one IoU table: a mask the matcher ignores shows here
        beh_pred, beh_gt = oracles.tiny_behavior_sets(rng, det_pred, det_gt)
        fast_map = metrics.behavior_map(beh_pred, beh_gt)
        slow_map = oracles.brute_behavior_map(beh_pred, beh_gt)
        if not all(map(_close, (fast_map.map, *fast_map.per_class), (slow_map.map, *slow_map.per_class))):
            return False, f"behavior mAP divergence on trial {trial}"
    if not both_splits:
        return False, "no instance fills both detection area splits"
    # IoU 0.3499999999999999, one ulp below alpha 0.35, counts at that alpha: the alpha test allows EPS
    one_ulp_below = (
        [TrackedBox(0, 1, BoxXYXY(0.0, 0.0, 10.0, 10.0))],
        [TrackedBox(0, 1, BoxXYXY(0.0, 0.0, 10.0, 3.4999999999999996))],
    )
    for case, (gt, pred) in (("hand case", oracles.hota_hand_case()), ("one-ulp alpha case", one_ulp_below)):
        fast_hota, slow_hota = metrics.hota(metrics.pair_frames(gt, pred)), oracles.brute_hota(gt, pred)
        if not all(_close(getattr(fast_hota, k), slow_hota[k]) for k in ("hota", "deta", "assa")):
            return False, f"HOTA divergence on the {case}"
    return True, "25 instances, the HOTA hand case and the one-ulp alpha case"


def _check_shapes() -> tuple[bool, str]:
    import numpy as np

    from . import kernels

    dims = kernels.ModelDims()
    params = kernels.init_params(dims, seed=7)
    video = np.zeros((dims.frames, dims.height, dims.width, 3))
    result = kernels.toy_forward(video, params, dims)
    out = result.outputs
    checks = [
        out.boxes.shape == (1, dims.queries, 4),
        out.class_conf.shape == (1, dims.queries),
        out.behavior_probs.shape == (1, dims.queries, dataio.BEHAVIOR_COUNT),
        bool(((out.boxes >= 0.0) & (out.boxes <= 1.0)).all()),
        bool(((out.class_conf >= 0.0) & (out.class_conf <= 1.0)).all()),
        bool(((out.behavior_probs >= 0.0) & (out.behavior_probs <= 1.0)).all()),
        result.shapes["tokens"] == (dims.token_count, dims.channels),
    ]
    return all(checks), "toy_forward contract"


def _check_clean_scene() -> tuple[bool, str]:
    from . import report, synth

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
    from . import kernels

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
        print(dump_json({"ok": all(r["ok"] for r in results), "checks": results}), end="")
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
    p.add_argument("--conf-split", type=float, default=0.0, help="scores below it only extend unmatched tracks")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("evaluate", help="score predictions against annotations")
    p.add_argument("--task", choices=("tracking", "detection", "pose", "behavior"), default="tracking")
    p.add_argument("--pred", required=True, help="MOT CSV (tracking) or detections JSON; or a directory")
    p.add_argument("--gt", required=True, help="annotations JSON file or directory")
    p.add_argument("--out", help="metrics JSON sidecar path")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--workers", type=int, default=1, help="changes nothing: every sequence is scored in this process")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("forward", help="run the toy detector over a video tensor")
    p.add_argument("video", help=".npy array of shape (frames, height, width, 3)")
    p.add_argument("--params", help="parameter JSON; omitted means seeded random init")
    p.add_argument("--dims", help="comma-separated ModelDims overrides other than height and width, e.g. frames=8,queries=10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cls-thresh", type=float, default=0.3)
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
    except PairingError as exc:
        print(exc, file=sys.stderr)
        return 3
    except AnnotationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

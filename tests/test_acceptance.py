"""Acceptance gate for the benchmark engine.

Each test covers one numbered acceptance criterion at its stated tolerance
and time budget, records a single "criterion NN PASS/FAIL" line (printed in
the terminal summary after the run, so the verdicts are visible without -s),
and then asserts. Criteria:

 1. Hungarian solver returns exactly optimal costs vs exhaustive enumeration.
 2. Analytic loss gradients match central finite differences off kinks.
 3. CLEAR / IDF1 / HOTA / detection AP / behavior mAP match brute-force
    oracles within 1e-9 on tiny instances.
 4. MOTA decomposes exactly as 100 - nFP - nFN - nIDs; the reference report
    row is arithmetically consistent.
 5. Clean scenes evaluated against themselves score exactly 100.0 everywhere.
 6. Injected false negatives strictly lower MOTA; injected false positives
    strictly lower detection mAP.
 7. The toy forward pass honors the full shape contract and query selection
    is invariant to monotone confidence transforms.
 8. Set-prediction loss sanity: perfect, empty, and small exhaustive cases.
 9. synth -> track -> evaluate finishes within the desk-scale time budget and
    emits every tracking and behavior report column.
10. Reference report rows render byte-identically to stored goldens.
11. The behavior and keypoint registries have the pinned structure.
"""

import subprocess
import sys
import time
from pathlib import Path

import conftest
import numpy as np
from conftest import nan_equal, tiny_behavior_sets, tiny_detection_sets, tiny_tracks

from chimptrack.assign import hungarian
from chimptrack.dataio import (
    BEHAVIOR_CATEGORIES,
    BEHAVIOR_COUNT,
    ETHOGRAM,
    KEYPOINT_COUNT,
    KEYPOINT_NAMES,
)
from chimptrack.geometry import ImageSize
from chimptrack.kernels import ModelDims, init_params, query_select, toy_forward
from chimptrack.loss import (
    LossWeights,
    focal_loss,
    giou_loss,
    l1_box_loss,
    multilabel_focal,
    set_prediction_loss,
)
from chimptrack.metrics import behavior_map, clear_metrics, detection_ap, hota, idf1
from chimptrack.oracles import (
    brute_assignment,
    brute_behavior_map,
    brute_clear,
    brute_detection_ap,
    brute_hota,
    brute_idf1,
    brute_set_loss,
    finite_difference,
)
from chimptrack.report import (
    BehaviorRow,
    TrackingRow,
    evaluate_sequence,
    render_behavior_table,
    render_tracking_table,
)
from chimptrack.rng import Xoshiro256
from chimptrack.synth import (
    NoiseConfig,
    SceneConfig,
    generate,
    perturb_detections,
    perturb_tracks,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # also visible under -s
    assert ok, line


def test_criterion_01_hungarian_exact_vs_enumeration():
    rng = Xoshiro256(4101)
    t0 = time.perf_counter()
    exact = 0
    for i in range(1000):
        rows = 1 + rng.randint(7)
        cols = 1 + rng.randint(7)
        if i % 2:  # alternate tie-heavy integer costs with continuous ones
            cost = np.array([[float(rng.randint(6)) for _ in range(cols)] for _ in range(rows)])
        else:
            cost = np.array([[rng.uniform(0.0, 10.0) for _ in range(cols)] for _ in range(rows)])
        got = hungarian(cost)
        want = brute_assignment(cost)
        if got.pairs == want.pairs and got.total_cost == want.total_cost:
            exact += 1
    dt = time.perf_counter() - t0
    ok = exact == 1000 and dt < 5.0
    _verdict(1, ok, f"hungarian vs exhaustive enumeration: {exact}/1000 matrices up to 7x7 exactly optimal in {dt:.2f}s (budget 5s)")


def _rel_gap(analytic, fd) -> float:
    analytic = np.atleast_1d(np.asarray(analytic, dtype=float))
    fd = np.atleast_1d(np.asarray(fd, dtype=float))
    scale = max(1.0, float(np.abs(analytic).max()))
    return float(np.abs(analytic - fd).max()) / scale


def _rel_box(rng) -> np.ndarray:
    return np.array([
        rng.uniform(0.3, 0.7),
        rng.uniform(0.3, 0.7),
        rng.uniform(0.1, 0.3),
        rng.uniform(0.1, 0.3),
    ])


def _corners(v) -> tuple[float, float, float, float]:
    cx, cy, h, w = v
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def _giou_point(rng) -> tuple[np.ndarray, np.ndarray]:
    # resample until every min/max switch point is > 1e-3 away, so the
    # central difference at h=1e-5 never straddles a kink
    while True:
        pred, gt = _rel_box(rng), _rel_box(rng)
        pc, gc = _corners(pred), _corners(gt)
        gaps = [abs(pc[k] - gc[k]) for k in range(4)]
        gaps.append(abs(max(pc[0], gc[0]) - min(pc[2], gc[2])))
        gaps.append(abs(max(pc[1], gc[1]) - min(pc[3], gc[3])))
        if min(gaps) > 1e-3:
            return pred, gt


def _l1_point(rng) -> tuple[np.ndarray, np.ndarray]:
    while True:
        pred = np.array([rng.uniform(0.0, 1.0) for _ in range(4)])
        gt = np.array([rng.uniform(0.0, 1.0) for _ in range(4)])
        if np.abs(pred - gt).min() > 1e-2:
            return pred, gt


def test_criterion_02_gradients_match_finite_differences():
    rng = Xoshiro256(4202)
    h = 1e-5
    t0 = time.perf_counter()
    worst = {}

    sigmoid = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731

    # focal gradients are with respect to the logit, so differentiate z -> loss(sigmoid(z))
    gaps = []
    for i in range(100):
        z = rng.uniform(-3.0, 3.0)
        target = i % 2
        _, grad = focal_loss(sigmoid(z), target)
        fd = finite_difference(lambda x: focal_loss(sigmoid(float(x[0])), target)[0], np.array([z]), h)
        gaps.append(_rel_gap(grad, fd[0]))
    worst["focal"] = max(gaps)

    gaps = []
    for _ in range(100):
        logits = np.array([rng.uniform(-3.0, 3.0) for _ in range(6)])
        targets = np.array([float(rng.random() < 0.4) for _ in range(6)])
        _, grads = multilabel_focal(sigmoid(logits), targets)
        fd = finite_difference(lambda x: multilabel_focal(sigmoid(x), targets)[0], logits, h)
        gaps.append(_rel_gap(grads, fd))
    worst["multilabel"] = max(gaps)

    gaps = []
    for _ in range(100):
        pred, gt = _l1_point(rng)
        _, grad = l1_box_loss(pred, gt)
        fd = finite_difference(lambda x: l1_box_loss(x, gt)[0], pred, h)
        gaps.append(_rel_gap(grad, fd))
    worst["l1"] = max(gaps)

    gaps = []
    for _ in range(100):
        pred, gt = _giou_point(rng)
        _, grad = giou_loss(pred, gt)
        fd = finite_difference(lambda x: giou_loss(x, gt)[0], pred, h)
        gaps.append(_rel_gap(grad, fd))
    worst["giou"] = max(gaps)

    dt = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and dt < 5.0
    by_family = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _verdict(2, ok, f"analytic vs central differences (h=1e-5, 100 points each): max rel err {by_family} (limit 1e-4) in {dt:.2f}s (budget 5s)")


def test_criterion_03_metrics_match_bruteforce_oracles():
    t0 = time.perf_counter()
    checked = 0
    mismatches: list[tuple[str, int]] = []

    def clear_ok(gt, pred) -> bool:
        got = clear_metrics(gt, pred)
        want = brute_clear(gt, pred)
        return all(
            nan_equal(getattr(got, k), want[k]) for k in ("mota", "motp", "n_fp", "n_fn", "n_ids")
        ) and all(getattr(got, k) == want[k] for k in ("fp", "fn", "idsw", "matched"))

    def idf1_ok(gt, pred) -> bool:
        got = idf1(gt, pred)
        want = brute_idf1(gt, pred)
        return nan_equal(got.idf1, want["idf1"]) and got.idtp == want["idtp"]

    def hota_ok(gt, pred) -> bool:
        got = hota(gt, pred)
        want = brute_hota(gt, pred)
        return all(nan_equal(getattr(got, k), want[k]) for k in ("hota", "deta", "assa"))

    # track-level metrics need a nonempty ground truth, so draw until 100
    # valid instances per family
    for name, base, compare in (("clear", 31000, clear_ok), ("idf1", 32000, idf1_ok), ("hota", 33000, hota_ok)):
        done, offset = 0, 0
        while done < 100:
            rng = Xoshiro256(base + offset)
            offset += 1
            gt, pred = tiny_tracks(rng)
            if not gt:
                continue
            if not compare(gt, pred):
                mismatches.append((name, base + offset - 1))
            done += 1
            checked += 1

    ap_fields = ("ap", "ap50", "ap75", "ap_medium", "ap_large", "ar")
    for offset in range(100):
        rng = Xoshiro256(34000 + offset)
        gt, pred = tiny_tracks(rng)
        det_pred, det_gt = tiny_detection_sets(rng, gt, pred)
        got = detection_ap(det_pred, det_gt)
        want = brute_detection_ap(det_pred, det_gt)
        if not all(nan_equal(getattr(got, k), getattr(want, k)) for k in ap_fields):
            mismatches.append(("detection", 34000 + offset))
        checked += 1

    map_fields = ("map", "map_locomotion", "map_object", "map_social", "map_others")
    for offset in range(100):
        rng = Xoshiro256(35000 + offset)
        gt, pred = tiny_tracks(rng)
        det_pred, det_gt = tiny_detection_sets(rng, gt, pred)
        beh_pred, beh_gt = tiny_behavior_sets(rng, det_pred, det_gt)
        got = behavior_map(beh_pred, beh_gt)
        want = brute_behavior_map(beh_pred, beh_gt)
        fine = all(nan_equal(getattr(got, k), getattr(want, k)) for k in map_fields)
        fine = fine and all(nan_equal(got.per_class[k], want.per_class[k]) for k in range(BEHAVIOR_COUNT))
        if not fine:
            mismatches.append(("behavior", 35000 + offset))
        checked += 1

    dt = time.perf_counter() - t0
    ok = not mismatches and checked == 500 and dt < 60.0
    _verdict(3, ok, f"clear/idf1/hota/detection-ap/behavior-map vs oracles: {checked - len(mismatches)}/{checked} tiny instances within 1e-9 in {dt:.1f}s (budget 60s)")


def test_criterion_04_mota_identity_and_reference_row():
    cfg = SceneConfig(agents=3, frames=40, stride=10)
    size = ImageSize(cfg.width, cfg.height)
    broken = 0
    for seed in range(30):
        scene = generate(cfg, 500 + seed)
        tracks = perturb_tracks(
            scene.gt_tracks, size, NoiseConfig(box_jitter=2.0, fn_rate=0.15, id_swap_rate=0.05), 600 + seed
        )
        dets = perturb_detections(
            scene.detections, size, NoiseConfig(box_jitter=2.0, fn_rate=0.1, fp_rate=0.4), 700 + seed
        )
        c = evaluate_sequence(scene.annotation, dets, tracks).clear
        if c.mota != 100.0 - c.n_fp - c.n_fn - c.n_ids:
            broken += 1
    row = 100.0 - 14.2 - 25.1 - 0.5
    ok = broken == 0 and abs(row - 60.0) <= 0.3
    _verdict(4, ok, f"mota == 100 - nFP - nFN - nIDs exact on 30/30 noisy evaluations; reference row 100-14.2-25.1-0.5 = {row:.1f} vs 60.0 (tolerance 0.3)")


def test_criterion_05_clean_scene_fixed_points():
    failures = []
    for seed in (1, 2, 3):
        scene = generate(SceneConfig(agents=4, frames=60, stride=10), seed)
        rep = evaluate_sequence(scene.annotation, scene.detections, scene.gt_tracks)
        values = {
            "mota": rep.clear.mota,
            "idf1": rep.idf1.idf1,
            "hota": rep.hota.hota,
            "det-map": rep.detection.ap,
            "beh-map": rep.behavior.map,
            "pck@0.05": rep.pck05.mean,
            "pck@0.1": rep.pck10.mean,
        }
        failures += [f"seed {seed}: {k}={v!r}" for k, v in values.items() if v != 100.0]
    ok = not failures
    detail = (
        "identity predictions score exactly 100.0 on mota/idf1/hota/det-map/beh-map/pck@0.05/pck@0.1 for 3 scenes"
        if ok
        else "; ".join(failures)
    )
    _verdict(5, ok, detail)


def test_criterion_06_noise_sweeps_are_monotone():
    cfg = SceneConfig(agents=3, frames=60, stride=5)
    size = ImageSize(cfg.width, cfg.height)
    scenes = [generate(cfg, 100 + s) for s in range(20)]
    rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    mota_means = []
    for rate in rates:
        vals = []
        for s, scene in enumerate(scenes):
            tracks = perturb_tracks(scene.gt_tracks, size, NoiseConfig(fn_rate=rate), 7000 + s)
            vals.append(clear_metrics(scene.gt_tracks, tracks).mota)
        mota_means.append(sum(vals) / len(vals))

    gts = [[(t.frame, t.box) for t in scene.gt_tracks] for scene in scenes]
    map_means = []
    for rate in rates:
        vals = []
        for s, scene in enumerate(scenes):
            dets = perturb_detections(scene.detections, size, NoiseConfig(fp_rate=rate), 8000 + s)
            preds = [(f, d.box, d.score) for f, ds in dets.items() for d in ds]
            vals.append(detection_ap(preds, gts[s]).ap)
        map_means.append(sum(vals) / len(vals))

    mota_strict = all(a > b for a, b in zip(mota_means, mota_means[1:]))
    map_strict = all(a > b for a, b in zip(map_means, map_means[1:]))
    ok = mota_strict and map_strict
    fmt = lambda vals: " > ".join(f"{v:.2f}" for v in vals)  # noqa: E731
    _verdict(6, ok, f"fn sweep mean mota {fmt(mota_means)}; fp sweep mean map {fmt(map_means)} (20 seeds per rate, both strictly decreasing)")


def test_criterion_07_forward_shape_contract():
    t0 = time.perf_counter()
    dims = ModelDims()  # 8 frames, 64x64, c_in 16, merge 16, channels 32, 10 queries, 23 classes
    video = np.random.default_rng(4707).normal(size=(dims.frames, dims.height, dims.width, 3))
    params = init_params(dims, seed=7)
    result = toy_forward(video, params, dims)

    expect = {
        "patch_tokens": (4, 16, 16, 16),
        "stage_1": (4, 16, 16, 16),
        "stage_2": (4, 8, 8, 32),
        "stage_3": (4, 4, 4, 64),
        "stage_4": (4, 2, 2, 128),
        "fused_1": (16, 16, 32),
        "fused_2": (8, 8, 32),
        "fused_3": (4, 4, 32),
        "fused_4": (2, 2, 32),
        "tokens": (340, 32),
        "query_features": (10, 32),
        "boxes": (10, 4),
        "class_conf": (10,),
        "behavior_probs": (10, 23),
    }
    shape_ok = all(result.shapes.get(k) == v for k, v in expect.items())

    out = result.outputs  # one window: a leading window axis of 1
    range_ok = (
        out.boxes.shape == (1, 10, 4)
        and out.class_conf.shape == (1, 10)
        and out.behavior_probs.shape == (1, 10, 23)
        and bool(np.all((out.boxes >= 0.0) & (out.boxes <= 1.0)))
        and bool(np.all((out.class_conf >= 0.0) & (out.class_conf <= 1.0)))
        and bool(np.all((out.behavior_probs >= 0.0) & (out.behavior_probs <= 1.0)))
    )

    index = np.concatenate([
        np.stack([np.full(h * w, s), *np.divmod(np.arange(h * w), w)], axis=1)
        for s, (h, w) in enumerate(dims.scale_shapes)
    ])
    base_sel, base_anchor = query_select(result.token_confidence, index, dims.scale_shapes, dims.queries)
    mono_ok = bool(np.array_equal(base_sel, result.selected_tokens))
    for transform in (lambda c: 3.0 * c + 1.0, np.tanh, lambda c: np.exp(c / 4.0)):
        sel, anchor = query_select(transform(result.token_confidence), index, dims.scale_shapes, dims.queries)
        mono_ok = mono_ok and bool(np.array_equal(sel, base_sel)) and bool(np.array_equal(anchor, base_anchor))

    dt = time.perf_counter() - t0
    ok = shape_ok and range_ok and mono_ok and dt < 10.0
    _verdict(7, ok, f"head outputs (1,10,4)/(1,10)/(1,10,23) in [0,1], 14 intermediate shapes pinned, top-10 selection invariant to 3 monotone transforms, {dt:.2f}s (budget 10s)")


def test_criterion_08_set_loss_sanity():
    gt = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.6, 0.15, 0.25]])
    gt_beh = np.array([[1, 0, 0, 1, 0], [0, 1, 0, 0, 0]], dtype=float)
    probs = np.array([1.0 - 1e-9, 1.0 - 1e-9, 1e-9])
    boxes = np.vstack([gt, [[0.5, 0.5, 0.1, 0.1]]])
    beh = np.vstack([np.clip(gt_beh, 1e-9, 1 - 1e-9), np.full((1, 5), 1e-9)])
    perfect = set_prediction_loss(probs, boxes, beh, gt, gt_beh).total
    perfect_ok = perfect < 1e-3

    w = LossWeights()
    p_neg = np.array([0.3, 0.8, 0.55])
    empty = set_prediction_loss(
        p_neg, np.tile(np.array([0.5, 0.5, 0.2, 0.2]), (3, 1)), np.full((3, 5), 0.5),
        np.zeros((0, 4)), np.zeros((0, 5)), w,
    ).total
    closed = w.cls * sum(focal_loss(p, 0)[0] for p in p_neg)
    empty_gap = abs(empty - closed)
    empty_ok = empty_gap <= 1e-9

    rng = Xoshiro256(4808)
    worst = 0.0
    for _ in range(100):
        q_probs = np.array([rng.uniform(0.05, 0.95) for _ in range(3)])
        q_boxes = np.array([_rel_box(rng) for _ in range(3)])
        q_beh = np.array([[rng.uniform(0.05, 0.95) for _ in range(4)] for _ in range(3)])
        g_boxes = np.array([_rel_box(rng) for _ in range(2)])
        g_beh = np.array([[float(rng.random() < 0.3) for _ in range(4)] for _ in range(2)])
        got = set_prediction_loss(q_probs, q_boxes, q_beh, g_boxes, g_beh).total
        want = brute_set_loss(q_probs, q_boxes, q_beh, g_boxes, g_beh)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    oracle_ok = worst <= 1e-9

    ok = perfect_ok and empty_ok and oracle_ok
    _verdict(8, ok, f"perfect loss {perfect:.1e} (<1e-3); empty-gt vs closed form gap {empty_gap:.1e} (<=1e-9); 3q/2gt oracle worst rel gap {worst:.1e} over 100 seeds")


def test_criterion_09_desk_run_under_budget(tmp_path):
    def run(*args: str):
        proc = subprocess.run(
            [sys.executable, "-m", "chimptrack.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    t0 = time.perf_counter()
    scene = tmp_path / "scene"
    run("synth", "--seed", "9", "--agents", "5", "--frames", "200",
        "--fn-rate", "0.1", "--fp-rate", "0.5", "--box-jitter", "2.0", "--out", str(scene))
    csv = tmp_path / "pred.csv"
    run("track", str(scene / "detections_noisy.json"), "--out", str(csv))
    gt = scene / "annotations.json"
    tracking_table = run("evaluate", "--gt", str(gt), "--pred", str(csv),
                         "--out", str(tmp_path / "track_metrics.json"))
    behavior_table = run("evaluate", "--task", "behavior", "--gt", str(gt),
                         "--pred", str(scene / "detections_noisy.json"),
                         "--out", str(tmp_path / "beh_metrics.json"))
    dt = time.perf_counter() - t0

    tracking_cols = ("HOTA", "MOTA", "MOTP", "IDF1", "mAP", "nFP", "nFN", "nIDs")
    behavior_cols = ("mAP", "mAP_L", "mAP_O", "mAP_S")
    cols_ok = all(c in tracking_table for c in tracking_cols) and all(c in behavior_table for c in behavior_cols)
    ok = cols_ok and dt < 10.0
    _verdict(9, ok, f"synth(5 agents, 200 frames, noisy) -> track -> evaluate in {dt:.2f}s (budget 10s), all tracking and behavior columns emitted")


def test_criterion_10_report_rendering_matches_goldens():
    tracking = render_tracking_table(
        [TrackingRow("reference", 56.3, 60.0, 21.6, 65.6, 75.2, 14.2, 25.1, 0.5)]
    )
    behavior = render_behavior_table([BehaviorRow("reference", 34.3, 50.3, 31.3, 29.3)])
    tracking_ok = tracking.encode() == (GOLDEN_DIR / "tracking_reference.txt").read_bytes()
    behavior_ok = behavior.encode() == (GOLDEN_DIR / "behavior_reference.txt").read_bytes()
    ok = tracking_ok and behavior_ok
    _verdict(10, ok, f"reference rows vs stored goldens: tracking byte-identical {tracking_ok}, behavior byte-identical {behavior_ok}")


def test_criterion_11_registry_integrity():
    counts_ok = BEHAVIOR_COUNT == 23 and len(ETHOGRAM) == 23
    cats = BEHAVIOR_CATEGORIES
    partition_ok = (
        cats["locomotion"] == (0, 1, 2, 3)
        and cats["object"] == (4, 5, 6)
        and cats["social"] == tuple(range(7, 21))
        and cats["others"] == (21, 22)
        and sorted(i for v in cats.values() for i in v) == list(range(23))
    )
    joints_ok = KEYPOINT_COUNT == 16 and len(set(KEYPOINT_NAMES)) == 16
    pairs = {7: 8, 11: 12, 13: 14, 15: 16, 17: 18}
    paired = set(pairs) | set(pairs.values())
    invol_ok = all(ETHOGRAM[a].counterpart == b and ETHOGRAM[b].counterpart == a for a, b in pairs.items())
    invol_ok = invol_ok and all((c.counterpart is None) == (c.index not in paired) for c in ETHOGRAM)
    ok = counts_ok and partition_ok and joints_ok and invol_ok
    _verdict(11, ok, "23 behavior classes split 4 locomotion / 3 object / 14 social / 2 others, 16 unique joints, 5 performer-receiver involutions")

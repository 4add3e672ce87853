"""Traced run: spans and counts recorded around chimptrack's layers from outside.

Nothing in the program is edited. `Tracer.installed()` replaces module and
class attributes with recording wrappers and restores them on exit. Each
name is wrapped in the module where the caller looks it up at call time:
`cli.run_tracker` rather than `tracker.run`, the metric functions on
`report` (which imports them by name), `iou_matrix` on each importing
module, and the kernel stages on `kernels`, whose globals `toy_forward`
resolves per call.

A span records (id, name, start, end, parent id, request id); one request is
one CLI command. Spans opened in worker threads with an empty stack take the
request's root span as parent. A span's self time is its duration minus the
union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Workloads on which each per-layer metric must show nonzero work; the
# metrics' names and units are in BENCHMARK.json.
LAYER_ON = {
    "cli.import_s": ("medium", "multiseq", "forward"),
    "cli.cpu_per_wall": ("medium", "multiseq", "forward"),
    "synth_s": ("medium",),
    "track_s": ("medium", "forward"),
    "evaluate_s": ("medium", "multiseq"),
    "evaluate_dets_s": ("medium",),
    "forward_s": ("forward",),
    "synth.generate_s": ("medium",),
    "synth.perturb_s": ("medium",),
    "rng.draws": ("medium",),
    "dataio.dump_s": ("medium", "multiseq", "forward"),
    "dataio.parse_detections_s": ("medium", "forward"),
    "dataio.parse_annotations_s": ("medium", "multiseq"),
    "dataio.mot_csv_s": ("medium", "multiseq", "forward"),
    "dataio.json_bytes": ("medium", "multiseq", "forward"),
    "tracker.run_self_s": ("medium", "forward"),
    "tracker.frames": ("medium", "forward"),
    "tracker.boxes_emitted": ("medium", "forward"),
    "assign.hungarian_s": ("medium", "multiseq", "forward"),
    "assign.hungarian_calls": ("medium", "multiseq", "forward"),
    "assign.lsa_calls": ("medium", "multiseq", "forward"),
    "assign.lsa_per_call": ("medium", "multiseq", "forward"),
    "geometry.iou_calls": ("medium", "multiseq"),
    "geometry.iou_matrix_calls": ("medium", "multiseq", "forward"),
    "metrics.clear_s": ("medium", "multiseq"),
    "metrics.idf1_s": ("medium", "multiseq"),
    "metrics.hota_s": ("medium", "multiseq"),
    "metrics.detection_ap_s": ("medium", "multiseq"),
    "metrics.keypoint_ap_s": ("medium", "multiseq"),
    "metrics.pck_s": ("medium",),
    "metrics.behavior_map_s": ("medium", "multiseq"),
    "metrics.oks_calls": ("medium",),
    "metrics.similarity_per_pair": ("medium", "multiseq"),
    "report.evaluate_sequence_self_s": ("medium", "multiseq"),
    "report.aggregate_s": ("multiseq",),
    "report.rescored_ratio": ("medium", "multiseq"),
    "report.render_s": ("medium", "multiseq"),
    "kernels.windows": ("forward",),
    "kernels.patch_partition_s": ("forward",),
    "kernels.stage_transform_s": ("forward",),
    "kernels.temporal_merge_s": ("forward",),
    "kernels.channel_map_s": ("forward",),
    "kernels.flatten_concat_s": ("forward",),
    "kernels.query_select_s": ("forward",),
    "kernels.deformable_sample_s": ("forward",),
    "kernels.head_s": ("forward",),
}


def _same_frame_pairs(preds, gts) -> int:
    """Distinct (pred, gt) pairs sharing a frame; entries start with their frame."""
    per_frame = Counter(g[0] for g in gts)
    return sum(per_frame[p[0]] for p in preds)


def _json_bytes(tracer, args, kwargs, result):
    tracer.count("dataio.json_bytes", Path(args[0]).stat().st_size)  # the CLI passes file paths


def _dumped_bytes(tracer, args, kwargs, result):
    tracer.count("dataio.json_bytes", len(result))  # dump_json emits ASCII


def _emitted(tracer, args, kwargs, result):
    tracer.count("tracker.boxes_emitted", len(result))


def _iou_pairs(tracer, args, kwargs, result):
    tracer.count("metrics.iou_pairs", _same_frame_pairs(args[0], args[1]))


def _oks_pairs(tracer, args, kwargs, result):
    tracer.count("metrics.oks_pairs", _same_frame_pairs(args[0], args[1]))


def _boxes_fed(tracer, args, kwargs, result):
    annotation, detections, tracks = args[:3]
    boxes = (
        sum(len(v) for v in annotation.frames.values())
        + sum(len(v) for v in detections.values())
        + len(tracks)
    )
    tracer.count("report.boxes_fed", boxes)
    if not tracer.within("report.aggregate"):
        tracer.count("report.boxes_input", boxes)


# (module, attribute, span name, observer called with the result)
SPANNED = (
    ("cli", "run_tracker", "tracker.run", _emitted),
    ("cli", "dump_json", "dataio.dump", _dumped_bytes),
    ("synth", "generate", "synth.generate", None),
    ("synth", "perturb_detections", "synth.perturb", None),
    ("dataio", "write_annotations", "dataio.dump", None),
    ("dataio", "write_detections", "dataio.dump", None),
    ("dataio", "parse_detections", "dataio.parse_detections", _json_bytes),
    ("dataio", "parse_annotations", "dataio.parse_annotations", _json_bytes),
    ("dataio", "write_mot_csv", "dataio.mot_csv", None),
    ("dataio", "parse_mot_csv", "dataio.mot_csv", None),
    ("assign", "hungarian", "assign.hungarian", None),
    ("tracker", "iou_matrix", "geometry.iou_matrix", None),
    ("metrics", "iou_matrix", "geometry.iou_matrix", None),
    ("report", "iou_matrix", "geometry.iou_matrix", None),
    ("report", "clear_metrics", "metrics.clear", None),
    ("report", "idf1", "metrics.idf1", None),
    ("report", "hota", "metrics.hota", None),
    ("report", "detection_ap", "metrics.detection_ap", _iou_pairs),
    ("report", "keypoint_ap", "metrics.keypoint_ap", _oks_pairs),
    ("report", "pck", "metrics.pck", None),
    ("report", "behavior_map", "metrics.behavior_map", None),
    ("report", "evaluate_sequence", "report.evaluate_sequence", _boxes_fed),
    ("report", "evaluate_sequences", "report.aggregate", None),
    ("report", "report_to_json", "report.render", None),
    ("report", "render_tracking_table", "report.render", None),
    ("report", "render_behavior_table", "report.render", None),
    ("report", "render_pose_table", "report.render", None),
    ("report", "render_detection_table", "report.render", None),
    ("kernels", "toy_forward", "kernels.toy_forward", None),
    ("kernels", "patch_partition_3d", "kernels.patch_partition", None),
    ("kernels", "stage_transform", "kernels.stage_transform", None),
    ("kernels", "temporal_merge", "kernels.temporal_merge", None),
    ("kernels", "channel_map", "kernels.channel_map", None),
    ("kernels", "flatten_concat", "kernels.flatten_concat", None),
    ("kernels", "query_select", "kernels.query_select", None),
    ("kernels", "deformable_sample", "kernels.deformable_sample", None),
    ("kernels", "head_forward", "kernels.head", None),
)

# Hot calls are counted, not spanned. (module, dotted attribute, count name)
COUNTED = (
    ("rng", "Xoshiro256.next_u64", "rng.draws"),
    ("tracker", "Tracker.step", "tracker.frames"),
    ("assign", "linear_sum_assignment", "assign.lsa_calls"),
    ("geometry", "iou", "geometry.iou_calls"),
    ("metrics", "oks", "metrics.oks_calls"),
)


class Tracer:
    """In-memory spans and counts; thread-safe for the evaluate worker pool."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request: int | None = None
        self._root: int | None = None

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def within(self, name: str) -> bool:
        """True if the calling thread is inside a span of this name."""
        return any(n == name for _, n in self._stack())

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self._root
        stack.append((sid, name))
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self._request))

    @contextmanager
    def request(self, request_id: int, name: str):
        """Root span of one CLI command; spans in worker threads hang off it."""
        self._request = request_id
        try:
            with self.span(name) as sid:
                self._root = sid
                yield
        finally:
            self._request = self._root = None

    def _spanned(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every instrumented name; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, observe in SPANNED:
                owner = importlib.import_module(f"chimptrack.{module}")
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._spanned(getattr(owner, attr), name, observe))
            for module, dotted, name in COUNTED:
                owner = importlib.import_module(f"chimptrack.{module}")
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._counted(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Total duration, self time and call count per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, start, end, _, _ in self.spans:
            total[name] += end - start
            own[name] += end - start - _covered(children.get(sid, ()), start, end)
            calls[name] += 1
        return total, own, calls

    def dump(self) -> dict:
        keys = ("id", "name", "start", "end", "parent", "request")
        return {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": dict(self.counts)}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, measured: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, from the trace plus the values measured outside it.

    A layer the workload bypasses reads 0.
    """
    total, own, calls = tracer.summary()
    counts = tracer.counts
    values = {
        **measured,
        "synth.generate_s": total["synth.generate"],
        "synth.perturb_s": total["synth.perturb"],
        "rng.draws": counts["rng.draws"],
        "dataio.dump_s": total["dataio.dump"],
        "dataio.parse_detections_s": total["dataio.parse_detections"],
        "dataio.parse_annotations_s": total["dataio.parse_annotations"],
        "dataio.mot_csv_s": total["dataio.mot_csv"],
        "dataio.json_bytes": counts["dataio.json_bytes"],
        "tracker.run_self_s": own["tracker.run"],
        "tracker.frames": counts["tracker.frames"],
        "tracker.boxes_emitted": counts["tracker.boxes_emitted"],
        "assign.hungarian_s": total["assign.hungarian"],
        "assign.hungarian_calls": calls["assign.hungarian"],
        "assign.lsa_calls": counts["assign.lsa_calls"],
        "assign.lsa_per_call": _ratio(counts["assign.lsa_calls"], calls["assign.hungarian"]),
        "geometry.iou_calls": counts["geometry.iou_calls"],
        "geometry.iou_matrix_calls": calls["geometry.iou_matrix"],
        "metrics.clear_s": total["metrics.clear"],
        "metrics.idf1_s": total["metrics.idf1"],
        "metrics.hota_s": total["metrics.hota"],
        "metrics.detection_ap_s": total["metrics.detection_ap"],
        "metrics.keypoint_ap_s": total["metrics.keypoint_ap"],
        "metrics.pck_s": total["metrics.pck"],
        "metrics.behavior_map_s": total["metrics.behavior_map"],
        "metrics.oks_calls": counts["metrics.oks_calls"],
        "metrics.similarity_per_pair": _ratio(
            counts["geometry.iou_calls"] + counts["metrics.oks_calls"],
            counts["metrics.iou_pairs"] + counts["metrics.oks_pairs"],
        ),
        "report.evaluate_sequence_self_s": own["report.evaluate_sequence"],
        "report.aggregate_s": total["report.aggregate"],
        "report.rescored_ratio": _ratio(counts["report.boxes_fed"], counts["report.boxes_input"]),
        "report.render_s": total["report.render"],
        "kernels.windows": calls["kernels.toy_forward"],
        "kernels.patch_partition_s": total["kernels.patch_partition"],
        "kernels.stage_transform_s": total["kernels.stage_transform"],
        "kernels.temporal_merge_s": total["kernels.temporal_merge"],
        "kernels.channel_map_s": total["kernels.channel_map"],
        "kernels.flatten_concat_s": total["kernels.flatten_concat"],
        "kernels.query_select_s": total["kernels.query_select"],
        "kernels.deformable_sample_s": total["kernels.deformable_sample"],
        "kernels.head_s": total["kernels.head"],
    }
    return {name: float(value) for name, value in values.items()}

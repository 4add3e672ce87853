"""Annotation and detection formats, plus the fixed label registries.

The sequence-annotation JSON layout is documented by the JSON-Schema file
shipped at ``chimptrack/schemas/annotations.schema.json``. Parsing here is
strict: unknown fields are rejected and every diagnostic carries a JSON-path
style location such as ``$.frames[2].instances[0].box``.

Conventions: frames are 0-based internally and only multiples of the
annotation stride carry ground truth; track ids are 1-based; keypoint
visibility uses 0 = outside the frame, 1 = present but obscured,
2 = clearly visible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .geometry import BoxXYXY, ImageSize

SCHEMA_VERSION = 1

KEYPOINT_NAMES = (
    "hip-root",
    "r-knee",
    "r-ankle",
    "l-knee",
    "l-ankle",
    "neck",
    "upper-lip",
    "lower-lip",
    "r-eye",
    "l-eye",
    "r-shoulder",
    "r-elbow",
    "r-wrist",
    "l-shoulder",
    "l-elbow",
    "l-wrist",
)
KEYPOINT_COUNT = len(KEYPOINT_NAMES)

BOX_VISIBILITY = ("full", "truncated", "occluded")


@dataclass(frozen=True)
class EthogramClass:
    index: int
    name: str
    category: str
    counterpart: int | None = None  # performer/receiver partner class, if any


def _build_ethogram() -> tuple[EthogramClass, ...]:
    table = [
        ("moving", "locomotion"),
        ("climbing", "locomotion"),
        ("resting", "locomotion"),
        ("sleeping", "locomotion"),
        ("solitary_object_playing", "object"),
        ("eating", "object"),
        ("manipulating_object", "object"),
        ("grooming", "social"),
        ("being_groomed", "social"),
        ("aggressing", "social"),
        ("embracing", "social"),
        ("begging", "social"),
        ("being_begged_from", "social"),
        ("taking_object", "social"),
        ("losing_object", "social"),
        ("carrying", "social"),
        ("being_carried", "social"),
        ("nursing", "social"),
        ("being_nursed", "social"),
        ("playing", "social"),
        ("touching", "social"),
        ("erection", "others"),
        ("displaying", "others"),
    ]
    partners = {7: 8, 11: 12, 13: 14, 15: 16, 17: 18}
    partners.update({v: k for k, v in partners.items()})
    return tuple(
        EthogramClass(i, name, cat, partners.get(i)) for i, (name, cat) in enumerate(table)
    )


ETHOGRAM = _build_ethogram()
BEHAVIOR_COUNT = len(ETHOGRAM)
BEHAVIOR_CATEGORIES = {
    "locomotion": tuple(c.index for c in ETHOGRAM if c.category == "locomotion"),
    "object": tuple(c.index for c in ETHOGRAM if c.category == "object"),
    "social": tuple(c.index for c in ETHOGRAM if c.category == "social"),
    "others": tuple(c.index for c in ETHOGRAM if c.category == "others"),
}
_NAME_TO_INDEX = {c.name: c.index for c in ETHOGRAM}


def ethogram_class(key: int | str) -> EthogramClass:
    """Look up a behavior class by index or by name."""
    if isinstance(key, str):
        if key not in _NAME_TO_INDEX:
            raise KeyError(f"unknown behavior name: {key!r}")
        return ETHOGRAM[_NAME_TO_INDEX[key]]
    if not 0 <= key < BEHAVIOR_COUNT:
        raise KeyError(f"behavior index out of range: {key}")
    return ETHOGRAM[key]


@dataclass(frozen=True)
class InstanceAnnotation:
    """One animal in one annotated frame."""

    track_id: int
    box: BoxXYXY
    box_visibility: str = "full"
    behaviors: tuple[int, ...] = ()
    pose: tuple[tuple[float, float, int], ...] | None = None  # 16 x (x, y, visibility)
    identity: str | None = None


@dataclass(frozen=True)
class SequenceAnnotation:
    sequence_id: str
    image_size: ImageSize
    frame_count: int
    stride: int = 10
    frames: dict[int, tuple[InstanceAnnotation, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class DetectionRecord:
    """One detection in one frame; boxes are absolute pixel corners."""

    box: BoxXYXY
    score: float
    behavior_scores: tuple[float, ...] | None = None
    pose: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class TrackedBox:
    """One box of one identity in one frame (0-based frame, 1-based id)."""

    frame: int
    track_id: int
    box: BoxXYXY
    score: float = 1.0
    behavior_scores: tuple[float, ...] | None = None


class AnnotationError(ValueError):
    """Parse failure with a JSON-path style location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _check_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise AnnotationError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise AnnotationError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise AnnotationError(path, f"missing required field {key!r}")


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise AnnotationError(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AnnotationError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise AnnotationError(path, f"expected a finite number, got {value!r}")
    return number


def _as_image_size(value) -> ImageSize:
    _check_keys(value, "$.image_size", required=("width", "height"))
    width = _as_int(value["width"], "$.image_size.width")
    height = _as_int(value["height"], "$.image_size.height")
    if width <= 0 or height <= 0:
        raise AnnotationError("$.image_size", f"image size must be positive, got {width}x{height}")
    return ImageSize(width, height)


def _as_box(value, path: str) -> BoxXYXY:
    if not isinstance(value, list) or len(value) != 4:
        raise AnnotationError(path, "expected [x1, y1, x2, y2]")
    x1, y1, x2, y2 = (_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    if x2 <= x1 or y2 <= y1:
        raise AnnotationError(path, f"degenerate box: [{x1}, {y1}, {x2}, {y2}]")
    return BoxXYXY(x1, y1, x2, y2)


def _parse_instance(obj, path: str, size: ImageSize) -> InstanceAnnotation:
    _check_keys(
        obj,
        path,
        required=("track_id", "box", "box_visibility", "behaviors"),
        optional=("pose", "identity"),
    )
    track_id = _as_int(obj["track_id"], f"{path}.track_id")
    if track_id < 1:
        raise AnnotationError(f"{path}.track_id", f"track ids are 1-based, got {track_id}")
    box = _as_box(obj["box"], f"{path}.box")
    vis = obj["box_visibility"]
    if vis not in BOX_VISIBILITY:
        raise AnnotationError(f"{path}.box_visibility", f"expected one of {BOX_VISIBILITY}, got {vis!r}")
    raw = obj["behaviors"]
    if not isinstance(raw, list):
        raise AnnotationError(f"{path}.behaviors", "expected a list of class indices")
    behaviors = []
    for i, b in enumerate(raw):
        b = _as_int(b, f"{path}.behaviors[{i}]")
        if not 0 <= b < BEHAVIOR_COUNT:
            raise AnnotationError(f"{path}.behaviors[{i}]", f"class index out of range: {b}")
        if b in behaviors:
            raise AnnotationError(f"{path}.behaviors[{i}]", f"duplicate class index: {b}")
        behaviors.append(b)
    pose = None
    if "pose" in obj:
        raw_pose = obj["pose"]
        if not isinstance(raw_pose, list) or len(raw_pose) != KEYPOINT_COUNT:
            raise AnnotationError(f"{path}.pose", f"expected {KEYPOINT_COUNT} joints")
        joints = []
        for j, item in enumerate(raw_pose):
            jpath = f"{path}.pose[{j}]"
            if not isinstance(item, list) or len(item) != 3:
                raise AnnotationError(jpath, "expected [x, y, visibility]")
            x = _as_number(item[0], f"{jpath}[0]")
            y = _as_number(item[1], f"{jpath}[1]")
            v = _as_int(item[2], f"{jpath}[2]")
            if v not in (0, 1, 2):
                raise AnnotationError(f"{jpath}[2]", f"visibility must be 0, 1, or 2, got {v}")
            joints.append((x, y, v))
        pose = tuple(joints)
    identity = obj.get("identity")
    if identity is not None and not isinstance(identity, str):
        raise AnnotationError(f"{path}.identity", f"expected a string, got {identity!r}")
    return InstanceAnnotation(track_id, box, vis, tuple(sorted(behaviors)), pose, identity)


def parse_annotations(data: dict | str | Path) -> SequenceAnnotation:
    """Parse and validate a sequence-annotation document.

    Accepts a parsed dict, a JSON string, or a path to a JSON file. Raises
    AnnotationError with a precise path on the first violation.
    """
    if isinstance(data, Path):
        data = json.loads(data.read_text())
    elif isinstance(data, str):
        data = json.loads(data)
    _check_keys(
        data,
        "$",
        required=(
            "schema_version",
            "sequence_id",
            "image_size",
            "frame_count",
            "annotation_stride",
            "frames",
        ),
    )
    version = _as_int(data["schema_version"], "$.schema_version")
    if version != SCHEMA_VERSION:
        raise AnnotationError("$.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")
    if not isinstance(data["sequence_id"], str) or not data["sequence_id"]:
        raise AnnotationError("$.sequence_id", "expected a non-empty string")
    size = _as_image_size(data["image_size"])
    frame_count = _as_int(data["frame_count"], "$.frame_count")
    if frame_count <= 0:
        raise AnnotationError("$.frame_count", f"must be positive, got {frame_count}")
    stride = _as_int(data["annotation_stride"], "$.annotation_stride")
    if stride <= 0:
        raise AnnotationError("$.annotation_stride", f"must be positive, got {stride}")

    if not isinstance(data["frames"], list):
        raise AnnotationError("$.frames", "expected a list of frame entries")
    frames: dict[int, tuple[InstanceAnnotation, ...]] = {}
    prev = -1
    for i, entry in enumerate(data["frames"]):
        fpath = f"$.frames[{i}]"
        _check_keys(entry, fpath, required=("frame", "instances"))
        frame = _as_int(entry["frame"], f"{fpath}.frame")
        if frame % stride != 0:
            raise AnnotationError(f"{fpath}.frame", f"{frame} is not a multiple of the stride {stride}")
        if not 0 <= frame < frame_count:
            raise AnnotationError(f"{fpath}.frame", f"{frame} outside [0, {frame_count})")
        if frame <= prev:
            raise AnnotationError(f"{fpath}.frame", f"frames must be strictly increasing, got {frame} after {prev}")
        prev = frame
        if not isinstance(entry["instances"], list):
            raise AnnotationError(f"{fpath}.instances", "expected a list")
        instances = []
        seen_ids = set()
        for j, inst in enumerate(entry["instances"]):
            parsed = _parse_instance(inst, f"{fpath}.instances[{j}]", size)
            if parsed.track_id in seen_ids:
                raise AnnotationError(
                    f"{fpath}.instances[{j}].track_id", f"duplicate track id {parsed.track_id} in frame {frame}"
                )
            seen_ids.add(parsed.track_id)
            instances.append(parsed)
        frames[frame] = tuple(instances)
    return SequenceAnnotation(data["sequence_id"], size, frame_count, stride, frames)


def write_annotations(seq: SequenceAnnotation) -> dict:
    """Serialize to the documented JSON layout; parse_annotations inverts exactly."""
    frames = []
    for frame in sorted(seq.frames):
        instances = []
        for inst in seq.frames[frame]:
            obj: dict[str, Any] = {
                "track_id": inst.track_id,
                "box": list(inst.box),
                "box_visibility": inst.box_visibility,
                "behaviors": list(inst.behaviors),
            }
            if inst.pose is not None:
                obj["pose"] = [[x, y, v] for x, y, v in inst.pose]
            if inst.identity is not None:
                obj["identity"] = inst.identity
            instances.append(obj)
        frames.append({"frame": frame, "instances": instances})
    return {
        "schema_version": SCHEMA_VERSION,
        "sequence_id": seq.sequence_id,
        "image_size": {"width": seq.image_size.width, "height": seq.image_size.height},
        "frame_count": seq.frame_count,
        "annotation_stride": seq.stride,
        "frames": frames,
    }


def parse_detections(data: dict | str | Path) -> tuple[str, ImageSize, dict[int, list[DetectionRecord]]]:
    """Parse a detections document: sequence id, image size, frame -> detections."""
    if isinstance(data, Path):
        data = json.loads(data.read_text())
    elif isinstance(data, str):
        data = json.loads(data)
    _check_keys(data, "$", required=("schema_version", "sequence_id", "image_size", "frames"))
    version = _as_int(data["schema_version"], "$.schema_version")
    if version != SCHEMA_VERSION:
        raise AnnotationError("$.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")
    if not isinstance(data["sequence_id"], str) or not data["sequence_id"]:
        raise AnnotationError("$.sequence_id", "expected a non-empty string")
    size = _as_image_size(data["image_size"])
    if not isinstance(data["frames"], list):
        raise AnnotationError("$.frames", "expected a list")
    frames: dict[int, list[DetectionRecord]] = {}
    prev = -1
    for i, entry in enumerate(data["frames"]):
        fpath = f"$.frames[{i}]"
        _check_keys(entry, fpath, required=("frame", "detections"))
        frame = _as_int(entry["frame"], f"{fpath}.frame")
        if frame <= prev:
            raise AnnotationError(f"{fpath}.frame", f"frames must be strictly increasing, got {frame} after {prev}")
        prev = frame
        if not isinstance(entry["detections"], list):
            raise AnnotationError(f"{fpath}.detections", "expected a list")
        records = []
        for j, det in enumerate(entry["detections"]):
            dpath = f"{fpath}.detections[{j}]"
            _check_keys(det, dpath, required=("box", "score", "behavior_scores"), optional=("pose",))
            box = _as_box(det["box"], f"{dpath}.box")
            score = _as_number(det["score"], f"{dpath}.score")
            if not 0.0 <= score <= 1.0:
                raise AnnotationError(f"{dpath}.score", f"score must lie in [0, 1], got {score}")
            raw_scores = det["behavior_scores"]
            if not isinstance(raw_scores, list) or len(raw_scores) != BEHAVIOR_COUNT:
                raise AnnotationError(f"{dpath}.behavior_scores", f"expected {BEHAVIOR_COUNT} scores")
            scores = tuple(_as_number(s, f"{dpath}.behavior_scores[{k}]") for k, s in enumerate(raw_scores))
            if any(not 0.0 <= s <= 1.0 for s in scores):
                raise AnnotationError(f"{dpath}.behavior_scores", "scores must lie in [0, 1]")
            pose = None
            if "pose" in det:
                raw_pose = det["pose"]
                if not isinstance(raw_pose, list) or len(raw_pose) != KEYPOINT_COUNT:
                    raise AnnotationError(f"{dpath}.pose", f"expected {KEYPOINT_COUNT} joints")
                joints = []
                for k, p in enumerate(raw_pose):
                    if not isinstance(p, list) or len(p) != 2:
                        raise AnnotationError(f"{dpath}.pose[{k}]", "expected [x, y]")
                    joints.append((_as_number(p[0], f"{dpath}.pose[{k}][0]"), _as_number(p[1], f"{dpath}.pose[{k}][1]")))
                pose = tuple(joints)
            records.append(DetectionRecord(box, score, scores, pose))
        frames[frame] = records
    return data["sequence_id"], size, frames


def write_detections(sequence_id: str, size: ImageSize, frames: dict[int, list[DetectionRecord]]) -> dict:
    out = []
    for frame in sorted(frames):
        dets = []
        for det in frames[frame]:
            obj: dict[str, Any] = {
                "box": list(det.box),
                "score": det.score,
                "behavior_scores": list(det.behavior_scores if det.behavior_scores is not None else [0.0] * BEHAVIOR_COUNT),
            }
            if det.pose is not None:
                obj["pose"] = [[x, y] for x, y in det.pose]
            dets.append(obj)
        out.append({"frame": frame, "detections": dets})
    return {
        "schema_version": SCHEMA_VERSION,
        "sequence_id": sequence_id,
        "image_size": {"width": size.width, "height": size.height},
        "frames": out,
    }


def write_mot_csv(tracks: list[TrackedBox]) -> str:
    """Render tracks as `frame,id,x,y,w,h,conf,-1,-1,-1` lines.

    Frames are written 1-based; ids must already be 1-based. Reals use six
    decimals. Rows sort by (frame, id).
    """
    lines = []
    for t in sorted(tracks, key=lambda t: (t.frame, t.track_id)):
        if t.frame < 0:
            raise ValueError(f"negative frame index: {t.frame}")
        if t.track_id < 1:
            raise ValueError(f"track ids are 1-based, got {t.track_id}")
        x1, y1, x2, y2 = t.box
        lines.append(
            f"{t.frame + 1},{t.track_id},{x1:.6f},{y1:.6f},{x2 - x1:.6f},{y2 - y1:.6f},{t.score:.6f},-1,-1,-1"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_mot_csv(text: str) -> list[TrackedBox]:
    """Inverse of write_mot_csv; exact for 6-decimal-representable values."""
    tracks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ValueError(f"line {lineno}: expected 10 comma-separated fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track_id = int(parts[1])
            x, y, w, h, conf = (float(p) for p in parts[2:7])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in (x, y, w, h, conf)):
            raise ValueError(f"line {lineno}: non-finite value in {line!r}")
        if frame < 1:
            raise ValueError(f"line {lineno}: frames are 1-based, got {frame}")
        if track_id < 1:
            raise ValueError(f"line {lineno}: track ids are 1-based, got {track_id}")
        if w <= 0 or h <= 0:
            raise ValueError(f"line {lineno}: degenerate box {w}x{h}")
        tracks.append(TrackedBox(frame - 1, track_id, BoxXYXY(x, y, x + w, y + h), conf))
    return tracks


def dump_json(obj: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"

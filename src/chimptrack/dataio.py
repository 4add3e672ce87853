"""Annotation and detection formats, plus the fixed label registries.

The sequence-annotation JSON layout is documented by the JSON-Schema file
shipped at ``chimptrack/schemas/annotations.schema.json``. Parsing here is
strict: unknown fields are rejected and every diagnostic carries a JSON-path
style location such as ``$.frames[2].instances[0].box``.

Conventions: frames are 0-based internally and only multiples of the
annotation stride carry ground truth; track ids are 1-based; keypoint
visibility uses 0 = outside the frame, 1 = present but obscured,
2 = clearly visible.

dump_json is the package's only JSON writer (files and JSON stdout alike).
Its text is the standard library's ``json.dumps(obj, indent=2,
sort_keys=True)`` plus a newline, byte for byte, with floats spelled by
``float.__repr__``; it is faster only because it joins strings instead of
running the stdlib's per-value Python encoder.
"""

from __future__ import annotations

import json
import math
from collections.abc import Container
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
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
        super().__init__(path, message)  # both in args, so the error pickles
        self.path = path
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


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


def _as_number(value, path: str, *index: int) -> float:
    """A JSON number as a finite float; `index` continues the path, formatted only on failure."""
    if type(value) is float and value - value == 0.0:  # nan - nan and inf - inf are nan
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = "expected a number"
    else:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
        problem = "expected a finite number"
    raise AnnotationError(path + "".join(f"[{i}]" for i in index), f"{problem}, got {value!r}")


def _as_numbers(values: list, path: str, *index: int) -> tuple[float, ...]:
    """Each entry of a JSON number list as _as_number gives it; a list of finite floats is kept as is."""
    for value in values:
        if type(value) is not float or value - value != 0.0:
            return tuple([_as_number(v, path, *index, k) for k, v in enumerate(values)])
    return tuple(values)


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
    x1, y1, x2, y2 = _as_numbers(value, path)
    if x2 <= x1 or y2 <= y1:
        raise AnnotationError(path, f"degenerate box: [{x1}, {y1}, {x2}, {y2}]")
    return BoxXYXY(x1, y1, x2, y2)


def _parse_header(data: dict | str | Path, extra: tuple[str, ...] = ()) -> tuple[dict, ImageSize]:
    """Load a document and check the header both formats share.

    Accepts a parsed dict, a JSON string, or a path to a JSON file. The
    required top-level fields are schema_version, sequence_id, image_size,
    the format's extra fields, and frames. Returns the document and its
    image size.
    """
    if isinstance(data, Path):
        data = json.loads(data.read_text())
    elif isinstance(data, str):
        data = json.loads(data)
    _check_keys(data, "$", required=("schema_version", "sequence_id", "image_size", *extra, "frames"))
    version = _as_int(data["schema_version"], "$.schema_version")
    if version != SCHEMA_VERSION:
        raise AnnotationError("$.schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}")
    if not isinstance(data["sequence_id"], str) or not data["sequence_id"]:
        raise AnnotationError("$.sequence_id", "expected a non-empty string")
    return data, _as_image_size(data["image_size"])


def _frame_entries(data: dict, items: str, stride: int = 1, frame_count: int | None = None):
    """Yield (path, frame, item list) for each entry of $.frames.

    Frames must be non-negative, strictly increasing, multiples of the stride,
    and inside [0, frame_count) when a frame count is given.
    """
    if not isinstance(data["frames"], list):
        raise AnnotationError("$.frames", "expected a list of frame entries")
    prev = -1
    for i, entry in enumerate(data["frames"]):
        fpath = f"$.frames[{i}]"
        _check_keys(entry, fpath, required=("frame", items))
        frame = _as_int(entry["frame"], f"{fpath}.frame")
        if frame % stride != 0:
            raise AnnotationError(f"{fpath}.frame", f"{frame} is not a multiple of the stride {stride}")
        if frame_count is not None and not 0 <= frame < frame_count:
            raise AnnotationError(f"{fpath}.frame", f"{frame} outside [0, {frame_count})")
        if frame < 0:
            raise AnnotationError(f"{fpath}.frame", f"frames must be non-negative, got {frame}")
        if frame <= prev:
            raise AnnotationError(f"{fpath}.frame", f"frames must be strictly increasing, got {frame} after {prev}")
        prev = frame
        if not isinstance(entry[items], list):
            raise AnnotationError(f"{fpath}.{items}", "expected a list")
        yield fpath, frame, entry[items]


def _as_pose(joints: list, path: str) -> tuple[tuple[float, float, int], ...]:
    """Each [x, y, visibility] joint as a tuple; a pose of [finite float, finite float, 0|1|2] rows is kept as is.

    At the first other row, every joint is checked from the first one, so the
    diagnostic is the first bad value's.
    """
    for item in joints:
        if type(item) is not list or len(item) != 3:
            break
        x, y, v = item
        # nan - nan and inf - inf are nan
        if type(x) is not float or type(y) is not float or x - x != 0.0 or y - y != 0.0:
            break
        if type(v) is not int or not 0 <= v <= 2:
            break
    else:
        return tuple(map(tuple, joints))
    checked = []
    for j, item in enumerate(joints):
        jpath = f"{path}[{j}]"
        if not isinstance(item, list) or len(item) != 3:
            raise AnnotationError(jpath, "expected [x, y, visibility]")
        x = _as_number(item[0], jpath, 0)
        y = _as_number(item[1], jpath, 1)
        v = _as_int(item[2], f"{jpath}[2]")
        if v not in (0, 1, 2):
            raise AnnotationError(f"{jpath}[2]", f"visibility must be 0, 1, or 2, got {v}")
        checked.append((x, y, v))
    return tuple(checked)


def _parse_instance(obj, path: str) -> InstanceAnnotation:
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
        pose = _as_pose(raw_pose, f"{path}.pose")
    identity = obj.get("identity")
    if identity is not None and not isinstance(identity, str):
        raise AnnotationError(f"{path}.identity", f"expected a string, got {identity!r}")
    return InstanceAnnotation(track_id, box, vis, tuple(sorted(behaviors)), pose, identity)


def parse_annotations(data: dict | str | Path) -> SequenceAnnotation:
    """Parse and validate a sequence-annotation document.

    Accepts a parsed dict, a JSON string, or a path to a JSON file. Raises
    AnnotationError with a precise path on the first violation.
    """
    data, size = _parse_header(data, extra=("frame_count", "annotation_stride"))
    frame_count = _as_int(data["frame_count"], "$.frame_count")
    if frame_count <= 0:
        raise AnnotationError("$.frame_count", f"must be positive, got {frame_count}")
    stride = _as_int(data["annotation_stride"], "$.annotation_stride")
    if stride <= 0:
        raise AnnotationError("$.annotation_stride", f"must be positive, got {stride}")

    frames: dict[int, tuple[InstanceAnnotation, ...]] = {}
    for fpath, frame, raw in _frame_entries(data, "instances", stride, frame_count):
        instances = []
        seen_ids = set()
        for j, inst in enumerate(raw):
            parsed = _parse_instance(inst, f"{fpath}.instances[{j}]")
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
    data, size = _parse_header(data)
    frames: dict[int, list[DetectionRecord]] = {}
    for fpath, frame, raw in _frame_entries(data, "detections"):
        records = []
        for j, det in enumerate(raw):
            dpath = f"{fpath}.detections[{j}]"
            _check_keys(det, dpath, required=("box", "score", "behavior_scores"), optional=("pose",))
            box = _as_box(det["box"], f"{dpath}.box")
            score = _as_number(det["score"], f"{dpath}.score")
            if not 0.0 <= score <= 1.0:
                raise AnnotationError(f"{dpath}.score", f"score must lie in [0, 1], got {score}")
            raw_scores = det["behavior_scores"]
            if not isinstance(raw_scores, list) or len(raw_scores) != BEHAVIOR_COUNT:
                raise AnnotationError(f"{dpath}.behavior_scores", f"expected {BEHAVIOR_COUNT} scores")
            scores = _as_numbers(raw_scores, f"{dpath}.behavior_scores")
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
                    joints.append(_as_numbers(p, f"{dpath}.pose", k))
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


def parse_mot_csv(text: str, frames: Container[int] | None = None) -> list[TrackedBox]:
    """Inverse of write_mot_csv; exact for 6-decimal-representable values.

    Every row is checked, in order, and the first bad one raises ValueError
    with its 1-based line number. With frames given, only the rows on those
    0-based frames become TrackedBoxes, in file order; the rest are checked
    and dropped.
    """
    tracks = []
    isfinite = math.isfinite
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise ValueError(f"line {lineno}: expected 10 comma-separated fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track_id = int(parts[1])
            x, y, w, h, conf = map(float, parts[2:7])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h) and isfinite(conf)):
            raise ValueError(f"line {lineno}: non-finite value in {line!r}")
        if frame < 1:
            raise ValueError(f"line {lineno}: frames are 1-based, got {frame}")
        if track_id < 1:
            raise ValueError(f"line {lineno}: track ids are 1-based, got {track_id}")
        if w <= 0 or h <= 0:
            raise ValueError(f"line {lineno}: degenerate box {w}x{h}")
        if frames is None or frame - 1 in frames:
            tracks.append(TrackedBox(frame - 1, track_id, BoxXYXY(x, y, x + w, y + h), conf))
    return tracks


def dump_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
    (chimptrack.oracles.stdlib_dump_json), and the same inputs raise the same
    TypeError or ValueError. Floats are written by ``float.__repr__``, so NumPy
    float64 values print as plain numbers; NaN and infinities are written as
    NaN / Infinity / -Infinity. Every JSON file and JSON stdout of the package
    comes from here.
    """
    return _json_value(obj, "", set()) + "\n"


# Before Python 3.13 the stdlib's C encoder cannot indent, and its Python
# encoder takes one generator step per value. This writer joins strings
# instead: a list of floats is one join over float.__repr__, redone value by
# value only when the text holds an "n" (nan, inf).
_float_repr = float.__repr__
_int_repr = int.__repr__


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return _float_repr(value)


def _json_value(value, pad: str, active: set) -> str:
    """One value indented at `pad`; `active` holds the ids of the open containers.

    No class derives from two of list/tuple, float, str, int and dict, so only
    bool (an int) depends on the order of the tests; the rest is ordered for
    speed.
    """
    if isinstance(value, (list, tuple)):
        return _json_list(value, pad, active)
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_repr(value)
    if isinstance(value, dict):
        return _json_dict(value, pad, active)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_list(values, pad: str, active: set) -> str:
    if not values:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    try:
        text = sep.join(map(_float_repr, values))
    except TypeError:  # not a list of floats
        marker = _enter(values, active)
        text = sep.join([_json_value(v, inner, active) for v in values])
        active.discard(marker)
    else:
        if "n" in text:
            text = sep.join(map(_json_float, values))
    return f"[\n{inner}{text}\n{pad}]"


def _json_dict(obj: dict, pad: str, active: set) -> str:
    if not obj:
        return "{}"
    marker = _enter(obj, active)
    inner = pad + "  "
    text = (",\n" + inner).join([f"{_json_key(k)}: {_json_value(v, inner, active)}" for k, v in sorted(obj.items())])
    active.discard(marker)
    return f"{{\n{inner}{text}\n{pad}}}"


def _json_key(key) -> str:
    if isinstance(key, str):
        text = key
    elif isinstance(key, float):
        text = _json_float(key)
    elif key is True:
        text = "true"
    elif key is False:
        text = "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = _int_repr(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _json_string(text)


def _enter(container, active: set) -> int:
    marker = id(container)
    if marker in active:
        raise ValueError("Circular reference detected")
    active.add(marker)
    return marker

"""Annotation and detection formats, plus the fixed label registries.

The sequence-annotation JSON layout is documented by the JSON-Schema file
shipped at ``chimptrack/schemas/annotations.schema.json``. Parsing here is
strict: unknown fields are rejected and every diagnostic carries a JSON-path
style location such as ``$.frames[2].instances[0].box``.

Conventions: frames are 0-based internally and only multiples of the
annotation stride carry ground truth; track ids are 1-based; keypoint
visibility uses 0 = outside the frame, 1 = present but obscured,
2 = clearly visible.

dump_json's text is the standard library's ``json.dumps(obj, indent=2,
sort_keys=True)`` plus a newline, byte for byte, with floats spelled by
``float.__repr__``; it is faster only because it joins strings instead of
running the stdlib's per-value Python encoder. write_json renders the same
text through the same walk and writes it to a file as each entry of a list
ends (a detections file's frames), so a detections file's text is never held
whole. These two are the package's JSON writers (files and JSON stdout
alike).

parse_detections reads a detections file READ_SIZE bytes and one frame entry
at a time, and keeps records only on the frames it is given; any text it
does not take goes through json.loads whole, so every error is the one the
whole-text path gives.
"""

from __future__ import annotations

import codecs
import io
import json
import math
import re
from collections.abc import Container, Iterable
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


def _frames_list(data: dict) -> list:
    if not isinstance(data["frames"], list):
        raise AnnotationError("$.frames", "expected a list of frame entries")
    return data["frames"]


def _frame_entries(entries: Iterable, items: str, stride: int = 1, frame_count: int | None = None):
    """Yield (path, frame, item list) for each entry of $.frames, taken from `entries` one at a time.

    Frames must be non-negative, strictly increasing, multiples of the stride,
    and inside [0, frame_count) when a frame count is given.
    """
    prev = -1
    for i, entry in enumerate(entries):
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
    for fpath, frame, raw in _frame_entries(_frames_list(data), "instances", stride, frame_count):
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


def parse_detections(
    data: dict | str | Path, frames: Container[int] | None = None, boxes_only: bool = False
) -> tuple[str, ImageSize, dict[int, list[DetectionRecord]]]:
    """Parse a detections document: sequence id, image size, frame -> detections.

    Every entry is checked. With frames given, only the entries on those
    frames become DetectionRecords; the rest are checked and dropped. With
    boxes_only, each pose and behavior score is checked and the records carry
    only their box and score.

    A path is decoded READ_SIZE bytes at a time, one $.frames entry at a
    time, so no decoded tree of the whole file is ever held and a dropped
    entry frees its memory before the next is read. At the first text or
    value that this reader does not take (a JSON syntax error, a top level
    that is not an object, any failed check), the whole text goes through
    json.loads and the checks in document order, as a parsed dict or a JSON
    string does; so the error raised, and its order among others, is the one
    json.loads and those checks give.
    """
    if isinstance(data, Path):
        try:
            return _stream_detections(data, frames, boxes_only)
        except (ValueError, RecursionError):
            data = data.read_text()
    data, size = _parse_header(data)
    return data["sequence_id"], size, _detection_frames(_frames_list(data), frames, boxes_only)


def _detection_frames(entries: Iterable, frames: Container[int] | None, boxes_only: bool) -> dict[int, list[DetectionRecord]]:
    out: dict[int, list[DetectionRecord]] = {}
    for fpath, frame, raw in _frame_entries(entries, "detections"):
        records = [_detection(det, f"{fpath}.detections[{j}]", boxes_only) for j, det in enumerate(raw)]
        if frames is None or frame in frames:
            out[frame] = records
    return out


def _detection(det, dpath: str, boxes_only: bool) -> DetectionRecord:
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
    if boxes_only:
        return DetectionRecord(box, score)
    return DetectionRecord(box, score, scores, pose)


# bytes per read of a detections file: 256 KiB decode as fast as 1 MiB, which fault in more fresh pages
READ_SIZE = 1 << 18

_WHITESPACE = re.compile(r"[ \t\n\r]*")  # json's whitespace
_decode = json.JSONDecoder().raw_decode  # json.loads's decoder, one value at a time


def _stream_detections(path: Path, frames: Container[int] | None, boxes_only: bool):
    """parse_detections of a file, one $.frames entry at a time; ValueError wherever it is not sure."""
    header: dict[str, Any] = {}
    with open(path) as f:  # the encoding, errors and newlines of Path.read_text
        reader = _JsonReader(f)
        for key in reader.keys():  # of repeated keys, the last one's value stays, as with json.loads
            if key == "frames":
                header[key] = []
                records = _detection_frames(reader.items(), frames, boxes_only)
            else:
                header[key] = reader.value()
        reader.end()
    _, size = _parse_header(header)
    return header["sequence_id"], size, records


class _JsonReader:
    """The top-level object of a JSON text, read from a text file READ_SIZE bytes at a time.

    It takes a subset of what json.loads takes, an object with at least one
    key, and decodes each value with json.loads's own decoder. Anything else
    raises ValueError, and so does a JSON syntax error; the caller then reads
    the text whole.
    """

    def __init__(self, file):
        # bytes through the decoders Path.read_text's text file would use; the text file
        # itself would also keep each read's bytes until the next one
        self.raw = file.buffer
        decoder = codecs.getincrementaldecoder(file.encoding)(file.errors)
        self.decoder = io.IncrementalNewlineDecoder(decoder, translate=True)
        self.text = ""
        self.pos = 0  # the text before it is taken

    def _more(self) -> bool:
        """Drop the text taken and read at least READ_SIZE more bytes, and as many as characters are left; False at the end.

        The text taken is freed before the read, and each read's bytes after
        their decoding, so no more than the text left, one read's bytes or
        text, and the join of the two texts are held at one time.
        """
        rest = self.text[self.pos :]
        self.text, self.pos = "", 0
        chunk = ""
        while not chunk:  # a read can end inside a character or a "\r\n"
            data = self.raw.read(max(READ_SIZE, len(rest)))
            chunk = self.decoder.decode(data, final=not data)
            if not data:
                break
        del data
        self.text = rest + chunk
        return bool(chunk)

    def _peek(self) -> str:
        """The next character after whitespace, not consumed; "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if not self._more():
                return ""

    def _take(self, chars: str) -> str:
        """Consume the next character after whitespace, which must be one of chars."""
        char = self._peek()
        if not char or char not in chars:
            raise ValueError(f"expected one of {chars!r} at {self.pos}, got {char!r}")
        self.pos += 1
        return char

    def value(self):
        """Decode the next value as json.loads would.

        A value that fails may go on past the text read so far, so it is
        decoded again with more. Only a number can decode short of its end
        there, and then what follows its first part (a digit, ".", "e" or a
        sign) fails the caller's next check.
        """
        self._peek()
        while True:
            try:
                value, self.pos = _decode(self.text, self.pos)
                return value
            except json.JSONDecodeError:
                pass  # read on outside this handler: its error holds the text read so far
            if not self._more():
                raise ValueError(f"no JSON value at {self.pos}")

    def keys(self):
        """Yield each key of the top-level object; the caller reads its value before taking the next."""
        self._take("{")
        while True:
            if self._peek() != '"':
                raise ValueError(f"expected a key at {self.pos}")
            key = self.value()
            self._take(":")
            yield key
            if self._take(",}") == "}":
                return

    def items(self):
        """Yield each value of the array that comes next."""
        self._take("[")
        if self._peek() == "]":
            self.pos += 1
            return
        while True:
            yield self.value()
            if self._take(",]") == "]":
                return

    def end(self) -> None:
        if self._peek():
            raise ValueError(f"extra data at {self.pos}")


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


def write_json(path: Path, obj: Any) -> None:
    """Write dump_json(obj) to path as the text is rendered.

    dump_json's walk hands its pending pieces to the file as each entry of a
    list it renders value by value ends (a detections file's frames, each
    frame's instances), so the whole text is never held. The bytes are
    dump_json's, and the same inputs raise the same TypeError or ValueError
    from the same place; then no file is left at path.
    """
    f = open(path, "w")
    try:
        with f:
            parts: list[str] = []
            _json_value(obj, "", set(), parts, f.write)
            parts.append("\n")
            f.write("".join(parts))
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def dump_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
    (chimptrack.oracles.stdlib_dump_json), and the same inputs raise the same
    TypeError or ValueError. Floats are written by ``float.__repr__``, so NumPy
    float64 values print as plain numbers; NaN and infinities are written as
    NaN / Infinity / -Infinity. Every JSON file and JSON stdout of the package
    comes from here.
    """
    parts: list[str] = []
    _json_value(obj, "", set(), parts)
    parts.append("\n")
    return "".join(parts)


# Before Python 3.13 the stdlib's C encoder cannot indent, and its Python
# encoder takes one generator step per value. This writer appends strings to
# one list, so no container's text is copied into its parent's: a list of
# floats is one join over float.__repr__, redone value by value only when the
# text holds an "n" (nan, inf), and a list of rows of plain floats and ints (a
# pose's joints) is one string per row. dump_json joins the list once; given
# `write`, the walk writes the pending pieces and clears the list as each
# entry of a list rendered value by value ends.
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


def _json_value(value, pad: str, active: set, parts: list[str], write=None) -> None:
    """Append one value indented at `pad`; `active` holds the ids of the open containers.

    No class derives from two of list/tuple, float, str, int and dict, so only
    bool (an int) depends on the order of the tests; the rest is ordered for
    speed.
    """
    if isinstance(value, (list, tuple)):
        _json_list(value, pad, active, parts, write)
    elif isinstance(value, float):
        parts.append(_json_float(value))
    elif isinstance(value, str):
        parts.append(_json_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(_int_repr(value))
    elif isinstance(value, dict):
        _json_dict(value, pad, active, parts, write)
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_list(values, pad: str, active: set, parts: list[str], write) -> None:
    if not values:
        parts.append("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    try:
        text = sep.join(map(_float_repr, values))
        if "n" in text:
            text = sep.join(map(_json_float, values))
    except TypeError:  # not a list of floats
        try:
            text = sep.join([_number_row(row, inner) for row in values])
        except TypeError:  # nor a list of number rows: value by value
            marker = _enter(values, active)
            head = "[\n" + inner
            for v in values:
                parts.append(head)
                head = sep
                _json_value(v, inner, active, parts, write)
                if write is not None:
                    write("".join(parts))
                    parts.clear()
            active.discard(marker)
            parts.append(f"\n{pad}]")
            return
    parts.append(f"[\n{inner}{text}\n{pad}]")


_NUMBER_TYPES = frozenset((float, int))


def _number_row(row, pad: str) -> str:
    """The text of a list or tuple of floats and ints indented at `pad`; TypeError for any other value.

    The types must match exactly: repr spells bools and NumPy scalars
    otherwise than JSON, so they take the per-value path. A row holds no
    container, so it needs no circular-reference check.
    """
    if not isinstance(row, (list, tuple)) or not _NUMBER_TYPES.issuperset(map(type, row)):
        raise TypeError
    if not row:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    text = sep.join(map(repr, row))
    if "n" in text:
        text = sep.join([_json_float(v) if type(v) is float else repr(v) for v in row])
    return f"[\n{inner}{text}\n{pad}]"


def _json_dict(obj: dict, pad: str, active: set, parts: list[str], write) -> None:
    if not obj:
        parts.append("{}")
        return
    marker = _enter(obj, active)
    inner = pad + "  "
    sep = ",\n" + inner
    head = "{\n" + inner
    for k, v in sorted(obj.items()):
        parts.append(f"{head}{_json_key(k)}: ")
        head = sep
        _json_value(v, inner, active, parts, write)
    active.discard(marker)
    parts.append(f"\n{pad}}}")


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

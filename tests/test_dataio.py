import io
import json
import math

import numpy as np
import pytest

from chimptrack import cli, dataio, oracles
from chimptrack.dataio import (
    BEHAVIOR_CATEGORIES,
    BEHAVIOR_COUNT,
    ETHOGRAM,
    KEYPOINT_COUNT,
    AnnotationError,
    DetectionRecord,
    InstanceAnnotation,
    SequenceAnnotation,
    TrackedBox,
    ethogram_class,
    parse_annotations,
    parse_detections,
    parse_mot_csv,
    write_annotations,
    write_detections,
    write_mot_csv,
)
from chimptrack.geometry import BoxXYXY, ImageSize
from chimptrack.kernels import ModelDims, init_params, save_params
from chimptrack.rng import Xoshiro256


def sample_sequence() -> SequenceAnnotation:
    pose = tuple((10.0 + j, 20.0 + j, 2 if j % 3 else 1) for j in range(KEYPOINT_COUNT))
    frames = {
        0: (
            InstanceAnnotation(1, BoxXYXY(10.0, 20.0, 60.0, 90.0), "full", (0, 19), pose, "alpha"),
            InstanceAnnotation(2, BoxXYXY(100.0, 40.0, 180.0, 140.0), "occluded", (2,)),
        ),
        10: (InstanceAnnotation(1, BoxXYXY(12.0, 22.0, 62.0, 92.0), "truncated", ()),),
    }
    return SequenceAnnotation("seq-a", ImageSize(640, 480), 20, 10, frames)


# ---------------------------------------------------------------- registries


def test_ethogram_has_23_classes_partitioned_into_categories():
    assert BEHAVIOR_COUNT == 23
    assert BEHAVIOR_CATEGORIES["locomotion"] == (0, 1, 2, 3)
    assert BEHAVIOR_CATEGORIES["object"] == (4, 5, 6)
    assert BEHAVIOR_CATEGORIES["social"] == tuple(range(7, 21))
    assert BEHAVIOR_CATEGORIES["others"] == (21, 22)
    seen = [i for cat in BEHAVIOR_CATEGORIES.values() for i in cat]
    assert sorted(seen) == list(range(23))


def test_ethogram_partner_pairs_are_involutions():
    for cls in ETHOGRAM:
        if cls.counterpart is not None:
            other = ETHOGRAM[cls.counterpart]
            assert other.counterpart == cls.index
            assert other.category == cls.category == "social"
    paired = {c.index for c in ETHOGRAM if c.counterpart is not None}
    assert paired == {7, 8, 11, 12, 13, 14, 15, 16, 17, 18}


def test_ethogram_lookup_by_name_and_index():
    assert ethogram_class("eating").index == 5
    assert ethogram_class(19).name == "playing"
    assert ethogram_class("grooming").counterpart == ethogram_class("being_groomed").index
    with pytest.raises(KeyError):
        ethogram_class("flying")
    with pytest.raises(KeyError):
        ethogram_class(23)


def test_sixteen_keypoints():
    assert KEYPOINT_COUNT == 16
    assert len(set(dataio.KEYPOINT_NAMES)) == 16


# ------------------------------------------------------------- annotations


def test_annotation_round_trip_is_exact():
    seq = sample_sequence()
    doc = write_annotations(seq)
    assert parse_annotations(doc) == seq
    # and through canonical JSON text
    assert parse_annotations(dataio.dump_json(doc)) == seq


def test_annotation_round_trip_through_file(tmp_path):
    seq = sample_sequence()
    path = tmp_path / "ann.json"
    path.write_text(dataio.dump_json(write_annotations(seq)))
    assert parse_annotations(path) == seq


def test_parse_rejects_unknown_fields_with_path():
    doc = write_annotations(sample_sequence())
    doc["frames"][0]["instances"][0]["extra"] = 1
    with pytest.raises(AnnotationError, match=r"\$\.frames\[0\]\.instances\[0\]\.extra"):
        parse_annotations(doc)


def test_parse_rejects_bad_stride_frame():
    doc = write_annotations(sample_sequence())
    doc["frames"][1]["frame"] = 7
    with pytest.raises(AnnotationError, match="not a multiple of the stride"):
        parse_annotations(doc)


def test_parse_rejects_duplicate_track_id_in_frame():
    doc = write_annotations(sample_sequence())
    inst = dict(doc["frames"][0]["instances"][0])
    doc["frames"][0]["instances"].append(inst)
    with pytest.raises(AnnotationError, match="duplicate track id"):
        parse_annotations(doc)


def test_parse_rejects_degenerate_box():
    doc = write_annotations(sample_sequence())
    doc["frames"][0]["instances"][0]["box"] = [50.0, 20.0, 50.0, 90.0]
    with pytest.raises(AnnotationError, match="degenerate box"):
        parse_annotations(doc)


def test_parse_rejects_out_of_range_behavior_and_duplicates():
    doc = write_annotations(sample_sequence())
    doc["frames"][0]["instances"][0]["behaviors"] = [23]
    with pytest.raises(AnnotationError, match="class index out of range"):
        parse_annotations(doc)
    doc["frames"][0]["instances"][0]["behaviors"] = [3, 3]
    with pytest.raises(AnnotationError, match="duplicate class index"):
        parse_annotations(doc)


def test_parse_rejects_zero_based_track_id():
    doc = write_annotations(sample_sequence())
    doc["frames"][0]["instances"][0]["track_id"] = 0
    with pytest.raises(AnnotationError, match="1-based"):
        parse_annotations(doc)


def test_parse_rejects_wrong_schema_version_and_bad_visibility():
    doc = write_annotations(sample_sequence())
    doc["schema_version"] = 2
    with pytest.raises(AnnotationError, match="unsupported version"):
        parse_annotations(doc)
    doc = write_annotations(sample_sequence())
    doc["frames"][0]["instances"][0]["box_visibility"] = "hidden"
    with pytest.raises(AnnotationError, match="box_visibility"):
        parse_annotations(doc)


def test_parse_rejects_pose_with_wrong_joint_count():
    doc = write_annotations(sample_sequence())
    doc["frames"][0]["instances"][0]["pose"] = [[1.0, 2.0, 2]] * 5
    with pytest.raises(AnnotationError, match="expected 16 joints"):
        parse_annotations(doc)


def test_parse_behaviors_are_sorted_on_load():
    doc = write_annotations(sample_sequence())
    doc["frames"][0]["instances"][0]["behaviors"] = [19, 0]
    seq = parse_annotations(doc)
    assert seq.frames[0][0].behaviors == (0, 19)


# -------------------------------------------------------------- detections


def sample_detections() -> dict[int, list[DetectionRecord]]:
    scores = tuple(0.01 * k for k in range(BEHAVIOR_COUNT))
    pose = tuple((5.0 * k, 3.0 * k) for k in range(KEYPOINT_COUNT))
    return {
        0: [
            DetectionRecord(BoxXYXY(1.0, 2.0, 30.0, 40.0), 0.9, scores, pose),
            DetectionRecord(BoxXYXY(50.0, 60.0, 90.0, 100.0), 0.4, scores),
        ],
        3: [],
        7: [DetectionRecord(BoxXYXY(0.0, 0.0, 10.0, 10.0), 0.55, scores)],
    }


def test_detection_round_trip():
    frames = sample_detections()
    doc = write_detections("seq-b", ImageSize(320, 240), frames)
    seq_id, size, parsed = parse_detections(doc)
    assert seq_id == "seq-b"
    assert size == ImageSize(320, 240)
    assert parsed == frames


def test_write_detections_substitutes_zero_scores_for_none():
    frames = {0: [DetectionRecord(BoxXYXY(1.0, 2.0, 3.0, 4.0), 0.5, None)]}
    doc = write_detections("s", ImageSize(10, 10), frames)
    assert doc["frames"][0]["detections"][0]["behavior_scores"] == [0.0] * BEHAVIOR_COUNT


def test_parse_detections_validates_scores():
    doc = write_detections("s", ImageSize(10, 10), sample_detections())
    doc["frames"][0]["detections"][0]["score"] = 1.5
    with pytest.raises(AnnotationError, match="score must lie in"):
        parse_detections(doc)
    doc = write_detections("s", ImageSize(10, 10), sample_detections())
    doc["frames"][0]["detections"][0]["behavior_scores"] = [0.5] * 7
    with pytest.raises(AnnotationError, match="expected 23 scores"):
        parse_detections(doc)


def test_integer_numbers_parse_to_the_same_floats():
    frames = {0: [DetectionRecord(BoxXYXY(1.0, 2.0, 30.0, 40.0), 1.0, (0.0, 1.0) * 11 + (0.0,), ((3.0, 4.0),) * 16)]}
    doc = write_detections("s", ImageSize(64, 64), frames)
    det = doc["frames"][0]["detections"][0]
    det["box"] = [1, 2, 30, 40]
    det["score"] = 1
    det["behavior_scores"] = [0, 1] * 11 + [0]
    det["pose"] = [[3, 4]] * 16
    parsed = parse_detections(doc)[2]
    assert parsed == frames
    record = parsed[0][0]
    numbers = [*record.box, record.score, *record.behavior_scores, *(c for joint in record.pose for c in joint)]
    assert all(type(v) is float for v in numbers)

    seq = sample_sequence()
    ann = write_annotations(seq)
    inst = ann["frames"][0]["instances"][0]
    inst["box"] = [int(v) for v in inst["box"]]
    inst["pose"] = [[int(x), int(y), v] for x, y, v in inst["pose"]]
    parsed_seq = parse_annotations(ann)
    assert parsed_seq == seq
    assert all(type(v) is float for v in parsed_seq.frames[0][0].box)
    assert all(type(x) is float and type(y) is float for x, y, _ in parsed_seq.frames[0][0].pose)


@pytest.mark.parametrize(
    "rows, error",
    [
        ({5: [5, 6, 1]}, None),
        ({0: [10, 20.0, 2], 15: [25.0, 35, 0]}, None),
        ({3: [1.0, 2.0, True]}, "pose[3][2]: expected an integer, got True"),
        ({3: [1.0, 2.0]}, "pose[3]: expected [x, y, visibility]"),
        ({3: ["1.0", 2.0, 2]}, "pose[3][0]: expected a number, got '1.0'"),
        ({3: [1.0, math.nan, 2]}, "pose[3][1]: expected a finite number, got nan"),
        ({3: [1.0, 2.0, 3]}, "pose[3][2]: visibility must be 0, 1, or 2, got 3"),
        ({2: [1, 2, 1], 9: [math.inf, 2.0, 1]}, "pose[9][0]: expected a finite number, got inf"),
    ],
    ids=["int-coords", "int-first-and-last", "true-visibility", "two-values", "string-x", "nan-y", "visibility-3", "inf-after-int"],
)
def test_annotation_pose_rows_parse_or_fail_at_their_first_bad_value(rows, error):
    # a pose of [float, float, 0|1|2] rows is kept as is; any other row sends
    # the whole pose through the per-value checks from joint 0
    doc = write_annotations(sample_sequence())
    pose = doc["frames"][0]["instances"][0]["pose"]
    for j, row in rows.items():
        pose[j] = row
    if error is not None:
        with pytest.raises(AnnotationError) as info:
            parse_annotations(doc)
        assert str(info.value) == f"$.frames[0].instances[0].{error}"
        return
    got = parse_annotations(doc).frames[0][0].pose
    assert got == tuple((float(x), float(y), v) for x, y, v in pose)
    assert all(type(x) is float and type(y) is float and type(v) is int for x, y, v in got)


def test_parse_detections_requires_increasing_frames():
    doc = write_detections("s", ImageSize(10, 10), sample_detections())
    doc["frames"] = list(reversed(doc["frames"]))
    with pytest.raises(AnnotationError, match="strictly increasing"):
        parse_detections(doc)


def test_parse_detections_keeps_records_on_the_given_frames_only():
    doc = write_detections("s", ImageSize(320, 240), sample_detections())
    _, _, everything = parse_detections(doc)
    for frames in (set(), {0}, {3, 7}, {0, 3, 7}, {1, 100}):
        assert parse_detections(doc, frames)[2] == {f: v for f, v in everything.items() if f in frames}, frames
    annotated = {0: (), 10: ()}  # SequenceAnnotation.frames, as evaluate passes the union of them
    assert parse_detections(doc, annotated)[2] == {0: everything[0]}


# a value boxes_only does not keep, set on the first detection of frame entry 2, and its error
UNKEPT_VALUES = [
    ("pose", [[1.0, 2.0]] * 15 + [[1.0, math.nan]], "pose[15][1]: expected a finite number, got nan"),
    ("behavior_scores", [0.5] * 22 + [math.nan], "behavior_scores[22]: expected a finite number, got nan"),
    ("behavior_scores", [0.5] * 22 + [1.5], "behavior_scores: scores must lie in [0, 1]"),
    ("behavior_scores", [0.5] * 22, "behavior_scores: expected 23 scores"),
]


def test_parse_detections_checks_poses_it_does_not_keep(tmp_path, monkeypatch):
    doc = write_detections("s", ImageSize(320, 240), sample_detections())
    _, _, everything = parse_detections(doc)
    _, _, bare = parse_detections(doc, boxes_only=True)
    assert bare == {f: [DetectionRecord(d.box, d.score) for d in v] for f, v in everything.items()}
    path = tmp_path / "dets.json"
    for key, value, message in UNKEPT_VALUES:
        bad = json.loads(dataio.dump_json(doc))
        bad["frames"][2]["detections"][0][key] = value
        path.write_text(dataio.dump_json(bad))
        want = (AnnotationError, f"$.frames[2].detections[0].{message}")
        assert _outcome(parse_detections, bad) == want
        for frames in (None, set()):
            assert _outcome(parse_detections, bad, frames, boxes_only=True) == want, (message, frames)
            # the chunked reader at every read size, and the whole text
            assert _read_alike(monkeypatch, path, frames=frames, boxes_only=True) == want, (message, frames)


# ---------------------------------------------------------- chunked reader

READ_SIZES = (1, 7, 64)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _read_alike(monkeypatch, path, **kwargs):
    """parse_detections(path) at every read size; each must give the whole text's outcome, which is returned."""
    want = _outcome(lambda: parse_detections(path.read_text(), **kwargs))
    for size in (*READ_SIZES, dataio.READ_SIZE):
        monkeypatch.setattr(dataio, "READ_SIZE", size)
        assert _outcome(parse_detections, path, **kwargs) == want, size
    return want


def _detections_text(**edits) -> str:
    pose = tuple((1.5 * k, 2.0 * k + 0.25) for k in range(KEYPOINT_COUNT))
    frames = {
        0: [DetectionRecord(BoxXYXY(1.0, 2.0, 30.0, 40.0), 0.9, None, pose)],
        4: [],
        6: [DetectionRecord(BoxXYXY(10.0, 12.0, 20.0, 24.0), 0.25, (0.5,) * BEHAVIOR_COUNT)] * 2,
    }
    doc = write_detections("s", ImageSize(64, 48), frames)
    doc.update(edits)
    return dataio.dump_json(doc)


def _edited(edit):
    def text():
        doc = json.loads(_detections_text())
        edit(doc)
        return json.dumps(doc)  # NaN and Infinity as Python's json writes them

    return text


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(doc):
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value

    return edit


VALID_TEXTS = {
    "canonical": _detections_text,
    "compact": lambda: json.dumps(json.loads(_detections_text()), separators=(",", ":")),
    "header-first": lambda: json.dumps(json.loads(_detections_text()), sort_keys=False),
    "crlf-and-tabs": lambda: _detections_text().replace("\n", "\r\n").replace("  ", "\t"),
    "no-frames": lambda: _detections_text(frames=[]),
    "integer-numbers": _edited(_set("frames", 0, "detections", 0, "box", [1, 2, 30, 40])),
    # one integer row after joint 0 sends the whole pose through the per-value check
    "integer-pose-row": _edited(_set("frames", 0, "detections", 0, "pose", 3, [3, 6])),
    "escaped-key": lambda: _detections_text().replace('"frames"', '"fr\\u0061mes"'),
    # json.loads keeps the last of repeated keys
    "repeated-sequence-id": lambda: _detections_text().replace('{\n  "frames"', '{\n  "sequence_id": 7,\n  "frames"', 1),
    "repeated-frames": lambda: _detections_text().replace('{\n  "frames"', '{\n  "frames": [],\n  "frames"', 1),
    "repeated-frames-last-empty": lambda: _detections_text().replace("\n}", ',\n  "frames": []\n}'),
}

# valid, but the chunked read leaves them to json.loads
VALID_THROUGH_JSON_LOADS = {
    "repeated-frames-first-bad": lambda: _detections_text().replace('{\n  "frames"', '{\n  "frames": [7],\n  "frames"', 1),
}

MALFORMED_TEXTS = {
    "score-above-1": _edited(_set("frames", 0, "detections", 0, "score", 1.5)),
    "seven-behavior-scores": _edited(_set("frames", 2, "detections", 1, "behavior_scores", [0.5] * 7)),
    "decreasing-frames": _edited(lambda doc: doc["frames"].reverse()),
    "nan-pose-joint": _edited(_set("frames", 0, "detections", 0, "pose", 3, 1, math.nan)),
    "huge-int-box": _edited(_set("frames", 2, "detections", 0, "box", 3, 10**400)),
    "negative-frame": _edited(_set("frames", 0, "frame", -1)),
    "zero-width": _edited(_set("image_size", "width", 0)),
    # a read that cuts it ends the chunked read: the whole text is read instead
    "long-schema-version": _edited(_set("schema_version", 12345678901234567890)),
    "bad-header-after-a-bad-frame": _edited(
        lambda doc: (_set("schema_version", 2)(doc), _set("frames", 1, "frame", 5)(doc))
    ),
    "unknown-top-level-key": _edited(_set("extra", 1)),
    "frames-not-a-list": _edited(_set("frames", {"0": []})),
    "no-frames-key": _edited(lambda doc: doc.pop("frames")),
    "entry-not-an-object": _edited(_set("frames", 1, [4, []])),
    "top-level-list": lambda: f"[{_detections_text()}]",
    "top-level-number": lambda: "1.5e3",
    "empty-object": lambda: "{ }",
    "empty-file": lambda: "",
    "extra-data": lambda: _detections_text() + "{}",
    "byte-order-mark": lambda: "﻿" + _detections_text(),
    "trailing-comma": lambda: _detections_text().replace("\n  ],\n", ",\n  ],\n", 1),
    "frame-error-then-syntax-error": lambda: _edited(_set("frames", 0, "frame", -1))()[:-1],
    "deep-nesting": lambda: _detections_text().replace("[]", "[" * 100_000 + "]" * 100_000, 1),
}


@pytest.mark.parametrize("name", sorted(VALID_TEXTS))
def test_the_chunked_reader_reads_valid_files_without_json_loads(tmp_path, monkeypatch, name):
    path = tmp_path / "dets.json"
    path.write_text(VALID_TEXTS[name](), newline="")
    for kwargs in ({}, {"frames": {0, 5}}, {"boxes_only": True}):
        want = _read_alike(monkeypatch, path, **kwargs)
        assert want[0] == "s", want

        def refuse(*args, **kwargs):
            raise AssertionError("the whole text went through json.loads")

        with monkeypatch.context() as patched:
            patched.setattr(json, "loads", refuse)
            for size in (*READ_SIZES, 1 << 20):
                patched.setattr(dataio, "READ_SIZE", size)
                assert parse_detections(path, **kwargs) == want, size


@pytest.mark.parametrize("name", sorted(MALFORMED_TEXTS))
def test_the_chunked_reader_fails_as_the_whole_text_does(tmp_path, monkeypatch, name):
    path = tmp_path / "dets.json"
    path.write_text(MALFORMED_TEXTS[name](), newline="")
    for kwargs in ({}, {"frames": set(), "boxes_only": True}):
        got = _read_alike(monkeypatch, path, **kwargs)
        assert isinstance(got[0], type) and issubclass(got[0], (ValueError, RecursionError)), got


@pytest.mark.parametrize("name", sorted(VALID_THROUGH_JSON_LOADS))
def test_the_chunked_reader_leaves_other_valid_files_to_json_loads(tmp_path, monkeypatch, name):
    path = tmp_path / "dets.json"
    path.write_text(VALID_THROUGH_JSON_LOADS[name]())
    assert _read_alike(monkeypatch, path) == parse_detections(json.loads(path.read_text()))


def test_the_chunked_reader_reports_undecodable_bytes_as_read_text_does(tmp_path, monkeypatch):
    path = tmp_path / "dets.json"
    path.write_bytes(_detections_text().encode().replace(b'"s"', b'"\xff"'))
    got = _read_alike(monkeypatch, path)
    assert got[0] is UnicodeDecodeError, got


# the characters of JSON's tokens, for structural edits of a document's text
JSON_TOKEN_CHARS = '{}[]:,"0123456789.-+eE \n\r\\trufalsn'


def _structural_edit(text: str, rng: Xoshiro256) -> str:
    """1-3 seeded edits: delete, insert or replace a token character, duplicate a slice, or truncate.

    One edit in four lands within 8 characters of either end, where the reader
    takes the top-level object's brace and checks that nothing follows it.
    """
    for _ in range(1 + rng.randint(3)):
        i = rng.randint(len(text) + 1)
        if rng.randint(4) == 0:
            i = [0, max(len(text) - 8, 0)][rng.randint(2)] + rng.randint(9)
        kind = rng.randint(5)
        char = JSON_TOKEN_CHARS[rng.randint(len(JSON_TOKEN_CHARS))]
        if kind == 0:
            text = text[:i] + text[i + 1 :]
        elif kind == 1:
            text = text[:i] + char + text[i:]
        elif kind == 2:
            text = text[:i] + char + text[i + 1 :]
        elif kind == 3:
            j = i + rng.randint(40)
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i]
    return text


SPELLINGS = {
    "canonical": _detections_text,
    "compact": lambda: json.dumps(json.loads(_detections_text()), separators=(",", ":")),
    "crlf-indent-1": lambda: json.dumps(json.loads(_detections_text()), indent=1).replace("\n", "\r\n"),
}


def test_the_chunked_reader_agrees_with_the_whole_text_on_edited_documents(tmp_path, monkeypatch):
    # universal newlines turn "\r\n" into "\n", so each file's read_text() is the reference, not its string
    path = tmp_path / "dets.json"
    seen = {"parsed": 0, "json": 0, "annotation": 0}
    for case in range(300):
        rng = Xoshiro256(case)
        spelling = sorted(SPELLINGS)[case % len(SPELLINGS)]
        path.write_text(_structural_edit(SPELLINGS[spelling](), rng), newline="")
        for frames in (None, {0}, set()):
            got = _read_alike(monkeypatch, path, frames=frames)
            seen["parsed"] += got[0] == "s"
            seen["json"] += got[0] is json.JSONDecodeError
            seen["annotation"] += got[0] is AnnotationError
    assert all(seen.values()), seen


def test_a_cut_detections_file_gives_json_loads_error(tmp_path, monkeypatch):
    text = _detections_text(frames=[{"frame": 3, "detections": []}])
    path = tmp_path / "cut.json"
    for size in READ_SIZES:
        monkeypatch.setattr(dataio, "READ_SIZE", size)
        for end in range(len(text.rstrip())):  # every cut but the whole document
            path.write_text(text[:end])
            with pytest.raises(json.JSONDecodeError) as want:
                json.loads(text[:end])
            with pytest.raises(json.JSONDecodeError) as got:
                parse_detections(path)
            assert str(got.value) == str(want.value), (size, end)


def _uniform_detections(path, frames: int, per_frame: int = 20) -> int:
    """A file of `frames` entries of `per_frame` detections each, in one-line JSON; returns its size.

    Without poses: tracemalloc makes every allocation slow, and a pose is 49 of them.
    """
    record = DetectionRecord(BoxXYXY(1.5, 2.5, 30.5, 40.5), 0.5, (0.25,) * BEHAVIOR_COUNT)
    entry = json.dumps(write_detections("s", ImageSize(64, 64), {0: [record] * per_frame})["frames"][0])
    assert entry.startswith('{"frame": 0, ')
    with open(path, "w") as f:
        f.write('{"schema_version": 1, "sequence_id": "s", "image_size": {"width": 64, "height": 64}, "frames": [')
        f.write(", ".join(entry.replace('"frame": 0', f'"frame": {k}', 1) for k in range(frames)))
        f.write("]}\n")
    return path.stat().st_size


def test_the_reader_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # a reader that decodes or keeps the whole file grows with it: 20 x 2,000 is 10 times 20 x 200.
    # Reads of 256 KiB split even the small file (0.8 MB) into several, as 1 MiB reads split longer ones
    import tracemalloc

    monkeypatch.setattr(dataio, "READ_SIZE", 1 << 18)
    peaks, kept, sizes = [], [], []
    for frames in (200, 2_000):
        path = tmp_path / f"dets-{frames}.json"
        sizes.append(_uniform_detections(path, frames))
        tracemalloc.start()
        try:
            _, _, records = parse_detections(path, frames=set())
            kept.append(tracemalloc.get_traced_memory()[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert records == {}
    # each peak is about two reads' worth (a read's bytes and text, or its text and its join to the
    # text left) plus one entry
    assert peaks[1] < 1.05 * peaks[0], (peaks, sizes)
    assert peaks[1] < 3 * dataio.READ_SIZE, (peaks, sizes)
    # frames=set() keeps no record: what is left after the call does not grow either
    assert kept[1] < 64 * 1024, kept


# ----------------------------------------------------------------- MOT CSV


def test_mot_csv_round_trip_and_layout():
    tracks = [
        TrackedBox(0, 1, BoxXYXY(10.0, 20.0, 60.0, 90.0), 0.875),
        TrackedBox(0, 2, BoxXYXY(5.5, 6.25, 9.75, 11.5), 1.0),
        TrackedBox(4, 1, BoxXYXY(11.0, 21.0, 61.0, 91.0), 0.5),
    ]
    text = write_mot_csv(tracks)
    lines = text.strip().split("\n")
    assert lines[0] == "1,1,10.000000,20.000000,50.000000,70.000000,0.875000,-1,-1,-1"
    assert lines[2].startswith("5,1,")  # frame written 1-based
    back = parse_mot_csv(text)
    assert len(back) == 3
    for orig, rec in zip(tracks, back):
        assert rec.frame == orig.frame
        assert rec.track_id == orig.track_id
        assert rec.score == pytest.approx(orig.score, abs=1e-6)
        for a, b in zip(rec.box, orig.box):
            assert a == pytest.approx(b, abs=1e-6)


def test_mot_csv_sorts_rows_and_handles_empty():
    tracks = [
        TrackedBox(5, 1, BoxXYXY(0.0, 0.0, 1.0, 1.0)),
        TrackedBox(0, 2, BoxXYXY(0.0, 0.0, 1.0, 1.0)),
        TrackedBox(0, 1, BoxXYXY(0.0, 0.0, 1.0, 1.0)),
    ]
    lines = write_mot_csv(tracks).strip().split("\n")
    assert [ln.split(",")[:2] for ln in lines] == [["1", "1"], ["1", "2"], ["6", "1"]]
    assert write_mot_csv([]) == ""
    assert parse_mot_csv("") == []
    assert parse_mot_csv("\n  \n") == []


def test_mot_csv_frames_keep_only_their_rows_in_file_order():
    rng = Xoshiro256(61)
    tracks = [
        TrackedBox(rng.randint(30), 1 + rng.randint(5), BoxXYXY(1.0, 2.0, 3.0 + rng.randint(9), 4.0), 0.5)
        for _ in range(200)
    ]
    text = write_mot_csv(tracks)
    everything = parse_mot_csv(text)
    for frames in (set(), {0}, set(range(0, 30, 10)), set(range(0, 30, 3)), set(range(30)), {29, 100}):
        assert parse_mot_csv(text, frames) == [t for t in everything if t.frame in frames], frames
    annotated = {0: (), 10: (), 20: ()}  # SequenceAnnotation.frames, as evaluate passes it
    assert parse_mot_csv(text, annotated) == [t for t in everything if t.frame in annotated]


@pytest.mark.parametrize(
    "row, message",
    [
        ("6,1,0,0,5,5,1", "expected 10 comma-separated fields, got 7"),
        ("6,1,x,0,5,5,1,-1,-1,-1", "could not convert string to float: 'x'"),
        ("6,1,0,0,inf,5,1,-1,-1,-1", "non-finite value in '6,1,0,0,inf,5,1,-1,-1,-1'"),
        ("0,1,0,0,5,5,1,-1,-1,-1", "frames are 1-based, got 0"),
        ("6,0,0,0,5,5,1,-1,-1,-1", "track ids are 1-based, got 0"),
        ("6,1,0,0,0,5,1,-1,-1,-1", "degenerate box 0.0x5.0"),
    ],
    ids=["field-count", "not-a-number", "non-finite", "frame-0", "id-0", "degenerate"],
)
def test_mot_csv_rows_outside_frames_are_still_checked(row, message):
    text = f"1,1,0,0,5,5,1,-1,-1,-1\n{row}\n"
    for frames in (None, {0}, set()):
        with pytest.raises(ValueError) as info:
            parse_mot_csv(text, frames)
        assert str(info.value) == f"line 2: {message}", frames


def test_mot_csv_validation_errors():
    with pytest.raises(ValueError, match="1-based"):
        write_mot_csv([TrackedBox(0, 0, BoxXYXY(0.0, 0.0, 1.0, 1.0))])
    with pytest.raises(ValueError, match="negative frame"):
        write_mot_csv([TrackedBox(-1, 1, BoxXYXY(0.0, 0.0, 1.0, 1.0))])
    with pytest.raises(ValueError, match="expected 10"):
        parse_mot_csv("1,1,0,0,5,5,1\n")
    with pytest.raises(ValueError, match="frames are 1-based"):
        parse_mot_csv("0,1,0,0,5,5,1,-1,-1,-1\n")
    with pytest.raises(ValueError, match="degenerate box"):
        parse_mot_csv("1,1,0,0,0,5,1,-1,-1,-1\n")


def test_dump_json_is_canonical():
    text = dataio.dump_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": [2, 3], "b": 1}


def _assert_same_text(doc):
    text = dataio.dump_json(doc)
    assert text == oracles.stdlib_dump_json(doc)
    return text


@pytest.fixture
def dumped(monkeypatch):
    """Every document the CLI passes to dump_json or write_json, in call order."""
    docs = []

    def record(obj):
        docs.append(obj)
        return dataio.dump_json(obj)

    def record_file(path, obj):
        docs.append(obj)
        dataio.write_json(path, obj)

    monkeypatch.setattr(cli, "dump_json", record)
    monkeypatch.setattr(cli, "write_json", record_file)
    return docs


def test_dump_json_matches_stdlib_on_bench_scale_synth_documents(tmp_path, dumped):
    noise = ["--fn-rate", "0.1", "--fp-rate", "0.5", "--box-jitter", "2.0", "--kp-jitter", "1.0"]
    out = tmp_path / "scene"
    assert cli.main(["synth", "--seed", "9", "--agents", "8", "--frames", "250", *noise, "--out", str(out)]) == 0
    assert len(dumped) == 3
    for name, doc in zip(("annotations", "detections_clean", "detections_noisy"), dumped):
        assert (out / f"{name}.json").read_text() == _assert_same_text(doc)


def test_dump_json_matches_stdlib_on_forward_detections_with_numpy_floats(tmp_path, dumped):
    clip = tmp_path / "clip.npy"
    np.save(clip, np.random.default_rng(5).normal(size=(9, 64, 64, 3)))
    out = tmp_path / "clip.json"
    assert cli.main(["forward", str(clip), "--cls-thresh", "0", "--out", str(out)]) == 0
    (doc,) = dumped
    det = doc["frames"][0]["detections"][0]
    leaves = [det["score"], *det["box"], *det["behavior_scores"]]
    assert any(type(v) is np.float64 for v in leaves)
    text = out.read_text()
    assert text == _assert_same_text(doc)
    assert "np." not in text


def test_dump_json_matches_stdlib_on_sidecars_and_params(tmp_path, dumped):
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--seed", "3", "--agents", "3", "--frames", "30", "--out", str(scene)]) == 0
    gt, dets = scene / "annotations.json", scene / "detections_noisy.json"
    assert cli.main(["track", str(dets), "--out", str(tmp_path / "pred.csv")]) == 0
    del dumped[:]
    for task, pred in (("tracking", tmp_path / "pred.csv"), ("behavior", dets), ("detection", dets)):
        out = tmp_path / f"{task}.metrics.json"
        assert cli.main(["evaluate", "--task", task, "--gt", str(gt), "--pred", str(pred), "--out", str(out)]) == 0
        assert out.read_text() == _assert_same_text(dumped[-1])
    assert "null" in (tmp_path / "tracking.metrics.json").read_text()

    params = tmp_path / "params.json"
    save_params(init_params(ModelDims(), 3), params)
    text = params.read_text()
    assert text == oracles.stdlib_dump_json(json.loads(text))


EDGE_DOCUMENTS = [
    [math.nan, math.inf, -math.inf],
    [1.5, math.nan, 2.5],
    {"x": math.inf, "y": [0.0, -math.inf]},
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, 1.7976931348623157e308, 1e16, 1e-7, 0.1],
    [10**30, -(10**30), 2**64, 0, -1],
    [True, False, None, 1, 1.0],
    [1.0, 2.0, True],
    (1.0, (2.0, 3.0), ()),
    [],
    {},
    [[], {}, [[]], {"a": {}}, [{}]],
    "top-level string",
    1.25,
    7,
    None,
    {"caf\u00e9": "\u00fcber \u4e2d \U0001f600", "ctl": "\x00\x1f\x7f\n\t\"\\/\u2028"},
    {1: "a", 2.5: "b", 10: "c", -3: "d"},
    {True: 1, False: 2, 5: 3},
    {None: "n"},
    {math.nan: 1, math.inf: 2, -0.0: 3},
    {"b": [1.0, 2.0], "a": {"d": None, "c": [3, "s", 4.5]}},
    {"score": np.float64(0.25), "mixed": [np.float64(1.5), 2, None], "nan": np.float64("nan")},
    # lists of number rows, such as the annotations' [x, y, v] joints
    {"pose": [[12.5, 30.25, 2], [0.0, 0.0, 0], [1e-7, 1e16, 1]]},
    [[1.0, True], [2.0, 3]],
    [[1, False]],
    [[1.0, math.nan, 2], [math.inf, -math.inf, 0]],
    [[-0.0, 0], [0.0, -1]],
    [[10**30, 1.5], [-(10**30), 2**64]],
    [[], [1.0, 2]],
    [[1.0, [2.0, 3]], [4]],
    [(1.0, 2), (3.5, 4)],
    ((1.0, 2), [3, 4.5], ()),
    [[1.0, None], [2, "s"]],
    [[np.float64(1.5), 2], [np.float64("nan"), 3]],
]


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS, ids=[str(i) for i in range(len(EDGE_DOCUMENTS))])
def test_dump_json_matches_stdlib_on_edge_cases(doc):
    _assert_same_text(doc)


_CHARS = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u4e2d", "\U0001f600", "\u2028"]
_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 1e16, 0.1]


def _random_float(rng: Xoshiro256) -> float:
    if rng.randint(5) == 0:
        return _FLOATS[rng.randint(len(_FLOATS))]
    return rng.gauss() * 10.0 ** (rng.randint(41) - 20)


def _random_scalar(rng: Xoshiro256):
    kind = rng.randint(6)
    if kind == 0:
        return _random_float(rng)
    if kind == 1:
        return rng.randint(2001) - 1000 if rng.randint(4) else (rng.randint(3) - 1) * 10 ** rng.randint(40)
    if kind == 2:
        return [True, False, None][rng.randint(3)]
    return "".join(_CHARS[rng.randint(len(_CHARS))] for _ in range(rng.randint(6)))


def _random_key(rng: Xoshiro256, kind: int):
    if kind == 0:
        return rng.randint(3001) - 1500
    if kind == 1:
        return _random_float(rng)
    return "".join(_CHARS[rng.randint(len(_CHARS))] for _ in range(rng.randint(4)))


def _random_document(rng: Xoshiro256, depth: int = 0):
    kind = rng.randint(5) if depth < 4 else 0
    if kind == 0:
        return _random_scalar(rng)
    if kind == 1:  # a leaf list of floats, the writer's fast path
        return [_random_float(rng) for _ in range(rng.randint(8))]
    if kind == 2:
        items = [_random_document(rng, depth + 1) for _ in range(rng.randint(5))]
        return tuple(items) if rng.randint(4) == 0 else items
    key_kind = rng.randint(6)  # mostly str keys; one key type per dict keeps the keys sortable
    return {_random_key(rng, key_kind): _random_document(rng, depth + 1) for _ in range(rng.randint(5))}


def test_dump_json_matches_stdlib_on_random_documents():
    rng = Xoshiro256(2024)
    for _ in range(400):
        _assert_same_text(_random_document(rng))


def _cycle_list():
    items = [1.0]
    items.append(items)
    return items


def _cycle_dict():
    doc = {"a": [1.0]}
    doc["b"] = {"c": doc}
    return doc


def _cycle_through_frames():
    doc = {"frames": []}
    doc["frames"].append(doc)
    return doc


def _cycle_list_in_entry():
    items = [1.0, {}]
    items[1]["b"] = items
    return items


UNSERIALIZABLE = [
    np.int64(3),
    {"n": np.int64(3)},
    [1.0, 2.0, np.float32(1.0)],
    [1.0, np.bool_(True)],
    [[1.0, 2], [3, np.int64(4)]],
    [[1.0, 2], [3, complex(1, 2)]],
    {1, 2},
    {"s": frozenset()},
    {1: 0, "a": 0},
    {None: 0, True: 1},
    {(1, 2): 0},
    {"a": [1.0, object()]},
    {"b": b"bytes"},
    [complex(1, 2)],
    {"x": np.array([1.0])},
    _cycle_list(),
    _cycle_dict(),
    _cycle_through_frames(),
    _cycle_list_in_entry(),
]
UNSERIALIZABLE_IDS = [
    "int64",
    "int64-value",
    "float32-in-float-list",
    "numpy-bool",
    "int64-in-number-row",
    "complex-in-number-row",
    "set",
    "frozenset-value",
    "mixed-key-types",
    "none-and-bool-keys",
    "tuple-key",
    "object-in-list",
    "bytes",
    "complex",
    "ndarray",
    "circular-list",
    "circular-dict",
    "circular-through-frames",
    "circular-list-in-entry",
]


@pytest.mark.parametrize("doc", UNSERIALIZABLE, ids=UNSERIALIZABLE_IDS)
def test_dump_json_raises_where_stdlib_raises(doc):
    with pytest.raises((TypeError, ValueError)) as expected:
        oracles.stdlib_dump_json(doc)
    with pytest.raises(expected.type) as got:
        dataio.dump_json(doc)
    assert got.type is expected.type
    assert str(got.value) == str(expected.value)


def _written(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    dataio.write_json(path, doc)
    return path.read_text()


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS, ids=[str(i) for i in range(len(EDGE_DOCUMENTS))])
def test_write_json_writes_the_dump_json_text_on_edge_cases(tmp_path, doc):
    assert _written(tmp_path, doc) == _assert_same_text(doc)
    # each top-level list value of an object is written entry by entry too
    wrapped = {"frames": doc, "a": [doc], "z": doc}
    assert _written(tmp_path, wrapped) == _assert_same_text(wrapped)


def test_write_json_writes_the_dump_json_text_on_random_documents(tmp_path):
    rng = Xoshiro256(2025)
    for _ in range(400):
        doc = _random_document(rng)
        assert _written(tmp_path, doc) == _assert_same_text(doc)
        wrapped = {"frames": doc, "image_size": [doc, doc]}
        assert _written(tmp_path, wrapped) == _assert_same_text(wrapped)


@pytest.mark.parametrize("doc", UNSERIALIZABLE, ids=UNSERIALIZABLE_IDS)
def test_write_json_raises_where_stdlib_raises_and_leaves_no_file(tmp_path, doc):
    path = tmp_path / "doc.json"
    # as a document, and as the second entry of a list written entry by entry, after the first is written
    for wrapped in (doc, {"a": 1, "frames": [{"frame": 0}, doc]}):
        with pytest.raises((TypeError, ValueError)) as expected:
            oracles.stdlib_dump_json(wrapped)
        with pytest.raises(expected.type) as got:
            dataio.write_json(path, wrapped)
        assert str(got.value) == str(expected.value)
        assert not path.exists()


class _RecordingFile(io.StringIO):
    """A text file that keeps each write's text; opened in place of dataio's `open`."""

    def __init__(self, writes: list[str]):
        super().__init__()
        self.writes = writes

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def test_write_json_writes_as_each_frame_entry_ends(tmp_path, monkeypatch):
    # no write holds more than one frame entry's text, so the whole text is never held
    entry = {"frame": 0, "detections": [{"box": [1.0, 2.0, 3.0, 4.0], "score": 0.5}] * 3}
    doc = {"frames": [dict(entry, frame=k) for k in range(50)], "sequence_id": "s"}
    text = dataio.dump_json(doc)
    writes: list[str] = []
    monkeypatch.setitem(vars(dataio), "open", lambda path, mode: _RecordingFile(writes))
    monkeypatch.setattr(dataio, "dump_json", None)  # nor is the whole text built
    dataio.write_json(tmp_path / "doc.json", doc)
    assert "".join(writes) == text == oracles.stdlib_dump_json(doc)
    # the text of the longest frame entry, indented as it sits in the document
    frame_text = oracles.stdlib_dump_json(doc["frames"][-1]).rstrip("\n").replace("\n", "\n    ")
    assert max(map(len, writes)) <= len(frame_text)


def test_dump_json_does_not_run_the_stdlib_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the stdlib indent encoder ran")

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)  # from Python 3.13 the C encoder can indent
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    doc = {"b": [0.5, 2.0], "a": None}
    with pytest.raises(AssertionError):
        oracles.stdlib_dump_json(doc)
    assert dataio.dump_json(doc) == '{\n  "a": null,\n  "b": [\n    0.5,\n    2.0\n  ]\n}\n'

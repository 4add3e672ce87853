"""The shipped JSON-Schema files must accept what the writers emit.

These schemas document the on-disk formats; validating generated documents
against them keeps the schema files and the writer code from drifting apart.
"""

import json
from importlib import resources

import jsonschema
import pytest

import numpy as np

from chimptrack.cli import main
from chimptrack.dataio import write_annotations, write_detections
from chimptrack.synth import SceneConfig, generate


def load_schema(name: str) -> dict:
    path = resources.files("chimptrack").joinpath(f"schemas/{name}")
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def scene():
    return generate(SceneConfig(agents=3, frames=30, stride=10), seed=5)


def test_written_annotations_validate(scene):
    schema = load_schema("annotations.schema.json")
    jsonschema.validate(write_annotations(scene.annotation), schema)


def test_written_detections_validate(scene):
    schema = load_schema("detections.schema.json")
    jsonschema.validate(write_detections(scene.annotation.sequence_id, scene.annotation.image_size, scene.detections), schema)


@pytest.mark.parametrize("height, width", [(64, 64), (32, 96)])
def test_forward_detections_validate(tmp_path, capsys, height, width):
    clip, out = tmp_path / "clip.npy", tmp_path / "clip.json"
    np.save(clip, np.random.default_rng(1).random((9, height, width, 3)))
    assert main(["forward", str(clip), "--cls-thresh", "0.4", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["image_size"] == {"width": width, "height": height}
    assert any(frame["detections"] for frame in doc["frames"])
    jsonschema.validate(doc, load_schema("detections.schema.json"))


def test_schemas_reject_malformed_documents(scene):
    ann_schema = load_schema("annotations.schema.json")
    doc = write_annotations(scene.annotation)
    del doc["sequence_id"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, ann_schema)

    det_schema = load_schema("detections.schema.json")
    doc = write_detections(scene.annotation.sequence_id, scene.annotation.image_size, scene.detections)
    doc["frames"][0]["detections"][0]["box"] = [1.0, 2.0, 3.0]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, det_schema)


def test_schemas_reject_unknown_fields(scene):
    ann_schema = load_schema("annotations.schema.json")
    doc = write_annotations(scene.annotation)
    doc["extra"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, ann_schema)

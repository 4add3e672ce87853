import numpy as np
import pytest

from chimptrack import synth
from chimptrack.geometry import (
    BoxRel,
    BoxXYXY,
    ImageSize,
    area,
    intersection,
    iou,
    iou_matrix,
    rel_to_abs,
)
from chimptrack.rng import Xoshiro256


def test_area_and_intersection_basics():
    a = BoxXYXY(0.0, 0.0, 4.0, 3.0)
    b = BoxXYXY(2.0, 1.0, 6.0, 5.0)
    assert area(a) == 12.0
    assert intersection(a, b) == 2.0 * 2.0
    assert intersection(b, a) == intersection(a, b)


def test_degenerate_boxes_clamp_to_zero():
    flipped = BoxXYXY(5.0, 5.0, 1.0, 1.0)
    assert area(flipped) == 0.0
    assert intersection(flipped, BoxXYXY(0.0, 0.0, 10.0, 10.0)) == 0.0
    assert iou(flipped, BoxXYXY(0.0, 0.0, 10.0, 10.0)) == 0.0


def test_iou_known_values():
    a = BoxXYXY(0.0, 0.0, 2.0, 2.0)
    assert iou(a, a) == 1.0
    assert iou(a, BoxXYXY(2.0, 2.0, 4.0, 4.0)) == 0.0  # corner touch, zero area overlap
    half = BoxXYXY(1.0, 0.0, 3.0, 2.0)
    assert iou(a, half) == pytest.approx(2.0 / 6.0)


def test_rel_to_abs_matches_hand_computed_corners():
    # (cx, cy, h, w) = (0.5, 0.25, 0.5, 0.25) on 640x480: x spans 0.375..0.625, y 0..0.5
    assert rel_to_abs(BoxRel(0.5, 0.25, 0.5, 0.25), ImageSize(640, 480)) == BoxXYXY(240.0, 0.0, 400.0, 240.0)
    # boxes leaving the frame keep their corners outside it
    assert rel_to_abs(BoxRel(0.0, 1.0, 0.5, 0.5), ImageSize(64, 32)) == BoxXYXY(-16.0, 24.0, 16.0, 40.0)


def test_rel_to_abs_rejects_bad_image_size():
    with pytest.raises(ValueError):
        rel_to_abs(BoxRel(0.5, 0.5, 0.2, 0.2), ImageSize(0, 480))


def test_box_rel_field_order_is_height_before_width():
    x1, y1, x2, y2 = rel_to_abs(BoxRel(0.5, 0.5, 0.2, 0.6), ImageSize(1, 1))
    assert x2 - x1 == pytest.approx(0.6)  # width
    assert y2 - y1 == pytest.approx(0.2)  # height


def _same_frame_box_sets():
    """Pairs of box stacks: random, hand-built edge cases, and README-noise scenes per frame."""
    rng = Xoshiro256(7)
    a = []
    b = []
    for _ in range(6):
        x, y = rng.uniform(0, 50), rng.uniform(0, 50)
        a.append(BoxXYXY(x, y, x + rng.uniform(5, 20), y + rng.uniform(5, 20)))
    for _ in range(4):
        x, y = rng.uniform(0, 50), rng.uniform(0, 50)
        b.append(BoxXYXY(x, y, x + rng.uniform(5, 20), y + rng.uniform(5, 20)))
    yield a, b
    edge_cases = [
        BoxXYXY(0.0, 0.0, 2.0, 2.0),
        BoxXYXY(2.0, 0.0, 4.0, 2.0),  # touches the first along an edge
        BoxXYXY(2.0, 2.0, 4.0, 4.0),  # touches the first at a corner
        BoxXYXY(1.0, 1.0, 1.0, 3.0),  # zero width
        BoxXYXY(1.0, 1.0, 1.0, 1.0),  # a point
        BoxXYXY(3.0, 3.0, 0.5, 0.5),  # flipped
        BoxXYXY(9.0, 9.0, 10.0, 10.0),  # disjoint from the rest
        BoxXYXY(0.5, 0.5, 1.5, 1.5),  # inside the first
        BoxXYXY(0.1, 0.2, 0.7, 0.3),  # inexact decimals
    ]
    yield edge_cases, edge_cases
    noise = synth.NoiseConfig(fn_rate=0.1, fp_rate=0.5, box_jitter=2.0, kp_jitter=1.0)
    for seed in (9, 271828):  # synth's clean and noisy detections, as the synth command draws them
        scene = synth.generate(synth.SceneConfig(agents=8, frames=250), seed)
        noisy = synth.perturb_detections(scene.detections, scene.annotation.image_size, noise, seed + 1)
        for frame, dets in scene.detections.items():
            yield [d.box for d in dets], [d.box for d in noisy.get(frame, [])]


def test_iou_matrix_matches_scalar():
    # exact: AP flags compare IoU >= threshold, so one ulp could flip a match
    pairs = 0
    for a, b in _same_frame_box_sets():
        mat = iou_matrix(np.array(a), np.array(b))
        assert mat.shape == (len(a), len(b))
        assert [[iou(p, q) for q in b] for p in a] == mat.tolist()
        pairs += mat.size
    assert pairs > 30_000


def test_iou_matrix_empty_sides():
    assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)
    assert iou_matrix(np.zeros((2, 4)), np.zeros((0, 4))).shape == (2, 0)

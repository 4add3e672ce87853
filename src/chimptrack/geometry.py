"""Axis-aligned box geometry in pixel and normalized coordinates.

Two layouts are used throughout: corner form ``BoxXYXY`` (x1, y1, x2, y2) in
absolute pixels and center form ``BoxRel`` (cx, cy, h, w) normalized to the
unit square. Note the center form orders height before width. rel_to_abs
maps the detector's center form onto pixel corners; on ImageSize(1, 1) it
gives the unit-frame corners that loss.giou_loss scores.

Areas follow half-open semantics: area = (x2 - x1) * (y2 - y1), so boxes that
touch only along an edge have zero intersection.

Only the array function, iou_matrix, imports NumPy, so the box types load
without it (dataio and synth run NumPy-free). GIoU lives with the loss that
uses it (loss.giou_loss).
"""

from __future__ import annotations

from typing import NamedTuple


class BoxXYXY(NamedTuple):
    x1: float
    y1: float
    x2: float
    y2: float


class BoxRel(NamedTuple):
    """Center-form box on the unit square: (cx, cy, h, w)."""

    cx: float
    cy: float
    h: float
    w: float


class ImageSize(NamedTuple):
    width: int
    height: int


def area(box) -> float:
    """Half-open area of a corner-form box; negative extents clamp to zero."""
    x1, y1, x2, y2 = box
    return max(0.0, x2 - x1) * max(0.0, y2 - y1)


def intersection(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def iou(a, b) -> float:
    """Intersection over union of two corner-form boxes.

    A zero-area box has IoU 0 with anything, including itself.
    """
    inter = intersection(a, b)
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def rel_to_abs(box: BoxRel, size: ImageSize) -> BoxXYXY:
    """Map a normalized center-form box onto pixel corners for an image size."""
    cx, cy, h, w = box
    width, height = size
    if width <= 0 or height <= 0:
        raise ValueError(f"image size must be positive, got {size}")
    return BoxXYXY(
        (cx - w / 2.0) * width,
        (cy - h / 2.0) * height,
        (cx + w / 2.0) * width,
        (cy + h / 2.0) * height,
    )


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two stacks of corner-form boxes.

    Args:
        a: (n, 4) array.
        b: (m, 4) array.

    Returns:
        (n, m) array of IoU values; rows or columns for zero-area boxes are 0.
    """
    import numpy as np

    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix2 - ix1, 0.0, None) * np.clip(iy2 - iy1, 0.0, None)
    area_a = np.clip(a[:, 2] - a[:, 0], 0.0, None) * np.clip(a[:, 3] - a[:, 1], 0.0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0.0, None) * np.clip(b[:, 3] - b[:, 1], 0.0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out

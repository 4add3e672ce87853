"""Tracking-by-detection with constant-velocity Kalman filters.

State per track is (cx, cy, area, aspect) plus velocities on the first three
components (aspect ratio is assumed constant), a 7-dim mean with full
covariance. Each association stage is assign.gated_match on the IoU between
predicted track boxes and detections, with pairs below the IoU gate invalid:
it maximizes the number of pairs at or above the gate, then their summed
IoU, and no accepted pair falls below the gate. An optional second stage
(ByteTrack-style) re-associates low-confidence detections to still-unmatched
tracks before they coast.

Track ids start at 1 and are never reused. Tentative tracks (hits below
min_hits) do not emit, except during the warm-up window at the start of a
sequence; coasting tracks never emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import assign
from .dataio import DetectionRecord, TrackedBox
from .geometry import BoxXYXY, iou_matrix

# constant-velocity transition and the observation projection
_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_H = np.eye(4, 7)

# process / measurement noise, scaled as in standard SORT practice
_Q = np.diag([1.0, 1.0, 1.0, 1e-2, 1e-2, 1e-2, 1e-4])
_R = np.diag([1.0, 1.0, 10.0, 10.0])
_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])


@dataclass(frozen=True)
class TrackerConfig:
    iou_gate: float = 0.3       # minimum IoU for any accepted association
    max_misses: int = 30        # drop a track after this many consecutive misses
    min_hits: int = 3           # confirmations required before emitting
    two_stage: bool = False     # ByteTrack-style low-confidence second pass
    conf_split: float = 0.5     # high/low confidence boundary for two_stage

    def __post_init__(self):
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError(f"iou_gate must lie in [0, 1], got {self.iou_gate}")
        if self.max_misses < 0 or self.min_hits < 1:
            raise ValueError("max_misses must be >= 0 and min_hits >= 1")


def box_to_measurement(box) -> np.ndarray:
    """(..., 4) corner boxes to (..., 4) rows (cx, cy, area, aspect).

    Degenerate boxes are rejected.
    """
    box = np.asarray(box, dtype=float)
    x1, y1, x2, y2 = np.moveaxis(box, -1, 0)
    w = x2 - x1
    h = y2 - y1
    degenerate = ~((w > 0.0) & (h > 0.0))
    if degenerate.any():
        raise ValueError(f"degenerate measurement box: {BoxXYXY(*box[degenerate][0].tolist())}")
    return np.stack([x1 + w / 2.0, y1 + h / 2.0, w * h, w / h], axis=-1)


def measurement_to_box(means) -> np.ndarray:
    """(..., 4+) states (cx, cy, area, aspect, ...) to (..., 4) corner boxes."""
    means = np.asarray(means, dtype=float)
    cx, cy = means[..., 0], means[..., 1]
    area = np.maximum(means[..., 2], 1e-12)
    w = np.sqrt(area * np.maximum(means[..., 3], 1e-12))
    h = area / w
    return np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=-1)


def _check_cov(cov: np.ndarray) -> None:
    """Every (7, 7) covariance of the stack is finite and PSD within 1e-9."""
    if cov.ndim < 2 or cov.shape[-2:] != (7, 7) or not np.isfinite(cov).all():
        raise ValueError("covariance must be a finite 7x7 matrix")
    if cov.size:
        eigvals = np.linalg.eigvalsh((cov + np.swapaxes(cov, -1, -2)) / 2.0)
        if eigvals.min() < -1e-9:
            raise ValueError(f"covariance is not positive semidefinite (min eigenvalue {eigvals.min()})")


def kalman_predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step of (..., 7) means and (..., 7, 7) covariances.

    One track, (7,) and (7, 7), is a stack with no leading axes. Every
    covariance's trace strictly increases. Each product is numpy's stacked
    matmul, which makes the same BLAS call per track as a one-track product,
    so stacking changes no bit.
    """
    _check_cov(cov)
    mean = (_F @ mean[..., None])[..., 0]
    cov = _F @ cov @ _F.T + _Q
    return mean, (cov + np.swapaxes(cov, -1, -2)) / 2.0


def kalman_update(mean: np.ndarray, cov: np.ndarray, box) -> tuple[np.ndarray, np.ndarray]:
    """Kalman measurement update of stacked tracks with (..., 4) corner boxes.

    Joseph form; a posterior trace never exceeds its prior's.
    """
    _check_cov(cov)
    return _update(mean, cov, box)


def _update(mean: np.ndarray, cov: np.ndarray, box) -> tuple[np.ndarray, np.ndarray]:
    innovation = box_to_measurement(box) - (_H @ mean[..., None])[..., 0]
    s = _H @ cov @ _H.T + _R
    gain = cov @ _H.T @ np.linalg.inv(s)
    mean = mean + (gain @ innovation[..., None])[..., 0]
    joseph = np.eye(7) - gain @ _H
    cov = joseph @ cov @ np.swapaxes(joseph, -1, -2) + gain @ _R @ np.swapaxes(gain, -1, -2)  # Joseph form keeps PSD
    return mean, (cov + np.swapaxes(cov, -1, -2)) / 2.0


@dataclass
class Tracker:
    """Stateful frame-by-frame tracker; use run() for whole sequences.

    Live tracks are rows of stacked arrays, in birth order: ids (N,), means
    (N, 7), covariances (N, 7, 7), hits and consecutive misses (N,). Each
    frame makes one stacked predict of all rows and one stacked update of
    the matched rows.
    """

    config: TrackerConfig = field(default_factory=TrackerConfig)
    frame_count: int = 0
    ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    means: np.ndarray = field(default_factory=lambda: np.zeros((0, 7)))
    covs: np.ndarray = field(default_factory=lambda: np.zeros((0, 7, 7)))
    hits: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    misses: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    _next_id: int = 1

    def _associate(self, boxes: np.ndarray, detections: list[DetectionRecord]) -> tuple[list[tuple[int, int]], list[int], list[int]]:
        """Gated matching on IoU between (N, 4) track boxes and detections.

        Returns ((track_idx, det_idx) pairs, unmatched track indices,
        unmatched detection indices). No returned pair has IoU below the gate.
        """
        if not len(boxes) or not detections:
            return [], list(range(len(boxes))), list(range(len(detections)))
        ious = iou_matrix(boxes, np.array([d.box for d in detections]))
        pairs = assign.gated_match(ious, ious >= self.config.iou_gate)
        matched_t = {r for r, _ in pairs}
        matched_d = {c for _, c in pairs}
        unmatched_t = [i for i in range(len(boxes)) if i not in matched_t]
        unmatched_d = [i for i in range(len(detections)) if i not in matched_d]
        return pairs, unmatched_t, unmatched_d

    def step(self, detections: list[DetectionRecord]) -> list[TrackedBox]:
        """Advance one frame and return the boxes emitted for it."""
        frame = self.frame_count
        self.frame_count += 1
        warm_up = self.frame_count <= self.config.min_hits
        self.means, self.covs = kalman_predict(self.means, self.covs)

        if self.config.two_stage:
            high = [d for d in detections if d.score >= self.config.conf_split]
            low = [d for d in detections if d.score < self.config.conf_split]
        else:
            high, low = list(detections), []

        boxes = measurement_to_box(self.means)
        pairs, unmatched_t, unmatched_d = self._associate(boxes, high)
        rows = [r for r, _ in pairs]
        matched = [high[c] for _, c in pairs]

        if low and unmatched_t:
            pairs2, still_t, _ = self._associate(boxes[unmatched_t], low)
            rows += [unmatched_t[r] for r, _ in pairs2]
            matched += [low[c] for _, c in pairs2]
            unmatched_t = [unmatched_t[i] for i in still_t]

        emitted: list[TrackedBox] = []
        if rows:
            # the rows were checked by the predict, which keeps them PSD
            self.means[rows], self.covs[rows] = _update(self.means[rows], self.covs[rows], [d.box for d in matched])
            self.hits[rows] += 1
            self.misses[rows] = 0
            for row, det, box in zip(rows, matched, measurement_to_box(self.means[rows])):
                if self.hits[row] >= self.config.min_hits or warm_up:
                    emitted.append(TrackedBox(frame, int(self.ids[row]), BoxXYXY(*box), det.score, det.behavior_scores))

        self.misses[unmatched_t] += 1
        alive = self.misses <= self.config.max_misses
        if not alive.all():
            self.ids, self.means, self.covs = self.ids[alive], self.means[alive], self.covs[alive]
            self.hits, self.misses = self.hits[alive], self.misses[alive]

        # unmatched high-confidence detections seed new tracks
        if unmatched_d:
            seeds = [high[i] for i in unmatched_d]
            born = np.zeros((len(seeds), 7))
            born[:, :4] = box_to_measurement([d.box for d in seeds])
            ids = np.arange(self._next_id, self._next_id + len(seeds))
            self._next_id += len(seeds)
            self.ids = np.concatenate([self.ids, ids])
            self.means = np.concatenate([self.means, born])
            self.covs = np.concatenate([self.covs, np.broadcast_to(_P0, (len(seeds), 7, 7))])
            self.hits = np.concatenate([self.hits, np.ones(len(seeds), dtype=int)])
            self.misses = np.concatenate([self.misses, np.zeros(len(seeds), dtype=int)])
            if warm_up:
                for track_id, det, box in zip(ids, seeds, measurement_to_box(born)):
                    emitted.append(TrackedBox(frame, int(track_id), BoxXYXY(*box), det.score, det.behavior_scores))

        emitted.sort(key=lambda t: t.track_id)
        return emitted


def run(frames, config: TrackerConfig = TrackerConfig()) -> list[TrackedBox]:
    """Track a whole sequence.

    Args:
        frames: dict of frame -> detections, or iterable of (frame_index,
            detections) pairs with strictly increasing frame indices; gaps
            count as empty frames.

    Returns:
        All emitted TrackedBoxes in frame order.
    """
    if isinstance(frames, dict):
        frames = sorted(frames.items())
    tracker = Tracker(config)
    out: list[TrackedBox] = []
    prev = -1
    for frame, detections in frames:
        if frame <= prev:
            raise ValueError(f"frame indices must be strictly increasing, got {frame} after {prev}")
        while tracker.frame_count < frame:  # missing frames advance the filters
            tracker.step([])
        emitted = tracker.step(detections)
        out.extend(emitted)
        prev = frame
    return out

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
    """Corner box to (cx, cy, area, aspect). Degenerate boxes are rejected."""
    x1, y1, x2, y2 = box
    w = x2 - x1
    h = y2 - y1
    if w <= 0.0 or h <= 0.0:
        raise ValueError(f"degenerate measurement box: {box}")
    return np.array([x1 + w / 2.0, y1 + h / 2.0, w * h, w / h])


def measurement_to_box(z) -> BoxXYXY:
    cx, cy, area, aspect = z[:4]
    w = float(np.sqrt(max(area, 1e-12) * max(aspect, 1e-12)))
    h = float(max(area, 1e-12) / w)
    return BoxXYXY(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def _check_cov(cov: np.ndarray) -> None:
    if cov.shape != (7, 7) or not np.isfinite(cov).all():
        raise ValueError("covariance must be a finite 7x7 matrix")
    eigvals = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    if eigvals.min() < -1e-9:
        raise ValueError(f"covariance is not positive semidefinite (min eigenvalue {eigvals.min()})")


def kalman_predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One constant-velocity step; covariance trace strictly increases."""
    _check_cov(cov)
    mean = _F @ mean
    cov = _F @ cov @ _F.T + _Q
    return mean, (cov + cov.T) / 2.0


def kalman_update(mean: np.ndarray, cov: np.ndarray, box) -> tuple[np.ndarray, np.ndarray]:
    """Standard Kalman measurement update; posterior trace never exceeds prior."""
    _check_cov(cov)
    z = box_to_measurement(box)
    innovation = z - _H @ mean
    s = _H @ cov @ _H.T + _R
    gain = cov @ _H.T @ np.linalg.inv(s)
    mean = mean + gain @ innovation
    joseph = np.eye(7) - gain @ _H
    cov = joseph @ cov @ joseph.T + gain @ _R @ gain.T  # Joseph form keeps PSD
    return mean, (cov + cov.T) / 2.0


@dataclass
class Track:
    track_id: int
    mean: np.ndarray
    cov: np.ndarray
    hits: int = 1
    misses: int = 0

    @property
    def box(self) -> BoxXYXY:
        return measurement_to_box(self.mean)


@dataclass
class Tracker:
    """Stateful frame-by-frame tracker; use run() for whole sequences."""

    config: TrackerConfig = field(default_factory=TrackerConfig)
    tracks: list[Track] = field(default_factory=list)
    frame_count: int = 0
    _next_id: int = 1

    def _associate(self, tracks: list[Track], detections: list[DetectionRecord]) -> tuple[list[tuple[int, int]], list[int], list[int]]:
        """Gated matching on IoU.

        Returns ((track_idx, det_idx) pairs, unmatched track indices,
        unmatched detection indices). No returned pair has IoU below the gate.
        """
        if not tracks or not detections:
            return [], list(range(len(tracks))), list(range(len(detections)))
        ious = iou_matrix(np.array([t.box for t in tracks]), np.array([d.box for d in detections]))
        pairs = assign.gated_match(ious, ious >= self.config.iou_gate)
        matched_t = {r for r, _ in pairs}
        matched_d = {c for _, c in pairs}
        unmatched_t = [i for i in range(len(tracks)) if i not in matched_t]
        unmatched_d = [i for i in range(len(detections)) if i not in matched_d]
        return pairs, unmatched_t, unmatched_d

    def step(self, detections: list[DetectionRecord]) -> list[TrackedBox]:
        """Advance one frame and return the boxes emitted for it."""
        frame = self.frame_count
        self.frame_count += 1
        for t in self.tracks:
            t.mean, t.cov = kalman_predict(t.mean, t.cov)

        if self.config.two_stage:
            high = [d for d in detections if d.score >= self.config.conf_split]
            low = [d for d in detections if d.score < self.config.conf_split]
        else:
            high, low = list(detections), []

        pairs, unmatched_t, unmatched_d = self._associate(self.tracks, high)
        updates = [(self.tracks[r], high[c]) for r, c in pairs]

        if low and unmatched_t:
            rest = [self.tracks[i] for i in unmatched_t]
            pairs2, still_t, _ = self._associate(rest, low)
            updates += [(rest[r], low[c]) for r, c in pairs2]
            unmatched_t = [unmatched_t[i] for i in still_t]

        emitted: list[TrackedBox] = []
        for track, det in updates:
            track.mean, track.cov = kalman_update(track.mean, track.cov, det.box)
            track.hits += 1
            track.misses = 0
            if track.hits >= self.config.min_hits or self.frame_count <= self.config.min_hits:
                emitted.append(TrackedBox(frame, track.track_id, track.box, det.score, det.behavior_scores))

        for i in unmatched_t:
            self.tracks[i].misses += 1
        self.tracks = [t for t in self.tracks if t.misses <= self.config.max_misses]

        # unmatched high-confidence detections seed new tracks
        for i in unmatched_d:
            det = high[i]
            mean = np.zeros(7)
            mean[:4] = box_to_measurement(det.box)
            track = Track(self._next_id, mean, _P0.copy())
            self._next_id += 1
            self.tracks.append(track)
            if self.frame_count <= self.config.min_hits:
                emitted.append(TrackedBox(frame, track.track_id, track.box, det.score, det.behavior_scores))

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

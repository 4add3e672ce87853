"""Synthetic scenes with known ground truth.

Agents are constant-velocity boxes reflecting off the image border. Behavior
labels follow three rules: speed above the threshold means moving, otherwise
resting; centers closer than the proximity radius are both playing; a box
within the border margin of the left or top edge is eating. Clean detections
reproduce the ground truth exactly (IoU 1, perfect pose) with confidences in
[0.6, 0.95]; injected false positives draw confidence from [0.05, 0.95] so
they interleave with real detections in ranking.

Draw order is part of the golden contract: generation consumes, per agent, 6
uniforms (h, w, cx, cy, speed, angle), then per frame and agent 1 confidence
uniform and 23 behavior-score uniforms. Perturbation consumes, per detection,
1 drop uniform (stopping there when dropped), 4 corner gaussians when
box_jitter > 0, 32 pose gaussians when kp_jitter > 0 and a pose exists; per
frame it then draws one Poisson count when fp_rate > 0 and 29 uniforms per
false positive. Track perturbation draws per kept box like detections, then
one swap uniform per frame plus two index draws per triggered swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .dataio import (
    BEHAVIOR_COUNT,
    DetectionRecord,
    InstanceAnnotation,
    KEYPOINT_COUNT,
    SequenceAnnotation,
    TrackedBox,
)
from .geometry import BoxXYXY, ImageSize
from .rng import Xoshiro256

MOVING = 0
RESTING = 2
EATING = 5
PLAYING = 19

# box sides are drawn from [MIN_SIZE, MAX_SIZE]; an agent faster than
# SPEED_THRESH is moving, and one within BORDER_MARGIN of the left or top edge
# is eating
MIN_SIZE = 40.0
MAX_SIZE = 120.0
SPEED_THRESH = 2.0
BORDER_MARGIN = 60.0

# joint anchors as (fx, fy) fractions of the box, hip first, matching the
# registry order in dataio.KEYPOINT_NAMES
POSE_FRACTIONS = (
    (0.50, 0.60),
    (0.60, 0.75),
    (0.62, 0.90),
    (0.40, 0.75),
    (0.38, 0.90),
    (0.50, 0.25),
    (0.50, 0.12),
    (0.50, 0.18),
    (0.56, 0.08),
    (0.44, 0.08),
    (0.65, 0.30),
    (0.72, 0.45),
    (0.75, 0.58),
    (0.35, 0.30),
    (0.28, 0.45),
    (0.25, 0.58),
)


@dataclass(frozen=True)
class SceneConfig:
    agents: int = 5
    frames: int = 200
    width: int = 640
    height: int = 480
    stride: int = 10
    max_speed: float = 6.0
    proximity: float = 80.0

    def __post_init__(self):
        if self.agents < 1:
            raise ValueError(f"agents must be >= 1, got {self.agents}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if MAX_SIZE >= min(self.width, self.height):
            raise ValueError("max_size must leave room inside the image")
        if self.max_speed < 0.0 or self.proximity < 0.0:
            raise ValueError("speeds and distances must be non-negative")


@dataclass(frozen=True)
class NoiseConfig:
    box_jitter: float = 0.0
    kp_jitter: float = 0.0
    fn_rate: float = 0.0
    fp_rate: float = 0.0
    id_swap_rate: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.box_jitter < 0.0 or self.kp_jitter < 0.0:
            raise ValueError("jitter scales must be non-negative")
        for name in ("fn_rate", "id_swap_rate"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        if self.fp_rate < 0.0:
            raise ValueError(f"fp_rate must be non-negative, got {self.fp_rate}")


@dataclass(frozen=True)
class SceneData:
    """Ground truth plus clean detections for every frame."""

    annotation: SequenceAnnotation
    detections: dict[int, list[DetectionRecord]]
    gt_tracks: list[TrackedBox] = field(default_factory=list)


def _reflect_step(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    pos += vel
    while pos < lo or pos > hi:
        if pos < lo:
            pos = 2.0 * lo - pos
        else:
            pos = 2.0 * hi - pos
        vel = -vel
    return pos, vel


def _pose_for_box(box: BoxXYXY) -> tuple[tuple[float, float], ...]:
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    return tuple((box.x1 + fx * w, box.y1 + fy * h) for fx, fy in POSE_FRACTIONS)


def generate(config: SceneConfig, seed: int) -> SceneData:
    """Build a scene: annotations on stride frames, detections on all frames."""
    rng = Xoshiro256(seed)
    half = [
        (rng.uniform(MIN_SIZE, MAX_SIZE) / 2.0, rng.uniform(MIN_SIZE, MAX_SIZE) / 2.0)
        for _ in range(config.agents)
    ]
    # draw order per agent: h, w, cx, cy, speed, angle
    state = []
    for hh, hw in half:
        cx = rng.uniform(hw, config.width - hw)
        cy = rng.uniform(hh, config.height - hh)
        speed = rng.uniform(0.0, config.max_speed)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        state.append([cx, cy, speed * math.cos(angle), speed * math.sin(angle)])

    frames: dict[int, tuple[InstanceAnnotation, ...]] = {}
    detections: dict[int, list[DetectionRecord]] = {}
    gt_tracks: list[TrackedBox] = []
    for t in range(config.frames):
        if t > 0:
            for a, (hh, hw) in enumerate(half):
                cx, cy, vx, vy = state[a]
                cx, vx = _reflect_step(cx, vx, hw, config.width - hw)
                cy, vy = _reflect_step(cy, vy, hh, config.height - hh)
                state[a] = [cx, cy, vx, vy]

        boxes = []
        behaviors: list[set[int]] = []
        for a, (hh, hw) in enumerate(half):
            cx, cy, vx, vy = state[a]
            boxes.append(BoxXYXY(cx - hw, cy - hh, cx + hw, cy + hh))
            acts = {MOVING if math.hypot(vx, vy) > SPEED_THRESH else RESTING}
            if cx - hw < BORDER_MARGIN or cy - hh < BORDER_MARGIN:
                acts.add(EATING)
            behaviors.append(acts)
        for a in range(config.agents):
            for b in range(a + 1, config.agents):
                dx = state[a][0] - state[b][0]
                dy = state[a][1] - state[b][1]
                if math.hypot(dx, dy) < config.proximity:
                    behaviors[a].add(PLAYING)
                    behaviors[b].add(PLAYING)

        dets = []
        insts = []
        for a in range(config.agents):
            conf = rng.uniform(0.6, 0.95)
            scores = tuple(
                rng.uniform(0.7, 0.95) if k in behaviors[a] else rng.uniform(0.02, 0.2)
                for k in range(BEHAVIOR_COUNT)
            )
            pose_xy = _pose_for_box(boxes[a])
            dets.append(DetectionRecord(boxes[a], conf, scores, pose_xy))
            gt_tracks.append(TrackedBox(t, a + 1, boxes[a], 1.0))
            if t % config.stride == 0:
                insts.append(
                    InstanceAnnotation(
                        track_id=a + 1,
                        box=boxes[a],
                        behaviors=tuple(sorted(behaviors[a])),
                        pose=tuple((x, y, 2) for x, y in pose_xy),
                    )
                )
        detections[t] = dets
        if t % config.stride == 0:
            frames[t] = tuple(insts)

    annotation = SequenceAnnotation(
        sequence_id=f"synth-{seed}",
        image_size=ImageSize(config.width, config.height),
        frame_count=config.frames,
        stride=config.stride,
        frames=frames,
    )
    return SceneData(annotation, detections, gt_tracks)


def _jitter_box(box, rng: Xoshiro256, sigma: float, size: ImageSize) -> BoxXYXY:
    x1 = box[0] + rng.gauss(0.0, sigma)
    y1 = box[1] + rng.gauss(0.0, sigma)
    x2 = box[2] + rng.gauss(0.0, sigma)
    y2 = box[3] + rng.gauss(0.0, sigma)
    cx = min(max((x1 + x2) / 2.0, 1.0), size.width - 1.0)
    cy = min(max((y1 + y2) / 2.0, 1.0), size.height - 1.0)
    w = max(x2 - x1, 2.0)
    h = max(y2 - y1, 2.0)
    x1 = max(cx - w / 2.0, 0.0)
    y1 = max(cy - h / 2.0, 0.0)
    x2 = min(cx + w / 2.0, float(size.width))
    y2 = min(cy + h / 2.0, float(size.height))
    return BoxXYXY(x1, y1, x2, y2)


def perturb_detections(
    detections: dict[int, list[DetectionRecord]],
    size: ImageSize,
    noise: NoiseConfig,
    seed: int,
) -> dict[int, list[DetectionRecord]]:
    """Apply detector-style noise: misses, corner jitter, pose jitter, clutter."""
    if noise.id_swap_rate:
        raise ValueError("id swaps apply to tracks, not raw detections")
    rng = Xoshiro256(seed)
    out: dict[int, list[DetectionRecord]] = {}
    for frame in sorted(detections):
        kept = []
        for det in detections[frame]:
            if rng.random() < noise.fn_rate:
                continue
            box = det.box
            if noise.box_jitter > 0.0:
                box = _jitter_box(box, rng, noise.box_jitter, size)
            pose = det.pose
            if noise.kp_jitter > 0.0 and pose is not None:
                pose = tuple(
                    (x + rng.gauss(0.0, noise.kp_jitter), y + rng.gauss(0.0, noise.kp_jitter))
                    for x, y in pose
                )
            kept.append(DetectionRecord(box, det.score, det.behavior_scores, pose))
        if noise.fp_rate > 0.0:
            for _ in range(rng.poisson(noise.fp_rate)):
                h = rng.uniform(20.0, 140.0)
                w = rng.uniform(20.0, 140.0)
                cx = rng.uniform(w / 2.0, size.width - w / 2.0)
                cy = rng.uniform(h / 2.0, size.height - h / 2.0)
                score = rng.uniform(0.05, 0.95)
                scores = tuple(rng.uniform(0.02, 0.2) for _ in range(BEHAVIOR_COUNT))
                kept.append(
                    DetectionRecord(BoxXYXY(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), score, scores)
                )
        out[frame] = kept
    return out


def perturb_tracks(
    tracks: list[TrackedBox],
    size: ImageSize,
    noise: NoiseConfig,
    seed: int,
) -> list[TrackedBox]:
    """Apply tracker-style noise: misses, corner jitter, identity swaps.

    A triggered swap exchanges the output ids of two tracks present in that
    frame from there on; with a single track present it reassigns a fresh id
    instead. Rates for clutter and pose noise are detection-level concepts
    and are rejected here.
    """
    if noise.fp_rate or noise.kp_jitter:
        raise ValueError("fp_rate and kp_jitter apply to detections, not tracks")
    rng = Xoshiro256(seed)
    by_frame: dict[int, list[TrackedBox]] = {}
    for t in tracks:
        by_frame.setdefault(t.frame, []).append(t)
    mapping: dict[int, int] = {t.track_id: t.track_id for t in tracks}
    fresh = max(mapping, default=0)

    out: list[TrackedBox] = []
    for frame in sorted(by_frame):
        entries = sorted(by_frame[frame], key=lambda t: t.track_id)
        kept = []
        for t in entries:
            if rng.random() < noise.fn_rate:
                continue
            box = t.box
            if noise.box_jitter > 0.0:
                box = _jitter_box(box, rng, noise.box_jitter, size)
            kept.append(TrackedBox(t.frame, t.track_id, box, t.score))
        if noise.id_swap_rate and rng.random() < noise.id_swap_rate and kept:
            ids = sorted({t.track_id for t in kept})
            if len(ids) >= 2:
                i = rng.randint(len(ids))
                j = rng.randint(len(ids) - 1)
                if j >= i:
                    j += 1
                a, b = ids[i], ids[j]
                mapping[a], mapping[b] = mapping[b], mapping[a]
            else:
                fresh += 1
                mapping[ids[0]] = fresh
        out.extend(TrackedBox(t.frame, mapping[t.track_id], t.box, t.score) for t in kept)
    return out

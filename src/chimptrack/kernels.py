"""Dimension-faithful toy forward pipeline for the video detector.

Every operation preserves the real pipeline's tensor shapes at desk scale:
3D patch partition (2x4x4x3 patches to linear tokens), four spatial stages
whose merges halve resolution and double channels, a temporal merge collapsing
the clip to one step, per-scale channel standardization, scale-major token
flattening, confidence-based query selection with cell-center anchors,
reference-point bilinear sampling, and three MLP heads (box / class /
behavior). Attention itself is replaced by the sampling step; shapes, not
accuracy, are the contract.

All arithmetic is float64 numpy, so identical inputs give bit-identical
outputs across runs and processes.

toy_forward runs every stride-1 window of a clip, WINDOW_BLOCK windows at a
time. A window of F frames reads the F/2 frame pairs (s, s+1), (s+2, s+3),
...; pairs overlap between windows, so each block computes every distinct
pair's patch tokens and four stage maps once, and each window gathers its
pairs from them. The stages after that take a leading window axis: the
temporal merge, channel maps, flattening, query selection, deformable
sampling and heads run once per block for all its windows. Batching changes
no bits: numpy's stacked matmul makes the same 2-D BLAS call per slice as an
unbatched one, and every other step is elementwise or adds its terms in a
fixed order. chimptrack.oracles keeps the one-window-at-a-time loop as the
reference.

Sampling is batched too: bilinear_sample takes points of any shape (...) and
returns (..., C), deformable_sample takes references (..., 2), and both take
a batch of maps (B, H', W', C) with points (B, ...). The summation order is
the contract: corners, reference points and scales are added one at a time
in a fixed order, never by sum, einsum or matmul, so every query's features
are bit-identical to a one-point-at-a-time loop (chimptrack.oracles keeps
that loop as the reference).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import dump_json
from .geometry import BoxRel

PATCH_T, PATCH_Y, PATCH_X = 2, 4, 4
PATCH_VALUES = PATCH_T * PATCH_Y * PATCH_X * 3  # 96 raw values per patch
PARAMS_FORMAT = "chimptrack-params-v1"
# Windows per toy_forward block, fixed. On the 400-frame 64x64 clip (393
# windows; 2 vCPUs, NumPy 2.4 with OpenBLAS) toy_forward took 0.37 / 0.32 /
# 0.26 / 0.37 / 0.33 s for blocks of 4 / 8 / 16 / 32 / 64 windows (median of
# 5), and the process peak after it was 83.5 / 87.7 / 95.4 MB for 8 / 16 /
# 32 (the clip itself is 39 MB).
WINDOW_BLOCK = 16


@dataclass(frozen=True)
class ModelDims:
    """Static shape configuration; defaults are the desk-scale contract."""

    frames: int = 8
    height: int = 64
    width: int = 64
    c_in: int = 16
    merge_dim: int = 16
    channels: int = 32
    queries: int = 10
    behavior_classes: int = 23
    ref_points: int = 4
    stages: int = 4

    def __post_init__(self):
        if self.frames < 2 or self.frames % 2 != 0:
            raise ValueError(f"frames must be even and >= 2, got {self.frames}")
        if self.height % 32 != 0 or self.width % 32 != 0 or self.height <= 0 or self.width <= 0:
            raise ValueError(f"height and width must be positive multiples of 32, got {self.height}x{self.width}")
        if self.stages != 4:
            raise ValueError(f"the pipeline is fixed at 4 stages, got {self.stages}")
        for name in ("c_in", "merge_dim", "channels", "queries", "behavior_classes", "ref_points"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.queries > self.token_count:
            raise ValueError(f"queries ({self.queries}) exceed the token count ({self.token_count})")

    @property
    def t_half(self) -> int:
        return self.frames // 2

    @property
    def stage_channels(self) -> tuple[int, ...]:
        return tuple(self.merge_dim * 2**i for i in range(self.stages))

    @property
    def scale_shapes(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.height // (4 * 2**i), self.width // (4 * 2**i)) for i in range(self.stages))

    @property
    def token_count(self) -> int:
        return sum(h * w for h, w in self.scale_shapes)


@dataclass(frozen=True)
class HeadOutputs:
    """Per-query head outputs; box columns are (cx, cy, h, w) in [0, 1].

    Leading axes (...) are those of the features, e.g. one per window.
    """

    boxes: np.ndarray        # (..., Q, 4)
    class_conf: np.ndarray   # (..., Q)
    behavior_probs: np.ndarray  # (..., Q, K)


@dataclass(frozen=True)
class Detection:
    box: BoxRel
    score: float
    behavior_scores: np.ndarray       # (K,) sigmoid scores
    behaviors: tuple[int, ...]        # indices at or above the behavior threshold


@dataclass(frozen=True)
class ForwardResult:
    """Outputs of every window of a clip; window w ends at frame w + F - 1."""

    outputs: HeadOutputs              # (W, Q, ...)
    token_confidence: np.ndarray      # (W, N)
    selected_tokens: np.ndarray       # (W, Q) indices into the flattened tokens
    anchors: np.ndarray               # (W, Q, 4) rows (cx, cy, h, w)
    shapes: dict[str, tuple[int, ...]]  # intermediate shapes of one window


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def patch_partition_3d(video: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Partition (T, H, W, 3) video into 2x4x4 patches and project to tokens.

    Patch values flatten in (t, y, x, channel) order before the linear map.

    Returns:
        (T/2, H/4, W/4, c_in) token grid.
    """
    video = np.asarray(video, dtype=float)
    if video.ndim != 4 or video.shape[3] != 3:
        raise ValueError(f"video must be (T, H, W, 3), got {video.shape}")
    t, h, w, _ = video.shape
    if t % PATCH_T or h % PATCH_Y or w % PATCH_X:
        raise ValueError(f"video dims {video.shape[:3]} not divisible by the {PATCH_T}x{PATCH_Y}x{PATCH_X} patch")
    if not np.isfinite(video).all():
        raise ValueError("video contains non-finite values")
    proj = np.asarray(proj, dtype=float)
    if proj.ndim != 2 or proj.shape[0] != PATCH_VALUES:
        raise ValueError(f"patch projection must be ({PATCH_VALUES}, c_in), got {proj.shape}")
    grid = video.reshape(t // PATCH_T, PATCH_T, h // PATCH_Y, PATCH_Y, w // PATCH_X, PATCH_X, 3)
    grid = grid.transpose(0, 2, 4, 1, 3, 5, 6).reshape(t // PATCH_T, h // PATCH_Y, w // PATCH_X, PATCH_VALUES)
    return grid @ proj


def stage_transform(tokens: np.ndarray, stage: int, weight: np.ndarray) -> np.ndarray:
    """Apply one backbone stage.

    Stage 1 is a pure channel map (c_in -> M) at unchanged resolution. Stages
    2..4 concatenate 2x2 spatial neighborhoods in (dy, dx) row-major order and
    apply a linear map from 4*ch to 2*ch, halving the spatial grid.
    """
    tokens = np.asarray(tokens, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if tokens.ndim != 4:
        raise ValueError(f"tokens must be (T/2, H', W', ch), got {tokens.shape}")
    if stage == 1:
        if weight.shape[0] != tokens.shape[3]:
            raise ValueError(f"stage 1 map expects input channels {tokens.shape[3]}, got {weight.shape}")
        return tokens @ weight
    if stage not in (2, 3, 4):
        raise ValueError(f"stage must be in 1..4, got {stage}")
    t, h, w, ch = tokens.shape
    if h % 2 or w % 2:
        raise ValueError(f"stage {stage} needs an even spatial grid, got {h}x{w}")
    if weight.shape != (4 * ch, 2 * ch):
        raise ValueError(f"stage {stage} merge expects weight (4*{ch}, 2*{ch}), got {weight.shape}")
    merged = tokens.reshape(t, h // 2, 2, w // 2, 2, ch).transpose(0, 1, 3, 2, 4, 5)
    merged = merged.reshape(t, h // 2, w // 2, 4 * ch)
    return merged @ weight


def temporal_merge(tokens: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Collapse the temporal axis with one full-extent convolution step.

    The kernel spans all T/2 steps (stride T/2), one weight vector per
    channel, so the output temporal extent is 1 and is squeezed away.
    tokens may carry leading axes (..., T/2, H', W', ch), one per window.
    """
    tokens = np.asarray(tokens, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if tokens.ndim < 4:
        raise ValueError(f"tokens must be (..., T/2, H', W', ch), got {tokens.shape}")
    if kernel.shape != (tokens.shape[-4], tokens.shape[-1]):
        raise ValueError(f"temporal kernel must be (T/2, ch) = {(tokens.shape[-4], tokens.shape[-1])}, got {kernel.shape}")
    return np.einsum("...thwc,tc->...hwc", tokens, kernel)


def channel_map(feature: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """1x1 convolution standardizing channels to the shared width.

    feature is (..., H', W', ch); leading axes are windows.
    """
    feature = np.asarray(feature, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if feature.ndim < 3:
        raise ValueError(f"feature must be (..., H', W', ch), got {feature.shape}")
    if weight.ndim != 2 or weight.shape[0] != feature.shape[-1]:
        raise ValueError(f"channel map expects (ch={feature.shape[-1]}, C), got {weight.shape}")
    return feature @ weight


def flatten_concat(features: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten per-scale maps scale-major, row-major within each scale.

    Every map is (..., H', W', C) with the same leading (window) axes.

    Returns:
        tokens: (..., N, C) stacked feature vectors.
        index: (N, 3) integer rows (scale, row, col) locating each token.
    """
    if not features:
        raise ValueError("need at least one feature map")
    lead, channels = features[0].shape[:-3], features[0].shape[-1]
    tokens = []
    index = []
    for s, f in enumerate(features):
        if f.ndim != len(lead) + 3 or f.shape[:-3] != lead or f.shape[-1] != channels:
            raise ValueError(f"scale {s}: expected {lead} + (H', W', {channels}), got {f.shape}")
        h, w = f.shape[-3:-1]
        tokens.append(f.reshape(lead + (h * w, channels)))
        rows, cols = np.divmod(np.arange(h * w), w)
        index.append(np.stack([np.full(h * w, s), rows, cols], axis=1))
    return np.concatenate(tokens, axis=-2), np.concatenate(index, axis=0)


def query_select(confidence: np.ndarray, index: np.ndarray, scale_shapes, queries: int) -> tuple[np.ndarray, np.ndarray]:
    """Pick the top-Q tokens by confidence; ties break to the lower index.

    Anchors are the selected tokens' cells: center at the cell center, height
    and width equal to one cell extent of that token's scale, all normalized.
    confidence is (..., N), one row of N tokens per window.

    Returns:
        selected: (..., Q) token indices in descending-confidence order.
        anchors: (..., Q, 4) rows (cx, cy, h, w).
    """
    confidence = np.asarray(confidence, dtype=float)
    if queries > confidence.shape[-1]:
        raise ValueError(f"cannot select {queries} queries from {confidence.shape[-1]} tokens")
    if not np.isfinite(confidence).all():
        raise ValueError("token confidences must be finite")
    order = np.argsort(-confidence, axis=-1, kind="stable")  # stable: equal scores keep index order
    selected = order[..., :queries]
    scale, row, col = np.moveaxis(np.asarray(index)[selected], -1, 0)
    grid_h, grid_w = np.moveaxis(np.asarray(scale_shapes)[scale], -1, 0)
    anchors = np.stack([(col + 0.5) / grid_w, (row + 0.5) / grid_h, 1.0 / grid_h, 1.0 / grid_w], axis=-1)
    return selected, anchors


def bilinear_sample(feature: np.ndarray, x, y) -> np.ndarray:
    """Bilinear lookup at normalized points; zero padding outside the map.

    Cell centers sit at ((col + 0.5) / W, (row + 0.5) / H), so the continuous
    pixel position is (x * W - 0.5, y * H - 0.5).

    Args:
        feature: (H', W', C) map, or a batch (B, H', W', C) of maps.
        x, y: normalized coordinates of any broadcastable shape (...); scalars
            give shape (). With a batch of maps the points are (B, ...), and
            points [b] sample map b.

    Returns:
        (..., C) samples.

    Each point's four corners are added in (dy, dx) row-major order to a
    running sum that starts at +0.0, each as (wy * wx) * value; an
    off-map or zero-weight corner adds nothing. That order is the contract:
    it makes every point bit-identical to a one-point-at-a-time loop.

    Raises:
        ValueError: if a point is NaN or infinite, or a batch of maps and its
            points disagree.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("sampling points must be finite")
    batched = feature.ndim == 4
    if batched and x.shape[:1] != feature.shape[:1]:
        raise ValueError(f"a batch of {feature.shape[0]} maps needs points (B, ...), got {x.shape}")
    h, w = feature.shape[batched : batched + 2]
    # a point at or beyond -1 or 2 has every corner off the map, so clipping to
    # [-1, 2] changes no sample; it keeps the pixel position finite
    px = np.clip(x, -1.0, 2.0) * w - 0.5
    py = np.clip(y, -1.0, 2.0) * h - 0.5
    x0 = np.floor(px)
    y0 = np.floor(py)
    fx = px - x0
    fy = py - y0
    # corner axes (dy, dx) lead: rows (2, 1, ...), columns (1, 2, ...)
    rows = np.stack([y0, y0 + 1])[:, None]
    cols = np.stack([x0, x0 + 1])[None, :]
    k = np.stack([1.0 - fy, fy])[:, None] * np.stack([1.0 - fx, fx])[None, :]
    # bounds are tested on the floats, so no out-of-range value is cast
    keep = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w) & (k != 0.0)
    cells = (np.where(keep, rows, 0).astype(np.intp), np.where(keep, cols, 0).astype(np.intp))
    if batched:  # map b for points [b]
        cells = (np.arange(x.shape[0]).reshape((-1,) + (1,) * (x.ndim - 1)),) + cells
    value = feature[cells]
    channels = feature.shape[batched + 2 :]
    lead = keep.shape + (1,) * len(channels)  # broadcasts per-corner weights over channels
    # k >= 0, so a skipped corner adds exactly +0.0 and never reads its value
    terms = k.reshape(lead) * np.where(keep.reshape(lead), value, 0.0)
    out = np.zeros(x.shape + channels, dtype=float)
    for term in terms.reshape((4,) + out.shape):  # (dy, dx) row-major
        out = out + term
    return out


def deformable_sample(feature: np.ndarray, ref: np.ndarray, offsets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted bilinear samples around reference points.

    Args:
        feature: (H', W', C) map, or a batch (B, H', W', C) of maps.
        ref: (..., 2) normalized (x, y) reference points; (2,) is one point.
            With a batch of maps ref is (B, ..., 2), and ref[b] samples map b.
        offsets: (R, 2) normalized offsets added to every reference.
        weights: (R,) non-negative weights summing to 1 within 1e-6.

    Returns:
        (..., C): for each reference, the samples added as
        out = out + weights[r] * sample in r order from +0.0. That order is
        the contract, as in bilinear_sample.
    """
    ref = np.asarray(ref, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if ref.ndim < 1 or ref.shape[-1] != 2:
        raise ValueError(f"reference points must be (..., 2), got {ref.shape}")
    if not np.isfinite(ref).all():
        raise ValueError("reference points must be finite")
    if offsets.ndim != 2 or offsets.shape[1] != 2 or weights.ndim != 1 or offsets.shape[0] != weights.shape[0]:
        raise ValueError(f"offsets (R, 2) and weights (R,) disagree: {offsets.shape} vs {weights.shape}")
    if not (np.isfinite(offsets).all() and np.isfinite(weights).all()):
        raise ValueError("offsets and weights must be finite")
    if np.any(weights < 0.0):
        raise ValueError("sampling weights must be non-negative")
    if abs(float(weights.sum()) - 1.0) > 1e-6:
        raise ValueError(f"sampling weights must sum to 1 within 1e-6, got {weights.sum()}")
    # offsets trail the reference batch, so a batch of maps still leads
    x = ref[..., 0, None] + offsets[:, 0]
    y = ref[..., 1, None] + offsets[:, 1]
    samples = bilinear_sample(feature, x, y)  # (..., R, C)
    out = np.zeros(samples.shape[:-2] + samples.shape[-1:], dtype=float)
    for r in range(offsets.shape[0]):
        out = out + weights[r] * samples[..., r, :]
    return out


def _mlp(x: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    # depth-3 MLP, tanh on the two hidden layers, linear final layer
    h = np.tanh(x @ layers[0][0] + layers[0][1])
    h = np.tanh(h @ layers[1][0] + layers[1][1])
    return h @ layers[2][0] + layers[2][1]


def _head_layers(params: dict, head: str) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(params[f"head_{head}_w{i}"], params[f"head_{head}_b{i}"]) for i in (1, 2, 3)]


def head_forward(feats: np.ndarray, params: dict) -> HeadOutputs:
    """Run the box / class / behavior MLP heads on (..., Q, C) query features.

    All-zero head weights give the neutral outputs: every probability 0.5 and
    every box (0.5, 0.5, 0.5, 0.5).
    """
    feats = np.asarray(feats, dtype=float)
    boxes = _sigmoid(_mlp(feats, _head_layers(params, "box")))
    cls = _sigmoid(_mlp(feats, _head_layers(params, "cls")))[..., 0]
    beh = _sigmoid(_mlp(feats, _head_layers(params, "beh")))
    return HeadOutputs(boxes, cls, beh)


def emit_detections(outputs, cls_thresh: float = 0.3, beh_thresh: float = 0.3) -> list[list[Detection]]:
    """Keep queries at or above the class threshold; flag behaviors likewise.

    Accepts a ForwardResult or HeadOutputs with a leading window axis, and
    returns one list of detections per window, in query order.
    """
    if isinstance(outputs, ForwardResult):
        outputs = outputs.outputs
    if outputs.class_conf.ndim != 2:
        raise ValueError(f"expected (windows, queries) class scores, got {outputs.class_conf.shape}")
    windows: list[list[Detection]] = [[] for _ in outputs.class_conf]
    boxes, conf = outputs.boxes.tolist(), outputs.class_conf.tolist()
    behavior = outputs.behavior_probs.copy()  # detections hold rows of this copy
    active = behavior >= beh_thresh
    for w, q in zip(*np.nonzero(outputs.class_conf >= cls_thresh)):  # row-major: query order per window
        flagged = tuple(np.flatnonzero(active[w, q]).tolist())
        windows[w].append(Detection(BoxRel(*boxes[w][q]), conf[w][q], behavior[w, q], flagged))
    return windows


def param_spec(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Names and shapes of every tensor in a parameter set."""
    spec: dict[str, tuple[int, ...]] = {"patch_proj": (PATCH_VALUES, dims.c_in)}
    chans = dims.stage_channels
    spec["stage_map_1"] = (dims.c_in, chans[0])
    for i in (2, 3, 4):
        spec[f"stage_merge_{i}"] = (4 * chans[i - 2], 2 * chans[i - 2])
    for i in (1, 2, 3, 4):
        spec[f"temporal_kernel_{i}"] = (dims.t_half, chans[i - 1])
        spec[f"channel_map_{i}"] = (chans[i - 1], dims.channels)
    spec["deform_offsets"] = (dims.stages, dims.ref_points, 2)
    spec["deform_weights"] = (dims.stages, dims.ref_points)
    heads = {"box": 4, "cls": 1, "beh": dims.behavior_classes}
    for head, out in heads.items():
        spec[f"head_{head}_w1"] = (dims.channels, dims.channels)
        spec[f"head_{head}_b1"] = (dims.channels,)
        spec[f"head_{head}_w2"] = (dims.channels, dims.channels)
        spec[f"head_{head}_b2"] = (dims.channels,)
        spec[f"head_{head}_w3"] = (dims.channels, out)
        spec[f"head_{head}_b3"] = (out,)
    return spec


def validate_params(params: dict, dims: ModelDims) -> None:
    spec = param_spec(dims)
    missing = sorted(set(spec) - set(params))
    if missing:
        raise ValueError(f"missing parameter tensors: {missing}")
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise ValueError(f"unknown parameter tensors: {unknown}")
    for name, shape in spec.items():
        actual = np.asarray(params[name]).shape
        if actual != shape:
            raise ValueError(f"parameter {name!r} has shape {actual}, expected {shape}")
        if not np.isfinite(params[name]).all():
            raise ValueError(f"parameter {name!r} contains non-finite values")


def init_params(dims: ModelDims, seed: int = 0) -> dict[str, np.ndarray]:
    """Random small-weight initialization, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_spec(dims).items():
        params[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
    # offsets stay small; weights become a convex combination per scale
    params["deform_offsets"] = rng.normal(0.0, 0.02, size=(dims.stages, dims.ref_points, 2))
    raw = np.abs(rng.normal(1.0, 0.25, size=(dims.stages, dims.ref_points))) + 1e-3
    params["deform_weights"] = raw / raw.sum(axis=1, keepdims=True)
    return params


def save_params(params: dict[str, np.ndarray], path: str | Path) -> None:
    """Write parameters as named flat tensors in JSON; reload is bit-exact."""
    doc = {
        "format": PARAMS_FORMAT,
        "tensors": {
            name: {"shape": list(np.asarray(t).shape), "data": np.asarray(t, dtype=float).reshape(-1).tolist()}
            for name, t in sorted(params.items())
        },
    }
    Path(path).write_text(dump_json(doc))


def load_params(path: str | Path) -> dict[str, np.ndarray]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("format") != PARAMS_FORMAT:
        raise ValueError(f"not a {PARAMS_FORMAT} file: {path}")
    params = {}
    for name, entry in doc["tensors"].items():
        data = np.asarray(entry["data"], dtype=float)
        shape = tuple(entry["shape"])
        if data.size != int(np.prod(shape)):
            raise ValueError(f"tensor {name!r}: {data.size} values do not fill shape {shape}")
        params[name] = data.reshape(shape)
    return params


def toy_forward(video: np.ndarray, params: dict, dims: ModelDims) -> ForwardResult:
    """Run the full toy pipeline on every stride-1 window of a clip.

    The clip is (T, H, W, 3) with T >= dims.frames; window w covers frames
    w .. w + dims.frames - 1, so there are T - dims.frames + 1 windows. They
    run WINDOW_BLOCK at a time, each block sharing its frame-pair maps (see
    the module docstring), and every window's outputs are bit-identical to
    running it alone. The clip and the parameters are validated once.

    The auxiliary token confidence shares the class head's weights, applied
    per token. Per-query features average one deformable sample per scale,
    taken at the query's anchor center.
    """
    video = np.asarray(video, dtype=float)
    if video.ndim != 4 or video.shape[0] < dims.frames or video.shape[1:] != (dims.height, dims.width, 3):
        expected = (f">={dims.frames}", dims.height, dims.width, 3)
        raise ValueError(f"video shape {video.shape} does not match dims ({', '.join(map(str, expected))})")
    if not np.isfinite(video).all():
        raise ValueError("video contains non-finite values")
    validate_params(params, dims)
    windows = video.shape[0] - dims.frames + 1
    blocks = [
        _forward_block(video[first : first + WINDOW_BLOCK + dims.frames - 1], params, dims)
        for first in range(0, windows, WINDOW_BLOCK)
    ]
    cat = np.concatenate
    return ForwardResult(
        HeadOutputs(
            cat([b.outputs.boxes for b in blocks]),
            cat([b.outputs.class_conf for b in blocks]),
            cat([b.outputs.behavior_probs for b in blocks]),
        ),
        cat([b.token_confidence for b in blocks]),
        cat([b.selected_tokens for b in blocks]),
        cat([b.anchors for b in blocks]),
        blocks[0].shapes,
    )


def _forward_block(video: np.ndarray, params: dict, dims: ModelDims) -> ForwardResult:
    """Every window of a validated clip at once; the intermediates die on return.

    Window w reads the frame pairs (w, w+1), (w+2, w+3), ..., so the windows
    of parity q all read the pairs of the frames from q on, which
    patch_partition_3d splits like one long video. Both parities' pairs
    stack along one pair axis, and only they go through the backbone.
    """
    windows = video.shape[0] - dims.frames + 1
    t_half = dims.t_half
    shapes: dict[str, tuple[int, ...]] = {}

    pairs = [n + t_half - 1 for n in ((windows + 1) // 2, windows // 2) if n]  # per parity, for its last window
    sequences = [video[q : q + 2 * n] for q, n in enumerate(pairs)]
    pair_maps = [np.concatenate([patch_partition_3d(v, params["patch_proj"]) for v in sequences])]
    for i in (1, 2, 3, 4):
        weight = params["stage_map_1"] if i == 1 else params[f"stage_merge_{i}"]
        pair_maps.append(stage_transform(pair_maps[-1], i, weight))

    w = np.arange(windows)
    first = np.where(w % 2, pairs[0], 0) + w // 2  # pair row of each window's first pair
    slots = first[:, None] + np.arange(t_half)  # (W, T/2)
    shapes["patch_tokens"] = (t_half,) + pair_maps[0].shape[1:]
    features = []
    for i in (1, 2, 3, 4):
        stage = pair_maps[i][slots]  # (W, T/2, H', W', ch)
        shapes[f"stage_{i}"] = stage.shape[1:]
        f = channel_map(temporal_merge(stage, params[f"temporal_kernel_{i}"]), params[f"channel_map_{i}"])
        features.append(f)
        shapes[f"fused_{i}"] = f.shape[1:]
    del pair_maps, stage  # the backbone maps are not needed by the token MLP, the block's largest step

    tokens, index = flatten_concat(features)
    shapes["tokens"] = tokens.shape[1:]

    confidence = _sigmoid(_mlp(tokens, _head_layers(params, "cls")))[..., 0]
    selected, anchors = query_select(confidence, index, dims.scale_shapes, dims.queries)

    sampled = np.zeros((windows, dims.queries, dims.channels), dtype=float)
    for s, f in enumerate(features):  # scales add in order, all windows and queries at once
        sampled += deformable_sample(f, anchors[..., :2], params["deform_offsets"][s], params["deform_weights"][s])
    feats = sampled / len(features)
    shapes["query_features"] = feats.shape[1:]

    outputs = head_forward(feats, params)
    shapes["boxes"] = outputs.boxes.shape[1:]
    shapes["class_conf"] = outputs.class_conf.shape[1:]
    shapes["behavior_probs"] = outputs.behavior_probs.shape[1:]
    return ForwardResult(outputs, confidence, selected, anchors, shapes)

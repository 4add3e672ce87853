import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import CLIP_LAYOUTS

from chimptrack.geometry import BoxRel, ImageSize, rel_to_abs
from chimptrack.kernels import (
    PATCH_VALUES,
    WINDOW_BLOCK,
    ForwardResult,
    ModelDims,
    NpyClip,
    Workspace,
    bilinear_sample,
    channel_map,
    deformable_sample,
    emit_detections,
    flatten_concat,
    head_forward,
    init_params,
    load_params,
    param_spec,
    patch_partition_3d,
    query_select,
    save_params,
    stage_transform,
    temporal_merge,
    toy_forward,
    validate_params,
)
from chimptrack.oracles import naive_bilinear_sample, naive_deformable_sample, window_forward

DIMS = ModelDims()


def test_model_dims_contract_values():
    assert DIMS.stage_channels == (16, 32, 64, 128)
    assert DIMS.scale_shapes == ((16, 16), (8, 8), (4, 4), (2, 2))
    assert DIMS.token_count == 256 + 64 + 16 + 4 == 340
    assert DIMS.t_half == 4


def test_model_dims_validation():
    with pytest.raises(ValueError):
        ModelDims(frames=7)
    with pytest.raises(ValueError):
        ModelDims(height=50)
    with pytest.raises(ValueError):
        ModelDims(queries=400)  # more queries than tokens


def test_patch_partition_shape_and_flatten_order():
    rng = np.random.default_rng(0)
    video = rng.normal(size=(4, 8, 8, 3))
    proj = np.eye(PATCH_VALUES)[:, :5]  # picks off the first 5 flattened values
    out = patch_partition_3d(video, proj)
    assert out.shape == (2, 2, 2, 5)
    # flattening runs (t, y, x, channel) within the 2x4x4 patch
    want = [video[0, 0, 0, 0], video[0, 0, 0, 1], video[0, 0, 0, 2], video[0, 0, 1, 0], video[0, 0, 1, 1]]
    assert np.allclose(out[0, 0, 0], want)
    # patch at grid (1, 1, 1) starts at t=2, y=4, x=4
    assert out[1, 1, 1, 0] == pytest.approx(video[2, 4, 4, 0])


def test_patch_partition_validation():
    with pytest.raises(ValueError):
        patch_partition_3d(np.zeros((3, 8, 8, 3)), np.zeros((PATCH_VALUES, 4)))  # odd T
    with pytest.raises(ValueError):
        patch_partition_3d(np.zeros((4, 8, 8, 2)), np.zeros((PATCH_VALUES, 4)))
    with pytest.raises(ValueError):
        patch_partition_3d(np.full((4, 8, 8, 3), np.nan), np.zeros((PATCH_VALUES, 4)))


def test_stage_transform_shapes():
    tok = np.random.default_rng(1).normal(size=(4, 16, 16, 16))
    s1 = stage_transform(tok, 1, np.random.default_rng(2).normal(size=(16, 16)))
    assert s1.shape == (4, 16, 16, 16)
    s2 = stage_transform(s1, 2, np.random.default_rng(3).normal(size=(64, 32)))
    assert s2.shape == (4, 8, 8, 32)
    with pytest.raises(ValueError):
        stage_transform(s2, 3, np.zeros((64, 32)))  # wrong weight shape
    with pytest.raises(ValueError):
        stage_transform(np.zeros((2, 3, 4, 8)), 2, np.zeros((32, 16)))  # odd grid


def test_stage_merge_neighborhood_order_is_row_major():
    # distinct constants per 2x2 cell expose the (dy, dx) concat order
    tok = np.zeros((1, 2, 2, 1))
    tok[0, 0, 0, 0] = 1.0  # (dy=0, dx=0)
    tok[0, 0, 1, 0] = 2.0  # (dy=0, dx=1)
    tok[0, 1, 0, 0] = 3.0  # (dy=1, dx=0)
    tok[0, 1, 1, 0] = 4.0  # (dy=1, dx=1)
    weight = np.eye(4)[:, :2]  # first two concat slots pass through
    out = stage_transform(tok, 2, weight)
    assert out.shape == (1, 1, 1, 2)
    assert out[0, 0, 0].tolist() == [1.0, 2.0]


def test_temporal_merge_collapses_time():
    tok = np.random.default_rng(5).normal(size=(4, 3, 3, 6))
    kernel = np.full((4, 6), 0.25)
    out = temporal_merge(tok, kernel)
    assert out.shape == (3, 3, 6)
    assert np.allclose(out, tok.mean(axis=0))
    with pytest.raises(ValueError):
        temporal_merge(tok, np.zeros((3, 6)))


def test_flatten_concat_is_scale_major_row_major():
    a = np.arange(8, dtype=float).reshape(2, 2, 2)
    b = np.arange(100, 102, dtype=float).reshape(1, 1, 2)
    tokens, index = flatten_concat([a, b])
    assert tokens.shape == (5, 2)
    assert np.allclose(tokens[0], a[0, 0])
    assert np.allclose(tokens[1], a[0, 1])  # row-major within a scale
    assert np.allclose(tokens[4], b[0, 0])
    assert index.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0]]


def test_query_select_order_anchors_and_ties():
    conf = np.array([0.1, 0.9, 0.5, 0.9, 0.3])
    index = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0]])
    shapes = ((2, 2), (1, 1))
    selected, anchors = query_select(conf, index, shapes, 3)
    assert selected.tolist() == [1, 3, 2]  # ties keep the lower token index first
    assert np.allclose(anchors[0], [0.75, 0.25, 0.5, 0.5])  # (col+0.5)/W, (row+0.5)/H
    assert np.allclose(anchors[1], [0.75, 0.75, 0.5, 0.5])
    with pytest.raises(ValueError):
        query_select(conf, index, shapes, 6)
    with pytest.raises(ValueError):
        query_select(np.array([np.nan, 1.0]), index[:2], shapes, 1)


def test_query_select_invariant_under_monotone_transforms():
    rng = np.random.default_rng(7)
    conf = rng.uniform(size=50)
    index = np.stack([np.zeros(50, dtype=int), np.arange(50) // 10, np.arange(50) % 10], axis=1)
    shapes = ((5, 10),)
    base, _ = query_select(conf, index, shapes, 10)
    for transform in (lambda c: 3.0 * c + 1.0, np.exp, lambda c: c**3 + c):
        again, _ = query_select(transform(conf), index, shapes, 10)
        assert again.tolist() == base.tolist()


def test_bilinear_sample_conventions():
    feat = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # 2x2, one channel
    # cell centers
    assert bilinear_sample(feat, 0.25, 0.25)[0] == pytest.approx(1.0)
    assert bilinear_sample(feat, 0.75, 0.75)[0] == pytest.approx(4.0)
    # middle of the map blends all four cells
    assert bilinear_sample(feat, 0.5, 0.5)[0] == pytest.approx(2.5)
    assert bilinear_sample(feat.astype(int), 0.5, 0.5)[0] == 2.5  # an integer map samples as float64
    # zero padding outside
    assert bilinear_sample(feat, -1.0, 0.5)[0] == pytest.approx(0.0)
    assert bilinear_sample(feat, 0.5, 2.0)[0] == pytest.approx(0.0)


def test_deformable_sample_weights_contract():
    feat = np.ones((4, 4, 3))
    ref = np.array([0.5, 0.5])
    offsets = np.zeros((4, 2))
    weights = np.full(4, 0.25)
    assert np.allclose(deformable_sample(feat, ref, offsets, weights), np.ones(3))
    with pytest.raises(ValueError):
        deformable_sample(feat, ref, offsets, np.full(4, 0.3))  # sums to 1.2
    with pytest.raises(ValueError):
        deformable_sample(feat, ref, offsets, np.array([0.5, 0.6, -0.1, 0.0]))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # signed zeros too


def _sampling_cases(rng):
    """Seeded maps from 1x1 to 16x16 with points on cell centers, borders, and far off the map.

    An all -0.0 map tells a running sum from +0.0 apart from a plain sum, and an
    infinite cell turns any skipped corner that is multiplied in instead into NaN.
    """
    for h, w in ((1, 1), (1, 3), (2, 2), (3, 3), (3, 5), (7, 4), (16, 16)):
        feature = rng.normal(size=(h, w, 1 + rng.integers(4)))
        feature[rng.uniform(size=(h, w)) < 0.2] = -0.0
        if (h, w) == (3, 3):
            feature[:] = -0.0
        if (h, w) == (7, 4):
            feature[0, 0] = feature[1, 1] = np.inf  # (1, 1) is a zero-weight corner of three cell centers
        centers = [((c + 0.5) / w, (r + 0.5) / h) for r in range(h) for c in range(w)]
        borders = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.5), (0.5, 0.0), (0.5 / w, 1.0)]
        outside = [(-5.0, 0.5), (0.5, 7.0), (1e300, 0.5), (0.5, -1e300), (-1e300, 1e300), (2.0, -1.0)]
        inside = [tuple(p) for p in rng.uniform(-0.3, 1.3, size=(12, 2))]
        points = np.array(centers[:8] + borders + outside + inside)
        yield feature, points


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no product is taken of a skipped corner
@pytest.mark.parametrize("batch", [(), (7,), (3, 4)])
def test_batched_bilinear_sample_matches_naive_oracle_exactly(batch):
    rng = np.random.default_rng(20)
    for feature, points in _sampling_cases(rng):
        picks = rng.integers(len(points), size=batch)
        x, y = points[picks, 0], points[picks, 1]
        got = bilinear_sample(feature, x, y)
        assert got.shape == batch + feature.shape[2:]
        for idx in np.ndindex(*batch):
            _same_bits(got[idx], naive_bilinear_sample(feature, x[idx], y[idx]))
    for feature, points in _sampling_cases(np.random.default_rng(21)):
        for px, py in points:  # plain floats give one (C,) sample
            _same_bits(bilinear_sample(feature, float(px), float(py)), naive_bilinear_sample(feature, float(px), float(py)))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no product is taken of a skipped corner
@pytest.mark.parametrize("batch", [(), (10,), (3, 4)])
def test_batched_deformable_sample_matches_naive_oracle_exactly(batch):
    rng = np.random.default_rng(22)
    for feature, points in _sampling_cases(rng):
        refs = points[rng.integers(len(points), size=batch)]
        for offsets in (np.zeros((4, 2)), rng.normal(0.0, 0.3, size=(3, 2)), (rng.integers(-2, 3, size=(5, 2)) + 0.5) / 16):
            raw = rng.uniform(0.1, 1.0, size=offsets.shape[0])
            weights = raw / raw.sum()
            got = deformable_sample(feature, refs, offsets, weights)
            assert got.shape == batch + feature.shape[2:]
            for idx in np.ndindex(*batch):
                _same_bits(got[idx], naive_deformable_sample(feature, refs[idx], offsets, weights))


def test_sampling_rejects_non_finite_points_and_misshapen_inputs():
    feat = np.ones((4, 4, 3))
    offsets = np.zeros((4, 2))
    weights = np.full(4, 0.25)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="reference points must be finite"):
            deformable_sample(feat, [bad, 0.5], offsets, weights)
        with pytest.raises(ValueError, match="reference points must be finite"):
            deformable_sample(feat, np.array([[0.5, 0.5], [0.5, bad]]), offsets, weights)
        with pytest.raises(ValueError, match="sampling points must be finite"):
            bilinear_sample(feat, bad, 0.5)
        with pytest.raises(ValueError, match="sampling points must be finite"):
            bilinear_sample(feat, np.array([0.5, 0.5]), np.array([0.5, bad]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="sampling points must be finite"):
        deformable_sample(feat, [1e308, 0.5], np.array([[1e308, 0.0]]), np.ones(1))  # the sum overflows
    with pytest.raises(ValueError, match=r"\(\.\.\., 2\)"):
        deformable_sample(feat, [0.5, 0.5, 0.5], offsets, weights)
    with pytest.raises(ValueError, match="disagree"):
        deformable_sample(feat, [0.5, 0.5], np.zeros((1, 2)), 1.0)  # 0-d weights


def test_far_finite_points_sample_zero_without_warnings():
    feat = np.ones((4, 4, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in ((1e300, 0.5), (-1e300, 0.5), (0.5, 1e300), (0.5, -1e300), (1.7e308, -1.7e308)):
            assert bilinear_sample(feat, x, y).tolist() == [0.0, 0.0, 0.0]
            got = deformable_sample(feat, [x, y], np.zeros((4, 2)), np.full(4, 0.25))
            assert got.tolist() == [0.0, 0.0, 0.0]


def test_zero_head_weights_are_neutral():
    params = {name: np.zeros_like(t) if name.startswith("head_") else t for name, t in init_params(DIMS, seed=3).items()}
    feats = np.random.default_rng(3).normal(size=(5, DIMS.channels))
    out = head_forward(feats, params)
    assert np.all(out.boxes == 0.5)
    assert np.all(out.class_conf == 0.5)
    assert np.all(out.behavior_probs == 0.5)


def test_param_spec_roundtrip_and_validation(tmp_path):
    params = init_params(DIMS, seed=4)
    assert set(params) == set(param_spec(DIMS))
    validate_params(params, DIMS)
    path = tmp_path / "params.json"
    save_params(params, path)
    loaded = load_params(path)
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])
    bad = dict(params)
    del bad["patch_proj"]
    with pytest.raises(ValueError, match="missing"):
        validate_params(bad, DIMS)
    bad = dict(params)
    bad["extra"] = np.zeros(3)
    with pytest.raises(ValueError, match="unknown"):
        validate_params(bad, DIMS)
    bad = dict(params)
    bad["patch_proj"] = np.zeros((3, 3))
    with pytest.raises(ValueError, match="shape"):
        validate_params(bad, DIMS)


def test_load_params_rejects_foreign_files(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(ValueError, match="not a"):
        load_params(path)


def test_forward_shape_contract():
    video = np.random.default_rng(11).normal(size=(8, 64, 64, 3))
    params = init_params(DIMS, seed=0)
    result = toy_forward(video, params, DIMS)
    assert isinstance(result, ForwardResult)
    s = result.shapes
    assert s["patch_tokens"] == (4, 16, 16, 16)
    assert s["stage_1"] == (4, 16, 16, 16)
    assert s["stage_2"] == (4, 8, 8, 32)
    assert s["stage_3"] == (4, 4, 4, 64)
    assert s["stage_4"] == (4, 2, 2, 128)
    for i, (h, w) in enumerate(DIMS.scale_shapes, start=1):
        assert s[f"fused_{i}"] == (h, w, 32)
    assert s["tokens"] == (340, 32)
    assert s["query_features"] == (10, 32)
    assert s["boxes"] == (10, 4)
    assert s["class_conf"] == (10,)
    assert s["behavior_probs"] == (10, 23)
    out = result.outputs
    assert np.all((out.boxes >= 0.0) & (out.boxes <= 1.0))
    assert np.all((out.class_conf >= 0.0) & (out.class_conf <= 1.0))
    assert np.all((out.behavior_probs >= 0.0) & (out.behavior_probs <= 1.0))
    # one window: every output carries a leading window axis of 1
    assert out.boxes.shape == (1, 10, 4)
    assert out.class_conf.shape == (1, 10)
    assert out.behavior_probs.shape == (1, 10, 23)
    assert result.token_confidence.shape == (1, 340)
    assert result.selected_tokens.shape == (1, 10)
    assert result.anchors.shape == (1, 10, 4)


def test_forward_is_deterministic():
    video = np.random.default_rng(13).normal(size=(8, 64, 64, 3))
    params = init_params(DIMS, seed=1)
    a = toy_forward(video, params, DIMS)
    b = toy_forward(video, params, DIMS)
    assert np.array_equal(a.outputs.boxes, b.outputs.boxes)
    assert np.array_equal(a.outputs.class_conf, b.outputs.class_conf)
    assert np.array_equal(a.selected_tokens, b.selected_tokens)


def test_forward_rejects_wrong_video_shape():
    params = init_params(DIMS, seed=0)
    with pytest.raises(ValueError, match="video shape"):
        toy_forward(np.zeros((8, 32, 64, 3)), params, DIMS)


def test_emit_detections_frame_keys_and_class_threshold():
    video = np.random.default_rng(17).normal(size=(DIMS.frames + 4, 64, 64, 3))  # 5 windows
    result = toy_forward(video, init_params(DIMS, seed=2), DIMS)
    out = result.outputs
    # the second-lowest window maximum: the lowest window keeps no query, and
    # the threshold's own query is kept (the gate is inclusive)
    thresh = float(np.sort(out.class_conf.max(axis=1))[1])
    frames = emit_detections(result, DIMS, thresh)
    assert list(frames) == [DIMS.frames - 1 + w for w in range(5)]  # one frame per window, the window's last
    size = ImageSize(DIMS.width, DIMS.height)
    for w, dets in enumerate(frames.values()):
        kept = [q for q in range(DIMS.queries) if out.class_conf[w, q] >= thresh]  # query order
        assert [(d.box, d.score, d.behavior_scores.tolist(), d.pose) for d in dets] == [
            (
                rel_to_abs(BoxRel(*out.boxes[w, q].tolist()), size),
                float(out.class_conf[w, q]),
                out.behavior_probs[w, q].tolist(),
                None,
            )
            for q in kept
        ]
    assert sum(not dets for dets in frames.values()) >= 1
    assert thresh in [d.score for dets in frames.values() for d in dets]
    assert all(len(dets) == DIMS.queries for dets in emit_detections(result, DIMS, 0.0).values())
    above = float(np.nextafter(out.class_conf.max(), np.inf))  # one ulp above every score, still <= 1
    assert emit_detections(result, DIMS, above) == {f: [] for f in frames}
    for bad in (1.1, -0.1, float("nan")):
        with pytest.raises(ValueError, match="cls_thresh must lie in"):
            emit_detections(result, DIMS, bad)


def _same_result(got: ForwardResult, want: ForwardResult):
    for name in ("boxes", "class_conf", "behavior_probs"):
        _same_bits(getattr(got.outputs, name), getattr(want.outputs, name))
    _same_bits(got.token_confidence, want.token_confidence)
    _same_bits(got.selected_tokens, want.selected_tokens)
    _same_bits(got.anchors, want.anchors)
    assert got.shapes == want.shapes


@pytest.mark.parametrize("windows", [1, WINDOW_BLOCK, WINDOW_BLOCK + 1, 2 * WINDOW_BLOCK + 3])
def test_batched_forward_matches_window_oracle_exactly(windows):
    # shared frame pairs, the block boundary and the stages' window axis change no bit
    video = np.random.default_rng(windows).random((windows + DIMS.frames - 1, 64, 64, 3))
    params = init_params(DIMS, seed=windows)
    result = toy_forward(video, params, DIMS)
    assert result.outputs.boxes.shape == (windows, DIMS.queries, 4)
    _same_result(result, window_forward(video, params, DIMS))


def test_forward_rejects_a_non_finite_value_in_any_frame():
    params = init_params(DIMS, seed=0)
    for bad in (np.nan, np.inf):
        video = np.random.default_rng(9).random((WINDOW_BLOCK + DIMS.frames, 64, 64, 3))
        video[-1, 5, 7, 2] = bad  # read only by the last window, in the second block
        with pytest.raises(ValueError, match="non-finite"):
            toy_forward(video, params, DIMS)


def test_stages_with_a_window_axis_match_each_window_exactly():
    rng = np.random.default_rng(31)
    stage = rng.normal(size=(5, 4, 8, 8, 16))  # (windows, T/2, H', W', ch)
    kernel = rng.normal(size=(4, 16))
    weight = rng.normal(size=(16, 32))
    merged = temporal_merge(stage, kernel)
    fused = channel_map(merged, weight)
    small = channel_map(rng.normal(size=(5, 2, 2, 16)), rng.normal(size=(16, 32)))
    tokens, index = flatten_concat([fused, small])
    assert tokens.shape == (5, 68, 32)
    confidence = rng.normal(size=(5, 68))
    confidence[:, 3] = confidence[:, 9]  # a tie in every window
    selected, anchors = query_select(confidence, index, ((8, 8), (2, 2)), 6)
    assert selected.shape == (5, 6) and anchors.shape == (5, 6, 4)
    for w in range(5):
        _same_bits(merged[w], temporal_merge(stage[w], kernel))
        _same_bits(fused[w], channel_map(merged[w], weight))
        one_tokens, one_index = flatten_concat([fused[w], small[w]])
        _same_bits(tokens[w], one_tokens)
        assert np.array_equal(index, one_index)
        one_selected, one_anchors = query_select(confidence[w], index, ((8, 8), (2, 2)), 6)
        _same_bits(selected[w], one_selected)
        _same_bits(anchors[w], one_anchors)
    with pytest.raises(ValueError, match="scale 1"):
        flatten_concat([fused, small[:4]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_batch_of_maps_samples_each_map_exactly():
    rng = np.random.default_rng(23)
    cases = list(_sampling_cases(rng))
    for feature, points in cases:
        maps = np.stack([feature, -feature, 2.0 * feature])  # (B, H', W', C)
        refs = points[rng.integers(len(points), size=(3, 5))]  # (B, 5, 2)
        got = bilinear_sample(maps, refs[..., 0], refs[..., 1])
        assert got.shape == (3, 5) + feature.shape[2:]
        offsets = rng.normal(0.0, 0.3, size=(4, 2))
        weights = np.full(4, 0.25)
        sampled = deformable_sample(maps, refs, offsets, weights)
        for b in range(3):
            for i in range(5):
                _same_bits(got[b, i], naive_bilinear_sample(maps[b], *refs[b, i]))
                _same_bits(sampled[b, i], naive_deformable_sample(maps[b], refs[b, i], offsets, weights))
    with pytest.raises(ValueError, match="batch of 3 maps"):
        bilinear_sample(maps, refs[:2, :, 0], refs[:2, :, 1])


@pytest.mark.parametrize("layout", sorted(CLIP_LAYOUTS))
def test_npy_clip_reads_every_layout_as_the_loaded_array(tmp_path, layout):
    # 2 * WINDOW_BLOCK + 3 windows: two block boundaries, then a partial block
    values = CLIP_LAYOUTS[layout](np.random.default_rng(3).random((2 * WINDOW_BLOCK + DIMS.frames + 2, 64, 64, 3)))
    path = tmp_path / "clip.npy"
    np.save(path, values)
    clip = NpyClip(path)
    assert (clip.shape, clip.dtype) == (values.shape, values.dtype)
    frames = clip[5:30]
    owner = frames if frames.base is None else frames.base
    assert frames.dtype == np.float64 and type(owner) is np.ndarray and owner.flags.owndata  # no view of a file map
    _same_bits(frames, values[5:30].astype(float))
    params = init_params(DIMS, seed=5)
    _same_result(toy_forward(clip, params, DIMS), toy_forward(np.load(path), params, DIMS))


@pytest.mark.parametrize("layout", sorted(CLIP_LAYOUTS))
def test_npy_clip_reads_frames_into_a_given_buffer(tmp_path, layout):
    values = CLIP_LAYOUTS[layout](np.random.default_rng(4).random((12, 64, 64, 3)))
    path = tmp_path / "clip.npy"
    np.save(path, values)
    loaded, clip = np.load(path), NpyClip(path)
    buffer = np.full((7, 64, 64, 3), np.nan)
    assert clip.read(slice(3, 10), buffer) is buffer  # the frames land in the buffer, not in a view of a file map
    _same_bits(buffer, np.array(loaded[3:10], dtype=float))
    _same_bits(clip.read(slice(10, 12), buffer[:2]), np.array(loaded[10:12], dtype=float))
    _same_bits(buffer[2:], np.array(loaded[5:10], dtype=float))  # a shorter read leaves the rest alone


def test_workspace_hands_out_leading_views_of_one_buffer_per_name():
    ws = Workspace()
    big = ws.take("a", (4, 5))
    big[...] = np.arange(20.0).reshape(4, 5)
    small = ws.take("a", (3, 2))  # another shape over the same leading elements
    assert small.flags.c_contiguous and np.shares_memory(small, big)
    assert small.ravel().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert not np.shares_memory(ws.take("b", (4, 5)), big)
    assert ws.take("c", (3,), bool).dtype == bool
    grown = ws.take("a", (5, 5))  # more than the buffer holds: a new one
    assert grown.shape == (5, 5) and not np.shares_memory(grown, big)


def test_forward_memory_does_not_grow_with_the_clip(tmp_path):
    # tracemalloc sees NumPy's buffers; loading the whole clip would add its bytes to the peak
    params = init_params(DIMS, seed=0)
    peaks, sizes = [], []
    for blocks in (2, 8):
        path = tmp_path / f"clip-{blocks}.npy"
        np.save(path, np.random.default_rng(blocks).random((blocks * WINDOW_BLOCK + DIMS.frames - 1, 64, 64, 3)))
        sizes.append(path.stat().st_size)
        tracemalloc.start()
        try:
            toy_forward(NpyClip(path), params, DIMS)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4, (peaks, sizes)

from dataclasses import replace

import numpy as np
import pytest

from motionbind.motionsynth import DEFAULT_CLASSES, make_clip
from motionbind.pipeline import (
    AugmentSpec,
    BatchLoader,
    Window,
    WindowSpec,
    _fps_indices,
    augment_window,
    center_window,
    downsample_clip,
    farthest_point_downsample,
    make_batch,
    prepare_windows,
    sliding_windows,
)


def brute_force_fps(points, k, start=0):
    """Independent greedy oracle: full scan with explicit tie-breaking."""
    points = np.asarray(points)
    N = len(points)
    sel = [start]
    dist = ((points - points[start]) ** 2).sum(-1)
    while len(sel) < min(k, N):
        best, best_d = None, -1.0
        for i in range(N):
            if dist[i] > best_d:
                best, best_d = i, dist[i]
        sel.append(best)
        dist = np.minimum(dist, ((points - points[best]) ** 2).sum(-1))
    while len(sel) < k:
        sel.append(sel[len(sel) % N])
    return points[np.array(sel)]


def clip_for(name="walk", seed=0, length=48, n_raw=128):
    cls = next(c for c in DEFAULT_CLASSES if c.name == name)
    return make_clip(cls, clip_id=1, subject_id=0, seed=seed, length=length,
                     n_raw=n_raw, tm=False)


# -- farthest point sampling ---------------------------------------------------


def test_fps_unit_square_corners():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    out = farthest_point_downsample(pts, 2, start=0)
    assert np.array_equal(out, pts[[0, 3]])


def test_fps_k_equals_n_is_permutation():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(17, 3))
    out = farthest_point_downsample(pts, 17)
    assert sorted(map(tuple, out)) == sorted(map(tuple, pts))


def test_fps_collinear_tie_break():
    # unit-spaced collinear points; after {0, 9}, points 4 and 5 tie -> pick 4
    pts = np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], axis=1)
    out = farthest_point_downsample(pts, 3, start=0)
    assert np.array_equal(out[:, 0], [0.0, 9.0, 4.0])


def test_fps_pads_cyclically_when_k_exceeds_n():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    out = farthest_point_downsample(pts, 7)
    assert out.shape == (7, 3)
    members = set(map(tuple, pts))
    assert all(tuple(p) in members for p in out)


def test_fps_empty_input_rejected():
    with pytest.raises(ValueError):
        farthest_point_downsample(np.zeros((0, 3)), 4)


def test_fps_matches_brute_force_oracle():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, n + 1))
        start = int(rng.integers(0, n))
        pts = np.round(rng.normal(size=(n, 3)), 2)  # rounded values force ties
        got = farthest_point_downsample(pts, k, start=start)
        want = brute_force_fps(pts, k, start=start)
        assert np.array_equal(got, want)


def test_fps_greedy_property_every_step():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(40, 3))
    out = farthest_point_downsample(pts, 10)
    chosen = [int(np.flatnonzero((pts == p).all(1))[0]) for p in out]
    for i in range(1, 10):
        dist = np.min(
            [((pts - pts[j]) ** 2).sum(-1) for j in chosen[:i]], axis=0)
        assert dist[chosen[i]] == dist.max()


def parent_fps_indices(frames, k, starts):
    """The earlier point-major formula, ((frames - c) ** 2).sum(-1) per step."""
    F, N, _ = frames.shape
    sel = np.zeros((F, min(k, N)), dtype=np.int64)
    sel[:, 0] = starts
    rows = np.arange(F)
    d = ((frames - frames[rows, starts][:, None]) ** 2).sum(-1)
    for i in range(1, sel.shape[1]):
        sel[:, i] = np.argmax(d, axis=1)
        d = np.minimum(d, ((frames - frames[rows, sel[:, i]][:, None]) ** 2).sum(-1))
    return sel[:, np.arange(k) % N]


def first_index_of(frames, points):
    """Per frame, the lowest index whose point equals points[f] -> (F,)."""
    return np.argmax((frames == points[:, None]).all(-1), axis=1)


def clip_at(dtype, n_raw=256, length=48):
    clip = clip_for(n_raw=n_raw, length=length)
    return replace(clip, pointcloud=clip.pointcloud.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_downsample_clip_random_starts_match_per_frame_oracle(dtype):
    clip = clip_at(dtype, n_raw=96, length=30)
    out = downsample_clip(clip, 24, seed=17).pointcloud
    assert out.dtype == dtype
    starts = first_index_of(clip.pointcloud, out[:, 0])
    assert len(set(starts.tolist())) > 1          # the frames start apart
    for f, start in enumerate(starts):
        want = brute_force_fps(clip.pointcloud[f], 24, start=int(start))
        assert np.array_equal(out[f], want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fps_duplicated_points_route_ties_to_lowest_index(dtype):
    rng = np.random.default_rng(4)
    base = rng.normal(size=(5, 20, 3))
    frames = np.concatenate([base, base, base[:, :7]], axis=1).astype(dtype)
    starts = rng.integers(0, 20, size=5)
    idx = _fps_indices(frames, 20, starts)
    assert (idx < 20).all()                       # never a later copy
    idx = _fps_indices(frames, 30, starts)        # beyond the distinct points
    for f in range(5):
        want = brute_force_fps(frames[f], 30, start=int(starts[f]))
        assert np.array_equal(frames[f][idx[f]], want)
    assert np.array_equal(idx, parent_fps_indices(frames, 30, starts))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fps_pads_cyclically_across_frames(dtype):
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(4, 6, 3)).astype(dtype)
    starts = np.array([0, 5, 2, 3])
    idx = _fps_indices(frames, 15, starts)
    assert idx.shape == (4, 15)
    assert np.array_equal(idx, idx[:, np.arange(15) % 6])
    assert all(sorted(row[:6]) == list(range(6)) for row in idx)
    clip = clip_at(dtype, n_raw=6, length=24)
    out = downsample_clip(clip, 15, seed=2).pointcloud
    assert np.array_equal(out, out[:, np.arange(15) % 6])


@pytest.mark.parametrize("seed", [None, 3])
def test_downsample_clip_float32_bytes_equal_parent_formula(seed):
    clip = clip_at(np.float32)
    pc = clip.pointcloud
    out = downsample_clip(clip, 64, seed=seed).pointcloud
    starts = first_index_of(pc, out[:, 0])
    want = pc[np.arange(len(pc))[:, None], parent_fps_indices(pc, 64, starts)]
    assert out.dtype == np.float32
    assert out.tobytes() == want.tobytes()


def test_downsample_clip_eval_deterministic():
    clip = clip_for()
    a = downsample_clip(clip, 32)
    b = downsample_clip(clip, 32)
    assert np.array_equal(a.pointcloud, b.pointcloud)
    c = downsample_clip(clip, 32, seed=5)
    assert a.pointcloud.shape == c.pointcloud.shape == (48, 32, 3)


# -- sliding windows -----------------------------------------------------------


def test_window_counts():
    spec24 = WindowSpec(length=24, stride=24)
    assert len(sliding_windows(clip_for(length=24), spec24)) == 1
    spec = WindowSpec(length=24, stride=12)
    ws = sliding_windows(clip_for(length=48), spec)
    assert [w.start for w in ws] == [0, 12, 24]


def test_window_alignment_across_modalities():
    clip = clip_for(length=40)
    for w in sliding_windows(clip, WindowSpec(length=24, stride=8)):
        s = w.start
        assert np.array_equal(w.skeleton, clip.skeleton[s : s + 24])
        assert np.array_equal(w.pointcloud, clip.pointcloud[s : s + 24])
        assert np.array_equal(w.imu, clip.imu[s : s + 24])


def test_window_too_short_rejected():
    with pytest.raises(ValueError):
        sliding_windows(clip_for(length=24), WindowSpec(length=25, stride=1))
    with pytest.raises(ValueError):
        WindowSpec(length=24, stride=0)


# -- centering -----------------------------------------------------------------


def test_center_window_frame0_reference():
    (w,) = sliding_windows(clip_for(length=24), WindowSpec(length=24, stride=24))
    c = center_window(w)
    assert np.allclose(c.pointcloud[0].mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(c.skeleton[0, 0], 0.0, atol=1e-6)
    assert np.array_equal(c.imu, w.imu)


def test_center_window_idempotent_and_translation_invariant():
    (w,) = sliding_windows(clip_for(length=24), WindowSpec(length=24, stride=24))
    once = center_window(w)
    twice = center_window(once)
    assert np.allclose(once.pointcloud, twice.pointcloud, atol=1e-6)
    shifted = replace(w, skeleton=w.skeleton + np.float32(5.0) * np.array([1, 0, 0], dtype=np.float32))
    assert np.allclose(center_window(shifted).skeleton, once.skeleton, atol=1e-5)


# -- augmentation --------------------------------------------------------------


def test_augment_disabled_is_identity():
    (w,) = sliding_windows(clip_for(length=24), WindowSpec(length=24, stride=24))
    out = augment_window(w, AugmentSpec(enabled=False), seed=1)
    assert out.pointcloud is w.pointcloud and out.imu is w.imu


def test_augment_seeded_deterministic():
    (w,) = sliding_windows(clip_for(length=24), WindowSpec(length=24, stride=24))
    spec = AugmentSpec()
    a = augment_window(w, spec, seed=3)
    b = augment_window(w, spec, seed=3)
    assert np.array_equal(a.pointcloud, b.pointcloud)
    assert np.array_equal(a.imu, b.imu)
    c = augment_window(w, spec, seed=4)
    assert not np.array_equal(a.pointcloud, c.pointcloud)


def test_augment_translation_within_bounds():
    # noiseless, scale-free spec isolates the translation term
    spec = AugmentSpec(translation=0.5, scale_low=1.0, scale_high=1.0,
                       sigma_pc=0.0, sigma_skeleton=0.0, sigma_imu=0.0)
    (w,) = sliding_windows(clip_for(length=24), WindowSpec(length=24, stride=24))
    shifts = []
    for seed in range(10_000):
        out = augment_window(w, spec, seed=seed)
        shifts.append((out.skeleton - w.skeleton).reshape(-1, 3)[0])
    shifts = np.abs(np.array(shifts))
    assert shifts.max() <= 0.5 + 1e-5


def test_augment_rejects_bad_spec():
    with pytest.raises(ValueError):
        AugmentSpec(scale_low=-1.0)
    with pytest.raises(ValueError):
        AugmentSpec(sigma_imu=-0.1)


def test_augment_preserves_shapes_and_finiteness():
    (w,) = sliding_windows(clip_for(length=24), WindowSpec(length=24, stride=24))
    out = augment_window(w, AugmentSpec(), seed=0)
    assert out.pointcloud.shape == w.pointcloud.shape
    assert out.skeleton.shape == w.skeleton.shape
    assert out.imu.shape == w.imu.shape
    for arr in (out.pointcloud, out.skeleton, out.imu):
        assert np.all(np.isfinite(arr))


# -- batching ------------------------------------------------------------------


def windows_for_batching(n_clips=4):
    ws = []
    for i in range(n_clips):
        clip = clip_for(seed=i, length=48, n_raw=64)
        ws.extend(prepare_windows([clip], WindowSpec(length=24, stride=12), 16))
    return ws


def test_make_batch_shapes():
    ws = windows_for_batching()
    batch = make_batch(ws[:8])
    assert batch["pointcloud"].shape == (8, 24, 16, 3)
    assert batch["skeleton"].shape == (8, 24, 24, 3)
    assert batch["imu"].shape == (8, 24, 36)
    assert batch["tm"].shape == (8,)
    assert not batch["tm"].any()


def test_loader_seeded_order_reproducible():
    ws = windows_for_batching()
    loader = BatchLoader(ws, augment=None)
    a = [b["skeleton"] for b in loader.batches(7, 4)]
    b = [b["skeleton"] for b in loader.batches(7, 4)]
    assert len(a) == len(ws) // 4
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_loader_rejects_empty():
    with pytest.raises(ValueError):
        BatchLoader([])

"""Preprocessing: farthest-point downsampling, sliding windows, centering,
augmentation and batch assembly with text masks.

Point clouds are downsampled per frame (greedy farthest-point selection,
lowest-index tie-break), so windows can be sliced densely at stride 1
without recomputing the subsampling. All frames of a clip are sampled
together on a coordinate-major (3, frames, points) copy of the cloud, whose
per-step distance updates run in place on (frames, points) buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .motionsynth import Clip, splitmix64


@dataclass(frozen=True)
class WindowSpec:
    length: int = 24
    stride: int = 1      # 1 for dense eval indexing; training uses 12
    fps: int = 10

    def __post_init__(self):
        if not 1 <= self.stride <= self.length:
            raise ValueError("stride must be in [1, length]")


@dataclass(frozen=True)
class AugmentSpec:
    enabled: bool = True
    translation: float = 0.5      # +/- metres per axis, geometric modalities
    scale_low: float = 0.9
    scale_high: float = 1.1
    sigma_pc: float = 0.01
    sigma_skeleton: float = 0.01
    sigma_imu: float = 0.05

    def __post_init__(self):
        if self.scale_low <= 0 or self.scale_high < self.scale_low:
            raise ValueError("scale range must be positive")
        if min(self.sigma_pc, self.sigma_skeleton, self.sigma_imu) < 0:
            raise ValueError("noise sigmas must be non-negative")


def farthest_point_downsample(points: np.ndarray, k: int, start: int = 0) -> np.ndarray:
    """Greedy farthest-point subset of one frame's points -> (k, 3).

    Starts from `start`, then repeatedly adds the point with the maximum
    min-distance to the selected set (ties: lowest index). If k > N the
    selected points are repeated cyclically to pad.
    """
    points = np.asarray(points)
    if points.size == 0:
        raise ValueError("cannot downsample an empty point set")
    idx = _fps_indices(points[None], k, np.array([start]))[0]
    return points[idx]


def _fps_indices(frames: np.ndarray, k: int, starts: np.ndarray) -> np.ndarray:
    """Vectorized greedy FPS over a stack of frames (F, N, 3) -> (F, k) indices.

    The frames are laid out coordinate-major, (3, F, N), once per call; each
    step then updates preallocated (F, N) buffers in place, summing the
    squared coordinate differences x, y, z in that order.
    """
    F, N, _ = frames.shape
    n_sel = min(k, N)
    sel = np.empty((F, n_sel), dtype=np.int64)
    sel[:, 0] = starts
    rows = np.arange(F)
    X = np.ascontiguousarray(np.moveaxis(frames, 2, 0))
    best, d, t = (np.empty(X.shape[1:], dtype=X.dtype) for _ in range(3))

    def sq_dist(idx, out):
        c = X[:, rows, idx, None]            # (3, F, 1) selected points
        np.subtract(X[0], c[0], out=out)
        np.multiply(out, out, out=out)
        for j in range(1, len(X)):
            np.subtract(X[j], c[j], out=t)
            np.multiply(t, t, out=t)
            np.add(out, t, out=out)
        return out

    sq_dist(sel[:, 0], best)
    for i in range(1, n_sel):
        nxt = np.argmax(best, axis=1)   # first max = lowest index
        sel[:, i] = nxt
        np.minimum(best, sq_dist(nxt, d), out=best)
    if k > N:
        sel = sel[:, np.arange(k) % N]
    return sel


def downsample_clip(clip: Clip, k: int, seed: int | None = None) -> Clip:
    """Replace the clip's point cloud with k FPS points per frame.

    seed=None starts every frame at index 0 (reproducible eval embeddings);
    otherwise start indices are drawn per frame from the seed.
    """
    pc = np.asarray(clip.pointcloud)
    L, N = pc.shape[:2]
    if seed is None:
        starts = np.zeros(L, dtype=np.int64)
    else:
        starts = np.random.default_rng(splitmix64(seed, clip.clip_id)).integers(0, N, size=L)
    idx = _fps_indices(pc, k, starts)
    return replace(clip, pointcloud=pc[np.arange(L)[:, None], idx])


@dataclass
class Window:
    """Aligned per-modality slices of one clip starting at `start`."""

    skeleton: np.ndarray    # (T, 24, 3)
    pointcloud: np.ndarray  # (T, N, 3)
    imu: np.ndarray         # (T, C)
    class_id: int
    clip_id: int
    subject_id: int
    start: int
    tm: bool
    tokens: list = field(default_factory=list)


def sliding_windows(clip: Clip, spec: WindowSpec) -> list[Window]:
    """Aligned windows at starts 0, stride, 2*stride, ... (same frames per modality)."""
    L = clip.length
    if L < spec.length:
        raise ValueError(f"clip length {L} shorter than window length {spec.length}")
    out = []
    for start in range(0, L - spec.length + 1, spec.stride):
        end = start + spec.length
        out.append(Window(
            skeleton=clip.skeleton[start:end],
            pointcloud=clip.pointcloud[start:end],
            imu=clip.imu[start:end],
            class_id=clip.class_id,
            clip_id=clip.clip_id,
            subject_id=clip.subject_id,
            start=start,
            tm=clip.tm,
            tokens=list(clip.tokens),
        ))
    return out


def center_window(w: Window) -> Window:
    """Subtract the frame-0 reference point (pc centroid / pelvis); IMU unchanged."""
    pc_ref = w.pointcloud[0].mean(axis=0)
    sk_ref = w.skeleton[0, 0]
    return replace(w, pointcloud=w.pointcloud - pc_ref, skeleton=w.skeleton - sk_ref)


def augment_window(w: Window, spec: AugmentSpec, seed: int) -> Window:
    """Seeded train-time augmentation, independent per modality."""
    if not spec.enabled:
        return w
    rng = np.random.default_rng(seed)

    def geo(arr, sigma):
        arr = np.asarray(arr, dtype=np.float32)
        shift = rng.uniform(-spec.translation, spec.translation, size=3)
        scale = rng.uniform(spec.scale_low, spec.scale_high)
        out = arr * np.float32(scale) + shift.astype(np.float32)
        if sigma > 0:
            out = out + rng.standard_normal(arr.shape, dtype=np.float32) * np.float32(sigma)
        return out

    imu = np.asarray(w.imu, dtype=np.float32)
    if spec.sigma_imu > 0:
        imu = imu + rng.standard_normal(imu.shape, dtype=np.float32) * np.float32(spec.sigma_imu)
    return replace(w, pointcloud=geo(w.pointcloud, spec.sigma_pc),
                   skeleton=geo(w.skeleton, spec.sigma_skeleton), imu=imu)


def prepare_windows(clips: list, spec: WindowSpec, n_points: int,
                    fps_seed: int | None = None) -> list[Window]:
    """Downsample each clip's point cloud, slice windows, center them."""
    out = []
    for clip in clips:
        ds = downsample_clip(clip, n_points, seed=fps_seed)
        out.extend(center_window(w) for w in sliding_windows(ds, spec))
    return out


def make_batch(windows: list, text_embedder=None) -> dict:
    """Stack aligned windows into modality arrays plus the text mask."""
    batch = {
        "pointcloud": np.stack([w.pointcloud for w in windows]),
        "skeleton": np.stack([w.skeleton for w in windows]),
        "imu": np.stack([w.imu for w in windows]),
        "tm": np.array([w.tm for w in windows], dtype=bool),
        "class_id": np.array([w.class_id for w in windows]),
    }
    if text_embedder is not None:
        batch["text_emb"] = text_embedder.embed_batch(
            [w.tokens for w in windows], batch["tm"])
    return batch


class BatchLoader:
    """Seeded shuffling + augmentation + stacking for the training loop."""

    def __init__(self, windows: list, augment: AugmentSpec | None = None,
                 text_embedder=None, drop_last: bool = True):
        if not windows:
            raise ValueError("empty window list")
        self.windows = list(windows)
        self.augment = augment
        self.text_embedder = text_embedder
        self.drop_last = drop_last

    def batches(self, epoch_seed: int, batch_size: int):
        rng = np.random.default_rng(epoch_seed)
        order = rng.permutation(len(self.windows))
        for i in range(0, len(order), batch_size):
            chunk = order[i : i + batch_size]
            if self.drop_last and len(chunk) < batch_size:
                break
            ws = [self.windows[j] for j in chunk]
            if self.augment is not None and self.augment.enabled:
                ws = [augment_window(w, self.augment, splitmix64(epoch_seed, int(j)))
                      for w, j in zip(ws, chunk)]
            yield make_batch(ws, self.text_embedder)

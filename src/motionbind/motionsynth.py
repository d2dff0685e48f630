"""Deterministic generator of coupled skeleton / point-cloud / IMU / text clips.

A 24-joint rigid kinematic chain is animated by class-specific parameterized
primitives (seeded phase, amplitude, heading). Point clouds are sampled on
capsules around the bones with a per-clip half-space occlusion; IMU channels
are pure functions of the skeleton (finite differences), so the modalities
are exactly coupled. Clips are serialized as fixed-layout binary records.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FPS = 10
NUM_JOINTS = 24
SURFACE_SIGMA = 0.01       # point-cloud surface noise (m), truncated at 3 sigma
CAPSULE_RADIUS = 0.10      # bone capsule radius (m)
MAX_OCCLUSION = 0.30       # fraction of points a half-space may drop
IMU_SENSORS = 6
IMU_CHANNELS = IMU_SENSORS * 6

MAGIC = b"MMC1"
FORMAT_VERSION = 1

# parent index and local offset (m) per joint; index order is FK order
_SKELETON = [
    ("pelvis", -1, (0.0, 0.0, 0.0)),
    ("l_hip", 0, (0.09, -0.07, 0.0)),
    ("r_hip", 0, (-0.09, -0.07, 0.0)),
    ("spine1", 0, (0.0, 0.11, 0.0)),
    ("l_knee", 1, (0.0, -0.40, 0.0)),
    ("r_knee", 2, (0.0, -0.40, 0.0)),
    ("spine2", 3, (0.0, 0.12, 0.0)),
    ("l_ankle", 4, (0.0, -0.42, 0.0)),
    ("r_ankle", 5, (0.0, -0.42, 0.0)),
    ("spine3", 6, (0.0, 0.12, 0.0)),
    ("l_foot", 7, (0.0, -0.06, 0.12)),
    ("r_foot", 8, (0.0, -0.06, 0.12)),
    ("neck", 9, (0.0, 0.10, 0.0)),
    ("l_collar", 9, (0.07, 0.08, 0.0)),
    ("r_collar", 9, (-0.07, 0.08, 0.0)),
    ("head", 12, (0.0, 0.15, 0.0)),
    ("l_shoulder", 13, (0.10, 0.02, 0.0)),
    ("r_shoulder", 14, (-0.10, 0.02, 0.0)),
    ("l_elbow", 16, (0.26, 0.0, 0.0)),
    ("r_elbow", 17, (-0.26, 0.0, 0.0)),
    ("l_wrist", 18, (0.25, 0.0, 0.0)),
    ("r_wrist", 19, (-0.25, 0.0, 0.0)),
    ("l_hand", 20, (0.08, 0.0, 0.0)),
    ("r_hand", 21, (-0.08, 0.0, 0.0)),
]

JOINT = {name: i for i, (name, _, _) in enumerate(_SKELETON)}
PARENTS = np.array([p for _, p, _ in _SKELETON])
OFFSETS = np.array([o for _, _, o in _SKELETON])
BONES = [(PARENTS[j], j) for j in range(1, NUM_JOINTS)]

# sensor joint -> bone used for angular velocity (parent bone; pelvis uses spine1)
SENSOR_JOINTS = ["pelvis", "head", "l_wrist", "r_wrist", "l_ankle", "r_ankle"]
_SENSOR_BONES = {
    "pelvis": ("pelvis", "spine1"),
    "head": ("neck", "head"),
    "l_wrist": ("l_elbow", "l_wrist"),
    "r_wrist": ("r_elbow", "r_wrist"),
    "l_ankle": ("l_knee", "l_ankle"),
    "r_ankle": ("r_knee", "r_ankle"),
}

TRANSITION_CLASS_ID = 0
TRANSITION_NAME = "transition"


@dataclass(frozen=True)
class MotionClass:
    id: int
    name: str


DEFAULT_CLASSES = [
    MotionClass(1, "walk"),
    MotionClass(2, "wave"),
    MotionClass(3, "squat"),
    MotionClass(4, "turn"),
    MotionClass(5, "still"),
    MotionClass(6, "jump"),
    MotionClass(7, "lunge"),
    MotionClass(8, "stretch"),
]

TEXT_TEMPLATE_WORDS = ["a", "person", "performing", "someone", "is"]


def class_by_id(cid: int, classes=None) -> MotionClass:
    for c in classes or DEFAULT_CLASSES:
        if c.id == cid:
            return c
    raise KeyError(f"unknown motion class id {cid}")


def splitmix64(seed: int, stream: int) -> int:
    """Derive an independent child seed; parallelism-invariant per clip."""
    x = (seed + 0x9E3779B97F4A7C15 * (stream + 1)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _rodrigues(rotvecs: np.ndarray) -> np.ndarray:
    """Axis-angle vectors (..., 3) to rotation matrices (..., 3, 3)."""
    theta = np.linalg.norm(rotvecs, axis=-1, keepdims=True)
    small = theta[..., 0] < 1e-12
    axis = np.where(theta > 1e-12, rotvecs / np.maximum(theta, 1e-12), 0.0)
    K = np.zeros(rotvecs.shape[:-1] + (3, 3))
    ax, ay, az = axis[..., 0], axis[..., 1], axis[..., 2]
    K[..., 0, 1], K[..., 0, 2] = -az, ay
    K[..., 1, 0], K[..., 1, 2] = az, -ax
    K[..., 2, 0], K[..., 2, 1] = -ay, ax
    s = np.sin(theta)[..., None]
    c = np.cos(theta)[..., None]
    R = np.eye(3) + s * K + (1.0 - c) * (K @ K)
    R[small] = np.eye(3)
    return R


def _forward_kinematics(angles: np.ndarray, root_pos: np.ndarray) -> np.ndarray:
    """Joint positions (L, 24, 3) from local axis-angles and root translation."""
    L = angles.shape[0]
    R = _rodrigues(angles)
    G = np.zeros((L, NUM_JOINTS, 3, 3))
    P = np.zeros((L, NUM_JOINTS, 3))
    G[:, 0] = R[:, 0]
    P[:, 0] = root_pos
    for j in range(1, NUM_JOINTS):
        p = PARENTS[j]
        G[:, j] = G[:, p] @ R[:, j]
        P[:, j] = P[:, p] + np.einsum("lij,j->li", G[:, p], OFFSETS[j])
    return P


@dataclass
class _Jitter:
    phase: float
    phase2: float
    amp: float
    freq: float
    heading: float
    posture: np.ndarray   # (24, 3) constant angle offsets
    root_xy: np.ndarray   # horizontal root offset


def _draw_jitter(rng: np.random.Generator) -> _Jitter:
    return _Jitter(
        phase=rng.uniform(0, 2 * np.pi),
        phase2=rng.uniform(0, 2 * np.pi),
        amp=rng.uniform(0.85, 1.15),
        freq=rng.uniform(0.9, 1.1),
        heading=rng.uniform(-0.3, 0.3),
        posture=rng.normal(0.0, 0.02, size=(NUM_JOINTS, 3)),
        root_xy=rng.uniform(-0.1, 0.1, size=2),
    )


def _class_motion(name: str, t: np.ndarray, jit: _Jitter):
    """Per-class joint angles (L, 24, 3) and root translation (L, 3)."""
    L = t.shape[0]
    ang = np.zeros((L, NUM_JOINTS, 3))
    root = np.zeros((L, 3))
    # slow drift envelope breaks exact periodicity so distant windows differ
    env = jit.amp * (1.0 + 0.2 * np.sin(2 * np.pi * 0.06 * t + jit.phase2))

    # slow time warp: the instantaneous rate sweeps +/-12% across the clip,
    # so a window's dominant frequency keys its absolute position (visible
    # in every modality, including IMU where acceleration scales with rate^2)
    warp = t - (0.12 / (2 * np.pi * 0.012)) * np.cos(2 * np.pi * 0.012 * t
                                                     + 1.7 * jit.phase)

    def osc(freq_hz, amp):
        th = 2 * np.pi * freq_hz * jit.freq * warp + jit.phase \
            + 0.9 * np.sin(2 * np.pi * 0.05 * t + jit.phase2)
        return amp * env * np.sin(th), th

    if name == "walk":
        s, th = osc(0.9, 0.40)
        ang[:, JOINT["l_hip"], 0] = s
        ang[:, JOINT["r_hip"], 0] = -s
        ang[:, JOINT["l_knee"], 0] = 0.25 * env * (1 - np.cos(th))
        ang[:, JOINT["r_knee"], 0] = 0.25 * env * (1 + np.cos(th))
        ang[:, JOINT["l_shoulder"], 0] = -0.6 * s
        ang[:, JOINT["r_shoulder"], 0] = 0.6 * s
        ang[:, JOINT["spine1"], 0] = 0.10
        root[:, 1] = 0.02 * np.sin(2 * th)
    elif name == "wave":
        s, _ = osc(1.4, 0.55)
        ang[:, JOINT["r_shoulder"], 2] = 1.9
        ang[:, JOINT["r_elbow"], 2] = 0.9 + s
        ang[:, JOINT["l_shoulder"], 2] = -0.15
    elif name == "squat":
        s, th = osc(0.5, 1.0)
        c = env * (1 - np.cos(th)) / 2.0
        ang[:, JOINT["l_hip"], 0] = 0.9 * c
        ang[:, JOINT["r_hip"], 0] = 0.9 * c
        ang[:, JOINT["l_knee"], 0] = -1.1 * c
        ang[:, JOINT["r_knee"], 0] = -1.1 * c
        ang[:, JOINT["l_shoulder"], 0] = -0.7 * c
        ang[:, JOINT["r_shoulder"], 0] = -0.7 * c
        root[:, 1] = -0.25 * c
    elif name == "turn":
        s, _ = osc(0.35, 0.7)
        ang[:, JOINT["pelvis"], 1] = s
        ang[:, JOINT["l_shoulder"], 2] = 0.35
        ang[:, JOINT["r_shoulder"], 2] = -0.35
    elif name == "still":
        s, _ = osc(0.25, 0.004)
        ang[:, JOINT["spine2"], 0] = s
        ang[:, JOINT["l_shoulder"], 2] = -1.45   # arms hanging
        ang[:, JOINT["r_shoulder"], 2] = 1.45
    elif name == "jump":
        s, th = osc(0.7, 1.0)
        up = np.maximum(0.0, np.sin(th))
        crouch = np.maximum(0.0, -np.sin(th))
        root[:, 1] = 0.16 * env * up
        ang[:, JOINT["l_knee"], 0] = -0.5 * env * crouch
        ang[:, JOINT["r_knee"], 0] = -0.5 * env * crouch
        ang[:, JOINT["l_hip"], 0] = 0.4 * env * crouch
        ang[:, JOINT["r_hip"], 0] = 0.4 * env * crouch
        ang[:, JOINT["l_shoulder"], 2] = 0.4 + 0.6 * up
        ang[:, JOINT["r_shoulder"], 2] = -0.4 - 0.6 * up
    elif name == "lunge":
        s, _ = osc(0.5, 0.25)
        ang[:, JOINT["l_hip"], 0] = 0.7 + s
        ang[:, JOINT["l_knee"], 0] = -(0.8 + 1.2 * s)
        ang[:, JOINT["r_hip"], 0] = -0.35
        ang[:, JOINT["r_knee"], 0] = -0.3
        root[:, 1] = -0.15 + 0.2 * s
    elif name == "stretch":
        s, _ = osc(0.3, 0.2)
        ang[:, JOINT["l_shoulder"], 2] = 2.2 + s
        ang[:, JOINT["r_shoulder"], 2] = -2.2 - s
        ang[:, JOINT["spine1"], 0] = -0.10 + 0.3 * s
    else:
        raise KeyError(f"unknown motion class '{name}'")
    # slow posture wander: a time signature that survives window centering
    # and global-scale augmentation, keying absolute position in the clip
    ang[:, JOINT["spine1"], 2] += 0.18 * np.sin(2 * np.pi * 0.035 * t + jit.phase2)
    ang[:, JOINT["spine2"], 0] += 0.15 * np.sin(2 * np.pi * 0.021 * t + 1.3 * jit.phase)
    ang[:, JOINT["head"], 1] += 0.25 * np.sin(2 * np.pi * 0.027 * t + 0.6 * jit.phase2)
    return ang, root


def generate_skeleton(cls: MotionClass, seed: int, length: int) -> np.ndarray:
    """Animate the rigid chain for `length` frames at 10 FPS -> (L, 24, 3)."""
    if length < 24:
        raise ValueError("sequence length must be at least 24 frames")
    rng = np.random.default_rng(seed)
    jit = _draw_jitter(rng)
    t = np.arange(length) / FPS
    ang, root = _class_motion(cls.name, t, jit)
    ang = ang + jit.posture
    # constant per-clip heading about the vertical axis
    ang[:, 0, 1] = ang[:, 0, 1] + jit.heading
    root = root + np.array([jit.root_xy[0], 0.95, jit.root_xy[1]])
    return _forward_kinematics(ang, root)


def sample_pointcloud(skeleton: np.ndarray, seed: int, n_raw: int) -> np.ndarray:
    """Sample n_raw points per frame on capsules around the bones -> (L, n_raw, 3).

    A seeded half-space occlusion removes up to 30% of each frame's points
    (one plane per sequence, mimicking a static viewpoint); the frame is
    re-padded by resampling surviving points.
    """
    if n_raw < 1:
        raise ValueError("n_raw must be positive")
    skeleton = np.asarray(skeleton, dtype=np.float32)
    L = skeleton.shape[0]
    rng = np.random.default_rng(seed)
    rows = np.arange(L)[:, None]

    starts = skeleton[:, [b[0] for b in BONES]]       # (L, 23, 3)
    ends = skeleton[:, [b[1] for b in BONES]]
    lengths = np.linalg.norm(ends[0] - starts[0], axis=-1)

    # per-bone point budget proportional to bone length (largest remainder);
    # points within a frame are unordered, so a fixed assignment is fine
    quota = lengths / lengths.sum() * n_raw
    counts = np.floor(quota).astype(int)
    rem = n_raw - counts.sum()
    counts[np.argsort(quota - np.floor(quota))[::-1][:rem]] += 1
    bidx = np.repeat(np.arange(len(BONES)), counts)

    u = rng.random(size=(L, n_raw, 1), dtype=np.float32)
    a = starts[:, bidx]
    seg = ends[:, bidx] - a
    centers = a + u * seg
    axis = seg / np.maximum(np.sqrt((seg * seg).sum(-1, keepdims=True)), 1e-9)

    v = rng.standard_normal(size=(L, n_raw, 3), dtype=np.float32)
    v -= (v * axis).sum(-1, keepdims=True) * axis
    v /= np.maximum(np.sqrt((v * v).sum(-1, keepdims=True)), 1e-9)
    radial = rng.standard_normal(size=(L, n_raw, 1), dtype=np.float32) * np.float32(SURFACE_SIGMA)
    cap = np.float32(3.0 * SURFACE_SIGMA)
    radial = np.clip(radial, -cap, cap)
    points = centers + (np.float32(CAPSULE_RADIUS) + radial) * v

    # half-space occlusion: drop the q most extreme points along a fixed direction
    d = rng.normal(size=3)
    d = (d / np.linalg.norm(d)).astype(np.float32)
    q = rng.uniform(0.0, MAX_OCCLUSION)
    n_drop = int(q * n_raw)
    if n_drop > 0:
        proj = points @ d
        keep = np.argpartition(proj, n_raw - n_drop - 1, axis=1)[:, : n_raw - n_drop]
        refill = keep[rows, rng.integers(0, n_raw - n_drop, size=(L, n_drop))]
        points = points[rows, np.concatenate([keep, refill], axis=1)]
    return points


def derive_imu(skeleton: np.ndarray) -> np.ndarray:
    """Synthetic IMU channels (L, 36) as a pure function of the skeleton.

    Per sensor joint: linear acceleration from second-order central
    differences of its position (m/s^2) and angular velocity from
    first-order differences of its adjacent bone direction (rad/s).
    Endpoint frames are replicated. Gravity is not modeled.
    """
    skeleton = np.asarray(skeleton, dtype=np.float64)
    L = skeleton.shape[0]
    if L < 3:
        raise ValueError("need at least 3 frames to derive IMU channels")
    out = np.zeros((L, IMU_CHANNELS))
    for s, name in enumerate(SENSOR_JOINTS):
        p = skeleton[:, JOINT[name]]
        acc = np.zeros_like(p)
        acc[1:-1] = (p[2:] - 2 * p[1:-1] + p[:-2]) * FPS * FPS
        acc[0], acc[-1] = acc[1], acc[-2]
        pa, ch = _SENSOR_BONES[name]
        d = skeleton[:, JOINT[ch]] - skeleton[:, JOINT[pa]]
        d /= np.maximum(np.linalg.norm(d, axis=-1, keepdims=True), 1e-12)
        w = np.zeros_like(d)
        w[:-1] = np.cross(d[:-1], d[1:]) * FPS
        w[-1] = w[-2]
        out[:, s * 6 : s * 6 + 3] = acc
        out[:, s * 6 + 3 : s * 6 + 6] = w
    return out


@dataclass
class Clip:
    """One coupled quadruple plus identity metadata."""

    clip_id: int
    subject_id: int
    class_id: int
    skeleton: np.ndarray    # (L, 24, 3) float32
    pointcloud: np.ndarray  # (L, N, 3) float32
    imu: np.ndarray         # (L, 36)   float32
    tm: bool
    tokens: list = field(default_factory=list)
    fps: int = FPS

    @property
    def length(self) -> int:
        return int(self.skeleton.shape[0])


def build_vocabulary(classes=None):
    from .encoders import Vocabulary

    names = [c.name for c in (classes or DEFAULT_CLASSES)]
    return Vocabulary(names + TEXT_TEMPLATE_WORDS)


def _text_tokens(vocab, cls: MotionClass, rng: np.random.Generator) -> list:
    templates = [
        f"a person performing {cls.name}",
        f"someone is performing {cls.name}",
        f"{cls.name}",
    ]
    return vocab.encode(templates[rng.integers(0, len(templates))])


def make_clip(cls: MotionClass, clip_id: int, subject_id: int, seed: int,
              length: int, n_raw: int, tm: bool, vocab=None) -> Clip:
    """Generate one coupled clip from its own child seed."""
    child = splitmix64(seed, clip_id)
    rng = np.random.default_rng(child)
    skel = generate_skeleton(cls, child, length).astype(np.float32)
    pc = sample_pointcloud(skel, splitmix64(child, 1), n_raw).astype(np.float32)
    imu = derive_imu(skel).astype(np.float32)
    tokens = _text_tokens(vocab, cls, rng) if tm and vocab is not None else []
    return Clip(clip_id=clip_id, subject_id=subject_id, class_id=cls.id,
                skeleton=skel, pointcloud=pc, imu=imu, tm=tm, tokens=tokens)


def make_sequence(classes: list, clip_id: int, subject_id: int, seed: int,
                  seg_len: int, n_raw: int, fade: int = 8) -> Clip:
    """Generate a long recording of several activities performed back to back.

    Each entry of `classes` contributes one segment of `seg_len` frames;
    consecutive segments overlap by `fade` frames where joint positions are
    linearly cross-faded (and the incoming segment is shifted so its root
    continues from the previous one).  Total length is
    len(classes) * seg_len + fade.  The blended boundary frames stand in for
    unlabeled transitions, so the clip carries TRANSITION_CLASS_ID.
    """
    if len(classes) < 2:
        raise ValueError("a sequence needs at least 2 segments")
    if not 1 <= fade < seg_len:
        raise ValueError("fade must be in [1, seg_len)")
    child = splitmix64(seed, clip_id)
    skel = generate_skeleton(classes[0], splitmix64(child, 100), seg_len + fade)
    skel = skel.astype(np.float64)
    for k, cls in enumerate(classes[1:], start=1):
        nxt = generate_skeleton(cls, splitmix64(child, 100 + k), seg_len + fade)
        nxt = nxt.astype(np.float64)
        nxt = nxt + (skel[-1, 0] - nxt[0, 0])
        w = (np.arange(1, fade + 1) / (fade + 1.0))[:, None, None]
        blend = skel[-fade:] * (1.0 - w) + nxt[:fade] * w
        skel = np.concatenate([skel[:-fade], blend, nxt[fade:]], axis=0)
    skel = skel.astype(np.float32)
    pc = sample_pointcloud(skel, splitmix64(child, 1), n_raw).astype(np.float32)
    imu = derive_imu(skel).astype(np.float32)
    return Clip(clip_id=clip_id, subject_id=subject_id,
                class_id=TRANSITION_CLASS_ID, skeleton=skel,
                pointcloud=pc, imu=imu, tm=False)


@dataclass
class DatasetSpec:
    train_per_class: int = 50
    test_per_class: int = 20
    text_coverage: float = 0.37
    length: int = 48
    n_raw: int = 512
    train_subjects: int = 10
    test_subjects: int = 5
    classes: list = field(default_factory=lambda: list(DEFAULT_CLASSES))


def generate_dataset(spec: DatasetSpec, seed: int, out_dir) -> dict:
    """Write train/test clip files + manifest; subjects are split disjointly."""
    if not 0.0 <= spec.text_coverage <= 1.0:
        raise ValueError("text_coverage must be in [0, 1]")
    if spec.train_per_class < 1 or spec.test_per_class < 1:
        raise ValueError("every class needs at least one clip per split")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab = build_vocabulary(spec.classes)

    n_train = spec.train_per_class * len(spec.classes)
    n_text = int(np.ceil(spec.text_coverage * n_train))
    text_rng = np.random.default_rng(splitmix64(seed, 777))
    text_ids = set(text_rng.permutation(n_train)[:n_text].tolist())

    def build_split(per_class, subject_base, subject_count, with_text, id_base):
        clips = []
        i = 0
        for cls in spec.classes:
            for _ in range(per_class):
                cid = id_base + i
                tm = with_text and (i in text_ids)
                clips.append(make_clip(
                    cls, cid, subject_base + (i % subject_count), seed,
                    spec.length, spec.n_raw, tm, vocab))
                i += 1
        return clips

    train = build_split(spec.train_per_class, 0, spec.train_subjects, True, 0)
    test = build_split(spec.test_per_class, 10_000, spec.test_subjects, False, 1_000_000)

    save_clips(out_dir / "train.mmc", train)
    save_clips(out_dir / "test.mmc", test)
    manifest = {
        "seed": seed,
        "classes": [{"id": c.id, "name": c.name} for c in spec.classes],
        "transition_class_id": TRANSITION_CLASS_ID,
        "vocabulary": vocab.tokens,
        "text_coverage": spec.text_coverage,
        "text_clips": n_text,
        "train_clips": len(train),
        "test_clips": len(test),
        "length": spec.length,
        "n_raw": spec.n_raw,
        "imu_channels": IMU_CHANNELS,
        "fps": FPS,
    }
    with atomic_write(out_dir / "manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2))
    return manifest


# -- serialization -------------------------------------------------------------


class DataError(ValueError):
    """Input data is missing or unusable."""


class FormatError(DataError):
    """A binary artifact (MMC1, CKP1, EMB1) is truncated or corrupt."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    """Open a temporary file beside `path` for writing; it replaces `path`
    only once the block completes, and is removed if the block raises, so
    readers see the old file or the new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ByteReader:
    """Bounds-checked cursor over one file's bytes.

    Every read checks that its bytes are there, and every field that does not
    decode raises `FormatError` naming the file and the offset.
    """

    def __init__(self, data: bytes, name: str):
        self.data, self.name, self.off = data, name, 0

    def error(self, what: str, off: int | None = None) -> FormatError:
        """A FormatError at `off`, by default the cursor's offset."""
        return FormatError(f"{self.name} at offset {self.off if off is None else off}: {what}")

    def at_end(self) -> bool:
        return self.off >= len(self.data)

    def _advance(self, n: int) -> int:
        """Offset of the next n bytes, which the cursor then moves past."""
        left = len(self.data) - self.off
        if n > left:
            raise self.error(f"truncated, {n} bytes needed, {left} left")
        off, self.off = self.off, self.off + n
        return off

    def bytes(self, n: int) -> bytes:
        off = self._advance(n)
        return self.data[off : off + n]

    def text(self, n: int) -> str:
        off = self.off
        raw = self.bytes(n)
        try:
            return raw.decode()
        except UnicodeDecodeError:
            raise self.error(f"undecodable text {raw[:16]!r}", off) from None

    def unpack(self, st: struct.Struct) -> tuple:
        return st.unpack_from(self.data, self._advance(st.size))

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        off = self._advance(count * dtype.itemsize)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=off).copy()


_HEADER = struct.Struct("<4sHIIHHHHB")
_NTOK = struct.Struct("<H")


def save_clips(path, clips: list) -> None:
    with atomic_write(path) as fh:
        for c in clips:
            L, N = c.skeleton.shape[0], c.pointcloud.shape[1]
            C = c.imu.shape[1]
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, c.clip_id, c.subject_id,
                                  c.class_id, L, N, C, int(c.tm)))
            fh.write(np.ascontiguousarray(c.skeleton, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(c.pointcloud, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(c.imu, dtype="<f4").tobytes())
            fh.write(_NTOK.pack(len(c.tokens)))
            fh.write(np.asarray(c.tokens, dtype="<u4").tobytes())


def load_clips(path) -> list:
    """Read an MMC1 file; a truncated or corrupt record raises `FormatError`."""
    clips = []
    r = ByteReader(Path(path).read_bytes(), f"clip file {path}")
    while not r.at_end():
        off = r.off
        magic, ver, clip_id, subject_id, class_id, L, N, C, tm = r.unpack(_HEADER)
        if magic != MAGIC:
            raise r.error(f"bad magic {magic!r}", off)
        if ver != FORMAT_VERSION:
            raise r.error(f"unsupported clip format version {ver}", off)
        skel = r.array("<f4", L * NUM_JOINTS * 3).reshape(L, NUM_JOINTS, 3)
        pc = r.array("<f4", L * N * 3).reshape(L, N, 3)
        imu = r.array("<f4", L * C).reshape(L, C)
        (ntok,) = r.unpack(_NTOK)
        tokens = r.array("<u4", ntok).tolist()
        clips.append(Clip(clip_id=clip_id, subject_id=subject_id, class_id=class_id,
                          skeleton=skel, pointcloud=pc, imu=imu, tm=bool(tm), tokens=tokens))
    return clips

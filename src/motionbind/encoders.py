"""Per-modality encoders mapping aligned motion windows to shared embeddings.

Desk-scale stand-ins for the full-size architectures: the point-cloud
encoder is a per-point shared MLP with frame-wise max pooling and a GRU
over time, IMU uses a 2-layer LSTM, skeletons a frame-flattening MLP plus
GRU. Text is embedded by a frozen seeded lookup-and-project embedder that
never receives gradients. All trainable encoders end in a SimCLR-style
2-layer projection head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor

NUM_JOINTS = 24


class Module:
    """Parameter container with recursive named-parameter collection."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._children: dict[str, "Module"] = {}

    def add_param(self, name: str, value: np.ndarray) -> Tensor:
        t = Tensor(value, requires_grad=True, name=name)
        self._params[name] = t
        return t

    def add_child(self, name: str, child: "Module") -> "Module":
        self._children[name] = child
        return child

    def params(self, prefix: str = "") -> dict[str, Tensor]:
        out = {prefix + k: v for k, v in self._params.items()}
        for name, child in self._children.items():
            out.update(child.params(prefix=f"{prefix}{name}."))
        return out

    def zero_grad(self) -> None:
        for p in self.params().values():
            p.zero_grad()

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = self.params()
        if set(own) != set(state):
            missing = set(own) ^ set(state)
            raise KeyError(f"parameter name mismatch: {sorted(missing)}")
        for k, t in own.items():
            if t.data.shape != state[k].shape:
                raise ShapeError(f"parameter '{k}': shape {state[k].shape} != {t.data.shape}")
            t.data = np.array(state[k], dtype=t.data.dtype)  # a copy, never a view of `state`

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.params().items()}


def _init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, rng, in_dim: int, out_dim: int):
        super().__init__()
        self.W = self.add_param("W", _init(rng, in_dim, (in_dim, out_dim)))
        self.b = self.add_param("b", _init(rng, in_dim, (out_dim,)))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.W + self.b


class GRU(Module):
    """Single-layer GRU; returns the final hidden state."""

    def __init__(self, rng, in_dim: int, hidden: int):
        super().__init__()
        self.hidden = hidden
        fi = in_dim + hidden
        self.Wg = self.add_param("Wg", _init(rng, fi, (in_dim, 2 * hidden)))
        self.Ug = self.add_param("Ug", _init(rng, fi, (hidden, 2 * hidden)))
        self.bg = self.add_param("bg", np.zeros(2 * hidden))
        self.Wn = self.add_param("Wn", _init(rng, fi, (in_dim, hidden)))
        self.Un = self.add_param("Un", _init(rng, fi, (hidden, hidden)))
        self.bn = self.add_param("bn", np.zeros(hidden))

    def step(self, x: Tensor, h: Tensor) -> Tensor:
        gates = (x @ self.Wg + h @ self.Ug + self.bg).sigmoid()
        z = gates[:, : self.hidden]
        r = gates[:, self.hidden :]
        n = (x @ self.Wn + (r * h) @ self.Un + self.bn).tanh()
        one = Tensor(np.asarray(1.0, dtype=z.data.dtype))
        return (one - z) * h + z * n

    def __call__(self, xs: list[Tensor], batch: int) -> Tensor:
        h = Tensor(np.zeros((batch, self.hidden)))
        for x in xs:
            h = self.step(x, h)
        return h


class LSTM(Module):
    """Stacked LSTM; returns the top layer's final hidden state."""

    def __init__(self, rng, in_dim: int, hidden: int, layers: int = 2):
        super().__init__()
        self.hidden = hidden
        self.layers = layers
        for i in range(layers):
            d = in_dim if i == 0 else hidden
            fi = d + hidden
            self.add_param(f"Wx{i}", _init(rng, fi, (d, 4 * hidden)))
            self.add_param(f"Wh{i}", _init(rng, fi, (hidden, 4 * hidden)))
            self.add_param(f"b{i}", np.zeros(4 * hidden))

    def __call__(self, xs: list[Tensor], batch: int) -> Tensor:
        H = self.hidden
        seq = xs
        h = None
        for i in range(self.layers):
            Wx, Wh, b = self._params[f"Wx{i}"], self._params[f"Wh{i}"], self._params[f"b{i}"]
            h = Tensor(np.zeros((batch, H)))
            c = Tensor(np.zeros((batch, H)))
            outs = []
            for x in seq:
                gates = x @ Wx + h @ Wh + b
                ig = gates[:, :H].sigmoid()
                fg = gates[:, H : 2 * H].sigmoid()
                gg = gates[:, 2 * H : 3 * H].tanh()
                og = gates[:, 3 * H :].sigmoid()
                c = fg * c + ig * gg
                h = og * c.tanh()
                outs.append(h)
            seq = outs
        return h


class ProjectionHead(Module):
    """SimCLR-style 2-layer MLP head: in -> e -> e with a ReLU between."""

    def __init__(self, rng, in_dim: int, e: int):
        super().__init__()
        self.fc1 = self.add_child("fc1", Linear(rng, in_dim, e))
        self.fc2 = self.add_child("fc2", Linear(rng, e, e))

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())


@dataclass
class EncoderConfig:
    """Widths for the desk-scale encoders; defaults follow the full setup."""

    e: int = 512                 # shared embedding dim
    points: int = 256            # points per frame after downsampling
    imu_channels: int = 36
    window: int | None = 24      # expected frames per window; None = any
    point_mlp: tuple = (64, 128)
    hidden: int = 128            # recurrent width
    skeleton_mlp: int = 128


class PointCloudEncoder(Module):
    """Shared per-point MLP, frame-wise max pool, GRU over frames, head."""

    def __init__(self, cfg: EncoderConfig, rng):
        super().__init__()
        self.cfg = cfg
        w1, w2 = cfg.point_mlp
        self.fc1 = self.add_child("fc1", Linear(rng, 3, w1))
        self.fc2 = self.add_child("fc2", Linear(rng, w1, w2))
        self.gru = self.add_child("gru", GRU(rng, w2, cfg.hidden))
        self.head = self.add_child("head", ProjectionHead(rng, cfg.hidden, cfg.e))

    def features(self, windows: np.ndarray) -> Tensor:
        """Pre-head features (B, hidden) from windows (B, T, N, 3)."""
        x = np.asarray(windows)
        if x.ndim != 4 or x.shape[3] != 3:
            raise ShapeError(f"point-cloud windows must be (B, T, N, 3), got {x.shape}")
        B, T, N, _ = x.shape
        if self.cfg.window is not None and T != self.cfg.window:
            raise ShapeError(f"expected {self.cfg.window}-frame windows, got T={T}")
        if N != self.cfg.points:
            raise ShapeError(f"expected {self.cfg.points} points per frame, got N={N}")
        pts = Tensor(x.reshape(B * T * N, 3))
        feat = self.fc2(self.fc1(pts).relu()).relu()
        per_frame = feat.reshape(B, T, N, -1).max(axis=2)  # symmetric over points
        frames = [per_frame[:, t, :] for t in range(T)]
        return self.gru(frames, B)

    def __call__(self, windows: np.ndarray) -> Tensor:
        return self.head(self.features(windows))


class ImuEncoder(Module):
    """2-layer LSTM over channel frames; final hidden state feeds the head."""

    def __init__(self, cfg: EncoderConfig, rng):
        super().__init__()
        self.cfg = cfg
        self.lstm = self.add_child("lstm", LSTM(rng, cfg.imu_channels, cfg.hidden, layers=2))
        self.head = self.add_child("head", ProjectionHead(rng, cfg.hidden, cfg.e))

    def features(self, windows: np.ndarray) -> Tensor:
        x = np.asarray(windows)
        if x.ndim != 3:
            raise ShapeError(f"IMU windows must be (B, T, C), got {x.shape}")
        B, T, C = x.shape
        if C != self.cfg.imu_channels:
            raise ShapeError(f"expected {self.cfg.imu_channels} IMU channels, got C={C}")
        xs = [Tensor(x[:, t, :]) for t in range(T)]
        return self.lstm(xs, B)

    def __call__(self, windows: np.ndarray) -> Tensor:
        return self.head(self.features(windows))


class SkeletonEncoder(Module):
    """Per-frame joint-flattening MLP, GRU over frames, head."""

    def __init__(self, cfg: EncoderConfig, rng):
        super().__init__()
        self.cfg = cfg
        self.fc = self.add_child("fc", Linear(rng, NUM_JOINTS * 3, cfg.skeleton_mlp))
        self.gru = self.add_child("gru", GRU(rng, cfg.skeleton_mlp, cfg.hidden))
        self.head = self.add_child("head", ProjectionHead(rng, cfg.hidden, cfg.e))

    def features(self, windows: np.ndarray) -> Tensor:
        x = np.asarray(windows)
        if x.ndim != 4 or x.shape[2] != NUM_JOINTS or x.shape[3] != 3:
            raise ShapeError(f"skeleton windows must be (B, T, {NUM_JOINTS}, 3), got {x.shape}")
        B, T = x.shape[:2]
        flat = Tensor(x.reshape(B * T, NUM_JOINTS * 3))
        frames = self.fc(flat).relu().reshape(B, T, -1)
        return self.gru([frames[:, t, :] for t in range(T)], B)

    def __call__(self, windows: np.ndarray) -> Tensor:
        return self.head(self.features(windows))


class Vocabulary:
    """Closed whitespace-token vocabulary with stable integer ids."""

    def __init__(self, tokens: list[str]):
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        ids = []
        for tok in text.split():
            if tok not in self.index:
                raise KeyError(f"token '{tok}' not in vocabulary")
            ids.append(self.index[tok])
        return ids


class TextEmbedder:
    """Frozen text embedder: seeded token table, mean pool, L2 norm, seeded
    projection to the shared dim. Deterministic; holds no trainable state.
    """

    TABLE_DIM = 64

    def __init__(self, vocab: Vocabulary, e: int, seed: int = 2024):
        self.vocab = vocab
        self.e = e
        rng = np.random.default_rng(seed)
        self.table = rng.normal(size=(len(vocab), self.TABLE_DIM))
        self.proj = rng.normal(size=(self.TABLE_DIM, e)) / np.sqrt(self.TABLE_DIM)
        dummy = rng.normal(size=e)
        self.dummy = dummy / np.linalg.norm(dummy)

    def embed(self, token_ids: list[int], present: bool = True) -> np.ndarray:
        """Embedding for one token list; the constant dummy when absent."""
        if not present:
            return self.dummy.copy()
        for tid in token_ids:
            if not 0 <= tid < len(self.vocab):
                raise KeyError(f"token id {tid} out of vocabulary (size {len(self.vocab)})")
        if not token_ids:
            raise ValueError("empty token list with present=True")
        pooled = self.table[np.asarray(token_ids)].mean(axis=0)
        pooled = pooled / np.linalg.norm(pooled)
        return pooled @ self.proj

    def embed_batch(self, token_lists: list[list[int]], tm: np.ndarray) -> np.ndarray:
        return np.stack(
            [self.embed(ids, present=bool(m)) for ids, m in zip(token_lists, tm)]
        )

    def embed_text(self, text: str) -> np.ndarray:
        return self.embed(self.vocab.encode(text))


class EncoderSet(Module):
    """The trainable encoders for the active sensing modalities, as children
    named by modality, so `params()` and `load_state` cover all of them."""

    def __init__(self, cfg: EncoderConfig):
        super().__init__()
        self.cfg = cfg
        self.pointcloud: PointCloudEncoder | None = None
        self.imu: ImuEncoder | None = None
        self.skeleton: SkeletonEncoder | None = None
        self.text: TextEmbedder | None = None

    @staticmethod
    def build(cfg: EncoderConfig, modalities: set[str], seed: int, vocab: Vocabulary | None = None) -> "EncoderSet":
        rng = np.random.default_rng(seed)
        enc = EncoderSet(cfg)
        # construction order is fixed so a given seed is reproducible
        for name, cls in (("pointcloud", PointCloudEncoder), ("imu", ImuEncoder),
                          ("skeleton", SkeletonEncoder)):
            if name in modalities:
                setattr(enc, name, enc.add_child(name, cls(cfg, rng)))
        if "text" in modalities:
            if vocab is None:
                raise ValueError("text modality requires a vocabulary")
            enc.text = TextEmbedder(vocab, cfg.e)
        return enc

    def modality(self, name: str) -> Module:
        if name not in self._children:
            raise KeyError(f"no encoder for modality '{name}'")
        return self._children[name]

    def sensing(self) -> dict[str, Module]:
        """modality -> encoder, in construction order."""
        return dict(self._children)

"""Per-modality encoders mapping aligned motion windows to shared embeddings.

Desk-scale stand-ins for the full-size architectures: the point-cloud
encoder is a per-point shared MLP with frame-wise max pooling and a GRU
over time, IMU uses a 2-layer LSTM, skeletons a frame-flattening MLP plus
GRU. Text is embedded by a frozen seeded lookup-and-project embedder that
never receives gradients. All trainable encoders end in a SimCLR-style
2-layer projection head.

The point MLP with its max-pool, the GRU and each LSTM layer are single
tape ops with hand-written backward passes (`pointnet_frames`, `gru`,
`lstm_layer`): the point stage runs in blocks of frames, and each
recurrence computes its input projection for all timesteps in one GEMM
before the time loop. So a forward call, training or inference, records a
handful of tape nodes per encoder, whatever the window length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, get_default_dtype, sigmoid_array

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
        fi = in_dim + hidden
        self.Wg = self.add_param("Wg", _init(rng, fi, (in_dim, 2 * hidden)))
        self.Ug = self.add_param("Ug", _init(rng, fi, (hidden, 2 * hidden)))
        self.bg = self.add_param("bg", np.zeros(2 * hidden))
        self.Wn = self.add_param("Wn", _init(rng, fi, (in_dim, hidden)))
        self.Un = self.add_param("Un", _init(rng, fi, (hidden, hidden)))
        self.bn = self.add_param("bn", np.zeros(hidden))

    def __call__(self, xs: Tensor) -> Tensor:
        """Final hidden state (B, hidden) of the sequence xs (B, T, in)."""
        return gru(xs, self.Wg, self.Ug, self.bg, self.Wn, self.Un, self.bn)


class LSTM(Module):
    """Stacked LSTM; returns the top layer's final hidden state."""

    def __init__(self, rng, in_dim: int, hidden: int, layers: int = 2):
        super().__init__()
        self.layers = layers
        for i in range(layers):
            d = in_dim if i == 0 else hidden
            fi = d + hidden
            self.add_param(f"Wx{i}", _init(rng, fi, (d, 4 * hidden)))
            self.add_param(f"Wh{i}", _init(rng, fi, (hidden, 4 * hidden)))
            self.add_param(f"b{i}", np.zeros(4 * hidden))

    def __call__(self, xs: Tensor) -> Tensor:
        """Top layer's final hidden state (B, hidden) of xs (B, T, in)."""
        seq, p = xs, self._params
        for i in range(self.layers):
            seq = lstm_layer(seq, p[f"Wx{i}"], p[f"Wh{i}"], p[f"b{i}"])
        return seq[:, -1, :]


# -- fused ops -------------------------------------------------------------------
#
# Each op below is one tape node with a hand-written backward: the composed
# per-point and per-timestep graphs they replace cost tens of nodes per frame
# or step.  Outputs equal those compositions; the float64 finite-difference
# tests in tests/test_encoders.py check the backward passes.

FRAME_BLOCK = 32   # frames per block in pointnet_frames; bounds its (block*N, C) scratch


def _first_argmax(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Lowest index along axis 1 of (F, N, C) `a` where it equals its max `m` (F, C).

    Reduces over a weight that falls with the index, which is cheaper than
    `argmax` along a strided axis.
    """
    n = a.shape[1]
    weight = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    return n - np.max((a == m[:, None]) * weight, axis=1)


def pointnet_frames(pts: np.ndarray, fc1: Linear, fc2: Linear) -> Tensor:
    """Per-frame PointNet features: max_n relu(fc2(relu(fc1(p_n)))) -> (F, C).

    `pts` (F, N, 3) is data, not a tape node.  Frames run in blocks of
    FRAME_BLOCK.  The max is taken before fc2's bias and the ReLU, which are
    monotone, so it is exact; only the first argmax of each (frame, channel)
    is kept, so the gradient goes to the lowest-index point on ties.  Only
    those argmax points get a gradient; the backward recomputes the first
    layer at them, block by block.
    """
    W1, b1, W2, b2 = fc1.W, fc1.b, fc2.W, fc2.b
    F, N, _ = pts.shape
    C = W2.shape[1]
    m = np.empty((F, C), dtype=np.result_type(pts, W1.data, W2.data))
    idx = np.empty((F, C), dtype=np.intp)
    blocks = [slice(s, s + FRAME_BLOCK) for s in range(0, F, FRAME_BLOCK)]

    for blk in blocks:
        h1 = np.maximum(pts[blk].reshape(-1, 3) @ W1.data + b1.data, 0)
        a2 = (h1 @ W2.data).reshape(-1, N, C)
        m[blk] = a2.max(axis=1)
        idx[blk] = _first_argmax(a2, m[blk])
    out = np.maximum(m + b2.data, 0)

    def bw(g):
        g = g * (out > 0)
        gW1, gb1, gW2 = np.zeros_like(W1.data), np.zeros_like(b1.data), np.zeros_like(W2.data)
        for blk in blocks:
            i = idx[blk]
            hit = np.zeros((len(i), N), dtype=bool)   # points that are some channel's argmax
            np.put_along_axis(hit, i, True, axis=1)
            rows = np.flatnonzero(hit)
            row_of = (np.cumsum(hit) - 1).reshape(hit.shape)   # (frame, point) -> index in rows
            ga2 = np.zeros((len(rows), C), dtype=g.dtype)
            ga2[np.take_along_axis(row_of, i, axis=1), np.arange(C)] = g[blk]
            x = pts[blk].reshape(-1, 3)[rows]
            a1 = x @ W1.data + b1.data
            gW2 += np.maximum(a1, 0).T @ ga2
            ga1 = (ga2 @ W2.data.T) * (a1 > 0)
            gW1 += x.T @ ga1
            gb1 += ga1.sum(axis=0)
        return gW1, gb1, gW2, g.sum(axis=0)

    return Tensor.from_op(out, (W1, b1, W2, b2), bw, "pointnet_frames")


def _flat(x: np.ndarray) -> np.ndarray:
    """(B, T, D) -> (B*T, D)."""
    return x.reshape(-1, x.shape[-1])


def gru(xs: Tensor, Wg: Tensor, Ug: Tensor, bg: Tensor,
        Wn: Tensor, Un: Tensor, bn: Tensor) -> Tensor:
    """GRU over xs (B, T, D) from a zero state -> final hidden state (B, H).

    Per step: [z, r] = sigmoid(x Wg + h Ug + bg),
    n = tanh(x Wn + (r h) Un + bn), h' = (1 - z) h + z n.
    Both input projections run as one (B*T, D) GEMM each before the loop.
    """
    X, X2 = xs.data, _flat(xs.data)
    B, T, _ = X.shape
    H = Un.shape[0]
    XG = (X2 @ Wg.data).reshape(B, T, 2 * H)
    XN = (X2 @ Wn.data).reshape(B, T, H)
    h = np.zeros((B, H), dtype=XG.dtype)
    Hp = np.empty((B, T, H), dtype=h.dtype)      # the state each step starts from
    G = np.empty((B, T, 2 * H), dtype=h.dtype)   # [z, r]
    RH = np.empty_like(Hp)                       # r h
    Nn = np.empty_like(Hp)                       # n
    for t in range(T):
        Hp[:, t] = h
        G[:, t] = sigmoid_array(XG[:, t] + h @ Ug.data + bg.data)
        z, r = G[:, t, :H], G[:, t, H:]
        RH[:, t] = r * h
        Nn[:, t] = np.tanh(XN[:, t] + RH[:, t] @ Un.data + bn.data)
        h = (1.0 - z) * h + z * Nn[:, t]

    def bw(gh):
        dG = np.empty_like(G)    # gradient at the gates' pre-activations
        dN = np.empty_like(Nn)   # gradient at n's pre-activation
        dh = gh
        for t in reversed(range(T)):
            z, r, n, hp = G[:, t, :H], G[:, t, H:], Nn[:, t], Hp[:, t]
            dN[:, t] = dh * z * (1.0 - n * n)
            drh = dN[:, t] @ Un.data.T
            dG[:, t, :H] = dh * (n - hp)
            dG[:, t, H:] = drh * hp
            dG[:, t] *= G[:, t] * (1.0 - G[:, t])
            dh = dh * (1.0 - z) + drh * r + dG[:, t] @ Ug.data.T
        dG2, dN2 = _flat(dG), _flat(dN)
        dX = (dG2 @ Wg.data.T + dN2 @ Wn.data.T).reshape(X.shape) if xs.requires_grad else None
        return (dX, X2.T @ dG2, _flat(Hp).T @ dG2, dG2.sum(axis=0),
                X2.T @ dN2, _flat(RH).T @ dN2, dN2.sum(axis=0))

    return Tensor.from_op(h, (xs, Wg, Ug, bg, Wn, Un, bn), bw, "gru")


def lstm_layer(xs: Tensor, Wx: Tensor, Wh: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer over xs (B, T, D) from zero states -> hidden states (B, T, H).

    Gates [i, f, g, o] = act(x Wx + h Wh + b) with sigmoid for i, f, o and
    tanh for g; c' = f c + i g, h' = o tanh(c').  The input projection runs
    as one (B*T, D) GEMM before the loop.
    """
    X, X2 = xs.data, _flat(xs.data)
    B, T, _ = X.shape
    H = Wh.shape[0]
    XW = (X2 @ Wx.data).reshape(B, T, 4 * H)
    h = np.zeros((B, H), dtype=XW.dtype)
    c = np.zeros_like(h)
    Hs = np.empty((B, T, H), dtype=h.dtype)
    A = np.empty((B, T, 4 * H), dtype=h.dtype)   # gate activations
    Cp = np.empty_like(Hs)                       # the cell state each step starts from
    TC = np.empty_like(Hs)                       # tanh(c')
    for t in range(T):
        pre = XW[:, t] + h @ Wh.data + b.data
        a = A[:, t]
        a[:] = sigmoid_array(pre)
        a[:, 2 * H : 3 * H] = np.tanh(pre[:, 2 * H : 3 * H])
        Cp[:, t] = c
        c = a[:, H : 2 * H] * c + a[:, :H] * a[:, 2 * H : 3 * H]
        TC[:, t] = np.tanh(c)
        h = Hs[:, t] = a[:, 3 * H :] * TC[:, t]

    def bw(gH):
        dA = np.empty_like(A)    # gradient at the gates' pre-activations
        dh = np.zeros_like(h)
        dc = np.zeros_like(c)
        for t in reversed(range(T)):
            a, tc = A[:, t], TC[:, t]
            i, f, g, o = (a[:, k * H : (k + 1) * H] for k in range(4))
            dh = dh + gH[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            d = dA[:, t]
            d[:, :H] = dc * g * i * (1.0 - i)
            d[:, H : 2 * H] = dc * Cp[:, t] * f * (1.0 - f)
            d[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
            d[:, 3 * H :] = dh * tc * o * (1.0 - o)
            dc = dc * f
            dh = d @ Wh.data.T
        dA2 = _flat(dA)
        Hp = np.concatenate([np.zeros_like(Hs[:, :1]), Hs[:, :-1]], axis=1)
        dX = (dA2 @ Wx.data.T).reshape(X.shape) if xs.requires_grad else None
        return dX, X2.T @ dA2, _flat(Hp).T @ dA2, dA2.sum(axis=0)

    return Tensor.from_op(Hs, (xs, Wx, Wh, b), bw, "lstm_layer")


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
        pts = np.asarray(x, dtype=get_default_dtype()).reshape(B * T, N, 3)
        per_frame = pointnet_frames(pts, self.fc1, self.fc2)  # symmetric over points
        return self.gru(per_frame.reshape(B, T, -1))

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
        if x.shape[2] != self.cfg.imu_channels:
            raise ShapeError(f"expected {self.cfg.imu_channels} IMU channels, got C={x.shape[2]}")
        return self.lstm(Tensor(x))

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
        return self.gru(self.fc(flat).relu().reshape(B, T, -1))

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

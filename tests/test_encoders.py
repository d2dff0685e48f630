import numpy as np
import pytest

from motionbind import encoders
from motionbind.encoders import (
    GRU,
    LSTM,
    EncoderConfig,
    EncoderSet,
    ImuEncoder,
    Linear,
    PointCloudEncoder,
    ProjectionHead,
    SkeletonEncoder,
    TextEmbedder,
    Vocabulary,
    pointnet_frames,
)
from motionbind.tensor import NumericsError, ShapeError, Tensor, finite_diff_grad


def small_cfg(**kw):
    base = dict(e=32, points=16, imu_channels=36, window=None,
                point_mlp=(8, 16), hidden=16, skeleton_mlp=16)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_pointcloud_permutation_invariance(rng):
    cfg = small_cfg()
    enc = PointCloudEncoder(cfg, np.random.default_rng(0))
    w = rng.normal(size=(2, 6, cfg.points, 3))
    perm = w.copy()
    for b in range(2):
        for t in range(6):
            perm[b, t] = perm[b, t][rng.permutation(cfg.points)]
    z1 = enc(w).data
    z2 = enc(perm).data
    assert np.array_equal(z1, z2)


def test_pointcloud_distinct_inputs_distinct_embeddings(rng):
    cfg = small_cfg()
    enc = PointCloudEncoder(cfg, np.random.default_rng(0))
    a = enc(rng.normal(size=(1, 6, cfg.points, 3))).data[0]
    b = enc(rng.normal(size=(1, 6, cfg.points, 3))).data[0]
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos < 1 - 1e-6


def test_pointcloud_full_scale_output_length():
    cfg = EncoderConfig()  # e=512, N=256, T=24
    enc = PointCloudEncoder(cfg, np.random.default_rng(0))
    w = np.random.default_rng(1).normal(size=(1, 24, 256, 3))
    assert enc(w).shape == (1, 512)


def test_pointcloud_shape_contract():
    cfg = small_cfg(window=6)
    enc = PointCloudEncoder(cfg, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        enc(np.zeros((1, 5, cfg.points, 3)))
    with pytest.raises(ShapeError):
        enc(np.zeros((1, 6, cfg.points + 1, 3)))


def test_imu_zero_window_finite(rng):
    cfg = small_cfg()
    enc = ImuEncoder(cfg, np.random.default_rng(0))
    z = enc(np.zeros((1, 6, cfg.imu_channels))).data
    assert np.all(np.isfinite(z))


def test_imu_determinism_and_shape(rng):
    cfg = EncoderConfig(e=512, imu_channels=36, window=None, hidden=32)
    enc = ImuEncoder(cfg, np.random.default_rng(0))
    w = rng.normal(size=(1, 24, 36))
    assert enc(w).shape == (1, 512)
    assert np.array_equal(enc(w).data, enc(w).data)


def test_imu_channel_contract():
    enc = ImuEncoder(small_cfg(), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        enc(np.zeros((1, 6, 7)))


def test_skeleton_determinism_and_joint_contract(rng):
    cfg = small_cfg()
    enc = SkeletonEncoder(cfg, np.random.default_rng(0))
    w = rng.normal(size=(2, 6, 24, 3))
    assert np.array_equal(enc(w).data, enc(w).data)
    with pytest.raises(ShapeError):
        enc(rng.normal(size=(2, 6, 23, 3)))


def test_skeleton_full_scale_output_length():
    cfg = EncoderConfig(window=None, hidden=32, skeleton_mlp=32)
    enc = SkeletonEncoder(cfg, np.random.default_rng(0))
    w = np.random.default_rng(1).normal(size=(1, 24, 24, 3))
    assert enc(w).shape == (1, 512)


def test_encoders_finite_on_large_inputs(rng):
    cfg = small_cfg()
    seed_rng = np.random.default_rng(0)
    pc = PointCloudEncoder(cfg, seed_rng)
    imu = ImuEncoder(cfg, seed_rng)
    sk = SkeletonEncoder(cfg, seed_rng)
    assert np.all(np.isfinite(pc(rng.uniform(-1e3, 1e3, size=(1, 4, cfg.points, 3))).data))
    assert np.all(np.isfinite(imu(rng.uniform(-1e3, 1e3, size=(1, 4, cfg.imu_channels))).data))
    assert np.all(np.isfinite(sk(rng.uniform(-1e3, 1e3, size=(1, 4, 24, 3))).data))


def test_projection_head_zero_bias_zero_input():
    head = ProjectionHead(np.random.default_rng(0), 8, 8)
    head.fc1.b.data[:] = 0
    head.fc2.b.data[:] = 0
    out = head(Tensor(np.zeros((2, 8))))
    assert np.array_equal(out.data, np.zeros((2, 8)))


def test_projection_head_gradient_matches_finite_differences(rng):
    head = ProjectionHead(np.random.default_rng(3), 4, 4)
    x = rng.normal(size=(3, 4))
    params = list(head.params().values())

    def loss():
        return (head(Tensor(x)) ** 2.0).sum()

    loss().backward()
    fd = finite_diff_grad(loss, params, eps=1e-5)
    for p, g in zip(params, fd):
        denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(g)), 1e-8)
        assert np.max(np.abs(p.grad - g) / denom) < 1e-4


# -- fused ops -------------------------------------------------------------------
#
# Plain-NumPy references of the per-point and per-timestep compositions the
# fused ops replace, written step by step as the old tape graphs computed them.


def _sig(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def pointnet_ref(pts, W1, b1, W2, b2):
    h = np.maximum(pts @ W1 + b1, 0)
    return np.maximum(h @ W2 + b2, 0).max(axis=1)


def gru_ref(X, Wg, Ug, bg, Wn, Un, bn):
    H = Un.shape[0]
    h = np.zeros((X.shape[0], H))
    for t in range(X.shape[1]):
        x = X[:, t]
        gates = _sig(x @ Wg + h @ Ug + bg)
        z, r = gates[:, :H], gates[:, H:]
        n = np.tanh(x @ Wn + (r * h) @ Un + bn)
        h = (1 - z) * h + z * n
    return h


def lstm_layer_ref(X, Wx, Wh, b):
    H = Wh.shape[0]
    h = c = np.zeros((X.shape[0], H))
    out = []
    for t in range(X.shape[1]):
        gates = X[:, t] @ Wx + h @ Wh + b
        i, f, o = _sig(gates[:, :H]), _sig(gates[:, H:2 * H]), _sig(gates[:, 3 * H:])
        c = f * c + i * np.tanh(gates[:, 2 * H:3 * H])
        h = o * np.tanh(c)
        out.append(h)
    return np.stack(out, axis=1)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _check_fd(readout, params):
    for p in params:
        p.zero_grad()
    readout().backward()
    for p, g in zip(params, finite_diff_grad(readout, params, eps=1e-6)):
        assert np.linalg.norm(p.grad - g) <= 1e-6 * np.linalg.norm(g), p.name


@pytest.mark.parametrize("frames", [7, 1])
def test_pointnet_frames_gradient_across_partial_blocks(frames, monkeypatch):
    """7 frames in blocks of 3 leave a partial last block."""
    monkeypatch.setattr(encoders, "FRAME_BLOCK", 3)
    rng = np.random.default_rng(frames)
    fc1, fc2 = Linear(rng, 3, 6), Linear(rng, 6, 5)
    pts = rng.normal(size=(frames, 8, 3))
    w = Tensor(rng.normal(size=(frames, 5)))

    def readout():
        return (pointnet_frames(pts, fc1, fc2) * w).sum()

    _check_fd(readout, [fc1.W, fc1.b, fc2.W, fc2.b])


@pytest.mark.parametrize("T", [3, 1])
def test_gru_gradient_matches_finite_differences(T):
    rng = np.random.default_rng(10 + T)
    cell = GRU(rng, 4, 5)
    xs = Tensor(rng.normal(size=(3, T, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    _check_fd(lambda: (cell(xs) * w).sum(), [xs] + list(cell.params().values()))


@pytest.mark.parametrize("T", [3, 1])
def test_lstm_gradient_matches_finite_differences(T):
    rng = np.random.default_rng(20 + T)
    lstm = LSTM(rng, 4, 5, layers=2)
    xs = Tensor(rng.normal(size=(3, T, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)))
    _check_fd(lambda: (lstm(xs) * w).sum(), [xs] + list(lstm.params().values()))


def test_fused_ops_equal_plain_numpy_compositions(monkeypatch):
    monkeypatch.setattr(encoders, "FRAME_BLOCK", 4)
    rng = np.random.default_rng(7)
    fc1, fc2 = Linear(rng, 3, 6), Linear(rng, 6, 5)
    pts = rng.normal(size=(10, 8, 3))
    ref = pointnet_ref(pts, *(p.data for p in (fc1.W, fc1.b, fc2.W, fc2.b)))
    assert _rel(pointnet_frames(pts, fc1, fc2).data, ref) <= 1e-12

    X = rng.normal(size=(4, 5, 6))
    cell = GRU(rng, 6, 7)
    for p in cell.params().values():   # nonzero biases, unlike the initial ones
        p.data = rng.normal(size=p.shape) * 0.5
    ref = gru_ref(X, *(p.data for p in cell.params().values()))
    assert _rel(cell(Tensor(X)).data, ref) <= 1e-12

    lstm = LSTM(rng, 6, 7, layers=2)
    for p in lstm.params().values():
        p.data = rng.normal(size=p.shape) * 0.5
    p = lstm.params()
    ref = lstm_layer_ref(lstm_layer_ref(X, p["Wx0"].data, p["Wh0"].data, p["b0"].data),
                         p["Wx1"].data, p["Wh1"].data, p["b1"].data)[:, -1]
    assert _rel(lstm(Tensor(X)).data, ref) <= 1e-12


def test_pointnet_frames_ties_route_to_lowest_index():
    """Points 1 and 2 tie on the single output channel but differ in the
    first layer, so the gradient shows which one the max picked."""
    fc1, fc2 = Linear(np.random.default_rng(0), 3, 2), Linear(np.random.default_rng(0), 2, 1)
    fc1.W.data = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    fc1.b.data = np.zeros(2)
    fc2.W.data = np.ones((2, 1))
    fc2.b.data = np.zeros(1)
    pts = np.array([[[0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    out = pointnet_frames(pts, fc1, fc2)
    assert out.data[0, 0] == 1.0
    out.sum().backward()
    assert np.array_equal(fc2.W.grad, [[1.0], [0.0]])   # h1 of point 1, not point 2
    assert np.array_equal(fc1.W.grad, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


def test_nan_point_cloud_raises_named_error():
    cfg = small_cfg()
    enc = PointCloudEncoder(cfg, np.random.default_rng(0))
    w = np.random.default_rng(1).normal(size=(2, 4, cfg.points, 3))
    w[1, 2, 5, 1] = np.nan
    with pytest.raises(NumericsError, match="pointnet_frames"):
        enc(w)


# -- text ----------------------------------------------------------------------


@pytest.fixture
def vocab():
    return Vocabulary(["walk", "wave", "squat", "a", "person", "performing"])


def test_text_frozen_determinism(vocab):
    emb = TextEmbedder(vocab, e=32)
    ids = vocab.encode("a person performing walk")
    assert np.array_equal(emb.embed(ids), emb.embed(ids))


def test_text_dummy_constant(vocab):
    emb = TextEmbedder(vocab, e=32)
    d1 = emb.embed([], present=False)
    d2 = emb.embed([0, 1], present=False)
    assert np.array_equal(d1, d2)
    assert np.array_equal(d1, emb.dummy)


def test_text_distinct_classes_not_collinear(vocab):
    emb = TextEmbedder(vocab, e=32)
    for a in ["walk", "wave", "squat"]:
        for b in ["walk", "wave", "squat"]:
            if a == b:
                continue
            za, zb = emb.embed_text(a), emb.embed_text(b)
            cos = za @ zb / (np.linalg.norm(za) * np.linalg.norm(zb))
            assert cos < 0.99


def test_text_out_of_vocabulary(vocab):
    emb = TextEmbedder(vocab, e=32)
    with pytest.raises(KeyError, match="99"):
        emb.embed([99])
    with pytest.raises(KeyError, match="jump"):
        vocab.encode("jump")


def test_encoder_set_build_and_lookup(vocab):
    cfg = small_cfg()
    enc = EncoderSet.build(cfg, {"pointcloud", "imu", "skeleton", "text"}, seed=1, vocab=vocab)
    assert enc.pointcloud is not None and enc.text is not None
    names = set(enc.params())
    assert any(n.startswith("pointcloud.") for n in names)
    assert any(n.startswith("imu.") for n in names)
    with pytest.raises(KeyError):
        EncoderSet.build(cfg, {"imu"}, seed=1).modality("pointcloud")


def test_encoder_set_seed_reproducible(vocab):
    cfg = small_cfg()
    a = EncoderSet.build(cfg, {"imu", "skeleton"}, seed=5)
    b = EncoderSet.build(cfg, {"imu", "skeleton"}, seed=5)
    for k, v in a.params().items():
        assert np.array_equal(v.data, b.params()[k].data)

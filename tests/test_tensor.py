import zlib

import numpy as np
import pytest

from motionbind import tensor as T
from motionbind.tensor import Tensor, finite_diff_grad


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def check_grad(build, params, tol=1e-4, eps=1e-5):
    """Compare reverse-mode gradients of build() against central differences."""
    for p in params:
        p.zero_grad()
    build().backward()
    fd = finite_diff_grad(build, params, eps=eps)
    for p, g in zip(params, fd):
        assert p.grad is not None
        assert rel_err(p.grad, g) < tol


def test_square_gradient():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0)


def test_grad_accumulates_across_backward_calls():
    x = Tensor(2.0, requires_grad=True)
    (x * x).backward()
    (x * x).backward()
    assert x.grad == pytest.approx(8.0)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.ShapeError):
        (x * x).backward()


def test_nan_forward_raises_named_error():
    x = Tensor([0.0])
    with pytest.raises(T.NumericsError, match="div"), np.errstate(invalid="ignore"):
        x / x


def test_broadcast_leading_dim_only():
    a = Tensor(np.ones((4, 3)))
    b = Tensor(np.ones(3))
    assert (a + b).shape == (4, 3)
    with pytest.raises(T.ShapeError):
        Tensor(np.ones((3, 1))) + Tensor(np.ones((3, 4)))


def test_matmul_shape_errors():
    with pytest.raises(T.ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_slice_repeated_integer_index_accumulates():
    x = Tensor(np.arange(4.0), requires_grad=True)
    x[np.array([1, 1, 3])].sum().backward()
    assert np.array_equal(x.grad, [0.0, 2.0, 0.0, 1.0])


def test_slice_boolean_mask_gradient_is_exact():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    mask = np.array([True, False, True, True, False])
    w = rng.normal(size=(3, 3))
    (x[mask] * Tensor(w)).sum().backward()
    expected = np.zeros((5, 3))
    expected[mask] = w
    assert np.array_equal(x.grad, expected)


def test_deterministic_forward():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5))
    r1 = (Tensor(a) @ Tensor(a)).logsumexp(axis=1).data
    r2 = (Tensor(a) @ Tensor(a)).logsumexp(axis=1).data
    assert np.array_equal(r1, r2)


def test_precision_modes():
    with T.precision("float32"):
        assert Tensor(1.0).data.dtype == np.float32
    assert Tensor(1.0).data.dtype == np.float64


# -- finite-difference oracle itself -------------------------------------------


def test_finite_diff_square():
    x = Tensor(3.0, requires_grad=True)
    (g,) = finite_diff_grad(lambda: x * x, [x], eps=1e-5)
    assert g == pytest.approx(6.0, abs=1e-8)


def test_finite_diff_constant():
    x = Tensor(np.ones(4), requires_grad=True)
    (g,) = finite_diff_grad(lambda: Tensor(7.0), [x])
    assert np.array_equal(g, np.zeros(4))


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda: Tensor(0.0), [], eps=0.0)


def test_cosine_similarity_gradient_matches_analytic():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=5), requires_grad=True)
    b = Tensor(rng.normal(size=5))

    def cos():
        return (a.l2_normalize(axis=0) * b.l2_normalize(axis=0)).sum()

    cos().backward()
    av, bv = a.data, b.data
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    analytic = bv / (na * nb) - (av @ bv) * av / (na**3 * nb)
    assert rel_err(a.grad, analytic) < 1e-6
    (fd,) = finite_diff_grad(cos, [a])
    assert rel_err(fd, analytic) < 1e-6


# -- randomized per-op gradient suites -----------------------------------------

UNARY_OPS = [
    ("exp", lambda t: t.exp(), (-2.0, 2.0)),
    ("relu", lambda t: t.relu(), (0.1, 2.0)),
    ("mean_reduce", lambda t: t.mean(axis=0), (-2.0, 2.0)),
    ("sum_all", lambda t: t.sum(), (-2.0, 2.0)),
    ("logsumexp", lambda t: t.logsumexp(axis=1), (-2.0, 2.0)),
    ("l2_normalize", lambda t: t.l2_normalize(axis=1), (0.3, 2.0)),
    ("slice", lambda t: t[1:, :2], (-2.0, 2.0)),
    ("transpose", lambda t: t.T, (-2.0, 2.0)),
    ("clip", lambda t: t.clip(-0.7, 0.7), (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,rng_range", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_op_gradients(name, op, rng_range):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    lo, hi = rng_range
    for _ in range(100):
        x = Tensor(rng.uniform(lo, hi, size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=op(x).shape))
        check_grad(lambda: (op(x) * w).sum(), [x])


BINARY_OPS = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / (b * b + 0.5)),
    ("matmul", lambda a, b: a @ b.T),
]


@pytest.mark.parametrize("name,op", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_binary_op_gradients(name, op):
    # magnitudes bounded away from 0: the elementwise relative-error metric
    # is ill-conditioned where a gradient entry crosses zero (finite-diff
    # rounding noise dominates), which says nothing about the op's gradient
    rng = np.random.default_rng(zlib.crc32(name.encode()))

    def draw():
        mag = rng.uniform(0.3, 2.0, size=(3, 4))
        sign = np.where(rng.random(size=(3, 4)) < 0.5, -1.0, 1.0)
        return Tensor(mag * sign, requires_grad=True)

    for _ in range(100):
        a, b = draw(), draw()
        check_grad(lambda: (op(a, b) * op(a, b)).sum(), [a, b])


def test_broadcast_bias_gradient():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    bias = Tensor(rng.normal(size=3), requires_grad=True)
    def loss():
        y = (x + bias).exp()
        return (y * y).sum()

    check_grad(loss, [x, bias])

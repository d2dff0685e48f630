"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Backed by numpy arrays. Two precision modes: float64 for gradient-check /
test runs, float32 for training and evaluation (finite-difference validation
is unreliable at 32-bit). Broadcasting is restricted to leading-dimension
expansion (scalar or trailing-aligned shapes); anything else is a shape error,
which keeps the backward rules auditable.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericsError",
    "set_default_dtype",
    "get_default_dtype",
    "precision",
    "finite_diff_grad",
    "sigmoid_array",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericsError(FloatingPointError):
    """NaN produced during the forward pass; names the offending op."""


_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}")
    _DEFAULT_DTYPE = dtype.type


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ('float32' or 'float64')."""
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


def _check_nan(out: np.ndarray, op: str) -> np.ndarray:
    if np.isnan(out).any():
        raise NumericsError(f"NaN produced in forward pass by op '{op}'")
    return out


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, clipped so exp never overflows."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _leading_broadcast_axes(small: tuple, big: tuple):
    """Axes of `big` that `small` was expanded over, or None if incompatible.

    `small` must equal the trailing dims of `big` exactly (scalar allowed).
    """
    k = len(big) - len(small)
    if k < 0 or tuple(big[k:]) != tuple(small):
        return None
    return tuple(range(k))


def _reduce_grad(grad: np.ndarray, shape: tuple) -> np.ndarray:
    axes = _leading_broadcast_axes(shape, grad.shape)
    if axes:
        grad = grad.sum(axis=axes)
    return grad.reshape(shape)


class Tensor:
    """A dense array node in a dynamically built compute graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward: Callable | None = None
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(data, parents, backward, op: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = _check_nan(np.asarray(data), op)
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward = backward if out.requires_grad else None
        out.name = op
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self.name!r})"

    # -- autodiff -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        Repeated calls without zero_grad accumulate. Requires a scalar node.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.asarray(1.0, dtype=self.data.dtype)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- binary ops (leading-dim broadcasting only) ---------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))

    @staticmethod
    def _binary_shapes(a: "Tensor", b: "Tensor", op: str):
        sa, sb = a.shape, b.shape
        if sa == sb:
            return
        if _leading_broadcast_axes(sb, sa) is None and _leading_broadcast_axes(sa, sb) is None:
            raise ShapeError(f"{op}: shapes {sa} and {sb} differ beyond leading-dim broadcast")

    def __add__(self, other):
        other = self._coerce(other)
        Tensor._binary_shapes(self, other, "add")
        a, b = self, other

        def bw(g):
            return _reduce_grad(g, a.shape), _reduce_grad(g, b.shape)

        return Tensor.from_op(a.data + b.data, (a, b), bw, "add")

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor.from_op(-a.data, (a,), lambda g: (-g,), "neg")

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        Tensor._binary_shapes(self, other, "mul")
        a, b = self, other

        def bw(g):
            return _reduce_grad(g * b.data, a.shape), _reduce_grad(g * a.data, b.shape)

        return Tensor.from_op(a.data * b.data, (a, b), bw, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        Tensor._binary_shapes(self, other, "div")
        a, b = self, other

        def bw(g):
            ga = _reduce_grad(g / b.data, a.shape)
            gb = _reduce_grad(-g * a.data / (b.data * b.data), b.shape)
            return ga, gb

        return Tensor.from_op(a.data / b.data, (a, b), bw, "div")

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ShapeError(f"matmul: expected 2-D operands, got {a.shape} @ {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

        def bw(g):
            return g @ b.data.T, a.data.T @ g

        return Tensor.from_op(a.data @ b.data, (a, b), bw, "matmul")

    # -- elementwise ----------------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)
        return Tensor.from_op(out_data, (a,), lambda g: (g * out_data,), "exp")

    def relu(self):
        a = self
        mask = a.data > 0

        def bw(g):
            return (g * mask,)

        return Tensor.from_op(np.maximum(a.data, 0), (a,), bw, "relu")

    def clip(self, lo: float, hi: float):
        """Clamp values; gradient passes through only where unclamped."""
        a = self
        mask = (a.data > lo) & (a.data < hi)

        def bw(g):
            return (g * mask,)

        return Tensor.from_op(np.clip(a.data, lo, hi), (a,), bw, "clip")

    # -- reductions -----------------------------------------------------------

    def sum(self, axis: int | None = None):
        a = self

        def bw(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

        return Tensor.from_op(a.data.sum(axis=axis), (a,), bw, "sum")

    def mean(self, axis: int | None = None):
        n = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def logsumexp(self, axis: int):
        a = self
        m = np.max(a.data, axis=axis, keepdims=True)
        shifted = np.exp(a.data - m)
        s = shifted.sum(axis=axis, keepdims=True)
        out_data = np.squeeze(m + np.log(s), axis=axis)
        soft = shifted / s

        def bw(g):
            return (np.expand_dims(g, axis) * soft,)

        return Tensor.from_op(out_data, (a,), bw, "logsumexp")

    def l2_normalize(self, axis: int = -1, eps: float = 1e-12):
        a = self
        norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
        norm_safe = np.maximum(norm, eps)
        out_data = a.data / norm_safe

        def bw(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            return ((g - out_data * dot) / norm_safe,)

        return Tensor.from_op(out_data, (a,), bw, "l2_normalize")

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        a = self
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def bw(g):
            return (g.reshape(a.shape),)

        return Tensor.from_op(a.data.reshape(shape), (a,), bw, "reshape")

    def transpose(self, *axes):
        a = self
        axes = axes or None

        def bw(g):
            if axes is None:
                return (g.T,)
            inv = np.argsort(axes)
            return (g.transpose(inv),)

        return Tensor.from_op(a.data.transpose(axes) if axes else a.data.T, (a,), bw, "transpose")

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        a = self
        repeats = _may_repeat(key)

        def bw(g):
            ga = np.zeros_like(a.data)
            if repeats:
                np.add.at(ga, key, g)   # an integer-array key may name an element twice
            else:
                ga[key] = g
            return (ga,)

        return Tensor.from_op(a.data[key], (a,), bw, "slice")


def _may_repeat(key) -> bool:
    """Whether an index key can select one element more than once.

    Basic keys (ints, slices, None, Ellipsis) and boolean masks cannot;
    integer arrays and lists can.
    """
    for k in key if isinstance(key, tuple) else (key,):
        if k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice)):
            continue
        if np.asarray(k).dtype != bool:
            return True
    return False


def finite_diff_grad(
    f: Callable[[], Tensor] | Callable[[], float],
    params: Iterable[Tensor],
    eps: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient of scalar f() wrt each parameter tensor.

    Mutates each parameter coordinate by +/- eps and restores it; f must be a
    deterministic function of the current parameter values. Test oracle only,
    independent of the reverse-mode path.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def evaluate() -> float:
        out = f()
        return out.item() if isinstance(out, Tensor) else float(out)

    grads = []
    for p in params:
        g = np.zeros_like(p.data, dtype=np.float64)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = evaluate()
            flat[i] = orig - eps
            lo = evaluate()
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads

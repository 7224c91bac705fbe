"""Dense float64 tensors with reverse-mode automatic differentiation.

The numerical substrate for the whole package: a small tape-based engine on
top of numpy arrays. Forward passes are bit-deterministic in single-threaded
execution; every differentiable op ships an analytic backward that the test
suite checks against central finite differences.

Every op result is checked, always: the first op that makes a NaN or Inf
raises ``FloatingPointError``. The check sums the result first, since a finite
sum proves every element finite; only a non-finite sum (which finite elements
can also overflow to) falls back to the elementwise test. Ops call ufuncs and
array methods directly: numpy's Python wrappers cost more than the arithmetic
at model sizes, and skipping them leaves every bit unchanged.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, expit

_INV_SQRT_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_no_grad_depth = 0


class DomainError(ValueError):
    """Input outside an op's mathematical domain (log of non-positive, etc.)."""


class no_grad:
    """Context manager that disables graph recording (evaluation mode)."""

    def __enter__(self):
        global _no_grad_depth
        _no_grad_depth += 1
        return self

    def __exit__(self, *exc):
        global _no_grad_depth
        _no_grad_depth -= 1
        return False


class Tensor:
    """A float64 array plus the bookkeeping reverse mode needs.

    Leaves created with ``requires_grad=True`` accumulate into ``.grad`` on
    each :func:`backward` call; resetting is explicit via :func:`zero_grad`.
    Tensors without ``requires_grad`` are treated as immutable constants and
    are safe to share read-only.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def max(self, axis=None, keepdims=False):
        return reduce_max(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    if type(data) is not np.ndarray or data.dtype != np.float64:
        data = np.asarray(data, dtype=np.float64)
    if not math.isfinite(np.add.reduce(data, axis=None)) and not np.isfinite(data).all():
        raise FloatingPointError("op produced non-finite values")
    if _no_grad_depth == 0:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, True, parents, backward_fn)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out the dims that trailing-dimension broadcasting introduced."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


def _broadcast(ufunc, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    try:
        return ufunc(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc


# elementwise ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _result(
        _broadcast(np.add, a, b, "add"),
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _result(
        _broadcast(np.subtract, a, b, "sub"),
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _result(
        _broadcast(np.multiply, a, b, "mul"),
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    if not b.data.all():
        raise DomainError("div: divisor contains zero")
    return _result(
        _broadcast(np.divide, a, b, "div"),
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow surfaces via the finite check
        out = np.exp(a.data)
    return _result(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    if (a.data <= 0.0).any():
        raise DomainError("log: input must be strictly positive")
    return _result(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    if (a.data < 0.0).any():
        raise DomainError("sqrt: input must be non-negative")
    out = np.sqrt(a.data)
    return _result(out, (a,), lambda g: (g * 0.5 / out,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _result(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def gelu(a: Tensor) -> Tensor:
    # exact erf form; derivative 0.5*(1+erf(x/sqrt2)) + x * pdf(x)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT_2))
    out = a.data * cdf

    def backward_fn(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (cdf + a.data * pdf),)

    return _result(out, (a,), backward_fn)


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    return _result(out, (a,), lambda g: (g * expit(a.data),))


# contraction ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul: both operands must have ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ ({a.shape} @ {b.shape})")

    def backward_fn(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return _result(a.data @ b.data, (a, b), backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - np.maximum.reduce(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.add.reduce(e, axis=axis, keepdims=True)

    def backward_fn(g):
        inner = np.add.reduce(g * out, axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _result(out, (a,), backward_fn)


# reductions -------------------------------------------------------------


def _axis_tuple(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _check_nonempty(shape, axes, op: str):
    for a in axes:
        if shape[a] == 0:
            raise ValueError(f"{op}: cannot reduce empty axis {a}")


def _spread(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool):
    """Copy a reduction's gradient back over the axes it reduced."""
    if not keepdims:
        g = g.reshape([1 if ax in axes else n for ax, n in enumerate(shape)])
    return np.broadcast_to(g, shape).copy()


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    _check_nonempty(a.shape, axes, "sum")
    out = np.add.reduce(a.data, axis=axes, keepdims=keepdims)
    return _result(out, (a,), lambda g: (_spread(g, a.shape, axes, keepdims),))


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    _check_nonempty(a.shape, axes, "mean")
    count = math.prod(a.shape[ax] for ax in axes)
    # np.mean's own arithmetic: the sum divided by the element count
    out = np.add.reduce(a.data, axis=axes, keepdims=keepdims) / count
    return _result(out, (a,), lambda g: (_spread(g / count, a.shape, axes, keepdims),))


def reduce_max(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient routes to the argmax (ties break to lowest index)."""
    if axis is None:
        if a.size == 0:
            raise ValueError("max: cannot reduce empty tensor")
        flat_idx = int(np.argmax(a.data))  # first occurrence
        out = a.data.reshape(-1)[flat_idx]
        if keepdims:
            out = np.full((1,) * a.ndim, out)

        def backward_fn(g):
            z = np.zeros(a.size)
            z[flat_idx] = np.sum(g)
            return (z.reshape(a.shape),)

        return _result(out, (a,), backward_fn)

    ax = axis % a.ndim
    if a.shape[ax] == 0:
        raise ValueError(f"max: cannot reduce empty axis {ax}")
    idx = np.argmax(a.data, axis=ax)  # first max along axis
    out = np.take_along_axis(a.data, np.expand_dims(idx, ax), axis=ax)
    if not keepdims:
        out = np.squeeze(out, axis=ax)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, ax)
        z = np.zeros(a.shape)
        np.put_along_axis(z, np.expand_dims(idx, ax), g, axis=ax)
        return (z,)

    return _result(out, (a,), backward_fn)


# shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    # the gradient's inverse permutation: input axes sorted by where axes sends them
    inverse = sorted(range(len(axes)), key=lambda i: axes[i] % len(axes))
    return _result(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def getitem(a: Tensor, idx) -> Tensor:
    def backward_fn(g):
        z = np.zeros(a.shape)
        np.add.at(z, idx, g)
        return (z,)

    return _result(a.data[idx], (a,), backward_fn)


# composed helpers --------------------------------------------------------


def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along one axis (fully differentiable)."""
    m = reduce_max(a, axis=axis, keepdims=True)
    out = add(log(reduce_sum(exp(sub(a, m)), axis=axis, keepdims=True)), m)
    if keepdims:
        return out
    ax = axis % a.ndim
    return reshape(out, out.shape[:ax] + out.shape[ax + 1 :])


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


# backward pass -----------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Topological order of the graph reaching root (parents before children)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires-grad leaf's ``.grad``.

    Repeated calls accumulate; reset with :func:`zero_grad`. Each node in the
    recorded graph is visited exactly once.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no recorded graph)")
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            existing = grads.get(id(parent))
            grads[id(parent)] = pg if existing is None else existing + pg


def zero_grad(tensors) -> None:
    """Explicit gradient reset for an iterable (or dict) of tensors."""
    if isinstance(tensors, dict):
        tensors = tensors.values()
    for t in tensors:
        t.grad = None

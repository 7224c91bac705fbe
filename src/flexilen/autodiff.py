"""Dense float64 tensors with reverse-mode automatic differentiation.

The numerical substrate for the whole package: a small tape-based engine on
top of numpy arrays. Forward passes are bit-deterministic in single-threaded
execution; every differentiable op ships an analytic backward that the test
suite checks against central finite differences.

The engine keeps only the ops the model records: ``add`` and ``mul`` (a
``Tensor``'s ``+`` and ``*``, in either order), ``relu``, ``reshape``,
``getitem`` (slicing) and the fused ``layer_norm``, ``linear`` and
``attention`` nodes, beside the fused nodes of ``backbone`` and
``mixture``. The other ops of the chains those nodes replay (sub, div, neg,
exp, log, sqrt, softplus, softmax, matmul, transpose and the sum, mean and
max reductions) are test oracles, in ``tests/oracles.py``.

Every op result is checked, always: the first op that makes a NaN or Inf
raises ``FloatingPointError``. The check sums the result first, since a finite
sum proves every element finite; only a non-finite sum (which finite elements
can also overflow to) falls back to the elementwise test. Ops call ufuncs and
array methods directly: numpy's Python wrappers cost more than the arithmetic
at model sizes, and skipping them leaves every bit unchanged. Where a wrapper
would broadcast, gather or scatter, an op allocates and assigns instead
(``spread`` fills an empty array; ``mixture`` marks the argmax with a
one-hot mask and ``np.where``).

Two invariants keep seeded results bit-identical while the engine changes:

* Backward visits the graph in one fixed order: a depth-first walk from the
  loss that marks a node when it is popped (not when it is pushed), then
  the reverse of its post-order. A tensor used several times (a shared
  weight, a residual input) sums its gradient contributions in that order,
  and float addition is not associative, so another valid topological order
  can change the trained weights in the last bits, which training amplifies.
* A fused node (``layer_norm``, ``linear`` and ``attention`` here, the last
  with its head split and merge; the decoder's mixture means and scales in
  ``backbone.mixture_head``, each a gather of head-output columns; the
  mixture NLL and KL in ``mixture``, over mode-major (..., K, T, 2)
  mixtures) computes exactly what its composed chain of ops did: forward
  and backward replay the chain's arithmetic in the chain's order. It
  lists a parent once per gradient contribution the chain made,
  in the order the chain made them, and orders its parents so that the walk
  reaches them in the chain's order; the engine then adds every gradient as
  before. This needs that no input of a fused node is computed from another
  of its inputs (a teacher derived from its own student would break it); no
  caller in the package does that. Each fused node checks its output and
  every intermediate whose non-finite value the rest of the chain could
  hide (an infinite variance normalizes to zeros), so it raises wherever
  the chain raised.

The decoder's fused scales node computes softplus and its derivative with
two numpy helpers, ``softplus_array`` and ``sigmoid_array``; the composed
chain's softplus op (a test oracle) calls the same two, so the node still
equals its chain bit for bit.

``linear`` takes a 2-D weight and a 1-D bias and flattens its input's
leading axes into rows, so its chain is reshape, matmul, add, reshape: the
forward, the input gradient and the weight gradient are one 2-D GEMM each,
and the bias gradient is one reduce over the rows. A batched matmul forms
the weight gradient as one small GEMM per leading index and then sums
them; the 2-D GEMM adds the same products in another order, so the two
train weights, and seeded results, that differ in their last bits.

The hot kernels make no full-size pass or temporary that their chain's
arithmetic does not need, and leave every bit as it was:

* ``relu`` is ``np.maximum(x, 0.0)``, and its backward mask is taken from
  the output (``out > 0.0``, true exactly where ``x > 0``). numpy's
  ``maximum`` gives +0.0 for -0.0, as ``np.where(x > 0, x, 0.0)`` did; IEEE
  leaves that choice open, so a test pins it, signed zeros included.
* ``layer_norm``'s backward negates its two (rows, 1) reductions, not the
  (rows, d) arrays it reduces: negation is exact and rounding symmetric, so
  the negated sum equals the sum of the negated terms, up to the sign of an
  exact zero, which turns no nonzero element downstream. It multiplies the
  (rows, 1) factor into ``centered`` by broadcasting, where it spread the
  factor first, and divides and adds in place, in the chain's order. Its
  forward adds ``beta`` in place into ``normalized * gamma``.
* ``linear`` adds its bias in place into the GEMM's result.
* ``attention`` forms the scores, their shift, their exponentials and the
  weights in one buffer, and its backward runs the softmax's chain in
  place.

An in-place ufunc computes each element as the allocating one does, but
it keeps its first operand's memory layout, where an allocating one lays
its result out from all its operands; and a later reduction sums in
memory order. So a kernel writes in place only into a GEMM's result or an
array whose operands share one layout, which the chain's allocating op
lays out the same way. In the model every input and gradient of
``layer_norm`` and ``attention`` is C-contiguous. The mixture's means and
scales are not (they are mode-major gathers of head columns): computing
``mixture.nll``'s log-density terms in place moved the order of their
sum, and seeded training, in the last bits, so that node allocates.
"""
from __future__ import annotations

import math

import numpy as np

_no_grad_depth = 0
_VISITED = object()  # the walk reached a node that has no gradient yet


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
    are safe to share read-only. ``_pending`` holds the node's gradient while
    a backward pass runs and is None otherwise.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_pending")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward
        self._pending = None

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
        """The value of a one-element tensor, whatever its shape."""
        if self.data.size != 1:
            raise ValueError(f"item: needs a one-element tensor, got shape {self.data.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __getitem__(self, idx):
        return getitem(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def check_finite(data: np.ndarray) -> None:
    """Raise ``FloatingPointError`` if ``data`` holds a NaN or an Inf."""
    if not math.isfinite(np.add.reduce(data, axis=None)) and not np.isfinite(data).all():
        raise FloatingPointError("op produced non-finite values")


def record(data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Check an op's result and, when a parent requires grad, put it on the tape.

    ``backward_fn(g)`` returns one gradient (or None) per entry of
    ``parents``; a parent may appear more than once.
    """
    if type(data) is not np.ndarray or data.dtype != np.float64:
        data = np.asarray(data, dtype=np.float64)
    check_finite(data)
    if _no_grad_depth == 0:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, True, parents, backward_fn)
    return Tensor(data)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum out the dims that trailing-dimension broadcasting introduced."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


def spread(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Copy a keepdims reduction's gradient back over the axes it reduced."""
    out = np.empty(shape)
    out[...] = g
    return out


def _broadcast(ufunc, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    try:
        return ufunc(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc


# elementwise ------------------------------------------------------------


# add skips the gradient of a constant operand (a positional table, a
# baseline, a floor): its broadcast sums would be thrown away


def add(a: Tensor, b: Tensor) -> Tensor:
    return record(
        _broadcast(np.add, a, b, "add"),
        (a, b),
        lambda g: (
            unbroadcast(g, a.shape) if a.requires_grad else None,
            unbroadcast(g, b.shape) if b.requires_grad else None,
        ),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return record(
        _broadcast(np.multiply, a, b, "mul"),
        (a, b),
        lambda g: (unbroadcast(g * b.data, a.shape), unbroadcast(g * a.data, b.shape)),
    )


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return record(out, (a,), lambda g: (g * (out > 0.0),))


def softplus_array(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` elementwise, as ``max(x, 0) + log1p(exp(-|x|))``:
    ``exp`` never overflows, and it costs a few times less than
    ``np.logaddexp(0, x)``, from which it differs by at most a few ulp."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` elementwise, the derivative of softplus: with
    ``e = exp(-|x|)``, ``1 / (1 + e)`` where x >= 0 and ``e / (1 + e)``
    below, so ``exp`` never overflows and a tail underflows gradually."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


# shape manipulation ------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return record(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def _is_basic_index(idx) -> bool:
    """Ints, slices and an Ellipsis only: such an index selects each element
    at most once."""
    for item in idx if type(idx) is tuple else (idx,):
        if type(item) is not int and type(item) is not slice and item is not Ellipsis:
            return False
    return True


def getitem(a: Tensor, idx) -> Tensor:
    basic = _is_basic_index(idx)

    def backward_fn(g):
        z = np.zeros(a.shape)
        if basic:
            z[idx] += g  # no repeated element, so this equals np.add.at
        else:
            np.add.at(z, idx, g)
        return (z,)

    return record(a.data[idx], (a,), backward_fn)


# fused nodes --------------------------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize along the last axis (population variance), then the affine.

    One node for the chain mean, subtract, square, mean, add eps, sqrt,
    divide, scale, shift. ``x`` reaches the output through the subtraction
    and through the mean, so it is listed twice.
    """
    axes = (x.ndim - 1,)
    count = x.shape[-1]
    if count == 0:
        raise ValueError("layer_norm: cannot normalize an empty axis")
    mu = np.add.reduce(x.data, axis=axes, keepdims=True) / count
    centered = x.data - mu
    var = np.add.reduce(centered * centered, axis=axes, keepdims=True) / count
    check_finite(var)  # an infinite variance would normalize to zeros
    var_eps = var + eps
    if (var_eps < 0.0).any():
        raise DomainError("sqrt: input must be non-negative")
    std = np.sqrt(var_eps)
    if not std.all():
        raise DomainError("div: divisor contains zero")
    normalized = centered / std
    out = normalized * gamma.data
    out += beta.data

    def backward_fn(g):
        g_centered = g * gamma.data  # the gradient of normalized, until divided by std
        work = g_centered * centered
        work /= std * std
        g_std = -np.add.reduce(work, axis=axes, keepdims=True)
        via_square = np.multiply(g_std * 0.5 / std / count, centered, out=work)
        g_centered /= std
        g_centered += via_square  # once per factor of centered * centered
        g_centered += via_square
        g_mu = -np.add.reduce(g_centered, axis=axes, keepdims=True)
        return (
            g_centered,
            spread(g_mu / count, x.shape),
            unbroadcast(np.multiply(g, normalized, out=work), gamma.shape),
            unbroadcast(g, beta.shape),
        )

    return record(out, (x, x, gamma, beta), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, for a 2-D weight and a 1-D bias.

    The leading axes of ``x`` are flattened into rows, so the forward, the
    input gradient and the weight gradient are one 2-D GEMM each, and the
    bias gradient is one reduce over the rows: the chain reshape, matmul,
    add, reshape. numpy runs a one-row input as GEMV, whose row can differ in
    the last bits from the same row in a GEMM. Evaluation forwards whole
    agent tables, so its only one-row products are
    ``evaluation._routed_per_scene``'s on a one-agent scene.
    """
    if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ValueError(
            f"linear: takes a 2-D weight and a 1-D bias of its width, got {w.shape} and {b.shape}"
        )
    if x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear: input {x.shape} does not end in the weight's {w.shape[0]} rows")
    rows = x.data.reshape(-1, w.shape[0])
    out_shape = x.shape[:-1] + (w.shape[1],)

    def backward_fn(g):
        g_rows = g.reshape(-1, w.shape[1])
        g_x = (g_rows @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return g_x, rows.T @ g_rows, np.add.reduce(g_rows, axis=0)

    out = rows @ w.data
    out += b.data
    return record(out.reshape(out_shape), (x, w, b), backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention, split and merge included, as one node.

    ``q`` is (B, Q, d) and ``k`` and ``v`` are (B, S, d). Each is split into
    ``heads`` heads of d / heads columns, (B, heads, rows, d / heads); every
    head computes ``softmax(q @ k^T * scale) @ v`` with the softmax over its
    S keys; the heads are merged back into a (B, Q, d) context. Returns the
    context and the attention weights, (B, heads, Q, S), as a plain array
    for probes.

    Each query row is its own vector-matrix product, (..., Q, 1, ·) against
    (..., 1, ·, ·), as are the rows of the queries' gradient, and the keys'
    and values' gradients sum one outer product per query row. So a query's
    context and gradient have the same bits whatever other queries share
    the call: numpy would hand a one-row matrix product to GEMV and a longer
    one to GEMM, which sum in different orders.
    """
    if (
        q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or q.shape[0] != k.shape[0]
        or q.shape[2] != k.shape[2] or heads < 1 or q.shape[2] % heads
    ):
        raise ValueError(
            f"attention: queries {q.shape}, keys {k.shape} and values {v.shape} "
            f"do not split into {heads} heads"
        )
    batch, rows, d = q.shape
    head_dim = d // heads

    def split(data: np.ndarray) -> np.ndarray:
        """(B, rows, d) to (B, heads, rows, 1, d / heads): one vector per row."""
        return data.reshape(batch, data.shape[1], heads, 1, head_dim).transpose(0, 2, 1, 3, 4)

    def merge(g: np.ndarray) -> np.ndarray:
        return g.transpose(0, 2, 1, 3, 4).reshape(batch, g.shape[2], d)

    qh = split(q.data)
    kt = split(k.data).transpose(0, 1, 3, 4, 2)  # (B, heads, 1, d / heads, S)
    vh = split(v.data).transpose(0, 1, 3, 2, 4)  # (B, heads, 1, S, d / heads)
    # scores, shifted scores, their exponentials and the weights, in one buffer
    weights = qh @ kt  # (B, heads, Q, 1, S)
    weights *= scale
    check_finite(weights)  # an infinite score would get weight 0 or 1
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)

    def backward_fn(g):
        g_heads = split(g)
        g_scores = g_heads @ vh.swapaxes(-1, -2)  # the weights' gradient, until the softmax
        # one outer product per query row, summed over the rows (axis 2)
        g_v = np.add.reduce(weights.swapaxes(-1, -2) @ g_heads, axis=2, keepdims=True)
        g_scores -= np.add.reduce(g_scores * weights, axis=-1, keepdims=True)
        g_scores *= weights
        g_scores *= scale
        g_q = g_scores @ kt.swapaxes(-1, -2)
        g_kt = np.add.reduce(qh.swapaxes(-1, -2) @ g_scores, axis=2, keepdims=True)
        return merge(g_q), merge(g_kt.transpose(0, 1, 4, 2, 3)), merge(g_v.transpose(0, 1, 3, 2, 4))

    return record(merge(weights @ vh), (q, k, v), backward_fn), weights[:, :, :, 0, :]


# backward pass -----------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Topological order of the graph reaching root (parents before children).

    Marks every node it reaches with ``_VISITED``; :func:`backward` clears
    the marks. On the stack, ``None`` says that the node below it has had
    all its parents visited.
    """
    order: list[Tensor] = []
    stack: list[Tensor | None] = [root]
    try:
        while stack:
            node = stack.pop()
            if node is None:
                order.append(stack.pop())
                continue
            if node._pending is _VISITED:
                continue
            node._pending = _VISITED
            stack.append(node)
            stack.append(None)
            for parent in node._parents:
                if parent.requires_grad and parent._pending is not _VISITED:
                    stack.append(parent)
    except BaseException:
        for node in order + stack:
            if node is not None:
                node._pending = None
        raise
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires-grad leaf's ``.grad``.

    Repeated calls accumulate; reset with :func:`zero_grad`. Each node in the
    recorded graph is visited exactly once. If a node's backward raises, no
    pending gradient or mark survives into the next call. The state lives on
    the nodes, so two threads must not run backward over shared nodes.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad (no recorded graph)")
    order = _topo_order(loss)
    try:
        loss._pending = np.ones(loss.data.shape)
        for node in reversed(order):
            g = node._pending
            node._pending = None
            if g is _VISITED:
                continue
            if node._backward is None:
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                existing = parent._pending
                parent._pending = pg if existing is _VISITED else existing + pg
    finally:
        for node in order:
            node._pending = None


def zero_grad(tensors) -> None:
    """Explicit gradient reset for an iterable (or dict) of tensors."""
    if isinstance(tensors, dict):
        tensors = tensors.values()
    for t in tensors:
        t.grad = None

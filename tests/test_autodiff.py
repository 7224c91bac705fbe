import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flexilen import autodiff as ad
from flexilen import backbone as bb
from flexilen.autodiff import Tensor, backward, zero_grad

from fdutil import assert_grad_close, finite_difference
import oracles
from oracles import exp, log, logsumexp, reduce_max, softmax, softplus, sqrt


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- elementwise


def test_add_componentwise():
    out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_log_exp_inverse_pair():
    x = np.array([0.5, -1.25])
    out = log(exp(Tensor(x)))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_grad_of_sum_of_squares():
    x = Tensor([3.0], requires_grad=True)
    backward((x * x).sum())
    fd = finite_difference(lambda v: float(np.sum(v * v)), np.array([3.0]))
    assert_grad_close(x.grad, fd)
    np.testing.assert_allclose(x.grad, [6.0], rtol=1e-12)


def test_broadcast_shapes_and_grads():
    a = Tensor(_rng(1).normal(size=(3, 4)), requires_grad=True)
    b = Tensor(_rng(2).normal(size=(4,)), requires_grad=True)
    out = (a * b).sum()
    backward(out)
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(b.grad, a.data.sum(axis=0), rtol=1e-12)


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_shape_mismatch_raises(name):
    with pytest.raises(ValueError, match=rf"^{name}: shapes \(2, 3\) and \(4,\) do not broadcast"):
        getattr(ad, name)(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_log_domain_error():
    with pytest.raises(ad.DomainError):
        log(Tensor([1.0, 0.0]))


def test_div_by_zero_raises():
    with pytest.raises(ad.DomainError):
        ad.div(Tensor([1.0]), Tensor([0.0]))


_NONFINITE_FIRST_OPS = {
    "overflow": lambda: exp(Tensor([1e6])),
    # +inf and -inf together sum to NaN
    "both_infinities": lambda: ad.mul(Tensor([1e300, -1e300]), Tensor(1e300)),
    "nan": lambda: oracles.matmul(Tensor([[1e300, 1e300]]), Tensor([[1e300], [-1e300]])),
}


@pytest.mark.parametrize("case", sorted(_NONFINITE_FIRST_OPS))
def test_nonfinite_result_raises(case):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
        _NONFINITE_FIRST_OPS[case]()


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
def test_finite_result_whose_sum_overflows_passes():
    out = ad.mul(Tensor([1e308, 1e308]), Tensor(1.0))
    np.testing.assert_array_equal(out.data, [1e308, 1e308])


_UNARY_OPS = {
    "exp": (exp, lambda r: r.uniform(-2, 2, size=5)),
    "log": (log, lambda r: r.uniform(0.1, 5, size=5)),
    "neg": (ad.neg, lambda r: r.normal(size=5)),
    "relu": (ad.relu, lambda r: r.normal(size=5) + 0.1),
    "gelu": (ad.gelu, lambda r: r.normal(size=5)),
    "sqrt": (sqrt, lambda r: r.uniform(0.1, 5, size=5)),
    "softplus": (softplus, lambda r: r.normal(size=5)),
}


@pytest.mark.parametrize("name", sorted(_UNARY_OPS))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_unary_gradients_match_finite_differences(name, seed):
    op, sampler = _UNARY_OPS[name]
    x = sampler(_rng(seed))
    t = Tensor(x, requires_grad=True)
    backward(op(t).sum())
    fd = finite_difference(lambda v: float(np.sum(op(Tensor(v)).data)), x)
    assert_grad_close(t.grad, fd)


_BINARY_OPS = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "div": ad.div}


@pytest.mark.parametrize("name", sorted(_BINARY_OPS))
@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_binary_gradients_match_finite_differences(name, seed):
    op = _BINARY_OPS[name]
    r = _rng(seed)
    x = r.normal(size=(2, 3))
    y = r.uniform(0.5, 2.0, size=(2, 3)) * np.sign(r.normal(size=(2, 3)) + 3.0)
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    backward(op(a, b).sum())
    assert_grad_close(a.grad, finite_difference(lambda v: float(np.sum(op(Tensor(v), Tensor(y)).data)), x))
    assert_grad_close(b.grad, finite_difference(lambda v: float(np.sum(op(Tensor(x), Tensor(v)).data)), y))


# ------------------------------------------------------------------- matmul


def test_matmul_identity():
    m = _rng(3).normal(size=(2, 2))
    out = oracles.matmul(Tensor(np.eye(2)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_manual_case():
    out = oracles.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ValueError):
        oracles.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradcheck_3x4_4x2():
    r = _rng(7)
    x = r.normal(size=(3, 4))
    y = r.normal(size=(4, 2))
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    backward(oracles.matmul(a, b).sum())
    fd_a = finite_difference(lambda v: float(np.sum(v @ y)), x)
    fd_b = finite_difference(lambda v: float(np.sum(x @ v)), y)
    assert_grad_close(a.grad, fd_a, tol=1e-6)
    assert_grad_close(b.grad, fd_b, tol=1e-6)


def test_matmul_batched_broadcast_grads():
    r = _rng(8)
    x = r.normal(size=(4, 2, 3))
    y = r.normal(size=(3, 5))
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    backward((oracles.matmul(a, b) * Tensor(r.normal(size=(4, 2, 5)))).sum())
    assert a.grad.shape == x.shape
    assert b.grad.shape == y.shape


# ------------------------------------------------------------------ softmax


def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), rtol=1e-15)


def test_softmax_large_logit_no_overflow():
    out = softmax(Tensor([1000.0, 0.0]))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_softmax_rows_sum_to_one(seed):
    x = _rng(seed).normal(scale=3.0, size=(4, 6))
    out = softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)


def test_softmax_gradcheck_length5():
    x = _rng(11).normal(size=5)
    t = Tensor(x, requires_grad=True)
    w = _rng(12).normal(size=5)
    backward((softmax(t) * Tensor(w)).sum())
    fd = finite_difference(
        lambda v: float(np.sum(softmax(Tensor(v)).data * w)), x
    )
    assert_grad_close(t.grad, fd, tol=1e-6)


# --------------------------------------------------------------- reductions


def test_mean_basics():
    assert ad.reduce_mean(Tensor([2.0, 4.0])).item() == 3.0


def test_sum_axis0():
    out = ad.reduce_sum(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mean_gradient_is_one_over_n():
    t = Tensor(np.arange(6.0), requires_grad=True)
    backward(ad.reduce_mean(t))
    np.testing.assert_allclose(t.grad, np.full(6, 1 / 6), rtol=1e-15)


def test_max_gradient_ties_to_lowest_index():
    t = Tensor([1.0, 5.0, 5.0, 2.0], requires_grad=True)
    backward(reduce_max(t))
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0, 0.0])


def test_max_axis_gradcheck():
    x = _rng(13).normal(size=(3, 4))
    t = Tensor(x, requires_grad=True)
    backward(reduce_max(t, axis=1).sum())
    fd = finite_difference(lambda v: float(np.sum(np.max(v, axis=1))), x)
    assert_grad_close(t.grad, fd)


@st.composite
def _reduction_case(draw):
    x = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4, max_side=5),
                        elements=st.floats(-1e6, 1e6)))
    dims = st.integers(-x.ndim, x.ndim - 1) if x.ndim else st.nothing()
    axis = draw(st.one_of(st.none(), dims, st.lists(
        dims, max_size=x.ndim, unique_by=lambda a: a % x.ndim).map(tuple)))
    return x, axis, draw(st.booleans())


@given(case=_reduction_case())
@settings(max_examples=200)
def test_reductions_equal_numpy_bit_for_bit(case):
    x, axis, keepdims = case
    np.testing.assert_array_equal(
        ad.reduce_sum(Tensor(x), axis, keepdims).data, np.sum(x, axis=axis, keepdims=keepdims), strict=True
    )
    np.testing.assert_array_equal(
        ad.reduce_mean(Tensor(x), axis, keepdims).data, np.mean(x, axis=axis, keepdims=keepdims), strict=True
    )


def test_reduce_empty_axis_raises():
    with pytest.raises(ValueError):
        ad.reduce_sum(Tensor(np.zeros((0, 2))), axis=0)
    with pytest.raises(ValueError):
        reduce_max(Tensor(np.zeros((0,))))


# ------------------------------------------------------- shape ops & slicing


def test_reshape_transpose_getitem_grads():
    x = _rng(14).normal(size=(2, 3, 4))
    t = Tensor(x, requires_grad=True)
    out = oracles.transpose(ad.reshape(t, (6, 4)), (1, 0))[1:3, :]
    backward(out.sum())

    def f(v):
        return float(np.sum(np.transpose(v.reshape(6, 4), (1, 0))[1:3, :]))

    assert_grad_close(t.grad, finite_difference(f, x))


@pytest.mark.parametrize("axes", [(2, 0, 1), (-1, 0, 1)])
def test_transpose_gradient_applies_the_inverse_permutation(axes):
    t = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    upstream = _rng(18).normal(size=(4, 2, 3))
    backward((oracles.transpose(t, axes) * Tensor(upstream)).sum())
    np.testing.assert_array_equal(t.grad, upstream.transpose(1, 2, 0))


def test_logsumexp_matches_numpy_and_grad():
    x = _rng(15).normal(scale=4.0, size=(3, 5))
    t = Tensor(x, requires_grad=True)
    out = logsumexp(t, axis=-1)
    expected = np.log(np.sum(np.exp(x - x.max(-1, keepdims=True)), -1)) + x.max(-1)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)
    backward(out.sum())
    np.testing.assert_allclose(t.grad, np.exp(x) / np.exp(x).sum(-1, keepdims=True), rtol=1e-10)


# ---------------------------------------------------------- softplus helpers
# Each grid magnitude appears with both signs: zero, subnormals, the
# smallest normal, the points where exp(-|x|) stops mattering to 1 + e (37)
# and where exp overflows (709) or underflows to zero (745), 1e308, and
# dense geometric and linear sweeps up to 709. With numpy 2.4 on an
# AVX-512 x86-64 CPU, softplus measured at most 2 ulp from
# np.logaddexp(0, x) on this grid and the sigmoid at most 3 from scipy's
# expit; a 2.5 M input scan measured 3 and 4, which are the bounds. The
# figures move with the exp kernel numpy dispatches to.
_TINY = np.finfo(np.float64).tiny
_MAGNITUDES = np.concatenate([
    [0.0, 5e-324, _TINY / 2, _TINY, 1e-300, 30.0, 37.0, 709.0, 745.0, 1e308],
    np.geomspace(1e-320, 709.0, 20001),
    np.linspace(0.0, 709.0, 200001),
])
_GRID = np.concatenate([_MAGNITUDES, -_MAGNITUDES])


def _without_warnings(fn, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(x)


def test_softplus_array_is_within_3_ulp_of_logaddexp():
    got = _without_warnings(ad.softplus_array, _GRID)
    np.testing.assert_array_max_ulp(got, np.logaddexp(0.0, _GRID), maxulp=3)
    assert got[0] == np.log(2.0) and got[len(_MAGNITUDES)] == np.log(2.0)  # +0.0 and -0.0


def test_sigmoid_array_is_within_4_ulp_of_expit():
    from scipy.special import expit

    got = _without_warnings(ad.sigmoid_array, _GRID)
    np.testing.assert_array_max_ulp(got, expit(_GRID), maxulp=4)
    assert got[0] == 0.5 and got[len(_MAGNITUDES)] == 0.5  # +0.0 and -0.0


def test_softplus_and_sigmoid_arrays_equal_exp_in_the_far_negative_tail():
    # below -37, 1 + exp(x) rounds to 1, so both equal exp(x); expit flushes
    # (-745, -709.8) to zero, where exp(x) is still a subnormal
    tail = np.linspace(-745.0, -37.0, 10001)
    np.testing.assert_array_equal(_without_warnings(ad.softplus_array, tail), np.exp(tail))
    np.testing.assert_array_equal(_without_warnings(ad.sigmoid_array, tail), np.exp(tail))


# ----------------------------------------------------------------- backward


def test_backward_scalar_linear():
    x = Tensor(2.0, requires_grad=True)
    backward(Tensor(3.0) * x)
    assert x.grad == pytest.approx(3.0)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        backward(x * x)


def test_item_returns_the_one_element_of_any_shape():
    loss = Tensor(np.ones((1, 1)), requires_grad=True) * Tensor(2.0)
    assert loss.item() == 2.0
    assert type(loss.item()) is float
    assert Tensor(3.5).item() == 3.5
    backward(loss)  # backward takes the same one-element loss


@pytest.mark.parametrize("shape", [(2,), (1, 3), (0,)], ids=str)
def test_item_rejects_other_sizes_by_shape(shape):
    with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
        Tensor(np.ones(shape)).item()


def test_backward_composed_matmul_softmax_sum():
    r = _rng(16)
    x = r.normal(size=(3, 4))
    w = r.normal(size=(4, 4))
    mix = r.normal(size=(3, 4))
    a = Tensor(x, requires_grad=True)

    def forward(t):
        return ad.reduce_sum(softmax(oracles.matmul(t, Tensor(w)), axis=-1) * Tensor(mix))

    backward(forward(a))
    fd = finite_difference(
        lambda v: float(forward(Tensor(v)).item()), x
    )
    assert_grad_close(a.grad, fd)


def test_backward_accumulates_until_reset():
    x = Tensor([1.0, -2.0], requires_grad=True)
    backward((x * x).sum())
    first = x.grad.copy()
    backward((x * x).sum())
    np.testing.assert_allclose(x.grad, 2 * first, rtol=1e-15)
    zero_grad([x])
    assert x.grad is None
    backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, first)


def test_forward_is_bit_deterministic():
    r = _rng(17)
    x = r.normal(size=(4, 4))
    w = r.normal(size=(4, 4))

    def run():
        return softmax(oracles.matmul(Tensor(x), Tensor(w)), axis=-1).data

    assert run().tobytes() == run().tobytes()


def test_no_grad_suppresses_graph():
    x = Tensor([1.0], requires_grad=True)
    with ad.no_grad():
        out = (x * x).sum()
    assert not out.requires_grad


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_property_composed_chain_gradcheck(seed):
    """Random small composed graphs: analytic vs central differences < 1e-4."""
    r = _rng(seed)
    x = r.normal(size=(2, 3))
    w = r.normal(size=(3, 3))

    def build(t: Tensor) -> Tensor:
        h = softmax(ad.gelu(oracles.matmul(t, Tensor(w))), axis=-1)
        return ad.reduce_mean(log(h + 0.1))

    t = Tensor(x, requires_grad=True)
    backward(build(t))
    fd = finite_difference(lambda v: build(Tensor(v)).item(), x)
    assert_grad_close(t.grad, fd)


def test_backward_interrupted_by_a_raising_node_leaves_no_stale_state():
    r = _rng(19)
    a = Tensor(r.normal(size=3), requires_grad=True)
    b = Tensor(r.normal(size=3), requires_grad=True)

    def fail(g):
        raise RuntimeError("backward failed")

    # the failing node runs before a and b get any gradient, so the walk's
    # marks on them are still set when it raises
    broken = ad.record(2.0 * (a * b).data, (a * b,), fail)
    with pytest.raises(RuntimeError, match="backward failed"):
        backward(broken.sum())
    assert a._pending is None and b._pending is None and a.grad is None

    backward((a * b).sum())
    np.testing.assert_array_equal(a.grad, b.data)
    np.testing.assert_array_equal(b.grad, a.data)


@pytest.mark.parametrize(
    "idx", [(1, slice(0, 2)), slice(1, None), 2, ([0, 0, 2], slice(None))], ids=str
)
def test_getitem_gradient_counts_each_selection(idx):
    t = Tensor(np.zeros((3, 2)), requires_grad=True)
    upstream = _rng(20).normal(size=t.data[idx].shape)
    backward((t[idx] * Tensor(upstream)).sum())
    expected = np.zeros((3, 2))
    np.add.at(expected, idx, upstream)
    np.testing.assert_array_equal(t.grad, expected)


# --------------------------------------------------------------- fused nodes
# Each fused node must equal the composed chain of ops it replaces (kept in
# tests/oracles.py) bit for bit, forward and backward, also when its input
# gets further gradient contributions from outside the node.


def _value_and_grads(loss_fn, leaves):
    tensors = [Tensor(x, requires_grad=True) for x in leaves]
    loss = loss_fn(*tensors)
    backward(loss)
    return [loss.data] + [t.grad for t in tensors]


def _assert_bitwise_equal(fused, composed):
    for got, want in zip(fused, composed, strict=True):
        np.testing.assert_array_equal(got, want, strict=True)


def _layer_norm_loss(ln, upstream):
    # x is an op result that also feeds the residual add, so it sums three
    # contributions: the residual's and the two that LayerNorm makes
    def loss(raw, gamma, beta):
        x = raw * Tensor(1.5)
        return ((x + ln(x, gamma, beta, 1e-5)) * Tensor(upstream)).sum()

    return loss


def _linear_loss(linear, upstream):
    def loss(raw, w, b):
        x = raw * Tensor(0.5)
        return ((x + linear(x, w, b)) * Tensor(upstream)).sum()

    return loss


def _attention_loss(attention, heads, rows, upstream, mix):
    # the queries are the rows of x that ``rows`` selects; q, k and v all
    # come from x, which also feeds the residual add through the queries
    def loss(raw):
        x = raw * Tensor(1.25)
        queries = x[:, rows, :]
        keys, values = x * Tensor(mix[1]), x * Tensor(mix[2])
        context, _ = attention(queries * Tensor(mix[0]), keys, values, heads, 0.5)
        return ((queries + context) * Tensor(upstream)).sum()

    return loss


def _head_loss(head, baseline, upstream):
    # out also reaches the loss directly, besides through its three outputs
    def loss(raw):
        out = raw * Tensor(1.5)
        pred = head(out, baseline, 2, 3)
        parts = (pred.means, pred.scales, pred.logits, out)
        return sum((part * Tensor(up)).sum() for part, up in zip(parts, upstream, strict=True))

    return loss


_ATTENTION_CASES = {  # name: (heads, query rows)
    "attention": (2, slice(None)),
    "attention_h1": (1, slice(None)),
    "attention_fewer_queries": (2, slice(0, None, 2)),
}
_FUSED = ["layer_norm", "linear", *_ATTENTION_CASES, "mixture_head"]


def _fused_cases(seed):
    r = _rng(seed)
    x = r.normal(size=(2, 3, 4))
    ln = (x, r.uniform(0.5, 2.0, 4), r.normal(size=4))
    up = r.normal(size=(2, 3, 4))
    lin = (x, r.normal(size=(4, 4)), r.normal(size=4))
    mix = r.normal(size=(3, 4))
    out = (r.normal(size=(2, 3, 2 * 3 * 4 + 2)),)
    baseline = r.normal(size=(2, 3, 3, 2))
    head_up = [r.normal(size=shape) for shape in [(2, 3, 2, 3, 2)] * 2 + [(2, 3, 2), out[0].shape]]
    cases = {
        "layer_norm": (_layer_norm_loss(ad.layer_norm, up), _layer_norm_loss(oracles.layer_norm_composed, up), ln),
        "linear": (_linear_loss(ad.linear, up), _linear_loss(oracles.linear_composed, up), lin),
        "mixture_head": (
            _head_loss(bb.mixture_head, baseline, head_up),
            _head_loss(oracles.mixture_head_composed, baseline, head_up),
            out,
        ),
    }
    for name, (heads, rows) in _ATTENTION_CASES.items():
        att_up = up[:, rows, :]
        cases[name] = (
            _attention_loss(ad.attention, heads, rows, att_up, mix),
            _attention_loss(oracles.attention_composed, heads, rows, att_up, mix),
            (x,),
        )
    return cases


@pytest.mark.parametrize("name", _FUSED)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=25)
def test_fused_node_equals_composed_chain_bit_for_bit(name, seed):
    fused, composed, leaves = _fused_cases(seed)[name]
    _assert_bitwise_equal(_value_and_grads(fused, leaves), _value_and_grads(composed, leaves))


@pytest.mark.parametrize("name", _FUSED)
def test_fused_node_gradients_match_finite_differences(name):
    fused, _, leaves = _fused_cases(21)[name]
    grads = _value_and_grads(fused, leaves)[1:]
    for i, x in enumerate(leaves):
        def f(v, i=i):
            args = [Tensor(v if j == i else leaf) for j, leaf in enumerate(leaves)]
            return fused(*args).item()

        assert_grad_close(grads[i], finite_difference(f, x))


@pytest.mark.parametrize(
    "w_shape, b_shape", [((2, 4, 3), (3,)), ((4, 3), (1, 3))], ids=["3d_weight", "2d_bias"]
)
def test_linear_takes_only_a_2d_weight_and_a_1d_bias(w_shape, b_shape):
    with pytest.raises(ValueError, match="^linear: takes a 2-D weight and a 1-D bias"):
        ad.linear(Tensor(np.ones((2, 4))), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))


def test_fused_attention_returns_the_softmax_weights():
    q, k, v = (Tensor(a) for a in _rng(22).normal(size=(3, 2, 3, 4)))
    context, weights = ad.attention(q, k, v, 2, 0.5)
    ref_context, ref_weights = oracles.attention_composed(q, k, v, 2, 0.5)
    assert weights.shape == (2, 2, 3, 3)
    np.testing.assert_array_equal(weights, ref_weights)
    np.testing.assert_array_equal(context.data, ref_context.data)
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-14)


# each case makes a non-finite value inside the node; in layer_norm and
# attention the rest of the chain would hide it (an infinite variance
# normalizes to zeros; a -inf score gets weight 0), so only the fused node's
# check on the intermediate raises
_NONFINITE_FUSED = {
    "layer_norm": (
        ad.layer_norm,
        oracles.layer_norm_composed,
        lambda: (Tensor([[1e200, -1e200, 0.0, 1.0]]), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5),
    ),
    "linear": (
        ad.linear,
        oracles.linear_composed,
        lambda: (Tensor([[1e200, 1.0]]), Tensor([[1e200], [1.0]]), Tensor([0.0])),
    ),
    "attention": (
        lambda *a: ad.attention(*a)[0],
        lambda *a: oracles.attention_composed(*a)[0],
        lambda: (
            Tensor([[[1e200, 0.0], [1.0, 0.0]]]),
            Tensor([[[-1e200, 0.0], [1.0, 0.0]]]),
            Tensor(np.ones((1, 2, 2))),
            1,
            1.0,
        ),
    ),
    "mixture_head": (  # a mean past the float range
        lambda *a: bb.mixture_head(*a).means,
        lambda *a: oracles.mixture_head_composed(*a).means,
        lambda: (Tensor([[[1e308, 0.0, 0.0, 0.0, 0.0]]]), np.array([[[[1e308, 0.0]]]]), 1, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(_NONFINITE_FUSED))
def test_fused_node_raises_where_the_composed_chain_raises(name):
    fused, composed, args = _NONFINITE_FUSED[name]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            composed(*args())
        with pytest.raises(FloatingPointError):
            fused(*args())

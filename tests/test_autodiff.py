import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flexilen import autodiff as ad
from flexilen.autodiff import Tensor, backward, zero_grad

from fdutil import assert_grad_close, finite_difference


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- elementwise


def test_add_componentwise():
    out = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_log_exp_inverse_pair():
    x = np.array([0.5, -1.25])
    out = ad.log(ad.exp(Tensor(x)))
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
        ad.log(Tensor([1.0, 0.0]))


def test_div_by_zero_raises():
    with pytest.raises(ad.DomainError):
        ad.div(Tensor([1.0]), Tensor([0.0]))


_NONFINITE_FIRST_OPS = {
    "overflow": lambda: ad.exp(Tensor([1e6])),
    # +inf and -inf together sum to NaN
    "both_infinities": lambda: ad.mul(Tensor([1e300, -1e300]), Tensor(1e300)),
    "nan": lambda: ad.matmul(Tensor([[1e300, 1e300]]), Tensor([[1e300], [-1e300]])),
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
    "exp": (ad.exp, lambda r: r.uniform(-2, 2, size=5)),
    "log": (ad.log, lambda r: r.uniform(0.1, 5, size=5)),
    "neg": (ad.neg, lambda r: r.normal(size=5)),
    "relu": (ad.relu, lambda r: r.normal(size=5) + 0.1),
    "gelu": (ad.gelu, lambda r: r.normal(size=5)),
    "sqrt": (ad.sqrt, lambda r: r.uniform(0.1, 5, size=5)),
    "softplus": (ad.softplus, lambda r: r.normal(size=5)),
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
    out = ad.matmul(Tensor(np.eye(2)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_manual_case():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_inner_dim_mismatch():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradcheck_3x4_4x2():
    r = _rng(7)
    x = r.normal(size=(3, 4))
    y = r.normal(size=(4, 2))
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    backward(ad.matmul(a, b).sum())
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
    backward((ad.matmul(a, b) * Tensor(r.normal(size=(4, 2, 5)))).sum())
    assert a.grad.shape == x.shape
    assert b.grad.shape == y.shape


# ------------------------------------------------------------------ softmax


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), rtol=1e-15)


def test_softmax_large_logit_no_overflow():
    out = ad.softmax(Tensor([1000.0, 0.0]))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_softmax_rows_sum_to_one(seed):
    x = _rng(seed).normal(scale=3.0, size=(4, 6))
    out = ad.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)


def test_softmax_gradcheck_length5():
    x = _rng(11).normal(size=5)
    t = Tensor(x, requires_grad=True)
    w = _rng(12).normal(size=5)
    backward((ad.softmax(t) * Tensor(w)).sum())
    fd = finite_difference(
        lambda v: float(np.sum(ad.softmax(Tensor(v)).data * w)), x
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
    backward(ad.reduce_max(t))
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0, 0.0])


def test_max_axis_gradcheck():
    x = _rng(13).normal(size=(3, 4))
    t = Tensor(x, requires_grad=True)
    backward(ad.reduce_max(t, axis=1).sum())
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
        ad.reduce_max(Tensor(np.zeros((0,))))


# ------------------------------------------------------- shape ops & slicing


def test_reshape_transpose_getitem_grads():
    x = _rng(14).normal(size=(2, 3, 4))
    t = Tensor(x, requires_grad=True)
    out = ad.transpose(ad.reshape(t, (6, 4)), (1, 0))[1:3, :]
    backward(out.sum())

    def f(v):
        return float(np.sum(np.transpose(v.reshape(6, 4), (1, 0))[1:3, :]))

    assert_grad_close(t.grad, finite_difference(f, x))


@pytest.mark.parametrize("axes", [(2, 0, 1), (-1, 0, 1)])
def test_transpose_gradient_applies_the_inverse_permutation(axes):
    t = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    upstream = _rng(18).normal(size=(4, 2, 3))
    backward((ad.transpose(t, axes) * Tensor(upstream)).sum())
    np.testing.assert_array_equal(t.grad, upstream.transpose(1, 2, 0))


def test_logsumexp_matches_numpy_and_grad():
    x = _rng(15).normal(scale=4.0, size=(3, 5))
    t = Tensor(x, requires_grad=True)
    out = ad.logsumexp(t, axis=-1)
    expected = np.log(np.sum(np.exp(x - x.max(-1, keepdims=True)), -1)) + x.max(-1)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)
    backward(out.sum())
    np.testing.assert_allclose(t.grad, np.exp(x) / np.exp(x).sum(-1, keepdims=True), rtol=1e-10)


# ----------------------------------------------------------------- backward


def test_backward_scalar_linear():
    x = Tensor(2.0, requires_grad=True)
    backward(Tensor(3.0) * x)
    assert x.grad == pytest.approx(3.0)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        backward(x * x)


def test_backward_composed_matmul_softmax_sum():
    r = _rng(16)
    x = r.normal(size=(3, 4))
    w = r.normal(size=(4, 4))
    mix = r.normal(size=(3, 4))
    a = Tensor(x, requires_grad=True)

    def forward(t):
        return ad.reduce_sum(ad.softmax(ad.matmul(t, Tensor(w)), axis=-1) * Tensor(mix))

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
        return ad.softmax(ad.matmul(Tensor(x), Tensor(w)), axis=-1).data

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
        h = ad.softmax(ad.gelu(ad.matmul(t, Tensor(w))), axis=-1)
        return ad.reduce_mean(ad.log(h + 0.1))

    t = Tensor(x, requires_grad=True)
    backward(build(t))
    fd = finite_difference(lambda v: build(Tensor(v)).item(), x)
    assert_grad_close(t.grad, fd)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexilen import autodiff as ad
from flexilen import backbone as bb
from flexilen.autodiff import Tensor, backward
from flexilen.mixture import (
    LOG_2PI,
    MixturePrediction,
    draw_samples,
    kl_distill,
    nll,
)

from fdutil import assert_grad_close, finite_difference
import oracles
from oracles import draw_samples_time_major, nll_bruteforce, one_scene, reduce_sum, time_major


def _random_pred(seed, n=3, t=4, k=2, requires_grad=False):
    """A mode-major prediction: means and scales (n, k, t, 2)."""
    r = np.random.default_rng(seed)
    return MixturePrediction(
        means=Tensor(r.normal(size=(n, k, t, 2)), requires_grad=requires_grad),
        scales=Tensor(r.uniform(0.3, 2.0, size=(n, k, t, 2)), requires_grad=requires_grad),
        logits=Tensor(r.normal(size=(n, k)), requires_grad=requires_grad),
    )


# ----------------------------------------------------------------------- nll


def test_nll_at_mean_unit_scale_is_log_2pi():
    n, t = 2, 5
    gt = np.random.default_rng(0).normal(size=(n, t, 2))
    pred = MixturePrediction(
        means=Tensor(gt[:, None, :, :]),
        scales=Tensor(np.ones((n, 1, t, 2))),
        logits=Tensor(np.zeros((n, 1))),
    )
    # per-step NLL for a unit Gaussian evaluated at its mean: 2 * 0.5 * ln(2*pi)
    assert nll(pred, gt).item() == pytest.approx(LOG_2PI, rel=1e-12)


def test_nll_mixture_of_identical_modes_collapses():
    r = np.random.default_rng(1)
    gt = r.normal(size=(3, 4, 2))
    mu = r.normal(size=(3, 1, 4, 2))
    sd = r.uniform(0.5, 1.5, size=(3, 1, 4, 2))
    single = MixturePrediction(Tensor(mu), Tensor(sd), Tensor(np.zeros((3, 1))))
    double = MixturePrediction(
        Tensor(np.repeat(mu, 2, axis=1)),
        Tensor(np.repeat(sd, 2, axis=1)),
        Tensor(np.zeros((3, 2))),  # equal weights [0.5, 0.5]
    )
    assert nll(double, gt).item() == pytest.approx(nll(single, gt).item(), rel=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50)
def test_nll_matches_bruteforce_density_sum(seed):
    pred = _random_pred(seed)
    gt = np.random.default_rng(seed + 1).normal(size=(3, 4, 2))
    assert nll(pred, gt).item() == pytest.approx(nll_bruteforce(pred, gt), abs=1e-10)


def test_nll_single_mode_is_per_step_mean():
    pred = _random_pred(30, k=1)
    gt = np.random.default_rng(31).normal(size=(3, 4, 2))
    mu, sd = pred.means.data[:, 0], pred.scales.data[:, 0]
    per_step = np.sum(-np.log(sd) - 0.5 * LOG_2PI - 0.5 * ((gt - mu) / sd) ** 2, axis=-1)
    assert nll(pred, gt).item() == pytest.approx(-np.mean(per_step), rel=1e-12)


def test_nll_penalises_switching_modes_between_timesteps():
    # A: each mode is exact on some timesteps and far off on the others, so
    # no single mode is a good trajectory; B: mode 0 is exact at every step.
    # A per-step mixture scores both alike (one exact mode at every step),
    # a trajectory mixture must score A worse.
    gt = np.zeros((1, 4, 2))
    switching = np.array([[True, False]] * 2 + [[False, True]] * 2).T  # (K, T)
    steady = np.array([[True, False]] * 4).T

    def score(exact_on):
        means = np.where(exact_on[None, :, :, None], 0.0, np.full((1, 2, 4, 2), 3.0))
        pred = MixturePrediction(
            Tensor(means), Tensor(np.full((1, 2, 4, 2), 0.5)), Tensor(np.zeros((1, 2)))
        )
        return nll(pred, gt).item()

    assert score(switching) > score(steady)


def test_nll_rejects_nonpositive_scale():
    pred = _random_pred(2)
    pred.scales.data[0, 0, 0, 0] = 0.0
    with pytest.raises(ad.DomainError):
        nll(pred, np.zeros((3, 4, 2)))


def test_nll_rejects_shape_mismatch():
    pred = _random_pred(3)
    with pytest.raises(ValueError):
        nll(pred, np.zeros((3, 5, 2)))


def test_nll_gradcheck():
    pred = _random_pred(4, n=2, t=3, k=2, requires_grad=True)
    gt = np.random.default_rng(5).normal(size=(2, 3, 2))
    backward(nll(pred, gt))
    for field in ("means", "scales", "logits"):
        tensor = getattr(pred, field)
        base = tensor.data

        def f(v):
            values = {f2: getattr(pred, f2).data for f2 in ("means", "scales", "logits")}
            values[field] = v
            p = MixturePrediction(
                Tensor(values["means"]), Tensor(values["scales"]), Tensor(values["logits"])
            )
            return nll(p, gt).item()

        assert_grad_close(tensor.grad, finite_difference(f, base))


# ---------------------------------------------------------------- kl_distill


def test_kl_identical_is_exact_zero():
    pred = _random_pred(6)
    assert kl_distill(pred, pred).item() == 0.0


def test_kl_unit_mean_shift_is_half_per_dimension():
    n, t, k = 1, 1, 1
    teacher = MixturePrediction(
        Tensor(np.zeros((n, t, k, 2))), Tensor(np.ones((n, t, k, 2))), Tensor(np.zeros((n, k)))
    )
    student = MixturePrediction(
        Tensor(np.ones((n, t, k, 2))), Tensor(np.ones((n, t, k, 2))), Tensor(np.zeros((n, k)))
    )
    # 0.5 per dimension, two dimensions
    assert kl_distill(teacher, student).item() == pytest.approx(1.0, rel=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100)
def test_kl_nonnegative(seed):
    teacher = _random_pred(seed)
    student = _random_pred(seed + 77)
    assert kl_distill(teacher, student).item() >= 0.0


def test_kl_matches_monte_carlo_single_mode():
    r = np.random.default_rng(12)
    mu_t, mu_s = r.normal(size=2), r.normal(size=2)
    sd_t, sd_s = r.uniform(0.5, 1.5, size=2), r.uniform(0.5, 1.5, size=2)
    teacher = MixturePrediction(
        Tensor(mu_t.reshape(1, 1, 1, 2)), Tensor(sd_t.reshape(1, 1, 1, 2)), Tensor(np.zeros((1, 1)))
    )
    student = MixturePrediction(
        Tensor(mu_s.reshape(1, 1, 1, 2)), Tensor(sd_s.reshape(1, 1, 1, 2)), Tensor(np.zeros((1, 1)))
    )
    closed = kl_distill(teacher, student).item()

    draws = r.normal(size=(1_000_000, 2)) * sd_t + mu_t

    def log_density(x, mu, sd):
        return np.sum(-np.log(sd) - 0.5 * LOG_2PI - 0.5 * ((x - mu) / sd) ** 2, axis=-1)

    mc = np.mean(log_density(draws, mu_t, sd_t) - log_density(draws, mu_s, sd_s))
    assert closed == pytest.approx(mc, abs=1e-2)


def test_kl_detach_teacher_blocks_gradient():
    teacher = _random_pred(13, requires_grad=True)
    student = _random_pred(14, requires_grad=True)
    backward(kl_distill(teacher, student, detach_teacher=True))
    assert teacher.means.grad is None
    assert teacher.scales.grad is None
    assert teacher.logits.grad is None
    assert student.means.grad is not None

    backward(kl_distill(teacher, student, detach_teacher=False))
    assert teacher.means.grad is not None


def test_kl_gradcheck_student_side():
    teacher = _random_pred(15, n=2, t=2, k=2)
    student = _random_pred(16, n=2, t=2, k=2, requires_grad=True)
    backward(kl_distill(teacher, student))
    for field in ("means", "scales", "logits"):
        tensor = getattr(student, field)

        def f(v):
            values = {f2: getattr(student, f2).data for f2 in ("means", "scales", "logits")}
            values[field] = v
            s = MixturePrediction(
                Tensor(values["means"]), Tensor(values["scales"]), Tensor(values["logits"])
            )
            return kl_distill(teacher, s).item()

        assert_grad_close(tensor.grad, finite_difference(f, tensor.data))


def test_kl_shape_mismatch_raises():
    with pytest.raises(ValueError):
        kl_distill(_random_pred(17, k=2), _random_pred(18, k=3))


# -------------------------------------------------------------- draw_samples


def test_mode_means_single_mode_is_exact():
    pred = _random_pred(20, k=1)
    out = draw_samples(pred, 1, mode="mode-means")
    np.testing.assert_array_equal(out[0], pred.means.data[:, 0])


def test_mode_means_ordering_by_weight():
    r = np.random.default_rng(21)
    means = r.normal(size=(2, 2, 3, 2))  # (N, K, T, 2)
    logits = np.array([[0.0, 2.0], [1.0, -1.0]])  # agent 0 prefers mode 1, agent 1 mode 0
    pred = MixturePrediction(Tensor(means), Tensor(np.ones_like(means)), Tensor(logits))
    out = draw_samples(pred, 2, mode="mode-means")
    np.testing.assert_array_equal(out[0, 0], means[0, 1])
    np.testing.assert_array_equal(out[0, 1], means[1, 0])


def test_mode_means_k_eval_limit():
    with pytest.raises(ValueError):
        draw_samples(_random_pred(22, k=2), 3, mode="mode-means")


def test_mode_means_of_a_stack_equals_the_per_scene_draws():
    # (B, N, K, T, 2) -> (k, B, N, T, 2), with tied weights in one scene
    r = np.random.default_rng(25)
    b, n, t, k = 4, 3, 5, 3
    means = r.normal(size=(b, n, k, t, 2))
    logits = r.normal(size=(b, n, k))
    logits[1, 0] = 0.5
    stack = MixturePrediction(Tensor(means), Tensor(np.ones_like(means)), Tensor(logits))
    out = draw_samples(stack, 2, mode="mode-means")
    per_scene = [
        draw_samples(MixturePrediction(stack.means[i], stack.scales[i], stack.logits[i]), 2)
        for i in range(b)
    ]
    assert out.shape == (2, b, n, t, 2)
    assert out.tobytes() == np.stack(per_scene, axis=1).tobytes()


def test_stochastic_sampling_rejects_a_stack():
    r = np.random.default_rng(26)
    means = r.normal(size=(2, 3, 2, 4, 2))
    logits = r.normal(size=(2, 3, 2))
    stack = MixturePrediction(Tensor(means), Tensor(np.ones_like(means)), Tensor(logits))
    with pytest.raises(ValueError, match="one seed per scene"):
        draw_samples(stack, 2, mode="stochastic", seed=0)
    with pytest.raises(ValueError, match="one seed per scene"):  # an unstacked prediction
        draw_samples(_random_pred(26), 2, mode="stochastic", seed=[0])


def test_stochastic_draw_of_a_stack_equals_the_per_scene_draws():
    # one stream per scene, seeded with that scene's seed
    r = np.random.default_rng(27)
    b, n, t, k = 3, 4, 5, 3
    means = r.normal(size=(b, n, k, t, 2))
    scales = r.uniform(0.1, 1.0, size=(b, n, k, t, 2))
    stack = MixturePrediction(Tensor(means), Tensor(scales), Tensor(r.normal(size=(b, n, k))))
    seeds = [11, 5, 11]
    out = draw_samples(stack, 4, mode="stochastic", seed=seeds)
    per_scene = [
        draw_samples(
            one_scene(MixturePrediction(stack.means[i], stack.scales[i], stack.logits[i])), 4,
            mode="stochastic", seed=[seeds[i]],
        )[:, 0]
        for i in range(b)
    ]
    assert out.shape == (4, b, n, t, 2)
    assert out.tobytes() == np.stack(per_scene, axis=1).tobytes()
    with pytest.raises(ValueError, match="3 stacked scenes need as many seeds, got 2"):
        draw_samples(stack, 4, mode="stochastic", seed=seeds[:2])


def test_stochastic_degenerate_noise_converges_to_means():
    pred = _random_pred(23, k=1)
    pred.scales.data[:] = 1e-12
    out = draw_samples(one_scene(pred), 4, mode="stochastic", seed=[0])[:, 0]
    np.testing.assert_allclose(out, np.broadcast_to(pred.means.data[:, 0], out.shape), atol=1e-9)


def test_stochastic_seeded_determinism():
    pred = one_scene(_random_pred(24))
    a = draw_samples(pred, 5, mode="stochastic", seed=[42])
    b = draw_samples(pred, 5, mode="stochastic", seed=[42])
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["one-agent", "scene", "stack"])
@given(seed=st.integers(0, 10_000), k=st.integers(1, 5), t=st.integers(1, 6))
@settings(max_examples=20)
def test_mode_means_equal_the_time_major_oracle(lead, seed, k, t):
    r = np.random.default_rng(seed)
    means = r.normal(size=lead + (k, t, 2))
    logits = r.normal(size=lead + (k,))
    if k > 1 and lead:
        logits.reshape(-1, k)[0, :2] = 0.25  # a tie keeps the lower mode first
    pred = MixturePrediction(Tensor(means), Tensor(np.ones_like(means)), Tensor(logits))
    k_eval = int(r.integers(1, k + 1))
    got = draw_samples(pred, k_eval, mode="mode-means")
    want = draw_samples_time_major(*time_major(pred), k_eval, mode="mode-means")
    assert got.shape == want.shape == (k_eval,) + lead + (t, 2)
    assert got.tobytes() == want.tobytes()


@given(seed=st.integers(0, 10_000), k=st.integers(1, 5), t=st.integers(1, 6))
@settings(max_examples=20)
def test_stochastic_draws_equal_the_time_major_oracle(seed, k, t):
    r = np.random.default_rng(seed)
    b, n = 2, 3
    means = r.normal(size=(b, n, k, t, 2))
    scales = r.uniform(0.1, 1.0, size=(b, n, k, t, 2))
    pred = MixturePrediction(Tensor(means), Tensor(scales), Tensor(r.normal(size=(b, n, k))))
    seeds = [int(x) for x in r.integers(2**31, size=b)]
    got = draw_samples(pred, 4, mode="stochastic", seed=seeds)
    want = draw_samples_time_major(*time_major(pred), 4, mode="stochastic", seed=seeds)
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- fused nodes
# nll and kl_distill are single tape nodes replaying the composed chains in
# tests/oracles.py; they must match them bit for bit, forward and backward.


def _pred_from(raw: Tensor, n: int, t: int, k: int) -> MixturePrediction:
    """A prediction whose means, scales and logits all derive from one
    tensor, as the decoder's do, so gradients from the three meet again."""
    core = ad.reshape(raw[:, : k * t * 4], (n, k, t, 4))
    means = core[:, :, :, 0:2]
    scales = oracles.softplus(core[:, :, :, 2:4]) + 1e-3
    return MixturePrediction(means, scales, raw[:, k * t * 4 :])


def _nll_loss(nll_fn, future, k, extra):
    # the scales also feed a term outside the node, whose gradient reaches
    # them first
    def loss(raw):
        pred = _pred_from(raw, *future.shape[:2], k)
        return reduce_sum(pred.scales * Tensor(extra)) + nll_fn(pred, future)

    return loss


def _head_nll_loss(nll_fn, baseline, future, k):
    # predictions in the decoder head's own memory layout: their means and
    # scales are gathers of head columns whose mode axis lies outermost in
    # memory, not C-contiguous arrays, so a rewrite that changes how a
    # result is laid out, and so the order of a later sum, shows here
    def loss(raw):
        return nll_fn(bb.mixture_head(raw, baseline, k, future.shape[-2]), future)

    return loss


def _head_kl_loss(kl_fn, baseline, future, k):
    def loss(raw_teacher, raw_student):
        teacher, student = (
            bb.mixture_head(raw, baseline, k, future.shape[-2]) for raw in (raw_teacher, raw_student)
        )
        # an undetached teacher, so every input's gradient is the whole loss's
        return nll(teacher, future) + kl_fn(teacher, student, False)

    return loss


def _kl_loss(kl_fn, future, k, detach):
    def loss(raw_teacher, raw_student):
        n, t = future.shape[:2]
        teacher, student = _pred_from(raw_teacher, n, t, k), _pred_from(raw_student, n, t, k)
        return nll(teacher, future) + kl_fn(teacher, student, detach)

    return loss


def _grads(loss_fn, leaves):
    tensors = [Tensor(x, requires_grad=True) for x in leaves]
    loss = loss_fn(*tensors)
    backward(loss)
    return [loss.data] + [t.grad for t in tensors]


def _fused_mixture_cases(seed, n=3, t=4, k=2):
    r = np.random.default_rng(seed)
    future = r.normal(size=(n, t, 2))
    raw = [r.normal(size=(n, k * t * 4 + k)) for _ in range(2)]
    extra = r.normal(size=(n, k, t, 2))
    head_future = r.normal(size=(2, n, t, 2))
    baseline = r.normal(size=head_future.shape)
    cases = {
        "nll": (
            _nll_loss(nll, future, k, extra), _nll_loss(oracles.nll_composed, future, k, extra), raw[:1]
        ),
        "nll_head_layout": (
            _head_nll_loss(nll, baseline, head_future, k),
            _head_nll_loss(oracles.nll_composed, baseline, head_future, k),
            (r.normal(size=(2, n, k * t * 4 + k)),),
        ),
        "kl_head_layout": (
            _head_kl_loss(kl_distill, baseline, head_future, k),
            _head_kl_loss(oracles.kl_distill_composed, baseline, head_future, k),
            tuple(r.normal(size=(2, n, k * t * 4 + k)) for _ in range(2)),
        ),
    }
    for detach in (True, False):
        cases[f"kl_detach_{detach}"] = (
            _kl_loss(kl_distill, future, k, detach),
            _kl_loss(oracles.kl_distill_composed, future, k, detach),
            raw,
        )
    return cases


_FUSED_MIXTURE = ["nll", "nll_head_layout", "kl_detach_True", "kl_detach_False", "kl_head_layout"]


@pytest.mark.parametrize("name", _FUSED_MIXTURE)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 4), t=st.integers(1, 12), k=st.integers(1, 6),
)
@example(seed=0, n=3, t=4, k=1)
@example(seed=1, n=3, t=1, k=2)
@example(seed=2, n=2, t=12, k=5)  # the config's horizon and modes
@settings(max_examples=25)
def test_fused_node_equals_composed_chain_bit_for_bit(name, seed, n, t, k):
    fused, composed, leaves = _fused_mixture_cases(seed, n, t, k)[name]
    for got, want in zip(_grads(fused, leaves), _grads(composed, leaves), strict=True):
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("name", _FUSED_MIXTURE)
def test_fused_node_gradients_match_finite_differences(name):
    fused, _, leaves = _fused_mixture_cases(23)[name]
    grads = _grads(fused, leaves)[1:]
    # a detached teacher's gradient leaves out the KL on purpose
    checked = [1] if name == "kl_detach_True" else range(len(leaves))
    for i in checked:
        x = leaves[i]

        def f(v, i=i):
            return fused(*[Tensor(v if j == i else leaf) for j, leaf in enumerate(leaves)]).item()

        assert_grad_close(grads[i], finite_difference(f, x))


def _far_mode_pred():
    # mode 1's mean is so far off that z*z overflows, yet mode 0 alone keeps
    # the log-sum-exp finite
    means = np.zeros((1, 2, 2, 2))
    means[:, 1] = 1e160
    return MixturePrediction(Tensor(means), Tensor(np.full((1, 2, 2, 2), 1e-3)), Tensor(np.zeros((1, 2))))


def _huge_student_scale():
    teacher = _random_pred(24, n=1, t=2)
    student = _random_pred(25, n=1, t=2)
    student.scales.data[0, 0, 0, 0] = 1e200  # its variance overflows; the ratio would read 0
    return teacher, student


_NONFINITE_MIXTURE = {
    "nll": (nll, oracles.nll_composed, lambda: (_far_mode_pred(), np.zeros((1, 2, 2)))),
    "kl_distill": (kl_distill, oracles.kl_distill_composed, _huge_student_scale),
}


@pytest.mark.parametrize("name", sorted(_NONFINITE_MIXTURE))
def test_fused_node_raises_where_the_composed_chain_raises(name):
    fused, composed, args = _NONFINITE_MIXTURE[name]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            composed(*args())
        with pytest.raises(FloatingPointError):
            fused(*args())

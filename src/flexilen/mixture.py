"""Diagonal-Gaussian mixture output heads: likelihood, distillation, sampling.

Predictions are per-agent mixtures over future trajectories: K modes, each a
diagonal bivariate Gaussian per future timestep, with per-agent mode weights
(constant over time). A mode is a whole trajectory: the likelihood picks one
mode per agent for all T steps, as in MultiPath (Chai et al., CoRL 2019) and
Trajectron++ (Salzmann et al., ECCV 2020), so it scores the same objects that
evaluation scores (mode-mean trajectories). The distillation loss pairs
index-matched modes between a teacher and a student prediction, which is
exact because all branches share the decoder that orders the modes.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DomainError, Tensor

LOG_2PI = float(np.log(2.0 * np.pi))
HALF_LOG_2PI = 0.5 * LOG_2PI


@dataclass
class MixturePrediction:
    """Mixture parameters for N agents over K modes and T future steps.

    means:  (..., K, T, 2) meters
    scales: (..., K, T, 2) meters, diagonal standard deviations (> 0)
    logits: (..., K) unitless mode scores; softmax gives per-agent weights

    Mode-major: each mode's trajectory is one contiguous (T, 2) block, the
    decoder head's own column order, so the likelihood sums it in one reduce.
    """

    means: Tensor
    scales: Tensor
    logits: Tensor

    def __post_init__(self):
        if self.means.shape != self.scales.shape:
            raise ValueError(
                f"means/scales shape mismatch: {self.means.shape} vs {self.scales.shape}"
            )
        if self.means.ndim < 3 or self.means.shape[-1] != 2:
            raise ValueError(f"means must be (..., K, T, 2), got {self.means.shape}")
        expected_logits = self.means.shape[:-2]
        if self.logits.shape != expected_logits:
            raise ValueError(
                f"logits shape {self.logits.shape} inconsistent with means {self.means.shape}"
            )

    @property
    def n_modes(self) -> int:
        return self.means.shape[-3]

    @property
    def horizon(self) -> int:
        return self.means.shape[-2]


def _check_scales(pred: MixturePrediction) -> None:
    if (pred.scales.data <= 0.0).any():
        raise DomainError("mixture scales must be strictly positive")


def _check_nonempty(pred: MixturePrediction, op: str) -> None:
    if 0 in pred.means.shape:
        raise ValueError(f"{op}: cannot reduce an empty prediction {pred.means.shape}")


def _mean(a: np.ndarray):
    """Mean over every axis, as the composed chain's ``reduce_mean`` computes it."""
    return np.add.reduce(a, axis=tuple(range(a.ndim))) / a.size


def _logsumexp(a: np.ndarray):
    """log-sum-exp over the last axis, keeping it: the max, then the log of
    the summed shifted exponentials plus the max.

    Returns the value, the shifted array and a backward that maps the
    value's gradient to the two contributions ``a`` gets, through the shift
    and through the max (at the first argmax), in that order.
    """
    is_max = np.arange(a.shape[-1]) == a.argmax(axis=-1, keepdims=True)  # ties go to the first
    peak = a.max(axis=-1, keepdims=True)
    shifted = a - peak
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=(a.ndim - 1,), keepdims=True)
    out = np.log(total) + peak

    def backward(g):
        g_shifted = g / total * e  # g / total broadcast over the axis, times e
        g_peak = g + ad.unbroadcast(-g_shifted, peak.shape)
        return g_shifted, np.where(is_max, g_peak, 0.0)

    return out, shifted, backward


def _log_softmax(a: np.ndarray):
    """``a - logsumexp(a)`` over the last axis, and a backward giving the
    three contributions ``a`` gets: directly, through the shift, through
    the max."""
    lse, _, lse_backward = _logsumexp(a)

    def backward(g):
        return (g, *lse_backward(ad.unbroadcast(-g, lse.shape)))

    return a - lse, backward


def nll(pred: MixturePrediction, future: np.ndarray) -> Tensor:
    """Trajectory-level negative log-likelihood of the ground-truth future.

    Per agent, -log sum_k pi_k prod_t N(y_t | mu_kt, sigma_kt), divided by
    the horizon T and averaged over every leading axis; the log-sum-exp over
    modes runs once per agent, so one mode must explain the whole trajectory.
    With K=1 this is the mean per-step NLL. Differentiable w.r.t. all mixture
    parameters, as one tape node that replays the composed chain (see
    ``autodiff``): the scales get two contributions, the logits three.
    """
    _check_scales(pred)
    future = np.asarray(future, dtype=np.float64)
    if future.shape != pred.means.shape[:-3] + (pred.horizon, 2):
        raise ValueError(
            f"future shape {future.shape} inconsistent with prediction {pred.means.shape}"
        )
    _check_nonempty(pred, "nll")
    means, scales, horizon = pred.means.data, pred.scales.data, pred.horizon
    diff = future[..., None, :, :] - means  # (..., K, T, 2)
    z = diff / scales
    terms = -np.log(scales) - HALF_LOG_2PI - 0.5 * (z * z)
    # per-mode trajectory log density: each mode's T*2 block in one reduce -> (..., K)
    log_density = np.add.reduce(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)
    log_weights, log_softmax_backward = _log_softmax(pred.logits.data)
    lse, shifted, lse_backward = _logsumexp(log_density + log_weights)
    # a non-finite joint, or a shift that overflows, would vanish in exp()
    ad.check_finite(shifted)
    per_agent = lse.reshape(lse.shape[:-1])
    value = -_mean(per_agent) / horizon

    def backward_fn(g):
        g_lse = -(g / horizon) / per_agent.size  # the mean's gradient, one value for all
        via_shift, via_peak = lse_backward(g_lse)
        g_joint = via_shift + via_peak
        g_terms = g_joint[..., None, None]  # broadcast over each mode's (T, 2) block
        g_square = -g_terms * 0.5
        via_square = g_square * z  # once per factor of z * z
        g_z = via_square + via_square
        g_diff = g_z / scales
        return (
            -g_diff,
            -g_terms / scales,
            -g_z * diff / (scales * scales),
            *log_softmax_backward(g_joint),
        )

    logits = pred.logits
    return ad.record(
        value,
        (pred.means, pred.scales, pred.scales, logits, logits, logits),
        backward_fn,
    )


def kl_distill(
    teacher: MixturePrediction, student: MixturePrediction, detach_teacher: bool = True
) -> Tensor:
    """Closed-form KL from teacher to student, index-matched per mode.

    Mean over agents, timesteps, and modes of the diagonal-Gaussian KL, plus
    the categorical KL between mode weights averaged over agents. With
    ``detach_teacher`` no gradient flows back into the teacher parameters.
    One tape node that replays the composed chain (see ``autodiff``).
    """
    if teacher.means.shape != student.means.shape or teacher.logits.shape != student.logits.shape:
        raise ValueError("teacher/student shapes differ")
    _check_scales(teacher)
    _check_scales(student)
    _check_nonempty(student, "kl_distill")
    t_scales, t_means, t_logits = teacher.scales.data, teacher.means.data, teacher.logits.data
    s_scales, s_means, s_logits = student.scales.data, student.means.data, student.logits.data

    log_ratio = np.log(s_scales) - np.log(t_scales)
    denominator = 2.0 * (s_scales * s_scales)
    ad.check_finite(denominator)  # an infinite student variance would zero the ratio
    if not denominator.all():
        raise DomainError("div: divisor contains zero")
    mean_diff = t_means - s_means
    numerator = t_scales * t_scales + mean_diff * mean_diff
    per_dim = log_ratio + numerator / denominator - 0.5
    per_step = per_dim[..., 0] + per_dim[..., 1]  # the sum over the two coordinates
    gaussian = _mean(per_step)

    log_t, log_softmax_t_backward = _log_softmax(t_logits)
    log_s, log_softmax_s_backward = _log_softmax(s_logits)
    shifted_t = t_logits - np.maximum.reduce(t_logits, axis=-1, keepdims=True)
    e_t = np.exp(shifted_t)
    weights_t = e_t / np.add.reduce(e_t, axis=-1, keepdims=True)
    log_gap = log_t - log_s
    per_agent = np.add.reduce(weights_t * log_gap, axis=(log_gap.ndim - 1,))
    categorical = _mean(per_agent)

    def backward_fn(g):
        # both means spread one value over every element: g / count, broadcast
        g_per_dim = g / per_step.size
        g_numerator = g_per_dim / denominator
        g_denominator = -g_per_dim * numerator / (denominator * denominator)
        via_s_square = g_denominator * 2.0 * s_scales  # once per factor of s * s
        via_diff_square = g_numerator * mean_diff  # once per factor
        g_mean_diff = via_diff_square + via_diff_square
        g_product = g / per_agent.size
        g_log_gap = g_product * weights_t
        student_means_scales = (-g_mean_diff, g_per_dim / s_scales, via_s_square, via_s_square)
        student_logits = log_softmax_s_backward(-g_log_gap)
        if detach_teacher:
            return (*student_means_scales, *student_logits)
        via_t_square = g_numerator * t_scales  # once per factor of t * t
        g_weights = g_product * log_gap
        inner = np.add.reduce(g_weights * weights_t, axis=-1, keepdims=True)
        return (
            -g_per_dim / t_scales,
            via_t_square,
            via_t_square,
            g_mean_diff,
            *student_means_scales,
            (g_weights - inner) * weights_t,
            *log_softmax_t_backward(g_log_gap),
            *student_logits,
        )

    # the composed walk reaches the student's logits first, then the
    # teacher's logits, the student's scales and means, the teacher's means
    # and scales; the stack pops the last parent first
    s_means_scales = (student.means, student.scales, student.scales, student.scales)
    s_logits = (student.logits,) * 3
    if detach_teacher:
        parents = (*s_means_scales, *s_logits)
    else:
        parents = (
            teacher.scales, teacher.scales, teacher.scales, teacher.means,
            *s_means_scales,
            *(teacher.logits,) * 4,
            *s_logits,
        )
    return ad.record(gaussian + categorical, parents, backward_fn)


def draw_samples(
    pred: MixturePrediction,
    k_eval: int,
    mode: str = "mode-means",
    seed: Sequence[int] | None = None,
) -> np.ndarray:
    """Trajectory samples for best-of-K evaluation, (k_eval, ..., T, 2).

    ``mode-means`` returns per-mode mean trajectories ordered by descending
    mode weight (requires k_eval <= K), for a prediction of any leading
    shape, (..., K, T, 2) -> (k_eval, ..., T, 2), such as one scene or a
    stack of scenes. ``stochastic`` takes a stack of scenes (B, N, K, T, 2)
    and one seed per scene, and draws a mode index per sample and agent,
    then Gaussian noise, from one stream per scene seeded with ``seed[b]``,
    so that each scene's samples do not depend on the rest of the stack.
    """
    means = pred.means.data
    scales = pred.scales.data
    logits = pred.logits.data
    weights = np.exp(logits - logits.max(-1, keepdims=True))
    weights = weights / weights.sum(-1, keepdims=True)

    if mode == "mode-means":
        n_modes = means.shape[-3]
        if k_eval > n_modes:
            raise ValueError(f"mode-means needs k_eval <= {n_modes}, got {k_eval}")
        order = np.argsort(-weights, axis=-1, kind="stable")  # (..., K)
        trajectories = means.reshape(-1, *means.shape[-3:])  # (agents, K, T, 2)
        top = order.reshape(-1, n_modes)[:, :k_eval].T  # (k_eval, agents)
        picked = trajectories[np.arange(len(trajectories)), top]  # (k_eval, agents, T, 2)
        return picked.reshape((k_eval,) + means.shape[:-3] + means.shape[-2:])

    if mode == "stochastic":
        if means.ndim != 5 or seed is None or np.isscalar(seed):
            raise ValueError(
                "stochastic draw_samples takes a stack (B, N, K, T, 2) with one seed per scene"
            )
        if len(seed) != means.shape[0]:
            raise ValueError(f"{means.shape[0]} stacked scenes need as many seeds, got {len(seed)}")
        n_scenes, n_agents, n_modes, horizon, _ = means.shape
        rngs = [np.random.default_rng(s) for s in seed]
        cum = np.cumsum(weights, axis=-1)
        scene_rows, agent_rows = np.arange(n_scenes)[:, None], np.arange(n_agents)
        samples = np.empty((k_eval, n_scenes, n_agents, horizon, 2))
        for k in range(k_eval):
            u = np.stack([rng.random(n_agents) for rng in rngs])  # (B, N)
            modes = np.minimum((u[..., None] > cum).sum(-1), n_modes - 1)
            mu = means[scene_rows, agent_rows, modes]  # (B, N, T, 2)
            sd = scales[scene_rows, agent_rows, modes]
            noise = np.stack([rng.standard_normal((n_agents, horizon, 2)) for rng in rngs])
            samples[k] = mu + sd * noise
        return samples

    raise ValueError(f"unknown sampling mode {mode!r}")

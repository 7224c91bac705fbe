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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DomainError, Tensor

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MixturePrediction:
    """Mixture parameters for N agents over T future steps and K modes.

    means:  (..., T, K, 2) meters
    scales: (..., T, K, 2) meters, diagonal standard deviations (> 0)
    logits: (..., K) unitless mode scores; softmax gives per-agent weights
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
            raise ValueError(f"means must be (..., T, K, 2), got {self.means.shape}")
        expected_logits = self.means.shape[:-3] + (self.means.shape[-2],)
        if self.logits.shape != expected_logits:
            raise ValueError(
                f"logits shape {self.logits.shape} inconsistent with means {self.means.shape}"
            )

    @property
    def n_modes(self) -> int:
        return self.means.shape[-2]

    @property
    def horizon(self) -> int:
        return self.means.shape[-3]

    def detach(self) -> "MixturePrediction":
        return MixturePrediction(self.means.detach(), self.scales.detach(), self.logits.detach())


def _check_scales(pred: MixturePrediction) -> None:
    if np.any(pred.scales.data <= 0.0):
        raise DomainError("mixture scales must be strictly positive")


def nll(pred: MixturePrediction, future: np.ndarray) -> Tensor:
    """Trajectory-level negative log-likelihood of the ground-truth future.

    Per agent, -log sum_k pi_k prod_t N(y_t | mu_kt, sigma_kt), divided by
    the horizon T and averaged over every leading axis; the log-sum-exp over
    modes runs once per agent, so one mode must explain the whole trajectory.
    With K=1 this is the mean per-step NLL. Differentiable w.r.t. all mixture
    parameters.
    """
    _check_scales(pred)
    future = np.asarray(future, dtype=np.float64)
    if future.shape != pred.means.shape[:-3] + (pred.horizon, 2):
        raise ValueError(
            f"future shape {future.shape} inconsistent with prediction {pred.means.shape}"
        )
    target = Tensor(np.expand_dims(future, -2))  # (..., T, 1, 2)
    z = (target - pred.means) / pred.scales
    # per-mode trajectory log density, summed over coordinates and T -> (..., K)
    log_density = ad.reduce_sum(
        -ad.log(pred.scales) - 0.5 * LOG_2PI - 0.5 * (z * z), axis=(-3, -1)
    )
    joint = log_density + ad.log_softmax(pred.logits, axis=-1)
    return -ad.reduce_mean(ad.logsumexp(joint, axis=-1)) / pred.horizon


def kl_distill(
    teacher: MixturePrediction, student: MixturePrediction, detach_teacher: bool = True
) -> Tensor:
    """Closed-form KL from teacher to student, index-matched per mode.

    Mean over agents, timesteps, and modes of the diagonal-Gaussian KL, plus
    the categorical KL between mode weights averaged over agents. With
    ``detach_teacher`` no gradient flows back into the teacher parameters.
    """
    if teacher.means.shape != student.means.shape or teacher.logits.shape != student.logits.shape:
        raise ValueError("teacher/student shapes differ")
    _check_scales(teacher)
    _check_scales(student)
    t = teacher.detach() if detach_teacher else teacher

    log_ratio = ad.log(student.scales) - ad.log(t.scales)
    var_t = t.scales * t.scales
    var_s = student.scales * student.scales
    mean_diff = t.means - student.means
    per_dim = log_ratio + (var_t + mean_diff * mean_diff) / (2.0 * var_s) - 0.5
    gaussian = ad.reduce_mean(ad.reduce_sum(per_dim, axis=-1))

    log_t = ad.log_softmax(t.logits, axis=-1)
    log_s = ad.log_softmax(student.logits, axis=-1)
    weights_t = ad.softmax(t.logits, axis=-1)
    categorical = ad.reduce_mean(ad.reduce_sum(weights_t * (log_t - log_s), axis=-1))
    return gaussian + categorical


def draw_samples(
    pred: MixturePrediction,
    k_eval: int,
    mode: str = "mode-means",
    seed: int | None = None,
) -> np.ndarray:
    """Trajectory samples (k_eval, N, T, 2) for best-of-K evaluation.

    ``mode-means`` returns per-mode mean trajectories ordered by descending
    mode weight (requires k_eval <= K). ``stochastic`` draws a mode index per
    sample and agent, then Gaussian noise; reproducible under ``seed``.
    """
    means = pred.means.data
    scales = pred.scales.data
    if means.ndim != 4:
        raise ValueError("draw_samples expects an unbatched (N, T, K, 2) prediction")
    n_agents, horizon, n_modes, _ = means.shape
    logits = pred.logits.data
    weights = np.exp(logits - logits.max(-1, keepdims=True))
    weights = weights / weights.sum(-1, keepdims=True)

    if mode == "mode-means":
        if k_eval > n_modes:
            raise ValueError(f"mode-means needs k_eval <= {n_modes}, got {k_eval}")
        order = np.argsort(-weights, axis=-1, kind="stable")  # (N, K)
        idx = order[:, None, :, None]
        reordered = np.take_along_axis(means, np.broadcast_to(idx, means.shape), axis=2)
        return np.moveaxis(reordered, 2, 0)[:k_eval].copy()

    if mode == "stochastic":
        rng = np.random.default_rng(seed)
        cum = np.cumsum(weights, axis=-1)
        samples = np.empty((k_eval, n_agents, horizon, 2))
        for k in range(k_eval):
            u = rng.random(n_agents)
            modes = np.minimum((u[:, None] > cum).sum(-1), n_modes - 1)
            sel = modes[:, None, None, None]
            mu = np.take_along_axis(means, np.broadcast_to(sel, (n_agents, horizon, 1, 2)), axis=2)[:, :, 0]
            sd = np.take_along_axis(scales, np.broadcast_to(sel, (n_agents, horizon, 1, 2)), axis=2)[:, :, 0]
            samples[k] = mu + sd * rng.standard_normal((n_agents, horizon, 2))
        return samples

    raise ValueError(f"unknown sampling mode {mode!r}")

"""Multi-branch manager: combined loss, unseen-length routing, param counting.

Every branch sees the last H_b steps of one observed history, as
``data.Normalizer.transform`` cuts it, and all of them predict the same
future; the long branch is fit by negative log-likelihood while the shorter
branches are pulled toward the long branch's predicted distribution. At
inference an arbitrary observed length is routed to the branch with the
nearest training length (ties go to the longer branch).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import backbone as bb
from .autodiff import Tensor
from .backbone import FlnParams
from .config import BranchConfig
from .mixture import MixturePrediction, kl_distill, nll


class FlnLoss(NamedTuple):
    total: Tensor
    reg: Tensor
    kl: Tensor


def fln_loss(
    observed: np.ndarray, future: np.ndarray, params: FlnParams, cfg: BranchConfig
) -> FlnLoss:
    """Combined loss over the three branches of one (possibly batched) scene.

    Each branch sees the last H_b steps of ``observed``, with H_b the model's
    own branch length, so the three inputs are suffixes of one history. A
    history shorter than the long branch is rejected, since the branch
    forward would take it suffix-aligned, and so is a ``cfg`` whose lengths
    differ from the model's.
    reg is the long branch's NLL against ``future``; kl is the sum of
    teacher-to-student distillation terms in the default configuration, or
    the direct per-branch NLL when temporal distillation is ablated.
    """
    lengths = params.lengths
    if cfg.lengths != lengths:
        raise ValueError(f"config branch lengths {cfg.lengths} do not match the model's {lengths}")
    fed = np.shape(observed)[-2]
    if fed < lengths["L"]:
        raise ValueError(f"observation length {fed} does not match branch L (H={lengths['L']})")
    preds = {
        branch: bb.forward(observed[..., -lengths[branch]:, :], branch, params)
        for branch in ("L", "M", "S")
    }
    reg = nll(preds["L"], future)
    if cfg.temporal_distillation:
        kl = kl_distill(preds["L"], preds["M"], cfg.detach_teacher) + kl_distill(
            preds["L"], preds["S"], cfg.detach_teacher
        )
    else:
        # the direct approach: fit every branch to the future independently
        kl = nll(preds["M"], future) + nll(preds["S"], future)
    total = reg + cfg.lambda_kl * kl
    return FlnLoss(total=total, reg=reg, kl=kl)


def route(h_prime: int, lengths: dict[str, int]) -> str:
    """Branch whose training length is nearest h_prime; ties pick the longer."""
    if h_prime < 1:
        raise ValueError("observed length must be >= 1")
    return min(lengths, key=lambda b: (abs(h_prime - lengths[b]), -lengths[b]))


def routed_branch(h_prime: int, params: FlnParams) -> str:
    """The branch an observation of ``h_prime`` steps runs through: the one
    ``route`` picks. Lengths shorter than every branch are rejected."""
    branch = route(h_prime, params.lengths)
    shortest = min(params.lengths.values())
    if h_prime < shortest:
        raise ValueError(
            f"observed length {h_prime} is shorter than every branch length "
            f"(minimum {shortest}); no branch can be fed"
        )
    return branch


def forward_routed(observations: np.ndarray, params: FlnParams) -> tuple[MixturePrediction, str]:
    """Run the branch ``routed_branch`` picks for an arbitrary-length
    observation on its last H_b steps; a shorter observation is
    suffix-aligned within the branch window by ``backbone.forward``."""
    branch = routed_branch(np.shape(observations)[-2], params)
    obs = np.asarray(observations, dtype=np.float64)
    return bb.forward(obs[..., -params.lengths[branch]:, :], branch, params), branch


@dataclass
class ParamCount:
    shared: int
    per_branch: dict[str, int]
    single_total: int
    extra: int
    overhead: float
    total: int


def count_parameters(params: FlnParams) -> ParamCount:
    """Parameter accounting: shared vs branch-specific, plus the overhead the
    extra branches add relative to an equivalent single-branch model."""
    shared = 0
    per_branch: dict[str, int] = {b: 0 for b in params.branch_ids}
    for name, tensor in params.tensors.items():
        size = tensor.size
        head = name.split(".", 2)
        if head[0] in ("theta", "sln", "pe") and head[1] in per_branch:
            per_branch[head[1]] += size
        else:
            shared += size
    reference = params.branch_ids[-1]  # the longest branch stands in for a single model
    single_total = shared + per_branch[reference]
    extra = sum(count for branch, count in per_branch.items() if branch != reference)
    overhead = extra / single_total if single_total else 0.0
    return ParamCount(
        shared=shared,
        per_branch=per_branch,
        single_total=single_total,
        extra=extra,
        overhead=overhead,
        total=shared + sum(per_branch.values()),
    )
